import cProfile
import json
import math
import random
import re
import tracemalloc
from dataclasses import asdict
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from radsigns import corpus
from radsigns.corpus import (
    ENTITY_KINDS,
    RELATION_ENDPOINTS,
    RELATION_KINDS,
    TAG_LABELS,
    CorpusFormatError,
    Entity,
    FlatCorpus,
    RecordLines,
    Relation,
    SecondaryPartDictionary,
    read_dictionary,
    read_emission_blocks,
    read_relations,
    read_tagged_flat,
    read_text_flat,
    write_emissions,
    write_tagged_flat,
)

from _synth import Labels, Quadruple, Text, flat_corpus, path_of, tags_of
from conftest import FIG_LABELS, FIG_TEXT, emission_dict, emission_triple


def write_text(path, content):
    path.write_text(content, encoding="utf-8")
    return path


def fields(flat):
    return flat.text, flat.lengths.tolist(), flat.indices, flat.ids


def rows_pairs(sentences):
    """``(Text, Labels)`` pairs of lists of ``(character, label)`` rows."""
    return [(Text(f"s{i}", "".join(c for c, _ in rows)), Labels(path_of(t for _, t in rows)))
            for i, rows in enumerate(sentences, 1)]


# sentence id characters: plain ones, whitespace of several kinds, a BOM and
# any other encodable character
EMISSION_ID_CHARS = st.one_of(
    st.sampled_from("s1 \t\u00a0\u2028\x1c\x85\ufeff"),
    st.characters(codec="utf-8"),
)

# any character a tagged corpus can hold: all but line breaks and lone
# surrogates, with tabs, spaces, a BOM and separators that str.splitlines
# (but not a text-mode file) breaks lines at drawn often
CORPUS_CHARS = st.one_of(
    st.sampled_from("\t \ufeff\x0b\x0c\x1c\x85\u2028"),
    st.characters(codec="utf-8", exclude_characters="\n\r"),
)


class TestTaggedCorpusReader:
    def test_example_sentence(self, tmp_path):
        lines = "".join(f"{c}\t{t}\n" for c, t in zip(FIG_TEXT, FIG_LABELS))
        flat = read_tagged_flat(write_text(tmp_path / "corpus.tsv", lines))
        assert (flat.text, flat.lengths.tolist()) == (FIG_TEXT, [16])
        assert tags_of(flat.indices) == FIG_LABELS

    def test_single_line_sentence(self, tmp_path):
        path = write_text(tmp_path / "one.tsv", "肺\tO\n")
        flat = read_tagged_flat(path)
        assert flat.lengths.tolist() == [1]
        assert tags_of(flat.indices) == ("O",)

    def test_space_separated_line_is_malformed(self, tmp_path):
        path = write_text(tmp_path / "bad.tsv", "肺 O B-P\n")
        with pytest.raises(CorpusFormatError, match="expected"):
            read_tagged_flat(path)

    def test_unknown_tag(self, tmp_path):
        path = write_text(tmp_path / "bad.tsv", "肺\tB-X\n")
        with pytest.raises(CorpusFormatError, match="unknown tag"):
            read_tagged_flat(path)

    def test_multichar_field(self, tmp_path):
        path = write_text(tmp_path / "bad.tsv", "肺炎\tO\n")
        with pytest.raises(CorpusFormatError, match="single character"):
            read_tagged_flat(path)

    def test_empty_file(self, tmp_path):
        path = write_text(tmp_path / "empty.tsv", "")
        with pytest.raises(CorpusFormatError, match="no sentences"):
            read_tagged_flat(path)

    def test_blank_lines_separate_sentences(self, tmp_path):
        path = write_text(tmp_path / "two.tsv", "肺\tO\n\n影\tB-Abn\n")
        flat = read_tagged_flat(path)
        assert (flat.text, flat.lengths.tolist(), flat.ids) == ("肺影", [1, 1], ["s1", "s2"])

    def test_round_trip(self, tmp_path):
        lines = "".join(f"{c}\t{t}\n" for c, t in zip(FIG_TEXT, FIG_LABELS))
        lines += "\n肺\tO\n"
        original = read_tagged_flat(write_text(tmp_path / "a.tsv", lines))
        out = tmp_path / "b.tsv"
        write_tagged_flat(original, out)
        assert fields(read_tagged_flat(out)) == fields(original)

    def test_extra_field_names_path_and_line(self, tmp_path):
        path = write_text(tmp_path / "bad.tsv", "肺\tO\n肺\t炎\tO\n")
        message = f"{path}:2: first field must be a single character, got {'肺' + chr(9) + '炎'!r}"
        with pytest.raises(CorpusFormatError, match=re.escape(message)):
            read_tagged_flat(path)

    @pytest.mark.parametrize("char", ["\n", "\r"])
    def test_writer_rejects_line_breaks(self, tmp_path, char):
        with pytest.raises(ValueError, match="line break"):
            write_tagged_flat(FlatCorpus("肺" + char, [2], bytes(2)), tmp_path / "out.tsv")

    def test_writer_reports_the_first_bad_pair(self, tmp_path):
        # ids are positional: the first sentence with a line break is s2
        with pytest.raises(ValueError, match="sentence 's2': a line break"):
            write_tagged_flat(FlatCorpus("肺肺\n肺\n", [1, 2, 2], bytes(5)), tmp_path / "out.tsv")
        assert not (tmp_path / "out.tsv").exists()

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sentences=st.lists(st.lists(st.tuples(CORPUS_CHARS, st.sampled_from(TAG_LABELS)),
                                       min_size=1, max_size=6), min_size=1, max_size=4))
    @example(sentences=[[("\t", "O")], [("\ufeff", "B-P")]])
    @example(sentences=[[("\ufeff", "O"), ("\t", "B-P")]])
    def test_write_read_round_trip_is_exact(self, tmp_path, sentences):
        flat = flat_corpus(rows_pairs(sentences))
        path = tmp_path / "c.tsv"
        write_tagged_flat(flat, path)
        assert fields(read_tagged_flat(path)) == fields(flat)


def reference_lines(path):
    """``(lineno, line)`` of a text file read line by line in text mode,
    BOM dropped; an undecodable byte raises ``CorpusFormatError`` at the
    first line whose bytes do not decode, text mode's line breaks being
    ``\\n``, ``\\r\\n`` and ``\\r``."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield from enumerate((raw.rstrip("\n") for raw in fh), 1)
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh.read().splitlines(), 1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as line_exc:
                    raise CorpusFormatError(f"{path}:{lineno}: {line_exc}") from None
        raise CorpusFormatError(f"{path}: {exc}") from None


def reference_read_tagged_corpus(path):
    """The tagged corpus reader as a loop over lines, one character each."""
    pairs, chars, tags = [], [], []
    for lineno, line in chain(reference_lines(path), [(0, "")]):
        if line == "":
            if chars:
                pairs.append((Text(f"s{len(pairs) + 1}", "".join(chars)), Labels(path_of(tags))))
                chars, tags = [], []
            continue
        ch, tab, tag = line.rpartition("\t")
        if not tab:
            raise CorpusFormatError(f"{path}:{lineno}: expected '<char>\\t<tag>', got {line!r}")
        if len(ch) != 1:
            raise CorpusFormatError(
                f"{path}:{lineno}: first field must be a single character, got {ch!r}")
        if tag not in TAG_LABELS:
            raise CorpusFormatError(f"{path}:{lineno}: unknown tag {tag!r}")
        chars.append(ch)
        tags.append(tag)
    if not pairs:
        raise CorpusFormatError(f"{path}: no sentences found")
    return pairs


def reference_read_text_sentences(path):
    lines = [line for _, line in reference_lines(path) if line]
    return [Text(f"s{i}", line) for i, line in enumerate(lines, 1)]


def reference_write_tagged_corpus(pairs, path):
    """The tagged corpus writer as a loop over characters."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, (sentence, tags) in enumerate(pairs):
            if i:
                fh.write("\n")
            elif sentence.text[0] == "\ufeff":
                fh.write("\ufeff")
            for ch, tag in zip(sentence.text, tags.tags):
                fh.write(f"{ch}\t{tag}\n")


def read_outcome(reader, path):
    """The reader's value, or its exception's type and message."""
    try:
        return reader(path)
    except Exception as exc:
        return type(exc), str(exc)


LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def tagged_files(draw):
    """Bytes of a tagged corpus file: lines of a character and a tag, blank
    line runs, and lines with each error the reader reports, ended by
    ``\\n``, ``\\r\\n`` or ``\\r``, the last one maybe by nothing; maybe a
    BOM before them and an undecodable byte among them."""
    label = st.sampled_from(TAG_LABELS)
    line = st.one_of(
        st.builds("{}\t{}".format, CORPUS_CHARS, label),
        st.builds("{}\t{}".format, CORPUS_CHARS, label),   # good lines drawn twice as often
        st.just(""),
        st.builds("{}{}".format, CORPUS_CHARS, label),   # no tab
        st.builds("{}\t{}".format, st.text(CORPUS_CHARS, max_size=3), label),   # 0 or 2+ characters
        st.builds("{}\t{}".format, CORPUS_CHARS, st.text(CORPUS_CHARS, max_size=6)),   # any tag
        st.builds("{}\t{}{}".format, CORPUS_CHARS, label, st.sampled_from(["\t", " ", "\x85", "\u2028"])),
    )
    lines = draw(st.lists(line, max_size=12))
    ends = [draw(LINE_ENDS) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    content = ("\ufeff" if draw(st.booleans()) else "") + "".join(map("".join, zip(lines, ends)))
    data = content.encode("utf-8")
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


class TestFlatCorpusIO:
    """The flat readers and writer equal loops over lines: the same values,
    or the same error message."""

    @settings(deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=tagged_files())
    @example(data="\ufeff\ufeff\tO\r\r\n\t\tB-P\x85\n\u2028\tI-P".encode())
    @example(data="a\tO\n\n\n\nb\tB-Abn\r\n \tI-Abn".encode())
    @example(data=b"a\tO\nab\tO\n\xff")
    @example(data=b"\r\n\n\r")
    @example(data=b"")
    def test_tagged_reader_equals_the_line_loop(self, tmp_path, data):
        path = tmp_path / "c.tsv"
        path.write_bytes(data)
        expected = read_outcome(reference_read_tagged_corpus, path)
        flat = read_outcome(read_tagged_flat, path)
        if isinstance(expected, list):
            assert flat.text == "".join(s.text for s, _ in expected)
            assert flat.indices == b"".join(t.indices for _, t in expected)
            assert flat.lengths.tolist() == [len(s) for s, _ in expected]
            assert flat.ids == [s.id for s, _ in expected]
        else:
            assert flat == expected

    @settings(deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(st.text(CORPUS_CHARS, max_size=5), max_size=8), data=st.data())
    @example(lines=["", "", " ", "\t", "\ufeffa\u2028b\x85c\x1c"], data=None)
    def test_text_reader_equals_the_line_loop(self, tmp_path, lines, data):
        ends = [data.draw(LINE_ENDS) for _ in lines] if data else ["\r\n"] * len(lines)
        if data and ends and data.draw(st.booleans()):
            ends[-1] = ""
        content = "".join(map("".join, zip(lines, ends))).encode("utf-8")
        if data and data.draw(st.booleans()):
            content = b"\xef\xbb\xbf" + content
        path = tmp_path / "in.txt"
        path.write_bytes(content)
        expected = reference_read_text_sentences(path)
        flat = read_text_flat(path)
        assert fields(flat) == ("".join(s.text for s in expected), [len(s) for s in expected], None,
                                [s.id for s in expected])

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sentences=st.lists(st.lists(st.tuples(CORPUS_CHARS, st.sampled_from(TAG_LABELS)),
                                       min_size=1, max_size=6), max_size=5))
    @example(sentences=[[("\ufeff", "O")], [("\ufeff", "I-Abn")]])
    def test_flat_writer_bytes_equal_the_reference_writer(self, tmp_path, sentences):
        pairs = rows_pairs(sentences)
        write_tagged_flat(flat_corpus(pairs), tmp_path / "flat")
        reference_write_tagged_corpus(pairs, tmp_path / "reference")
        assert (tmp_path / "flat").read_bytes() == (tmp_path / "reference").read_bytes()

    def test_a_bad_line_before_a_far_undecodable_byte_is_the_error(self, tmp_path):
        # text mode decodes 8 KB at a time: a byte past the first chunk is
        # not met before line 2 is read and found bad
        path = tmp_path / "c.tsv"
        path.write_bytes("肺\tO\n肺 O\n".encode() + "右\tB-P\n".encode() * 2000 + b"\xff\tO\n")
        with pytest.raises(CorpusFormatError, match=rf"^{re.escape(str(path))}:2: expected"):
            read_tagged_flat(path)

    def test_a_near_undecodable_byte_is_the_error(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_bytes("肺\tO\n肺 O\n".encode() + "右\tB-P\n".encode() * 20 + b"\xff\tO\n")
        with pytest.raises(CorpusFormatError, match=rf"^{re.escape(str(path))}:23: 'utf-8' codec"):
            read_tagged_flat(path)

    def test_flat_corpus_windows_keep_their_ids_and_lengths_are_read_only(self):
        flat = FlatCorpus("abcdef", [1, 2, 3], bytes([0, 1, 2, 3, 4, 5]))
        window = flat.window(1, 5)
        assert (window.text, window.lengths.tolist(), window.indices, window.ids) == (
            "bcdef", [2, 3], bytes([1, 2, 3, 4, 5]), ["s2", "s3"])
        with pytest.raises(ValueError):
            flat.lengths[0] = 6
        for lengths in ([1, 2, 2], [0, 6]):
            with pytest.raises(ValueError, match=r"^sentence lengths \[.*\] must be positive and sum "
                                                 r"to the text's length, 6$"):
                FlatCorpus("abcdef", lengths)
        for indices in (bytes(5), b"\0" * 5 + b"\7"):
            with pytest.raises(ValueError, match="^a tagged flat corpus needs a tag index below "
                                                 "NUM_TAGS per character$"):
                FlatCorpus("abcdef", [6], indices)

    @pytest.mark.parametrize("text, lengths", [
        ("ab", [1.2, 1.7]), ("ab", [True, True]), ("abc", [[1], [2, 3]])])
    def test_flat_corpus_lengths_must_be_a_1d_array_of_integers(self, text, lengths):
        with pytest.raises(ValueError, match=r"^sentence lengths must be a 1-D array of "
                                             r"integers, got " + re.escape(repr(lengths))):
            FlatCorpus(text, lengths)

    def test_writing_an_untagged_corpus_needs_tags(self, tmp_path):
        with pytest.raises(ValueError, match="needs a tagged corpus, not an untagged one"):
            write_tagged_flat(FlatCorpus("ab", [2]), tmp_path / "out.tsv")
        assert not (tmp_path / "out.tsv").exists()


class TestDictionary:
    def test_single_term(self, tmp_path):
        d = read_dictionary(write_text(tmp_path / "d.txt", "支气管\n"))
        assert "支气管" in d
        assert len(d) == 1

    def test_duplicates_collapse(self, tmp_path):
        d = read_dictionary(write_text(tmp_path / "d.txt", "支气管\n支气管\n"))
        assert len(d) == 1

    def test_comments_and_blanks_ignored(self, tmp_path):
        d = read_dictionary(write_text(tmp_path / "d.txt", "# parts\n\n食管\n"))
        assert list(d) == ["食管"]

    def test_only_comments_is_empty(self, tmp_path):
        path = write_text(tmp_path / "d.txt", "# nothing\n\n")
        with pytest.raises(CorpusFormatError, match="empty"):
            read_dictionary(path)

    def test_nfc_lookup(self, tmp_path):
        # decomposed e + combining acute normalizes to the composed form
        d = read_dictionary(write_text(tmp_path / "d.txt", "café\n"))
        assert "café" in d
        assert "café" in d

    def test_no_case_folding(self):
        d = SecondaryPartDictionary(frozenset({"abc"}))
        assert "abc" in d
        assert "ABC" not in d

    def test_empty_term_rejected(self):
        with pytest.raises(ValueError):
            SecondaryPartDictionary(frozenset({""}))


# ---------------------------------------------------------------------------
# Row-by-row reference: the emission reader as it was before blocks were
# parsed in one pass, kept to check the streaming reader against.


def reference_read_emissions(path):
    with open(path, encoding="utf-8") as fh:
        rows = [(lineno, line.strip()) for lineno, line in enumerate(fh, 1)]
    rows = [(lineno, line) for lineno, line in rows if line]

    blocks = {}
    i = 0
    while i < len(rows):
        lineno, header = rows[i]
        fields = header.split()
        if len(fields) != 3:
            raise CorpusFormatError(
                f"{path}:{lineno}: expected header '<sentence_id> <n> <k>', got {header!r}"
            )
        sid = fields[0]
        if sid in blocks:
            raise CorpusFormatError(f"{path}:{lineno}: a second emission block for sentence {sid!r}")
        try:
            n, k = int(fields[1]), int(fields[2])
        except ValueError:
            raise CorpusFormatError(
                f"{path}:{lineno}: header dimensions must be integers, got {header!r}"
            ) from None
        if k != 7:
            raise CorpusFormatError(f"{path}:{lineno}: k must be 7, got {k}")
        if n < 1:
            raise CorpusFormatError(f"{path}:{lineno}: n must be positive, got {n}")
        if i + 1 + n > len(rows):
            raise CorpusFormatError(
                f"{path}:{lineno}: header promises {n} rows for {sid!r} "
                f"but only {len(rows) - i - 1} follow"
            )
        block = np.empty((n, k))
        for r in range(n):
            row_lineno, row = rows[i + 1 + r]
            values = row.split()
            if len(values) != k:
                raise CorpusFormatError(
                    f"{path}:{row_lineno}: expected {k} values, got {len(values)}"
                )
            try:
                block[r] = [float(v) for v in values]
            except ValueError:
                raise CorpusFormatError(
                    f"{path}:{row_lineno}: non-numeric value in {row!r}"
                ) from None
            if not all(math.isfinite(v) for v in block[r]):
                raise CorpusFormatError(
                    f"{path}:{row_lineno}: non-finite value in {row!r}"
                )
        blocks[sid] = block
        i += 1 + n
    if not blocks:
        raise CorpusFormatError(f"{path}: no emission blocks found")
    return blocks


def outcome(reader, path):
    """(ids, block bytes) on success, (exception type, message) on failure;
    a reader may give a ``{sentence id: block}`` dict or ``read_emission_blocks``'
    ``(ids, lengths, scores)``."""
    try:
        blocks = reader(path)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(blocks, tuple):
        blocks = emission_dict(*blocks)
    return list(blocks), [(b.shape, b.tobytes()) for b in blocks.values()]


GOOD_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["0", "-0", ".5", "+2", "1e-3", "5e-324", "1.7976931348623157e308", "1E5"]),
)
# numbers that Python float reads and np.loadtxt does not, so a batch that
# holds one is parsed again by the float fallback
FLOAT_ONLY_TOKENS = ["1_0", "\u0663", "-1_000.5e-1_0", "\uff11\uff12"]
GOOD_TOKENS = st.one_of(GOOD_TOKENS, st.sampled_from(FLOAT_ONLY_TOKENS))
BAD_TOKENS = ["nan", "inf", "1e400", "x", "1__0", "0x1p3"]


@st.composite
def emission_files(draw):
    """Text of a valid emission file with 0-2 injected defects."""
    lines, headers = [], []
    for b in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 4))
        headers.append((len(lines), f"s{b}", str(n)))
        lines.append([f"s{b}", str(n), "7"])
        lines.extend(draw(st.lists(GOOD_TOKENS, min_size=7, max_size=7)) for _ in range(n))
    for defect in draw(st.lists(st.sampled_from(
            ["extra", "missing", "bad", "blank", "drop", "header"]), max_size=2)):
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if defect == "extra" and lines:
            lines[i].insert(draw(st.integers(0, len(lines[i]))), draw(GOOD_TOKENS))
        elif defect == "missing" and lines and lines[i]:
            del lines[i][draw(st.integers(0, len(lines[i]) - 1))]
        elif defect == "bad" and lines and lines[i]:
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(st.sampled_from(BAD_TOKENS))
        elif defect == "blank":
            lines.insert(i, [])
        elif defect == "drop" and lines:
            del lines[i]
        elif defect == "header":
            h, sid, n = draw(st.sampled_from(headers))
            if h < len(lines):
                lines[h] = draw(st.sampled_from([
                    [sid, n], [sid, "x", "7"], [sid, n, "8"], [sid, "0", "7"],
                    [sid, "-1", "7"], [sid, "1" + "0" * 30, "7"], [sid, "\u0662", "7"],
                    [sid, str(int(n) + 1), "7"], [sid, str(int(n) - 1), "7"],
                ]))
    parts = []
    for tokens in lines:
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        parts.append(pad + sep.join(tokens) + draw(st.sampled_from(["", " ", "\t"])))
        parts.append(draw(st.sampled_from(["\n", "\r\n"])))
    return "".join(parts)


def near_midpoint_decimals(count: int, seed: int) -> list[str]:
    """``count`` decimals of 15 to 18 significant digits, each within 1e-18
    (relative) of the midpoint K / 2**(w + f) of two adjacent doubles, K odd
    and of 54 bits.  The decimal q / 10**f differs from it by t / (2**w * 10**f)
    when K * 5**f = q * 2**w + t, so K is drawn as a small odd t over 5**f
    modulo 2**w, plus a random multiple of 2**w."""
    rng = random.Random(seed)
    decimals = []
    while len(decimals) < count:
        digits = rng.randint(15, 18)
        places = rng.randint(digits - 1, digits + 3)   # values from about 1e-4 to 10
        w = round(53.5 + places * math.log2(5) - (digits - 0.5) * math.log2(10))
        t = rng.randrange(1, 2**53 * 5**places // 10**18, 2) * rng.choice((-1, 1))
        k = t * pow(5**places, -1, 2**w) % 2**w + 2**w * rng.randrange(2**53 >> w, 2**54 >> w)
        q, rest = divmod(k * 5**places - t, 2**w)
        assert rest == 0 and k % 2 and 2**53 <= k < 2**54
        midpoint = Fraction(k, 2**(w + places))
        assert abs(Fraction(q, 10**places) - midpoint) < midpoint / 10**18
        if len(str(q)) == digits:
            text = str(q).rjust(places + 1, "0")
            decimals.append(rng.choice(("", "-")) + text[:-places] + "." + text[-places:])
    return decimals


EXACT_CASES = [
    "9007199254740993", "-0", "+.5", "5.", "-0.0", "+0", "0.1", "-.25",
    "123456789012345678", "-999999999999999999", "0.123456789012345678",   # 18-digit mantissas
    "1234567890123456789", "-9999999999999999999", "0.1234567890123456789",   # 19 digits
    "9223372036854775807", "9223372036854775808", "-9223372036854775809",   # int64 ends
    "00000000000000000000001.5", "1e-5", "2.5E+3", "-7.0e0",
    "0.0000000000000000000000000001234", "1.00000000000000000000000000000000001",   # 28+ places
]


def no_line_reader(path):
    raise AssertionError(f"{path} was read line by line")


def test_values_equal_python_float_bit_for_bit(tmp_path, monkeypatch):
    if corpus._X87:   # the fast reader must read every one of them
        monkeypatch.setattr(corpus, "_read_emission_lines", no_line_reader)
    tokens = near_midpoint_decimals(10_000, seed=43) + EXACT_CASES
    tokens += ["0"] * (-len(tokens) % 7)
    rows = len(tokens) // 7
    path = write_text(tmp_path / "e.txt", f"s1 {rows} 7\n" + "".join(
        " ".join(tokens[i:i + 7]) + "\n" for i in range(0, len(tokens), 7)))
    expected = np.array([float(token) for token in tokens])
    assert read_emission_blocks(path)[2].tobytes() == expected.reshape(rows, 7).tobytes()
    if corpus._X87:   # a plain cast of the quotient misses some of them
        mantissas = np.array([int(token.replace(".", "")) for token in tokens[:10_000]])
        places = [len(token) - token.index(".") - 1 for token in tokens[:10_000]]
        cast = (mantissas.astype(np.longdouble) / corpus._POW10[places]).astype(np.float64)
        assert 0 < np.count_nonzero(cast != expected[:10_000]) < 1000


# the byte classes of the fast reader as the ``bytes.translate`` table it once
# ran over every byte of a chunk
OLD_BYTE_CLASS = bytes(next((kind for kind, members in enumerate(
    (b"\n", b" \t\r", b"0123456789", b".", b"+", b"-", b"eE")) if byte in members), 7)
    for byte in range(256))


def test_every_byte_keeps_its_translate_class():
    # the reader finds the non-digits as the bytes that wrap above 9 once 48
    # is taken away, and classifies only those
    codes = np.arange(256, dtype=np.uint8)
    old = np.frombuffer(codes.tobytes().translate(OLD_BYTE_CLASS), np.uint8)
    at = np.flatnonzero(np.subtract(codes, 48, dtype=np.uint8) > 9)
    assert at.tolist() == np.flatnonzero(old != corpus._DIGIT).tolist()
    assert corpus._BYTE_CLASS.take(codes.take(at)).tolist() == old[at].tolist()
    assert corpus._BYTE_CLASS.dtype == np.uint8 and corpus._BYTE_CLASS.tobytes() == OLD_BYTE_CLASS


class TestEmissions:
    def test_read_block(self, tmp_path):
        content = "s1 2 7\n" + "0 1 2 3 4 5 6\n" + ".5 .5 .5 .5 .5 .5 .5\n"
        ids, lengths, scores = read_emission_blocks(write_text(tmp_path / "e.txt", content))
        assert (ids, lengths.tolist(), lengths.dtype) == (["s1"], [2], np.intp)
        assert scores.shape == (2, 7)
        assert scores[0, 3] == 3.0

    def test_missing_row_is_dimension_mismatch(self, tmp_path):
        content = "s1 2 7\n0 1 2 3 4 5 6\n"
        with pytest.raises(CorpusFormatError, match="promises 2 rows"):
            read_emission_blocks(write_text(tmp_path / "e.txt", content))

    def test_nan_rejected(self, tmp_path):
        content = "s1 1 7\n0 0 nan 0 0 0 0\n"
        with pytest.raises(CorpusFormatError, match="non-finite"):
            read_emission_blocks(write_text(tmp_path / "e.txt", content))

    def test_wrong_k_rejected(self, tmp_path):
        content = "s1 1 8\n0 0 0 0 0 0 0 0\n"
        with pytest.raises(CorpusFormatError, match="k must be 7"):
            read_emission_blocks(write_text(tmp_path / "e.txt", content))

    def test_short_row_rejected(self, tmp_path):
        content = "s1 1 7\n0 0 0\n"
        with pytest.raises(CorpusFormatError, match="expected 7 values"):
            read_emission_blocks(write_text(tmp_path / "e.txt", content))

    def test_many_blocks_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        blocks = {"a": rng.standard_normal((3, 7)), "b": rng.standard_normal((1, 7))}
        path = tmp_path / "e.txt"
        write_emissions(*emission_triple(blocks), path)
        loaded = emission_dict(*read_emission_blocks(path))
        assert list(loaded) == ["a", "b"]
        for original, copy in zip(blocks.values(), loaded.values()):
            np.testing.assert_array_equal(original, copy)

    def test_bom_read_is_dropped_but_a_written_leading_u_feff_survives(self, tmp_path):
        bom = write_text(tmp_path / "bom.txt", "\ufeffs1 1 7\n0 0 0 0 0 0 0\n")
        assert read_emission_blocks(bom)[0] == ["s1"]
        path = tmp_path / "e.txt"
        write_emissions(["\ufeffs1", "\ufeffs2"], [1, 1], np.r_[np.zeros((1, 7)), np.ones((1, 7))],
                        path)
        assert read_emission_blocks(path)[0] == ["\ufeffs1", "\ufeffs2"]

    def test_first_bad_row_wins_over_later_rows(self, tmp_path):
        content = "s1 3 7\n0 0 0 0 0 0 0\n0 0 x 0 0 0 0\n0 0\n"
        with pytest.raises(CorpusFormatError, match=r"e\.txt:3: non-numeric value in '0 0 x 0 0 0 0'"):
            read_emission_blocks(write_text(tmp_path / "e.txt", content))

    def test_huge_row_count_is_dimension_mismatch(self, tmp_path):
        content = f"s1 {10**30} 7\n0 0 0 0 0 0 0\n"
        with pytest.raises(CorpusFormatError, match=f"promises {10**30} rows .* only 1 follow"):
            read_emission_blocks(write_text(tmp_path / "e.txt", content))

    def test_undecodable_byte_names_path_and_line(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_bytes(b"s1 1 7\r\n0 0 0 0 0 0 0\r\n\r\ns2 1 7\n0 0 \xff 0 0 0 0\n")
        with pytest.raises(CorpusFormatError, match=rf"^{re.escape(str(path))}:5: 'utf-8' codec can't decode byte 0xff in position 4"):
            read_emission_blocks(path)

    @staticmethod
    def check_against_reference(tmp_path, monkeypatch, text, parse_rows, parse_bytes, x87):
        # batches of 1 and 3 rows, and chunks of 1, 7 and 64 bytes, end inside
        # and between the files' blocks, lines and tokens
        monkeypatch.setattr(corpus, "_PARSE_ROWS", parse_rows)
        monkeypatch.setattr(corpus, "_PARSE_BYTES", parse_bytes)
        monkeypatch.setattr(corpus, "_X87", x87)
        path = tmp_path / "e.txt"
        path.write_text(text, encoding="utf-8", newline="")
        assert outcome(read_emission_blocks, path) == outcome(reference_read_emissions, path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=emission_files(), parse_rows=st.sampled_from([1, 3, corpus._PARSE_ROWS]),
           parse_bytes=st.sampled_from([1, 7, 64, corpus._PARSE_BYTES]))
    @example(text="nan 1 7\n0 0 0 0 0 0 0\nnan 1 7\n0 0 0 0 0 0 0\n",   # two "bad" defects
             parse_rows=corpus._PARSE_ROWS, parse_bytes=corpus._PARSE_BYTES)   # gave a repeated id
    def test_matches_row_by_row_reference(self, tmp_path, monkeypatch, text, parse_rows,
                                          parse_bytes):
        self.check_against_reference(tmp_path, monkeypatch, text, parse_rows, parse_bytes,
                                     corpus._X87)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=emission_files(), parse_rows=st.sampled_from([1, 3, corpus._PARSE_ROWS]))
    def test_the_line_reader_alone_matches_row_by_row_reference(self, tmp_path, monkeypatch,
                                                                text, parse_rows):
        # the reader of every file on a machine without x87 extended precision
        self.check_against_reference(tmp_path, monkeypatch, text, parse_rows,
                                     corpus._PARSE_BYTES, False)

    @pytest.mark.skipif(not corpus._X87, reason="the fast reader needs x87 extended precision")
    def test_written_and_repr_files_take_the_fast_path(self, tmp_path, monkeypatch):
        monkeypatch.setattr(corpus, "_read_emission_lines", no_line_reader)
        rng = np.random.default_rng(37)
        scales = 10.0 ** rng.integers(-30, 30, (200, 7))   # exponents in both writers' output
        blocks = {f"s{i}": rng.standard_normal((int(rng.integers(1, 20)), 7)) * scales[i]
                  for i in range(200)}
        path = tmp_path / "written.txt"
        write_emissions(*emission_triple(blocks), path)
        assert "e-" in path.read_text(encoding="utf-8")
        loaded = emission_dict(*read_emission_blocks(path))
        assert [b.tobytes() for b in loaded.values()] == [b.tobytes() for b in blocks.values()]
        path = write_text(tmp_path / "repr.txt", "".join(
            f"r{i} {len(b)} 7\r\n" + "".join(" ".join(map(repr, row)) + "\r\n"
                                            for row in b.tolist())
            for i, b in enumerate(blocks.values())))
        loaded = emission_dict(*read_emission_blocks(path))
        assert [b.tobytes() for b in loaded.values()] == [b.tobytes() for b in blocks.values()]

    @pytest.mark.parametrize("content", [
        "s1 1 7\n1 2\r3 4 5 6 7\n",   # a lone CR ends a line
        "s1 1 7\n1 2 3 4 5 6 7\rs2 1 7\n1 2 3 4 5 6 7\n",
        "s1 1 7\n1_0 0 0 0 0 0 0\n",   # Python float grammar
        "s1 1 7\n\u0663 0 0 0 0 0 0\n",
        "s1 1 7\n0\u00a00 0 0 0 0 0 0\n",   # Unicode whitespace
        "s1 1 7\n\x1c0 0 0 0 0 0 0\n",
        "s1 1 7\n0 0 0 0 0 0 1e999\n",   # beyond float range
        "s1 1 7\n0 0 0 0 0 0 -inf\n",
    ])
    def test_other_grammar_goes_to_the_line_reader(self, tmp_path, monkeypatch, content):
        calls, read_lines = [], corpus._read_emission_lines
        monkeypatch.setattr(corpus, "_read_emission_lines",
                            lambda path: calls.append(path) or read_lines(path))
        path = write_text(tmp_path / "e.txt", content)
        assert outcome(read_emission_blocks, path) == outcome(reference_read_emissions, path)
        assert calls == [path]

    @pytest.mark.parametrize("parse_bytes", [1, 7, 64])
    def test_small_chunks_read_as_the_line_reader(self, tmp_path, monkeypatch, parse_bytes):
        # with one line per chunk, a later id's leading U+FEFF starts a chunk
        monkeypatch.setattr(corpus, "_PARSE_BYTES", parse_bytes)
        rng = np.random.default_rng(47)
        path = tmp_path / "e.txt"
        blocks = {sid: rng.standard_normal((int(rng.integers(1, 9)), 7))
                  for sid in ("\ufeffa", "\ufeffb", "\u00e9.1e-5", "-1", "c")}
        write_emissions(*emission_triple(blocks), path)
        assert outcome(read_emission_blocks, path) == outcome(corpus._read_emission_lines, path)

    def test_writer_bytes_equal_per_value_formatting(self, tmp_path):
        rng = np.random.default_rng(41)
        scores = [rng.standard_normal((int(rng.integers(1, 30)), 7))
                  * 10.0 ** rng.integers(-320, 300, (1, 7)) for _ in range(50)]
        scores.append(np.array([[0.0, -0.0, 5e-324, -1.7976931348623157e308, 1e16, 1e17, 0.1]]))
        path = tmp_path / "e.txt"
        write_emissions(*emission_triple({f"s{i}": block for i, block in enumerate(scores)}), path)
        assert path.read_bytes() == "".join(
            f"s{i} {len(block)} 7\n" + "".join(" ".join(f"{v:.17g}" for v in row) + "\n"
                                            for row in block)
            for i, block in enumerate(scores)).encode()

    @pytest.mark.parametrize("parse_rows", [1, corpus._PARSE_ROWS])
    @pytest.mark.parametrize("later", [b"s0 1 8\n0 0 0 0 0 0 0 0\n", b"s0 1 7\n0 0 \xff 0 0 0 0\n",
                                       b"s0 3 7\n0 0 0 0 0 0 0\n"],
                             ids=["header", "byte", "short"])
    def test_bad_row_wins_over_a_later_error(self, tmp_path, monkeypatch, parse_rows, later):
        # the good blocks between span more than the decoder's 8 KB read-ahead
        # and fewer rows than a batch
        monkeypatch.setattr(corpus, "_PARSE_ROWS", parse_rows)
        good = b"".join(b"s%d 1 7\n%s\n" % (i, b" ".join([b"0.12345678901234567"] * 7))
                        for i in range(2, 100))
        path = tmp_path / "e.txt"
        path.write_bytes(b"s1 2 7\n0 0 0 0 0 0 0\n0 0 0 x 0 0 0\n" + good + later)
        with pytest.raises(CorpusFormatError, match=r"e\.txt:3: non-numeric value in '0 0 0 x 0 0 0'$"):
            read_emission_blocks(path)

    @pytest.mark.parametrize("parse_rows", [1, corpus._PARSE_ROWS])
    def test_float_only_numbers_parse_through_the_fallback(self, tmp_path, monkeypatch,
                                                          parse_rows):
        monkeypatch.setattr(corpus, "_PARSE_ROWS", parse_rows)
        content = "s1 1 7\n0 0 0 0 0 0 0\ns2 1 7\n1_0 \u0663 0 0 0 0 0\n"
        blocks = emission_dict(*read_emission_blocks(write_text(tmp_path / "e.txt", content)))
        assert blocks["s2"].tolist() == [[10.0, 3.0, 0, 0, 0, 0, 0]]
        assert blocks["s1"].tolist() == [[0.0] * 7]

    @staticmethod
    def read_with_transient(path):
        """The file's scores, and the reader's traced peak beyond its result."""
        tracemalloc.start()
        try:
            _, lengths, scores = read_emission_blocks(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return scores, peak - lengths.nbytes - scores.nbytes

    def test_transient_memory_is_bounded_by_the_batch(self, tmp_path):
        # a reader that held the whole file would grow by megabytes from
        # 4 to 16 batches; a batched one holds one batch whatever the size
        rng = np.random.default_rng(23)
        transient = []
        for batches in (4, 16):
            path = tmp_path / f"e{batches}.txt"
            rows = batches * corpus._PARSE_ROWS
            write_emissions(*emission_triple({f"s{i}": rng.standard_normal((64, 7))
                                              for i in range(rows // 64)}), path)
            transient.append(self.read_with_transient(path)[1])
        assert abs(transient[1] - transient[0]) <= 0.5e6, transient

    def test_a_long_block_is_parsed_in_batches(self, tmp_path):
        # 100,000 rows in one block cost the reader no more memory than the
        # same rows in 1,000 blocks; holding the block's lines whole took
        # about 27 MB more
        rows = [" ".join(map(str, row)) for row in
                np.random.default_rng(29).integers(-99, 100, (100_000, 7)).tolist()]
        results, transient = [], []
        for size in (len(rows), 100):
            path = write_text(tmp_path / f"e{size}.txt", "".join(
                f"s{i} {size} 7\n" + "\n".join(rows[i * size:(i + 1) * size]) + "\n"
                for i in range(len(rows) // size)))
            scores, extra = self.read_with_transient(path)
            results.append(scores)
            transient.append(extra)
        np.testing.assert_array_equal(results[0], results[1])
        assert abs(transient[1] - transient[0]) <= 0.5e6, transient

    def test_a_profiled_read_of_a_long_block_equals_an_unprofiled_one(self, tmp_path):
        # a lone CR sends the file to the line reader, whose array for the
        # block outgrows its first slice; a profiler holds references that
        # made numpy's checked resize refuse to grow it
        path = tmp_path / "e.txt"
        write_emissions(["s1"], [2000], np.random.default_rng(53).standard_normal((2000, 7)), path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r", 1))
        expected = read_emission_blocks(path)
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            got = read_emission_blocks(path)
        finally:
            profiler.disable()
        assert (got[0], got[1].tolist()) == (expected[0], expected[1].tolist())
        assert got[2].tobytes() == expected[2].tobytes()

    @pytest.mark.skipif(not corpus._X87, reason="the fast reader needs x87 extended precision")
    def test_each_row_is_held_once(self, tmp_path, monkeypatch):
        # 2 KB chunks end inside 11 of these 60 blocks of 1 to 8 rows; the
        # scores must be one array of their own, not a view that keeps a
        # chunk's rows alive
        monkeypatch.setattr(corpus, "_PARSE_BYTES", 2048)
        monkeypatch.setattr(corpus, "_read_emission_lines", no_line_reader)
        rng = np.random.default_rng(59)
        path = tmp_path / "e.txt"
        blocks = {f"s{i}": rng.standard_normal((int(rng.integers(1, 9)), 7)) for i in range(60)}
        write_emissions(*emission_triple(blocks), path)
        _, lengths, scores = read_emission_blocks(path)
        assert scores.base is None and scores.flags.owndata
        assert scores.tobytes() == emission_triple(blocks)[2].tobytes()

    @pytest.mark.parametrize("parse_rows", [1, 3])
    def test_a_long_block_reports_missing_rows_before_a_bad_row(self, tmp_path, monkeypatch,
                                                                parse_rows):
        monkeypatch.setattr(corpus, "_PARSE_ROWS", parse_rows)
        content = "s1 9 7\n" + "0 0 0 0 0 0 0\n" * 2 + "0 0 x 0 0 0 0\n" + "0 0 0 0 0 0 0\n" * 2
        with pytest.raises(CorpusFormatError, match=r"e\.txt:1: header promises 9 rows for 's1' "
                                                    r"but only 5 follow$"):
            read_emission_blocks(write_text(tmp_path / "e.txt", content))
        content += "0 0 0 0 0 0 0\n" * 4
        with pytest.raises(CorpusFormatError, match=r"e\.txt:4: non-numeric value in"):
            read_emission_blocks(write_text(tmp_path / "e.txt", content))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), blocks=st.lists(
        arrays(np.float64, st.tuples(st.integers(1, 5), st.just(7)),
               elements=st.floats(allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=4))
    def test_write_read_round_trip_is_bit_exact(self, tmp_path, data, blocks):
        # empty and whitespace-holding ids both come up; the writer must
        # refuse exactly those, and writing what it reads copies a file
        ids = data.draw(st.lists(st.text(EMISSION_ID_CHARS, max_size=3),
                                 min_size=len(blocks), max_size=len(blocks), unique=True))
        lengths, scores = [len(b) for b in blocks], np.concatenate(blocks)
        path, copy = tmp_path / "e.txt", tmp_path / "copy.txt"
        if any(not sid or any(c.isspace() for c in sid) for sid in ids):
            with pytest.raises(ValueError, match="is empty or has whitespace"):
                write_emissions(ids, lengths, scores, path)
            return
        write_emissions(ids, lengths, scores, path)
        loaded = read_emission_blocks(path)
        assert (loaded[0], loaded[1].tolist()) == (ids, lengths)
        assert loaded[2].tobytes() == scores.tobytes()
        write_emissions(*loaded, copy)
        assert copy.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("sid, scores, message", [
        ("x9", np.array([[0, 0, np.nan, 0, 0, 0, 0]]), "non-finite"),
        ("x9", np.array([[0, 0, 0, 0, 0, 0, -np.inf]]), "non-finite"),
        ("", np.zeros((1, 7)), "is empty or has whitespace"),
        ("x 9", np.zeros((1, 7)), "is empty or has whitespace"),
        ("x\u20289", np.zeros((1, 7)), "is empty or has whitespace"),
        ("s1", np.zeros((1, 7)), "is repeated"),
        (9, np.zeros((1, 7)), "must be a string"),
        (None, np.zeros((1, 7)), "must be a string"),
        (b"x9", np.zeros((1, 7)), "must be a string"),
    ], ids=["nan", "inf", "empty id", "space", "U+2028", "repeated id", "int id", "None id",
            "bytes id"])
    def test_writer_rejects_what_the_reader_would_naming_the_id(self, tmp_path, sid, scores,
                                                               message):
        with pytest.raises(ValueError, match=message) as raised:
            write_emissions(["s1", sid], [1, 1], np.r_[np.zeros((1, 7)), scores],
                            tmp_path / "e.txt")
        assert repr(sid) in str(raised.value)

    @pytest.mark.parametrize("ids, lengths, scores, message", [
        (["s1", "x9"], [1, 1], np.zeros(14), "must be n x 7"),
        (["s1", "x9"], [1, 1], np.zeros((2, 6)), "must be n x 7"),
        (["s1", "x9"], [2, 0], np.zeros((2, 7)), "must be positive and sum to the text's length, 2"),
        (["s1", "x9"], [1, 1], np.zeros((3, 7)), "must be positive and sum to the text's length, 3"),
        (["s1", "x9"], [1.0, 1.0], np.zeros((2, 7)), "must be a 1-D array of integers"),
        (["s1", "x9"], [[1, 1]], np.zeros((2, 7)), "must be a 1-D array of integers"),
        (["s1", "x9"], [2], np.zeros((2, 7)), "2 emission ids for 1 blocks"),
        ([], [], np.zeros((0, 7)), "^no emission blocks to write$"),
        (["s1"], [1], np.full((1, 7), 1 + 2j), "must be n x 7 real numbers, got complex128"),
        (["s1"], [1], np.zeros((1, 7), bool), "must be n x 7 real numbers, got bool"),
        (["s1"], [1], np.full((1, 7), "1.5"), "must be n x 7 real numbers, got <U3"),
        (["s1"], [1], np.zeros((1, 7)).astype(object), "must be n x 7 real numbers, got object"),
    ], ids=["1-D", "6 columns", "0 rows", "too few rows", "float lengths", "2-D lengths",
            "one length", "no blocks", "complex", "bool", "str", "object"])
    def test_writer_rejects_lengths_that_do_not_fit_the_scores(self, tmp_path, ids, lengths, scores,
                                                               message):
        with pytest.raises(ValueError, match=message):
            write_emissions(ids, lengths, scores, tmp_path / "e.txt")
        assert not (tmp_path / "e.txt").exists()

    def test_a_rejected_block_leaves_no_file_written(self, tmp_path):
        scores = np.r_[np.zeros((1, 7)), np.full((1, 7), np.nan)]
        new, old = tmp_path / "new.txt", write_text(tmp_path / "old.txt", "s0 1 7\n1 1 1 1 1 1 1\n")
        for path in (new, old):
            with pytest.raises(ValueError, match="non-finite emission score for 'x9'"):
                write_emissions(["s1", "x9"], [1, 1], scores, path)
        assert not new.exists()
        assert old.read_bytes() == b"s0 1 7\n1 1 1 1 1 1 1\n"


def record_lines(records, slots, sentence_ids):
    """A :class:`RecordLines` over the distinct entities of ``records``, and
    per slot each record's index into them, -1 for an empty slot."""
    entities = dict.fromkeys(getattr(record, slot) for record in records for slot in slots)
    entities.pop(None, None)
    index = {entity: i for i, entity in enumerate(entities)}
    lines = RecordLines([(ENTITY_KINDS.index(e.kind), e.start, e.end, e.text)
                         for e in index], sentence_ids)
    return lines, [[index.get(getattr(record, slot), -1) for record in records] for slot in slots]


def quadruple_bytes(quads, sentence_ids) -> bytes:
    """The JSON Lines that :class:`RecordLines` builds for ``quads``."""
    lines, columns = record_lines(quads, ("pp", "sp", "d", "abn"), sentence_ids)
    return b"".join(lines.quadruples(range(len(quads)), *columns))


def relation_bytes(relations, sentence_ids) -> bytes:
    """The JSON Lines that :class:`RecordLines` builds for ``relations``."""
    lines, columns = record_lines(relations, ("head", "tail"), sentence_ids)
    return b"".join(lines.relations(range(len(relations)), [r.kind for r in relations], *columns))


class TestQuadrupleOutput:
    def test_full_quadruple_line(self, occlusion_entities):
        pp, sp, d, abn = occlusion_entities
        record = json.loads(quadruple_bytes([Quadruple(pp, sp, d, abn)], ["s1"]))
        assert record["pp"]["text"] == "右上肺"
        assert record["sp"]["text"] == "支气管"
        assert record["d"]["text"] == "部分"
        assert record["abn"]["text"] == "闭塞"
        assert record["sentence_id"] == "s1"

    def test_null_attribute(self, shadow_entities):
        pp, d, abn = shadow_entities
        record = json.loads(quadruple_bytes([Quadruple(pp, None, d, abn)], ["s1"]))
        assert record["sp"] is None
        assert record["d"]["text"] == "多发"

    def test_empty_list_gives_no_lines(self):
        assert quadruple_bytes([], []) == b""

    def test_entity_offsets_stable_through_serialization(self, shadow_entities):
        pp, d, abn = shadow_entities
        record = json.loads(quadruple_bytes([Quadruple(pp, None, d, abn)], ["s1"]))
        for slot in ("pp", "d", "abn"):
            e = record[slot]
            assert e["text"] == FIG_TEXT[e["start"]:e["end"]]


def reference_write_records(records, path, sentence_ids):
    """The writer that built a dict and called ``json.dumps`` per quadruple or
    relation, its sentence id last."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record, sid in zip(records, sentence_ids, strict=True):
            fh.write(json.dumps(asdict(record) | {"sentence_id": sid}, ensure_ascii=False) + "\n")


# characters JSON escapes: quotes, backslashes, control characters, line
# and paragraph separators; and non-BMP characters
AWKWARD_CHARS = st.one_of(
    st.sampled_from('"\\\x00\x01\x08\x1f\x7f\u2028\u2029\U00020000\U0001F600/'),
    st.characters(codec="utf-8"),
)


@st.composite
def entities_of(draw, kind):
    """An entity with an awkward text."""
    start = draw(st.integers(0, 30))
    text = draw(st.text(AWKWARD_CHARS, min_size=1, max_size=4))
    return Entity(kind, start, start + len(text), text)


SLOT = st.integers(-1, 2)   # an index into an entity pool, -1 for a null slot
SENTENCE_IDS = st.one_of(st.sampled_from(['s1', 's"2', "s\\3", "\u2028", ""]),
                         st.text(AWKWARD_CHARS, max_size=4))


@st.composite
def record_batches(draw):
    """Quadruples and relations over small entity pools, so entities are
    shared by many records, plus one sentence id per record."""
    pool = {kind: draw(st.lists(entities_of(kind), min_size=size, max_size=3))
            for kind, size in (("P", 2), ("D", 1), ("Abn", 1))}

    def pick(kind, slot):
        return None if slot < 0 else pool[kind][slot % len(pool[kind])]

    quads = [Quadruple(pick("P", pp), pick("P", sp), pick("D", d), pick("Abn", abn % 3))
             for pp, sp, d, abn in draw(st.lists(st.tuples(SLOT, SLOT, SLOT, SLOT), max_size=12))]
    relations = []
    for kind, head, tail in draw(st.lists(
            st.tuples(st.sampled_from(["P2Abn", "D2Abn", "P2P"]), SLOT, SLOT), max_size=12)):
        head_kind, tail_kind = RELATION_ENDPOINTS[kind]
        head, tail = pick(head_kind, head % 3), pick(tail_kind, tail % 3)
        if head != tail:
            relations.append(Relation(kind, head, tail))
    id_lists = [draw(st.lists(SENTENCE_IDS, min_size=len(records), max_size=len(records)))
                for records in (quads, relations)]
    return quads, relations, id_lists


class TestJsonLinesMatchReference:
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(batch=record_batches())
    def test_bytes_equal_json_dumps_per_record(self, tmp_path, batch):
        quads, relations, (quad_ids, relation_ids) = batch
        for lines, records, ids in ((quadruple_bytes, quads, quad_ids),
                                    (relation_bytes, relations, relation_ids)):
            reference_write_records(records, tmp_path / "want.jsonl", ids)
            assert lines(records, ids) == (tmp_path / "want.jsonl").read_bytes()

    def test_a_non_str_id_or_a_lone_surrogate_raises_in_the_constructor(self):
        entity = (2, 0, 1, "a")
        for entities, ids, error in (([entity], ["s1", 1], TypeError),
                                     ([entity], ["s1", None], TypeError),
                                     ([entity], ["s1", b"s2"], TypeError),
                                     ([entity, (2, 0, 2, "a\ud800")], ["s1"], UnicodeEncodeError),
                                     ([entity], ["s1", "\udfff"], UnicodeEncodeError)):
            with pytest.raises(error):
                RecordLines(entities, ids)

    def test_shared_entity_and_quoted_id(self, tmp_path):
        abn = Entity("Abn", 2, 4, 'a"')
        pp = Entity("P", 0, 2, "\\\u2028")
        quads = [Quadruple(pp, None, None, abn)] * 3 + [Quadruple(None, pp, None, abn)]
        ids = ['x"y'] * 2 + ["z"] * 2
        reference_write_records(quads, tmp_path / "want.jsonl", ids)
        assert quadruple_bytes(quads, ids) == (tmp_path / "want.jsonl").read_bytes()

    def test_record_lines_is_the_writers_format(self, occlusion_entities):
        pp, sp, d, abn = occlusion_entities
        table = [(ENTITY_KINDS.index(e.kind), e.start, e.end, e.text) for e in occlusion_entities]
        lines = RecordLines(table, ["s1", "s2"])
        [quadruple] = lines.quadruples([0], [0], [1], [2], [3])
        assert json.loads(quadruple) == {
            "pp": asdict(pp), "sp": asdict(sp), "d": asdict(d), "abn": asdict(abn),
            "sentence_id": "s1",
        }
        assert list(lines.relations([1], ["P2P"], [1], [0])) == [json.dumps(
            {"kind": "P2P", "head": asdict(sp), "tail": asdict(pp), "sentence_id": "s2"},
            ensure_ascii=False).encode() + b"\n"]


class TestRelationsIO:
    def test_round_trip_with_ids(self, tmp_path, occlusion_entities):
        pp, sp, d, abn = occlusion_entities
        relations = [Relation("P2Abn", pp, abn), Relation("P2P", sp, pp)]
        path = tmp_path / "r.jsonl"
        path.write_bytes(relation_bytes(relations, ["s1", "s1"]))
        assert read_relations(path) == {"s1": relations}

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_write_read_round_trip_is_exact(self, tmp_path, data):
        relations = []
        for kind in data.draw(st.lists(st.sampled_from(RELATION_KINDS), max_size=8)):
            head_kind, tail_kind = RELATION_ENDPOINTS[kind]
            head, tail = data.draw(entities_of(head_kind)), data.draw(entities_of(tail_kind))
            if head != tail:
                relations.append(Relation(kind, head, tail))
        pool = data.draw(st.lists(st.text(AWKWARD_CHARS, max_size=4), min_size=1, max_size=3))
        ids = [data.draw(st.sampled_from(pool)) for _ in relations]
        path = tmp_path / "r.jsonl"
        path.write_bytes(relation_bytes(relations, ids))
        expected: dict[str, list[Relation]] = {}
        for sentence_id, relation in zip(ids, relations):
            expected.setdefault(sentence_id, []).append(relation)
        assert list(read_relations(path).items()) == list(expected.items())

    @pytest.mark.parametrize("head, tail, message", [
        (None, {}, "'head'"),
        (5, {}, "'int' object is not subscriptable"),
        ({"kind": "P"}, 5, "'start'"),
        ({"kind": "P", "start": 0, "end": 1, "text": "a"}, None, "'tail'"),
        ({"kind": "P", "start": 0, "end": 1, "text": "a"}, [], "list indices must be integers"),
        ({"kind": "P", "start": 0, "end": 1, "text": "a"}, {"kind": "Abn", "start": 1},
         "'end'"),
        ({"kind": "P", "start": 0, "end": 1.0, "text": "a"}, {},
         re.escape("span [0, 1.0) must hold two ints")),
    ])
    def test_each_bad_head_or_tail_names_the_first_fault_head_first(
            self, tmp_path, head, tail, message):
        record = {"kind": "P2Abn", "sentence_id": "s1"}
        record |= {key: value for key, value in (("head", head), ("tail", tail))
                   if value is not None}
        path = write_text(tmp_path / "r.jsonl", "\n" + json.dumps(record) + "\n")
        with pytest.raises(CorpusFormatError, match=r"r\.jsonl:2: bad relation: " + message):
            read_relations(path)

    def test_missing_sentence_id_rejected(self, tmp_path):
        path = tmp_path / "r.jsonl"
        line = {"kind": "P2P", "head": {}, "tail": {}}
        path.write_text(json.dumps(line) + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="sentence_id"):
            read_relations(path)


class TestTextInput:
    def test_blank_lines_skipped_and_bom_dropped(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_bytes("\ufeff肺炎\r\n\n右肺\n".encode("utf-8"))
        flat = read_text_flat(path)
        assert (flat.text, flat.lengths.tolist(), flat.ids) == ("肺炎右肺", [2, 2], ["s1", "s2"])


array_readers = pytest.mark.parametrize("reader, content", [
    (read_tagged_flat, "右\tB-P\n肺\tI-P\n\n见\tO\n"),
    (read_text_flat, "右肺\n\n见斑影\n"),
    (read_emission_blocks, "s1 2 7\n0 1 2 3 4 5 6\n.5 .5 .5 .5 .5 .5 .5\n\ns2 1 7\n1 1 1 1 1 1 1\n"),
], ids=lambda value: getattr(value, "__name__", ""))


@array_readers
def test_crlf_file_reads_as_its_lf_copy(tmp_path, reader, content):
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes(content.encode("utf-8"))
    crlf.write_bytes(content.replace("\n", "\r\n").encode("utf-8"))
    assert repr(reader(crlf)) == repr(reader(lf))


@array_readers
def test_every_returned_array_is_read_only(tmp_path, reader, content):
    result = reader(write_text(tmp_path / "f.txt", content))
    arrays = result[1:] if isinstance(result, tuple) else [result.lengths, result.offsets]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


class TestUndecodableBytes:
    """Every reader names the path and line of an undecodable byte."""

    @pytest.mark.parametrize("reader, content", [
        (read_tagged_flat, b"\xe8\x82\xba\tB-P\r\n\n\xff\tO\n"),
        (read_dictionary, b"# parts\r\n\n\xff\n"),
        (read_relations, b"{}\r\n\n\xff\n"),
        (read_text_flat, b"\xef\xbb\xbf\xe8\x82\xba\r\n\n\xff\n"),
    ], ids=lambda value: getattr(value, "__name__", ""))
    def test_names_path_and_line(self, tmp_path, reader, content):
        path = tmp_path / "bad.txt"
        path.write_bytes(content)
        with pytest.raises(CorpusFormatError, match=rf"^{re.escape(str(path))}:3: 'utf-8' codec can't decode byte 0xff in position 0"):
            reader(path)


class TestDomainTypes:
    @pytest.mark.parametrize("text, lengths", [
        (["ab"], [1]), (["a", "b"], [2]), (("a", "b"), [2]), (b"ab", [2]), ([1], [1])])
    def test_flat_corpus_text_must_be_a_string(self, text, lengths):
        with pytest.raises(ValueError, match=r"^a flat corpus needs str text and bytes or no "
                                             rf"indices, got {type(text).__name__} and NoneType$"):
            FlatCorpus(text, lengths)

    @pytest.mark.parametrize("indices", [
        [0, 1], (0, 1), "\0\1", np.zeros(2, np.uint8), bytearray(2), memoryview(bytes(2))])
    def test_flat_corpus_indices_must_be_bytes(self, indices):
        with pytest.raises(ValueError, match=r"^a flat corpus needs str text and bytes or no "
                                             rf"indices, got str and {type(indices).__name__}$"):
            FlatCorpus("ab", [2], indices)

    def test_an_empty_flat_corpus_has_no_sentences(self):
        for flat in (FlatCorpus("", []), FlatCorpus("", [], b"")):
            assert (flat.lengths.tolist(), flat.offsets.tolist(), flat.ids) == ([], [0], [])
            assert fields(flat.window(0, 3)) == fields(flat)

    @given(sentences=st.lists(st.lists(st.tuples(CORPUS_CHARS, st.sampled_from(TAG_LABELS)),
                                       min_size=1, max_size=6), min_size=1, max_size=4))
    def test_stored_fields_give_back_the_sentences(self, sentences):
        pairs = rows_pairs(sentences)
        flat = FlatCorpus("".join(s.text for s, _ in pairs), [len(s) for s, _ in pairs],
                          b"".join(t.indices for _, t in pairs))
        assert flat.ids == [s.id for s, _ in pairs]
        assert flat.tag_path("a test").tobytes() == flat.indices
        for i, (s, t) in enumerate(pairs):
            a, b = flat.offsets[i:i + 2].tolist()
            assert (flat.text[a:b], flat.indices[a:b]) == (s.text, t.indices)
            assert fields(flat.window(i, i + 1)) == (s.text, [len(s)], t.indices, [s.id])

    def test_entity_span_and_text_must_agree(self):
        with pytest.raises(ValueError):
            Entity("P", 2, 2, "")
        with pytest.raises(ValueError):
            Entity("P", 0, 2, "肺")

    @pytest.mark.parametrize("start, end, text", [
        (True, 2, "肺"), (0, 2.0, "右肺"), (np.int64(0), 2, "右肺"), (0, np.int64(2), "右肺"),
        (0, 2, ["右", "肺"]), (0, 2, b"ab"),
    ])
    def test_entity_requires_int_offsets_and_string_text(self, start, end, text):
        with pytest.raises(ValueError, match="must hold two ints|must be a string"):
            Entity("P", start, end, text)

    def test_relation_kind_constraints(self, occlusion_entities):
        pp, sp, d, abn = occlusion_entities
        with pytest.raises(ValueError):
            Relation("P2Abn", d, abn)
        with pytest.raises(ValueError):
            Relation("D2Abn", pp, abn)
        with pytest.raises(ValueError):
            Relation("P2P", pp, pp)
        assert Relation("P2P", sp, pp).head.text == "支气管"

    def test_quadruple_slot_kinds(self, occlusion_entities):
        pp, sp, d, abn = occlusion_entities
        with pytest.raises(ValueError):
            Quadruple(pp, sp, d, pp)
        with pytest.raises(ValueError):
            Quadruple(d, sp, d, abn)
        assert Quadruple(None, None, None, abn).abn.text == "闭塞"
