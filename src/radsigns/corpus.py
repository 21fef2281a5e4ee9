"""Data model and file I/O for character-level report sentences and annotations.

All offsets are 0-based Unicode scalar-value indices, never bytes.  The tag
vocabulary is fixed, with these exact spellings, in index order (each B-X odd, its I-X next):

    O, B-P, I-P, B-D, I-D, B-Abn, I-Abn

Every input file is opened by ``_open_text``: it is read as UTF-8, a
leading BOM is dropped, and an undecodable byte is reported as
``path:line``.  The one exception is the emission reader's fast path, which
reads bytes, decodes each header strictly as UTF-8, accepts only ASCII number
rows, and leaves any other file to the line reader and so to ``_open_text``.
Each file format has one reader and at most one writer:

* text input: one sentence per line, blank lines skipped (:func:`read_text_flat`);
* tagged corpus: one ``<char>\\t<tag>`` per line, split at the line's last
  tab so the character may itself be a tab, blank line between sentences
  (:func:`read_tagged_flat`, :func:`write_tagged_flat`);
* secondary-part dictionary: one term per line, ``#`` starts a comment;
* emission file: header ``<sentence_id> <n> <k>`` followed by n rows of k
  floats, one or more such blocks per file, whose values are what Python
  ``float`` makes of each token (:func:`read_emission_blocks` parses plain
  decimals in byte chunks with an exact vectorized kernel, and any other file
  line by line);
* quadruples and relations: JSON Lines, every line naming its ``sentence_id``
  (:func:`read_relations`, :class:`RecordLines`);
* model and config files: one JSON object each, read by
  :func:`read_json_object`.

``\\r\\n`` and a lone ``\\r`` end a line, U+2028 and the like do not.  Text and
tagged corpora are read and written as one :class:`FlatCorpus` in array
passes over code points; only an error's report reads line by line.

Readers are pure functions.  Every array they return is read-only, and
:class:`FlatCorpus` and :class:`SecondaryPartDictionary` are frozen.
"""

from __future__ import annotations

import codecs
import json
import math
import re
import unicodedata
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from json.encoder import encode_basestring
from operator import itemgetter
from typing import Iterable, Iterator, NoReturn, Sequence

import numpy as np

TAG_LABELS = ("O", "B-P", "I-P", "B-D", "I-D", "B-Abn", "I-Abn")
NUM_TAGS = len(TAG_LABELS)
TAG_INDEX = {label: i for i, label in enumerate(TAG_LABELS)}

_LABEL_SIZES = np.array([len(label) for label in TAG_LABELS], np.intp)
_LABEL_CODES = np.array([[*map(ord, label.ljust(5))] for label in TAG_LABELS], np.uint32)
# in a tagged corpus's text with a newline before and after it, a newline
# that starts neither a blank line nor one of a character, a tab and a label
_BAD_LINE = re.compile(r"\n(?!\n|[^\n]\t(?:%s)\n|\Z)" % "|".join(map(re.escape, TAG_LABELS)))
_TAG_BY_LETTERS = np.zeros((128, 128), np.uint8)   # by a label's first and last letter
_TAG_BY_LETTERS[_LABEL_CODES[:, 0], _LABEL_CODES[range(NUM_TAGS), _LABEL_SIZES - 1]] = range(NUM_TAGS)

ENTITY_KINDS = ("P", "D", "Abn")
# Relation kind -> (head entity kind, tail entity kind)
RELATION_ENDPOINTS = {"P2Abn": ("P", "Abn"), "D2Abn": ("D", "Abn"), "P2P": ("P", "P")}
RELATION_KINDS = tuple(RELATION_ENDPOINTS)


class CorpusFormatError(ValueError):
    """Bad input: a file off its documented format, or flags that conflict."""


@dataclass(frozen=True)
class Entity:
    """A typed character span.  ``start`` and ``end`` are ``int`` (not
    ``bool`` or a numpy integer) and ``text``, the covered substring, is
    ``str``."""

    kind: str
    start: int
    end: int
    text: str

    def __post_init__(self):
        if self.kind not in ENTITY_KINDS:
            raise ValueError(f"unknown entity kind {self.kind!r}")
        if type(self.start) is not int or type(self.end) is not int:
            raise ValueError(f"span [{self.start!r}, {self.end!r}) must hold two ints")
        if type(self.text) is not str:
            raise ValueError(f"entity text must be a string, got {self.text!r}")
        if not (0 <= self.start < self.end):
            raise ValueError(f"bad span [{self.start}, {self.end})")
        if len(self.text) != self.end - self.start:
            raise ValueError(
                f"text {self.text!r} does not cover span [{self.start}, {self.end})"
            )


@dataclass(frozen=True)
class Relation:
    """A typed, directed entity pair within one sentence."""

    kind: str
    head: Entity
    tail: Entity

    def __post_init__(self):
        if self.kind not in RELATION_KINDS:
            raise ValueError(f"unknown relation kind {self.kind!r}")
        head_kind, tail_kind = RELATION_ENDPOINTS[self.kind]
        if self.head.kind != head_kind or self.tail.kind != tail_kind:
            raise ValueError(
                f"{self.kind} relation cannot link {self.head.kind} -> {self.tail.kind}"
            )
        if self.kind == "P2P" and self.head == self.tail:
            raise ValueError("P2P relation needs two distinct body parts")


@dataclass(frozen=True)
class SecondaryPartDictionary:
    """Term set for secondary body parts; lookups are NFC-normalized."""

    terms: frozenset[str]

    def __post_init__(self):
        normalized = frozenset(unicodedata.normalize("NFC", t) for t in self.terms)
        if any(not t for t in normalized):
            raise ValueError("dictionary terms must be non-empty strings")
        object.__setattr__(self, "terms", normalized)

    def __contains__(self, term: str) -> bool:
        return unicodedata.normalize("NFC", term) in self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(sorted(self.terms))


def _array(x) -> np.ndarray:
    try:
        return np.asarray(x)
    except ValueError:   # a ragged list: a bare object, which no numeric check accepts
        return np.asarray(None)


def _sentence_lengths(lengths, size: int | None) -> np.ndarray:
    """``lengths`` as a new read-only ``intp`` array; a ``ValueError`` names them
    unless they are 1-D integers, all positive, that sum to ``size`` (any sum if None)."""
    given = _array(lengths)
    if given.ndim != 1 or given.size and given.dtype.kind not in "iu":
        raise ValueError(f"sentence lengths must be a 1-D array of integers, got {lengths!r:.80}")
    lengths = given.astype(np.intp)
    size = lengths.sum() if size is None else size
    if (lengths < 1).any() or lengths.sum() != size:
        raise ValueError(f"sentence lengths {lengths} must be positive and sum to "
                         f"the text's length, {size}")
    lengths.setflags(write=False)
    return lengths


@dataclass(frozen=True, eq=False)
class FlatCorpus:
    """Sentences laid end to end: the ``str`` ``text``, the read-only
    ``lengths`` and, for a tagged corpus, ``indices``, ``bytes`` holding one
    ``TAG_LABELS`` index per character.  Ids are positional: ``s<first>``,
    ``s<first + 1>``, ..."""

    text: str
    lengths: np.ndarray
    indices: bytes | None = None
    first: int = 1

    def __post_init__(self):
        if not isinstance(self.text, str) or not isinstance(self.indices, (bytes, type(None))):
            raise ValueError(f"a flat corpus needs str text and bytes or no indices, got "
                             f"{type(self.text).__name__} and {type(self.indices).__name__}")
        object.__setattr__(self, "lengths", _sentence_lengths(self.lengths, len(self.text)))
        if self.indices is not None and (len(self.indices) != len(self.text)
                                         or max(self.indices, default=0) >= NUM_TAGS):
            raise ValueError("a tagged flat corpus needs a tag index below NUM_TAGS per character")

    @cached_property
    def offsets(self) -> np.ndarray:
        """Where each sentence starts in ``text``, then where the last one ends; read-only."""
        offsets = np.concatenate(([0], np.cumsum(self.lengths)))
        offsets.setflags(write=False)
        return offsets

    @property
    def ids(self) -> list[str]:
        return [f"s{i}" for i in range(self.first, self.first + len(self.lengths))]

    def tag_path(self, what: str) -> np.ndarray:
        """``indices`` as ``uint8``; untagged, a ``ValueError`` that ``what`` needs tags."""
        if self.indices is None:
            raise ValueError(f"{what} needs a tagged corpus, not an untagged one")
        return np.frombuffer(self.indices, np.uint8)

    def window(self, lo: int, hi: int) -> "FlatCorpus":
        """Sentences ``lo`` up to ``hi`` (0-based), keeping their ids."""
        a, b = self.offsets[[lo, min(hi, len(self.lengths))]].tolist()
        return FlatCorpus(self.text[a:b], self.lengths[lo:hi],
                          None if self.indices is None else self.indices[a:b], self.first + lo)


def _code_points(text: str) -> np.ndarray:
    if not isinstance(text, str):
        raise ValueError(f"text must be a str, got {type(text).__name__}")
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)


def read_tagged_flat(path) -> FlatCorpus:
    """A char/tag corpus file as one tagged flat corpus, blank lines ending
    sentences, so :func:`write_tagged_flat` and this reader round-trip it
    exactly.  One search over the whole text finds any bad line, and each
    tag is read off its label's first and last letter."""
    try:
        with _open_text(path) as fh:
            text = "\n" + fh.read() + "\n"   # each line between two newlines
    except CorpusFormatError:   # an undecodable byte, which a bad line may precede
        _raise_tagged_error(path)
    if _BAD_LINE.search(text) or "\t" not in text:
        _raise_tagged_error(path)
    codes = _code_points(text)
    newlines = np.flatnonzero(codes == 10)
    starts, ends = newlines[:-1] + 1, newlines[1:]
    full = ends > starts   # blank lines end sentences
    first = starts[full]
    tags = _TAG_BY_LETTERS[codes[first + 2], codes[ends[full] - 1]]
    # where each run of lines with text, one sentence, starts and ends
    bounds = np.flatnonzero(np.diff(full, prepend=False, append=False))
    return FlatCorpus(codes[first].tobytes().decode("utf-32-le"), bounds[1::2] - bounds[::2],
                      tags.tobytes())


def _raise_tagged_error(path) -> NoReturn:
    """Raise the first error of a tagged corpus in file order, reading it
    line by line."""
    with _open_text(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if line == "":
                continue
            ch, tab, tag = line.rpartition("\t")   # the character may itself be a tab
            if not tab:
                raise CorpusFormatError(f"{path}:{lineno}: expected '<char>\\t<tag>', got {line!r}")
            if len(ch) != 1:
                raise CorpusFormatError(
                    f"{path}:{lineno}: first field must be a single character, got {ch!r}")
            if tag not in TAG_INDEX:
                raise CorpusFormatError(f"{path}:{lineno}: unknown tag {tag!r}")
    raise CorpusFormatError(f"{path}: no sentences found")


def write_tagged_flat(corpus: FlatCorpus, path) -> None:
    """Write a tagged flat corpus from one buffer of code points:
    ``<char>\\t<tag>\\n`` per character, a blank line between sentences,
    and one more BOM before a leading one, which readers drop.  The first
    sentence holding a line break raises ``ValueError`` before any write."""
    breaks = [at for at in map(corpus.text.find, "\n\r") if at >= 0]
    if breaks:
        sid = corpus.ids[np.searchsorted(corpus.offsets, min(breaks), "right") - 1]
        raise ValueError(f"sentence {sid!r}: a line break cannot be a corpus character")
    tags = corpus.tag_path("writing a tagged corpus")
    label_sizes = _LABEL_SIZES[tags]
    sizes = label_sizes + 3   # the character, the tab, the label, the newline
    sizes[corpus.offsets[1:-1] - 1] += 1   # a blank line after every sentence but the last
    at = np.cumsum(sizes) - sizes
    out = np.full(sizes.sum(), 10, np.uint32)   # newlines, unless overwritten
    out[at] = _code_points(corpus.text)
    out[at + 1] = 9
    for j in range(_LABEL_CODES.shape[1]):   # the labels, one code point column at a time
        has = label_sizes > j
        out[at[has] + 2 + j] = _LABEL_CODES[tags[has], j]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\ufeff" * corpus.text.startswith("\ufeff"))
        fh.write(out.tobytes().decode("utf-32-le", "surrogatepass"))


def read_dictionary(path) -> SecondaryPartDictionary:
    terms = set()
    with _open_text(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            terms.add(line)
    if not terms:
        raise CorpusFormatError(f"{path}: dictionary is empty")
    return SecondaryPartDictionary(frozenset(terms))


# emission rows per np.loadtxt call: it caps the rows held as text, and so the
# reader's memory, when a block is long
_PARSE_ROWS = 512


def _parse_rows(path, rows: list[tuple[int, str]]) -> np.ndarray:
    """The n x 7 scores of ``(lineno, stripped line)`` rows, from one ``np.loadtxt``
    call or else row by row with Python ``float``, whose first bad row raises,
    checked for its token count, then a non-numeric value, then a non-finite one."""
    with suppress(ValueError):   # loadtxt rejects a value or a row's length
        scores = np.loadtxt(map(itemgetter(1), rows), np.float64, comments=None, ndmin=2)
        if scores.shape == (len(rows), NUM_TAGS) and np.isfinite(scores).all():
            return scores
    block = []
    for lineno, row in rows:
        values = row.split()
        if len(values) != NUM_TAGS:
            raise CorpusFormatError(
                f"{path}:{lineno}: expected {NUM_TAGS} values, got {len(values)}")
        try:
            block.append([float(v) for v in values])
        except ValueError:
            raise CorpusFormatError(f"{path}:{lineno}: non-numeric value in {row!r}") from None
        if not all(map(math.isfinite, block[-1])):
            raise CorpusFormatError(f"{path}:{lineno}: non-finite value in {row!r}")
    return np.array(block, np.float64)


def _undecodable_line(path, exc: UnicodeDecodeError) -> CorpusFormatError:
    """Locate an undecodable byte by re-reading the file as bytes, splitting
    lines where text mode does."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh.read().splitlines(), 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as line_exc:
                return CorpusFormatError(f"{path}:{lineno}: {line_exc}")
    return CorpusFormatError(f"{path}: {exc}")


@contextmanager
def _open_text(path):
    """Open a UTF-8 file for reading text, dropping a leading BOM; an
    undecodable byte met while reading raises ``CorpusFormatError`` naming its line."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise _undecodable_line(path, exc) from None


def read_json_object(path, what: str) -> dict:
    """The JSON object that makes up a whole ``what`` file (model, config);
    any other content raises ``CorpusFormatError`` naming the path."""
    with _open_text(path) as fh:
        text = fh.read()
    try:
        document = json.loads(text)
    except (ValueError, RecursionError) as exc:   # bad or too deep JSON
        raise CorpusFormatError(f"{path}: not a JSON {what} file: {exc}") from None
    if not isinstance(document, dict):
        raise CorpusFormatError(f"{path}: {what} file must hold a JSON object")
    return document


def read_text_flat(path) -> FlatCorpus:
    """A text input file as one untagged flat corpus: one sentence per
    non-blank line, with ids ``s1``, ``s2``, ... in order."""
    with _open_text(path) as fh:
        text = fh.read()
    lengths = np.diff(np.flatnonzero(_code_points(text + "\n") == 10), prepend=-1) - 1
    return FlatCorpus(text.replace("\n", ""), lengths[lengths > 0])


def _read_emission_lines(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The line reader of :func:`read_emission_blocks`.

    The file is streamed: each header is checked as it is read, and its rows
    are parsed as they are read, by :func:`_parse_rows` in slices of at most
    ``_PARSE_ROWS``, so the reader holds one slice's text, never the file's;
    the slices' rows are joined once at the end.  Errors come in file order: a
    block's missing rows, else its first bad row, when it ends; an undecodable
    byte where it is met."""
    lengths: dict[str, int] = {}   # by sentence id, in file order
    parts = []
    with _open_text(path) as fh:
        lines = filter(itemgetter(1), enumerate(map(str.strip, fh), 1))   # non-blank lines, lazily
        for lineno, header in lines:
            fields = header.split()
            if len(fields) != 3:
                raise CorpusFormatError(
                    f"{path}:{lineno}: expected header '<sentence_id> <n> <k>', got {header!r}")
            sid = fields[0]
            if sid in lengths:
                raise CorpusFormatError(
                    f"{path}:{lineno}: a second emission block for sentence {sid!r}")
            try:
                n, k = int(fields[1]), int(fields[2])
            except ValueError:
                raise CorpusFormatError(
                    f"{path}:{lineno}: header dimensions must be integers, got {header!r}") from None
            if k != NUM_TAGS:
                raise CorpusFormatError(f"{path}:{lineno}: k must be {NUM_TAGS}, got {k}")
            if n < 1:
                raise CorpusFormatError(f"{path}:{lineno}: n must be positive, got {n}")
            count, error = 0, None
            while rows := list(islice(lines, min(n - count, _PARSE_ROWS))):
                try:
                    parts.append(_parse_rows(path, rows))
                except CorpusFormatError as exc:
                    error = error or exc
                count += len(rows)
            if count < n:
                raise CorpusFormatError(
                    f"{path}:{lineno}: header promises {n} rows for {sid!r} but only {count} follow")
            if error:   # a bad row waits until the header's promise is checked
                raise error
            lengths[sid] = n
    if not lengths:
        raise CorpusFormatError(f"{path}: no emission blocks found")
    return _joined(list(lengths), list(lengths.values()), parts)


def _joined(ids: list[str], lengths: list[int], parts: list[np.ndarray]):
    """``(ids, lengths, scores)``, ``parts``' rows joined into one read-only array."""
    scores = np.concatenate(parts)
    scores.setflags(write=False)
    return ids, _sentence_lengths(lengths, len(scores)), scores


# bytes of an emission file that the fast reader takes at a time (128 KiB),
# read on to the end of a line
_PARSE_BYTES = 1 << 17

# The fast reader divides a token's integer mantissa by a power of ten in x87
# extended precision (64-bit significands).  Both operands are exact and the
# one division is correctly rounded, so the cast to float64 gives the nearest
# double, as Python float does, unless the quotient is itself the midpoint of
# two doubles (low 11 bits 0x400); Python float reads those tokens again.
_X87 = np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16
_POW10 = np.cumprod(np.r_[1, np.full(27, 10)].astype(np.longdouble))   # 10**27 is still exact
_LF, _SPACE, _DIGIT, _DOT, _PLUS, _MINUS, _EXP, _BAD = range(8)   # byte classes
_BYTE_CLASS = np.array([next((kind for kind, members in enumerate(
    (b"\n", b" \t\r", b"0123456789", b".", b"+", b"-", b"eE")) if byte in members), _BAD)
    for byte in range(256)], np.uint8)


class _Unusual(Exception):
    """A file that only the line reader can read, or report."""


def _read_emission_chunks(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The fast reader of :func:`read_emission_blocks`: the file in chunks of
    about ``_PARSE_BYTES`` (128 KiB) that end at a line end, each parsed by
    :func:`_chunk_rows`, whose rows are joined once at the end.  Raises
    ``_Unusual`` on any error or grammar beyond plain decimals."""
    parts, heads, owed = [], [], 0   # owed: the rows the last block still needs
    with open(path, "rb") as fh:
        bom = codecs.BOM_UTF8
        while chunk := fh.read(_PARSE_BYTES):
            chunk = (chunk if chunk.endswith(b"\n") else chunk + fh.readline()).removeprefix(bom)
            bom = b""
            rows, chunk_heads = _chunk_rows(b"\n" + chunk.removesuffix(b"\n") + b"\n", owed)
            parts.append(rows)
            heads += chunk_heads
            owed += sum(n for _, n in chunk_heads) - len(rows)
    ids = [sid for sid, _ in heads]
    if owed or not ids or len(set(ids)) < len(ids):
        raise _Unusual
    return _joined(ids, [n for _, n in heads], parts)


def _chunk_rows(data: bytes, owed: int) -> tuple[np.ndarray, list[tuple[str, int]]]:
    """The rows of ``data``, whole lines with a newline before the first and
    after the last, as a (rows, 7) array, and each header in it as (sentence
    id, n); the first ``owed`` non-blank lines are rows of a block begun before.
    Only the bytes that are not digits are found and classified."""
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        raise _Unusual   # a lone CR ends a line
    codes = np.frombuffer(data, np.uint8)
    at = np.flatnonzero(np.subtract(codes, 48, dtype=np.uint8) > 9)   # every non-digit wraps above 9
    kind = _BYTE_CLASS.take(codes.take(at))
    space = kind <= _SPACE
    # each token as the index into ``at`` of the space after it, and each line
    # as the one of the newline before it
    ends = np.flatnonzero(space[1:] & ~(space[:-1] & (np.diff(at) == 1))) + 1
    newlines = np.flatnonzero(kind == _LF)
    tokens = np.diff(np.searchsorted(ends, newlines, "right"))   # per line
    row_line = tokens > 0
    nonblank = np.flatnonzero(row_line).tolist()
    heads, header_spans = [], []
    i = min(owed, len(nonblank))
    while i < len(nonblank):
        line = nonblank[i]
        start, stop = at[newlines[line]] + 1, at[newlines[line + 1]]
        try:
            sid, n, k = data[start:stop].decode().split()
            n, k = int(n), int(k)
        except ValueError:
            raise _Unusual from None
        if k != NUM_TAGS or n < 1:
            raise _Unusual
        row_line[line] = False
        heads.append((sid, n))
        header_spans.append((start, stop))
        i += 1 + n
    bad = np.flatnonzero(kind == _BAD)
    if (tokens[row_line] != NUM_TAGS).any() or row_line[np.searchsorted(newlines, bad) - 1].any():
        raise _Unusual
    rows = _token_values(data, at, kind, ends[np.repeat(row_line, tokens)], header_spans)
    return rows.reshape(-1, NUM_TAGS), heads


def _token_values(data: bytes, at: np.ndarray, kind: np.ndarray, end: np.ndarray,
                  header_spans: list[tuple[int, int]]) -> np.ndarray:
    """The value of each row token of ``data``, given by the index into ``at``
    of the space after it.  A token of the form ``[+-]?d*[.d*]`` is its
    mantissa, parsed with the dot deleted, over 10 to the number of digits
    after the dot; Python float reads any other token, ``-0``, a mantissa of
    10**18 or more and a quotient on a midpoint."""
    if not len(end):
        return np.empty(0)
    dot = kind[end - 1] == _DOT
    lead = end - 1 - dot   # the space before the token's digits, or its sign
    sign = kind[lead]
    signed = (((sign == _PLUS) | (sign == _MINUS)) & (kind[lead - 1] <= _SPACE)
              & (at[lead - 1] == at[lead] - 1))
    places = (at[end] - at[end - 1] - 1) * dot
    slow = (~(signed | (sign <= _SPACE)) | (at[end] - at[lead] - 1 - dot < 1)
            | (places >= len(_POW10)))
    spans = {j: _token_span(at, kind, end[j]) for j in np.flatnonzero(slow).tolist()}
    text = bytearray(data)
    for start, stop in header_spans:
        text[start:stop] = b" " * (stop - start)
    for start, stop in spans.values():
        text[start:stop] = b"0".ljust(stop - start)
    try:
        mantissas = np.fromstring(bytes(text).replace(b".", b""), np.int64, sep=" ")
    except (ValueError, DeprecationWarning):   # numpy 2 raises, numpy 1 warns
        raise _Unusual from None
    if len(mantissas) != len(end):
        raise _Unusual
    places[slow] = 0
    quotients = mantissas.astype(np.longdouble)
    quotients /= _POW10[places]
    values = quotients.astype(np.float64)
    # strtoll stops at 2**63 - 1; 10**18 keeps the mantissa exact well below it
    again = (((quotients.view(np.uint64)[::2] & 0x7FF) == 0x400) | (mantissas >= 10**18)
             | (mantissas <= -10**18) | ((mantissas == 0) & (sign == _MINUS)))
    for j in np.flatnonzero(again & ~slow).tolist():
        spans[j] = _token_span(at, kind, end[j])
    for j, (start, stop) in spans.items():
        try:
            values[j] = value = float(data[start:stop])
        except ValueError:
            raise _Unusual from None
        if not math.isfinite(value):
            raise _Unusual
    return values


def _token_span(at: np.ndarray, kind: np.ndarray, end: int) -> tuple[int, int]:
    """The byte span of the token that ends at the space ``at[end]``."""
    before = end - 1
    while kind[before] > _SPACE:
        before -= 1
    return at[before] + 1, at[end]


def read_emission_blocks(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """``(ids, lengths, scores)`` of an emission file: its unique sentence ids in
    file order, each block's row count as a read-only ``intp`` array, and all
    blocks' rows end to end as one read-only ``(sum(lengths), 7)`` array.

    A file of plain decimal rows is read by :func:`_read_emission_chunks`,
    which needs x87 extended precision.  Any other file, and every file with
    an error, is read from its start by :func:`_read_emission_lines`, which
    raises the file's first error; both give each token the value Python
    ``float`` gives it."""
    if _X87:
        with suppress(_Unusual):
            return _read_emission_chunks(path)
    return _read_emission_lines(path)


_EMISSION_ROW = "%.17g " * (NUM_TAGS - 1) + "%.17g\n"


def write_emissions(ids: Sequence[str], lengths, scores, path) -> None:
    """The file that :func:`read_emission_blocks` reads as ``(ids, lengths,
    scores)``.  An id that the reader rejects (not a string, empty, holding
    whitespace or repeated), lengths that are not positive integers summing
    to the n rows of n x 7 real ``scores``, a non-finite score or no block at
    all raises ``ValueError``, naming the id where there is one, before the file is opened."""
    seen = set()
    for sid in ids:
        if not isinstance(sid, str):
            raise ValueError(f"emission id {sid!r} must be a string")
        if sid.split() != [sid]:
            raise ValueError(f"emission id {sid!r} is empty or has whitespace")
        if sid in seen:
            raise ValueError(f"emission id {sid!r} is repeated")
        seen.add(sid)
    scores = np.asarray(scores)
    if scores.dtype.kind not in "iuf" or scores.ndim != 2 or scores.shape[1] != NUM_TAGS:
        raise ValueError(f"emission scores must be n x {NUM_TAGS} real numbers, "
                         f"got {scores.dtype} {scores.shape}")
    scores = scores.astype(np.float64, copy=False)
    ends = np.cumsum(_sentence_lengths(lengths, len(scores)))
    if len(ends) != len(ids):
        raise ValueError(f"{len(ids)} emission ids for {len(ends)} blocks")
    if not len(ids):
        raise ValueError("no emission blocks to write")
    bad = np.flatnonzero(~np.isfinite(scores).all(axis=1))
    if bad.size:
        sid = ids[np.searchsorted(ends, bad[0], "right")]
        raise ValueError(f"non-finite emission score for {sid!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if ids and ids[0].startswith("\ufeff"):   # readers drop one leading BOM
            fh.write("\ufeff")
        for sid, a, b in zip(ids, [0, *ends.tolist()], ends.tolist()):
            fh.write(f"{sid} {b - a} {NUM_TAGS}\n")
            fh.write(_EMISSION_ROW * (b - a) % tuple(scores[a:b].ravel().tolist()))


class RecordLines:
    """JSON Lines of quadruples and relations as UTF-8 bytes, each line equal
    to ``json.dumps(record, ensure_ascii=False)`` of its record as a dict,
    with ``sentence_id`` last.

    Records refer to entities by index arrays into ``entities``, whose ``(kind
    index into ENTITY_KINDS, start, end, text)`` tuples are serialized and
    encoded once each; -1 is an empty slot.  Each record also names a row of
    ``sentence_ids``, whose ``str`` id ends its line.  A non-``str`` id
    (``TypeError``) or a text UTF-8 cannot encode (``UnicodeEncodeError``)
    raises here, before any line is built."""

    def __init__(self, entities: Iterable[tuple[int, int, int, str]], sentence_ids: Sequence[str]):
        self._entities = np.array([*(f'{{"kind": "{ENTITY_KINDS[k]}", "start": {a}, "end": {b}, '
                                     f'"text": {encode_basestring(t)}}}'.encode()
                                     for k, a, b, t in entities), b"null"], object)
        self._ends = np.array([(', "sentence_id": %s}\n' % encode_basestring(sid)).encode()
                               for sid in sentence_ids], object)

    def quadruples(self, rows, pp, sp, d, abn) -> Iterator[bytes]:
        e = self._entities
        return map(b'{"pp": %s, "sp": %s, "d": %s, "abn": %s%s'.__mod__,
                   zip(e[pp], e[sp], e[d], e[abn], self._ends[rows]))

    def relations(self, rows, kinds, heads, tails) -> Iterator[bytes]:
        e = self._entities   # kinds are RELATION_KINDS names, which JSON does not escape
        return map(b'{"kind": "%s", "head": %s, "tail": %s%s'.__mod__,
                   zip(np.asarray(kinds, "S"), e[heads], e[tails], self._ends[rows]))


def read_relations(path) -> dict[str, list[Relation]]:
    """Read a relations JSONL file into a sentence_id -> relations map."""
    by_sentence: dict[str, list[Relation]] = {}
    with _open_text(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise CorpusFormatError(f"{path}:{lineno}: bad JSON: {exc}") from None
            if not isinstance(record, dict):
                raise CorpusFormatError(
                    f"{path}:{lineno}: relation record must be a JSON object"
                )
            if "sentence_id" not in record:
                raise CorpusFormatError(
                    f"{path}:{lineno}: relation record lacks a sentence_id"
                )
            if not isinstance(record["sentence_id"], str):
                raise CorpusFormatError(f"{path}:{lineno}: sentence_id must be a string")
            try:
                relation = Relation(record["kind"], *(
                    Entity(*itemgetter("kind", "start", "end", "text")(record[end]))
                    for end in ("head", "tail")))
            except (KeyError, TypeError, ValueError) as exc:
                raise CorpusFormatError(f"{path}:{lineno}: bad relation: {exc}") from None
            by_sentence.setdefault(record["sentence_id"], []).append(relation)
    return by_sentence
