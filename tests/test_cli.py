import argparse
import json
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import radsigns
from radsigns import cli
from radsigns.cli import _apply_config, build_parser, main
from radsigns.corpus import (
    Entity,
    FlatCorpus,
    read_dictionary,
    read_emission_blocks,
    read_tagged_flat,
    write_emissions,
    write_tagged_flat,
)
from radsigns.crf import TaggerModel, decoding_transitions, load_model, save_model, viterbi
from radsigns.encoder import FeatureVocabulary, score_ids, text_feature_ids
from radsigns.evaluation import agreement_f1, classify_errors, entity_prf
from radsigns.tagscheme import batch_entities

from _synth import (Labels, Text, brute_force_match, build_rule_corpus, encode, entities_of,
                    flat_corpus, match_entities, path_of, tags_of)
from conftest import (OCCLUSION_LABELS, OCCLUSION_TEXT, decode_sentence, emission_dict,
                      emission_triple)
from test_corpus import CORPUS_CHARS, reference_write_records
from test_tagscheme import reference_tags_to_entities


def sentence_texts(corpus):
    bounds = corpus.offsets.tolist()
    return [corpus.text[a:b] for a, b in zip(bounds, bounds[1:])]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A trained model plus corpus files shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(500)
    train_corpus = build_rule_corpus(rng, 120, prefix="s")
    dev_corpus = build_rule_corpus(rng, 30, prefix="s")
    train_path = root / "train.tsv"
    dev_path = root / "dev.tsv"
    write_tagged_flat(flat_corpus(train_corpus), train_path)
    write_tagged_flat(flat_corpus(dev_corpus), dev_path)

    dict_path = root / "parts.txt"
    dict_path.write_text("支气管\n食管\n", encoding="utf-8")

    model_path = root / "model.json"
    report_path = root / "report.json"
    code = main([
        "train", str(train_path), str(dev_path),
        "--model-out", str(model_path),
        "--report-out", str(report_path),
        "--epochs", "8", "--seed", "7",
    ])
    assert code == 0
    return {
        "root": root,
        "train": train_path,
        "dev": dev_path,
        "dict": dict_path,
        "model": model_path,
        "report": report_path,
        "rng": rng,
    }


class TestTrain:
    def test_artifacts_written(self, workspace):
        assert workspace["model"].exists()
        report = json.loads(workspace["report"].read_text(encoding="utf-8"))
        assert len(report["dev_f1"]) == 8
        assert report["dev_f1"][report["selected_epoch"]] == max(report["dev_f1"])

    def test_toy_corpus_reaches_perfect_dev_f1(self, workspace):
        # the rule corpus is character-determined, so the tagger must nail it
        report = json.loads(workspace["report"].read_text(encoding="utf-8"))
        assert report["dev_f1"][report["selected_epoch"]] == 100.0

    def test_prints_per_epoch_dev_f1(self, workspace, tmp_path, capsys):
        code = main([
            "train", str(workspace["train"]), str(workspace["dev"]),
            "--model-out", str(tmp_path / "m.json"),
            "--epochs", "2", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "epoch 1" in out and "dev_f1" in out
        assert "selected epoch" in out

    def test_missing_dev_file_exits_2_and_names_path(self, workspace, tmp_path, capsys):
        missing = tmp_path / "nowhere.tsv"
        code = main([
            "train", str(workspace["train"]), str(missing),
            "--model-out", str(tmp_path / "m.json"),
        ])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_zero_epochs_is_usage_error(self, workspace, tmp_path, capsys):
        code = main([
            "train", str(workspace["train"]), str(workspace["dev"]),
            "--model-out", str(tmp_path / "m.json"), "--epochs", "0",
        ])
        assert code == 2
        assert "epochs" in capsys.readouterr().err

    def test_negative_seed_is_usage_error_naming_the_flag(self, workspace, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"seed": -1}', encoding="utf-8")
        message = "argument --seed: expected an integer of at least 0, got '-1'"
        for prefix, flags in ([], ["--seed", "-1"]), (["--config", str(config_path)], []):
            code = main([*prefix, "train", str(workspace["train"]), str(workspace["dev"]),
                         "--model-out", str(tmp_path / "m.json"), *flags])
            assert code == 2
            assert message in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_zero_decay_epoch_is_usage_error(self, workspace, tmp_path, capsys):
        code = main([
            "train", str(workspace["train"]), str(workspace["dev"]),
            "--model-out", str(tmp_path / "m.json"), "--decay-epoch", "0",
        ])
        assert code == 2
        assert ("argument --decay-epoch: expected an integer of at least 1, got '0'"
                in capsys.readouterr().err)
        assert not (tmp_path / "m.json").exists()

    def train_to_overflow(self, tmp_path, rate):
        train_path = tmp_path / "train.tsv"
        dev_path = tmp_path / "dev.tsv"
        write_tagged_flat(FlatCorpus("字" * 2005, [5, 2000], bytes(2005)), train_path)
        write_tagged_flat(FlatCorpus("字" * 5, [5], bytes(5)), dev_path)
        with np.errstate(all="ignore"):
            return main([
                "train", str(train_path), str(dev_path),
                "--model-out", str(tmp_path / "m.json"),
                "--epochs", "2", "--batch-size", "2", "--lr", rate,
            ])

    def test_non_finite_loss_exits_3(self, tmp_path, capsys):
        assert self.train_to_overflow(tmp_path, "1e306") == 3
        assert "non-finite" in capsys.readouterr().err

    def test_epoch_line_is_printed_when_its_epoch_ends(self, tmp_path, capsys):
        # at this rate epoch 1 stays finite and the long sentence's loss
        # overflows in epoch 2
        assert self.train_to_overflow(tmp_path, "1e303") == 3
        captured = capsys.readouterr()
        assert captured.out.startswith("epoch 1 train_nll ")
        assert captured.out.count("\n") == 1
        assert "non-finite loss" in captured.err

    @pytest.mark.parametrize("flags", [["--lr", "1e308"], ["--l2", "1e300"]], ids=" ".join)
    def test_diverging_run_exits_3_without_numpy_warnings(self, workspace, tmp_path, capsys,
                                                          flags):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["train", str(workspace["train"]), str(workspace["dev"]),
                         "--model-out", str(tmp_path / "m.json"), "--epochs", "2", *flags])
        assert code == 3
        assert "non-finite parameter update" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--l2", "nan"], ["--l2", "inf"], ["--lr", "nan"], ["--lr", "inf"],
        ["--lr-decayed", "inf", "--epochs", "1"], ["--lr-decayed", "nan"],
    ], ids=" ".join)
    def test_non_finite_rate_or_l2_is_usage_error(self, workspace, tmp_path, capsys, flags):
        model_path = tmp_path / "m.json"
        code = main(["train", str(workspace["train"]), str(workspace["dev"]),
                     "--model-out", str(model_path), *flags])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not model_path.exists()


@pytest.fixture(scope="module")
def decode_inputs(tmp_path_factory):
    """The same sentences as text and as a tagged corpus, and a noisy emission
    block for each, with their ``(Text, Labels)`` pairs.  One sentence in
    three carries random tags, so reading them with --from-tags meets orphan
    I tags and kind switches."""
    root = tmp_path_factory.mktemp("decode")
    rng = np.random.default_rng(45)
    corpus = build_rule_corpus(rng, 160, prefix="s")
    corpus += [(Text(f"s{161 + i}", text), None)
               for i, text in enumerate(['右上肺"见\\斑片影', "支气管\u2028积液𠀀", "食管"])]
    pairs = []
    for i, (sentence, tags) in enumerate(corpus):
        if tags is None or i % 3 == 0:
            random_tags = rng.integers(0, 7, len(sentence))
            tags = Labels(bytes(random_tags.tolist()))
        pairs.append((sentence, tags))
    paths = {"text": root / "input.txt", "tsv": root / "input.tsv", "emissions": root / "em.txt"}
    paths["text"].write_text("".join(s.text + "\n" for s, _ in pairs), encoding="utf-8")
    write_tagged_flat(flat_corpus(pairs), paths["tsv"])
    blocks = {s.id: 3 * rng.standard_normal((len(s), 7)) for s, _ in pairs}
    write_emissions(*emission_triple(blocks), paths["emissions"])
    return {**paths, "pairs": pairs}


class TestOutputsMatchPublicApi:
    """``extract`` writes the bytes that the library functions give one
    sentence at a time: Viterbi tags -> batch_entities -> match_arrays ->
    the json.dumps-per-record reference writers.  It also writes the bytes
    of the test-side oracles, which share no code with the batched run
    finder and matcher: reference_tags_to_entities ->
    _synth.brute_force_match -> the same writers."""

    CASES = {
        "text": [],
        "tsv": ["--input-format", "tsv"],
        "from-tags": ["--input-format", "tsv", "--from-tags"],
        "no-constrain": ["--no-constrain"],
        "emissions-file": ["--emissions-file", "{emissions}"],
        "emissions-file-no-constrain": ["--emissions-file", "{emissions}", "--no-constrain"],
    }

    def reference_paths(self, case, model, pairs, emissions_path):
        constrain = "no-constrain" not in case
        if case == "from-tags":
            return [tags.indices for _, tags in pairs]
        if case.startswith("emissions-file"):
            blocks = emission_dict(*read_emission_blocks(emissions_path))
            A = decoding_transitions(model.transitions, constrain)
            return [viterbi(blocks[s.id], A, [len(s)]).tobytes() for s, _ in pairs]
        return [decode_sentence(model, s.text, constrain) for s, _ in pairs]

    @pytest.mark.parametrize("case", CASES)
    def test_extract_equals_reference_writers(self, workspace, decode_inputs, tmp_path, case):
        flags = [flag.format(emissions=decode_inputs["emissions"]) for flag in self.CASES[case]]
        source = decode_inputs["tsv" if "--input-format" in flags else "text"]
        got_q, got_r = tmp_path / "q.jsonl", tmp_path / "r.jsonl"
        assert main(["extract", str(source), "--model", str(workspace["model"]),
                     "--dict", str(workspace["dict"]), "--out", str(got_q),
                     "--relations-out", str(got_r), *flags]) == 0

        model = load_model(workspace["model"])
        dictionary = read_dictionary(workspace["dict"])
        pairs = decode_inputs["pairs"]
        paths = self.reference_paths(case, model, pairs, decode_inputs["emissions"])
        for name, matched in (
                ("api", lambda s, path: match_entities(entities_of(s.text, path), dictionary)),
                ("oracle", lambda s, path: brute_force_match(
                    s, reference_tags_to_entities(s.text, tags_of(path)), dictionary))):
            quads, quad_ids, relations, relation_ids = [], [], [], []
            for (sentence, _), path in zip(pairs, paths):
                rels, qs = matched(sentence, path)
                quads += qs
                quad_ids += [sentence.id] * len(qs)
                relations += rels
                relation_ids += [sentence.id] * len(rels)
            want_q, want_r = tmp_path / f"{name}_q.jsonl", tmp_path / f"{name}_r.jsonl"
            reference_write_records(quads, want_q, quad_ids)
            reference_write_records(relations, want_r, relation_ids)
            assert quads and relations
            assert got_q.read_bytes() == want_q.read_bytes(), name
            assert got_r.read_bytes() == want_r.read_bytes(), name

    WINDOW_FLAGS = [[], ["--no-constrain"], ["--emissions-file", "{emissions}"],
                    ["--emissions-file", "{emissions}", "--no-constrain"]]

    @pytest.mark.parametrize("flags", [[], ["--input-format", "tsv", "--from-tags"],
                                       *WINDOW_FLAGS[1:]])
    def test_extract_bytes_do_not_depend_on_the_match_window(
            self, workspace, decode_inputs, tmp_path, monkeypatch, flags):
        flags = [flag.format(emissions=decode_inputs["emissions"]) for flag in flags]
        source = decode_inputs["tsv" if "--from-tags" in flags else "text"]
        outputs = set()
        for window in (cli.MATCH_WINDOW, 7, 1):
            monkeypatch.setattr(cli, "MATCH_WINDOW", window)
            quads, relations = tmp_path / f"q{window}.jsonl", tmp_path / f"r{window}.jsonl"
            assert main(["extract", str(source), "--model", str(workspace["model"]),
                         "--dict", str(workspace["dict"]), "--out", str(quads),
                         "--relations-out", str(relations), *flags]) == 0
            outputs.add((quads.read_bytes(), relations.read_bytes()))
        assert len(outputs) == 1

    # characters that JSON escapes or that UTF-8 encodes in 2 to 4 bytes;
    # none of them ends a line of a text input
    ESCAPED = ["\x01", "\x0b", "\x1c", "\x7f", "\x85", "\t", '"', "\\", "\u2028", "\ufeff",
               "\U0001F600"]

    @pytest.mark.parametrize("window", [1, 7, cli.MATCH_WINDOW])
    def test_extract_escapes_like_the_reference_writers(
            self, workspace, tmp_path, monkeypatch, window):
        # emissions force each sentence's tags, so every awkward character
        # lands inside entities of every kind; a U+FEFF opens no line
        monkeypatch.setattr(cli, "MATCH_WINDOW", window)
        rng = np.random.default_rng(47)
        sentences, blocks = [], []
        for i in range(20):
            chars = rng.choice(self.ESCAPED + list("右肺结节影"), int(rng.integers(8, 16))).tolist()
            tags = np.zeros(len(chars), np.intp)
            for start in range(1, len(chars) - 2, 4):   # B-X I-X runs of each kind
                tags[start:start + 2] = [2 * (i + start) % 6 + 1, 2 * (i + start) % 6 + 2]
            sentences.append(Text(f"s{i + 1}", "肺" + "".join(chars)))
            blocks.append(50.0 * np.eye(7)[np.append(0, tags)])
        text, emissions = tmp_path / "in.txt", tmp_path / "em.txt"
        text.write_text("".join(s.text + "\n" for s in sentences), encoding="utf-8")
        write_emissions([s.id for s in sentences], [len(b) for b in blocks], np.concatenate(blocks),
                        emissions)
        got_q, got_r = tmp_path / "q.jsonl", tmp_path / "r.jsonl"
        assert main(["extract", str(text), "--model", str(workspace["model"]),
                     "--dict", str(workspace["dict"]), "--out", str(got_q),
                     "--relations-out", str(got_r), "--emissions-file", str(emissions)]) == 0

        model, dictionary = load_model(workspace["model"]), read_dictionary(workspace["dict"])
        quads, quad_ids, relations, relation_ids, texts = [], [], [], [], set()
        for sentence, block in zip(sentences, blocks):
            path = viterbi(block, decoding_transitions(model.transitions, True), [len(block)])
            entities = entities_of(sentence.text, path)
            rels, qs = match_entities(entities, dictionary)
            texts.update(e.text for e in entities)
            quads += qs
            quad_ids += [sentence.id] * len(qs)
            relations += rels
            relation_ids += [sentence.id] * len(rels)
        assert all(any(c in t for t in texts) for c in self.ESCAPED)
        want_q, want_r = tmp_path / "want_q.jsonl", tmp_path / "want_r.jsonl"
        reference_write_records(quads, want_q, quad_ids)
        reference_write_records(relations, want_r, relation_ids)
        assert quads and relations
        assert got_q.read_bytes() == want_q.read_bytes()
        assert got_r.read_bytes() == want_r.read_bytes()

    @pytest.mark.parametrize("flags", WINDOW_FLAGS)
    def test_tag_bytes_do_not_depend_on_the_match_window(
            self, workspace, decode_inputs, tmp_path, monkeypatch, flags):
        # windows of one sentence, of 7 (the 163 sentences end in a short
        # window) and of all of them decode each sentence alike
        flags = [flag.format(emissions=decode_inputs["emissions"]) for flag in flags]
        outputs = set()
        for window in (cli.MATCH_WINDOW, 7, 1):
            monkeypatch.setattr(cli, "MATCH_WINDOW", window)
            tagged = tmp_path / f"t{window}.tsv"
            assert main(["tag", str(decode_inputs["text"]), "--model", str(workspace["model"]),
                         "--out", str(tagged), *flags]) == 0
            outputs.add(tagged.read_bytes())
        assert len(outputs) == 1
        assert sentence_texts(read_tagged_flat(tagged)) == \
            sentence_texts(read_tagged_flat(decode_inputs["tsv"]))

    @pytest.mark.parametrize("constrain", [[], ["--no-constrain"]])
    def test_tag_is_identical_with_the_models_own_emissions_file(
            self, workspace, decode_inputs, tmp_path, constrain):
        model = load_model(workspace["model"])
        emissions = tmp_path / "own.txt"
        corpus = read_tagged_flat(decode_inputs["tsv"])
        ids = text_feature_ids(model.vocab, corpus.text, corpus.lengths)
        write_emissions(corpus.ids, corpus.lengths, score_ids(model.weights, ids),
                        emissions)
        outputs = []
        for extra in ([], ["--emissions-file", str(emissions)]):
            out = tmp_path / f"tagged{len(extra)}.tsv"
            assert main(["tag", str(decode_inputs["text"]), "--model", str(workspace["model"]),
                         "--out", str(out), *constrain, *extra]) == 0
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(st.text(CORPUS_CHARS, max_size=6), max_size=6),
       ends=st.lists(st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\r\n\r\n\n"]),
                     min_size=6, max_size=6),
       final=st.booleans())
@example(lines=["", "\ufeff右肺", " ", "a\u2028b\x85c\x1cd", "\t"],
         ends=["\r\n", "\r", "\n\n", "\n", "\r", "\n"], final=False)
def test_tag_on_text_equals_a_line_split_oracle(workspace, tmp_path, lines, ends, final):
    """``tag``'s bytes equal a test-side reader and writer: universal
    newlines, ``str.split("\\n")``, then one ``<char>\\t<label>`` line per
    character of each non-blank line, a blank line between sentences, and an
    extra BOM before a leading one."""
    content = "".join(line + end for line, end in zip(lines, ends))
    if lines and not final:
        content = content[:-len(ends[len(lines) - 1])]   # no line break after the last line
    source, out = tmp_path / "in.txt", tmp_path / "tagged.tsv"
    source.write_bytes(content.encode("utf-8"))
    assert main(["tag", str(source), "--model", str(workspace["model"]), "--out", str(out)]) == 0

    model = load_model(workspace["model"])
    with open(source, encoding="utf-8-sig") as fh:
        texts = [text for text in fh.read().split("\n") if text]
    blocks = ["".join(f"{ch}\t{label}\n" for ch, label
                      in zip(text, tags_of(decode_sentence(model, text))))
              for i, text in enumerate(texts, 1)]
    expected = "\ufeff" * texts[0].startswith("\ufeff") + "\n".join(blocks) if texts else ""
    assert out.read_bytes() == expected.encode("utf-8")


class TestReadmeLibrarySnippet:
    def test_snippet_gives_the_tags_and_quadruples_of_the_cli(self, workspace, tmp_path,
                                                              monkeypatch):
        """The README's Library snippet, run as written on the workspace's
        model and dictionary, gives the tags that ``radsigns tag`` writes and
        the quadruples that ``radsigns extract`` writes for its sentence."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        snippet = readme.split("## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(tmp_path)
        shutil.copy(workspace["model"], "model.json")
        shutil.copy(workspace["dict"], "parts.txt")
        namespace = {}
        exec(snippet, namespace)
        corpus, path = namespace["corpus"], namespace["path"]
        Path("input.txt").write_text(corpus.text + "\n", encoding="utf-8")
        assert main(["tag", "input.txt", "--model", "model.json", "--out", "tagged.tsv"]) == 0
        assert main(["extract", "input.txt", "--model", "model.json", "--dict", "parts.txt",
                     "--out", "quads.jsonl"]) == 0
        tagged = read_tagged_flat("tagged.tsv")
        assert (tagged.text, tagged.indices) == (corpus.text, path.tobytes())
        assert Path("quadruples.jsonl").read_bytes()
        assert Path("quads.jsonl").read_bytes() == Path("quadruples.jsonl").read_bytes()


class TestTagAndExtract:
    def write_input(self, workspace, tmp_path, count=8):
        corpus = build_rule_corpus(np.random.default_rng(42), count, prefix="s")
        text_path = tmp_path / "input.txt"
        text_path.write_text(
            "".join(s.text + "\n" for s, _ in corpus), encoding="utf-8"
        )
        return text_path, corpus

    def test_tag_writes_tagged_corpus(self, workspace, tmp_path):
        text_path, corpus = self.write_input(workspace, tmp_path)
        out = tmp_path / "tagged.tsv"
        code = main(["tag", str(text_path), "--model", str(workspace["model"]),
                     "--out", str(out)])
        assert code == 0
        assert sentence_texts(read_tagged_flat(out)) == [s.text for s, _ in corpus]

    def test_tag_then_extract_equals_extract(self, workspace, tmp_path):
        text_path, _ = self.write_input(workspace, tmp_path)
        tagged = tmp_path / "tagged.tsv"
        assert main(["tag", str(text_path), "--model", str(workspace["model"]),
                     "--out", str(tagged)]) == 0

        direct = tmp_path / "direct.jsonl"
        assert main(["extract", str(text_path), "--model", str(workspace["model"]),
                     "--dict", str(workspace["dict"]), "--out", str(direct)]) == 0

        composed = tmp_path / "composed.jsonl"
        assert main(["extract", str(tagged), "--model", str(workspace["model"]),
                     "--dict", str(workspace["dict"]), "--input-format", "tsv",
                     "--from-tags", "--out", str(composed)]) == 0
        assert direct.read_text(encoding="utf-8") == composed.read_text(encoding="utf-8")

    def test_extract_from_gold_tags_produces_expected_quadruple(self, workspace, tmp_path):
        gold = tmp_path / "gold.tsv"
        gold.write_text(
            "".join(f"{c}\t{t}\n" for c, t in zip(OCCLUSION_TEXT, OCCLUSION_LABELS)),
            encoding="utf-8",
        )
        quads_path = tmp_path / "quads.jsonl"
        relations_path = tmp_path / "relations.jsonl"
        code = main(["extract", str(gold), "--model", str(workspace["model"]),
                     "--dict", str(workspace["dict"]), "--input-format", "tsv",
                     "--from-tags", "--out", str(quads_path),
                     "--relations-out", str(relations_path)])
        assert code == 0
        quads = [json.loads(line) for line in quads_path.read_text(encoding="utf-8").splitlines()]
        assert len(quads) == 1
        q = quads[0]
        assert (q["pp"]["text"], q["sp"]["text"], q["d"]["text"], q["abn"]["text"]) == (
            "右上肺", "支气管", "部分", "闭塞",
        )
        relations = [
            json.loads(line)
            for line in relations_path.read_text(encoding="utf-8").splitlines()
        ]
        kinds = sorted(r["kind"] for r in relations)
        assert kinds == ["D2Abn", "P2Abn", "P2Abn", "P2P"]
        p2p = next(r for r in relations if r["kind"] == "P2P")
        assert (p2p["head"]["text"], p2p["tail"]["text"]) == ("支气管", "右上肺")

    def test_tab_in_text_input_round_trips_through_eval(self, workspace, tmp_path):
        text_path = tmp_path / "input.txt"
        text_path.write_text("左肺\t见斑影\n", encoding="utf-8")
        out = tmp_path / "tagged.tsv"
        assert main(["tag", str(text_path), "--model", str(workspace["model"]),
                     "--out", str(out)]) == 0
        assert main(["eval", "--pred", str(out), "--gold", str(out)]) == 0
        assert sentence_texts(read_tagged_flat(out)) == ["左肺\t见斑影"]

    def test_empty_input_gives_empty_outputs(self, workspace, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "quads.jsonl"
        code = main(["extract", str(empty), "--model", str(workspace["model"]),
                     "--dict", str(workspace["dict"]), "--out", str(out)])
        assert code == 0
        assert out.read_text(encoding="utf-8") == ""

    def test_dictionary_from_environment(self, workspace, tmp_path, monkeypatch):
        text_path, _ = self.write_input(workspace, tmp_path, count=2)
        monkeypatch.setenv("RADSIGNS_DICT", str(workspace["dict"]))
        # parser reads the env var at construction time
        out = tmp_path / "quads.jsonl"
        code = main(["extract", str(text_path), "--model", str(workspace["model"]),
                     "--out", str(out)])
        assert code == 0

    def test_missing_dictionary_is_usage_error(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("RADSIGNS_DICT", raising=False)
        text_path, _ = self.write_input(workspace, tmp_path, count=2)
        code = main(["extract", str(text_path), "--model", str(workspace["model"]),
                     "--out", str(tmp_path / "q.jsonl")])
        assert code == 2
        assert "dictionary" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["weights", "transitions"])
    def test_model_number_beyond_float_range_is_input_error(self, workspace, tmp_path, capsys,
                                                            key):
        text_path, _ = self.write_input(workspace, tmp_path, count=2)
        document = json.loads(workspace["model"].read_text(encoding="utf-8"))
        document[key][0][0] = 10**400
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(document), encoding="utf-8")
        code = main(["tag", str(text_path), "--model", str(model_path),
                     "--out", str(tmp_path / "out.tsv")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {model_path}: ")
        assert not (tmp_path / "out.tsv").exists()

    @pytest.mark.parametrize("command", ["tag", "extract"])
    @pytest.mark.parametrize("feature", ["c0=<pad>", "bi-1=x<pad>", "cls0=nonsense", "<unk>"])
    def test_model_feature_no_sentence_produces_is_input_error(
            self, workspace, tmp_path, capsys, command, feature):
        text_path, _ = self.write_input(workspace, tmp_path, count=2)
        document = json.loads(workspace["model"].read_text(encoding="utf-8"))
        if feature == "<unk>":   # row 0 stays the unnamed unk row
            del document["features"]["<unk>"]
        document["features"][feature] = len(document["weights"])
        document["weights"].append([0.0] * 7)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(document), encoding="utf-8")
        argv = [command, str(text_path), "--model", str(model_path), "--out", str(tmp_path / "out")]
        code = main(argv + (["--dict", str(workspace["dict"])] if command == "extract" else []))
        assert code == 2
        assert capsys.readouterr().err == (f"error: {model_path}: feature {feature!r} is not one "
                                           "that a sentence produces\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["weights", "transitions"])
    def test_model_number_written_as_a_string_or_boolean_is_input_error(
            self, workspace, tmp_path, capsys, key):
        text_path, _ = self.write_input(workspace, tmp_path, count=2)
        document = json.loads(workspace["model"].read_text(encoding="utf-8"))
        document[key] = [[repr(v) for v in row] for row in document[key]]
        document["transitions"][0][0] = True
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(document), encoding="utf-8")
        code = main(["tag", str(text_path), "--model", str(model_path),
                     "--out", str(tmp_path / "out.tsv")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {model_path}: {key!r} must be")
        assert not (tmp_path / "out.tsv").exists()

    def test_internal_error_is_not_reported_as_bad_input(self, workspace, tmp_path, monkeypatch):
        def broken(*args):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "match_arrays", broken)
        text_path, _ = self.write_input(workspace, tmp_path, count=2)
        with pytest.raises(ValueError, match="^boom$"):
            main(["extract", str(text_path), "--model", str(workspace["model"]),
                  "--dict", str(workspace["dict"]), "--out", str(tmp_path / "q.jsonl")])

    def test_external_emissions_drive_decoding(self, tmp_path):
        vocab = FeatureVocabulary.build("肺影好", [3])
        model = TaggerModel(
            vocab, np.zeros((vocab.size, 7)), np.zeros((9, 9))
        )
        model_path = tmp_path / "zero.json"
        save_model(model, model_path)

        scores = np.zeros((3, 7))
        forced = ("B-Abn", "I-Abn", "O")
        for i, tag in enumerate(forced):
            scores[i, ("O", "B-P", "I-P", "B-D", "I-D", "B-Abn", "I-Abn").index(tag)] = 9.0
        emissions_path = tmp_path / "emissions.txt"
        write_emissions(["s1"], [3], scores, emissions_path)

        text_path = tmp_path / "input.txt"
        text_path.write_text("肺影好\n", encoding="utf-8")
        out = tmp_path / "tagged.tsv"
        code = main(["tag", str(text_path), "--model", str(model_path),
                     "--emissions-file", str(emissions_path), "--out", str(out)])
        assert code == 0
        assert tags_of(read_tagged_flat(out).indices) == forced

    def run_with_emissions(self, workspace, tmp_path, texts, blocks):
        text_path = tmp_path / "input.txt"
        text_path.write_text("".join(t + "\n" for t in texts), encoding="utf-8")
        # written by hand: n all-zero rows per (id, n) pair
        emissions_path = tmp_path / "emissions.txt"
        emissions_path.write_text("".join(f"{sid} {n} 7\n" + "0 0 0 0 0 0 0\n" * n
                                          for sid, n in blocks), encoding="utf-8")
        code = main(["tag", str(text_path), "--model", str(workspace["model"]),
                     "--emissions-file", str(emissions_path), "--out", str(tmp_path / "out")])
        return code, emissions_path

    def test_missing_emission_block_names_the_file(self, workspace, tmp_path, capsys):
        code, path = self.run_with_emissions(
            workspace, tmp_path, ["右肺", "见斑影", "左肺"], [("s1", 2), ("s2", 3)])
        assert code == 2
        assert f"{path}: no emission block for sentence 's3'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_emission_row_count_mismatch_names_the_file(self, workspace, tmp_path, capsys):
        code, path = self.run_with_emissions(workspace, tmp_path, ["见斑影"], [("s1", 2)])
        assert code == 2
        assert (f"{path}: emission matrix has 2 rows but sentence 's1' has 3 characters"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("token", ["1.2.3", "--1", "1e", "."])
    def test_a_token_that_float_rejects_exits_2_naming_its_row(self, workspace, tmp_path, capsys,
                                                                token):
        # each token passes the fast reader's byte classes, and Python float rejects it
        text_path = tmp_path / "input.txt"
        text_path.write_text("肺\n", encoding="utf-8")
        emissions_path = tmp_path / "emissions.txt"
        emissions_path.write_text(f"s1 1 7\n{token} 0 0 0 0 0 0\n", encoding="utf-8")
        code = main(["tag", str(text_path), "--model", str(workspace["model"]),
                     "--emissions-file", str(emissions_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert (f"{emissions_path}:2: non-numeric value in '{token} 0 0 0 0 0 0'"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["tag", "extract"])
    def test_first_bad_emission_block_in_input_order_is_named_before_any_output(
            self, workspace, tmp_path, capsys, monkeypatch, command):
        # s2 (4 chars) has a short block and s5 (2 chars) none; both lie past
        # the first window, and a length-sorted order would meet s5 first
        monkeypatch.setattr(cli, "MATCH_WINDOW", 1)
        texts = ["右肺", "右上肺影", "见斑影", "左肺", "食管"]
        text_path = tmp_path / "input.txt"
        text_path.write_text("".join(t + "\n" for t in texts), encoding="utf-8")
        emissions_path = tmp_path / "emissions.txt"
        write_emissions(["s1", "s2", "s3", "s4"], [2, 3, 3, 2], np.zeros((10, 7)), emissions_path)
        outputs = [tmp_path / "out"]
        flags = ["--out", str(outputs[0])]
        if command == "extract":
            outputs.append(tmp_path / "relations.jsonl")
            flags += ["--dict", str(workspace["dict"]), "--relations-out", str(outputs[1])]
        code = main([command, str(text_path), "--model", str(workspace["model"]),
                     "--emissions-file", str(emissions_path), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert (f"{emissions_path}: emission matrix has 3 rows but sentence 's2' has 4 "
                "characters" in err)
        assert "s5" not in err
        assert not any(path.exists() for path in outputs)

    @pytest.mark.parametrize("command", ["tag", "extract"])
    def test_blocks_out_of_input_order_decode_as_the_ordered_file(
            self, workspace, tmp_path, monkeypatch, command):
        # windows of two sentences gather their rows from all over the
        # shuffled file, whose block for s9, an id the input lacks, is unused
        monkeypatch.setattr(cli, "MATCH_WINDOW", 2)
        texts = ["右肺", "右上肺影", "见斑影", "左肺", "食管"]
        text_path = tmp_path / "input.txt"
        text_path.write_text("".join(t + "\n" for t in texts), encoding="utf-8")
        rng = np.random.default_rng(61)
        ordered = {f"s{i}": 3 * rng.standard_normal((len(t), 7)) for i, t in enumerate(texts, 1)}
        shuffled = {"s4": ordered["s4"], "s9": rng.standard_normal((4, 7)),
                    **{sid: ordered[sid] for sid in ("s2", "s5", "s1", "s3")}}
        outputs = []
        for name, blocks in (("ordered", ordered), ("shuffled", shuffled)):
            emissions_path = tmp_path / f"{name}.txt"
            write_emissions(*emission_triple(blocks), emissions_path)
            files = [tmp_path / f"{name}.out"]
            flags = ["--out", str(files[0])]
            if command == "extract":
                files.append(tmp_path / f"{name}.relations.jsonl")
                flags += ["--dict", str(workspace["dict"]), "--relations-out", str(files[1])]
            assert main([command, str(text_path), "--model", str(workspace["model"]),
                         "--emissions-file", str(emissions_path), *flags]) == 0
            outputs.append([path.read_bytes() for path in files])
        assert outputs[1] == outputs[0]
        assert all(outputs[0])

    def test_emission_file_without_blocks_is_usage_error(self, workspace, tmp_path, capsys):
        code, path = self.run_with_emissions(workspace, tmp_path, ["右肺"], [])
        assert code == 2
        assert f"{path}: no emission blocks found" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_from_tags_needs_tsv_input(self, workspace, tmp_path, capsys):
        text_path, _ = self.write_input(workspace, tmp_path, count=2)
        code = main(["extract", str(text_path), "--model", str(workspace["model"]),
                     "--dict", str(workspace["dict"]), "--from-tags",
                     "--out", str(tmp_path / "q.jsonl")])
        assert code == 2
        assert "--from-tags requires --input-format tsv" in capsys.readouterr().err
        assert not (tmp_path / "q.jsonl").exists()

    def test_from_tags_with_emissions_file_is_usage_error(self, workspace, tmp_path, capsys):
        _, corpus = self.write_input(workspace, tmp_path, count=2)
        write_tagged_flat(flat_corpus(corpus), tmp_path / "input.tsv")
        code = main(["extract", str(tmp_path / "input.tsv"), "--input-format", "tsv",
                     "--from-tags", "--emissions-file", str(tmp_path / "absent.txt"),
                     "--model", str(workspace["model"]), "--dict", str(workspace["dict"]),
                     "--out", str(tmp_path / "q.jsonl")])
        assert code == 2
        assert "--from-tags and --emissions-file cannot be combined" in capsys.readouterr().err
        assert not (tmp_path / "q.jsonl").exists()

    @pytest.mark.parametrize("flags, message", [
        ([], "--from-tags requires --input-format tsv"),
        (["--input-format", "tsv", "--emissions-file", "absent.txt"],
         "--from-tags and --emissions-file cannot be combined"),
    ])
    def test_from_tags_is_checked_before_any_file_is_read(self, tmp_path, capsys, flags, message):
        missing = tmp_path / "absent"
        code = main(["extract", str(missing / "input.txt"), "--from-tags", *flags,
                     "--model", str(missing / "model.json"), "--dict", str(missing / "parts.txt"),
                     "--out", str(tmp_path / "q.jsonl")])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and "No such file" not in err
        assert not (tmp_path / "q.jsonl").exists()

    def test_duplicate_emission_block_is_usage_error(self, workspace, tmp_path, capsys):
        code, path = self.run_with_emissions(
            workspace, tmp_path, ["右肺", "见斑影"], [("s1", 2), ("s2", 3), ("s1", 2)])
        assert code == 2
        # blocks of 2 and 3 rows take lines 1-7, so the repeated header is line 8
        assert f"{path}:8: a second emission block for sentence 's1'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_jobs_flag_preserves_output(self, workspace, tmp_path):
        text_path, _ = self.write_input(workspace, tmp_path, count=6)
        serial = tmp_path / "serial.tsv"
        parallel = tmp_path / "parallel.tsv"
        assert main(["tag", str(text_path), "--model", str(workspace["model"]),
                     "--out", str(serial)]) == 0
        assert main(["tag", str(text_path), "--model", str(workspace["model"]),
                     "--out", str(parallel), "--jobs", "2"]) == 0
        assert serial.read_text(encoding="utf-8") == parallel.read_text(encoding="utf-8")

    def test_jobs_2_output_is_byte_identical_to_jobs_1(self, workspace, tmp_path):
        # sentences of mixed lengths, which Viterbi steps through longest
        # first, so output must come back in input order; --jobs is accepted
        # but decoding stays in one process
        corpus = build_rule_corpus(np.random.default_rng(43), 150, prefix="s")
        texts = [s.text for s, _ in corpus]
        texts += [texts[i] + texts[i + 1] + texts[i + 2] for i in range(0, 30, 3)]
        text_path = tmp_path / "input.txt"
        text_path.write_text("".join(t + "\n" for t in texts), encoding="utf-8")
        rng = np.random.default_rng(44)
        emissions_path = tmp_path / "emissions.txt"
        write_emissions(*emission_triple({f"s{i + 1}": 3 * rng.standard_normal((len(t), 7))
                                          for i, t in enumerate(texts)}), emissions_path)
        outputs = {}
        for jobs in ("1", "2"):
            quads, relations = tmp_path / f"q{jobs}.jsonl", tmp_path / f"r{jobs}.jsonl"
            tagged = tmp_path / f"t{jobs}.tsv"
            assert main(["extract", str(text_path), "--model", str(workspace["model"]),
                         "--dict", str(workspace["dict"]), "--out", str(quads),
                         "--relations-out", str(relations), "--jobs", jobs]) == 0
            assert main(["tag", str(text_path), "--model", str(workspace["model"]),
                         "--emissions-file", str(emissions_path), "--out", str(tagged),
                         "--jobs", jobs]) == 0
            outputs[jobs] = [path.read_bytes() for path in (quads, relations, tagged)]
        assert outputs["2"] == outputs["1"]
        assert sentence_texts(read_tagged_flat(tmp_path / "t2.tsv")) == texts

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, workspace, tmp_path, capsys, jobs):
        text_path, _ = self.write_input(workspace, tmp_path, count=2)
        for command in (["tag"], ["extract", "--dict", str(workspace["dict"])]):
            code = main([*command, str(text_path), "--model", str(workspace["model"]),
                         "--out", str(tmp_path / "out"), "--jobs", jobs])
            assert code == 2
            assert (f"argument --jobs: expected an integer of at least 1, got '{jobs}'"
                    in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs, message", [
        ("0", "argument --jobs: expected an integer of at least 1, got '0'"),
        ("true", "argument --jobs: invalid int value: 'true'"),
    ], ids=["0", "true"])
    def test_jobs_below_one_from_config_is_usage_error(self, workspace, tmp_path, capsys, jobs,
                                                       message):
        text_path, _ = self.write_input(workspace, tmp_path, count=2)
        config_path = tmp_path / "config.json"
        config_path.write_text('{"jobs": %s}' % jobs, encoding="utf-8")
        for command in (["tag"], ["extract", "--dict", str(workspace["dict"])]):
            code = main(["--config", str(config_path), *command, str(text_path),
                         "--model", str(workspace["model"]), "--out", str(tmp_path / "out")])
            assert code == 2
            assert f"{config_path}: jobs: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def write_with_bom(self, workspace, tmp_path):
        text_path, corpus = self.write_input(workspace, tmp_path)
        bom_path = tmp_path / "bom.txt"
        bom_path.write_bytes(b"\xef\xbb\xbf" + text_path.read_bytes())
        return text_path, bom_path

    def test_tag_drops_leading_bom(self, workspace, tmp_path):
        text_path, bom_path = self.write_with_bom(workspace, tmp_path)
        outputs = []
        for path in (text_path, bom_path):
            out = tmp_path / f"{path.stem}.tsv"
            assert main(["tag", str(path), "--model", str(workspace["model"]),
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0]
        assert "\ufeff" not in outputs[1].decode("utf-8")

    def test_extract_drops_leading_bom(self, workspace, tmp_path):
        text_path, bom_path = self.write_with_bom(workspace, tmp_path)
        outputs = []
        for path in (text_path, bom_path):
            quads, relations = tmp_path / f"{path.stem}.q", tmp_path / f"{path.stem}.r"
            assert main(["extract", str(path), "--model", str(workspace["model"]),
                         "--dict", str(workspace["dict"]), "--out", str(quads),
                         "--relations-out", str(relations)]) == 0
            outputs.append([quads.read_bytes(), relations.read_bytes()])
        assert outputs[1] == outputs[0]
        # the first sentence's entities are in the compared files, offsets included
        first = [json.loads(line) for line in outputs[1][1].decode("utf-8").splitlines()]
        assert any(r["sentence_id"] == "s1" for r in first)

    def test_model_without_features_is_usage_error(self, workspace, tmp_path, capsys):
        document = json.loads(workspace["model"].read_text(encoding="utf-8"))
        del document["features"]
        model_path = tmp_path / "broken.json"
        model_path.write_text(json.dumps(document), encoding="utf-8")
        text_path, _ = self.write_input(workspace, tmp_path, count=2)
        code = main(["tag", str(text_path), "--model", str(model_path),
                     "--out", str(tmp_path / "t.tsv")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(model_path) in err and "features" in err

    def test_model_weight_rows_must_match_features(self, workspace, tmp_path, capsys):
        document = json.loads(workspace["model"].read_text(encoding="utf-8"))
        document["weights"].pop()
        model_path = tmp_path / "short.json"
        model_path.write_text(json.dumps(document), encoding="utf-8")
        text_path, _ = self.write_input(workspace, tmp_path, count=2)
        code = main(["tag", str(text_path), "--model", str(model_path),
                     "--out", str(tmp_path / "t.tsv")])
        assert code == 2
        assert f"{model_path}: weight rows do not match feature count" in capsys.readouterr().err
        assert not (tmp_path / "t.tsv").exists()

    def test_deeply_nested_model_is_usage_error(self, workspace, tmp_path, capsys):
        model_path = tmp_path / "deep.json"
        model_path.write_text("[" * 100_000, encoding="utf-8")
        text_path, _ = self.write_input(workspace, tmp_path, count=2)
        code = main(["tag", str(text_path), "--model", str(model_path),
                     "--out", str(tmp_path / "t.tsv")])
        assert code == 2
        assert f"{model_path}: not a JSON model file" in capsys.readouterr().err

    def test_model_json_list_is_usage_error(self, workspace, tmp_path, capsys):
        model_path = tmp_path / "list.json"
        model_path.write_text("[1, 2, 3]\n", encoding="utf-8")
        text_path, _ = self.write_input(workspace, tmp_path, count=2)
        code = main(["extract", str(text_path), "--model", str(model_path),
                     "--dict", str(workspace["dict"]), "--out", str(tmp_path / "q.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(model_path) in err and "JSON object" in err


def write_entity_corpus(path, text, entities):
    write_tagged_flat(FlatCorpus(text, [len(text)], encode(len(text), entities)), path)


@pytest.fixture
def metric_fixture(tmp_path):
    sentence = "字" * 14

    def e(kind, start, end):
        return Entity(kind, start, end, sentence[start:end])

    gold = [e("P", 0, 2), e("P", 3, 5), e("Abn", 6, 8), e("D", 9, 10)]
    pred = [e("P", 0, 2), e("Abn", 11, 13)]
    gold_path = tmp_path / "gold.tsv"
    pred_path = tmp_path / "pred.tsv"
    write_entity_corpus(gold_path, sentence, gold)
    write_entity_corpus(pred_path, sentence, pred)
    return pred_path, gold_path


class TestEval:
    def test_identity_entity_eval(self, metric_fixture, capsys):
        _, gold_path = metric_fixture
        code = main(["eval", "--pred", str(gold_path), "--gold", str(gold_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "P=100.00 R=100.00 F1=100.00" in out

    def test_two_of_four_prints_two_decimals(self, metric_fixture, capsys):
        pred_path, gold_path = metric_fixture
        code = main(["eval", "--pred", str(pred_path), "--gold", str(gold_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "P=50.00 R=25.00 F1=33.33" in out

    def test_json_format_and_report_file(self, metric_fixture, tmp_path, capsys):
        pred_path, gold_path = metric_fixture
        report_path = tmp_path / "report.json"
        code = main(["eval", "--pred", str(pred_path), "--gold", str(gold_path),
                     "--format", "json", "--report-out", str(report_path)])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        saved = json.loads(report_path.read_text(encoding="utf-8"))
        assert printed == saved
        assert round(saved["overall"]["f1"], 2) == 33.33

    def test_sentence_mismatch_exits_2(self, metric_fixture, tmp_path, capsys):
        pred_path, gold_path = metric_fixture
        other = "别" * 9
        other_path = tmp_path / "other.tsv"
        write_entity_corpus(other_path, other, [])
        code = main(["eval", "--pred", str(pred_path), "--gold", str(other_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "same sentences" in err
        assert str(pred_path) in err and str(other_path) in err
        assert "sentence 's1' differs" in err
        # the same text cut into other sentences, and a pred that is a strict prefix of gold
        for pred, gold, where in (
            ("a\tO\nb\tO\n\nc\tO\n", "a\tO\n\nb\tO\nc\tO\n", "sentence 's1' differs"),
            ("a\tO\n\nb\tO\n", "a\tO\n\nb\tO\n\nc\tB-P\n", "2 against 3"),
        ):
            pred_path.write_text(pred, encoding="utf-8")
            other_path.write_text(gold, encoding="utf-8")
            for command in ("eval", "errors"):
                assert main([command, "--pred", str(pred_path), "--gold", str(other_path)]) == 2
                captured = capsys.readouterr()
                assert captured.err == (f"error: pred {pred_path} and gold {other_path} do not "
                                        f"contain the same sentences: {where}\n")
                assert captured.out == ""

    def test_sentence_count_mismatch_names_both_counts(self, metric_fixture, tmp_path, capsys):
        pred_path, gold_path = metric_fixture
        longer = tmp_path / "longer.tsv"
        longer.write_text(gold_path.read_text(encoding="utf-8") + "\n别\tO\n", encoding="utf-8")
        assert main(["errors", "--pred", str(longer), "--gold", str(gold_path)]) == 2
        err = capsys.readouterr().err
        assert f"pred {longer} and gold {gold_path} do not contain the same sentences" in err
        assert "sentences: 2 against 1" in err

    @pytest.mark.parametrize("mode", ["entity", "relation", "agreement"])
    def test_confusion_csv_needs_errors_mode(self, metric_fixture, tmp_path, capsys, mode):
        pred_path, gold_path = metric_fixture
        csv_path = tmp_path / "c.csv"
        code = main(["eval", "--mode", mode, "--pred", str(pred_path), "--gold", str(gold_path),
                     "--confusion-csv", str(csv_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert "--confusion-csv" in captured.err and "--mode errors" in captured.err
        assert captured.out == ""
        assert not csv_path.exists()

    @pytest.mark.parametrize("mode", ["entity", "relation", "errors"])
    def test_items_needs_agreement_mode(self, metric_fixture, tmp_path, capsys, mode):
        pred_path, gold_path = metric_fixture
        config_path = tmp_path / "config.json"
        config_path.write_text('{"items": "relation"}', encoding="utf-8")
        report_path = tmp_path / "r.json"
        command = ["eval", "--mode", mode, "--pred", str(pred_path), "--gold", str(gold_path),
                   "--report-out", str(report_path)]
        for argv in ([*command, "--items", "entity"], ["--config", str(config_path), *command]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert "--items" in captured.err and "--mode agreement" in captured.err
            assert captured.out == ""
            assert not report_path.exists()

    def test_relation_eval_identity(self, workspace, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text(
            "".join(f"{c}\t{t}\n" for c, t in zip(OCCLUSION_TEXT, OCCLUSION_LABELS)),
            encoding="utf-8",
        )
        relations_path = tmp_path / "relations.jsonl"
        assert main(["extract", str(gold), "--model", str(workspace["model"]),
                     "--dict", str(workspace["dict"]), "--input-format", "tsv",
                     "--from-tags", "--out", str(tmp_path / "q.jsonl"),
                     "--relations-out", str(relations_path)]) == 0
        code = main(["eval", "--mode", "relation", "--pred", str(relations_path),
                     "--gold", str(relations_path)])
        assert code == 0
        assert "F1=100.00" in capsys.readouterr().out

    @pytest.mark.parametrize("line, message", [
        ("5", "relation record must be a JSON object"),
        ('{"sentence_id": ["s1"], "kind": "P2P", "head": {}, "tail": {}}',
         "sentence_id must be a string"),
    ])
    def test_non_object_relation_line_exits_2(self, tmp_path, capsys, line, message):
        path = tmp_path / "relations.jsonl"
        path.write_text("\n" + line + "\n", encoding="utf-8")
        code = main(["eval", "--mode", "relation", "--pred", str(path), "--gold", str(path)])
        assert code == 2
        assert f"{path}:2: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ('{"sentence_id": "s1", "kind": "P2Abn", ', "bad JSON"),
        ('{"sentence_id": "s1", "kind": "P2Abn", "head": {}, "tail": {}}', "bad relation"),
        ('{"sentence_id": "s1", "kind": "P2Abn", '
         '"head": {"kind": "P", "start": 0, "end": 2, "text": ["右", "肺"]}, '
         '"tail": {"kind": "Abn", "start": 3, "end": 5, "text": "斑影"}}',
         "bad relation: entity text must be a string"),
        ('{"sentence_id": "s1", "kind": "P2Abn", '
         '"head": {"kind": "P", "start": 0, "end": 2, "text": "右肺"}, '
         '"tail": {"kind": "Abn", "start": 3.0, "end": 5, "text": "斑影"}}',
         "bad relation: span [3.0, 5) must hold two ints"),
    ], ids=["bad-json", "bad-record", "list-text", "float-offset"])
    def test_bad_relation_line_exits_2(self, tmp_path, capsys, line, message):
        path = tmp_path / "relations.jsonl"
        path.write_text("\n" + line + "\n", encoding="utf-8")
        for mode in (["--mode", "relation"], ["--mode", "agreement", "--items", "relation"]):
            code = main(["eval", *mode, "--pred", str(path), "--gold", str(path)])
            assert code == 2
            assert f"{path}:2: {message}" in capsys.readouterr().err

    def test_agreement_mode_over_relations(self, tmp_path, capsys):
        def line(kind, head, tail):
            return json.dumps({"sentence_id": "s1", "kind": kind, "head": head, "tail": tail})

        pp = {"kind": "P", "start": 0, "end": 2, "text": "右肺"}
        sp = {"kind": "P", "start": 2, "end": 4, "text": "下叶"}
        abn = {"kind": "Abn", "start": 5, "end": 7, "text": "斑影"}
        a_path, b_path = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a_path.write_text(line("P2Abn", pp, abn) + "\n" + line("P2P", sp, pp) + "\n",
                          encoding="utf-8")
        b_path.write_text(line("P2Abn", pp, abn) + "\n", encoding="utf-8")
        code = main(["eval", "--mode", "agreement", "--items", "relation",
                     "--pred", str(a_path), "--gold", str(b_path)])
        assert code == 0
        assert "P=50.00 R=100.00 F1=66.67" in capsys.readouterr().out

    def test_agreement_mode(self, tmp_path, capsys):
        sentence = "字" * 10

        def e(kind, start, end):
            return Entity(kind, start, end, sentence[start:end])

        annot_a = [e("P", 0, 2), e("D", 3, 4), e("Abn", 5, 7), e("P", 8, 9)]
        annot_b = [e("P", 0, 2), e("D", 3, 4)]
        a_path, b_path = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_entity_corpus(a_path, sentence, annot_a)
        write_entity_corpus(b_path, sentence, annot_b)
        code = main(["eval", "--mode", "agreement", "--pred", str(a_path),
                     "--gold", str(b_path)])
        assert code == 0
        assert "P=50.00 R=100.00 F1=66.67" in capsys.readouterr().out

    def test_key_scores_match_the_entity_reference_on_random_paths(self, tmp_path, capsys):
        """``eval`` and ``eval --mode agreement`` count entity keys and
        ``errors`` classifies span arrays; on random tag paths (orphan I tags,
        kind switches, all-O sentences) they print what ``entity_prf``,
        ``agreement_f1`` and ``classify_errors`` give over ``Entity`` objects."""
        rng = np.random.default_rng(130)
        pred_path, gold_path = tmp_path / "pred.tsv", tmp_path / "gold.tsv"
        for trial in range(60):
            lengths = rng.integers(1, 7, int(rng.integers(1, 9)))
            text = "".join(rng.choice(list("字肺影a\t"), int(lengths.sum())))
            gold = (rng.integers(0, 7, len(text)) * (rng.random(len(text)) < 0.7)).astype(np.uint8)
            if trial % 5 == 0:   # all O: nothing predicted
                pred = np.zeros(len(text), np.uint8)
            elif trial % 5 == 1:   # the gold path itself
                pred = gold.copy()
            else:
                pred = (rng.integers(0, 7, len(text)) * (rng.random(len(text)) < 0.6)).astype(np.uint8)
            entities = []
            for path, out in ((pred, pred_path), (gold, gold_path)):
                corpus = FlatCorpus(text, lengths, path.tobytes())
                write_tagged_flat(corpus, out)
                entities.append(batch_entities(corpus.ids, text, path, lengths))
            argv = ["--pred", str(pred_path), "--gold", str(gold_path)]
            assert main(["eval", "--format", "json", *argv]) == 0
            assert json.loads(capsys.readouterr().out) == {
                "mode": "entity", **entity_prf(*entities).to_dict()}
            assert main(["eval", "--mode", "agreement", *argv]) == 0
            assert capsys.readouterr().out == f"agreement {agreement_f1(*entities)}\n"
            assert main(["errors", "--format", "json", *argv]) == 0
            records, confusion, summary = classify_errors(*entities)
            assert json.loads(capsys.readouterr().out) == {
                "mode": "errors", "summary": summary.to_dict(),
                "confusion": confusion.counts.tolist(), "records": len(records)}

    def test_errors_subcommand_with_csv(self, tmp_path, capsys):
        sentence = "字" * 12

        def e(kind, start, end):
            return Entity(kind, start, end, sentence[start:end])

        gold_path, pred_path = tmp_path / "gold.tsv", tmp_path / "pred.tsv"
        write_entity_corpus(gold_path, sentence, [e("D", 2, 4), e("Abn", 6, 9)])
        write_entity_corpus(pred_path, sentence, [e("P", 2, 4), e("Abn", 6, 10)])
        csv_path = tmp_path / "confusion.csv"
        code = main(["errors", "--pred", str(pred_path), "--gold", str(gold_path),
                     "--confusion-csv", str(csv_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "TYPE" in out and "EXTENT" in out
        assert csv_path.read_text(encoding="utf-8").startswith("gold\\pred")


class TestUndecodableInput:
    """An undecodable byte in any input file exits 2 naming its path and line."""

    @pytest.mark.parametrize("command", [
        ["train", "{bad}", "{train}", "--model-out", "{out}"],
        ["eval", "--pred", "{bad}", "--gold", "{bad}"],
        ["tag", "{bad}", "--input-format", "tsv", "--model", "{model}", "--out", "{out}"],
        ["tag", "{bad}", "--model", "{model}", "--out", "{out}"],
        ["extract", "{train}", "--input-format", "tsv", "--model", "{model}",
         "--dict", "{bad}", "--out", "{out}"],
        ["eval", "--mode", "relation", "--pred", "{bad}", "--gold", "{bad}"],
        ["tag", "{train}", "--input-format", "tsv", "--model", "{bad}", "--out", "{out}"],
        ["--config", "{bad}", "eval", "--pred", "{train}", "--gold", "{train}"],
        ["tag", "{train}", "--input-format", "tsv", "--model", "{model}",
         "--emissions-file", "{bad}", "--out", "{out}"],
    ], ids=["train-corpus", "eval-corpus", "tag-tsv", "tag-text", "dictionary",
            "relations", "model", "config", "emission-file"])
    def test_exits_2_with_path_and_line(self, workspace, tmp_path, capsys, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\n\xff\n")
        paths = {"bad": bad, "train": workspace["train"], "model": workspace["model"],
                 "out": tmp_path / "out"}
        assert main([arg.format(**paths) for arg in command]) == 2
        assert f"{bad}:2: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err


class TestByteOrderMark:
    """Every input kind gives the same run with and without a leading UTF-8 BOM."""

    @pytest.fixture
    def inputs(self, workspace, decode_inputs, tmp_path):
        path = path_of(OCCLUSION_LABELS)
        relations, _ = match_entities(entities_of(OCCLUSION_TEXT, path),
                                      read_dictionary(workspace["dict"]))
        paths = {"text": decode_inputs["text"], "emissions": decode_inputs["emissions"],
                 "tsv": tmp_path / "gold.tsv", "dict": workspace["dict"],
                 "relations": tmp_path / "relations.jsonl", "model": workspace["model"],
                 "config": tmp_path / "config.json"}
        write_tagged_flat(FlatCorpus(OCCLUSION_TEXT, [len(OCCLUSION_TEXT)], path), paths["tsv"])
        reference_write_records(relations, paths["relations"], ["s1"] * len(relations))
        paths["config"].write_text('{"constrain": false, "input_format": "text"}', encoding="utf-8")
        return paths

    COMMANDS = {
        "text": ["tag", "{text}", "--model", "{model}", "--out", "{out}"],
        "tsv": ["tag", "{tsv}", "--input-format", "tsv", "--model", "{model}", "--out", "{out}"],
        "dict": ["extract", "{tsv}", "--input-format", "tsv", "--from-tags", "--model", "{model}",
                 "--dict", "{dict}", "--out", "{out}", "--relations-out", "{rel}"],
        "emissions": ["tag", "{text}", "--model", "{model}", "--emissions-file", "{emissions}",
                      "--out", "{out}"],
        "relations": ["eval", "--mode", "relation", "--pred", "{relations}",
                      "--gold", "{relations}", "--report-out", "{out}"],
        "model": ["extract", "{text}", "--model", "{model}", "--dict", "{dict}",
                  "--out", "{out}", "--relations-out", "{rel}"],
        "config": ["--config", "{config}", "tag", "{text}", "--model", "{model}", "--out", "{out}"],
    }

    @pytest.mark.parametrize("kind", COMMANDS)
    def test_same_run_with_and_without_bom(self, inputs, tmp_path, capsys, kind):
        bom = tmp_path / f"bom-{inputs[kind].name}"
        bom.write_bytes(b"\xef\xbb\xbf" + inputs[kind].read_bytes())
        runs = []
        for source in (inputs[kind], bom):
            out_dir = tmp_path / f"out{len(runs)}"
            out_dir.mkdir()
            paths = {**inputs, kind: source, "out": out_dir / "out", "rel": out_dir / "rel"}
            code = main([arg.format(**paths) for arg in self.COMMANDS[kind]])
            outputs = sorted((p.name, p.read_bytes()) for p in out_dir.iterdir())
            runs.append((code, capsys.readouterr().out, outputs))
        assert runs[0][0] == 0 and runs[0][2]
        assert runs[1] == runs[0]


class TestDistinctOutputs:
    """Two outputs of one command that name the same file exit 2 before any work."""

    def test_train_model_and_report(self, workspace, tmp_path, capsys):
        (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
        code = main(["train", str(workspace["train"]), str(workspace["dev"]),
                     "--model-out", str(tmp_path / "x.json"),
                     "--report-out", str(tmp_path / "link" / "x.json"), "--epochs", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "--model-out and --report-out name the same file" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "x.json").exists()

    def test_extract_quadruples_and_relations(self, workspace, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["extract", str(workspace["train"]), "--input-format", "tsv",
                     "--model", str(workspace["model"]), "--dict", str(workspace["dict"]),
                     "--out", "x.jsonl", "--relations-out", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert "--out and --relations-out name the same file" in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()

    @pytest.mark.parametrize("command", [["errors"], ["eval", "--mode", "errors"]])
    def test_errors_report_and_confusion(self, workspace, tmp_path, capsys, command):
        same = tmp_path / "x.out"
        code = main([*command, "--pred", str(workspace["dev"]), "--gold", str(workspace["dev"]),
                     "--report-out", str(same), "--confusion-csv", str(same)])
        assert code == 2
        captured = capsys.readouterr()
        assert "--report-out and --confusion-csv name the same file" in captured.err
        assert captured.out == ""
        assert not same.exists()


class TestOutputNamesAnInput:
    """An output that names one of the command's own inputs exits 2 before
    any work, naming both options, and leaves the input as it was."""

    @staticmethod
    def copy(workspace, tmp_path, key):
        copy = tmp_path / workspace[key].name
        copy.write_bytes(workspace[key].read_bytes())
        return copy

    def assert_refused(self, capsys, argv, flags, kept):
        before = kept.read_bytes()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"{flags} name the same file: " in captured.err
        assert captured.out == ""
        assert kept.read_bytes() == before

    @pytest.mark.parametrize("which, output", [(0, "--model-out"), (1, "--report-out")])
    def test_train(self, workspace, tmp_path, capsys, which, output):
        paths = [self.copy(workspace, tmp_path, key) for key in ("train", "dev")]
        argv = ["train", *map(str, paths), "--model-out", str(tmp_path / "m.json"),
                "--epochs", "1", output, str(paths[which])]
        flags = f"{('train_path', 'dev_path')[which]} and {output}"
        self.assert_refused(capsys, argv, flags, paths[which])

    @pytest.mark.parametrize("option", ["input", "--model", "--emissions-file"])
    def test_tag(self, workspace, tmp_path, capsys, option):
        model, corpus = (self.copy(workspace, tmp_path, key) for key in ("model", "dev"))
        kept = {"input": corpus, "--model": model}.get(option, tmp_path / "e.txt")
        if option == "--emissions-file":
            kept.write_text("", encoding="utf-8")
        argv = ["tag", str(corpus), "--input-format", "tsv", "--model", str(model),
                "--out", str(kept)]
        if option == "--emissions-file":
            argv += ["--emissions-file", str(kept)]
        self.assert_refused(capsys, argv, f"{option} and --out", kept)

    @pytest.mark.parametrize("option, output", [
        ("--dict", "--relations-out"), ("input", "--out"), ("--model", "--relations-out")])
    def test_extract(self, workspace, tmp_path, capsys, option, output):
        corpus, model, dictionary = (self.copy(workspace, tmp_path, key)
                                     for key in ("dev", "model", "dict"))
        kept = {"input": corpus, "--model": model, "--dict": dictionary}[option]
        argv = ["extract", str(corpus), "--input-format", "tsv", "--model", str(model),
                "--dict", str(dictionary), "--out", str(tmp_path / "q.jsonl"), output, str(kept)]
        self.assert_refused(capsys, argv, f"{option} and {output}", kept)

    def test_eval(self, workspace, tmp_path, capsys):
        pred = self.copy(workspace, tmp_path, "dev")
        argv = ["eval", "--pred", str(pred), "--gold", str(workspace["dev"]),
                "--report-out", str(pred)]
        self.assert_refused(capsys, argv, "--pred and --report-out", pred)

    def test_errors(self, workspace, tmp_path, capsys):
        gold = self.copy(workspace, tmp_path, "dev")
        argv = ["errors", "--pred", str(workspace["dev"]), "--gold", str(gold),
                "--confusion-csv", str(gold)]
        self.assert_refused(capsys, argv, "--gold and --confusion-csv", gold)

    @pytest.mark.parametrize("command, output", [
        ("train", "--model-out"), ("tag", "--out"), ("extract", "--relations-out"),
        ("eval", "--report-out"), ("errors", "--confusion-csv")])
    def test_config(self, workspace, tmp_path, capsys, command, output):
        config = tmp_path / "c.json"
        config.write_text('{"seed": 1, "jobs": 1}', encoding="utf-8")
        decode = [str(workspace["dev"]), "--input-format", "tsv", "--model", str(workspace["model"])]
        scores = ["--pred", str(workspace["dev"]), "--gold", str(workspace["dev"])]
        argv = {
            "train": [str(workspace["train"]), str(workspace["dev"]), "--epochs", "1",
                      "--model-out", str(tmp_path / "m.json")],
            "tag": [*decode, "--out", str(tmp_path / "o.tsv")],
            "extract": [*decode, "--dict", str(workspace["dict"]), "--out", str(tmp_path / "q.jsonl")],
            "eval": scores,
            "errors": scores,
        }[command]
        self.assert_refused(capsys, ["--config", str(config), command, *argv, output, str(config)],
                            f"--config and {output}", config)

    def test_role_table_declares_every_output(self):
        top_level = {a.dest for a in build_parser()._actions}
        assert "config" in top_level
        for name, parser in SUBCOMMANDS.items():
            dests = {a.dest for a in parser._actions}
            inputs, outputs = set(parser.get_default("inputs")), set(parser.get_default("outputs"))
            assert {dest for dest in dests if dest.endswith(("out", "_csv"))} <= outputs, name
            assert inputs | outputs <= dests | {"config"}, name
            assert "config" in inputs and not inputs & outputs, name

    def test_inputs_may_share_a_file(self, workspace, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert main(["eval", "--pred", str(workspace["dev"]), "--gold", str(workspace["dev"]),
                     "--report-out", str(report)]) == 0
        assert json.loads(report.read_text(encoding="utf-8"))["overall"]["f1"] == 100.0


class TestUsage:
    def test_unknown_flag(self, capsys):
        assert main(["train", "--bogus"]) == 2

    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "radsigns" in capsys.readouterr().out

    def test_main_without_argv_reads_the_command_line(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["radsigns", "--version"])
        assert main() == 0
        assert capsys.readouterr().out == f"radsigns {radsigns.__version__}\n"
        monkeypatch.setattr("sys.argv", ["radsigns", "train", "--bogus"])
        assert main() == 2

    @pytest.mark.parametrize("command, option", [
        (["train", "t.tsv", "d.tsv", "--model-out", "m.json", "--epochs=--"], "--epochs"),
        (["eval", "--pred", "p.tsv", "--gold", "g.tsv", "--mode=--"], "--mode"),
    ])
    def test_double_dash_value_is_usage_error(self, tmp_path, capsys, command, option):
        assert main(command) == 2
        assert f"argument {option}: expected one argument, got '--'" in capsys.readouterr().err

    @pytest.mark.parametrize("option, prefix", [
        ("--model", "--mod"), ("--no-constrain", "--no"), ("--config", "--conf")])
    def test_an_option_prefix_is_not_the_option(self, workspace, tmp_path, capsys, option,
                                                prefix):
        text_path = tmp_path / "in.txt"
        text_path.write_text("右上肺见斑片影。\n", encoding="utf-8")
        config_path = tmp_path / "config.json"
        config_path.write_text('{"jobs": 1}', encoding="utf-8")
        argv = ["--config", str(config_path), "tag", str(text_path), "--model",
                str(workspace["model"]), "--no-constrain", "--out", str(tmp_path / "o.tsv")]
        assert main(argv) == 0
        capsys.readouterr()
        (tmp_path / "o.tsv").unlink()
        argv[argv.index(option)] = prefix
        assert main(argv) == 2
        assert "error: " in capsys.readouterr().err
        assert not (tmp_path / "o.tsv").exists()


SUBCOMMANDS = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
CONFIG_KEYS = sorted({a.dest for p in SUBCOMMANDS.values() for a in p._actions
                      if a.option_strings and a.dest != "help"})
REQUIRED_ARGS = {
    "train": ["t.tsv", "d.tsv", "--model-out", "m.json"],
    "tag": ["in.txt", "--model", "m.json", "--out", "o"],
    "extract": ["in.txt", "--model", "m.json", "--out", "o"],
    "eval": ["--pred", "p.tsv", "--gold", "g.tsv"],
    "errors": ["--pred", "p.tsv", "--gold", "g.tsv"],
}
# each JSON value type, plus strings that some option accepts
CONFIG_VALUES = st.one_of(
    st.text(), st.integers(), st.floats(), st.booleans(), st.none(),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.sampled_from(["--", "3", "-1", "0.5", "nan", "tsv", "json", "relation", "errors", "x.json"]),
)


class TestConfigFile:
    def test_config_provides_defaults_flags_override(self, workspace, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"epochs": 3, "seed": 5}', encoding="utf-8")

        from_config = tmp_path / "from_config.json"
        code = main(["--config", str(config_path), "train",
                     str(workspace["train"]), str(workspace["dev"]),
                     "--model-out", str(tmp_path / "m1.json"),
                     "--report-out", str(from_config)])
        assert code == 0
        assert len(json.loads(from_config.read_text(encoding="utf-8"))["dev_f1"]) == 3

        overridden = tmp_path / "overridden.json"
        code = main(["--config", str(config_path), "train",
                     str(workspace["train"]), str(workspace["dev"]),
                     "--model-out", str(tmp_path / "m2.json"),
                     "--report-out", str(overridden), "--epochs", "2"])
        assert code == 0
        assert len(json.loads(overridden.read_text(encoding="utf-8"))["dev_f1"]) == 2

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text("[1, 2]", encoding="utf-8")
        assert main(["--config", str(config_path), "eval",
                     "--pred", "x", "--gold", "y"]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_deeply_nested_config_is_usage_error(self, tmp_path, capsys):
        config_path = tmp_path / "deep.json"
        config_path.write_text("[" * 100_000, encoding="utf-8")
        assert main(["--config", str(config_path), "eval",
                     "--pred", "x", "--gold", "y"]) == 2
        assert f"{config_path}: not a JSON config file" in capsys.readouterr().err

    def train_with_config(self, workspace, tmp_path, config, *flags):
        config_path = tmp_path / "config.json"
        config_path.write_text(config, encoding="utf-8")
        return main(["--config", str(config_path), "train",
                     str(workspace["train"]), str(workspace["dev"]),
                     "--model-out", str(tmp_path / "m.json"), *flags])

    @pytest.mark.parametrize("config, message", [
        ('{"seed": 1.5}', "argument --seed: invalid int value: '1.5'"),
        ('{"epochs": true}', "argument --epochs: invalid int value: 'true'"),
        ('{"batch_size": [1]}', "config.json: batch_size: expected a string, number or boolean, got [1]"),
        ('{"lr": null}', "config.json: lr: expected a string, number or boolean, got null"),
        ('{"l2": {}}', "config.json: l2: expected a string, number or boolean, got {}"),
        ('{"report_out": 1}', "config.json: report_out: expected a string, got 1"),
        ('{"epochs": "--"}', "config.json: epochs: argument --epochs: expected one argument, got '--'"),
        ('{"bogus_key": 1}', "config.json: bogus_key: no command has this option"),
        ('{"train_path": "x.tsv"}', "config.json: train_path: no command has this option"),
        ('{"report_out": "r\\u0000.json"}', "config.json: report_out: a value cannot hold a NUL "
                                            "character"),
    ])
    def test_mistyped_or_unknown_config_value_is_usage_error(
        self, workspace, tmp_path, capsys, config, message
    ):
        assert self.train_with_config(workspace, tmp_path, config, "--epochs", "1") == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not (tmp_path / "m.json").exists()

    def test_config_values_pass_the_flags_checks(self, workspace, tmp_path, capsys):
        assert self.train_with_config(workspace, tmp_path, '{"lr": 1e400}', "--epochs", "1") == 2
        assert "finite" in capsys.readouterr().err
        config_path = tmp_path / "config.json"
        for config in ('{"mode": "bogus"}', '{"format": "xml"}'):
            config_path.write_text(config, encoding="utf-8")
            assert main(["--config", str(config_path), "eval", "--pred", "x", "--gold", "y"]) == 2
            assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, wanted", [
        ("batch_size", "0", "an integer of at least 1"),
        ("epochs", "0", "an integer of at least 1"),
        ("decay_epoch", "0", "an integer of at least 1"),
        ("lr", "0", "a finite number above 0"),
        ("lr", "NaN", "a finite number above 0"),
        ("lr_decayed", "1e400", "a finite number above 0"),
        ("l2", "-1", "a finite number of at least 0"),
    ], ids=["batch_size=0", "epochs=0", "decay_epoch=0", "lr=0", "lr=NaN", "lr_decayed=1e400",
            "l2=-1"])
    def test_value_out_of_range_names_the_file_and_the_key(
        self, workspace, tmp_path, capsys, key, value, wanted
    ):
        """Out of range in the file, the value exits 2 naming the file and the
        key; as a flag, it is a usage error.  The file's value is checked as
        the JSON text of what it parses to (``1e400`` as ``Infinity``)."""
        option = "--" + key.replace("_", "-")
        assert self.train_with_config(workspace, tmp_path, f'{{"{key}": {value}}}') == 2
        captured = capsys.readouterr()
        got = json.dumps(json.loads(value))
        assert captured.err == (f"error: {tmp_path / 'config.json'}: {key}: "
                                f"argument {option}: expected {wanted}, got '{got}'\n")
        assert captured.out == ""
        assert main(["train", str(workspace["train"]), str(workspace["dev"]),
                     "--model-out", str(tmp_path / "m.json"), f"{option}={value}"]) == 2
        assert capsys.readouterr().err.endswith(
            f"radsigns train: error: argument {option}: expected {wanted}, got '{value}'\n")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("config, message", [
        ('{"mode": "bogus"}', "config.json: mode: argument --mode: invalid choice: 'bogus'"),
        ('{"lr": "abc"}', "config.json: lr: argument --lr: invalid float value: 'abc'"),
    ])
    def test_bad_value_for_another_commands_option_is_usage_error_everywhere(
        self, workspace, tmp_path, capsys, config, message
    ):
        config_path = tmp_path / "config.json"
        config_path.write_text(config, encoding="utf-8")
        text_path = tmp_path / "input.txt"
        text_path.write_text("右肺见斑影\n", encoding="utf-8")
        decode = [str(text_path), "--model", str(workspace["model"]),
                  "--out", str(tmp_path / "out")]
        commands = [
            ["train", str(workspace["train"]), str(workspace["dev"]),
             "--model-out", str(tmp_path / "m.json"), "--epochs", "1"],
            ["tag", *decode],
            ["extract", *decode, "--dict", str(workspace["dict"])],
            ["eval", "--pred", str(workspace["dev"]), "--gold", str(workspace["dev"])],
            ["errors", "--pred", str(workspace["dev"]), "--gold", str(workspace["dev"])],
        ]
        for command in commands:
            assert main(["--config", str(config_path), *command]) == 2, command
            captured = capsys.readouterr()
            assert message in captured.err
            assert captured.out == ""
        assert not (tmp_path / "m.json").exists()
        assert not (tmp_path / "out").exists()

    def test_shared_config_runs_train_and_eval(self, workspace, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"epochs": 1, "seed": 3, "lr": 0.25, "mode": "entity", '
                               '"format": "json", "constrain": false, "jobs": 2}',
                               encoding="utf-8")
        assert main(["--config", str(config_path), "train", str(workspace["train"]),
                     str(workspace["dev"]), "--model-out", str(tmp_path / "m.json")]) == 0
        assert "selected epoch 1" in capsys.readouterr().out
        assert main(["--config", str(config_path), "eval",
                     "--pred", str(workspace["dev"]), "--gold", str(workspace["dev"])]) == 0
        assert json.loads(capsys.readouterr().out)["overall"]["f1"] == 100.0

    def test_config_values_equal_their_flags(self, workspace, tmp_path, monkeypatch):
        # "-" starts the relative path, and "mode" belongs to eval, so train skips it
        monkeypatch.chdir(tmp_path)
        config = '{"epochs": "2", "seed": 3, "lr": 0.25, "report_out": "-r.json", "mode": "relation"}'
        assert self.train_with_config(workspace, tmp_path, config) == 0
        from_config = [(tmp_path / name).read_bytes() for name in ("m.json", "-r.json")]
        assert main(["train", str(workspace["train"]), str(workspace["dev"]),
                     "--model-out", str(tmp_path / "m.json"), "--report-out", str(tmp_path / "r.json"),
                     "--epochs", "2", "--seed", "3", "--lr", "0.25"]) == 0
        assert from_config == [(tmp_path / name).read_bytes() for name in ("m.json", "r.json")]

    @pytest.mark.parametrize("command", ["train", "tag", "eval"])
    def test_config_supplies_required_options(
        self, workspace, metric_fixture, tmp_path, monkeypatch, capsys, command
    ):
        monkeypatch.chdir(tmp_path)
        pred, gold = map(str, metric_fixture)
        model = str(workspace["model"])
        argv, required, flags = {
            "train": ([str(workspace["train"]), str(workspace["dev"]), "--epochs", "2"],
                      {"model_out": "out"}, ["--model-out", "out"]),
            "tag": ([str(workspace["dev"]), "--input-format", "tsv"],
                    {"model": model, "out": "out"}, ["--model", model, "--out", "out"]),
            "eval": (["--report-out", "out"],
                     {"pred": pred, "gold": gold}, ["--pred", pred, "--gold", gold]),
        }[command]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(required), encoding="utf-8")
        runs = []
        for run in (["--config", str(config_path), command, *argv], [command, *argv, *flags]):
            assert main(run) == 0
            runs.append((capsys.readouterr().out, (tmp_path / "out").read_bytes()))
            (tmp_path / "out").unlink()
        assert runs[0] == runs[1]

    def test_flag_wins_over_a_config_supplied_required_option(
        self, workspace, metric_fixture, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        pred, gold = map(str, metric_fixture)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"model": str(workspace["model"]), "out": "config.tsv",
                                           "pred": "missing.tsv", "gold": gold}), encoding="utf-8")
        assert main(["--config", str(config_path), "tag", str(workspace["dev"]),
                     "--input-format", "tsv", "--out", "flag.tsv"]) == 0
        assert (tmp_path / "flag.tsv").exists() and not (tmp_path / "config.tsv").exists()
        assert main(["--config", str(config_path), "eval", "--pred", pred]) == 0

    def parse_with_config(self, tmp_path, config, argv):
        config_path = tmp_path / "config.json"
        config_path.write_text(config, encoding="utf-8")
        parser = build_parser()
        return parser.parse_args(_apply_config(["--config", str(config_path), *argv], parser))

    def test_config_booleans_map_to_their_flags(self, tmp_path, capsys):
        tag = ["tag", "in.txt", "--model", "m.json", "--out", "o"]
        extract = ["extract", "in.tsv", "--model", "m.json", "--out", "o"]
        for value in (False, True):
            setting = json.dumps(value)
            assert self.parse_with_config(tmp_path, f'{{"constrain": {setting}}}', tag).constrain is value
            assert self.parse_with_config(tmp_path, f'{{"from_tags": {setting}}}', extract).from_tags is value
        assert self.parse_with_config(tmp_path, '{"constrain": true}', [*tag, "--no-constrain"]).constrain is False
        (tmp_path / "config.json").write_text('{"constrain": "no"}', encoding="utf-8")
        assert main(["--config", str(tmp_path / "config.json"), *tag]) == 2
        assert "constrain: expected true or false" in capsys.readouterr().err

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(sorted(REQUIRED_ARGS)), key=st.sampled_from(CONFIG_KEYS),
           value=CONFIG_VALUES)
    def test_every_option_and_json_type_parses_as_its_flag(
        self, tmp_path, monkeypatch, capsys, command, key, value
    ):
        parsed = []
        for name in ("train", "tag", "extract", "eval"):
            monkeypatch.setattr(cli, f"_cmd_{name}", lambda args, *_: parsed.append(args) or 0)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({key: value}), encoding="utf-8")
        code = main(["--config", str(config_path), command, *REQUIRED_ARGS[command]])
        assert code in (0, 2)
        assert "Traceback" not in capsys.readouterr().err
        if code == 2:
            return
        flags = []
        for action in SUBCOMMANDS[command]._actions:
            if action.dest == key and action.option_strings:
                flag = action.option_strings[0]
                if action.nargs == 0:
                    flags = [flag] if value == action.const else []
                else:
                    flags = [f"{flag}={value if isinstance(value, str) else json.dumps(value)}"]
        assert main([command, *flags, *REQUIRED_ARGS[command]]) == 0
        from_config, from_flags = parsed
        assert repr({**vars(from_config), "config": None}) == repr(vars(from_flags))

    def test_missing_config_file_is_usage_error(self, tmp_path):
        assert main(["--config", str(tmp_path / "none.json"), "eval",
                     "--pred", "x", "--gold", "y"]) == 2
