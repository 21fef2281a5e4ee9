"""Seeded byte-level fuzzing of the tagged corpora that ``train`` reads
(training and dev) and that ``eval`` and ``errors`` read (pred and gold),
of the ``train --config`` file, of the text input and the model of ``tag``,
of the emission file of ``tag --emissions-file``, of the dictionary of
``extract --dict``, of the tsv input of ``extract --from-tags`` and of the
relations files of ``eval --mode relation`` and of relation agreement.

Each case mutates one of a command's input files and runs the command
through ``main``: it must return 0, 2 or 3 without raising, and an exit-2
message must name the mutated file.  The cases are drawn from fixed seeds,
so every run tries the same inputs.
"""

import numpy as np
import pytest

from radsigns import corpus
from radsigns.cli import main
from radsigns.corpus import TAG_LABELS, write_emissions, write_tagged_flat
from radsigns.crf import TaggerModel, save_model
from radsigns.encoder import FeatureVocabulary

from _synth import RULE_CHAR_TAG, SP_TERMS, build_rule_corpus, flat_corpus
from conftest import emission_triple

INSERTS = (b"\t", b"\r", b"\0", "\ufeff".encode(), "\u2028".encode())


def mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """One to three edits: a bit flip, an insert from ``INSERTS``, a deleted
    span or a truncation, each at a random byte offset, half of them moved
    on to the next line start."""
    for _ in range(int(rng.integers(1, 4))):
        at, op = int(rng.integers(0, len(data) + 1)), int(rng.integers(4))
        if rng.integers(2):
            at = data.find(b"\n", at) + 1   # 0 past the last newline
        if op == 0 and at < len(data):
            data = data[:at] + bytes([data[at] ^ 1 << int(rng.integers(8))]) + data[at + 1:]
        elif op == 1:
            data = data[:at] + INSERTS[int(rng.integers(len(INSERTS)))] + data[at:]
        elif op == 2:
            data = data[:at] + data[at + int(rng.integers(1, 8)):]
        else:
            data = data[:at]
    return data


@pytest.fixture
def corpora(tmp_path):
    """Two small tagged corpora, as the bytes of their files."""
    rng = np.random.default_rng(190)
    written = []
    for name, count in (("a", 6), ("b", 3)):
        path = tmp_path / f"{name}.tsv"
        write_tagged_flat(flat_corpus(build_rule_corpus(rng, count, name)), path)
        written.append(path.read_bytes())
    return written


def run_mutated(tmp_path, capsys, originals, argv_for, seed, cases):
    """Run ``argv_for(paths, rng)`` on ``cases`` mutations of the files,
    checking each exit code and exit-2 message.  Each case mutates one file,
    or, one case in three, applies the same edits to every file."""
    rng = np.random.default_rng(seed)
    paths = [tmp_path / f"in{k}.tsv" for k in range(len(originals))]
    for case in range(cases):
        edits = int(rng.integers(2**32))
        targets = range(len(paths)) if rng.integers(3) == 0 else [int(rng.integers(len(paths)))]
        for k, (path, data) in enumerate(zip(paths, originals)):
            path.write_bytes(mutate(data, np.random.default_rng(edits)) if k in targets else data)
        code = main(argv_for(paths, rng))
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (case, err)
        if code == 2:
            assert any(str(paths[k]) in err for k in targets), (case, err)


def test_train_corpora(tmp_path, capsys, corpora):
    model = tmp_path / "model.json"

    def argv(paths, rng):
        return ["train", str(paths[0]), str(paths[1]), "--model-out", str(model),
                "--epochs", "1", "--batch-size", "4"]

    run_mutated(tmp_path, capsys, corpora, argv, seed=191, cases=120)


def test_eval_and_errors_pred_and_gold(tmp_path, capsys, corpora):
    gold = corpora[0]
    pred = gold.replace(b"\tB-P\n", b"\tB-D\n", 2)   # a few wrong entities

    def argv(paths, rng):
        command = [["eval"], ["eval", "--mode", "agreement"], ["errors"]][int(rng.integers(3))]
        return [*command, "--pred", str(paths[0]), "--gold", str(paths[1])]

    run_mutated(tmp_path, capsys, [pred, gold], argv, seed=192, cases=300)


def test_train_config(tmp_path, capsys, corpora):
    """The ``--config`` file mutated, both corpora left valid."""
    train, dev = tmp_path / "train.tsv", tmp_path / "dev.tsv"
    train.write_bytes(corpora[0])
    dev.write_bytes(corpora[1])
    config = b'{"epochs": 2, "batch_size": 4, "lr": 0.5, "seed": 3}\n'

    def argv(paths, rng):
        return ["--config", str(paths[0]), "train", str(train), str(dev),
                "--model-out", str(tmp_path / "model.json")]

    run_mutated(tmp_path, capsys, [config], argv, seed=197, cases=60)


@pytest.fixture
def decode_files(tmp_path):
    """A text input, its emission file, a dictionary and a model whose
    weights tag each rule character as the rule corpus does, so ``extract``
    finds entities to match."""
    rng = np.random.default_rng(193)
    corpus = build_rule_corpus(rng, 5, "s")
    sentences = [s for s, _ in corpus]
    text = "".join(s.text for s in sentences)
    vocab = FeatureVocabulary.build(text, [len(s) for s in sentences])
    weights = np.zeros((vocab.size, len(TAG_LABELS)))
    for ch, tag in RULE_CHAR_TAG.items():
        weights[vocab.lookup(f"c0={ch}"), TAG_LABELS.index(tag)] = 5.0
    files = {name: tmp_path / name
             for name in ("input.txt", "em.txt", "dict.txt", "model.json", "tags.tsv")}
    files["input.txt"].write_text("".join(s.text + "\n" for s in sentences), encoding="utf-8")
    write_tagged_flat(flat_corpus(corpus), files["tags.tsv"])
    write_emissions(*emission_triple({s.id: rng.standard_normal((len(s), len(TAG_LABELS)))
                                      for s in sentences}), files["em.txt"])
    files["dict.txt"].write_text("# parts\n" + "".join(t + "\n" for t in SP_TERMS), encoding="utf-8")
    save_model(TaggerModel(vocab, weights, np.zeros((9, 9))),
               files["model.json"])
    return files


@pytest.mark.parametrize("mutated, seed", [("input.txt", 194), ("em.txt", 195), ("dict.txt", 196),
                                           ("model.json", 198), ("tags.tsv", 199)])
def test_decode_inputs(tmp_path, capsys, decode_files, mutated, seed):
    """One file of ``tag`` (text input, model), ``tag --emissions-file``
    (the emission file), ``extract --dict`` (the dictionary) or ``extract
    --from-tags`` (the tsv input) mutated, the others left valid.  A mutated
    text input next to a valid emission file may leave a sentence without
    its block, an error that names the emission file, so the text input is
    fuzzed without one."""
    run_decode_mutations(tmp_path, capsys, decode_files, mutated, seed)


def test_emission_file_in_small_chunks(tmp_path, capsys, monkeypatch, decode_files):
    """The emission file's mutations again, read in chunks of 64 bytes, so
    that chunks end inside blocks, lines and tokens."""
    monkeypatch.setattr(corpus, "_PARSE_BYTES", 64)
    run_decode_mutations(tmp_path, capsys, decode_files, "em.txt", 195)


def run_decode_mutations(tmp_path, capsys, decode_files, mutated, seed):
    files, out = {k: str(v) for k, v in decode_files.items()}, str(tmp_path / "out")

    def argv(paths, rng):
        given = {**files, mutated: str(paths[0])}
        if mutated in ("dict.txt", "tags.tsv"):
            source = (["--input-format", "tsv", "--from-tags", given["tags.tsv"]]
                      if mutated == "tags.tsv" else [given["input.txt"]])
            return ["extract", *source, "--model", given["model.json"],
                    "--dict", given["dict.txt"], "--out", out,
                    "--relations-out", str(tmp_path / "relations.jsonl")]
        emissions = ["--emissions-file", given["em.txt"]] if mutated == "em.txt" else []
        return ["tag", given["input.txt"], "--model", given["model.json"], *emissions, "--out", out]

    run_mutated(tmp_path, capsys, [decode_files[mutated].read_bytes()], argv, seed=seed, cases=60)


def test_relation_eval_and_agreement(tmp_path, capsys, decode_files):
    """The two relations files of ``eval --mode relation`` and of ``eval
    --mode agreement --items relation`` mutated; the gold holds the
    relations that ``extract --from-tags`` writes, the pred all but one."""
    gold_path, quads = tmp_path / "gold.jsonl", tmp_path / "quads.jsonl"
    assert main(["extract", "--input-format", "tsv", "--from-tags", str(decode_files["tags.tsv"]),
                 "--model", str(decode_files["model.json"]), "--dict", str(decode_files["dict.txt"]),
                 "--out", str(quads), "--relations-out", str(gold_path)]) == 0
    gold = gold_path.read_bytes()
    pred = gold[gold.index(b"\n") + 1:]

    def argv(paths, rng):
        mode = [["--mode", "relation"], ["--mode", "agreement", "--items", "relation"]]
        return ["eval", *mode[int(rng.integers(2))], "--pred", str(paths[0]), "--gold", str(paths[1])]

    run_mutated(tmp_path, capsys, [pred, gold], argv, seed=200, cases=120)
