"""Seeded byte-level fuzzing of the tagged corpora that ``train`` reads
(training and dev) and that ``eval`` and ``errors`` read (pred and gold).

Each case mutates one of a command's input files and runs the command
through ``main``: it must return 0, 2 or 3 without raising, and an exit-2
message must name the mutated file.  The cases are drawn from fixed seeds,
so every run tries the same inputs.
"""

import numpy as np
import pytest

from radsigns.cli import main
from radsigns.corpus import write_tagged_corpus

from _synth import build_rule_corpus

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
        write_tagged_corpus(build_rule_corpus(rng, count, name), path)
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
