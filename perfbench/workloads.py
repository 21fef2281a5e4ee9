"""Seeded inputs, CLI arguments and output checks for each workload.

Inputs come from the rule corpus generator in ``tests/_synth.py``: every
character determines its tag, so a trained model can tag new sentences
exactly and every output has an independent expected value.
"""

from __future__ import annotations

import io
import json
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import _synth
from radsigns import cli
from radsigns.corpus import TAG_LABELS, Entity

# The model that the decode workloads load is trained in set-up on this many
# rule sentences.  One epoch of 1,000 sentences tags held-out rule sentences
# without error (checked on 12 seeds x 5,000 sentences); the dev-best epoch
# is the first one whenever dev F1 is already 100.
MODEL_SIZES = {"model_train": 1000, "model_dev": 50, "model_epochs": 1}

SIZES = {
    "train": {"train": 300, "dev": 60, "epochs": 4},
    "extract": {"sentences": 2500, **MODEL_SIZES},
    "tag-emissions": {"sentences": 1008, "max_parts": 8, **MODEL_SIZES},
}

SMOKE_SIZES = {
    "train": {"train": 200, "dev": 30, "epochs": 3},
    "extract": {"sentences": 40, "model_train": 300, "model_dev": 20, "model_epochs": 1},
    "tag-emissions": {"sentences": 12, "max_parts": 8, "model_train": 40,
                      "model_dev": 10, "model_epochs": 1},
}


def invoke(argv: list[str]) -> tuple[int, float, str]:
    """Run the CLI in-process; return exit code, wall seconds and stderr.

    An exception escaping ``main`` would end a real run with exit code 1 and
    a traceback, so it is reported the same way.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
        elapsed = time.perf_counter() - start
    return code, elapsed, err.getvalue()


def write_tsv(pairs, path: Path) -> None:
    blocks = ("".join(f"{ch}\t{tag}\n" for ch, tag in zip(s.chars, t.tags))
              for s, t in pairs)
    path.write_text("\n".join(blocks), encoding="utf-8")


def read_tsv_tags(path: Path) -> list[tuple[str, ...]]:
    blocks = path.read_text(encoding="utf-8").split("\n\n")
    return [tuple(line.split("\t")[1] for line in block.splitlines())
            for block in blocks if block.strip()]


def gold_entities(sentence, tags) -> list[Entity]:
    """Spans of well-formed B-X (I-X)* runs."""
    entities, start, kind = [], None, ""
    for i, tag in enumerate(tags.tags + ("O",)):
        if start is not None and not tag.startswith("I-"):
            entities.append(Entity(kind, start, i, sentence.text[start:i]))
            start = None
        if tag.startswith("B-"):
            start, kind = i, tag[2:]
    return entities


def f1(pred: Counter, gold: Counter) -> float:
    correct = sum((pred & gold).values())
    predicted, total = sum(pred.values()), sum(gold.values())
    return 200.0 * correct / (predicted + total) if predicted + total else 100.0


class Workload:
    """One workload's inputs in a work directory, its command and its check."""

    name = ""
    jobs = 1
    quality_name = ""

    def __init__(self, work: Path, seed: int, sizes: dict):
        self.work = work
        self.seed = seed
        self.sizes = sizes
        self.sentences = 0     # sentences the command reads
        self.chars = 0         # characters the command reads
        self.work_chars = 0    # characters processed per invocation

    def setup(self) -> None:
        raise NotImplementedError

    def argv(self, jobs: int | None = None) -> list[str]:
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        raise NotImplementedError

    def expect(self) -> None:
        """Compute the expected outputs, once, after set-up and before timing."""

    def check(self) -> tuple[bool, float, str]:
        """(outputs correct, quality in %, what was wrong)."""
        raise NotImplementedError

    def clear_outputs(self) -> None:
        for path in self.outputs():
            path.unlink(missing_ok=True)

    def describe(self) -> dict:
        return {**self.sizes, "sentences_read": self.sentences,
                "chars_read": self.chars, "work_chars": self.work_chars,
                "jobs": self.jobs}

    def _train_model(self) -> Path:
        rng = np.random.default_rng([self.seed, 1])
        train = _synth.build_rule_corpus(rng, self.sizes["model_train"], "m")
        dev = _synth.build_rule_corpus(rng, self.sizes["model_dev"], "v")
        write_tsv(train, self.work / "model-train.tsv")
        write_tsv(dev, self.work / "model-dev.tsv")
        model = self.work / "model.json"
        code, _, err = invoke([
            "train", str(self.work / "model-train.tsv"), str(self.work / "model-dev.tsv"),
            "--model-out", str(model), "--epochs", str(self.sizes["model_epochs"]),
            "--seed", str(self.seed)])
        if code != 0:
            raise RuntimeError(f"set-up training exited {code}: {err.strip()}")
        return model


class Train(Workload):
    """``radsigns train`` for a fixed number of epochs; dev F1 must reach 99."""

    name = "train"
    quality_name = "train_dev_f1"

    def setup(self):
        rng = np.random.default_rng(self.seed)
        train = _synth.build_rule_corpus(rng, self.sizes["train"], "t")
        dev = _synth.build_rule_corpus(rng, self.sizes["dev"], "d")
        write_tsv(train, self.work / "train.tsv")
        write_tsv(dev, self.work / "dev.tsv")
        train_chars = sum(len(s) for s, _ in train)
        self.sentences = len(train) + len(dev)
        self.chars = train_chars + sum(len(s) for s, _ in dev)
        self.work_chars = train_chars * self.sizes["epochs"]

    def argv(self, jobs=None):
        return ["train", str(self.work / "train.tsv"), str(self.work / "dev.tsv"),
                "--model-out", str(self.work / "out-model.json"),
                "--report-out", str(self.work / "report.json"),
                "--epochs", str(self.sizes["epochs"]), "--seed", str(self.seed)]

    def outputs(self):
        return [self.work / "out-model.json", self.work / "report.json"]

    def check(self):
        report = json.loads((self.work / "report.json").read_text(encoding="utf-8"))
        dev_f1 = float(report["dev_f1"][report["selected_epoch"]])
        if len(report["dev_f1"]) != self.sizes["epochs"]:
            return False, dev_f1, f"report has {len(report['dev_f1'])} epochs"
        if dev_f1 < 99.0:
            return False, dev_f1, f"dev F1 {dev_f1:.2f} < 99"
        return True, dev_f1, ""


def _entity_key(record):
    if record is None:
        return None
    return (record["kind"], record["start"], record["end"], record["text"])


def _entity_of(entity):
    return None if entity is None else (entity.kind, entity.start, entity.end, entity.text)


def _read_jsonl(path: Path, key) -> Counter:
    """(sentence id, record key) -> count."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    return Counter((record["sentence_id"], key(record)) for record in records)


def _quad_key(record):
    return tuple(_entity_key(record[slot]) for slot in ("pp", "sp", "d", "abn"))


def _relation_key(record):
    return (record["kind"], _entity_key(record["head"]), _entity_key(record["tail"]))


class Extract(Workload):
    """``radsigns extract --jobs 1`` on short rule sentences given as text.

    Quadruples and relations must equal the brute-force matcher's on the
    gold entities.
    """

    name = "extract"
    quality_name = "extract_quad_f1"

    def setup(self):
        self.model = self._train_model()
        rng = np.random.default_rng([self.seed, 2])
        self.gold = _synth.build_rule_corpus(rng, self.sizes["sentences"], "s")
        (self.work / "input.txt").write_text(
            "".join(s.text + "\n" for s, _ in self.gold), encoding="utf-8")
        (self.work / "dict.txt").write_text(
            "".join(term + "\n" for term in _synth.SP_TERMS), encoding="utf-8")
        self.sentences = len(self.gold)
        self.chars = self.work_chars = sum(len(s) for s, _ in self.gold)

    def argv(self, jobs=None):
        return ["extract", str(self.work / "input.txt"), "--model", str(self.model),
                "--dict", str(self.work / "dict.txt"),
                "--out", str(self.work / "quads.jsonl"),
                "--relations-out", str(self.work / "relations.jsonl"),
                "--jobs", str(jobs or self.jobs)]

    def outputs(self):
        return [self.work / "quads.jsonl", self.work / "relations.jsonl"]

    def expect(self):
        quads, relations = Counter(), Counter()
        for sentence, tags in self.gold:
            rels, qs = _synth.brute_force_match(
                sentence, gold_entities(sentence, tags), _synth.RULE_DICTIONARY)
            quads.update((sentence.id, tuple(map(_entity_of, (q.pp, q.sp, q.d, q.abn))))
                         for q in qs)
            relations.update((sentence.id, (r.kind, _entity_of(r.head), _entity_of(r.tail)))
                             for r in rels)
        self.expected = quads, relations

    def check(self):
        want_quads, want_relations = self.expected
        quads = _read_jsonl(self.work / "quads.jsonl", _quad_key)
        relations = _read_jsonl(self.work / "relations.jsonl", _relation_key)
        quality = f1(quads, want_quads)
        if quads != want_quads:
            return False, quality, "quadruples differ from the brute-force matcher"
        if relations != want_relations:
            return False, quality, "relations differ from the brute-force matcher"
        return True, quality, ""


class TagEmissions(Workload):
    """``radsigns tag --emissions-file --jobs 2`` on report-length sentences.

    Each emission row is the gold one-hot times a margin larger than any
    path's transition gain, plus noise in [-1, 1], so Viterbi must return
    the gold tags.
    """

    name = "tag-emissions"
    jobs = 2
    quality_name = "tag_acc"

    def setup(self):
        self.model = self._train_model()
        transitions = np.array(json.loads(self.model.read_text(encoding="utf-8"))["transitions"])
        margin = 2.0 * float(transitions.max() - transitions.min()) + 8.0

        rng = np.random.default_rng([self.seed, 3])
        reports = []
        for i in range(self.sizes["sentences"]):
            parts = _synth.build_rule_corpus(
                rng, int(rng.integers(1, self.sizes["max_parts"] + 1)), "p")
            chars = sum((s.chars for s, _ in parts), ())
            tags = sum((t.tags for _, t in parts), ())
            reports.append((f"s{i + 1}", chars, tags))
        self.gold = [tags for _, _, tags in reports]

        index = {label: i for i, label in enumerate(TAG_LABELS)}
        blocks = []
        for sid, chars, tags in reports:
            scores = rng.uniform(-1.0, 1.0, size=(len(chars), len(TAG_LABELS)))
            scores[np.arange(len(chars)), [index[t] for t in tags]] += margin
            rows = "\n".join(" ".join(map(repr, row)) for row in scores.tolist())
            blocks.append(f"{sid} {len(chars)} {len(TAG_LABELS)}\n{rows}\n")
        (self.work / "emissions.txt").write_text("".join(blocks), encoding="utf-8")
        (self.work / "input.tsv").write_text(
            "\n".join("".join(f"{c}\t{t}\n" for c, t in zip(chars, tags))
                      for _, chars, tags in reports),
            encoding="utf-8")
        self.sentences = len(reports)
        self.chars = self.work_chars = sum(len(chars) for _, chars, _ in reports)

    def argv(self, jobs=None):
        return ["tag", str(self.work / "input.tsv"), "--model", str(self.model),
                "--input-format", "tsv",
                "--emissions-file", str(self.work / "emissions.txt"),
                "--out", str(self.work / "tagged.tsv"), "--jobs", str(jobs or self.jobs)]

    def outputs(self):
        return [self.work / "tagged.tsv"]

    def check(self):
        decoded = read_tsv_tags(self.work / "tagged.tsv")
        if len(decoded) != len(self.gold):
            return False, 0.0, f"{len(decoded)} sentences tagged, {len(self.gold)} given"
        total = sum(len(g) for g in self.gold)
        equal = sum(p == g for pred, gold in zip(decoded, self.gold)
                    for p, g in zip(pred, gold))
        accuracy = 100.0 * equal / total
        if equal != total or any(len(p) != len(g) for p, g in zip(decoded, self.gold)):
            return False, accuracy, f"{total - equal} of {total} tags differ from gold"
        return True, accuracy, ""


WORKLOADS = {cls.name: cls for cls in (Train, Extract, TagEmissions)}
