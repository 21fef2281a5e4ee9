"""Strict-match scoring, agreement, and the four-way entity error taxonomy.

An entity is correct only when sentence, kind, start and end all match; a
relation additionally needs its kind and both endpoints exact.  Scores are
micro-averaged over the corpus and reported on a 0-100 scale.  :func:`key_prf`
counts every score over int keys: :func:`entity_keys` of tag paths, or numbered items.

Every prediction that is not an exact match falls into exactly one error
category:

* TYPE      same span, wrong kind;
* EXTENT    overlapping span, same kind (SHORT inside the gold span, LONG
            covering it, S&L neither);
* SPURIOUS  no overlap with any gold entity, or a gold of maximal overlap
            with another kind and another span.

Every gold entity is exactly matched, involved in a TYPE/EXTENT record, or
MISSING.  A prediction overlapping several golds pairs with the one of
maximal overlap (ties to the earlier gold); the others stay unmatched.

The taxonomy assumes that the entities on each side of a sentence do not
overlap, as entities decoded from one tag sequence never do;
:func:`classify_errors` rejects a side that breaks this, duplicates included.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import ENTITY_KINDS, RELATION_KINDS, Entity, Relation
from .tagscheme import _run_arrays

ERROR_CATEGORIES = ("TYPE", "EXTENT", "SPURIOUS", "MISSING")
EXTENT_SUBTYPES = ("SHORT", "LONG", "S&L")
CONFUSION_AXES = ("P", "D", "Abn", "O")


@dataclass(frozen=True)
class PrfScores:
    """Precision/recall/F1 derived from (correct, predicted, gold) counts."""

    correct: int
    predicted: int
    gold: int

    @property
    def precision(self) -> float:
        return 100.0 * self.correct / self.predicted if self.predicted else 0.0

    @property
    def recall(self) -> float:
        return 100.0 * self.correct / self.gold if self.gold else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "correct": self.correct,
            "predicted": self.predicted,
            "gold": self.gold,
        }

    def __str__(self) -> str:
        return (
            f"P={self.precision:.2f} R={self.recall:.2f} F1={self.f1:.2f} "
            f"(correct={self.correct}, predicted={self.predicted}, gold={self.gold})"
        )


@dataclass(frozen=True)
class PrfBreakdown:
    overall: PrfScores
    by_kind: Mapping[str, PrfScores]

    def to_dict(self) -> dict:
        return {
            "overall": self.overall.to_dict(),
            "by_kind": {k: v.to_dict() for k, v in self.by_kind.items()},
        }


def entity_keys(path, lengths: Sequence[int]) -> np.ndarray:
    """Ascending int64 keys ``(flat start * (longest + 1) + length) * 3 + kind``
    of the entities of a flat tag index path over sentences of ``lengths``:
    two paths over the same lengths share a key exactly when they share an entity."""
    _, starts, ends, kinds = _run_arrays(path, lengths)
    return (starts * (int(np.max(lengths, initial=0)) + 1) + ends - starts) * len(ENTITY_KINDS) + kinds


def key_prf(pred: np.ndarray, gold: np.ndarray, kinds: Sequence[str] = ENTITY_KINDS) -> PrfBreakdown:
    """Strict counts of two multisets of int keys, overall and per ``kinds[key % len(kinds)]``;
    a key in both is correct as often as the side that holds it fewer times."""
    (p, p_count), (g, g_count) = (np.unique(keys, return_counts=True) for keys in (pred, gold))
    shared, at_p, at_g = np.intersect1d(p, g, assume_unique=True, return_indices=True)
    tallies = ((shared, np.minimum(p_count[at_p], g_count[at_g])), (p, p_count), (g, g_count))
    counts = [np.bincount(keys % len(kinds), n, len(kinds)).astype(int).tolist() for keys, n in tallies]
    by_kind = {kind: PrfScores(*c) for kind, *c in zip(kinds, *counts)}   # (correct, predicted, gold)
    return PrfBreakdown(PrfScores(*map(sum, counts)), by_kind)


def _breakdown(pred, gold, kinds: Sequence[str]) -> PrfBreakdown:
    """:func:`key_prf` of two mappings from sentence id to items of ``kinds``, each
    distinct ``(sentence id, item)`` keyed ``its number * len(kinds) + its kind's index``."""
    numbers, index = {}, {kind: k for k, kind in enumerate(kinds)}
    keys = [np.array([numbers.setdefault((sid, x), len(numbers)) * len(kinds) + index[x.kind]
                      for sid, items in side.items() for x in items], dtype=np.int64)
            for side in (pred, gold)]
    return key_prf(*keys, kinds)


def entity_prf(
    pred: Mapping[str, Sequence[Entity]], gold: Mapping[str, Sequence[Entity]]
) -> PrfBreakdown:
    """Strict entity scores, overall and per kind, keyed by sentence id."""
    return _breakdown(pred, gold, ENTITY_KINDS)


def relation_prf(
    pred: Mapping[str, Sequence[Relation]], gold: Mapping[str, Sequence[Relation]]
) -> PrfBreakdown:
    """Strict relation scores: kind and both entities must match exactly."""
    return _breakdown(pred, gold, RELATION_KINDS)


def agreement_f1(annot_a: Mapping[str, Sequence], annot_b: Mapping[str, Sequence]) -> PrfScores:
    """Consistency F1 between two annotators over the same sentences.

    Precision divides the identical items by annotator A's total, recall by
    annotator B's total; items may be entities or relations.
    """
    return _breakdown(annot_a, annot_b, ENTITY_KINDS + RELATION_KINDS).overall


@dataclass(frozen=True)
class ErrorRecord:
    sentence_id: str
    category: str
    extent_subtype: str | None
    predicted: Entity | None
    gold: Entity | None

    def __post_init__(self):
        if self.category not in ERROR_CATEGORIES:
            raise ValueError(f"unknown error category {self.category!r}")
        if (self.extent_subtype is not None) != (self.category == "EXTENT"):
            raise ValueError("extent subtype present iff category is EXTENT")
        if self.extent_subtype is not None and self.extent_subtype not in EXTENT_SUBTYPES:
            raise ValueError(f"unknown extent subtype {self.extent_subtype!r}")
        has_pred, has_gold = self.predicted is not None, self.gold is not None
        required = {
            "TYPE": (True, True),
            "EXTENT": (True, True),
            "SPURIOUS": (True, False),
            "MISSING": (False, True),
        }[self.category]
        if (has_pred, has_gold) != required:
            raise ValueError(f"{self.category} record has wrong entity slots")


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """4x4 gold x predicted counts over {P, D, Abn, O}.

    Row O holds spurious predictions by predicted kind.  Column O holds gold
    entities with no exact-span counterpart in the output, i.e. missing
    entities plus golds that were only found inexactly (extent errors), so
    each row over gold kinds sums to that kind's gold total.
    """

    counts: np.ndarray

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64)
        if counts.shape != (4, 4):
            raise ValueError(f"confusion matrix must be 4 x 4, got {counts.shape}")
        if (counts < 0).any():
            raise ValueError("confusion counts must be non-negative")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    def cell(self, gold_axis: str, pred_axis: str) -> int:
        return int(
            self.counts[CONFUSION_AXES.index(gold_axis), CONFUSION_AXES.index(pred_axis)]
        )

    def row_total(self, gold_axis: str) -> int:
        return int(self.counts[CONFUSION_AXES.index(gold_axis)].sum())

    def to_csv(self) -> str:
        lines = ["gold\\pred," + ",".join(CONFUSION_AXES) + ",total"]
        for i, axis in enumerate(CONFUSION_AXES):
            row = ",".join(str(int(v)) for v in self.counts[i])
            lines.append(f"{axis},{row},{int(self.counts[i].sum())}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ErrorSummary:
    """Count/percentage tables over the four categories and extent subtypes."""

    category_counts: Mapping[str, int]
    extent_counts: Mapping[str, Mapping[str, int]]
    missing_by_kind: Mapping[str, int]
    spurious_by_kind: Mapping[str, int]
    gold_totals: Mapping[str, int]
    predicted_totals: Mapping[str, int]

    @property
    def total_errors(self) -> int:
        return sum(self.category_counts.values())

    def category_share(self, category: str) -> float:
        total = self.total_errors
        return 100.0 * self.category_counts[category] / total if total else 0.0

    def missing_share(self, kind: str) -> float:
        gold = self.gold_totals.get(kind, 0)
        return 100.0 * self.missing_by_kind.get(kind, 0) / gold if gold else 0.0

    def spurious_share(self, kind: str) -> float:
        predicted = self.predicted_totals.get(kind, 0)
        return 100.0 * self.spurious_by_kind.get(kind, 0) / predicted if predicted else 0.0

    def to_dict(self) -> dict:
        return {
            "total_errors": self.total_errors,
            "categories": {
                c: {"count": self.category_counts[c], "pct_of_errors": self.category_share(c)}
                for c in ERROR_CATEGORIES
            },
            "extent": {s: dict(self.extent_counts[s]) for s in EXTENT_SUBTYPES},
            "missing_by_kind": {
                k: {"count": self.missing_by_kind.get(k, 0), "pct_of_gold": self.missing_share(k)}
                for k in ENTITY_KINDS
            },
            "spurious_by_kind": {
                k: {
                    "count": self.spurious_by_kind.get(k, 0),
                    "pct_of_predicted": self.spurious_share(k),
                }
                for k in ENTITY_KINDS
            },
        }

    def format_text(self) -> str:
        lines = [f"{'category':<10}{'count':>7}  {'% of errors':>11}"]
        for category in ERROR_CATEGORIES:
            lines.append(
                f"{category:<10}{self.category_counts[category]:>7}  "
                f"{self.category_share(category):>10.1f}%"
            )
        lines.append("")
        header = f"{'extent':<10}" + "".join(f"{k:>6}" for k in ENTITY_KINDS) + f"{'total':>7}"
        lines.append(header)
        for subtype in EXTENT_SUBTYPES:
            row = self.extent_counts[subtype]
            total = sum(row.values())
            lines.append(
                f"{subtype:<10}"
                + "".join(f"{row.get(k, 0):>6}" for k in ENTITY_KINDS)
                + f"{total:>7}"
            )
        lines.append("")
        lines.append(f"{'kind':<6}{'missing':>9}  {'% of gold':>9}{'spurious':>10}  {'% of pred':>9}")
        for kind in ENTITY_KINDS:
            lines.append(
                f"{kind:<6}{self.missing_by_kind.get(kind, 0):>9}  "
                f"{self.missing_share(kind):>8.1f}%"
                f"{self.spurious_by_kind.get(kind, 0):>10}  "
                f"{self.spurious_share(kind):>8.1f}%"
            )
        return "\n".join(lines) + "\n"


def _overlap(a: Entity, b: Entity) -> int:
    return max(0, min(a.end, b.end) - max(a.start, b.start))


def _extent_subtype(pred: Entity, gold: Entity) -> str:
    if pred.start >= gold.start and pred.end <= gold.end:
        return "SHORT"
    if pred.start <= gold.start and pred.end >= gold.end:
        return "LONG"
    return "S&L"


def _disjoint(sentence_id: str, entities: Sequence[Entity]) -> list[Entity]:
    """``entities`` sorted by span; two that overlap raise ``ValueError``."""
    ordered = sorted(entities, key=lambda e: (e.start, e.end))
    for a, b in zip(ordered, ordered[1:]):
        if b.start < a.end:
            raise ValueError(f"sentence {sentence_id!r}: entities {a} and {b} overlap")
    return ordered


def classify_errors(
    pred: Mapping[str, Sequence[Entity]], gold: Mapping[str, Sequence[Entity]]
) -> tuple[list[ErrorRecord], ConfusionMatrix, ErrorSummary]:
    """Classify every non-exact prediction and unmatched gold entity.

    The entities on each side of a sentence must not overlap, duplicates
    included; a side that does raises ``ValueError`` naming the sentence and
    two of its entities.
    """
    records: list[ErrorRecord] = []
    counts = np.zeros((4, 4), dtype=np.int64)
    gold_totals, predicted_totals = Counter(), Counter()
    axis, other = CONFUSION_AXES.index, CONFUSION_AXES.index("O")
    for sid in sorted(set(pred) | set(gold)):
        preds, golds = _disjoint(sid, pred.get(sid, ())), _disjoint(sid, gold.get(sid, ()))
        gold_totals.update(g.kind for g in golds)
        predicted_totals.update(p.kind for p in preds)
        unshared = {(g.start, g.end): g for g in golds}   # golds no prediction shares a span with
        held = set()                                      # spans of golds in EXTENT records
        for p in preds:
            g = unshared.pop((p.start, p.end), None)
            if g is not None:
                counts[axis(g.kind), axis(p.kind)] += 1
                if g.kind != p.kind:
                    records.append(ErrorRecord(sid, "TYPE", None, p, g))
                continue
            g = max(golds, key=lambda g: _overlap(p, g), default=None)   # ties: earlier gold
            if g is not None and g.kind == p.kind and _overlap(p, g):
                records.append(ErrorRecord(sid, "EXTENT", _extent_subtype(p, g), p, g))
                held.add((g.start, g.end))
            else:
                records.append(ErrorRecord(sid, "SPURIOUS", None, p, None))
                counts[other, axis(p.kind)] += 1
        for span, g in unshared.items():
            counts[axis(g.kind), other] += 1
            if span not in held:
                records.append(ErrorRecord(sid, "MISSING", None, None, g))

    tally = Counter((r.category, r.extent_subtype, (r.predicted or r.gold).kind)
                    for r in records)
    summary = ErrorSummary(
        category_counts={c: sum(r.category == c for r in records) for c in ERROR_CATEGORIES},
        extent_counts={s: {k: tally["EXTENT", s, k] for k in ENTITY_KINDS}
                       for s in EXTENT_SUBTYPES},
        missing_by_kind={k: tally["MISSING", None, k] for k in ENTITY_KINDS},
        spurious_by_kind={k: tally["SPURIOUS", None, k] for k in ENTITY_KINDS},
        gold_totals=gold_totals,
        predicted_totals=predicted_totals,
    )
    return records, ConfusionMatrix(counts), summary
