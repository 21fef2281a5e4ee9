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

The taxonomy is counted on span arrays, no two spans of a sentence's side
overlapping, as one tag path's runs never do.  :func:`path_errors` counts two
paths' runs, so ``batch_entities`` has no command caller; :func:`classify_errors`
numbers its entities into the arrays, rejecting an overlapping side, duplicates included.
"""

from __future__ import annotations

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


def path_errors(pred, gold, lengths: Sequence[int]) -> tuple[ConfusionMatrix, ErrorSummary]:
    """:func:`classify_errors`' matrix and summary for two flat tag index paths over ``lengths``."""
    return _span_errors(*(_run_arrays(path, lengths)[1:] for path in (pred, gold)))[4:]


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


def _disjoint(sentence_id: str, entities: Sequence[Entity]) -> list[Entity]:
    """``entities`` sorted by span; two that overlap raise ``ValueError``."""
    ordered = sorted(entities, key=lambda e: (e.start, e.end))
    for a, b in zip(ordered, ordered[1:]):
        if b.start < a.end:
            raise ValueError(f"sentence {sentence_id!r}: entities {a} and {b} overlap")
    return ordered


def _span_errors(pred, gold):
    """The taxonomy of two sides of flat ``(start, end, kind)`` int arrays, sentences laid end
    to end, each side sorted by start with no two spans overlapping: per prediction its category,
    extent subtype and paired gold (indices, -1 for none), per gold its MISSING flag, then the
    confusion matrix and the summary."""
    (ps, pe, pk), (gs, ge, gk) = ([np.asarray(a, np.intp) for a in side] for side in (pred, gold))
    lo = np.searchsorted(ge, ps, "right")   # a prediction overlaps the golds lo up to lo + count
    count = np.searchsorted(gs, pe) - lo
    owner, first = np.repeat(np.arange(len(ps)), count), np.cumsum(count) - count
    paired = lo[owner] + np.arange(len(owner)) - first[owner]
    overlap = np.minimum(pe[owner], ge[paired]) - np.maximum(ps[owner], gs[paired])
    best = np.full(len(ps), -1)   # of greatest overlap; the sort is stable, so ties: earlier gold
    best[count > 0] = paired[np.lexsort((-overlap, owner))[first[count > 0]]]
    b0, b1, bk = (np.append(a, -1)[best] for a in (gs, ge, gk))   # the best gold's; -1 for none
    exact, same = (b0 == ps) & (b1 == pe), bk == pk
    category = np.where(exact, np.where(same, -1, 0), np.where(same, 1, 2))
    subtype = np.select([category != 1, (ps >= b0) & (pe <= b1), (ps <= b0) & (pe >= b1)],
                        [-1, 0, 1], 2)
    found, held = (np.bincount(best[m], minlength=len(gs)) > 0 for m in (exact, category == 1))
    missing = ~found & ~held

    other, kept = CONFUSION_AXES.index("O"), category != 1   # EXTENT's golds count in column O
    cells = np.concatenate((np.where(exact, bk, other)[kept] * 4 + pk[kept], gk[~found] * 4 + other))
    confusion = ConfusionMatrix(np.bincount(cells, minlength=16).reshape(4, 4))
    *extent, missed, spurious, gold_totals, predicted_totals = (
        dict(zip(ENTITY_KINDS, np.bincount(kinds, minlength=len(ENTITY_KINDS)).tolist()))
        for kinds in (*(pk[subtype == t] for t in range(3)), gk[missing], pk[category == 2], gk, pk))
    counts = [*np.bincount(category[category >= 0], minlength=3).tolist(), int(missing.sum())]
    summary = ErrorSummary(dict(zip(ERROR_CATEGORIES, counts)), dict(zip(EXTENT_SUBTYPES, extent)),
                           missed, spurious, gold_totals, predicted_totals)
    return category, subtype, best, missing, confusion, summary


def classify_errors(
    pred: Mapping[str, Sequence[Entity]], gold: Mapping[str, Sequence[Entity]]
) -> tuple[list[ErrorRecord], ConfusionMatrix, ErrorSummary]:
    """Classify every non-exact prediction and unmatched gold entity.

    The entities on each side of a sentence must not overlap, duplicates
    included; a side that does raises ``ValueError`` naming the sentence and
    two of its entities.
    """
    sids = sorted(set(pred) | set(gold))
    preds, golds = sides = ([], [])   # per side, (sentence number, entity) in span order
    for row, sid in enumerate(sids):
        for side, given in zip(sides, (pred, gold)):
            side.extend((row, e) for e in _disjoint(sid, given.get(sid, ())))
    stride = max((e.end for _, e in preds + golds), default=0)   # lays sentences end to end
    category, subtype, paired, missing, confusion, summary = _span_errors(*(
        np.array([(row * stride + e.start, row * stride + e.end, ENTITY_KINDS.index(e.kind))
                  for row, e in side], np.intp).reshape(-1, 3).T for side in sides))
    records = [(row, ErrorRecord(sids[row], ERROR_CATEGORIES[c], (*EXTENT_SUBTYPES, None)[t], p,
                                 golds[g][1] if c < 2 else None))
               for (row, p), c, t, g in zip(preds, *(a.tolist() for a in (category, subtype, paired)))
               if c >= 0]
    records += [(row, ErrorRecord(sids[row], "MISSING", None, None, g))
                for (row, g), m in zip(golds, missing.tolist()) if m]
    records.sort(key=lambda r: r[0])   # stable: a sentence's predictions, then its MISSING golds
    return [r for _, r in records], confusion, summary
