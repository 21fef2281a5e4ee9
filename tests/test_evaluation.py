import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radsigns.corpus import (
    ENTITY_KINDS,
    RELATION_ENDPOINTS,
    RELATION_KINDS,
    Entity,
    Relation,
)
from radsigns.evaluation import (
    CONFUSION_AXES,
    ERROR_CATEGORIES,
    EXTENT_SUBTYPES,
    ErrorRecord,
    ErrorSummary,
    PrfScores,
    agreement_f1,
    classify_errors,
    entity_keys,
    entity_prf,
    key_prf,
    relation_prf,
)

from radsigns.tagscheme import _run_arrays, batch_entities

from _synth import random_entity_set


def ent(kind, start, end):
    return Entity(kind, start, end, "字" * (end - start))


class TestPrfScores:
    def test_f1_is_harmonic_mean(self):
        scores = PrfScores(correct=1, predicted=2, gold=4)
        assert scores.precision == pytest.approx(50.0)
        assert scores.recall == pytest.approx(25.0)
        assert scores.f1 == pytest.approx(100 / 3)

    def test_zero_correct_gives_zero_f1(self):
        assert PrfScores(0, 5, 5).f1 == 0.0
        assert PrfScores(0, 0, 0).f1 == 0.0

    def test_symmetry_in_precision_recall(self):
        assert PrfScores(2, 4, 8).f1 == pytest.approx(PrfScores(2, 8, 4).f1)


class TestEntityPrf:
    def test_identity_scores_hundred(self):
        gold = {"s1": [ent("P", 0, 2), ent("Abn", 4, 6)], "s2": [ent("D", 1, 2)]}
        result = entity_prf(gold, gold)
        assert result.overall.precision == 100.0
        assert result.overall.recall == 100.0
        assert result.overall.f1 == 100.0

    def test_two_predicted_one_correct_four_gold(self):
        gold = {"s1": [ent("P", 0, 2), ent("P", 3, 5), ent("Abn", 6, 8), ent("D", 9, 10)]}
        pred = {"s1": [ent("P", 0, 2), ent("Abn", 11, 13)]}
        result = entity_prf(pred, gold)
        assert round(result.overall.precision, 2) == 50.00
        assert round(result.overall.recall, 2) == 25.00
        assert round(result.overall.f1, 2) == 33.33

    def test_shifted_span_is_incorrect(self):
        gold = {"s1": [ent("P", 0, 3)]}
        pred = {"s1": [ent("P", 1, 4)]}
        assert entity_prf(pred, gold).overall.correct == 0

    def test_same_span_wrong_kind_is_incorrect(self):
        gold = {"s1": [ent("P", 0, 3)]}
        pred = {"s1": [ent("D", 0, 3)]}
        assert entity_prf(pred, gold).overall.correct == 0

    def test_match_requires_same_sentence(self):
        gold = {"s1": [ent("P", 0, 3)]}
        pred = {"s2": [ent("P", 0, 3)]}
        assert entity_prf(pred, gold).overall.correct == 0

    def test_per_kind_breakdown(self):
        gold = {"s1": [ent("P", 0, 2), ent("Abn", 4, 6)]}
        pred = {"s1": [ent("P", 0, 2), ent("Abn", 7, 9)]}
        result = entity_prf(pred, gold)
        assert result.by_kind["P"].f1 == 100.0
        assert result.by_kind["Abn"].f1 == 0.0
        assert result.by_kind["D"].gold == 0


# small spans over few sentences, so that predictions, golds and duplicates collide
ENTITIES = st.builds(lambda kind, start, length: ent(kind, start, start + length),
                     st.sampled_from(ENTITY_KINDS), st.integers(0, 4), st.integers(1, 2))
RELATIONS = st.sampled_from(RELATION_KINDS).flatmap(lambda kind: st.builds(
    lambda a, b: Relation(kind, ent(RELATION_ENDPOINTS[kind][0], a, a + 1),
                          ent(RELATION_ENDPOINTS[kind][1], b, b + 1)),
    st.integers(0, 2), st.integers(3, 5)))


def corpora(items):
    corpus = st.dictionaries(st.sampled_from(["s1", "s2", "s3"]), st.lists(items, max_size=8))
    return st.tuples(corpus, corpus)


def recount(pred, gold, kind=None):
    """Strict counts of one kind (all kinds for None), pairing each
    prediction with an unused equal gold item."""
    correct = predicted = total_gold = 0
    for sid in set(pred) | set(gold):
        p = [x for x in pred.get(sid, []) if kind in (None, x.kind)]
        unused = [x for x in gold.get(sid, []) if kind in (None, x.kind)]
        predicted, total_gold = predicted + len(p), total_gold + len(unused)
        for x in p:
            if x in unused:
                unused.remove(x)
                correct += 1
    return PrfScores(correct, predicted, total_gold)


class TestBreakdownMatchesRecount:
    @settings(max_examples=150, deadline=None)
    @given(data=st.one_of(
        st.tuples(st.just(entity_prf), st.just(ENTITY_KINDS), corpora(ENTITIES)),
        st.tuples(st.just(relation_prf), st.just(RELATION_KINDS), corpora(RELATIONS))))
    def test_overall_and_per_kind_counts(self, data):
        score, kinds, (pred, gold) = data
        result = score(pred, gold)
        assert result.overall == recount(pred, gold)
        assert dict(result.by_kind) == {kind: recount(pred, gold, kind) for kind in kinds}
        assert agreement_f1(pred, gold) == result.overall


class TestEntityKeys:
    @staticmethod
    def decoded(keys, lengths):
        """``(flat start, length, kind)`` of each key, undoing its layout."""
        width = int(np.max(lengths)) + 1
        rest, kind = np.divmod(keys, len(ENTITY_KINDS))
        return rest // width, rest % width, kind

    def test_keys_decode_to_the_entities(self):
        rng = np.random.default_rng(131)
        for _ in range(200):
            lengths = rng.integers(1, 7, int(rng.integers(1, 9)))
            path = rng.integers(0, 7, int(lengths.sum())) * (rng.random(int(lengths.sum())) < 0.7)
            entities = batch_entities([f"s{k}" for k in range(len(lengths))], "字" * int(lengths.sum()),
                                      path, lengths)
            offsets = np.concatenate(([0], np.cumsum(lengths)))
            expected = [(int(offsets[row]) + e.start, e.end - e.start, ENTITY_KINDS.index(e.kind))
                        for row, found in enumerate(entities.values()) for e in found]
            keys = entity_keys(path, lengths)
            assert keys.dtype == np.int64
            assert list(zip(*(a.tolist() for a in self.decoded(keys, lengths)))) == expected

    def test_no_overflow_on_a_long_sentence_after_many_short_ones(self):
        """2**20 one-character sentences and one of 2**21 characters overflow
        a ``(row, start, end, kind)`` layout; the flat-start keys stay far
        below the int64 limit and still decode to their entities."""
        lengths = np.array([1] * 2**20 + [2**21])
        path = np.random.default_rng(132).integers(0, 7, int(lengths.sum())).astype(np.uint8)
        path[2**20:] = 2   # one I-P run, repaired into a P entity of 2**21 characters
        keys = entity_keys(path, lengths)
        _, starts, ends, kinds = _run_arrays(path, lengths)
        flat_start, length, kind = self.decoded(keys, lengths)
        assert np.array_equal(flat_start, starts)
        assert np.array_equal(length, ends - starts) and np.array_equal(kind, kinds)
        assert length[-1] == 2**21 and (np.diff(keys) > 0).all()
        assert keys[-1] < len(ENTITY_KINDS) * lengths.sum() * (2**21 + 1)

    def test_lengths_are_checked_before_they_are_summed(self):
        # a 2-D or ragged list once reached numpy's sum, whose error named no argument
        for lengths in ([[3]], [[1], [1, 1]], [1.5, 1.5]):
            with pytest.raises(ValueError, match="^sentence lengths must be a 1-D array of int"):
                entity_keys(np.array([1, 2, 0], np.uint8), lengths)

    def test_counts_repeated_keys_as_multisets(self):
        result = key_prf(np.array([5, 5, 5, 7, 9]), np.array([5, 5, 9, 9, 10]))
        assert result.overall == PrfScores(3, 5, 5)
        assert dict(result.by_kind) == {"P": PrfScores(1, 1, 2), "D": PrfScores(0, 1, 1),
                                        "Abn": PrfScores(2, 3, 2)}
        assert all(type(v) is int for s in (result.overall, *result.by_kind.values())
                   for v in vars(s).values())


class TestRelationPrf:
    def pair(self, kind, a, b):
        return Relation(kind, a, b)

    def test_identity(self):
        rel = self.pair("P2Abn", ent("P", 0, 2), ent("Abn", 4, 6))
        gold = {"s1": [rel]}
        assert relation_prf(gold, gold).overall.f1 == 100.0

    def test_wrong_kind_same_entities_is_incorrect(self):
        p, d, abn = ent("P", 0, 2), ent("D", 0, 2), ent("Abn", 4, 6)
        gold = {"s1": [Relation("P2Abn", p, abn)]}
        pred = {"s1": [Relation("D2Abn", d, abn)]}
        assert relation_prf(pred, gold).overall.correct == 0

    def test_three_predicted_two_correct_four_gold(self):
        abn1, abn2 = ent("Abn", 10, 12), ent("Abn", 20, 22)
        gold = {
            "s1": [
                Relation("P2Abn", ent("P", 0, 2), abn1),
                Relation("D2Abn", ent("D", 5, 6), abn1),
                Relation("P2Abn", ent("P", 14, 16), abn2),
                Relation("D2Abn", ent("D", 17, 18), abn2),
            ]
        }
        pred = {
            "s1": [
                Relation("P2Abn", ent("P", 0, 2), abn1),
                Relation("D2Abn", ent("D", 5, 6), abn1),
                Relation("P2Abn", ent("P", 13, 16), abn2),
            ]
        }
        result = relation_prf(pred, gold)
        assert round(result.overall.precision, 2) == 66.67
        assert round(result.overall.recall, 2) == 50.00
        assert round(result.overall.f1, 2) == 57.14


class TestAgreement:
    def test_identical_annotations(self):
        items = {"s1": [ent("P", 0, 2)]}
        assert agreement_f1(items, items).f1 == 100.0

    def test_four_vs_two_with_two_identical(self):
        annot_a = {
            "s1": [ent("P", 0, 2), ent("D", 3, 4), ent("Abn", 5, 7), ent("P", 8, 9)]
        }
        annot_b = {"s1": [ent("P", 0, 2), ent("D", 3, 4)]}
        scores = agreement_f1(annot_a, annot_b)
        assert round(scores.precision, 2) == 50.00
        assert round(scores.recall, 2) == 100.00
        assert round(scores.f1, 2) == 66.67

    def test_disjoint_annotations(self):
        annot_a = {"s1": [ent("P", 0, 2)]}
        annot_b = {"s1": [ent("P", 5, 7)]}
        assert agreement_f1(annot_a, annot_b).f1 == 0.0

    def test_works_for_relations(self):
        rel = Relation("P2Abn", ent("P", 0, 2), ent("Abn", 4, 6))
        other = Relation("D2Abn", ent("D", 1, 2), ent("Abn", 4, 6))
        a = {"s1": [rel, other]}
        b = {"s1": [rel]}
        scores = agreement_f1(a, b)
        assert scores.precision == pytest.approx(50.0)
        assert scores.recall == pytest.approx(100.0)


def span(text, kind, start, end):
    return Entity(kind, start, end, text[start:end])


class TestClassifyErrors:
    def test_type_error_same_span_wrong_kind(self):
        # the degree span is output with a body-part label
        s = "食管全程扩张，局部较前增著"
        gold = {"s1": [span(s, "D", 2, 4)]}
        pred = {"s1": [span(s, "P", 2, 4)]}
        records, confusion, summary = classify_errors(pred, gold)
        assert [r.category for r in records] == ["TYPE"]
        assert records[0].predicted.kind == "P"
        assert records[0].gold.kind == "D"
        assert confusion.cell("D", "P") == 1
        assert summary.category_counts["TYPE"] == 1

    def test_long_extent_error(self):
        # output span swallows the following punctuation character
        s = "肝、胆无异常"
        gold = {"s1": [span(s, "P", 0, 1)]}
        pred = {"s1": [span(s, "P", 0, 2)]}
        records, _, summary = classify_errors(pred, gold)
        assert [(r.category, r.extent_subtype) for r in records] == [("EXTENT", "LONG")]
        assert summary.extent_counts["LONG"]["P"] == 1
        assert summary.category_counts["MISSING"] == 0

    def test_short_extent_error(self):
        s = "食管下端区域"
        gold = {"s1": [span(s, "P", 0, 4)]}
        pred = {"s1": [span(s, "P", 0, 2)]}
        records, _, _ = classify_errors(pred, gold)
        assert [(r.category, r.extent_subtype) for r in records] == [("EXTENT", "SHORT")]

    def test_straddling_extent_error(self):
        s = "左肺下叶背段"
        gold = {"s1": [span(s, "P", 0, 4)]}
        pred = {"s1": [span(s, "P", 2, 6)]}
        records, _, _ = classify_errors(pred, gold)
        assert [(r.category, r.extent_subtype) for r in records] == [("EXTENT", "S&L")]

    def test_spurious_and_missing(self):
        s = "两肺膨胀良好食糜及液体潴留"
        gold = {"s1": [span(s, "Abn", 6, 13)]}
        pred = {"s1": [span(s, "P", 0, 2)]}
        records, confusion, summary = classify_errors(pred, gold)
        categories = sorted(r.category for r in records)
        assert categories == ["MISSING", "SPURIOUS"]
        assert confusion.cell("O", "P") == 1
        assert confusion.cell("Abn", "O") == 1
        assert summary.missing_by_kind["Abn"] == 1
        assert summary.spurious_by_kind["P"] == 1

    def test_one_prediction_covering_two_golds(self):
        # one output span covering two gold parts: extent error against the
        # larger-overlap gold, the other gold goes missing
        s = "食管下端贲门区未见异常"
        gold = {"s1": [span(s, "P", 0, 4), span(s, "P", 4, 7)]}
        pred = {"s1": [span(s, "P", 0, 7)]}
        records, confusion, _ = classify_errors(pred, gold)
        by_category = {r.category: r for r in records}
        assert set(by_category) == {"EXTENT", "MISSING"}
        assert by_category["EXTENT"].extent_subtype == "LONG"
        assert by_category["EXTENT"].gold.start == 0      # maximal overlap
        assert by_category["MISSING"].gold.start == 4
        assert confusion.cell("P", "O") == 2

    def test_tied_overlap_goes_to_the_earlier_gold(self):
        pred = {"s1": [ent("P", 1, 3)]}
        records, _, _ = classify_errors(pred, {"s1": [ent("D", 2, 4), ent("P", 0, 2)]})
        assert [(r.category, r.gold) for r in records] == [
            ("EXTENT", ent("P", 0, 2)), ("MISSING", ent("D", 2, 4))]
        records, _, _ = classify_errors(pred, {"s1": [ent("P", 2, 4), ent("D", 0, 2)]})
        assert [(r.category, r.gold) for r in records] == [
            ("SPURIOUS", None), ("MISSING", ent("D", 0, 2)), ("MISSING", ent("P", 2, 4))]

    def test_overlap_with_kind_and_span_mismatch_is_spurious_plus_missing(self):
        s = "左肺纹理增多"
        gold = {"s1": [span(s, "Abn", 2, 6)]}
        pred = {"s1": [span(s, "P", 0, 4)]}
        records, _, _ = classify_errors(pred, gold)
        assert sorted(r.category for r in records) == ["MISSING", "SPURIOUS"]

    def test_identity_yields_no_records_and_diagonal_matrix(self):
        s = "右上肺见多发斑片状密影。"
        gold = {
            "s1": [span(s, "P", 0, 3), span(s, "D", 4, 6), span(s, "Abn", 6, 11)]
        }
        records, confusion, summary = classify_errors(gold, gold)
        assert records == []
        assert summary.total_errors == 0
        counts = confusion.counts
        assert counts[0, 0] == 1 and counts[1, 1] == 1 and counts[2, 2] == 1
        off_diagonal = counts.sum() - np.trace(counts)
        assert off_diagonal == 0

    def test_row_sums_equal_gold_totals(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(4, 30))
            s = "字" * n
            gold = {"s1": [span(s, k, a, b) for k, a, b in random_entity_set(rng, n)]}
            pred = {"s1": [span(s, k, a, b) for k, a, b in random_entity_set(rng, n)]}
            _, confusion, _ = classify_errors(pred, gold)
            for kind in ("P", "D", "Abn"):
                total = sum(1 for e in gold["s1"] if e.kind == kind)
                assert confusion.row_total(kind) == total

    def test_partition_of_predictions_and_golds(self):
        rng = np.random.default_rng(78)
        for _ in range(200):
            n = int(rng.integers(4, 30))
            s = "字" * n
            gold_entities = [span(s, k, a, b) for k, a, b in random_entity_set(rng, n)]
            pred_entities = [span(s, k, a, b) for k, a, b in random_entity_set(rng, n)]
            records, _, _ = classify_errors({"s1": pred_entities}, {"s1": gold_entities})

            exact = sum(
                1
                for p in pred_entities
                if any(
                    (g.kind, g.start, g.end) == (p.kind, p.start, p.end)
                    for g in gold_entities
                )
            )
            predicted_records = sum(
                1 for r in records if r.category in ("TYPE", "EXTENT", "SPURIOUS")
            )
            assert exact + predicted_records == len(pred_entities)

            involved = {r.gold for r in records if r.gold is not None}
            for g in gold_entities:
                exact_hit = any(
                    (g.kind, g.start, g.end) == (p.kind, p.start, p.end)
                    for p in pred_entities
                )
                assert exact_hit or g in involved

    def test_missing_share_uses_gold_totals(self):
        s = "字" * 20
        gold = {"s1": [span(s, "Abn", 0, 2), span(s, "Abn", 5, 7), span(s, "Abn", 10, 12)]}
        pred = {"s1": [span(s, "Abn", 0, 2), span(s, "Abn", 5, 7)]}
        _, _, summary = classify_errors(pred, gold)
        assert summary.missing_by_kind["Abn"] == 1
        assert summary.missing_share("Abn") == pytest.approx(100 / 3)

    def test_category_shares_sum_to_hundred(self):
        s = "字" * 20
        gold = {"s1": [span(s, "P", 0, 2), span(s, "D", 4, 6)]}
        pred = {"s1": [span(s, "P", 0, 3), span(s, "Abn", 10, 12)]}
        _, _, summary = classify_errors(pred, gold)
        assert summary.total_errors > 0
        total = sum(summary.category_share(c) for c in ("TYPE", "EXTENT", "SPURIOUS", "MISSING"))
        assert total == pytest.approx(100.0)

    def test_summary_text_layout(self):
        s = "字" * 8
        gold = {"s1": [span(s, "P", 0, 2)]}
        pred = {"s1": [span(s, "P", 0, 3)]}
        _, confusion, summary = classify_errors(pred, gold)
        text = summary.format_text()
        assert "EXTENT" in text and "LONG" in text
        csv = confusion.to_csv()
        assert csv.splitlines()[0] == "gold\\pred," + ",".join(CONFUSION_AXES) + ",total"


@st.composite
def disjoint_corpus(draw):
    """Sentence id -> shuffled entities whose spans do not overlap."""
    corpus = {}
    for sid in draw(st.sets(st.sampled_from(["s1", "s2", "s3"]))):
        entities, at = [], 0
        for gap, length, kind in draw(st.lists(st.tuples(
                st.integers(0, 2), st.integers(1, 4), st.sampled_from(ENTITY_KINDS)), max_size=8)):
            entities.append(ent(kind, at + gap, at + gap + length))
            at += gap + length
        corpus[sid] = draw(st.permutations(entities))
    return corpus


class TestClassifyErrorsProperties:
    @settings(max_examples=300, deadline=None)
    @given(pred=disjoint_corpus(), gold=disjoint_corpus())
    def test_records_partition_both_sides_and_agree_with_prf(self, pred, gold):
        records, confusion, summary = classify_errors(pred, gold)
        exact = [(sid, p) for sid, ps in pred.items() for p in ps if p in gold.get(sid, ())]
        assert len(exact) == entity_prf(pred, gold).overall.correct
        assert np.trace(confusion.counts[:3, :3]) == len(exact)

        predicted = Counter((r.sentence_id, r.predicted) for r in records if r.predicted)
        assert all(n == 1 for n in predicted.values())
        assert set(predicted) | set(exact) == {(sid, p) for sid, ps in pred.items() for p in ps}
        assert not set(predicted) & set(exact)
        paired = {(r.sentence_id, r.gold) for r in records if r.category in ("TYPE", "EXTENT")}
        missing = Counter((r.sentence_id, r.gold) for r in records if r.category == "MISSING")
        assert all(n == 1 for n in missing.values())
        for sid, gs in gold.items():
            for g in gs:
                found = [g in pred.get(sid, ()), (sid, g) in paired, (sid, g) in missing]
                assert sum(found) == 1

        categories = Counter(r.category for r in records)
        assert summary.category_counts == {c: categories[c] for c in ERROR_CATEGORIES}
        by_kind = Counter((r.category, r.extent_subtype, (r.predicted or r.gold).kind)
                          for r in records)
        for kind in ENTITY_KINDS:
            gold_total = sum(g.kind == kind for gs in gold.values() for g in gs)
            assert confusion.row_total(kind) == summary.gold_totals[kind] == gold_total
            assert summary.predicted_totals[kind] == sum(
                p.kind == kind for ps in pred.values() for p in ps)
            assert summary.missing_by_kind[kind] == by_kind["MISSING", None, kind]
            assert summary.spurious_by_kind[kind] == by_kind["SPURIOUS", None, kind]
            for subtype in EXTENT_SUBTYPES:
                assert summary.extent_counts[subtype][kind] == by_kind["EXTENT", subtype, kind]

    @pytest.mark.parametrize("entities", [
        [ent("P", 0, 2), ent("P", 0, 2)],
        [ent("P", 0, 2), ent("D", 0, 2)],
        [ent("Abn", 3, 6), ent("P", 0, 4)],
        [ent("P", 0, 5), ent("D", 2, 3)],
    ])
    def test_overlapping_side_is_rejected(self, entities):
        other = {"s2": [ent("P", 0, 2)]}
        first, second = sorted(entities, key=lambda e: (e.start, e.end))
        message = re.escape(f"sentence 's2': entities {first} and {second} overlap")
        with pytest.raises(ValueError, match=message):
            classify_errors({"s2": entities}, other)
        with pytest.raises(ValueError, match=message):
            classify_errors(other, {"s2": entities})


def reference_errors(pred, gold):
    """The per-entity loop that classified errors before the array classifier,
    for entities that do not overlap on either side of a sentence."""
    def overlap(a, b):
        return max(0, min(a.end, b.end) - max(a.start, b.start))

    def subtype(p, g):
        if p.start >= g.start and p.end <= g.end:
            return "SHORT"
        return "LONG" if p.start <= g.start and p.end >= g.end else "S&L"

    records, counts = [], np.zeros((4, 4), dtype=np.int64)
    gold_totals, predicted_totals = Counter(), Counter()
    axis, other = CONFUSION_AXES.index, CONFUSION_AXES.index("O")
    for sid in sorted(set(pred) | set(gold)):
        preds, golds = (sorted(side.get(sid, ()), key=lambda e: (e.start, e.end)) for side in (pred, gold))
        gold_totals.update(g.kind for g in golds)
        predicted_totals.update(p.kind for p in preds)
        unshared, held = {(g.start, g.end): g for g in golds}, set()
        for p in preds:
            g = unshared.pop((p.start, p.end), None)
            if g is not None:
                counts[axis(g.kind), axis(p.kind)] += 1
                if g.kind != p.kind:
                    records.append(ErrorRecord(sid, "TYPE", None, p, g))
                continue
            g = max(golds, key=lambda g: overlap(p, g), default=None)
            if g is not None and g.kind == p.kind and overlap(p, g):
                records.append(ErrorRecord(sid, "EXTENT", subtype(p, g), p, g))
                held.add((g.start, g.end))
            else:
                records.append(ErrorRecord(sid, "SPURIOUS", None, p, None))
                counts[other, axis(p.kind)] += 1
        for span, g in unshared.items():
            counts[axis(g.kind), other] += 1
            if span not in held:
                records.append(ErrorRecord(sid, "MISSING", None, None, g))
    tally = Counter((r.category, r.extent_subtype, (r.predicted or r.gold).kind) for r in records)
    return records, counts, {
        "category_counts": {c: sum(r.category == c for r in records) for c in ERROR_CATEGORIES},
        "extent_counts": {s: {k: tally["EXTENT", s, k] for k in ENTITY_KINDS} for s in EXTENT_SUBTYPES},
        "missing_by_kind": {k: tally["MISSING", None, k] for k in ENTITY_KINDS},
        "spurious_by_kind": {k: tally["SPURIOUS", None, k] for k in ENTITY_KINDS},
        "gold_totals": gold_totals,
        "predicted_totals": predicted_totals,
    }


class TestClassifyErrorsMatchesTheReference:
    def test_random_corpora(self):
        """Several sentences, entities in shuffled order, ids on one side only
        and empty lists give the reference loop's records, matrix and tables."""
        rng = np.random.default_rng(31)
        for _ in range(3000):
            sides = []
            for _ in "pg":
                side = {}
                for sid in rng.choice(["s1", "s2", "s3", "s4"], int(rng.integers(0, 5)), replace=False):
                    entities = [ent(*e) for e in random_entity_set(rng, int(rng.integers(1, 13)))]
                    side[str(sid)] = [entities[i] for i in rng.permutation(len(entities))]
                sides.append(side)
            records, confusion, summary = classify_errors(*sides)
            want_records, want_counts, want = reference_errors(*sides)
            assert records == want_records
            assert np.array_equal(confusion.counts, want_counts)
            for name, table in want.items():
                if name.endswith("_totals"):
                    assert all(getattr(summary, name).get(k, 0) == table[k] for k in ENTITY_KINDS)
                else:
                    assert getattr(summary, name) == table
            reference = ErrorSummary(**want)
            assert summary.to_dict() == reference.to_dict()
            assert summary.format_text() == reference.format_text()


class TestErrorRecordInvariants:
    def test_slots_must_match_category(self):
        e = ent("P", 0, 2)
        with pytest.raises(ValueError):
            ErrorRecord("s1", "SPURIOUS", None, None, e)
        with pytest.raises(ValueError):
            ErrorRecord("s1", "MISSING", None, e, None)
        with pytest.raises(ValueError):
            ErrorRecord("s1", "TYPE", "LONG", e, e)
        with pytest.raises(ValueError):
            ErrorRecord("s1", "EXTENT", None, e, e)
