"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np

from radsigns import crf
from radsigns.corpus import (
    Entity,
    Relation,
    SecondaryPartDictionary,
)
from radsigns.crf import batch_log_partition, batch_nll_and_gradient, viterbi
from radsigns.evaluation import (
    PrfScores,
    agreement_f1,
    classify_errors,
    entity_prf,
    relation_prf,
)
from radsigns.trainer import TrainConfig, train

from _synth import (
    RULE_DICTIONARY,
    Quadruple,
    bio_violations,
    brute_force_argmax,
    brute_force_log_partition,
    brute_force_match,
    build_rule_corpus,
    encode,
    entities_of,
    enumerate_paths,
    flat_corpus,
    match_entities,
    path_of,
    random_entity_set,
    random_match_instance,
    tags_of,
)
from conftest import FIG_LABELS, FIG_TEXT, OCCLUSION_LABELS, OCCLUSION_TEXT, decode_sentence


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} {name}: {status}{suffix}")
    assert passed, f"criterion {number} {name} failed{suffix}"


def random_crf_instance(rng, n):
    """One sentence's emissions P and a transition matrix A: a batch of one
    row of length n."""
    return rng.standard_normal((n, 7)), rng.standard_normal((9, 9))


def test_criterion_1_crf_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 6))
        P, A = random_crf_instance(rng, n)
        decoded = viterbi(P, A, [n]).tolist()
        if decoded != brute_force_argmax(P, A):
            ok = False
            break
        expected = brute_force_log_partition(P, A)
        got = batch_log_partition(P, A, [n])[0]
        if not math.isclose(got, expected, rel_tol=1e-10):
            ok = False
            break
    elapsed = time.perf_counter() - started
    report(1, "crf oracle equivalence", ok and elapsed < 30,
           f"200 instances, {elapsed:.1f}s")


def test_criterion_2_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(2025)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        P, A = random_crf_instance(rng, n)
        gold = rng.integers(0, 7, size=n)
        _, grad_p, grad_a = batch_nll_and_gradient(P, A, [n], gold)

        def forward_nll(P, A):   # the forward pass's log Z minus the gold path's score
            return batch_log_partition(P, A, [n])[0] - crf._path_scores(P, A, [n], gold)[0]

        for i in range(n):
            for t in range(7):
                plus, minus = P.copy(), P.copy()
                plus[i, t] += h
                minus[i, t] -= h
                fd = (forward_nll(plus, A) - forward_nll(minus, A)) / (2 * h)
                worst = max(worst, abs(fd - grad_p[i, t]))
        for s in range(9):
            for t in range(9):
                plus, minus = A.copy(), A.copy()
                plus[s, t] += h
                minus[s, t] -= h
                fd = (forward_nll(P, plus) - forward_nll(P, minus)) / (2 * h)
                worst = max(worst, abs(fd - grad_a[0, s, t]))
    elapsed = time.perf_counter() - started
    report(2, "gradient matches finite differences", worst < 1e-4 and elapsed < 60,
           f"max abs deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_probability_normalization():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        P, A = random_crf_instance(rng, n)
        _, scores = enumerate_paths(P, A)
        total = np.exp(scores - batch_log_partition(P, A, [n])[0]).sum()
        worst = max(worst, abs(total - 1.0))
    report(3, "path probabilities sum to one", worst < 1e-9,
           f"max |sum - 1| = {worst:.2e}")


def test_criterion_4_tagging_round_trip():
    rng = np.random.default_rng(2027)
    ok = True
    for _ in range(10_000):
        n = int(rng.integers(1, 41))
        text = "字" * n
        entities = [
            Entity(kind, a, b, text[a:b])
            for kind, a, b in random_entity_set(rng, n)
        ]
        if entities_of(text, encode(n, entities)) != entities:
            ok = False
            break
    repaired_ok = True
    for _ in range(10_000):
        n = int(rng.integers(1, 31))
        arbitrary = rng.integers(0, 7, size=n)
        reencoded = encode(n, entities_of("字" * n, arbitrary))
        if bio_violations(reencoded) != []:
            repaired_ok = False
            break
    report(4, "tagging round-trip and repair", ok and repaired_ok,
           "10000 entity sets + 10000 arbitrary sequences")


def test_criterion_5_golden_examples():
    entities = [
        Entity("P", 0, 3, "右上肺"),
        Entity("D", 4, 6, "多发"),
        Entity("Abn", 6, 11, "斑片状密影"),
    ]
    path = encode(len(FIG_TEXT), entities)
    forward_ok = tags_of(path) == FIG_LABELS
    backward_ok = entities_of(FIG_TEXT, path) == entities

    occ_entities = entities_of(OCCLUSION_TEXT, path_of(OCCLUSION_LABELS))
    dictionary = SecondaryPartDictionary(frozenset({"支气管"}))
    relations, quadruples = match_entities(occ_entities, dictionary)
    pp = Entity("P", 0, 3, "右上肺")
    sp = Entity("P", 3, 6, "支气管")
    d = Entity("D", 6, 8, "部分")
    abn = Entity("Abn", 8, 10, "闭塞")
    relations_ok = set(relations) == {
        Relation("P2Abn", pp, abn),
        Relation("P2Abn", sp, abn),
        Relation("D2Abn", d, abn),
        Relation("P2P", sp, pp),
    }
    quadruple_ok = quadruples == [Quadruple(pp, sp, d, abn)]
    report(5, "golden tagging and matching examples",
           forward_ok and backward_ok and relations_ok and quadruple_ok)


def test_criterion_6_matcher_oracle_equivalence():
    rng = np.random.default_rng(2028)
    ok = True
    for _ in range(1000):
        sentence, entities, dictionary = random_match_instance(rng)
        if match_entities(entities, dictionary) != brute_force_match(
            sentence, entities, dictionary
        ):
            ok = False
            break
    report(6, "matcher equals brute-force reference", ok, "1000 instances")


def test_criterion_7_end_to_end_learnability():
    started = time.perf_counter()
    rng = np.random.default_rng(2029)
    corpus = build_rule_corpus(rng, 500, prefix="t")
    dev = build_rule_corpus(rng, 120, prefix="d")
    config = TrainConfig(epochs=50, batch_size=16, seed=11)
    model, train_report = train(flat_corpus(corpus), flat_corpus(dev), config)
    entity_f1 = train_report.dev_f1[train_report.selected_epoch]

    pred_relations = {}
    gold_relations = {}
    for sentence, gold_tags in dev:
        decoded = decode_sentence(model, sentence.text, constrain_bio=True)
        pred_relations[sentence.id] = match_entities(
            entities_of(sentence.text, decoded), RULE_DICTIONARY
        )[0]
        gold_relations[sentence.id] = match_entities(
            entities_of(sentence.text, gold_tags.indices), RULE_DICTIONARY
        )[0]
    relation_f1 = relation_prf(pred_relations, gold_relations).overall.f1

    _, second_report = train(flat_corpus(corpus), flat_corpus(dev), config)
    deterministic = second_report == train_report
    elapsed = time.perf_counter() - started
    report(7, "end-to-end learnability",
           entity_f1 >= 99.0 and relation_f1 >= 95.0 and deterministic and elapsed < 300,
           f"entity F1 {entity_f1:.2f}, relation F1 {relation_f1:.2f}, {elapsed:.0f}s")


def test_criterion_8_metrics_fidelity():
    def e(kind, start, end):
        return Entity(kind, start, end, "字" * (end - start))

    gold = {"s1": [e("P", 0, 2), e("P", 3, 5), e("Abn", 6, 8), e("D", 9, 10)]}
    pred = {"s1": [e("P", 0, 2), e("Abn", 11, 13)]}
    entity_scores = entity_prf(pred, gold).overall
    case_a = (
        round(entity_scores.precision, 2) == 50.00
        and round(entity_scores.recall, 2) == 25.00
        and round(entity_scores.f1, 2) == 33.33
    )

    abn1, abn2 = e("Abn", 10, 12), e("Abn", 20, 22)
    gold_rel = {
        "s1": [
            Relation("P2Abn", e("P", 0, 2), abn1),
            Relation("D2Abn", e("D", 5, 6), abn1),
            Relation("P2Abn", e("P", 14, 16), abn2),
            Relation("D2Abn", e("D", 17, 18), abn2),
        ]
    }
    pred_rel = {
        "s1": [
            Relation("P2Abn", e("P", 0, 2), abn1),
            Relation("D2Abn", e("D", 5, 6), abn1),
            Relation("P2Abn", e("P", 13, 16), abn2),
        ]
    }
    relation_scores = relation_prf(pred_rel, gold_rel).overall
    case_b = (
        round(relation_scores.precision, 2) == 66.67
        and round(relation_scores.recall, 2) == 50.00
        and round(relation_scores.f1, 2) == 57.14
    )

    annot_a = {"s1": [e("P", 0, 2), e("D", 3, 4), e("Abn", 5, 7), e("P", 8, 9)]}
    annot_b = {"s1": [e("P", 0, 2), e("D", 3, 4)]}
    agreement = agreement_f1(annot_a, annot_b)
    case_c = (
        round(agreement.precision, 2) == 50.00
        and round(agreement.recall, 2) == 100.00
        and round(agreement.f1, 2) == 66.67
    )

    # harmonic-mean identity on randomized counts
    rng = np.random.default_rng(2030)
    formula_ok = True
    for _ in range(500):
        correct = int(rng.integers(0, 50))
        predicted = correct + int(rng.integers(0, 50))
        gold_total = correct + int(rng.integers(0, 50))
        scores = PrfScores(correct, predicted, gold_total)
        p, r = scores.precision, scores.recall
        expected = 2 * p * r / (p + r) if p + r else 0.0
        if not math.isclose(scores.f1, expected, rel_tol=1e-12, abs_tol=1e-12):
            formula_ok = False
            break
    report(8, "metrics reproduce hand-computed fixtures",
           case_a and case_b and case_c and formula_ok)


def test_criterion_9_error_taxonomy_fidelity():
    def spans(text, *specs):
        return [
            Entity(kind, start, end, text[start:end])
            for kind, start, end in specs
        ]

    s1 = "食管全程扩张，局部较前增著"
    s2 = "肝、胆无异常"
    s3 = "两肺膨胀良好"
    s4 = "可见食糜及液体潴留影像"
    s5 = "食管下端贲门区未见异常"
    gold = {
        "s1": spans(s1, ("D", 2, 4)),
        "s2": spans(s2, ("P", 0, 1)),
        "s3": [],
        "s4": spans(s4, ("Abn", 2, 9)),
        "s5": spans(s5, ("P", 0, 4), ("P", 4, 7)),
    }
    pred = {
        "s1": spans(s1, ("P", 2, 4)),
        "s2": spans(s2, ("P", 0, 2)),
        "s3": spans(s3, ("P", 0, 2)),
        "s4": [],
        "s5": spans(s5, ("P", 0, 7)),
    }
    records, confusion, summary = classify_errors(pred, gold)
    by_sentence = {}
    for record in records:
        by_sentence.setdefault(record.sentence_id, []).append(record)

    fixture_ok = (
        [r.category for r in by_sentence["s1"]] == ["TYPE"]
        and [(r.category, r.extent_subtype) for r in by_sentence["s2"]]
        == [("EXTENT", "LONG")]
        and [r.category for r in by_sentence["s3"]] == ["SPURIOUS"]
        and [r.category for r in by_sentence["s4"]] == ["MISSING"]
        and sorted((r.category, r.extent_subtype or "") for r in by_sentence["s5"])
        == [("EXTENT", "LONG"), ("MISSING", "")]
        and summary.category_counts
        == {"TYPE": 1, "EXTENT": 2, "SPURIOUS": 1, "MISSING": 2}
    )

    rng = np.random.default_rng(2031)
    partition_ok = True
    for _ in range(1000):
        n = int(rng.integers(4, 30))
        gold_entities = [
            Entity(k, a, b, "字" * (b - a)) for k, a, b in random_entity_set(rng, n)
        ]
        pred_entities = [
            Entity(k, a, b, "字" * (b - a)) for k, a, b in random_entity_set(rng, n)
        ]
        recs, matrix, _ = classify_errors(
            {"s1": pred_entities}, {"s1": gold_entities}
        )
        exact = sum(
            1
            for p in pred_entities
            if any((g.kind, g.start, g.end) == (p.kind, p.start, p.end) for g in gold_entities)
        )
        pred_records = sum(
            1 for r in recs if r.category in ("TYPE", "EXTENT", "SPURIOUS")
        )
        if exact + pred_records != len(pred_entities):
            partition_ok = False
            break
        involved = {r.gold for r in recs if r.gold is not None}
        for g in gold_entities:
            exact_hit = any(
                (g.kind, g.start, g.end) == (p.kind, p.start, p.end)
                for p in pred_entities
            )
            if not (exact_hit or g in involved):
                partition_ok = False
                break
        for kind in ("P", "D", "Abn"):
            expected_total = sum(1 for g in gold_entities if g.kind == kind)
            if matrix.row_total(kind) != expected_total:
                partition_ok = False
                break
        if not partition_ok:
            break
    report(9, "error taxonomy fidelity", fixture_ok and partition_ok,
           "pattern fixtures + 1000 random pairs")
