from bisect import bisect_right

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radsigns.corpus import ENTITY_KINDS, Entity, Relation, SecondaryPartDictionary
from radsigns.tag2relation import match_arrays

from _synth import (Quadruple, brute_force_match, entities_of, match_entities, path_of,
                    random_match_instance)
from conftest import OCCLUSION_LABELS, OCCLUSION_TEXT

EMPTY_DICT_FALLBACK = SecondaryPartDictionary(frozenset({"<none>"}))


def entity(text, kind, start, end):
    return Entity(kind, start, end, text[start:end])


class TestPrimaryParts:
    def test_dictionary_term_is_secondary(self, occlusion_entities, bronchus_dictionary):
        pp, sp, d, abn = occlusion_entities
        relations, quadruples = match_entities(occlusion_entities, bronchus_dictionary)
        assert [q.pp for q in quadruples] == [pp]
        assert [r for r in relations if r.kind == "P2P"] == [Relation("P2P", sp, pp)]

    def test_vacuous_dictionary_makes_all_parts_primary(self):
        s = "右肺见影左肺见影"
        right, first, left, second = (entity(s, "P", 0, 2), entity(s, "Abn", 3, 4),
                                      entity(s, "P", 4, 6), entity(s, "Abn", 7, 8))
        entities = [right, first, left, second]
        assert match_entities(entities, EMPTY_DICT_FALLBACK)[1] == [
            Quadruple(right, None, None, first), Quadruple(left, None, None, second)]
        relations, quadruples = match_entities(entities, SecondaryPartDictionary(frozenset({"左肺"})))
        assert Relation("P2P", left, right) in relations
        assert quadruples == [Quadruple(right, left, None, first), Quadruple(right, None, None, second)]

    def test_no_parts(self):
        s = "字" * 6
        d, abn = entity(s, "D", 0, 2), entity(s, "Abn", 3, 5)
        assert match_entities([d, abn], EMPTY_DICT_FALLBACK) == (
            [Relation("D2Abn", d, abn)], [Quadruple(None, None, d, abn)])

    def test_an_entity_before_every_primary_part_is_unheaded(self):
        s = "字" * 10
        early, pp, late = entity(s, "Abn", 0, 2), entity(s, "P", 4, 6), entity(s, "Abn", 7, 9)
        assert match_entities([late, pp, early], EMPTY_DICT_FALLBACK) == (
            [Relation("P2Abn", pp, late)],
            [Quadruple(None, None, None, early), Quadruple(pp, None, None, late)])

    def test_a_primary_part_heads_only_its_own_sentence(self):
        # sentence 0 holds only a part and sentence 1 only a sign, both at 0..2
        rows, starts, ends, kinds = (np.array(a, np.intp) for a in ([0, 1], [0, 0], [2, 2], [0, 2]))
        (kind, head, tail), quads = match_arrays(rows, starts, ends, kinds, ["右肺", "闭塞"],
                                                 EMPTY_DICT_FALLBACK)
        assert (kind.tolist(), head.tolist(), tail.tolist()) == ([], [], [])
        assert [a.tolist() for a in quads] == [[-1], [-1], [-1], [1]]


class TestMatch:
    def test_occlusion_example(self, occlusion_entities, bronchus_dictionary):
        pp, sp, d, abn = occlusion_entities
        relations, quadruples = match_entities(occlusion_entities, bronchus_dictionary)
        assert set(relations) == {
            Relation("P2Abn", pp, abn),
            Relation("P2Abn", sp, abn),
            Relation("D2Abn", d, abn),
            Relation("P2P", sp, pp),
        }
        assert quadruples == [Quadruple(pp, sp, d, abn)]

    def test_a_part_outside_the_dictionary_heads_a_chunk(self, occlusion_entities):
        # with no dictionary term, 支气管 is a primary part and heads the sign's chunk
        pp, sp, d, abn = occlusion_entities
        relations, quadruples = match_entities(occlusion_entities, EMPTY_DICT_FALLBACK)
        assert relations == [Relation("P2Abn", sp, abn), Relation("D2Abn", d, abn)]
        assert quadruples == [Quadruple(sp, None, d, abn)]

    def test_shadow_example(self, shadow_entities, bronchus_dictionary):
        pp, d, abn = shadow_entities
        relations, quadruples = match_entities(shadow_entities, bronchus_dictionary)
        assert set(relations) == {
            Relation("P2Abn", pp, abn),
            Relation("D2Abn", d, abn),
        }
        assert quadruples == [Quadruple(pp, None, d, abn)]

    def test_degree_attaches_to_closest_sign(self):
        s = "字" * 20
        pp = entity(s, "P", 0, 2)
        d = entity(s, "D", 5, 7)
        near = entity(s, "Abn", 9, 11)    # gap 2
        far = entity(s, "Abn", 16, 18)    # gap 9
        relations, _ = match_entities([pp, d, near, far], EMPTY_DICT_FALLBACK)
        attached = [r for r in relations if r.kind == "D2Abn"]
        assert attached == [Relation("D2Abn", d, near)]

    def test_equidistant_tie_goes_to_later_sign(self):
        s = "字" * 12
        pp = entity(s, "P", 0, 1)
        earlier = entity(s, "Abn", 2, 3)   # gap to d: 5 - 3 = 2
        d = entity(s, "D", 5, 7)
        later = entity(s, "Abn", 9, 11)    # gap to d: 9 - 7 = 2
        relations, _ = match_entities([pp, earlier, d, later], EMPTY_DICT_FALLBACK)
        attached = [r for r in relations if r.kind == "D2Abn"]
        assert attached == [Relation("D2Abn", d, later)]

    def test_touching_sign_is_at_gap_zero(self):
        # the gap runs between the closest span ends, in either order, and is 0 when they touch
        s = "字" * 12
        pp = entity(s, "P", 0, 1)
        touching = entity(s, "Abn", 1, 3)   # ends where d starts: gap 0
        d = entity(s, "D", 3, 5)
        later = entity(s, "Abn", 6, 8)      # gap 1
        relations, _ = match_entities([pp, touching, d, later], EMPTY_DICT_FALLBACK)
        assert [r for r in relations if r.kind == "D2Abn"] == [Relation("D2Abn", d, touching)]

    def test_primary_attaches_to_every_sign_in_chunk(self):
        s = "字" * 14
        pp = entity(s, "P", 0, 2)
        first = entity(s, "Abn", 4, 6)
        second = entity(s, "Abn", 9, 11)
        relations, quadruples = match_entities([pp, first, second], EMPTY_DICT_FALLBACK)
        p2abn = {(r.head, r.tail) for r in relations if r.kind == "P2Abn"}
        assert p2abn == {(pp, first), (pp, second)}
        assert [q.abn for q in quadruples] == [first, second]
        assert all(q.pp == pp for q in quadruples)

    def test_attribute_without_sign_in_chunk_attaches_nothing(self):
        s = "字" * 16
        pp1 = entity(s, "P", 0, 2)
        d = entity(s, "D", 3, 5)          # chunk 1 has no sign
        pp2 = entity(s, "P", 8, 10)
        abn = entity(s, "Abn", 11, 13)    # chunk 2's sign
        relations, quadruples = match_entities([pp1, d, pp2, abn], EMPTY_DICT_FALLBACK)
        assert [r for r in relations if r.kind == "D2Abn"] == []
        assert relations == [Relation("P2Abn", pp2, abn)]
        assert quadruples == [Quadruple(pp2, None, None, abn)]

    def test_secondary_in_signless_chunk_still_links_to_primary(self, bronchus_dictionary):
        s = "右肺支气管见好。"
        pp = entity(s, "P", 0, 2)
        sp = entity(s, "P", 2, 5)
        relations, quadruples = match_entities([pp, sp], bronchus_dictionary)
        assert relations == [Relation("P2P", sp, pp)]
        assert quadruples == []

    def test_no_relation_crosses_chunk_boundaries(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            _, entities, dictionary = random_match_instance(rng)
            starts = sorted(e.start for e in entities if e.kind == "P" and e.text not in dictionary)

            def chunk_of(e):
                return bisect_right(starts, e.start)

            relations, _ = match_entities(entities, dictionary)
            for r in relations:
                assert chunk_of(r.head) == chunk_of(r.tail)

    def test_each_attribute_attaches_at_most_once(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            _, entities, dictionary = random_match_instance(rng)
            relations, _ = match_entities(entities, dictionary)
            primaries = {e for e in entities if e.kind == "P" and e.text not in dictionary}
            heads = [
                r.head
                for r in relations
                if r.kind == "D2Abn" or (r.kind == "P2Abn" and r.head not in primaries)
            ]
            assert len(heads) == len(set(heads))

    def test_matches_brute_force_reference(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            sentence, entities, dictionary = random_match_instance(rng)
            assert match_entities(entities, dictionary) == brute_force_match(
                sentence, entities, dictionary
            )

    def test_matches_brute_force_reference_at_report_length(self):
        # many chunks, chunks without signs, equal gaps, several secondaries per sign
        rng = np.random.default_rng(11)
        for _ in range(300):
            sentence, entities, dictionary = random_match_instance(rng, 80, 20)
            assert match_entities(entities, dictionary) == brute_force_match(
                sentence, entities, dictionary
            )

    def test_matches_brute_force_reference_with_equal_copies(self):
        # equal copies of 1 to 3 drawn entities, appended to the same draws
        rng = np.random.default_rng(12)
        copies = np.random.default_rng(13)
        for report_length in (False, True):
            for _ in range(150):
                sentence, entities, dictionary = random_match_instance(
                    rng, *((80, 20) if report_length else (31, 6)))
                if not entities:
                    continue
                picks = copies.choice(len(entities), size=int(copies.integers(1, 4)))
                entities += [Entity(e.kind, e.start, e.end, e.text)
                             for e in (entities[i] for i in picks)]
                assert match_entities(entities, dictionary) == brute_force_match(
                    sentence, entities, dictionary
                )

    def test_equal_copy_of_the_primary_is_not_a_secondary_part(self):
        s = "字" * 12
        pp, copy = entity(s, "P", 0, 2), entity(s, "P", 0, 2)
        abn = entity(s, "Abn", 6, 8)
        relations, quadruples = match_entities([pp, copy, abn], EMPTY_DICT_FALLBACK)
        assert relations == [Relation("P2Abn", pp, abn)]
        assert quadruples == [Quadruple(pp, None, None, abn)]

    def test_equal_copies_of_a_sign_share_its_attributes(self):
        s = "字" * 12
        pp = entity(s, "P", 0, 2)
        d = entity(s, "D", 3, 5)
        abn, copy = entity(s, "Abn", 6, 8), entity(s, "Abn", 6, 8)
        entities = [pp, d, abn, copy]
        relations, quadruples = match_entities(entities, EMPTY_DICT_FALLBACK)
        assert (relations, quadruples) == brute_force_match(s, entities, EMPTY_DICT_FALLBACK)
        assert [r for r in relations if r.kind == "D2Abn"] == [Relation("D2Abn", d, abn)]
        assert quadruples == [Quadruple(pp, None, d, abn)] * 2

    def test_multiple_attributes_cross_product_in_quadruples(self):
        s = "字" * 20
        pp = entity(s, "P", 0, 2)
        d1 = entity(s, "D", 3, 4)
        d2 = entity(s, "D", 5, 6)
        abn = entity(s, "Abn", 7, 9)
        relations, quadruples = match_entities([pp, d1, d2, abn], EMPTY_DICT_FALLBACK)
        assert len(quadruples) == 2
        assert {(q.d, q.abn) for q in quadruples} == {(d1, abn), (d2, abn)}

    def test_from_gold_tags(self, bronchus_dictionary):
        entities = entities_of(OCCLUSION_TEXT, path_of(OCCLUSION_LABELS))
        relations, quadruples = match_entities(entities, bronchus_dictionary)
        assert len(relations) == 4
        assert len(quadruples) == 1
        quad = quadruples[0]
        assert (quad.pp.text, quad.sp.text, quad.d.text, quad.abn.text) == (
            "右上肺", "支气管", "部分", "闭塞",
        )


def random_batch(seed, size, report_length):
    rng = np.random.default_rng(seed)
    return [random_match_instance(rng, *((80, 20) if report_length else (31, 6)))
            for _ in range(size)]


class TestMatchArrays:
    def test_empty_batch(self):
        none = np.zeros(0, np.intp)
        relations, quadruples = match_arrays(none, none, none, none, [], EMPTY_DICT_FALLBACK)
        assert [len(a) for a in (*relations, *quadruples)] == [0] * 7

    def test_pinned_batches_hold_overlapping_entities(self):
        for seed, report_length in ((36, False), (0, True)):
            batch = random_batch(seed, 4, report_length)
            assert any(a.start < b.end and b.start < a.end
                       for _, entities, _ in batch
                       for i, a in enumerate(entities) for b in entities[i + 1:])

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 8), report_length=st.booleans())
    @example(seed=36, size=4, report_length=False)
    @example(seed=0, size=4, report_length=True)
    def test_batch_equals_brute_force_per_sentence(self, seed, size, report_length):
        batch = random_batch(seed, size, report_length)
        # every sentence's entities in one table, sorted as the batched matcher takes them
        table = sorted(((row, e) for row, (_, entities, _) in enumerate(batch) for e in entities),
                       key=lambda item: (item[0], item[1].start, item[1].end, item[1].kind))
        rows = np.array([row for row, _ in table], np.intp)
        spans = np.array([(e.start, e.end, ENTITY_KINDS.index(e.kind)) for _, e in table], np.intp)
        (kinds, heads, tails), quads = match_arrays(
            rows, *spans.reshape(-1, 3).T, [e.text for _, e in table], batch[0][2])
        at = [*(e for _, e in table), None]
        relations = [(rows[h], Relation(k, at[h], at[t]))
                     for k, h, t in zip(kinds, heads, tails)]
        quadruples = [(rows[abn], Quadruple(at[pp], at[sp], at[d], at[abn]))
                      for pp, sp, d, abn in zip(*quads)]
        assert [row for row, _ in relations] == sorted(row for row, _ in relations)
        assert [row for row, _ in quadruples] == sorted(row for row, _ in quadruples)
        for row, (sentence, entities, dictionary) in enumerate(batch):
            assert ([r for i, r in relations if i == row], [q for i, q in quadruples if i == row]) \
                == brute_force_match(sentence, entities, dictionary)
