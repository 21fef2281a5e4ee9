import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from radsigns.corpus import Entity
from radsigns.evaluation import entity_keys
from radsigns.tagscheme import batch_entities, text_runs

from _synth import bio_violations, encode, entities_of, path_of, random_entity_set, tags_of
from conftest import FIG_LABELS, FIG_TEXT


KIND_OF_LABEL = {"B-P": "P", "I-P": "P", "B-D": "D", "I-D": "D", "B-Abn": "Abn", "I-Abn": "Abn"}


def reference_tags_to_entities(text, tags):
    """The label-string decoder the index-path one replaced: maximal
    B-X (I-X)* runs, with orphan-I and kind-switch repair."""
    if len(tags) != len(text):
        raise ValueError(f"{len(text)} chars but {len(tags)} tags")
    entities = []
    start = None
    kind = ""

    def close(end):
        if start is not None:
            entities.append(Entity(kind, start, end, text[start:end]))

    for i, label in enumerate(tags):
        if label == "O":
            close(i)
            start = None
        elif label.startswith("B-"):
            close(i)
            kind, start = KIND_OF_LABEL[label], i
        else:
            run_kind = KIND_OF_LABEL[label]
            if start is None or run_kind != kind:
                close(i)
                kind, start = run_kind, i
    close(len(text))
    return entities


class TestTagIndex:
    def test_o_has_index_zero_and_mapping_is_a_bijection(self):
        from radsigns.corpus import TAG_INDEX, TAG_LABELS

        assert TAG_INDEX["O"] == 0
        assert sorted(TAG_INDEX.values()) == list(range(7))
        assert [TAG_LABELS[i] for i in (TAG_INDEX[t] for t in TAG_LABELS)] == list(TAG_LABELS)

    def test_spellings_fixed_for_interchange(self):
        from radsigns.corpus import TAG_LABELS

        assert TAG_LABELS == ("O", "B-P", "I-P", "B-D", "I-D", "B-Abn", "I-Abn")


class TestEncode:
    """The test-side encoder of criterion 4 and the round trips below."""

    def test_example_sentence(self, shadow_entities):
        assert tags_of(encode(len(FIG_TEXT), shadow_entities)) == FIG_LABELS

    def test_no_entities_is_all_o(self):
        assert set(tags_of(encode(len(FIG_TEXT), []))) == {"O"}


class TestTagsToEntities:
    def test_example_sentence(self, shadow_entities):
        assert entities_of(FIG_TEXT, path_of(FIG_LABELS)) == shadow_entities

    def test_all_o_is_empty(self):
        assert entities_of("字" * 5, bytes(5)) == []

    def test_orphan_inside_opens_entity(self):
        path = path_of(("O", "I-P", "I-P"))
        assert entities_of("字" * 3, path) == [Entity("P", 1, 3, "字字")]

    def test_kind_switch_splits_runs(self):
        path = path_of(("B-Abn", "I-Abn", "I-P", "I-P"))
        assert entities_of("字" * 4, path) == [
            Entity("Abn", 0, 2, "字字"),
            Entity("P", 2, 4, "字字"),
        ]

    def test_new_begin_closes_run(self):
        path = path_of(("B-P", "B-P", "I-P"))
        assert entities_of("字" * 3, path) == [
            Entity("P", 0, 1, "字"),
            Entity("P", 1, 3, "字字"),
        ]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="3 chars"):
            entities_of("字" * 3, [0])


class TestEntitiesFromIndices:
    """``batch_entities`` of one sentence's tag index path."""
    # 0 O, 1 B-P, 2 I-P, 3 B-D, 4 I-D, 5 B-Abn, 6 I-Abn
    @given(
        path=st.lists(st.integers(0, 6), min_size=1, max_size=40),
        chars=st.text(alphabet="肺影a𠀀\"", min_size=40, max_size=40),
    )
    @example(path=[0] * 7, chars="字" * 40)                  # all O
    @example(path=[2, 2, 0, 6], chars="字" * 40)             # orphan I at the start and after O
    @example(path=[5, 6, 2, 2, 4, 3, 4], chars="字" * 40)    # kind switches inside runs
    @example(path=[1, 1, 2, 6, 6, 0, 0, 4], chars="字" * 40)
    def test_equals_label_reference(self, path, chars):
        text = chars[:len(path)]
        expected = reference_tags_to_entities(text, tags_of(path))
        assert batch_entities(["s1"], text, path, [len(path)])["s1"] == expected

    @given(
        path=st.lists(st.integers(0, 6), min_size=1, max_size=40),
        bad=st.sampled_from([-1, 7, 100, 2**70]),
        at=st.integers(0, 39),
    )
    def test_out_of_range_index_rejected(self, path, bad, at):
        path[at % len(path)] = bad
        with pytest.raises(ValueError, match=r"^path must be tag indices in \[0, 7\), got "):
            batch_entities(["s1"], "字" * len(path), path, [len(path)])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="3 chars"):
            batch_entities(["s1"], "字" * 3, [0, 1], [2])


# a batch of (tag index path, text) pairs of equal length, orphan I tags included
BATCHES = st.lists(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 6), min_size=n, max_size=n),
    st.text(alphabet="肺影a𠀀\"", min_size=n, max_size=n))), min_size=1, max_size=8)


class TestFindRuns:
    @given(batch=BATCHES)
    @example(batch=[([1, 2, 2], "字" * 3), ([2, 2], "字" * 2)])    # I-P runs on across a sentence start
    @example(batch=[([5], "a"), ([2], "b"), ([0], "c"), ([6], "d")])   # length-1 sentences
    @example(batch=[([0, 4], "字" * 2), ([4, 4, 0], "字" * 3)])    # orphan I-D at a sentence start
    def test_batch_equals_label_reference_per_sentence(self, batch):
        ids = [f"s{i}" for i in range(len(batch))]
        expected = {sid: reference_tags_to_entities(text, tags_of(path))
                    for sid, (path, text) in zip(ids, batch)}
        paths = [path for path, _ in batch]
        lengths = [len(path) for path in paths]
        text = "".join(text for _, text in batch)
        assert batch_entities(ids, text, sum(paths, []), lengths) == expected
        assert batch_entities(ids, text, b"".join(map(bytes, paths)), lengths) == expected
        assert batch_entities(ids, text, np.array(sum(paths, []), np.uint8), lengths) == expected

    def runs(self, paths):
        rows, starts, ends, kinds, texts = text_runs(
            "字" * sum(len(path) for path in paths),
            sum(paths, []), [len(path) for path in paths])
        return rows.tolist(), starts.tolist(), ends.tolist(), kinds.tolist(), texts

    def test_run_ends_at_a_sentence_start(self):
        # sentence 1 ends in I-P and sentence 2 starts with I-P: two entities, not one
        assert self.runs([[1, 2, 2], [2, 2]]) == ([0, 1], [0, 0], [3, 2], [0, 0], ["字" * 3, "字" * 2])

    def test_length_one_sentences(self):
        # B-Abn | I-P | O | I-Abn: each tag its own sentence, each I an orphan
        assert self.runs([[5], [2], [0], [6]]) == ([0, 1, 3], [0, 0, 0], [1, 1, 1], [2, 0, 2], ["字"] * 3)

    def test_orphan_inside_at_a_sentence_start(self):
        assert self.runs([[0, 4], [4, 4, 0]]) == ([0, 1], [1, 0], [2, 2], [1, 1], ["字", "字字"])

    def test_empty_batch(self):
        assert self.runs([]) == ([], [], [], [], [])
        assert batch_entities([], "", [], []) == {}

    def test_path_count_must_match(self):
        with pytest.raises(ValueError):
            batch_entities(["s1"], "字" * 2, [0, 0, 0], [2, 1])
        with pytest.raises(ValueError, match="3 indices for 2 chars"):
            batch_entities(["s1"], "字" * 2, [0, 0, 0], [2])

    def test_paths_of_non_integers_are_rejected(self):
        # an index conversion would truncate 1.7 to B-P and True to B-P
        for path in ([1.7, 2.2], [True, False], [1.5, 2.5], np.array([1, 2], np.float32),
                     [None, 1], ["1", "2"]):
            with pytest.raises(ValueError, match=r"^path must be tag indices in \[0, 7\), got "):
                text_runs("ab", path, [2])
            with pytest.raises(ValueError, match=r"^path must be tag indices in \[0, 7\), got "):
                entity_keys(path, [2])
        for path in (b"\x01\x02", np.array([1, 2], np.uint8), np.array([1, 2], np.int16), [1, 2]):
            *spans, texts = text_runs("ab", path, [2])
            assert [a.tolist() for a in spans] == [[0], [0], [2], [0]] and texts == ["ab"]

    def test_text_must_be_a_str_and_ids_not_one(self):
        # a list or bytes text was once returned as an entity text, and one str read as the ids
        for text in (["a", "b"], b"ab"):
            with pytest.raises(ValueError, match=f"^text must be a str, got {type(text).__name__}$"):
                text_runs(text, [1, 2], [2])
        with pytest.raises(ValueError, match="^ids must be one id per sentence, not the str 'x'$"):
            batch_entities("x", "ab", [1, 2], [2])
        assert batch_entities(["x"], "ab", [1, 2], [2]) == {"x": [Entity("P", 0, 2, "ab")]}

    def test_lengths_are_checked_as_the_flat_corpus_checks_them(self):
        # lengths that sum to the path's length but are not all positive integers
        for lengths in ([-1, 4], [3, 0], [0, 3]):
            with pytest.raises(ValueError, match=r"^sentence lengths \[.*\] must be positive"):
                batch_entities(["s1", "s2"], "abc", b"\x01\x02\x00", lengths)
        for lengths in ([1.5, 1.5], [True, True, True], [[3]], None):
            with pytest.raises(ValueError, match="^sentence lengths must be a 1-D array of integers"):
                text_runs("abc", [1, 2, 0], lengths)
            with pytest.raises(ValueError, match="^sentence lengths must be a 1-D array of integers"):
                batch_entities(["s1"], "abc", [1, 2, 0], lengths)

    def test_text_must_match_the_path(self):
        for text, path in (("字" * 2, [0]), ("字", [0, 0])):
            with pytest.raises(ValueError, match=f"^a text of {len(text)} chars for {len(path)} tags$"):
                text_runs(text, path, [len(path)])

    def test_one_id_per_sentence(self):
        for ids in (["s1"], ["s1", "s2", "s3"]):
            with pytest.raises(ValueError):
                batch_entities(ids, "字" * 2, [0, 1], [1, 1])


class TestBioViolations:
    """The test-side BIO check of criterion 4 and the Viterbi tests."""

    def test_example_sequence_is_valid(self):
        assert bio_violations(path_of(FIG_LABELS)) == []

    def test_inside_after_o(self):
        assert bio_violations(path_of(("O", "I-D"))) == [1]

    def test_inside_after_other_kind(self):
        assert bio_violations(path_of(("B-P", "I-Abn"))) == [1]

    def test_inside_at_start(self):
        assert bio_violations(path_of(("I-P", "I-P"))) == [0]

    def test_inside_after_same_kind_ok(self):
        assert bio_violations(path_of(("B-P", "I-P", "I-P"))) == []


class TestRoundTripProperties:
    def test_entities_survive_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            text = "字" * n
            entities = [
                Entity(kind, a, b, text[a:b])
                for kind, a, b in random_entity_set(rng, n)
            ]
            assert entities_of(text, encode(n, entities)) == entities

    def test_repair_yields_valid_paths(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            n = int(rng.integers(1, 25))
            entities = entities_of("字" * n, rng.integers(0, 7, size=n))
            assert bio_violations(encode(n, entities)) == []

    def test_decoded_entities_sorted_and_disjoint(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(1, 25))
            entities = entities_of("字" * n, rng.integers(0, 7, size=n))
            for left, right in zip(entities, entities[1:]):
                assert left.end <= right.start
