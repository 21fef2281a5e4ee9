import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radsigns.corpus import TAG_INDEX
from radsigns.encoder import (
    FEATURES_PER_POSITION,
    PAD,
    UNK,
    FeatureVocabulary,
    char_class,
    extract_features,
    score_ids,
    text_feature_ids,
)

from conftest import FIG_TEXT, OCCLUSION_TEXT


def reference_feature_ids(vocab, text):
    """The string path: every position's feature strings looked up one by one."""
    ids = np.empty((len(text), FEATURES_PER_POSITION), dtype=np.intp)
    for i in range(len(text)):
        for j, feature in enumerate(extract_features(text, i)):
            ids[i, j] = vocab.index.get(feature, vocab.unk_index)
    return ids


def reference_build(texts):
    """The string loop: every position's feature strings numbered in order
    of first appearance, after ``<unk>`` at 0."""
    index = {UNK: 0}
    for text in texts:
        for i in range(len(text)):
            for feature in extract_features(text, i):
                index.setdefault(feature, len(index))
    return index


# Characters the vocabulary may see in training: the letters of the pad
# sentinel, U+0000, CJK, digits, punctuation and a non-BMP character.
SEEN = "<pad>\x00右上肺见影1。，x😀"
# Characters only test sentences use, one per class and two outside the BMP.
UNSEEN = "肝7；Z𝟘😺あ"
# Feature strings shaped like the templates that no sentence can produce.
NEVER_FIRING = ("c0=<pad>", "bi-1=x<pad>", "bi0=<pad>x", "c0=ab", "c-2=<pa",
                "bi-1=<pad>", "bi0=<pad><pad>", "cls0=nonsense", "cls0=", "bias=")


# lengths too short, too long, with a negative or zero length, or none
BAD_LENGTHS = [("abc", [2]), ("ab", [3]), ("ab", [3, -1]), ("ab", [0, 2]), ("ab", [])]


def bad_lengths_message(text):
    return rf"sentence lengths \[.*\] must be positive and sum to the text's length, {len(text)}$"


def sentences(alphabet, max_size=9):
    return st.lists(st.text(alphabet, min_size=1, max_size=max_size), min_size=1, max_size=6)


@st.composite
def vocabularies(draw):
    """A vocabulary built from drawn sentences, perhaps without ``bias``,
    with never-firing strings added, columns shuffled and any unk index."""
    texts = draw(sentences(SEEN))
    built = FeatureVocabulary.build("".join(texts), [len(t) for t in texts])
    features = [f for f in built.index if f != "bias" or draw(st.booleans())]
    features += [f for f in draw(st.lists(st.sampled_from(NEVER_FIRING), unique=True))
                 if f not in features]
    columns = draw(st.permutations(range(len(features))))
    unk_index = draw(st.integers(0, len(features) - 1))
    return FeatureVocabulary(dict(zip(features, columns)), unk_index)


class TestFeatureExtraction:
    def test_sentence_start_uses_pad_sentinel(self):
        features = extract_features(FIG_TEXT, 0)
        assert f"c-1={PAD}" in features
        assert f"c-2={PAD}" in features

    def test_sentence_end_uses_pad_sentinel(self):
        features = extract_features(FIG_TEXT, len(FIG_TEXT) - 1)
        assert f"c+1={PAD}" in features
        assert f"bi0=。{PAD}" in features

    def test_example_position_zero(self):
        features = extract_features(FIG_TEXT, 0)
        assert "c0=右" in features
        assert "c+1=上" in features
        assert "bi0=右上" in features

    def test_deterministic(self):
        a = extract_features(FIG_TEXT, 5)
        b = extract_features(FIG_TEXT, 5)
        assert a == b

    def test_fixed_feature_count(self):
        for i in range(len(FIG_TEXT)):
            assert len(extract_features(FIG_TEXT, i)) == FEATURES_PER_POSITION

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            extract_features(FIG_TEXT, -1)
        with pytest.raises(ValueError):
            extract_features(FIG_TEXT, len(FIG_TEXT))

    def test_char_classes(self):
        assert char_class("3") == "digit"
        assert char_class("x") == "latin"
        assert char_class("。") == "punct"
        assert char_class("，") == "punct"
        assert char_class("肺") == "cjk"
        assert char_class("あ") == "other"  # hiragana


class TestFeatureVocabulary:
    def test_build_covers_training_features(self):
        vocab = FeatureVocabulary.build(FIG_TEXT, [len(FIG_TEXT)])
        assert vocab.lookup("c0=右") != vocab.unk_index
        assert vocab.lookup("bias") != vocab.unk_index

    def test_unknown_features_fold_into_unk(self):
        vocab = FeatureVocabulary.build(FIG_TEXT, [len(FIG_TEXT)])
        assert vocab.lookup("c0=肝") == vocab.unk_index

    def test_build_is_deterministic(self):
        text, lengths = FIG_TEXT + OCCLUSION_TEXT, [len(FIG_TEXT), len(OCCLUSION_TEXT)]
        a = FeatureVocabulary.build(text, lengths)
        b = FeatureVocabulary.build(text, lengths)
        assert a.index == b.index

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(SEEN + UNSEEN + "\t", min_size=1, max_size=9), max_size=6)
           .map(lambda texts: texts + texts[::2]))   # with repeated sentences
    def test_build_equals_the_string_loop(self, texts):
        built = FeatureVocabulary.build("".join(texts), [len(t) for t in texts])
        assert list(built.index.items()) == list(reference_build(texts).items())
        assert built.unk_index == 0

    def test_build_of_nothing_holds_only_unk(self):
        assert FeatureVocabulary.build("", []).index == {UNK: 0}
        assert FeatureVocabulary.build("", np.zeros(0, np.intp)).size == 1

    @pytest.mark.parametrize("text, lengths", BAD_LENGTHS)
    def test_build_rejects_lengths_that_do_not_cover_the_text(self, text, lengths):
        with pytest.raises(ValueError, match=bad_lengths_message(text)):
            FeatureVocabulary.build(text, lengths)

    @pytest.mark.parametrize("lengths", [[1.5, 1.5], [[1, 2]], ["1", "2"], [True, True, True],
                                         [[1], [2, 3]]])
    def test_lengths_must_be_a_1d_array_of_integers(self, lengths):
        vocab = FeatureVocabulary.build("abc", [3])
        for call in (FeatureVocabulary.build, partial(text_feature_ids, vocab)):
            with pytest.raises(ValueError, match=r"^sentence lengths must be a 1-D array of "
                                                 r"integers, got " + re.escape(repr(lengths))):
                call("abc", lengths)

    def test_text_that_is_not_a_str_raises_naming_its_type(self):
        vocab = FeatureVocabulary.build("ab", [2])
        for call in (FeatureVocabulary.build, partial(text_feature_ids, vocab)):
            for text in (b"ab", bytearray(b"ab"), ["a", "b"]):
                message = f"^text must be a str, got {type(text).__name__}$"
                with pytest.raises(ValueError, match=message):
                    call(text, [2])

    def test_injectivity_enforced(self):
        with pytest.raises(ValueError, match="injective"):
            FeatureVocabulary({"a": 0, "b": 0})

    def test_feature_ids_shape(self):
        vocab = FeatureVocabulary.build(FIG_TEXT, [len(FIG_TEXT)])
        ids = text_feature_ids(vocab, FIG_TEXT, [len(FIG_TEXT)])
        assert ids.shape == (len(FIG_TEXT), FEATURES_PER_POSITION)


class TestFeatureIdBatch:
    @settings(max_examples=300, deadline=None)
    @given(vocab=vocabularies(), texts=sentences(SEEN + UNSEEN, max_size=12))
    def test_matches_string_lookups_laid_end_to_end(self, vocab, texts):
        ids = text_feature_ids(vocab, "".join(texts), [len(t) for t in texts])
        expected = np.concatenate([reference_feature_ids(vocab, t) for t in texts])
        assert ids.dtype == np.intp
        np.testing.assert_array_equal(ids, expected)

    @settings(max_examples=100, deadline=None)
    @given(vocab=vocabularies(), text=st.text(SEEN + UNSEEN, min_size=1, max_size=12))
    def test_single_sentence_method_matches_string_lookups(self, vocab, text):
        np.testing.assert_array_equal(text_feature_ids(vocab, text, [len(text)]),
                                      reference_feature_ids(vocab, text))

    @settings(max_examples=200, deadline=None)
    @given(train=sentences(SEEN), texts=sentences(SEEN + UNSEEN, max_size=12))
    def test_built_and_parsed_tables_agree(self, train, texts):
        built = FeatureVocabulary.build("".join(train), [len(t) for t in train])
        parsed = FeatureVocabulary(built.index, built.unk_index)
        expected = np.concatenate([reference_feature_ids(built, t) for t in texts])
        lengths = [len(t) for t in texts]
        np.testing.assert_array_equal(text_feature_ids(built, "".join(texts), lengths), expected)
        np.testing.assert_array_equal(text_feature_ids(parsed, "".join(texts), lengths), expected)

    def test_an_empty_alphabet_knows_no_character(self):
        # no feature names a character, so U+0000 and the last code point
        # fall into their classes like any other character
        batch = ["\x00" + UNSEEN, "\x001\U0010ffff"]
        text, lengths = "".join(batch), [len(t) for t in batch]
        ids = text_feature_ids(FeatureVocabulary.build("", []), text, lengths)
        np.testing.assert_array_equal(ids, 0)
        vocab = FeatureVocabulary({UNK: 0, "cls0=digit": 1, "cls0=other": 2, "bias": 3})
        ids = text_feature_ids(vocab, text, lengths)
        np.testing.assert_array_equal(ids, np.concatenate([reference_feature_ids(vocab, t)
                                                           for t in batch]))
        assert ids[0, 7] == ids[-1, 7] == 2 and ids[-2, 7] == 1

    def test_never_firing_strings_stay_unk(self):
        vocab = FeatureVocabulary({"<unk>": 0, **{f: k for k, f in enumerate(NEVER_FIRING, 1)}})
        ids = text_feature_ids(vocab, "x<pad>a", [6, 1])
        np.testing.assert_array_equal(ids, 0)

    @pytest.mark.parametrize("text, lengths", BAD_LENGTHS)
    def test_rejects_lengths_that_do_not_cover_the_text(self, text, lengths):
        vocab = FeatureVocabulary.build(FIG_TEXT, [len(FIG_TEXT)])
        with pytest.raises(ValueError, match=bad_lengths_message(text)):
            text_feature_ids(vocab, text, lengths)

    def test_empty_batch(self):
        vocab = FeatureVocabulary.build(FIG_TEXT, [len(FIG_TEXT)])
        ids = text_feature_ids(vocab, "", [])
        assert ids.shape == (0, FEATURES_PER_POSITION)


class TestScoreIds:
    def test_zero_weights_give_zero_scores(self):
        vocab = FeatureVocabulary.build(FIG_TEXT, [len(FIG_TEXT)])
        weights = np.zeros((vocab.size, 7))
        ids = text_feature_ids(vocab, FIG_TEXT, [len(FIG_TEXT)])
        emissions = score_ids(weights, ids)
        assert emissions.shape == (len(FIG_TEXT), 7)
        np.testing.assert_array_equal(emissions, 0.0)

    def test_sparse_dot_product_hand_evaluated(self):
        vocab = FeatureVocabulary.build(FIG_TEXT, [len(FIG_TEXT)])
        weights = np.zeros((vocab.size, 7))
        b_p = TAG_INDEX["B-P"]
        weights[vocab.lookup("c0=右"), b_p] = 2.0
        weights[vocab.lookup("bias"), b_p] = 0.5
        ids = text_feature_ids(vocab, FIG_TEXT, [len(FIG_TEXT)])
        emissions = score_ids(weights, ids)
        # position 0 fires both features, every other position only the bias
        assert emissions[0, b_p] == pytest.approx(2.5)
        assert emissions[1, b_p] == pytest.approx(0.5)

    def test_scoring_is_linear_in_weights(self):
        vocab = FeatureVocabulary.build(FIG_TEXT, [len(FIG_TEXT)])
        rng = np.random.default_rng(3)
        w1 = rng.standard_normal((vocab.size, 7))
        w2 = rng.standard_normal((vocab.size, 7))
        a, b = 0.7, -1.3
        ids = text_feature_ids(vocab, FIG_TEXT, [len(FIG_TEXT)])
        combined = score_ids(a * w1 + b * w2, ids)
        parts = a * score_ids(w1, ids) + b * score_ids(w2, ids)
        np.testing.assert_allclose(combined, parts, atol=1e-12)

    def test_unseen_characters_score_finite(self):
        vocab = FeatureVocabulary.build(FIG_TEXT, [len(FIG_TEXT)])
        rng = np.random.default_rng(4)
        weights = rng.standard_normal((vocab.size, 7))
        emissions = score_ids(weights, text_feature_ids(vocab, "肝胆胰脾", [4]))
        assert np.isfinite(emissions).all()

    @pytest.mark.parametrize("ids", [np.full((2, 9), -1), np.full((2, 9), 4), np.full((2, 9), 1.0),
                                     np.ones((2, 9), bool), np.array([[0, 1], [-2, 3]]),
                                     np.array(1)])
    def test_ids_outside_the_weight_rows_or_not_integers_raise(self, ids):
        with pytest.raises(ValueError, match=r"^feature ids must be integers in \[0, 4\)$"):
            score_ids(np.ones((4, 7)), ids)

    def test_every_weight_row_and_an_empty_batch_score(self):
        weights = np.arange(28.0).reshape(4, 7)
        ids = np.array([[0, 3], [3, 3]], np.uint8)
        np.testing.assert_array_equal(score_ids(weights, ids), weights[[0, 3]] + weights[3])
        assert score_ids(weights, np.zeros((0, 9), np.intp)).shape == (0, 7)
