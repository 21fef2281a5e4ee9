import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radsigns.corpus import Sentence
from radsigns.encoder import (
    FEATURES_PER_POSITION,
    PAD,
    UNK,
    FeatureVocabulary,
    LinearScorerParams,
    char_class,
    extract_features,
    score_ids,
    text_feature_ids,
)
from radsigns.tagscheme import TAG_INDEX


def reference_feature_ids(vocab, sentence):
    """The string path: every position's feature strings looked up one by one."""
    ids = np.empty((len(sentence), FEATURES_PER_POSITION), dtype=np.intp)
    for i in range(len(sentence)):
        for j, feature in enumerate(extract_features(sentence, i)):
            ids[i, j] = vocab.index.get(feature, vocab.unk_index)
    return ids


def reference_build(sentences):
    """The string loop: every position's feature strings numbered in order
    of first appearance, after ``<unk>`` at 0."""
    index = {UNK: 0}
    for sentence in sentences:
        for i in range(len(sentence)):
            for feature in extract_features(sentence, i):
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
    def test_sentence_start_uses_pad_sentinel(self, shadow_sentence):
        features = extract_features(shadow_sentence, 0)
        assert f"c-1={PAD}" in features
        assert f"c-2={PAD}" in features

    def test_sentence_end_uses_pad_sentinel(self, shadow_sentence):
        features = extract_features(shadow_sentence, len(shadow_sentence) - 1)
        assert f"c+1={PAD}" in features
        assert f"bi0=。{PAD}" in features

    def test_example_position_zero(self, shadow_sentence):
        features = extract_features(shadow_sentence, 0)
        assert "c0=右" in features
        assert "c+1=上" in features
        assert "bi0=右上" in features

    def test_deterministic(self, shadow_sentence):
        a = extract_features(shadow_sentence, 5)
        b = extract_features(shadow_sentence, 5)
        assert a == b

    def test_fixed_feature_count(self, shadow_sentence):
        for i in range(len(shadow_sentence)):
            assert len(extract_features(shadow_sentence, i)) == FEATURES_PER_POSITION

    def test_out_of_range_rejected(self, shadow_sentence):
        with pytest.raises(ValueError):
            extract_features(shadow_sentence, -1)
        with pytest.raises(ValueError):
            extract_features(shadow_sentence, len(shadow_sentence))

    def test_char_classes(self):
        assert char_class("3") == "digit"
        assert char_class("x") == "latin"
        assert char_class("。") == "punct"
        assert char_class("，") == "punct"
        assert char_class("肺") == "cjk"
        assert char_class("あ") == "other"  # hiragana


class TestFeatureVocabulary:
    def test_build_covers_training_features(self, shadow_sentence):
        vocab = FeatureVocabulary.build(shadow_sentence.text, [len(shadow_sentence)])
        assert vocab.lookup("c0=右") != vocab.unk_index
        assert vocab.lookup("bias") != vocab.unk_index

    def test_unknown_features_fold_into_unk(self, shadow_sentence):
        vocab = FeatureVocabulary.build(shadow_sentence.text, [len(shadow_sentence)])
        assert vocab.lookup("c0=肝") == vocab.unk_index

    def test_build_is_deterministic(self, shadow_sentence, occlusion_sentence):
        sentences = [shadow_sentence, occlusion_sentence]
        text, lengths = "".join(s.text for s in sentences), [len(s) for s in sentences]
        a = FeatureVocabulary.build(text, lengths)
        b = FeatureVocabulary.build(text, lengths)
        assert a.index == b.index

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(SEEN + UNSEEN + "\t", min_size=1, max_size=9), max_size=6)
           .map(lambda texts: texts + texts[::2]))   # with repeated sentences
    def test_build_equals_the_string_loop(self, texts):
        sentences = [Sentence.from_text(f"s{k}", t) for k, t in enumerate(texts)]
        built = FeatureVocabulary.build("".join(texts), [len(t) for t in texts])
        assert list(built.index.items()) == list(reference_build(sentences).items())
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

    def test_injectivity_enforced(self):
        with pytest.raises(ValueError, match="injective"):
            FeatureVocabulary({"a": 0, "b": 0})

    def test_feature_ids_shape(self, shadow_sentence):
        vocab = FeatureVocabulary.build(shadow_sentence.text, [len(shadow_sentence)])
        ids = text_feature_ids(vocab, shadow_sentence.text, [len(shadow_sentence)])
        assert ids.shape == (len(shadow_sentence), FEATURES_PER_POSITION)


class TestFeatureIdBatch:
    @settings(max_examples=300, deadline=None)
    @given(vocab=vocabularies(), texts=sentences(SEEN + UNSEEN, max_size=12))
    def test_matches_string_lookups_laid_end_to_end(self, vocab, texts):
        batch = [Sentence.from_text(f"s{k}", t) for k, t in enumerate(texts)]
        ids = text_feature_ids(vocab, "".join(texts), [len(t) for t in texts])
        expected = np.concatenate([reference_feature_ids(vocab, s) for s in batch])
        assert ids.dtype == np.intp
        np.testing.assert_array_equal(ids, expected)

    @settings(max_examples=100, deadline=None)
    @given(vocab=vocabularies(), text=st.text(SEEN + UNSEEN, min_size=1, max_size=12))
    def test_single_sentence_method_matches_string_lookups(self, vocab, text):
        sentence = Sentence.from_text("s1", text)
        np.testing.assert_array_equal(text_feature_ids(vocab, text, [len(text)]),
                                      reference_feature_ids(vocab, sentence))

    @settings(max_examples=200, deadline=None)
    @given(train=sentences(SEEN), texts=sentences(SEEN + UNSEEN, max_size=12))
    def test_built_and_parsed_tables_agree(self, train, texts):
        built = FeatureVocabulary.build("".join(train), [len(t) for t in train])
        parsed = FeatureVocabulary(built.index, built.unk_index)
        batch = [Sentence.from_text(f"s{k}", t) for k, t in enumerate(texts)]
        expected = np.concatenate([reference_feature_ids(built, s) for s in batch])
        lengths = [len(t) for t in texts]
        np.testing.assert_array_equal(text_feature_ids(built, "".join(texts), lengths), expected)
        np.testing.assert_array_equal(text_feature_ids(parsed, "".join(texts), lengths), expected)

    def test_an_empty_alphabet_knows_no_character(self):
        # no feature names a character, so U+0000 and the last code point
        # fall into their classes like any other character
        batch = [Sentence.from_text("s1", "\x00" + UNSEEN), Sentence.from_text("s2", "\x001\U0010ffff")]
        text, lengths = "".join(s.text for s in batch), [len(s) for s in batch]
        ids = text_feature_ids(FeatureVocabulary.build("", []), text, lengths)
        np.testing.assert_array_equal(ids, 0)
        vocab = FeatureVocabulary({UNK: 0, "cls0=digit": 1, "cls0=other": 2, "bias": 3})
        ids = text_feature_ids(vocab, text, lengths)
        np.testing.assert_array_equal(ids, np.concatenate([reference_feature_ids(vocab, s)
                                                           for s in batch]))
        assert ids[0, 7] == ids[-1, 7] == 2 and ids[-2, 7] == 1

    def test_never_firing_strings_stay_unk(self):
        vocab = FeatureVocabulary({"<unk>": 0, **{f: k for k, f in enumerate(NEVER_FIRING, 1)}})
        ids = text_feature_ids(vocab, "x<pad>a", [6, 1])
        np.testing.assert_array_equal(ids, 0)

    @pytest.mark.parametrize("text, lengths", BAD_LENGTHS)
    def test_rejects_lengths_that_do_not_cover_the_text(self, shadow_sentence, text, lengths):
        vocab = FeatureVocabulary.build(shadow_sentence.text, [len(shadow_sentence)])
        with pytest.raises(ValueError, match=bad_lengths_message(text)):
            text_feature_ids(vocab, text, lengths)

    def test_empty_batch(self, shadow_sentence):
        vocab = FeatureVocabulary.build(shadow_sentence.text, [len(shadow_sentence)])
        ids = text_feature_ids(vocab, "", [])
        assert ids.shape == (0, FEATURES_PER_POSITION)


class TestScoreIds:
    def test_zero_weights_give_zero_scores(self, shadow_sentence):
        vocab = FeatureVocabulary.build(shadow_sentence.text, [len(shadow_sentence)])
        params = LinearScorerParams.zeros(vocab.size)
        ids = text_feature_ids(vocab, shadow_sentence.text, [len(shadow_sentence)])
        emissions = score_ids(params.weights, ids)
        assert emissions.shape == (len(shadow_sentence), 7)
        np.testing.assert_array_equal(emissions, 0.0)

    def test_sparse_dot_product_hand_evaluated(self, shadow_sentence):
        vocab = FeatureVocabulary.build(shadow_sentence.text, [len(shadow_sentence)])
        weights = np.zeros((vocab.size, 7))
        b_p = TAG_INDEX["B-P"]
        weights[vocab.lookup("c0=右"), b_p] = 2.0
        weights[vocab.lookup("bias"), b_p] = 0.5
        ids = text_feature_ids(vocab, shadow_sentence.text, [len(shadow_sentence)])
        emissions = score_ids(weights, ids)
        # position 0 fires both features, every other position only the bias
        assert emissions[0, b_p] == pytest.approx(2.5)
        assert emissions[1, b_p] == pytest.approx(0.5)

    def test_scoring_is_linear_in_weights(self, shadow_sentence):
        vocab = FeatureVocabulary.build(shadow_sentence.text, [len(shadow_sentence)])
        rng = np.random.default_rng(3)
        w1 = rng.standard_normal((vocab.size, 7))
        w2 = rng.standard_normal((vocab.size, 7))
        a, b = 0.7, -1.3
        ids = text_feature_ids(vocab, shadow_sentence.text, [len(shadow_sentence)])
        combined = score_ids(a * w1 + b * w2, ids)
        parts = a * score_ids(w1, ids) + b * score_ids(w2, ids)
        np.testing.assert_allclose(combined, parts, atol=1e-12)

    def test_unseen_characters_score_finite(self, shadow_sentence):
        vocab = FeatureVocabulary.build(shadow_sentence.text, [len(shadow_sentence)])
        rng = np.random.default_rng(4)
        params = LinearScorerParams(rng.standard_normal((vocab.size, 7)))
        unseen = Sentence.from_text("s9", "肝胆胰脾")
        emissions = score_ids(params.weights, text_feature_ids(vocab, unseen.text, [len(unseen)]))
        assert np.isfinite(emissions).all()
