import numpy as np
import pytest

from radsigns import crf
from radsigns.cli import main
from radsigns.corpus import TAG_INDEX, FlatCorpus
from radsigns.crf import (
    FULL_SIZE,
    TaggerModel,
    batch_log_partition,
    batch_nll_and_gradient,
)
from radsigns.encoder import FeatureVocabulary, score_ids, text_feature_ids
from radsigns import encoder, trainer
from radsigns.evaluation import entity_prf
from radsigns.tagscheme import batch_entities
from radsigns.trainer import (
    NonFiniteLossError,
    TrainConfig,
    TrainReport,
    evaluate_dev,
    train,
)

from _synth import RULE_CHAR_TAG, SP_TERMS, Labels, Text, build_rule_corpus, entities_of
from _synth import flat_corpus as flat
from conftest import decode_sentence


def all_o_pair(sid, n):
    return Text(sid, "字" * n), Labels(bytes(n))


class TestTrainConfig:
    def test_defaults_follow_two_phase_schedule(self):
        config = TrainConfig()
        assert config.epochs == 200
        assert config.batch_size == 16
        assert config.rate_for_epoch(1) == 0.5
        assert config.rate_for_epoch(2) == 0.1
        assert config.rate_for_epoch(200) == 0.1

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(lr_initial=0.0)
        with pytest.raises(ValueError):
            TrainConfig(l2=-0.1)


class TestTraining:
    def test_rule_corpus_reaches_perfect_dev_f1(self):
        rng = np.random.default_rng(100)
        corpus = build_rule_corpus(rng, 200, prefix="t")
        dev = build_rule_corpus(rng, 50, prefix="d")
        config = TrainConfig(epochs=20, batch_size=16, seed=1)
        model, report = train(flat(corpus), flat(dev), config)
        assert report.dev_f1[report.selected_epoch] == 100.0
        assert evaluate_dev(model, flat(dev)) == 100.0

    def assert_one_step_matches_per_sentence_gradients(self, corpus, dev):
        config = TrainConfig(epochs=1, batch_size=len(corpus), seed=0)
        model, report = train(flat(corpus), flat(dev), config)
        assert len(report.train_nll) == 1
        assert len(report.dev_f1) == 1

        # reproduce the single update by hand from the zero initialization
        vocab = FeatureVocabulary.build(flat(corpus).text, flat(corpus).lengths)
        grad_w = np.zeros((vocab.size, 7))
        grad_a = np.zeros((FULL_SIZE, FULL_SIZE))
        zero_w = np.zeros((vocab.size, 7))
        total = 0.0
        for sentence, tags in corpus:
            ids = text_feature_ids(vocab, sentence.text, [len(sentence)])
            gold = np.frombuffer(tags.indices, np.uint8).astype(np.intp)
            values, grad_p, grad_a_j = batch_nll_and_gradient(
                score_ids(zero_w, ids), np.zeros((9, 9)),
                [len(sentence)], gold)
            total += values[0]
            np.add.at(grad_w, ids.ravel(), np.repeat(grad_p, ids.shape[1], axis=0))
            grad_a += grad_a_j[0]
        grad_w /= len(corpus)
        grad_a /= len(corpus)
        np.testing.assert_allclose(
            model.weights, -config.lr_initial * grad_w, atol=1e-12
        )
        np.testing.assert_allclose(
            model.transitions, -config.lr_initial * grad_a, atol=1e-12
        )
        assert report.train_nll[0] == pytest.approx(total / len(corpus), rel=1e-12)

    def test_single_full_batch_update_matches_analytic_step(self):
        rng = np.random.default_rng(101)
        corpus = build_rule_corpus(rng, 5, prefix="t")
        dev = build_rule_corpus(rng, 2, prefix="d")
        self.assert_one_step_matches_per_sentence_gradients(corpus, dev)

    def test_ragged_minibatch_with_one_char_sentences_matches_analytic_step(self):
        rng = np.random.default_rng(111)
        corpus = build_rule_corpus(rng, 6, prefix="t")
        corpus += [
            (Text("t-one-a", "肺"), Labels(bytes([TAG_INDEX["B-P"]]))),
            (Text("t-one-b", "。"), Labels(bytes(1))),
        ]
        corpus.insert(2, corpus.pop())
        dev = build_rule_corpus(rng, 2, prefix="d")
        self.assert_one_step_matches_per_sentence_gradients(corpus, dev)

    def test_features_are_extracted_once_per_sentence(self, monkeypatch):
        rng = np.random.default_rng(112)
        corpus = build_rule_corpus(rng, 20, prefix="t")
        dev = build_rule_corpus(rng, 7, prefix="d")
        calls = []
        original = trainer.text_feature_ids

        def counting(vocab, text, lengths):
            calls.append((text, lengths.tolist()))
            return original(vocab, text, lengths)

        monkeypatch.setattr(trainer, "text_feature_ids", counting)
        train(flat(corpus), flat(dev), TrainConfig(epochs=3, batch_size=8, seed=5))
        # one pass over each corpus: every sentence once
        assert calls == [(c.text, c.lengths.tolist()) for c in (flat(corpus), flat(dev))]

    def test_train_never_parses_its_own_vocabulary(self, monkeypatch):
        # build hands its vocabulary the tables it computed; only a vocabulary
        # made from strings, such as a loaded model's, parses them
        rng = np.random.default_rng(113)
        corpus = build_rule_corpus(rng, 20, prefix="t")
        dev = build_rule_corpus(rng, 7, prefix="d")
        parsed = []
        original = encoder._parse_tables

        def counting(index, unk):
            parsed.append(len(index))
            return original(index, unk)

        monkeypatch.setattr(encoder, "_parse_tables", counting)
        model, _ = train(flat(corpus), flat(dev), TrainConfig(epochs=2, batch_size=8, seed=5))
        text = dev[0][0].text
        text_feature_ids(model.vocab, text, [len(text)])
        assert parsed == []
        text_feature_ids(FeatureVocabulary(model.vocab.index), text, [len(text)])
        assert parsed == [model.vocab.size]

    def test_same_seed_gives_identical_runs(self):
        rng = np.random.default_rng(102)
        corpus = build_rule_corpus(rng, 30, prefix="t")
        dev = build_rule_corpus(rng, 10, prefix="d")
        config = TrainConfig(epochs=3, batch_size=8, seed=9)
        model_a, report_a = train(flat(corpus), flat(dev), config)
        model_b, report_b = train(flat(corpus), flat(dev), config)
        assert report_a == report_b
        np.testing.assert_array_equal(
            model_a.weights, model_b.weights
        )
        np.testing.assert_array_equal(
            model_a.transitions, model_b.transitions
        )

    def test_on_epoch_sees_each_epoch_as_reported(self):
        rng = np.random.default_rng(115)
        corpus = build_rule_corpus(rng, 20, prefix="t")
        dev = build_rule_corpus(rng, 5, prefix="d")
        seen = []
        _, report = train(flat(corpus), flat(dev), TrainConfig(epochs=3, batch_size=8, seed=8),
                          on_epoch=lambda *args: seen.append(args))
        assert seen == [(epoch, loss, f1) for epoch, loss, f1
                        in zip((1, 2, 3), report.train_nll, report.dev_f1)]

    def test_first_epochs_decrease_train_nll_on_separable_data(self):
        rng = np.random.default_rng(103)
        corpus = build_rule_corpus(rng, 50, prefix="t")
        dev = build_rule_corpus(rng, 10, prefix="d")
        _, report = train(flat(corpus), flat(dev), TrainConfig(epochs=5, batch_size=8, seed=2))
        assert report.train_nll[1] < report.train_nll[0]
        assert report.train_nll[-1] < report.train_nll[0]

    def test_single_small_step_decreases_sentence_nll(self):
        rng = np.random.default_rng(104)
        corpus = build_rule_corpus(rng, 1, prefix="t")
        sentence, tags = corpus[0]
        vocab = FeatureVocabulary.build(sentence.text, [len(sentence)])
        weights = np.zeros((vocab.size, 7))
        transitions = np.zeros((9, 9))
        ids = text_feature_ids(vocab, sentence.text, [len(sentence)])
        lengths, gold = [len(sentence)], np.frombuffer(tags.indices, np.uint8).astype(np.intp)
        values, grad_p, grad_a = batch_nll_and_gradient(
            score_ids(weights, ids), transitions, lengths, gold)
        before = values[0]

        step = 1e-3
        new_w = np.zeros((vocab.size, 7))
        np.add.at(new_w, ids.ravel(), np.repeat(grad_p, ids.shape[1], axis=0))
        stepped_w = -step * new_w
        stepped_a = -step * grad_a[0]
        P = score_ids(stepped_w, ids)
        after = (batch_log_partition(P, stepped_a, lengths)[0]
                 - crf._path_scores(P, stepped_a, lengths, gold)[0])
        assert after < before

    def test_selected_epoch_is_earliest_maximum(self):
        rng = np.random.default_rng(105)
        corpus = build_rule_corpus(rng, 80, prefix="t")
        dev = build_rule_corpus(rng, 20, prefix="d")
        _, report = train(flat(corpus), flat(dev), TrainConfig(epochs=8, batch_size=8, seed=3))
        best = max(report.dev_f1)
        assert report.dev_f1[report.selected_epoch] == best
        assert report.selected_epoch == report.dev_f1.index(best)

    def test_l2_changes_updates_but_not_dev_scoring(self):
        rng = np.random.default_rng(106)
        corpus = build_rule_corpus(rng, 20, prefix="t")
        dev = build_rule_corpus(rng, 5, prefix="d")
        base = TrainConfig(epochs=2, batch_size=5, seed=4, l2=0.0)
        ridged = TrainConfig(epochs=2, batch_size=5, seed=4, l2=0.5)
        model_a, _ = train(flat(corpus), flat(dev), base)
        model_b, _ = train(flat(corpus), flat(dev), ridged)
        assert not np.array_equal(model_a.weights, model_b.weights)
        # dev F1 is a pure function of the model, not of the penalty
        assert evaluate_dev(model_a, flat(dev)) == evaluate_dev(model_a, flat(dev))

    def test_empty_corpora_rejected(self):
        rng = np.random.default_rng(107)
        corpus = flat(build_rule_corpus(rng, 3, prefix="t"))
        with pytest.raises(ValueError, match="empty"):
            train(flat([]), corpus, TrainConfig(epochs=1))
        with pytest.raises(ValueError, match="empty"):
            train(corpus, flat([]), TrainConfig(epochs=1))

    def test_untagged_corpora_rejected(self):
        rng = np.random.default_rng(108)
        corpus = flat(build_rule_corpus(rng, 3, prefix="t"))
        untagged = FlatCorpus(corpus.text, corpus.lengths)
        with pytest.raises(ValueError, match="training needs a tagged corpus, not an untagged one"):
            train(untagged, corpus, TrainConfig(epochs=1))
        with pytest.raises(ValueError, match="dev scoring needs a tagged corpus, not an untagged one"):
            train(corpus, untagged, TrainConfig(epochs=1))

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_exploding_rate_raises_on_divergent_update(self):
        corpus = [all_o_pair("t1", 5), all_o_pair("t2", 2000)]
        dev = [all_o_pair("d1", 3)]
        config = TrainConfig(epochs=2, batch_size=2, lr_initial=1e306, seed=0)
        with pytest.raises(NonFiniteLossError) as excinfo:
            train(flat(corpus), flat(dev), config)
        assert excinfo.value.sentence_id in ("s1", "s2")

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_non_finite_sentence_loss_names_the_sentence(self):
        # the first update stays finite but inflates the scores enough that
        # the long sentence's path score overflows in the second epoch
        corpus = [all_o_pair("t1", 5), all_o_pair("t2", 2000)]
        dev = [all_o_pair("d1", 3)]
        config = TrainConfig(epochs=2, batch_size=2, lr_initial=1e303, seed=0)
        with pytest.raises(NonFiniteLossError) as excinfo:
            train(flat(corpus), flat(dev), config)
        assert excinfo.value.sentence_id == "s2"
        assert "loss" in str(excinfo.value)


class TestScaledForwardBackward:
    """Training runs on the scaled recursion, and the log-space recursion
    it replaced gives the same model up to rounding."""

    def decoded_outputs(self, model, dev, tmp_path, name):
        model_path = tmp_path / f"{name}.json"
        crf.save_model(model, model_path)
        text_path = tmp_path / "dev.txt"
        text_path.write_text("".join(s.text + "\n" for s, _ in dev), encoding="utf-8")
        dict_path = tmp_path / "parts.txt"
        dict_path.write_text("".join(term + "\n" for term in SP_TERMS), encoding="utf-8")
        outputs = [tmp_path / f"{name}.{suffix}" for suffix in ("tsv", "quads", "relations")]
        assert main(["tag", str(text_path), "--model", str(model_path),
                     "--out", str(outputs[0])]) == 0
        assert main(["extract", str(text_path), "--model", str(model_path),
                     "--dict", str(dict_path), "--out", str(outputs[1]),
                     "--relations-out", str(outputs[2])]) == 0
        return [path.read_bytes() for path in outputs]

    def test_no_training_row_falls_back_and_log_space_gives_the_same_model(
        self, monkeypatch, tmp_path
    ):
        rng = np.random.default_rng(116)
        corpus = build_rule_corpus(rng, 120, prefix="t")
        dev = build_rule_corpus(rng, 40, prefix="d")
        # small rates, so dev F1 still climbs and the model still errs
        config = TrainConfig(epochs=4, batch_size=8, seed=11, lr_initial=0.02, lr_decayed=0.05)

        def no_fallback(*args):
            raise AssertionError("a training row fell back to the log-space recursion")

        with monkeypatch.context() as patch:
            patch.setattr(crf, "_log_marginals", no_fallback)
            scaled_model, scaled_report = train(flat(corpus), flat(dev), config)

        scaled = crf._scaled_marginals

        def scaled_off(P, A, lengths):
            log_z, gamma, pairwise = scaled(P, A, lengths)
            return np.full_like(log_z, np.nan), gamma, pairwise

        monkeypatch.setattr(crf, "_scaled_marginals", scaled_off)
        log_model, log_report = train(flat(corpus), flat(dev), config)
        monkeypatch.undo()

        for got, expected in ((scaled_model.weights, log_model.weights),
                              (scaled_model.transitions, log_model.transitions)):
            assert np.abs(got - expected).max() / np.abs(expected).max() < 1e-9
        assert scaled_report.dev_f1 == log_report.dev_f1
        assert scaled_report.selected_epoch == log_report.selected_epoch
        np.testing.assert_allclose(scaled_report.train_nll, log_report.train_nll, rtol=1e-9)
        assert (self.decoded_outputs(scaled_model, dev, tmp_path, "scaled")
                == self.decoded_outputs(log_model, dev, tmp_path, "log"))


class TestEvaluateDev:
    def build_rule_model(self, corpus):
        """Hand-built scorer encoding the character rule directly."""
        vocab = FeatureVocabulary.build(flat(corpus).text, flat(corpus).lengths)
        weights = np.zeros((vocab.size, 7))
        for ch, tag in RULE_CHAR_TAG.items():
            row = vocab.lookup(f"c0={ch}")
            if row != vocab.unk_index:
                weights[row, TAG_INDEX[tag]] = 10.0
        return TaggerModel(
            vocab, weights, np.zeros((9, 9))
        )

    def test_all_o_decoder_scores_zero(self):
        rng = np.random.default_rng(109)
        dev = build_rule_corpus(rng, 5, prefix="d")
        vocab = FeatureVocabulary.build(flat(dev).text, flat(dev).lengths)
        model = TaggerModel(
            vocab, np.zeros((vocab.size, 7)), np.zeros((9, 9))
        )
        # zero scores everywhere: ties resolve to O, so nothing is predicted
        assert evaluate_dev(model, flat(dev)) == 0.0

    def test_batched_dev_decoding_matches_per_sentence_decoding(self):
        rng = np.random.default_rng(113)
        corpus = build_rule_corpus(rng, 40, prefix="t")
        dev = build_rule_corpus(rng, 150, prefix="d")   # mixed lengths, one flat pass
        model, _ = train(flat(corpus), flat(dev), TrainConfig(epochs=1, batch_size=8, seed=6))
        pred = {s.id: entities_of(s.text, decode_sentence(model, s.text)) for s, _ in dev}
        gold = {s.id: entities_of(s.text, tags.indices) for s, tags in dev}
        expected = entity_prf(pred, gold).overall.f1
        assert 0.0 < expected < 100.0
        assert evaluate_dev(model, flat(dev)) == expected

    def test_gold_equivalent_model_scores_hundred(self):
        rng = np.random.default_rng(110)
        dev = build_rule_corpus(rng, 20, prefix="d")
        model = self.build_rule_model(dev)
        assert evaluate_dev(model, flat(dev)) == 100.0


class TestDevScoring:
    """``_DevSet.f1`` counts shared entity keys; ``entity_prf`` over
    ``Entity`` objects is the reference."""

    @staticmethod
    def random_dev(rng, count):
        """Sentences of 1-6 characters with random gold tag paths: orphan I
        tags, kind switches and all-O sentences all occur."""
        dev = []
        for k in range(count):
            n = int(rng.integers(1, 7))
            indices = rng.integers(0, 7, n) * (rng.random(n) < 0.7)
            dev.append((Text(f"d{k}", "字" * n), Labels(bytes(indices.tolist()))))
        return dev

    def test_f1_equals_entity_prf_on_random_paths(self, monkeypatch):
        rng = np.random.default_rng(120)
        for trial in range(300):
            dev = self.random_dev(rng, int(rng.integers(1, 9)))
            vocab = FeatureVocabulary.build(flat(dev).text, flat(dev).lengths)
            model = TaggerModel(vocab, np.zeros((vocab.size, 7)), np.zeros((9, 9)))
            dev_set = trainer._DevSet(flat(dev), vocab)
            lengths = [len(s) for s, _ in dev]
            n = sum(lengths)
            if trial % 5 == 0:   # all O: nothing predicted
                path = np.zeros(n, np.uint8)
            elif trial % 5 == 1:   # the gold path itself
                path = np.frombuffer(b"".join(t.indices for _, t in dev), np.uint8)
            else:
                path = (rng.integers(0, 7, n) * (rng.random(n) < 0.6)).astype(np.uint8)
            monkeypatch.setattr(trainer, "viterbi", lambda P, A, lengths: path)
            sentences = [s for s, _ in dev]
            gold = {s.id: entities_of(s.text, t.indices) for s, t in dev}
            expected = entity_prf(batch_entities([s.id for s in sentences], flat(dev).text,
                                                 path, lengths), gold).overall.f1
            assert dev_set.f1(model) == expected


class TestFeatureGradient:
    @staticmethod
    def reference_feature_gradient(ids, grad_p, size):
        """Each position's gradient row added to the row of each of its
        feature ids, one at a time, in (position, template) order."""
        out = np.zeros((size, grad_p.shape[1]))
        for position, row in enumerate(ids.tolist()):
            for feature in row:
                out[feature] += grad_p[position]
        return out

    def test_sums_in_position_then_template_order(self):
        rng = np.random.default_rng(122)
        for _ in range(200):
            positions, size = int(rng.integers(0, 30)), int(rng.integers(1, 12))
            ids = rng.integers(0, size, (positions, 9))   # ids repeat within a position
            grad_p = rng.standard_normal((positions, 7)) * 10.0 ** rng.integers(-8, 8, (positions, 1))
            assert np.array_equal(trainer._feature_gradient(ids, grad_p, size),
                                  self.reference_feature_gradient(ids, grad_p, size))


class TestTrainReport:
    def test_json_round_trip(self):
        report = TrainReport((3.5, 1.25), (50.0, 75.0), 1)
        parsed = TrainReport(**{
            "train_nll": tuple(__import__("json").loads(report.to_json())["train_nll"]),
            "dev_f1": tuple(__import__("json").loads(report.to_json())["dev_f1"]),
            "selected_epoch": __import__("json").loads(report.to_json())["selected_epoch"],
        })
        assert parsed == report
