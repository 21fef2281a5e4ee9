"""Joint training of the feature scorer and transition weights.

Plain mini-batch gradient descent on summed sentence NLL, which is convex
for the linear scorer, so everything starts at zero.  The learning rate is
two-phase: a high first-epoch rate that decays once and then holds.  After
every epoch the model is scored on the dev set with strict entity F1, and
the snapshot from the best epoch (earliest on ties) is returned.  Both
corpora are tagged ``FlatCorpus`` values; dev F1 counts int entity keys
with ``evaluation.key_prf``, as ``eval`` does, and builds no ``Entity``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .corpus import NUM_TAGS, FlatCorpus
from .crf import (
    FULL_SIZE,
    TaggerModel,
    batch_nll_and_gradient,
    decoding_transitions,
    viterbi,
)
from .encoder import FeatureVocabulary, score_ids, text_feature_ids
from .evaluation import entity_keys, key_prf


class NonFiniteLossError(RuntimeError):
    """Training produced a non-finite loss or diverged to non-finite weights."""

    def __init__(self, sentence_id: str, value: float, what: str = "loss"):
        super().__init__(f"non-finite {what} {value!r} at sentence {sentence_id!r}")
        self.sentence_id = sentence_id
        self.value = value


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 16
    lr_initial: float = 0.5
    lr_decayed: float = 0.1
    decay_epoch: int = 2
    l2: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        # written so that NaN fails too
        if not (0 < self.lr_initial < np.inf and 0 < self.lr_decayed < np.inf):
            raise ValueError("learning rates must be positive and finite")
        if self.decay_epoch < 1:
            raise ValueError(f"decay epoch must be >= 1, got {self.decay_epoch}")
        if not 0 <= self.l2 < np.inf:
            raise ValueError(f"l2 must be non-negative and finite, got {self.l2}")

    def rate_for_epoch(self, epoch: int) -> float:
        """Learning rate for a 1-based epoch number."""
        return self.lr_initial if epoch < self.decay_epoch else self.lr_decayed


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch mean train NLL and dev entity F1, plus the selected epoch
    (0-based index of the dev-best epoch, earliest on ties)."""

    train_nll: tuple[float, ...]
    dev_f1: tuple[float, ...]
    selected_epoch: int

    def to_dict(self) -> dict:
        return {
            "train_nll": list(self.train_nll),
            "dev_f1": list(self.dev_f1),
            "selected_epoch": self.selected_epoch,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _prepare(corpus: FlatCorpus, vocab: FeatureVocabulary) -> list[np.ndarray]:
    """Each sentence as one ``(n, 10)`` integer array: its 9 feature ids per
    position, extracted in one pass, then its gold tag index."""
    ids = text_feature_ids(vocab, corpus.text, corpus.lengths)
    return np.split(np.column_stack((ids, corpus.tag_path("training"))), corpus.offsets[1:-1])


def _feature_gradient(ids: np.ndarray, grad_p: np.ndarray, size: int) -> np.ndarray:
    """``(size, k)`` sums of each position's emission gradient row into the
    weight rows of its ``(positions, 9)`` feature ids: one ``bincount`` per
    tag column, each bin summed in (position, template) order."""
    flat = ids.ravel()
    columns = np.repeat(grad_p.T, ids.shape[1], axis=1)
    return np.stack([np.bincount(flat, column, size) for column in columns], axis=1)


class _DevSet:
    """Dev sentences with their flat feature ids and gold entity keys
    (:func:`evaluation.entity_keys`); built once, decoded every epoch."""

    def __init__(self, dev: FlatCorpus, vocab: FeatureVocabulary):
        self.lengths = dev.lengths
        self.gold = entity_keys(dev.tag_path("dev scoring"), dev.lengths)
        self.ids = text_feature_ids(vocab, dev.text, dev.lengths)

    def f1(self, model: TaggerModel) -> float:
        P = score_ids(model.weights, self.ids)
        path = viterbi(P, decoding_transitions(model.transitions, True), self.lengths)
        return key_prf(entity_keys(path, self.lengths), self.gold).overall.f1


def train(
    corpus: FlatCorpus,
    dev: FlatCorpus,
    config: TrainConfig,
    on_epoch: Callable[[int, float, float], None] | None = None,
) -> tuple[TaggerModel, TrainReport]:
    """Train on ``corpus``, select by dev F1.  Deterministic given the seed.

    ``on_epoch``, if given, is called as each epoch finishes with its 1-based
    number, mean train NLL and dev F1."""
    if not len(corpus.lengths):
        raise ValueError("empty training corpus")
    if not len(dev.lengths):
        raise ValueError("empty dev corpus")

    vocab = FeatureVocabulary.build(corpus.text, corpus.lengths)
    rows, lengths = _prepare(corpus, vocab), corpus.lengths
    dev_set = _DevSet(dev, vocab)
    weights = np.zeros((vocab.size, NUM_TAGS))
    transitions = np.zeros((FULL_SIZE, FULL_SIZE))

    rng = np.random.default_rng(config.seed)
    nll_history: list[float] = []
    f1_history: list[float] = []
    best_model: TaggerModel | None = None
    best_f1 = -1.0
    best_epoch = 0

    for epoch in range(1, config.epochs + 1):
        rate = config.rate_for_epoch(epoch)
        order = rng.permutation(len(lengths))
        epoch_nll = 0.0
        for lo in range(0, len(order), config.batch_size):
            batch = order[lo:lo + config.batch_size]
            flat = np.concatenate([rows[j] for j in batch])
            ids = flat[:, :-1]
            values, grad_p, grad_a = batch_nll_and_gradient(
                score_ids(weights, ids), transitions, lengths[batch], flat[:, -1]
            )
            finite = np.isfinite(values)
            if not finite.all():
                b = int(np.argmin(finite))   # first non-finite row, in batch order
                raise NonFiniteLossError(corpus.ids[batch[b]], float(values[b]))
            epoch_nll += float(values.sum())
            grad_w = _feature_gradient(ids, grad_p, vocab.size) / len(batch)
            grad_a = grad_a.sum(axis=0) / len(batch)
            # a diverging update overflows here; the check below reports it
            with np.errstate(over="ignore", invalid="ignore"):
                if config.l2 > 0:
                    grad_w += config.l2 * weights
                    grad_a += config.l2 * transitions
                weights -= rate * grad_w
                transitions -= rate * grad_a
            if not (np.isfinite(weights).all() and np.isfinite(transitions).all()):
                raise NonFiniteLossError(corpus.ids[batch[0]], float("inf"), "parameter update")

        model = TaggerModel(vocab, weights, transitions)
        dev_f1 = dev_set.f1(model)
        nll_history.append(epoch_nll / len(lengths))
        f1_history.append(dev_f1)
        if on_epoch is not None:
            on_epoch(epoch, nll_history[-1], dev_f1)
        if dev_f1 > best_f1:
            best_f1 = dev_f1
            best_model = model
            best_epoch = epoch - 1

    report = TrainReport(tuple(nll_history), tuple(f1_history), best_epoch)
    assert best_model is not None
    return best_model, report
