"""Per-character emission scores for the CRF.

Two sources are supported: a trainable sparse linear scorer over character
indicator features, and pass-through of score matrices computed offline by
an external encoder.  Both produce the same n x 7 emission matrix.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .corpus import NUM_TAGS, EmissionMatrix, Sentence

PAD = "<pad>"
UNK = "<unk>"

# fixed template set: 5 char windows, 2 bigrams, 1 char class, 1 bias
FEATURES_PER_POSITION = 9


def char_class(ch: str) -> str:
    if ch.isdigit():
        return "digit"
    if ("a" <= ch <= "z") or ("A" <= ch <= "Z"):
        return "latin"
    if unicodedata.category(ch).startswith("P"):
        return "punct"
    if "一" <= ch <= "鿿" or "㐀" <= ch <= "䶿":
        return "cjk"
    return "other"


def extract_features(sentence: Sentence, i: int) -> list[str]:
    """Deterministic feature strings for position ``i``; out-of-range context
    characters are replaced by the pad sentinel."""
    n = len(sentence)
    if not 0 <= i < n:
        raise ValueError(f"position {i} outside sentence of length {n}")

    def at(j: int) -> str:
        return sentence.chars[j] if 0 <= j < n else PAD

    c0 = sentence.chars[i]
    c_m1, c_p1 = at(i - 1), at(i + 1)
    return [
        f"c-2={at(i - 2)}",
        f"c-1={c_m1}",
        f"c0={c0}",
        f"c+1={c_p1}",
        f"c+2={at(i + 2)}",
        f"bi-1={c_m1}{c0}",
        f"bi0={c0}{c_p1}",
        f"cls0={char_class(c0)}",
        "bias",
    ]


@dataclass(frozen=True, eq=False)
class FeatureVocabulary:
    """Frozen feature -> column map; unseen features fold into the UNK column."""

    index: dict[str, int]
    unk_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "index", dict(self.index))
        values = list(self.index.values())
        if len(set(values)) != len(values):
            raise ValueError("feature indices must be injective")
        if values and (min(values) < 0 or max(values) >= len(values)):
            raise ValueError("feature indices must be a dense 0-based range")
        if not 0 <= self.unk_index < max(len(values), 1):
            raise ValueError(f"unk index {self.unk_index} out of range")

    @classmethod
    def build(cls, sentences: Iterable[Sentence]) -> "FeatureVocabulary":
        index = {UNK: 0}
        for sentence in sentences:
            for i in range(len(sentence)):
                for feature in extract_features(sentence, i):
                    index.setdefault(feature, len(index))
        return cls(index, unk_index=0)

    @property
    def size(self) -> int:
        return len(self.index)

    def lookup(self, feature: str) -> int:
        return self.index.get(feature, self.unk_index)

    def feature_ids(self, sentence: Sentence) -> np.ndarray:
        ids = np.empty((len(sentence), FEATURES_PER_POSITION), dtype=np.intp)
        for i in range(len(sentence)):
            for j, feature in enumerate(extract_features(sentence, i)):
                ids[i, j] = self.index.get(feature, self.unk_index)
        return ids


@dataclass(frozen=True, eq=False)
class LinearScorerParams:
    """Weight row per feature, one column per tag.  No separate bias term:
    the always-on bias feature absorbs it."""

    weights: np.ndarray

    def __post_init__(self):
        weights = np.array(self.weights, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[1] != NUM_TAGS:
            raise ValueError(
                f"weights must be m x {NUM_TAGS}, got shape {weights.shape}"
            )
        if not np.isfinite(weights).all():
            raise ValueError("non-finite scorer weight")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def zeros(cls, feature_count: int) -> "LinearScorerParams":
        return cls(np.zeros((feature_count, NUM_TAGS)))


def score_sentence(
    sentence: Sentence, params: LinearScorerParams, vocab: FeatureVocabulary
) -> EmissionMatrix:
    """Sum the weight rows of each position's active features."""
    if params.weights.shape[0] != vocab.size:
        raise ValueError(
            f"scorer has {params.weights.shape[0]} rows but vocabulary has "
            f"{vocab.size} features"
        )
    return EmissionMatrix(sentence.id, score_ids(params.weights, vocab.feature_ids(sentence)))


def score_ids(weights: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Emission scores for feature ids of shape ``(..., 9)``: each position's
    weight rows summed, shape ``(..., 7)``.  Works on one sentence's ids and
    on a padded batch alike."""
    return weights[ids].sum(axis=-2)


def external_emissions(sentence: Sentence, matrix: EmissionMatrix) -> EmissionMatrix:
    """Validate and pass through an offline-computed emission matrix."""
    if matrix.sentence_id != sentence.id:
        raise ValueError(
            f"emission matrix is for {matrix.sentence_id!r}, not {sentence.id!r}"
        )
    if matrix.n != len(sentence):
        raise ValueError(
            f"emission matrix has {matrix.n} rows but sentence "
            f"{sentence.id!r} has {len(sentence)} characters"
        )
    return matrix
