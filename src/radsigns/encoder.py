"""Per-character emission scores for the CRF.

Two sources are supported: a trainable sparse linear scorer over character
indicator features, and pass-through of score matrices computed offline by
an external encoder.  Both produce the same n x 7 emission matrix.

Features are defined as strings (:func:`extract_features`), and the model
file stores them as strings.  Neither building a vocabulary nor looking ids
up works string by string.  Both lay the sentences end to end as char ids
with pads between them.  :meth:`FeatureVocabulary.build` reads each
template's values as integers over the training corpus's own char ids and
writes out only the distinct values as strings, in order of first
appearance, so the model file is what the string loop would write.  Each
vocabulary compiles its strings once into integer tables over character
ids, and :func:`feature_id_batch` gathers the ids of a batch, with one dict
lookup per character, as one flat ``(sum(lengths), 9)`` array;
:func:`score_ids` turns it into the batch's flat emissions.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .corpus import NUM_TAGS, EmissionMatrix, Sentence

PAD = "<pad>"
UNK = "<unk>"

# fixed template set: 5 char windows, 2 bigrams, 1 char class, 1 bias
FEATURES_PER_POSITION = 9
WINDOW_TEMPLATES = ("c-2", "c-1", "c0", "c+1", "c+2")
_BIGRAM_TEMPLATES = ("bi-1", "bi0")
CHAR_CLASSES = ("digit", "latin", "punct", "cjk", "other")


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
        return sentence.text[j] if 0 <= j < n else PAD

    c0 = sentence.text[i]
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
        """Every :func:`extract_features` string of the sentences, numbered
        from 1 in order of first appearance (position by position, template
        by template), after ``<unk>`` at 0.  Each template's values are
        collected as integers over the corpus's own char ids, and only the
        distinct values are written out as strings."""
        sentences = list(sentences)
        text = "".join(s.text for s in sentences)
        alphabet, inverse = np.unique(
            np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32),
            return_inverse=True)
        names = [PAD, *map(chr, alphabet.tolist())]   # by char id, the pad id 0 first
        # each char id's class index; the pad (id 0) is never c0
        classes = np.array([0] + [_CLASS_INDEX[char_class(ch)] for ch in names[1:]])
        chars, where = _padded_chars([len(s) for s in sentences], inverse + 1)
        # per template, in extract_features' order: the char id of a window,
        # left * width + right of a bigram, the class index, 0 for the bias
        width = len(names)
        window = [chars[where + j - 2] for j in range(len(WINDOW_TEMPLATES))]
        columns = [*window, window[1] * width + window[2], window[2] * width + window[3],
                   classes[window[2]], np.zeros_like(where)]
        found = [np.unique(column, return_index=True) for column in columns]
        templates = np.repeat(np.arange(len(columns)), [len(v) for v, _ in found])
        values = np.concatenate([v for v, _ in found])
        order = np.argsort(np.concatenate([first * len(columns) + t
                                           for t, (_, first) in enumerate(found)]))
        index = {UNK: 0}
        for t, v in zip(templates[order].tolist(), values[order].tolist()):
            if t < 5:
                feature = f"{WINDOW_TEMPLATES[t]}={names[v]}"
            elif t < 7:
                feature = f"{_BIGRAM_TEMPLATES[t - 5]}={names[v // width]}{names[v % width]}"
            else:
                feature = f"cls0={CHAR_CLASSES[v]}" if t == 7 else "bias"
            index[feature] = len(index)
        return cls(index, unk_index=0)

    @property
    def size(self) -> int:
        return len(self.index)

    def lookup(self, feature: str) -> int:
        return self.index.get(feature, self.unk_index)

    def feature_ids(self, sentence: Sentence) -> np.ndarray:
        """The ``(n, 9)`` feature ids of one sentence."""
        return feature_id_batch(self, [sentence])[0]

    @cached_property
    def _tables(self) -> _TemplateTables:
        return _TemplateTables(self.index, self.unk_index)


_CLASS_INDEX = {name: k for k, name in enumerate(CHAR_CLASSES)}
_NO_KEY = np.iinfo(np.int64).max


class _TemplateTables:
    """A vocabulary's feature strings compiled to integer lookups.

    Characters get ids: 0 is the pad sentinel, then every character that
    some window or bigram feature names, then one id per character class
    for the characters no feature names.  ``table`` holds one row per
    window template and a last row for the class feature, indexed by char
    id.  Each bigram template has a sorted key array (left id * width +
    right id, ending in a sentinel no pair reaches) and its feature ids.
    Feature strings that no sentence can produce, such as ``c0=<pad>`` or
    ``bi-1=x<pad>``, are left out of the tables, so they never fire.
    """

    def __init__(self, index: dict[str, int], unk: int):
        self.unk = unk
        self.char_ids = {PAD: 0}
        self.bias = index.get("bias", unk)
        windows, classes = [], {}
        bigrams = {template: [] for template in _BIGRAM_TEMPLATES}
        for feature, column in index.items():
            template, _, value = feature.partition("=")
            if template in WINDOW_TEMPLATES and (len(value) == 1 or value == PAD):
                windows.append((WINDOW_TEMPLATES.index(template), self._char(value), column))
            elif template in bigrams and (pair := _bigram_chars(template, value)):
                bigrams[template].append((*map(self._char, pair), column))
            elif template == "cls0" and value in _CLASS_INDEX:
                classes[value] = column
        self.unseen = len(self.char_ids)
        self.width = self.unseen + len(CHAR_CLASSES)

        self.table = np.full((len(WINDOW_TEMPLATES) + 1, self.width), unk, dtype=np.intp)
        for row, char, column in windows:
            self.table[row, char] = column
        class_ids = [classes.get(name, unk) for name in CHAR_CLASSES]
        for ch, char in self.char_ids.items():
            if char:
                self.table[-1, char] = class_ids[_CLASS_INDEX[char_class(ch)]]
        self.table[-1, self.unseen:] = class_ids

        self.bigrams = []
        for entries in bigrams.values():
            pairs = sorted((left * self.width + right, column) for left, right, column in entries)
            keys = np.array([key for key, _ in pairs] + [_NO_KEY], dtype=np.int64)
            values = np.array([column for _, column in pairs] + [unk], dtype=np.intp)
            self.bigrams.append((keys, values))

    def _char(self, ch: str) -> int:
        return self.char_ids.setdefault(ch, len(self.char_ids))

    def unseen_id(self, ch: str) -> int:
        """Char id of a character that no feature names: its class's id."""
        return self.unseen + _CLASS_INDEX[char_class(ch)]

    def bigram_ids(self, which: int, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Feature ids of template ``bi-1`` (0) or ``bi0`` (1) for char id pairs."""
        keys, values = self.bigrams[which]
        query = left * np.int64(self.width) + right
        at = np.searchsorted(keys, query)
        return np.where(keys[at] == query, values[at], self.unk)


def _bigram_chars(template: str, value: str) -> tuple[str, str] | None:
    """The (left, right) characters of a bigram feature value that some
    sentence can produce: two characters, or the pad sentinel before the
    first (``bi-1``) or after the last (``bi0``) character."""
    if len(value) == 2:
        return value[0], value[1]
    if len(value) == len(PAD) + 1:
        if template == "bi-1" and value.startswith(PAD):
            return PAD, value[-1]
        if template == "bi0" and value.endswith(PAD):
            return value[0], PAD
    return None


def _padded_chars(lengths, ids) -> tuple[np.ndarray, np.ndarray]:
    """Char ids of sentences of the given lengths laid end to end, with two
    pad ids (0) before, between and after them, and each character's index
    in that array.  The pads are placed by position, so every character
    keeps its own id, and template j of the character at index w reads the
    char id at w - 2 + j."""
    lengths = np.asarray(lengths, dtype=np.intp)
    where = np.arange(lengths.sum()) + 2 * np.repeat(np.arange(1, len(lengths) + 1), lengths)
    chars = np.zeros(len(where) + 2 * len(lengths) + 2, dtype=np.intp)
    chars[where] = ids
    return chars, where


def feature_id_batch(
    vocab: FeatureVocabulary, sentences: Sequence[Sentence]
) -> tuple[np.ndarray, np.ndarray]:
    """Feature ids of a batch of sentences laid end to end, shape
    ``(sum(lengths), 9)``, and the sentence lengths.  Equal, position by
    position, to looking up every :func:`extract_features` string in
    ``vocab.index``, with unseen strings mapped to ``vocab.unk_index``."""
    tables = vocab._tables
    get, unseen = tables.char_ids.get, tables.unseen_id
    lengths = np.array([len(s) for s in sentences], dtype=np.intp)
    chars, where = _padded_chars(lengths, [get(ch) or unseen(ch)
                                           for s in sentences for ch in s.text])
    # (9, positions) ids of every position but the outer pads, each template
    # read from shifted slices of chars, then the sentences' columns
    n = max(len(chars) - 4, 0)
    ids = np.empty((FEATURES_PER_POSITION, n), dtype=np.intp)
    for j in range(len(WINDOW_TEMPLATES)):
        tables.table[j].take(chars[j:j + n], out=ids[j])
    ids[5] = tables.bigram_ids(0, chars[1:n + 1], chars[2:n + 2])
    ids[6] = tables.bigram_ids(1, chars[2:n + 2], chars[3:n + 3])
    tables.table[-1].take(chars[2:n + 2], out=ids[7])
    ids[8] = tables.bias
    return ids[:, where - 2].T, lengths


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
    weight rows summed from left to right, shape ``(..., 7)``."""
    scores = weights.take(ids[..., 0], axis=0)
    for j in range(1, ids.shape[-1]):
        scores += weights.take(ids[..., j], axis=0)
    return scores


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
