"""Per-character emission scores for the CRF from a trainable sparse linear
scorer over character indicator features.  Score matrices computed offline
by an external encoder are read by ``corpus.read_emission_blocks`` instead.

Features are defined as strings (:func:`extract_features`) and the model
file stores them as strings, but building and looking up work on one
integer layout: char ids over a sorted alphabet of code points, the
sentences laid end to end between pads, and an integer value per template
(:func:`_template_values`).  :meth:`FeatureVocabulary.build` writes out the
distinct values as strings, in order of first appearance, and keeps them
as the vocabulary's tables; a vocabulary read from a model file parses its
strings into the same tables once.  :func:`text_feature_ids`, the one
feature-id function, gathers the ids of sentences laid end to end as one
flat ``(sum(lengths), 9)`` array, and :func:`score_ids` turns it into the
batch's flat emissions by a ``crf.TaggerModel``'s plain weight array.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import _code_points, _sentence_lengths

PAD = "<pad>"
UNK = "<unk>"

# fixed template set: 5 char windows, 2 bigrams, 1 char class, 1 bias
FEATURES_PER_POSITION = 9
WINDOW_TEMPLATES = ("c-2", "c-1", "c0", "c+1", "c+2")
_TEMPLATES = WINDOW_TEMPLATES + ("bi-1", "bi0")   # those whose values name chars
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


def extract_features(text: str, i: int) -> list[str]:
    """Deterministic feature strings for position ``i`` of a sentence's
    ``text``; out-of-range context characters are replaced by the pad sentinel."""
    n = len(text)
    if not 0 <= i < n:
        raise ValueError(f"position {i} outside sentence of length {n}")

    def at(j: int) -> str:
        return text[j] if 0 <= j < n else PAD

    c0 = text[i]
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
    def build(cls, text: str, lengths) -> "FeatureVocabulary":
        """Every :func:`extract_features` string of the sentences of the given
        ``lengths`` laid end to end in ``text``, numbered from 1 in order of
        first appearance (position by position, template by template), after
        ``<unk>`` at 0.  Each template's values are collected as integers
        over the corpus's alphabet, only the distinct values are written out
        as strings, and the vocabulary keeps them as its lookup tables."""
        codes = _code_points(text)
        alphabet = np.unique(codes)
        classes = _char_classes(alphabet)
        found = [np.unique(values, return_index=True) for values in _template_values(
            lengths, _char_ids(codes, alphabet), classes)]
        templates = np.repeat(np.arange(len(found)), [len(v) for v, _ in found])
        values = np.concatenate([v for v, _ in found])
        order = np.argsort(np.concatenate([first * len(found) + t
                                           for t, (_, first) in enumerate(found)]))
        names, width = [PAD, *map(chr, alphabet.tolist())], len(classes)
        index = {UNK: 0}
        for t, v in zip(templates[order].tolist(), values[order].tolist()):
            if t < 5:
                feature = f"{_TEMPLATES[t]}={names[v]}"
            elif t < 7:
                feature = f"{_TEMPLATES[t]}={names[v // width]}{names[v % width]}"
            else:
                feature = f"cls0={CHAR_CLASSES[v]}" if t == 7 else "bias"
            index[feature] = len(index)
        vocab = cls(index, unk_index=0)
        columns = np.argsort(order) + 1   # each distinct value's column
        vocab.__dict__["_tables"] = _Tables(alphabet, classes, templates, values, columns, 0)
        return vocab

    @property
    def size(self) -> int:
        return len(self.index)

    def lookup(self, feature: str) -> int:
        return self.index.get(feature, self.unk_index)

    @cached_property
    def _tables(self) -> _Tables:
        return _parse_tables(self.index, self.unk_index)


_CLASS_INDEX = {name: k for k, name in enumerate(CHAR_CLASSES)}
_NO_CODE = 0x110000   # one past the last code point
_NO_KEY = np.iinfo(np.int64).max
_TEMPLATE_INDEX = {name: t for t, name in enumerate(_TEMPLATES)}


def _char_classes(alphabet: np.ndarray) -> np.ndarray:
    """The class index of every char id over a sorted alphabet of code
    points: 0 for the pad (id 0, never ``c0``), the class of ``alphabet[i]``
    for id ``i + 1``, then the class of each class's own id."""
    return np.array([0, *(_CLASS_INDEX[char_class(chr(c))] for c in alphabet.tolist()),
                     *range(len(CHAR_CLASSES))], dtype=np.intp)


def _char_ids(codes: np.ndarray, alphabet: np.ndarray) -> np.ndarray:
    """Char ids of code points: ``i + 1`` for ``alphabet[i]``, and for any
    other character the id of its class, after the alphabet's ids."""
    distinct, inverse = np.unique(codes, return_inverse=True)
    ids = np.searchsorted(alphabet, distinct) + 1
    unseen = np.append(alphabet, _NO_CODE)[ids - 1] != distinct
    ids[unseen] = len(alphabet) + 1 + np.array(
        [_CLASS_INDEX[char_class(chr(c))] for c in distinct[unseen].tolist()], dtype=np.intp)
    return ids[inverse]


def _template_values(lengths, char_ids: np.ndarray, classes: np.ndarray):
    """Per template, in :func:`extract_features`' order, its integer value
    at every character of sentences of the given lengths laid end to end,
    with the given char ids: a window's char id, ``left * width + right``
    for a bigram (``width = len(classes)``, the number of char ids), the
    class index of ``c0``, 0 for the bias.  Two pad ids (0) go before,
    between and after the sentences, placed by position, so every character
    keeps its own id.  One template's array at a time.  Lengths are checked
    by :func:`corpus._sentence_lengths`."""
    lengths = _sentence_lengths(lengths, len(char_ids))
    where = np.arange(len(char_ids)) + 2 * np.repeat(np.arange(1, len(lengths) + 1), lengths)
    chars = np.zeros(len(where) + 2 * len(lengths) + 2, dtype=np.intp)
    chars[where] = char_ids
    for j in range(-2, 3):
        yield chars[where + j]
    yield chars[where - 1] * len(classes) + char_ids
    yield char_ids * len(classes) + chars[where + 1]
    yield classes[char_ids]
    yield np.zeros_like(where)


class _Tables:
    """A vocabulary's feature columns by template value, built from one
    ``(template, value, column)`` triple per feature, values as
    :func:`_template_values` computes them over char ids of ``alphabet``.
    A window, class or bias template indexes a dense row by value; a bigram
    template has sorted keys, ending in a sentinel no pair reaches."""

    def __init__(self, alphabet, classes, templates, values, columns, unk: int):
        self.alphabet, self.classes, self.unk = alphabet, classes, unk
        order = np.lexsort((values, templates))
        templates, values, columns = templates[order], values[order], columns[order]
        self.dense = np.full((FEATURES_PER_POSITION, len(classes)), unk, dtype=np.intp)
        dense = (templates != 5) & (templates != 6)
        self.dense[templates[dense], values[dense]] = columns[dense]
        self.bigrams = {t: (np.append(values[templates == t], _NO_KEY),
                            np.append(columns[templates == t], unk)) for t in (5, 6)}


def _parse_tables(index: dict[str, int], unk: int) -> _Tables:
    """The tables of a vocabulary's feature strings, over the characters its
    window and bigram features name.  Strings that no sentence can produce,
    such as ``bi-1=x<pad>`` or ``cls0=nonsense``, are left out, so they
    never fire; ``c0=<pad>`` is kept, but ``c0`` is never the pad."""
    named, rows = [], []   # (template, left, right, column) and (template, value, column)
    for feature, column in index.items():
        template, _, value = feature.partition("=")
        t = _TEMPLATE_INDEX.get(template, 7)
        if t < 7:   # only bi-1 can start and only bi0 can end with the pad
            left, right = ((PAD, value) if t < 5 else (value[:-1], value[-1:]) if t == 5
                           else (value[:1], value[1:]))
            if (len(left) == 1 or left == PAD) and (len(right) == 1 or right == PAD):
                named.append((t, left, right, column))
        elif template == "cls0" and value in _CLASS_INDEX:
            rows.append((7, _CLASS_INDEX[value], column))
        elif feature == "bias":
            rows.append((8, 0, column))
    alphabet = np.unique(_code_points("".join(ch for _, *pair, _ in named for ch in pair if ch != PAD)))
    classes = _char_classes(alphabet)
    char_id = {ch: k for k, ch in enumerate([PAD, *map(chr, alphabet.tolist())])}
    rows += [(t, char_id[left] * len(classes) + char_id[right], column)
             for t, left, right, column in named]
    templates, values, columns = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    return _Tables(alphabet, classes, templates, values, columns, unk)


def text_feature_ids(vocab: FeatureVocabulary, text: str, lengths) -> np.ndarray:
    """Feature ids of sentences of the given ``lengths`` laid end to end in
    ``text``, shape ``(sum(lengths), 9)``.  Equal, position by position, to
    looking up every :func:`extract_features` string in ``vocab.index``,
    with unseen strings mapped to ``vocab.unk_index``."""
    tables = vocab._tables
    char_ids = _char_ids(_code_points(text), tables.alphabet)
    ids = np.empty((FEATURES_PER_POSITION, len(char_ids)), dtype=np.intp)
    for t, values in enumerate(_template_values(lengths, char_ids, tables.classes)):
        if t in tables.bigrams:
            keys, columns = tables.bigrams[t]
            at = np.searchsorted(keys, values)
            ids[t] = np.where(keys[at] == values, columns[at], tables.unk)
        else:
            tables.dense[t].take(values, out=ids[t])
    return ids.T


def score_ids(weights: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Emission scores for feature ids of shape ``(..., 9)``: each position's
    weight rows summed from left to right, shape ``(..., 7)``.  An id that is
    not an integer in ``[0, len(weights))`` raises ``ValueError``."""
    try:   # one min for negative ids, which take would wrap; take raises for the rest
        if ids.dtype.kind not in "iu" or ids.size and ids.min() < 0:
            raise IndexError
        scores = weights.take(ids[..., 0], axis=0)
        for j in range(1, ids.shape[-1]):
            scores += weights.take(ids[..., j], axis=0)
    except IndexError:
        raise ValueError(f"feature ids must be integers in [0, {len(weights)})") from None
    return scores
