"""Per-character emission scores for the CRF from a trainable sparse linear
scorer over character indicator features.  Score matrices computed offline
by an external encoder are read by ``corpus.read_emission_blocks`` instead.

A :class:`FeatureVocabulary` is integer arrays; feature strings such as
``c0=肺`` exist only in the model file.  :func:`text_feature_ids`, the one
feature-id function, gathers the ids of sentences laid end to end as one
flat ``(sum(lengths), 9)`` array, and :func:`score_ids` turns it into the
batch's flat emissions by a ``crf.TaggerModel``'s plain weight array.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, fields

import numpy as np

from .corpus import _array, _code_points, _reals, _sentence_lengths

PAD = "<pad>"
UNK = "<unk>"

# fixed template set: 5 char windows, 2 bigrams, 1 char class, 1 bias
FEATURES_PER_POSITION = 9
_TEMPLATES = ("c-2", "c-1", "c0", "c+1", "c+2", "bi-1", "bi0")   # those whose values name chars
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


@dataclass(frozen=True, eq=False)
class FeatureVocabulary:
    """Frozen feature -> weight row map: feature k has template ``templates[k]``,
    value ``values[k]`` over the char ids of the sorted code points of
    ``alphabet`` (:func:`_template_values`) and row ``columns[k]``; unseen
    features fold into the ``unk_index`` row.  A window, class or bias
    feature's row is read from a dense table, a bigram's from sorted keys."""

    alphabet: np.ndarray
    templates: np.ndarray
    values: np.ndarray
    columns: np.ndarray
    unk_index: int = 0

    def __post_init__(self):
        given = [_array(getattr(self, field.name)) for field in fields(self)]
        if ([a.ndim for a in given] != [1, 1, 1, 1, 0] or len({len(a) for a in given[1:4]}) != 1
                or any(a.size and a.dtype.kind not in "iu" for a in given)):
            raise ValueError("a feature vocabulary needs 1-D integer arrays, with a template, "
                             "value and column per feature, and an integer unk index")
        alphabet, templates, values, columns, unk = arrays = [a.astype(np.intp) for a in given]
        for field, array in zip(fields(self), arrays):
            array.setflags(write=False)
            object.__setattr__(self, field.name, array if array.ndim else int(array))
        unk = self.unk_index
        if not np.array_equal(np.sort(np.append(columns, unk)), np.arange(len(columns) + 1)):
            raise ValueError(f"feature columns must be injective and, with the unk index {unk}, "
                             f"number the rows 0 to {len(columns)}")
        if not (np.diff(alphabet, prepend=-1, append=_NO_CODE) > 0).all():
            raise ValueError("the alphabet must be sorted distinct code points")
        n, width = len(alphabet), len(alphabet) + 1 + len(CHAR_CLASSES)   # pad, chars, classes
        # per template, the lowest and highest (left, right) of its values, left * width + right:
        # only bi0's left and c0's and bi-1's right are never the pad; a 10th template has none
        low, high = np.array([[[0] * 6 + [1, 0, 0, 1], [0, 0, 1, 0, 0, 1, 0, 0, 0, 1]],
                              [[0] * 5 + [n, n, 0, 0, 0], [n] * 7 + [len(CHAR_CLASSES) - 1, 0, 0]]]
                             )[:, :, np.where((0 <= templates) & (templates < 9), templates, 9)]
        pairs = np.stack(np.divmod(values, width))
        if ((pairs < low) | (pairs > high)).any():
            raise ValueError("a feature's template or value is out of range")
        keys = templates * width**2 + values   # one per (template, value)
        order = np.argsort(keys)
        if (np.diff(keys[order]) == 0).any():
            raise ValueError("two features share a template and value")
        bigram = (templates == 5) | (templates == 6)
        dense = np.full((FEATURES_PER_POSITION, width), unk, dtype=np.intp)
        dense[templates[~bigram], values[~bigram]] = columns[~bigram]
        order = order[bigram[order]]   # the bigrams by key
        for name, array in (("_classes", _char_classes(alphabet)), ("_dense", dense),
                            ("_keys", np.append(keys[order], _NO_KEY)),
                            ("_key_columns", np.append(columns[order], unk))):
            object.__setattr__(self, name, array)

    @classmethod
    def build(cls, text: str, lengths) -> "FeatureVocabulary":
        """Every feature of the sentences of the given ``lengths`` laid end to
        end in ``text``: each template's distinct values over the corpus's
        alphabet, in rows from 1 by first appearance (position by position,
        template by template), after the unk row 0."""
        codes = _code_points(text)
        alphabet = np.unique(codes)
        found = [np.unique(values, return_index=True) for values in _template_values(
            lengths, _char_ids(codes, alphabet), _char_classes(alphabet))]
        templates = np.repeat(np.arange(len(found)), [len(v) for v, _ in found])
        order = np.argsort(np.concatenate([first * len(found) + t
                                           for t, (_, first) in enumerate(found)]))
        return cls(alphabet, templates[order], np.concatenate([v for v, _ in found])[order],
                   np.arange(1, len(order) + 1), unk_index=0)

    @classmethod
    def from_names(cls, index: dict[str, int], unk_index: int) -> "FeatureVocabulary":
        """The vocabulary that :meth:`names` renders as ``index``, parsed
        once.  A string that no sentence produces, such as ``c0=<pad>``,
        ``bi-1=x<pad>`` or ``cls0=nonsense``, or ``<unk>`` on a row other
        than ``unk_index``, raises ``ValueError`` naming it."""
        named, rows = [], []   # (template, left, right, column) and (template, value, column)
        for feature, column in index.items():
            template, _, value = feature.partition("=")
            t = _TEMPLATE_INDEX.get(template, 7)
            # only bi-1 can start and only bi0 can end with the pad, and c0 is never it
            left, right = ((PAD, value) if t < 5 else (value[:-1], value[-1:]) if t == 5
                           else (value[:1], value[1:]))
            if t < 7 and (len(left) == 1 or left == PAD) and (
                    len(right) == 1 or right == PAD and t != 2):
                named.append((t, left, right, column))
            elif feature == "bias" or template == "cls0" and value in _CLASS_INDEX:
                rows.append((7, _CLASS_INDEX[value], column) if template == "cls0" else (8, 0, column))
            elif feature != UNK or column != unk_index:
                raise ValueError(f"feature {feature!r} is not one that a sentence produces")
        chars = {ch for _, left, right, _ in named for ch in (left, right)} - {PAD}
        char_id = {ch: k for k, ch in enumerate([PAD, *sorted(chars)])}
        width = len(char_id) + len(CHAR_CLASSES)
        rows += [(t, char_id[left] * width + char_id[right], c) for t, left, right, c in named]
        table = np.array(rows, dtype=np.int64).reshape(-1, 3)
        return cls(sorted(map(ord, chars)), *table[np.argsort(table[:, 2])].T, unk_index)

    def names(self) -> dict[str, int]:
        """Every row's feature string, as the model file holds it, in row
        order: ``<unk>`` for the unk row."""
        chars, width = [PAD, *map(chr, self.alphabet.tolist())], len(self._classes)
        rows = [UNK] * self.size
        for t, v, column in zip(*(a.tolist() for a in (self.templates, self.values, self.columns))):
            rows[column] = (f"{_TEMPLATES[t]}={chars[v]}" if t < 5
                            else f"{_TEMPLATES[t]}={chars[v // width]}{chars[v % width]}" if t < 7
                            else f"cls0={CHAR_CLASSES[v]}" if t == 7 else "bias")
        return {name: row for row, name in enumerate(rows)}

    @property
    def size(self) -> int:
        return len(self.columns) + 1


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
    ids[unseen] = len(alphabet) + 1 + _char_classes(distinct[unseen])[1:-len(CHAR_CLASSES)]
    return ids[inverse]


def _template_values(lengths, char_ids: np.ndarray, classes: np.ndarray):
    """Per template, in order, its integer value
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


def text_feature_ids(vocab: FeatureVocabulary, text: str, lengths) -> np.ndarray:
    """Feature ids of sentences of the given ``lengths`` laid end to end in
    ``text``, shape ``(sum(lengths), 9)``; a feature that ``vocab`` lacks
    takes ``vocab.unk_index``."""
    if not isinstance(vocab, FeatureVocabulary):
        raise ValueError(f"vocab must be a FeatureVocabulary, got {type(vocab).__name__}")
    char_ids = _char_ids(_code_points(text), vocab.alphabet)
    ids = np.empty((FEATURES_PER_POSITION, len(char_ids)), dtype=np.intp)
    for t, values in enumerate(_template_values(lengths, char_ids, vocab._classes)):
        if t in (5, 6):
            values += t * len(vocab._classes) ** 2
            at = np.searchsorted(vocab._keys, values)
            ids[t] = np.where(vocab._keys[at] == values, vocab._key_columns[at], vocab.unk_index)
        else:
            vocab._dense[t].take(values, out=ids[t])
    return ids.T


def score_ids(weights: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Emission scores for feature ids of shape ``(..., 9)``: each position's
    weight rows summed from left to right, shape ``(..., 7)``.  Weights that
    are not a 2-D array of real numbers, or an id that is not an integer in
    ``[0, len(weights))``, raise ``ValueError``."""
    weights, ids = _reals(weights, "weights"), _array(ids)
    try:   # one min for negative ids, which take would wrap; take raises for the rest
        if ids.dtype.kind not in "iu" or ids.size and ids.min() < 0:
            raise IndexError
        scores = weights.take(ids[..., 0], axis=0)
        for j in range(1, ids.shape[-1]):
            scores += weights.take(ids[..., j], axis=0)
    except IndexError:
        raise ValueError(f"feature ids must be integers in [0, {len(weights)})") from None
    return scores
