"""Linear-chain CRF over the 7-tag set.

A tag path is scored as

    score(y) = A[start, y_1] + sum_i A[y_i, y_{i+1}] + A[y_n, end]
             + sum_i P[i, y_i]

where P is the n x 7 emission matrix and A the 9 x 9 transition matrix that
:class:`TaggerModel` holds, with virtual start/end tags at indices 7 and 8.

Training's forward-backward (:func:`batch_nll_and_gradient`) runs the scaled
recursion of Rabiner (1989, "A Tutorial on Hidden Markov Models", section
V-A) in probability space.  ``exp(A)`` and ``exp(P - rowmax(P))`` are taken
once per batch; each step is one ``(m, k) @ (k, k)`` matmul over the m rows
still running, after which every row is divided by its sum, and log Z is the
sum of the logs of those scales and row maxima.  A step writes into views of
arrays allocated once per call.  A row the recursion cannot carry in floats
(a scale that underflows below the smallest normal float or overflows, or a
non-finite log Z or marginal) is recomputed on its own by the log-space
recursion with max-shifted logsumexp, as is every row when ``exp(A)`` is not
finite.  :func:`batch_log_partition` keeps the log-space
forward pass, and Viterbi stays in log space because max-plus needs no exp.

There is one implementation of each recursion, and one batch layout.  Every
batch function takes flat ``(sum(lengths), 7)`` emissions ``P``, the
sentences laid end to end, with a ``lengths`` vector (each at least 1) and,
for training, flat ``(sum(lengths),)`` gold tag indices ``Y``.  Each
recursion repacks the rows step-major, the layout of PyTorch's
``PackedSequence``: step i holds position i of every row longer than i in
one contiguous slice, longest row first, so the rows that go on to step
i + 1 are a prefix of that slice and a step reads and writes slices only.
Viterbi's forward pass holds its scores tag-major, as one ``(7,
sum(lengths))`` table of columns in this order, and its backtrace reads a
position-major copy of that table.  Nothing is padded.  Per-row results are
reduced over the flat rows.  One sentence of n positions is a batch of one:
its ``(n, 7)`` emissions with ``lengths`` of ``[n]``.  Each entry point
checks its arguments, any real array-likes, once and converts them to
float64 once.  A NaN transition is rejected; -inf marks a masked one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .corpus import NUM_TAGS, TAG_LABELS, CorpusFormatError, _array, _sentence_lengths, read_json_object
from .encoder import FeatureVocabulary

START = NUM_TAGS        # virtual start tag, row START is read for entry scores
END = NUM_TAGS + 1      # virtual end tag, column END is read for exit scores
FULL_SIZE = NUM_TAGS + 2

MODEL_FORMAT = "radsigns-crf-linear/1"


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return np.squeeze(m, axis=axis) + np.log(np.exp(a - m).sum(axis=axis))


def _bio_transition_mask() -> np.ndarray:
    mask = np.ones((FULL_SIZE, FULL_SIZE), dtype=bool)
    for inside in range(2, NUM_TAGS, 2):   # I-X tags; B-X is inside - 1
        mask[:, inside] = False
        mask[inside - 1:inside + 1, inside] = True
    mask.setflags(write=False)
    return mask


# Boolean (k+2) x (k+2) matrix; False marks transitions into I-X from
# anything other than B-X or I-X.
BIO_TRANSITION_MASK = _bio_transition_mask()


def decoding_transitions(transitions: np.ndarray, constrain_bio: bool) -> np.ndarray:
    """The transition scores Viterbi uses: with ``constrain_bio`` the masked
    transitions score -inf, so a decoded path never opens an entity with an
    inside tag.  Training stays unconstrained."""
    if not constrain_bio:
        return transitions
    return np.where(BIO_TRANSITION_MASK, transitions, -np.inf)


class _Packed(NamedTuple):
    """Flat rows repacked step-major, as the module docstring describes:
    ``flat[perm]`` is packed and ``packed[inv]`` flat again."""

    lengths: np.ndarray
    starts: np.ndarray      # each row's first flat position
    order: np.ndarray       # rows longest first: the order of every step's slice
    perm: np.ndarray
    inv: np.ndarray
    last: np.ndarray        # each row's last packed position
    pairs: list             # per step i >= 1: (prefix of step i - 1, step i) slices


def _arguments(P, A) -> tuple[np.ndarray, np.ndarray]:
    """Emissions ``P`` and transitions ``A``, each checked, as float64 arrays."""
    P, A = _array(P), _array(A)
    if P.dtype.kind not in "iuf" or P.ndim != 2 or P.shape[1] != NUM_TAGS:
        raise ValueError(f"emissions must be real numbers of shape (sum(lengths), {NUM_TAGS}), "
                         f"got {P.dtype} {P.shape}")
    if A.dtype.kind not in "iuf" or A.shape != (FULL_SIZE, FULL_SIZE):
        raise ValueError(f"transitions must be real numbers of shape ({FULL_SIZE}, {FULL_SIZE}), "
                         f"got {A.dtype} {A.shape}")
    if np.isnan(A).any():   # one isnan over 81 entries; -inf, a masked transition, passes
        raise ValueError("transitions must not be NaN")
    return P.astype(np.float64, copy=False), A.astype(np.float64, copy=False)


def _pack(P: np.ndarray, lengths) -> _Packed:
    lengths = _sentence_lengths(lengths, len(P))
    order = np.argsort(-lengths, kind="stable")
    ends = np.cumsum(lengths)
    # active[i] rows are longer than i; step i is packed[off[i]:off[i] + active[i]]
    active = np.searchsorted(-lengths[order], -np.arange(lengths.max(initial=0)), side="left")
    off = np.cumsum(active) - active
    slot = np.arange(len(P)) - np.repeat(off, active)   # rank of each packed position's row
    perm = (ends - lengths)[order][slot] + np.repeat(np.arange(len(active)), active)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(P))
    pairs = [(slice(a, a + m), slice(b, b + m))
             for a, b, m in zip(off.tolist(), off[1:].tolist(), active[1:].tolist())]
    return _Packed(lengths, ends - lengths, order, perm, inv, inv[ends - 1], pairs)


def _forward(P: np.ndarray, A: np.ndarray, pack: _Packed) -> tuple[np.ndarray, np.ndarray]:
    """Forward log scores of packed emissions ``P``, and each row's log Z."""
    k, B = NUM_TAGS, len(pack.lengths)
    alpha = np.empty_like(P)
    alpha[:B] = A[START, :k] + P[:B]
    for prev, cur in pack.pairs:
        alpha[cur] = _logsumexp(alpha[prev][:, :, None] + A[:k, :k], axis=1) + P[cur]
    return alpha, _logsumexp(alpha[pack.last] + A[:k, END], axis=1)


def _previous_tags(Y: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each flat position's previous gold tag, ``START`` at a row's start."""
    previous = np.empty_like(Y)
    previous[1:] = Y[:-1]
    previous[starts] = START
    return previous


def _path_scores(P: np.ndarray, A: np.ndarray, lengths: np.ndarray, Y: np.ndarray) -> np.ndarray:
    ends = np.cumsum(lengths)
    steps = P[np.arange(len(Y)), Y] + A[_previous_tags(Y, ends - lengths), Y]
    return np.add.reduceat(steps, ends - lengths) + A[Y[ends - 1], END]


def batch_log_partition(P, A, lengths) -> np.ndarray:
    """log of the summed exp-scores of all paths, one value per row."""
    P, A = _arguments(P, A)
    pack = _pack(P, lengths)
    return _forward(P[pack.perm], A, pack)[1]


def _log_marginals(P: np.ndarray, A: np.ndarray, lengths: np.ndarray):
    """Log-space forward-backward: ``(log_z, gamma, pairwise)`` with the flat
    tag marginals ``(sum(lengths), k)`` and the pairwise marginals summed
    over each row's positions ``(B, k, k)``."""
    pack = _pack(P, lengths)
    k = NUM_TAGS
    P = P[pack.perm]
    alpha, log_z = _forward(P, A, pack)
    sorted_z = log_z[pack.order, None, None]
    # beta excludes the emission at a position and alpha includes it, so
    # their sum is the full log mass of paths through (position, tag)
    beta = np.tile(A[:k, END], (len(P), 1))
    pairwise = np.zeros((len(log_z), k, k))
    for prev, cur in reversed(pack.pairs):
        ahead = (P[cur] + beta[cur])[:, None, :]
        beta[prev] = _logsumexp(A[:k, :k] + ahead, axis=2)
        m = cur.stop - cur.start
        pairwise[:m] += np.exp(alpha[prev][:, :, None] + A[:k, :k] + ahead - sorted_z[:m])
    gamma = np.exp((alpha + beta)[pack.inv] - np.repeat(log_z, pack.lengths)[:, None])
    pairwise[pack.order] = pairwise.copy()
    return log_z, gamma, pairwise


_TINY = np.finfo(np.float64).tiny


def _scaled_marginals(P: np.ndarray, A: np.ndarray, pack: _Packed):
    """The same ``(log_z, gamma, pairwise)`` as :func:`_log_marginals`, from
    the scaled recursion in probability space over ``P`` as ``pack`` lays it
    out.  ``log_z`` is NaN on each row the recursion cannot carry: a scale
    that is not a positive normal float, or a non-finite log Z or marginal."""
    B, k = len(pack.lengths), NUM_TAGS
    expA = np.exp(A)
    # end is a copy: ``@`` on a strided vector rounds a one-row batch differently
    T, start, end = expA[:k, :k], expA[START, :k], expA[:k, END].copy()
    if not (np.isfinite(expA[:START + 1, :k]).all() and np.isfinite(end).all()):
        return np.full(B, np.nan), np.zeros_like(P), np.zeros((B, k, k))
    shift = P.max(axis=1)
    E = np.exp(P - shift[:, None])[pack.perm]

    # each alpha row sums to 1; c is the mass it was divided by, in place: no __setitem__
    alpha, c = np.empty_like(E), np.empty(len(E))
    scale = c[:, None]
    np.multiply(start, E[:B], out=alpha[:B])
    for prev, cur in [(None, slice(0, B)), *pack.pairs]:
        step = alpha[cur]
        if prev is not None:
            np.matmul(alpha[prev], T, out=step)
            step *= E[cur]
        np.add.reduce(step, 1, out=c[cur])
        step /= scale[cur]
    # beta is the backward mass divided by the scales after its position,
    # and weighted the term each step feeds through T; pairwise sums each
    # step's outer products, its rows longest first, the last step first
    beta, weighted = end[None].repeat(len(E), axis=0), E / scale
    pairwise, outer = np.zeros((B, k, k)), np.empty((B, k, k))
    left, right, back = alpha[:, :, None], weighted[:, None, :], T.T
    for prev, cur in reversed(pack.pairs):
        ahead, m = weighted[cur], cur.stop - cur.start
        ahead *= beta[cur]
        np.matmul(ahead, back, out=beta[prev])
        product, total = outer[:m], pairwise[:m]
        np.multiply(left[prev], right[cur], out=product)
        total += product

    exit_mass = alpha[pack.last] @ end
    c = c[pack.inv]
    log_z = np.add.reduceat(np.log(c) + shift, pack.starts) + np.log(exit_mass)
    gamma = (alpha * beta)[pack.inv] / np.repeat(exit_mass, pack.lengths)[:, None]
    pairwise[pack.order] = pairwise * T / exit_mass[pack.order, None, None]
    carried = (
        (np.minimum.reduceat(c, pack.starts) >= _TINY) & (exit_mass >= _TINY)
        & np.isfinite(log_z + np.add.reduceat(gamma.sum(axis=1), pack.starts)
                      + pairwise.sum(axis=(1, 2)))
    )
    return np.where(carried, log_z, np.nan), gamma, pairwise


def batch_nll_and_gradient(P, A, lengths, Y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row NLL of the gold paths ``Y`` with both gradients, from one
    forward-backward pass over the batch.

    Returns values ``(B,)``, flat emission gradients ``(sum(lengths), k)``
    and transition gradients ``(B, k+2, k+2)``.
    """
    P, A = _arguments(P, A)
    Y = np.asarray(Y)
    if (Y.shape != P.shape[:1] or Y.dtype.kind not in "iu"
            or Y.size and not 0 <= Y.min() <= Y.max() < NUM_TAGS):
        raise ValueError(f"gold path must be {len(P)} tag indices in [0, {NUM_TAGS}), got {Y!r:.60}")
    pack = _pack(P, lengths)
    lengths = pack.lengths
    with np.errstate(all="ignore"):
        log_z, gamma, pairwise = _scaled_marginals(P, A, pack)
        slow = np.isnan(log_z)
        if slow.any():
            rows = np.repeat(slow, lengths)
            log_z[slow], gamma[rows], pairwise[slow] = _log_marginals(P[rows], A, lengths[slow])

    B, k, starts, last = len(lengths), NUM_TAGS, pack.starts, pack.starts + lengths - 1
    grad_a = np.zeros((B, FULL_SIZE, FULL_SIZE))
    grad_a[:, :k, :k] = pairwise
    grad_a[:, START, :k] += gamma[starts]
    grad_a[:, :k, END] += gamma[last]
    np.add.at(grad_a, (np.repeat(np.arange(B), lengths), _previous_tags(Y, starts), Y), -1.0)
    grad_a[np.arange(B), Y[last], END] -= 1.0
    grad_p = gamma      # gamma is not read again
    grad_p[np.arange(len(Y)), Y] -= 1.0

    values = log_z - _path_scores(P, A, lengths, Y)
    return values, grad_p, grad_a


def viterbi(P, A, lengths) -> np.ndarray:
    """Highest-scoring tag path of each row of flat ``(sum(lengths), 7)``
    emissions, the rows laid end to end, as one flat ``uint8`` index path in
    the same layout.  Ties break toward the lowest tag index."""
    P, A = _arguments(P, A)
    pack = _pack(P, lengths)
    k, B = NUM_TAGS, len(pack.lengths)
    D = np.take(P.T, pack.perm, axis=1)   # (tag, packed position): each step's best scores
    D[:, :B] += A[START, :k, None]
    for prev, cur in pack.pairs:   # the max over (from, to, row) candidates; no back-pointers
        D[:, cur] += (D[:, None, prev] + A[:k, :k, None]).max(axis=0)
    # the backtrace takes the argmax over the same candidate floats, for the chosen tag only
    tag = (D[:, pack.last[pack.order]] + A[:k, END, None]).argmax(axis=0)
    D, into = D.T.copy(), A[:k, :k].T.copy()   # position-major: each argmax runs along rows
    path = np.empty(len(P), dtype=np.uint8)
    for prev, cur in reversed(pack.pairs):
        m = cur.stop - cur.start
        path[cur] = tag[:m]
        tag[:m] = (D[prev] + into.take(tag[:m], axis=0)).argmax(axis=1)
    path[:B] = tag
    return path[pack.inv]


@dataclass(frozen=True, eq=False)
class TaggerModel:
    """The one model type: feature weights, a row per feature of ``vocab`` and
    a column per tag, and 9 x 9 transition weights, kept as read-only float64
    copies, since a trainer goes on updating its own arrays.  The always-on
    bias feature absorbs a bias term, and transitions into start or out of
    end are never read."""

    vocab: FeatureVocabulary
    weights: np.ndarray
    transitions: np.ndarray

    def __post_init__(self):
        if not isinstance(self.vocab, FeatureVocabulary):
            raise ValueError(f"vocab must be a FeatureVocabulary, got {type(self.vocab).__name__}")
        for name, shape, wrong_shape in (
                ("weights", (self.vocab.size, NUM_TAGS), "weight rows do not match feature count"),
                ("transitions", (FULL_SIZE, FULL_SIZE), "transition matrix must be 9 x 9")):
            array = _array(getattr(self, name))
            if array.dtype.kind not in "iuf":
                raise ValueError(f"{name} must be real numbers, got {array.dtype}")
            if array.shape != shape:
                raise ValueError(f"{wrong_shape}: {name} of shape {array.shape}, not {shape}")
            array = np.array(array, dtype=np.float64)
            if not np.isfinite(array).all():
                raise ValueError(f"non-finite {name}")
            array.setflags(write=False)
            object.__setattr__(self, name, array)


def save_model(model: TaggerModel, path) -> None:
    document = {
        "format": MODEL_FORMAT,
        "tags": list(TAG_LABELS),
        "features": model.vocab.index,
        "unk_index": model.vocab.unk_index,
        "weights": model.weights.tolist(),
        "transitions": model.transitions.tolist(),
    }
    # one json.dumps call runs the C encoder; json.dump would run the Python one
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(document, ensure_ascii=False) + "\n")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_model(path) -> TaggerModel:
    """Read a model file; any malformed document raises ``CorpusFormatError``
    naming the path."""
    document = read_json_object(path, "model")
    if document.get("format") != MODEL_FORMAT:
        raise CorpusFormatError(f"{path}: unsupported model format {document.get('format')!r}")
    tags = document.get("tags")
    if not isinstance(tags, list) or tuple(tags) != TAG_LABELS:
        raise CorpusFormatError(f"{path}: model tag set does not match {TAG_LABELS}")
    features = document.get("features")
    if not isinstance(features, dict) or not all(map(_is_int, features.values())):
        raise CorpusFormatError(f"{path}: 'features' must map feature strings to integer columns")
    if not _is_int(document.get("unk_index")):
        raise CorpusFormatError(f"{path}: 'unk_index' must be an integer")
    for key in ("weights", "transitions"):
        rows = document.get(key)
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)
                and set(map(type, chain.from_iterable(rows))) <= {int, float}):   # no str, bool
            raise CorpusFormatError(f"{path}: {key!r} must be a list of rows of numbers")
    try:
        return TaggerModel(FeatureVocabulary(features, document["unk_index"]),
                           np.array(document["weights"], dtype=np.float64),
                           np.array(document["transitions"], dtype=np.float64))
    except (TypeError, ValueError, OverflowError) as exc:   # an int beyond float range
        raise CorpusFormatError(f"{path}: {exc}") from exc
