"""Linear-chain CRF over the 7-tag set.

A tag path is scored as

    score(y) = A[start, y_1] + sum_i A[y_i, y_{i+1}] + A[y_n, end]
             + sum_i P[i, y_i]

where P is the n x 7 emission matrix and A the 9 x 9 transition matrix with
virtual start/end tags at indices 7 and 8.

Training's forward-backward (:func:`batch_nll_and_gradient`) runs the scaled
recursion of Rabiner (1989, "A Tutorial on Hidden Markov Models", section
V-A) in probability space.  ``exp(A)`` and ``exp(P - rowmax(P))`` are taken
once per batch; each step is one ``(B, k) @ (k, k)`` matmul, after which
every row is divided by its sum, and log Z is the sum of the logs of those
scales and row maxima.  A row the recursion cannot carry in floats (a scale
that underflows below the smallest normal float or overflows, or a
non-finite log Z or marginal) is recomputed on its own by the log-space
recursion with max-shifted logsumexp, as is every row when ``exp(A)`` is not
finite.  :func:`batch_log_partition` keeps the log-space forward pass, and
Viterbi stays in log space because max-plus needs no exp.

There is one implementation of each recursion.  Training's recursions work
on padded batches: a zero-padded ``(B, n_max, 7)`` emission array ``P`` plus
a ``lengths`` vector, row ``b`` holding a sentence of ``lengths[b]``
positions (at least 1) followed by padding.  Gold paths are ``(B, n_max)``
integer arrays padded the same way; :func:`pad_batch` builds both.  They
step through positions once per batch, so padded positions compute values
that no result reads.  Padding is excluded by selection (``np.where``,
boolean indexing, slicing), never by multiplying with a 0/1 mask: a row that
overflowed holds inf there, and inf * 0 is NaN.  :func:`viterbi` is flat:
its ``(sum(lengths), 7)`` emissions hold the sentences end to end, and each
step works on the rows still running only, so there is no padding.  The
single-sentence functions are the batch-size-1 case.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import NUM_TAGS, TAG_LABELS, EmissionMatrix, Sentence, TagSequence, read_json_object
from .encoder import FeatureVocabulary, LinearScorerParams, score_sentence
from .tagscheme import tags_from_indices

START = NUM_TAGS        # virtual start tag, row START is read for entry scores
END = NUM_TAGS + 1      # virtual end tag, column END is read for exit scores
FULL_SIZE = NUM_TAGS + 2

MODEL_FORMAT = "radsigns-crf-linear/1"


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return np.squeeze(m, axis=axis) + np.log(np.exp(a - m).sum(axis=axis))


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """(k+2) x (k+2) tag-to-tag scores.  Entries into start and out of end
    are never read."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=np.float64)
        if matrix.shape != (FULL_SIZE, FULL_SIZE):
            raise ValueError(
                f"transition matrix must be {FULL_SIZE} x {FULL_SIZE}, "
                f"got shape {matrix.shape}"
            )
        if not np.isfinite(matrix).all():
            raise ValueError("non-finite transition score")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def start_index(self) -> int:
        return START

    @property
    def end_index(self) -> int:
        return END

    @classmethod
    def zeros(cls) -> "TransitionMatrix":
        return cls(np.zeros((FULL_SIZE, FULL_SIZE)))


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


def decoding_transitions(transitions: TransitionMatrix, constrain_bio: bool) -> np.ndarray:
    """The transition scores Viterbi uses: with ``constrain_bio`` the masked
    transitions score -inf, so a decoded path never opens an entity with an
    inside tag.  Training stays unconstrained."""
    if not constrain_bio:
        return transitions.matrix
    return np.where(BIO_TRANSITION_MASK, transitions.matrix, -np.inf)


def pad_batch(rows: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stack arrays of shape ``(n_i, ...)`` into one zero-padded
    ``(B, n_max, ...)`` array; also return the lengths ``n_i``."""
    lengths = np.array([len(row) for row in rows], dtype=np.intp)
    first = np.asarray(rows[0])
    batch = np.zeros((len(rows), int(lengths.max()), *first.shape[1:]), dtype=first.dtype)
    for b, row in enumerate(rows):
        batch[b, :len(row)] = row
    return batch, lengths


def _check_batch(P: np.ndarray, lengths: np.ndarray) -> None:
    if P.ndim != 3 or P.shape[2] != NUM_TAGS or P.shape[1] == 0:
        raise ValueError(f"emission batch must be B x n_max x {NUM_TAGS}, got {P.shape}")
    if lengths.shape != P.shape[:1] or (lengths < 1).any() or (lengths > P.shape[1]).any():
        raise ValueError(f"lengths must be one value in [1, {P.shape[1]}] per row")


def _forward(P: np.ndarray, A: np.ndarray) -> np.ndarray:
    """(B, n_max, k) forward log scores; entries past a row's length are
    never read."""
    B, n_max, k = P.shape
    alpha = np.empty((B, n_max, k))
    alpha[:, 0] = A[START, :k] + P[:, 0]
    for i in range(1, n_max):
        alpha[:, i] = _logsumexp(alpha[:, i - 1, :, None] + A[:k, :k], axis=1) + P[:, i]
    return alpha


def _backward(P: np.ndarray, A: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """(B, n_max, k) backward log scores, excluding the emission at i; each
    row restarts from the exit scores at its own last position."""
    B, n_max, k = P.shape
    beta = np.empty((B, n_max, k))
    beta[:, n_max - 1] = A[:k, END]
    for i in range(n_max - 2, -1, -1):
        inner = _logsumexp(A[:k, :k] + (P[:, i + 1] + beta[:, i + 1])[:, None, :], axis=2)
        beta[:, i] = np.where((i + 1 < lengths)[:, None], inner, A[:k, END])
    return beta


def _last(x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each row's entry at its last position."""
    return x[np.arange(len(lengths)), lengths - 1]


def _path_scores(P: np.ndarray, A: np.ndarray, lengths: np.ndarray, Y: np.ndarray) -> np.ndarray:
    positions = np.arange(P.shape[1])
    valid = positions < lengths[:, None]
    emitted = np.take_along_axis(P, Y[:, :, None], axis=2)[:, :, 0]
    moved = A[Y[:, :-1], Y[:, 1:]]
    return (
        A[START, Y[:, 0]]
        + np.where(valid, emitted, 0.0).sum(axis=1)
        + np.where(valid[:, 1:], moved, 0.0).sum(axis=1)
        + A[_last(Y, lengths), END]
    )


def batch_log_partition(P: np.ndarray, A: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """log of the summed exp-scores of all paths, one value per row."""
    _check_batch(P, lengths)
    return _logsumexp(_last(_forward(P, A), lengths) + A[:NUM_TAGS, END], axis=1)


def _log_marginals(P: np.ndarray, A: np.ndarray, lengths: np.ndarray):
    """Log-space forward-backward: ``(log_z, gamma, pairwise)`` with the tag
    marginals ``(B, n_max, k)``, 0 on padding, and the pairwise marginals
    summed over each row's positions ``(B, k, k)``."""
    B, n_max, k = P.shape
    alpha = _forward(P, A)
    beta = _backward(P, A, lengths)
    log_z = _logsumexp(_last(alpha, lengths) + A[:k, END], axis=1)

    valid = np.arange(n_max) < lengths[:, None]
    pair = valid[:, 1:]     # transition from position i to i + 1 lies inside the row
    # alpha includes the emission at i, beta does not, so their sum is the
    # full log mass of paths through (i, tag)
    gamma = np.zeros((B, n_max, k))
    gamma[valid] = np.exp(alpha[valid] + beta[valid] - log_z[np.nonzero(valid)[0], None])
    pairwise = np.zeros((B, n_max - 1, k, k))
    pairwise[pair] = np.exp(
        alpha[:, :-1][pair][:, :, None]
        + A[:k, :k]
        + (P[:, 1:] + beta[:, 1:])[pair][:, None, :]
        - log_z[np.nonzero(pair)[0], None, None]
    )
    return log_z, gamma, pairwise.sum(axis=1)


_TINY = np.finfo(np.float64).tiny


def _scaled_marginals(P: np.ndarray, A: np.ndarray, lengths: np.ndarray):
    """The same ``(log_z, gamma, pairwise)`` as :func:`_log_marginals`, from
    the scaled recursion in probability space.  ``log_z`` is NaN on each row
    the recursion cannot carry: a scale that is not a positive normal float,
    or a non-finite log Z or marginal."""
    B, n_max, k = P.shape
    T = np.exp(A[:k, :k])
    start = np.exp(A[START, :k])
    end = np.exp(A[:k, END])
    if not all(np.isfinite(x).all() for x in (T, start, end)):
        return np.full(B, np.nan), np.zeros((B, n_max, k)), np.zeros((B, k, k))
    shift = P.max(axis=2)
    E = np.exp(P - shift[:, :, None])
    valid = np.arange(n_max) < lengths[:, None]

    # alpha[:, i] sums to 1; c[:, i] is the mass it was divided by
    alpha = np.empty((B, n_max, k))
    c = np.empty((B, n_max))
    step = start * E[:, 0]
    for i in range(n_max):
        if i:
            step = (alpha[:, i - 1] @ T) * E[:, i]
        c[:, i] = step.sum(axis=1)
        alpha[:, i] = step / c[:, i, None]
    # beta[:, i] is the backward mass divided by the scales after i, and
    # weighted[:, i] the term each step feeds through T
    beta = np.empty((B, n_max, k))
    weighted = E / c[:, :, None]
    beta[:, n_max - 1] = end
    for i in range(n_max - 1, 0, -1):
        weighted[:, i] *= beta[:, i]
        beta[:, i - 1] = np.where(valid[:, i, None], weighted[:, i] @ T.T, end)

    exit_mass = _last(alpha, lengths) @ end
    scales = np.where(valid, c, 1.0)
    log_z = (np.log(scales) + np.where(valid, shift, 0.0)).sum(axis=1) + np.log(exit_mass)
    gamma = np.where(valid[:, :, None], alpha * beta, 0.0) / exit_mass[:, None, None]
    pair = valid[:, 1:, None]
    pairwise = np.einsum(
        "bik,bil->bkl", np.where(pair, alpha[:, :-1], 0.0), np.where(pair, weighted[:, 1:], 0.0)
    ) * T / exit_mass[:, None, None]
    carried = (
        (scales.min(axis=1) >= _TINY) & (exit_mass >= _TINY)
        & np.isfinite(log_z + gamma.sum(axis=(1, 2)) + pairwise.sum(axis=(1, 2)))
    )
    return np.where(carried, log_z, np.nan), gamma, pairwise


def batch_nll_and_gradient(
    P: np.ndarray, A: np.ndarray, lengths: np.ndarray, Y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row NLL of the gold paths ``Y`` with both gradients, from one
    forward-backward pass over the batch.

    Returns values ``(B,)``, emission gradients ``(B, n_max, k)`` that are 0
    on padding, and transition gradients ``(B, k+2, k+2)``.
    """
    _check_batch(P, lengths)
    B, n_max, k = P.shape
    with np.errstate(all="ignore"):
        log_z, gamma, pairwise = _scaled_marginals(P, A, lengths)
    slow = np.isnan(log_z)
    if slow.any():
        log_z[slow], gamma[slow], pairwise[slow] = _log_marginals(P[slow], A, lengths[slow])

    valid = np.arange(n_max) < lengths[:, None]
    rows, cols = np.nonzero(valid)
    pair_rows, pair_cols = np.nonzero(valid[:, 1:])
    grad_a = np.zeros((B, FULL_SIZE, FULL_SIZE))
    grad_a[:, :k, :k] = pairwise
    np.add.at(
        grad_a,
        (pair_rows, Y[pair_rows, pair_cols], Y[pair_rows, pair_cols + 1]),
        -1.0,
    )
    batch = np.arange(B)
    grad_a[:, START, :k] += gamma[:, 0]
    grad_a[batch, START, Y[:, 0]] -= 1.0
    grad_a[:, :k, END] += _last(gamma, lengths)
    grad_a[batch, _last(Y, lengths), END] -= 1.0
    grad_p = gamma      # gamma is not read again
    grad_p[rows, cols, Y[rows, cols]] -= 1.0

    values = log_z - _path_scores(P, A, lengths, Y)
    return values, grad_p, grad_a


def viterbi(P: np.ndarray, A: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Highest-scoring tag path of each row of flat ``(sum(lengths), 7)``
    emissions, the rows laid end to end, as one flat ``uint8`` index path in
    the same layout.  Ties break toward the lowest tag index."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if P.ndim != 2 or P.shape[1] != NUM_TAGS or (lengths < 1).any() or lengths.sum() != len(P):
        raise ValueError(f"emissions must be sum(lengths) x {NUM_TAGS} for lengths of at "
                         f"least 1, got {P.shape} for {lengths.size} rows")
    k = NUM_TAGS
    path = np.empty(len(P), dtype=np.uint8)
    # longest row first, so the rows still running at step i are the first
    # active[i]; no step touches a row that has ended
    order = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    active = np.searchsorted(-lengths[order], -np.arange(lengths.max(initial=0)), side="left")
    moves = np.ascontiguousarray(A[:k, :k].T)   # (to, from)
    # row r's first entry in a flat (m, to) array is r * k, and its (r, to)
    # cell's first candidate in a flat (m, to, from) array is (r * k + to) * k
    cells = np.arange(0, len(lengths) * k * k, k)
    delta = A[START, :k] + P[starts]
    back = [None]
    for i, m in enumerate(active[1:].tolist(), 1):
        candidates = (delta[:m, None, :] + moves).ravel()
        best = candidates.reshape(m * k, k).argmax(axis=1)
        back.append(best.astype(np.uint8))
        # the max read back at the argmax: the same float a max() returns
        delta[:m] = candidates[cells[:m * k] + best].reshape(m, k) + P[starts[:m] + i]
    # rows that ended early kept the delta of their last position
    tag = np.argmax(delta + A[:k, END], axis=1)
    for i in range(len(active) - 1, 0, -1):
        m = active[i]
        path[starts[:m] + i] = tag[:m]
        tag[:m] = back[i][cells[:m] + tag[:m]]
    path[starts] = tag
    return path


def _single(emissions: EmissionMatrix, tags: TagSequence | None = None):
    """The batch-size-1 arguments for one sentence."""
    P = emissions.scores[None]
    lengths = np.array([emissions.n], dtype=np.intp)
    if tags is None:
        return P, lengths
    if len(tags) != emissions.n:
        raise ValueError(
            f"emission matrix has {emissions.n} rows but tag sequence "
            f"for {tags.sentence_id!r} has {len(tags)}"
        )
    return P, lengths, np.frombuffer(tags.indices, np.uint8)[None].astype(np.intp)


def path_score(emissions: EmissionMatrix, transitions: TransitionMatrix, tags: TagSequence) -> float:
    """Unnormalized log-score of one tag path."""
    P, lengths, Y = _single(emissions, tags)
    return float(_path_scores(P, transitions.matrix, lengths, Y)[0])


def log_partition(emissions: EmissionMatrix, transitions: TransitionMatrix) -> float:
    """log of the summed exp-scores of all 7^n paths, via the forward pass."""
    P, lengths = _single(emissions)
    return float(batch_log_partition(P, transitions.matrix, lengths)[0])


def nll(emissions: EmissionMatrix, transitions: TransitionMatrix, gold: TagSequence) -> float:
    """Negated log-likelihood of the gold path; non-negative."""
    P, lengths, Y = _single(emissions, gold)
    A = transitions.matrix
    return float(batch_log_partition(P, A, lengths)[0] - _path_scores(P, A, lengths, Y)[0])


def nll_and_gradient(
    emissions: EmissionMatrix, transitions: TransitionMatrix, gold: TagSequence
) -> tuple[float, np.ndarray, np.ndarray]:
    """NLL value together with both gradients, from one forward-backward
    pass: per-position tag marginals minus gold indicators, and the
    transition analogue from pairwise marginals."""
    P, lengths, Y = _single(emissions, gold)
    values, grad_p, grad_a = batch_nll_and_gradient(P, transitions.matrix, lengths, Y)
    return float(values[0]), grad_p[0], grad_a[0]


def viterbi_decode(
    emissions: EmissionMatrix,
    transitions: TransitionMatrix,
    constrain_bio: bool = False,
) -> TagSequence:
    """Highest-scoring tag path; ties break toward the lowest tag index.

    With ``constrain_bio`` the transitions are masked as in
    :func:`decoding_transitions`.
    """
    A = decoding_transitions(transitions, constrain_bio)
    path = viterbi(emissions.scores, A, np.array([emissions.n]))
    return tags_from_indices(emissions.sentence_id, path)


@dataclass(frozen=True, eq=False)
class TaggerModel:
    """Trained feature scorer plus transition weights."""

    vocab: FeatureVocabulary
    weights: LinearScorerParams
    transitions: TransitionMatrix

    def emissions(self, sentence: Sentence) -> EmissionMatrix:
        return score_sentence(sentence, self.weights, self.vocab)

    def decode(self, sentence: Sentence, constrain_bio: bool = True) -> TagSequence:
        return viterbi_decode(self.emissions(sentence), self.transitions, constrain_bio)


def save_model(model: TaggerModel, path) -> None:
    document = {
        "format": MODEL_FORMAT,
        "tags": list(TAG_LABELS),
        "features": model.vocab.index,
        "unk_index": model.vocab.unk_index,
        "weights": model.weights.weights.tolist(),
        "transitions": model.transitions.matrix.tolist(),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(document, fh, ensure_ascii=False)
        fh.write("\n")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_model(path) -> TaggerModel:
    """Read a model file; any malformed document raises ``ValueError``
    naming the path."""
    document = read_json_object(path, "model")
    if document.get("format") != MODEL_FORMAT:
        raise ValueError(
            f"{path}: unsupported model format {document.get('format')!r}"
        )
    tags = document.get("tags")
    if not isinstance(tags, list) or tuple(tags) != TAG_LABELS:
        raise ValueError(f"{path}: model tag set does not match {TAG_LABELS}")
    features = document.get("features")
    if not isinstance(features, dict) or not all(map(_is_int, features.values())):
        raise ValueError(f"{path}: 'features' must map feature strings to integer columns")
    if not _is_int(document.get("unk_index")):
        raise ValueError(f"{path}: 'unk_index' must be an integer")
    for key in ("weights", "transitions"):
        if not isinstance(document.get(key), list):
            raise ValueError(f"{path}: {key!r} must be a list of rows")
    try:
        vocab = FeatureVocabulary(features, document["unk_index"])
        weights = LinearScorerParams(np.array(document["weights"], dtype=np.float64))
        transitions = TransitionMatrix(np.array(document["transitions"], dtype=np.float64))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if weights.weights.shape[0] != vocab.size:
        raise ValueError(f"{path}: weight rows do not match feature count")
    return TaggerModel(vocab, weights, transitions)
