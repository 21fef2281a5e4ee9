import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from radsigns import crf

from radsigns.corpus import NUM_TAGS, TAG_INDEX, CorpusFormatError
from radsigns.crf import (
    END,
    START,
    BIO_TRANSITION_MASK,
    TaggerModel,
    batch_log_partition,
    batch_nll_and_gradient,
    decoding_transitions,
    load_model,
    save_model,
    viterbi,
)
from radsigns.encoder import FeatureVocabulary

from _synth import bio_violations, brute_force_argmax, brute_force_log_partition, enumerate_paths, tags_of
from conftest import decode_sentence


def random_instance(rng, n):
    """One sentence's emissions P and a transition matrix A."""
    return rng.standard_normal((n, 7)), rng.standard_normal((9, 9))


def random_gold(rng, n):
    return rng.integers(0, 7, size=n)


def forward_nll(P, A, y):
    """One sentence's NLL: the forward pass's log Z minus the score of the
    gold path ``y``, at batch size 1."""
    lengths = [len(P)]
    return batch_log_partition(P, A, lengths)[0] - crf._path_scores(P, A, lengths, y)[0]


# ---------------------------------------------------------------------------
# Per-sentence loop reference: the forward-backward and Viterbi recursions
# written one position at a time, for checking the batched implementation.


def _lse(a, axis):
    m = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(a - m), axis=axis))


def loop_backward(P, A):
    """(n, k) backward log scores, excluding the emission at i."""
    n, k = P.shape
    beta = np.empty((n, k))
    beta[n - 1] = A[:k, END]
    for i in range(n - 2, -1, -1):
        beta[i] = _lse(A[:k, :k] + (P[i + 1] + beta[i + 1])[None, :], axis=1)
    return beta


def loop_nll_and_gradient(P, A, y):
    n, k = P.shape
    alpha = np.empty((n, k))
    alpha[0] = A[START, :k] + P[0]
    for i in range(1, n):
        alpha[i] = _lse(alpha[i - 1][:, None] + A[:k, :k], axis=0) + P[i]
    beta = loop_backward(P, A)
    log_z = float(_lse(alpha[-1] + A[:k, END], axis=0))
    gamma = np.exp(alpha + beta - log_z)
    grad_p = gamma.copy()
    grad_p[np.arange(n), y] -= 1.0
    grad_a = np.zeros_like(A)
    for i in range(n - 1):
        grad_a[:k, :k] += np.exp(
            alpha[i][:, None] + A[:k, :k] + (P[i + 1] + beta[i + 1])[None, :] - log_z
        )
        grad_a[y[i], y[i + 1]] -= 1.0
    grad_a[START, :k] += gamma[0]
    grad_a[START, y[0]] -= 1.0
    grad_a[:k, END] += gamma[-1]
    grad_a[y[-1], END] -= 1.0
    score = A[START, y[0]] + A[y[-1], END] + sum(P[i, y[i]] for i in range(n))
    score += sum(A[y[i], y[i + 1]] for i in range(n - 1))
    return log_z, log_z - score, grad_p, grad_a


def split_path(path, lengths):
    """A flat Viterbi path cut back into one list per row."""
    return [part.tolist() for part in np.split(path, np.cumsum(lengths)[:-1])]


def loop_viterbi(P, A):
    n, k = P.shape
    delta = A[START, :k] + P[0]
    back = np.zeros((n, k), dtype=np.intp)
    for i in range(1, n):
        candidates = delta[:, None] + A[:k, :k]
        back[i] = np.argmax(candidates, axis=0)
        delta = np.max(candidates, axis=0) + P[i]
    path = [int(np.argmax(delta + A[:k, END]))]
    for i in range(n - 1, 0, -1):
        path.append(int(back[i, path[-1]]))
    return path[::-1]


def tag_major_viterbi(P, A, lengths):
    """:func:`viterbi` with a tag-major backtrace, each step's argmax down
    the columns of a ``(7, m)`` block of the forward table: the reference
    for its position-major backtrace."""
    pack = crf._pack(P, lengths)
    k, B = NUM_TAGS, len(pack.lengths)
    D = np.take(P.T, pack.perm, axis=1)
    D[:, :B] += A[START, :k, None]
    for prev, cur in pack.pairs:
        D[:, cur] += (D[:, None, prev] + A[:k, :k, None]).max(axis=0)
    tag = (D[:, pack.last[pack.order]] + A[:k, END, None]).argmax(axis=0)
    path = np.empty(len(P), dtype=np.uint8)
    for prev, cur in reversed(pack.pairs):
        m = cur.stop - cur.start
        path[cur] = tag[:m]
        tag[:m] = (D[:, prev] + A[:k, tag[:m]]).argmax(axis=0)
    path[:B] = tag
    return path[pack.inv]


class TestPathScore:
    def test_all_zero(self):
        gold = random_gold(np.random.default_rng(0), 4)
        assert crf._path_scores(np.zeros((4, 7)), np.zeros((9, 9)), [4], gold)[0] == 0.0

    def test_single_token_expansion(self):
        scores = np.arange(7, dtype=float)[None, :]
        a = np.zeros((9, 9))
        t = 3
        a[START, t] = 1.5
        a[t, END] = -0.25
        got = crf._path_scores(scores, a, [1], np.array([t]))[0]
        assert got == pytest.approx(scores[0, t] + 1.5 - 0.25)

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            P, A = random_instance(rng, 3)
            y = rng.integers(0, 7, size=3).tolist()
            # independent oracle: explicit sum of every term
            expected = A[START, y[0]]
            for i in range(3):
                expected += P[i, y[i]]
            for i in range(2):
                expected += A[y[i], y[i + 1]]
            expected += A[y[-1], END]
            got = crf._path_scores(P, A, [3], np.array(y))[0]
            assert got == pytest.approx(expected, rel=1e-12)


class TestLogPartition:
    def test_uniform_is_n_log_k(self):
        for n in (1, 2, 5, 9):
            got = batch_log_partition(np.zeros((n, 7)), np.zeros((9, 9)), [n])[0]
            assert got == pytest.approx(n * math.log(7), rel=1e-12)

    def test_single_position_is_logsumexp(self):
        rng = np.random.default_rng(5)
        P, A = random_instance(rng, 1)
        terms = [crf._path_scores(P, A, [1], np.array([t]))[0] for t in range(7)]
        expected = math.log(sum(math.exp(v) for v in terms))
        assert batch_log_partition(P, A, [1])[0] == pytest.approx(expected, rel=1e-12)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            P, A = random_instance(rng, 4)
            expected = brute_force_log_partition(P, A)
            assert batch_log_partition(P, A, [4])[0] == pytest.approx(expected, rel=1e-10)

    def test_forward_equals_backward(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 5, 12):
            P, A = random_instance(rng, n)
            forward = batch_log_partition(P, A, [n])[0]
            backward = float(_lse(A[START, :7] + P[0] + loop_backward(P, A)[0], axis=0))
            assert forward == pytest.approx(backward, rel=1e-10)


class TestNll:
    def test_peaked_emissions_drive_nll_to_zero(self):
        scores = np.zeros((1, 7))
        gold_tag = 2
        scores[0, gold_tag] = 50.0
        value = forward_nll(scores, np.zeros((9, 9)), np.array([gold_tag]))
        assert abs(value) < 1e-6

    def test_uniform_case(self):
        rng = np.random.default_rng(8)
        for n in (1, 3, 6):
            value = forward_nll(np.zeros((n, 7)), np.zeros((9, 9)), random_gold(rng, n))
            assert value == pytest.approx(n * math.log(7), rel=1e-12)

    def test_matches_brute_force_probability(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            P, A = random_instance(rng, 4)
            gold = random_gold(rng, 4)
            paths, scores = enumerate_paths(P, A)
            mask = np.all(paths == gold, axis=1)
            probs = np.exp(scores - brute_force_log_partition(P, A))
            expected = -math.log(probs[mask][0])
            assert forward_nll(P, A, gold) == pytest.approx(expected, rel=1e-9)

    def test_non_negative_on_random_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            P, A = random_instance(rng, n)
            assert forward_nll(P, A, random_gold(rng, n)) > 0.0


class TestGradient:
    def finite_difference(self, P, A, gold, h=1e-5):
        fd_p = np.zeros_like(P)
        for i in range(P.shape[0]):
            for t in range(P.shape[1]):
                plus, minus = P.copy(), P.copy()
                plus[i, t] += h
                minus[i, t] -= h
                fd_p[i, t] = (forward_nll(plus, A, gold) - forward_nll(minus, A, gold)) / (2 * h)
        fd_a = np.zeros_like(A)
        for s in range(9):
            for t in range(9):
                plus, minus = A.copy(), A.copy()
                plus[s, t] += h
                minus[s, t] -= h
                fd_a[s, t] = (forward_nll(P, plus, gold) - forward_nll(P, minus, gold)) / (2 * h)
        return fd_p, fd_a

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            P, A = random_instance(rng, n)
            gold = random_gold(rng, n)
            _, grad_p, grad_a = batch_nll_and_gradient(P, A, [n], gold)
            fd_p, fd_a = self.finite_difference(P, A, gold)
            np.testing.assert_allclose(grad_p, fd_p, atol=1e-4)
            np.testing.assert_allclose(grad_a[0], fd_a, atol=1e-4)

    def test_emission_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            P, A = random_instance(rng, n)
            _, grad_p, _ = batch_nll_and_gradient(P, A, [n], random_gold(rng, n))
            np.testing.assert_allclose(grad_p.sum(axis=1), 0.0, atol=1e-12)

    def test_uniform_point_gives_uniform_marginals(self):
        _, grad_p, _ = batch_nll_and_gradient(np.zeros((1, 7)), np.zeros((9, 9)), [1],
                                              np.array([4]))
        expected = np.full(7, 1 / 7)
        expected[4] -= 1.0
        np.testing.assert_allclose(grad_p[0], expected, atol=1e-12)

    def test_value_and_gradient_agree_with_parts(self):
        rng = np.random.default_rng(32)
        P, A = random_instance(rng, 5)
        gold = random_gold(rng, 5)
        values, grad_p, grad_a = batch_nll_and_gradient(P, A, [5], gold)
        assert values[0] == pytest.approx(forward_nll(P, A, gold), rel=1e-12)
        _, p2, a2 = batch_nll_and_gradient(P, A, [5], gold)
        np.testing.assert_array_equal(grad_p, p2)
        np.testing.assert_array_equal(grad_a, a2)


class TestViterbi:
    def test_zero_transitions_reduce_to_argmax(self):
        rng = np.random.default_rng(40)
        P = rng.standard_normal((6, 7))
        decoded = viterbi(P, np.zeros((9, 9)), [6])
        assert decoded.tolist() == np.argmax(P, axis=1).tolist()

    def test_matches_brute_force(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            P, A = random_instance(rng, n)
            assert viterbi(P, A, [n]).tolist() == brute_force_argmax(P, A)

    def test_beats_random_paths(self):
        rng = np.random.default_rng(42)
        P, A = random_instance(rng, 10)
        best = crf._path_scores(P, A, [10], viterbi(P, A, [10]))[0]
        for _ in range(1000):
            y = rng.integers(0, 7, size=10)
            assert best >= crf._path_scores(P, A, [10], y)[0]

    def test_constrained_decode_never_violates_bio(self):
        rng = np.random.default_rng(43)
        inside = [TAG_INDEX[t] for t in ("I-P", "I-D", "I-Abn")]
        for _ in range(100):
            n = int(rng.integers(1, 12))
            scores = rng.standard_normal((n, 7))
            scores[:, inside] += 3.0  # bait the decoder toward inside tags
            tm = rng.standard_normal((9, 9))
            decoded = viterbi(scores, decoding_transitions(tm, True), [n])
            assert bio_violations(decoded) == []

    def test_unconstrained_can_violate_bio(self):
        scores = np.zeros((2, 7))
        scores[0, TAG_INDEX["O"]] = 5.0
        scores[1, TAG_INDEX["I-P"]] = 5.0
        free = viterbi(scores, decoding_transitions(np.zeros((9, 9)), False), [2])
        assert tags_of(free) == ("O", "I-P")
        constrained = viterbi(scores, decoding_transitions(np.zeros((9, 9)), True), [2])
        assert bio_violations(constrained) == []

    def test_mask_shape_and_content(self):
        mask = BIO_TRANSITION_MASK
        assert mask.shape == (9, 9)
        assert not mask[TAG_INDEX["O"], TAG_INDEX["I-P"]]
        assert not mask[START, TAG_INDEX["I-D"]]
        assert mask[TAG_INDEX["B-Abn"], TAG_INDEX["I-Abn"]]
        assert mask[TAG_INDEX["I-Abn"], TAG_INDEX["I-Abn"]]

    def test_ties_break_toward_lowest_tag_index(self):
        scores = np.zeros((3, 7))
        scores[:, 2] = 1.0
        scores[:, 5] = 1.0  # two equally good columns
        assert viterbi(scores, np.zeros((9, 9)), [3]).tolist() == [2, 2, 2]

    def test_all_zero_decodes_to_all_o(self):
        decoded = viterbi(np.zeros((4, 7)), np.zeros((9, 9)), [4])
        assert tags_of(decoded) == ("O",) * 4


class TestBatch:
    def ragged_batch(self, rng, lengths):
        emissions = [rng.standard_normal((n, 7)) for n in lengths]
        golds = [rng.integers(0, 7, size=n) for n in lengths]
        return emissions, golds, np.concatenate(emissions), np.array(lengths), np.concatenate(golds)

    def test_ragged_batch_matches_single_sentences(self):
        rng = np.random.default_rng(70)
        lengths = [1, 4, 1, 9, 2, 6, 1, 3]
        emissions, golds, P, lens, Y = self.ragged_batch(rng, lengths)
        # two equally good columns in a row: the tie must go to the lower index
        emissions[5] = np.zeros((6, 7))
        emissions[5][:, [2, 5]] = 10.0
        P = np.concatenate(emissions)
        A = rng.standard_normal((9, 9))
        A[[2, 5], :] = 0.0
        A[:, [2, 5]] = 0.0

        log_z = batch_log_partition(P, A, lens)
        values, grad_p, grad_a = batch_nll_and_gradient(P, A, lens, Y)
        grad_p = np.split(grad_p, np.cumsum(lengths)[:-1])
        paths = split_path(viterbi(P, A, lens), lens)
        assert lens.tolist() == lengths
        for b, n in enumerate(lengths):
            ref_z, ref_nll, ref_p, ref_a = loop_nll_and_gradient(emissions[b], A, golds[b])
            assert log_z[b] == pytest.approx(ref_z, abs=1e-12)
            assert log_z[b] == pytest.approx(batch_log_partition(emissions[b], A, [n])[0],
                                             abs=1e-12)
            assert values[b] == pytest.approx(ref_nll, abs=1e-12)
            assert values[b] == pytest.approx(forward_nll(emissions[b], A, golds[b]), abs=1e-12)
            np.testing.assert_allclose(grad_p[b], ref_p, atol=1e-12)
            np.testing.assert_allclose(grad_a[b], ref_a, atol=1e-12)
            assert paths[b] == loop_viterbi(emissions[b], A)
            assert paths[b] == viterbi(emissions[b], A, [n]).tolist()
        assert paths[5] == [2] * 6

    def test_brute_force_oracles_hold_on_batches(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            lengths = rng.integers(1, 6, size=int(rng.integers(1, 6))).tolist()
            emissions, golds, P, lens, Y = self.ragged_batch(rng, lengths)
            A = rng.standard_normal((9, 9))
            log_z = batch_log_partition(P, A, lens)
            values, _, _ = batch_nll_and_gradient(P, A, lens, Y)
            paths = split_path(viterbi(P, A, lens), lens)
            for b, n in enumerate(lengths):
                expected_z = brute_force_log_partition(emissions[b], A)
                assert log_z[b] == pytest.approx(expected_z, rel=1e-10)
                assert paths[b] == brute_force_argmax(emissions[b], A)
                all_paths, scores = enumerate_paths(emissions[b], A)
                gold_score = scores[np.all(all_paths == golds[b], axis=1)][0]
                assert values[b] == pytest.approx(expected_z - gold_score, rel=1e-9)

    def test_overflowing_row_leaves_short_row_finite(self):
        rng = np.random.default_rng(72)
        short = rng.standard_normal((5, 7))
        long = np.full((2000, 7), 1e306)
        long[:, 0] = -1e306
        P, lens = np.concatenate([short, long]), np.array([5, 2000])
        Y = np.zeros(2005, dtype=np.intp)
        A = rng.standard_normal((9, 9))
        with np.errstate(all="ignore"):
            values, grad_p, grad_a = batch_nll_and_gradient(P, A, lens, Y)
            log_z = batch_log_partition(P, A, lens)
            paths = split_path(viterbi(P, A, lens), lens)
        assert not np.isfinite(values[1])
        ref_z, ref_nll, ref_p, ref_a = loop_nll_and_gradient(short, A, Y[:5])
        assert values[0] == pytest.approx(ref_nll, abs=1e-12)
        assert log_z[0] == pytest.approx(ref_z, abs=1e-12)
        np.testing.assert_allclose(grad_p[:5], ref_p, atol=1e-12)
        np.testing.assert_allclose(grad_a[0], ref_a, atol=1e-12)
        assert paths[0] == loop_viterbi(short, A)

    def test_lengths_outside_the_padded_width_rejected(self):
        # the flat rows are the whole width: an empty row, rows past the end
        # and rows that stop short of it are all rejected
        P = np.zeros((6, 7))
        for lengths in ([0, 6], [3, 4], [3]):
            with pytest.raises(ValueError, match="lengths"):
                batch_log_partition(P, np.zeros((9, 9)), np.array(lengths))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.lists(st.integers(1, 12), min_size=1, max_size=10),
        equal_lengths=st.booleans(),
        overflow_row=st.booleans(),
    )
    @example(seed=0, lengths=[1], equal_lengths=False, overflow_row=False)
    @example(seed=1, lengths=[1, 1, 1], equal_lengths=False, overflow_row=True)
    @example(seed=2, lengths=[4, 1, 7], equal_lengths=True, overflow_row=True)
    def test_batch_composition_does_not_change_a_rows_result(
        self, seed, lengths, equal_lengths, overflow_row
    ):
        rng = np.random.default_rng(seed)
        if equal_lengths:
            lengths = [lengths[0]] * len(lengths)
        emissions = [rng.standard_normal((n, 7)) for n in lengths]
        golds = [rng.integers(0, 7, size=n) for n in lengths]
        if overflow_row:   # its log Z overflows even in log space
            long = np.full((200, 7), 1e306)
            long[:, 0] = -1e306
            emissions.append(long)
            golds.append(np.zeros(200, dtype=np.intp))
        order = rng.permutation(len(emissions))
        emissions, golds = [emissions[b] for b in order], [golds[b] for b in order]
        P, Y = np.concatenate(emissions), np.concatenate(golds)
        lens = np.array([len(row) for row in emissions])
        A = rng.standard_normal((9, 9))
        with np.errstate(all="ignore"):
            values, grad_p, grad_a = batch_nll_and_gradient(P, A, lens, Y)
            log_z = batch_log_partition(P, A, lens)
            paths = split_path(viterbi(P, A, lens), lens)
            for b, (row, gold, row_grad_p) in enumerate(
                zip(emissions, golds, np.split(grad_p, np.cumsum(lens)[:-1]))
            ):
                one = np.array([len(row)])
                value, one_grad_p, one_grad_a = batch_nll_and_gradient(row, A, one, gold)
                # assert_allclose also requires NaN and inf at the same places
                np.testing.assert_allclose(values[b], value[0], rtol=0, atol=1e-12)
                np.testing.assert_allclose(row_grad_p, one_grad_p, rtol=0, atol=1e-12)
                np.testing.assert_allclose(grad_a[b], one_grad_a[0], rtol=0, atol=1e-12)
                np.testing.assert_allclose(log_z[b], batch_log_partition(row, A, one)[0],
                                           rtol=0, atol=1e-12)
                assert paths[b] == viterbi(row, A, one).tolist()
        assert np.isfinite(values).sum() == len(lengths)
        for wrong in (Y[:-1], np.append(Y, 0), Y[None]):
            with pytest.raises(ValueError, match="gold"):
                batch_nll_and_gradient(P, A, lens, wrong)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.lists(st.integers(1, 60), min_size=1, max_size=20),
        emission_scale=st.floats(0.1, 20),
        transition_scale=st.floats(0.1, 20),
        overflow_row=st.booleans(),
        extreme_transitions=st.sampled_from([None, 800.0, -800.0]),
    )
    def test_scaled_recursion_matches_log_space_reference(
        self, seed, lengths, emission_scale, transition_scale, overflow_row,
        extreme_transitions,
    ):
        rng = np.random.default_rng(seed)
        emissions = [emission_scale * rng.standard_normal((n, 7)) for n in lengths]
        golds = [rng.integers(0, 7, size=n) for n in lengths]
        A = transition_scale * rng.standard_normal((9, 9))
        if extreme_transitions is not None:
            # exp(A) overflows (+800) or underflows to 0 (-800) at these entries
            A[rng.random((9, 9)) < 0.2] = extreme_transitions
        if overflow_row:
            # a row whose log Z overflows even in log space
            long = np.full((200, 7), 1e306)
            long[:, 0] = -1e306
            emissions.append(long)
            golds.append(np.zeros(200, dtype=np.intp))
        P, Y = np.concatenate(emissions), np.concatenate(golds)
        lens = np.array([len(row) for row in emissions])
        spy = mock.patch.object(crf, "_log_marginals", wraps=crf._log_marginals)
        with spy as fallback, np.errstate(all="ignore"):
            values, grad_p, grad_a = batch_nll_and_gradient(P, A, lens, Y)
        grad_p = np.split(grad_p, np.cumsum(lens)[:-1])
        fell_back = [n for call in fallback.call_args_list for n in call.args[2]]
        if overflow_row:
            assert not np.isfinite(values[-1])
            assert 200 in fell_back
        if extreme_transitions is None:   # only the overflowing row falls back
            assert fell_back == ([200] if overflow_row else [])
        for b, n in enumerate(lengths):
            with np.errstate(over="ignore"):
                ref_z, ref_nll, ref_p, ref_a = loop_nll_and_gradient(emissions[b], A, golds[b])
            # the reference rounds in log space, by about eps times the
            # largest log score; up to 100 this is the 1e-12 used above
            tol = max(1e-12, 1e-14 * max(abs(ref_z), abs(ref_z - ref_nll)))
            assert values[b] == pytest.approx(ref_nll, abs=tol)
            np.testing.assert_allclose(grad_p[b], ref_p, atol=tol)
            np.testing.assert_allclose(grad_a[b], ref_a, atol=tol)


# ---------------------------------------------------------------------------
# The scaled forward-backward and the gradient assembly as they were written
# before every step wrote into views of arrays allocated once per call: each
# step allocated its results and copied them in.  The current code must give
# the same bits.


def reference_scaled_marginals(P, A, pack):
    B, k = len(pack.lengths), 7
    T = np.exp(A[:k, :k])
    start = np.exp(A[START, :k])
    end = np.exp(A[:k, END])
    if not all(np.isfinite(x).all() for x in (T, start, end)):
        return np.full(B, np.nan), np.zeros_like(P), np.zeros((B, k, k))
    shift = P.max(axis=1)
    E = np.exp(P - shift[:, None])[pack.perm]
    alpha = np.empty_like(E)
    c = np.empty(len(E))
    step = start * E[:B]
    for prev, cur in [(None, slice(0, B)), *pack.pairs]:
        if prev is not None:
            step = (alpha[prev] @ T) * E[cur]
        c[cur] = step.sum(axis=1)
        alpha[cur] = step / c[cur, None]
    beta = np.tile(end, (len(E), 1))
    weighted = E / c[:, None]
    pairwise = np.zeros((B, k, k))
    for prev, cur in reversed(pack.pairs):
        weighted[cur] *= beta[cur]
        beta[prev] = weighted[cur] @ T.T
        pairwise[:cur.stop - cur.start] += alpha[prev][:, :, None] * weighted[cur][:, None, :]
    exit_mass = alpha[pack.last] @ end
    c = c[pack.inv]
    log_z = np.add.reduceat(np.log(c) + shift, pack.starts) + np.log(exit_mass)
    gamma = (alpha * beta)[pack.inv] / np.repeat(exit_mass, pack.lengths)[:, None]
    pairwise[pack.order] = pairwise * T / exit_mass[pack.order, None, None]
    tiny = np.finfo(np.float64).tiny
    carried = (
        (np.minimum.reduceat(c, pack.starts) >= tiny) & (exit_mass >= tiny)
        & np.isfinite(log_z + np.add.reduceat(gamma.sum(axis=1), pack.starts)
                      + pairwise.sum(axis=(1, 2)))
    )
    return np.where(carried, log_z, np.nan), gamma, pairwise


def reference_nll_and_gradient(P, A, lengths, Y):
    pack = crf._pack(P, lengths)
    lengths = pack.lengths
    log_z, gamma, pairwise = reference_scaled_marginals(P, A, pack)
    slow = np.isnan(log_z)
    if slow.any():
        rows = np.repeat(slow, lengths)
        log_z[slow], gamma[rows], pairwise[slow] = crf._log_marginals(P[rows], A, lengths[slow])
    B, k = len(lengths), 7
    ends = np.cumsum(lengths)
    previous = np.empty_like(Y)
    previous[1:] = Y[:-1]
    previous[ends - lengths] = START
    grad_a = np.zeros((B, 9, 9))
    grad_a[:, :k, :k] = pairwise
    grad_a[:, START, :k] += gamma[ends - lengths]
    grad_a[:, :k, END] += gamma[ends - 1]
    np.add.at(grad_a, (np.repeat(np.arange(B), lengths), previous, Y), -1.0)
    grad_a[np.arange(B), Y[ends - 1], END] -= 1.0
    grad_p = gamma
    grad_p[np.arange(len(Y)), Y] -= 1.0
    steps = P[np.arange(len(Y)), Y] + A[previous, Y]
    path_scores = np.add.reduceat(steps, ends - lengths) + A[Y[ends - 1], END]
    return log_z - path_scores, grad_p, grad_a


class TestSameBitsAsTheAllocatingLoops:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.lists(st.integers(1, 60), min_size=1, max_size=20),
        scale=st.sampled_from([0.1, 1.0, 10.0]),
        overflow_row=st.booleans(),
        extreme_transitions=st.sampled_from([None, 800.0, -800.0]),
    )
    @example(seed=0, lengths=[1], scale=1.0, overflow_row=False, extreme_transitions=None)
    @example(seed=1, lengths=[60], scale=10.0, overflow_row=False, extreme_transitions=None)
    @example(seed=2, lengths=[1, 1, 13, 60, 1, 2], scale=1.0, overflow_row=True,
             extreme_transitions=800.0)
    @example(seed=3, lengths=[5, 1, 60, 9], scale=0.1, overflow_row=False,
             extreme_transitions=-800.0)
    def test_marginals_values_and_gradients_are_bit_identical(
        self, seed, lengths, scale, overflow_row, extreme_transitions
    ):
        rng = np.random.default_rng(seed)
        P = scale * rng.standard_normal((sum(lengths), 7))
        A = scale * rng.standard_normal((9, 9))
        if extreme_transitions is not None:   # exp(A) is not finite, or 0, at these entries
            A[rng.random((9, 9)) < 0.2] = extreme_transitions
        if overflow_row:   # a row the scaled recursion cannot carry: the log-space fallback
            long = np.full((200, 7), 1e306)
            long[:, 0] = -1e306
            P, lengths = np.concatenate([P, long]), lengths + [200]
        lens, Y = np.array(lengths), rng.integers(0, 7, len(P))
        pack = crf._pack(P, lens)
        with np.errstate(all="ignore"):
            got = crf._scaled_marginals(P, A, pack) + batch_nll_and_gradient(P, A, lens, Y)
            want = reference_scaled_marginals(P, A, pack) + reference_nll_and_gradient(P, A, lens, Y)
        names = ("log_z", "gamma", "pairwise", "values", "grad_p", "grad_a")
        for name, a, b in zip(names, got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), name


class TestFlatViterbi:
    """:func:`viterbi` on ragged sets laid end to end, row by row against the
    one-row loop reference and brute-force enumeration."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.lists(st.integers(1, 9), min_size=1, max_size=12),
        constrain=st.booleans(),
        ties=st.booleans(),
    )
    @example(seed=0, lengths=[1], constrain=False, ties=False)
    @example(seed=1, lengths=[1, 1, 1], constrain=True, ties=True)
    @example(seed=2, lengths=[2, 5, 1, 5, 2, 9, 1], constrain=True, ties=True)
    @example(seed=3, lengths=[4, 4, 4, 4], constrain=False, ties=True)
    def test_matches_loop_and_brute_force_per_row(self, seed, lengths, constrain, ties):
        rng = np.random.default_rng(seed)
        if ties:   # small integers: many paths tie exactly
            P = rng.integers(-1, 2, (sum(lengths), 7)).astype(float)
            A = rng.integers(-1, 2, (9, 9)).astype(float)
        else:
            P, A = rng.standard_normal((sum(lengths), 7)), rng.standard_normal((9, 9))
        if constrain:
            A = np.where(BIO_TRANSITION_MASK, A, -np.inf)
        path = viterbi(P, A, np.array(lengths))
        assert path.dtype == np.uint8 and path.shape == (sum(lengths),)
        rows = np.split(P, np.cumsum(lengths)[:-1])
        for row, emissions in zip(split_path(path, lengths), rows):
            assert row == loop_viterbi(emissions, A)
            if constrain:
                assert bio_violations(row) == []
            if len(row) <= 4:
                paths, scores = enumerate_paths(emissions, A)
                if ties:   # integer scores are exact in any order of summation
                    assert scores[np.all(paths == row, axis=1)][0] == scores.max()
                else:
                    assert row == brute_force_argmax(emissions, A)

    @pytest.mark.parametrize("constrain", [False, True])
    def test_matches_loop_at_window_scale(self, constrain):
        # a decode window: 256 ragged rows up to 160 long, small integer
        # scores so that many candidates tie exactly at every step
        rng = np.random.default_rng(241 + constrain)
        lengths = rng.integers(1, 161, 256)
        P = rng.integers(-2, 3, (lengths.sum(), 7)).astype(float)
        A = rng.integers(-2, 3, (9, 9)).astype(float)
        if constrain:
            A = np.where(BIO_TRANSITION_MASK, A, -np.inf)
        rows = np.split(P, np.cumsum(lengths)[:-1])
        for row, emissions in zip(split_path(viterbi(P, A, lengths), lengths), rows):
            assert row == loop_viterbi(emissions, A)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.lists(st.integers(1, 40), min_size=1, max_size=20),
        short=st.booleans(),
        constrain=st.booleans(),
    )
    @example(seed=0, lengths=[1], short=False, constrain=False)
    @example(seed=1, lengths=[1] * 9, short=False, constrain=True)
    @example(seed=2, lengths=[40], short=False, constrain=True)
    @example(seed=3, lengths=[3, 1, 7, 1, 1, 2], short=True, constrain=False)
    def test_backtrace_matches_the_tag_major_reference(self, seed, lengths, short, constrain):
        # integer scores in [-1, 1] tie on most steps; ``short`` turns a
        # random half of the rows into rows of length 1
        rng = np.random.default_rng(seed)
        if short:
            lengths = np.where(rng.random(len(lengths)) < 0.5, 1, lengths).tolist()
        P = rng.integers(-1, 2, (sum(lengths), NUM_TAGS)).astype(float)
        A = rng.integers(-1, 2, (9, 9)).astype(float)
        A = decoding_transitions(A, constrain)
        path = viterbi(P, A, lengths)
        want = tag_major_viterbi(P, A, lengths)
        assert path.dtype == want.dtype and np.array_equal(path, want)

    def test_empty_set(self):
        path = viterbi(np.zeros((0, 7)), np.zeros((9, 9)), np.array([], dtype=np.intp))
        assert path.dtype == np.uint8 and path.shape == (0,)

    def test_lengths_must_cover_the_rows(self):
        entries = (
            viterbi,
            batch_log_partition,
            lambda P, A, lengths: batch_nll_and_gradient(P, A, lengths, np.zeros(len(P), int)),
        )
        P = np.zeros((5, 7))
        for entry in entries:
            # the last three cover the rows once cast to integers
            for lengths in ([2, 2], [2, 4], [5, 0], [6, -1], [0, 5], [3, 3], [2.9, 3.9],
                            [1.0] * 5, [True] * 5):
                with pytest.raises(ValueError, match="lengths"):
                    entry(P, np.zeros((9, 9)), np.array(lengths))
            for bad_P, lengths in ((np.zeros((5, 6)), [5]), (np.zeros((1, 5, 7)), [5]), (P, [[5]])):
                with pytest.raises(ValueError, match="lengths"):
                    entry(bad_P, np.zeros((9, 9)), np.array(lengths))


ENTRY_POINTS = (
    viterbi,
    batch_log_partition,
    lambda P, A, lengths: batch_nll_and_gradient(P, A, lengths, [0] * sum(lengths)),
)


class TestArguments:
    """Each CRF entry point converts its emissions and transitions once, as
    float64, and checks them and the gold path before any recursion."""

    def test_integer_and_list_emissions_give_the_float_results(self):
        rng = np.random.default_rng(0)
        A = rng.normal(0, 1, (9, 9))
        P = rng.integers(-3, 4, (5, 7))
        F, Y, A_int = P.astype(float), rng.integers(0, 7, 5), rng.integers(-2, 3, (9, 9))
        # an integer P once gave 20.071: the forward pass ran in its dtype
        assert batch_log_partition(P, A, [5])[0] == pytest.approx(22.177, abs=1e-3)
        for emissions, transitions, float_A in (
            (P, A, A), (P.tolist(), A, A), (F.tolist(), A.tolist(), A),
            (P.astype(np.int8), A_int, A_int.astype(float)),
        ):
            expected = (viterbi(F, float_A, [5]), batch_log_partition(F, float_A, [5]),
                        *batch_nll_and_gradient(F, float_A, [5], Y))
            got = (viterbi(emissions, transitions, [5]),
                   batch_log_partition(emissions, transitions, [5]),
                   *batch_nll_and_gradient(emissions, transitions, [5], Y.tolist()))
            for a, b in zip(got, expected):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_emissions_that_are_not_real_numbers_are_rejected(self, entry):
        for bad in (np.zeros((2, 7), complex), np.zeros((2, 7), object), np.full((2, 7), "0"),
                    [[0.0] * 7, [0.0] * 6], None, np.zeros(14)):
            with pytest.raises(ValueError, match=r"^emissions must be real numbers of shape"):
                entry(bad, np.zeros((9, 9)), [2])

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_transitions_must_be_nine_by_nine_real_numbers(self, entry):
        for bad in (np.zeros((7, 7)), np.zeros((9, 10)), np.zeros(81), np.zeros((9, 9), complex),
                    [[0.0] * 9] * 8, [[0.0] * 9] * 8 + [[0.0] * 8]):
            with pytest.raises(ValueError, match=r"^transitions must be real numbers of shape \(9, 9\)"):
                entry(np.zeros((2, 7)), bad, [2])

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_nan_transitions_are_rejected_and_masked_ones_pass(self, entry):
        # a NaN matrix once decoded to [0 0] and gave a NaN log Z and NLL
        one_nan = np.zeros((9, 9))
        one_nan[3, 4] = np.nan
        for bad in (np.full((9, 9), np.nan), one_nan, one_nan.tolist()):
            with pytest.raises(ValueError, match=r"^transitions must not be NaN"):
                entry(np.zeros((2, 7)), bad, [2])
        masked = decoding_transitions(np.zeros((9, 9)), True)
        assert np.isneginf(masked).any()
        result = entry(np.zeros((2, 7)), masked, [2])
        assert all(np.isfinite(part).all() for part in (result if type(result) is tuple else [result]))

    def test_gold_paths_must_be_tag_indices(self):
        P, A = np.zeros((2, 7)), np.zeros((9, 9))
        # -1 once indexed the last tag silently; 9 and floats raised IndexError
        for bad in ([0, -1], [0, 7], [0, 9], [0.0, 1.0], [True, False], ["0", "1"]):
            with pytest.raises(ValueError, match=r"^gold path must be 2 tag indices in \[0, 7\)"):
                batch_nll_and_gradient(P, A, [2], np.array(bad))
        values, _, _ = batch_nll_and_gradient(np.zeros((7, 7)), A, [7], np.arange(7, dtype=np.uint8))
        assert values[0] == pytest.approx(7 * math.log(7))


class TestDistributionProperties:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(50)
        for n in (1, 2, 3, 4):
            P, A = random_instance(rng, n)
            _, scores = enumerate_paths(P, A)
            total = np.exp(scores - batch_log_partition(P, A, [n])[0]).sum()
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_path_probability_in_unit_interval(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            P, A = random_instance(rng, n)
            gold = rng.integers(0, 7, size=n)
            prob = math.exp(-forward_nll(P, A, gold))
            assert 0.0 < prob <= 1.0

    def test_uniform_emission_shift_preserves_decode_and_probabilities(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            P, A = random_instance(rng, n)
            c = float(rng.uniform(-3, 3))
            shifted = P + c
            gold = rng.integers(0, 7, size=n)
            base = crf._path_scores(P, A, [n], gold)[0]
            assert crf._path_scores(shifted, A, [n], gold)[0] == pytest.approx(base + n * c,
                                                                                rel=1e-9)
            assert viterbi(shifted, A, [n]).tolist() == viterbi(P, A, [n]).tolist()
            assert -forward_nll(shifted, A, gold) == pytest.approx(-forward_nll(P, A, gold),
                                                                   abs=1e-9)


AB = FeatureVocabulary.build("ab", [2])   # the features of one two-char sentence


class TestModelPersistence:
    def build_model(self):
        text = "右上肺见阴影。"
        vocab = FeatureVocabulary.build(text, [len(text)])
        rng = np.random.default_rng(60)
        weights = rng.standard_normal((vocab.size, 7))
        transitions = rng.standard_normal((9, 9))
        return text, TaggerModel(vocab, weights, transitions)

    def test_round_trip_preserves_decoding(self, tmp_path):
        text, model = self.build_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert decode_sentence(loaded, text) == decode_sentence(model, text)
        np.testing.assert_array_equal(
            loaded.weights, model.weights
        )
        np.testing.assert_array_equal(
            loaded.transitions, model.transitions
        )

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_save_load_round_trip_is_bit_exact(self, tmp_path, data):
        features = data.draw(st.lists(st.text(st.characters(codec="utf-8"), max_size=6),
                                      min_size=1, max_size=8, unique=True))
        columns = data.draw(st.permutations(range(len(features))))
        weight = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from([-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308]))
        model = TaggerModel(
            FeatureVocabulary(dict(zip(features, columns)),
                              data.draw(st.integers(0, len(features) - 1))),
            data.draw(arrays(np.float64, (len(features), 7), elements=weight)),
            data.draw(arrays(np.float64, (9, 9), elements=weight)),
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert list(loaded.vocab.index.items()) == list(model.vocab.index.items())
        assert loaded.vocab.unk_index == model.vocab.unk_index
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert loaded.transitions.tobytes() == model.transitions.tobytes()

    def test_format_tag_checked(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "something-else/9"}', encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported model format"):
            load_model(path)

    @pytest.mark.parametrize("change", [
        {"features": ["c0=肺"]},
        {"features": {"c0=肺": "0"}},
        {"unk_index": "0"},
        {"unk_index": 99},
        {"weights": [[0.0] * 7, [0.0] * 6]},
        {"weights": [["x"] * 7]},
        {"transitions": None},
        {"tags": "O"},
        {"weights": [[10**400] * 7]},
        {"transitions": [[10**400] * 9] * 9},
    ])
    def test_malformed_document_names_the_path(self, tmp_path, change):
        _, model = self.build_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        document = json.loads(path.read_text(encoding="utf-8"))
        document.update(change)
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}: "):
            load_model(path)

    @pytest.mark.parametrize("key", ["weights", "transitions"])
    @pytest.mark.parametrize("value", ["1.5", True, False, [1.5], None])
    def test_non_number_weight_names_the_path_and_key(self, tmp_path, key, value):
        # json.loads gives str and bool, which np.array would turn into floats
        _, model = self.build_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        document = json.loads(path.read_text(encoding="utf-8"))
        document[key][0][0] = value
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(CorpusFormatError,
                           match=f"^{re.escape(str(path))}: '{key}' must be a list of rows of numbers$"):
            load_model(path)

    def test_invalid_json_names_the_path(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff{")
        with pytest.raises(ValueError, match=str(path)):
            load_model(path)

    def test_transition_matrix_validation(self):
        _, model = self.build_model()
        with pytest.raises(ValueError, match="9 x 9"):
            TaggerModel(model.vocab, model.weights, np.zeros((7, 7)))
        bad = np.zeros((9, 9))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            TaggerModel(model.vocab, model.weights, bad)

    def test_virtual_tag_indices(self):
        model = TaggerModel(AB, np.zeros((AB.size, 7)), np.zeros((9, 9)))
        assert START == 7
        assert END == 8
        assert model.transitions.shape == (9, 9)

    @pytest.mark.parametrize("field, value, message", [
        ("weights", np.zeros((2, 7)), "weight rows do not match feature count"),
        ("weights", np.zeros((AB.size, 6)), "weight rows do not match feature count"),
        ("weights", np.full((AB.size, 7), np.nan), "non-finite"),
        ("weights", np.zeros((AB.size, 7), complex), "must be real numbers"),
        ("transitions", np.zeros((9, 9), object), "must be real numbers"),
        ("transitions", np.full((9, 9), "1"), "must be real numbers"),
        ("vocab", AB.index, "vocab must be a FeatureVocabulary"),
    ], ids=["2 rows", "6 columns", "nan weights", "complex weights", "object transitions",
            "str transitions", "dict vocab"])
    def test_every_construction_checks_the_fields(self, field, value, message):
        fields = dict(vocab=AB, weights=np.zeros((AB.size, 7)), transitions=np.zeros((9, 9)))
        with pytest.raises(ValueError, match=message):
            TaggerModel(**{**fields, field: value})

    def test_arrays_are_read_only_copies(self):
        weights, transitions = np.zeros((AB.size, 7)), np.zeros((9, 9), np.int64)
        model = TaggerModel(AB, weights, transitions)
        weights += 1.0
        transitions += 1
        assert not model.weights.any() and not model.transitions.any()
        assert model.weights.dtype == model.transitions.dtype == np.float64
        for array in (model.weights, model.transitions):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0
