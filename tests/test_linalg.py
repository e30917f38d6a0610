import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neutreno import linalg
from neutreno.functional import nonlocal_energy
from neutreno.linalg import (
    max_pairwise_distance,
    mix_seed,
    pairwise_cosine_mean,
    pairwise_sq_distances,
    row_softmax,
    substream,
)


class TestRowSoftmax:
    def test_single_element(self):
        np.testing.assert_array_equal(row_softmax([[3.7]]), [[1.0]])

    def test_uniform_row(self):
        out = row_softmax([[0.0, 0.0, 0.0]])
        np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_hand_computed_row(self):
        """exp(0) / (exp(0) + exp(ln 4)) = 1/5."""
        out = row_softmax([[0.0, math.log(4.0)]])
        np.testing.assert_allclose(out, [[0.2, 0.8]], atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n, m = rng.integers(1, 20, size=2)
            s = rng.normal(scale=rng.uniform(0.1, 50), size=(n, m))
            out = row_softmax(s)
            np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            assert np.all(out > 0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(12)
        s = rng.normal(size=(6, 5))
        c = rng.normal(scale=100, size=(6, 1))
        np.testing.assert_allclose(row_softmax(s + c), row_softmax(s), atol=1e-12)

    def test_large_scores_do_not_overflow(self):
        out = row_softmax([[1000.0, 1001.0]])
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_non_finite_input_names_row(self):
        with pytest.raises(ValueError, match="row 1"):
            row_softmax([[0.0, 1.0], [np.nan, 0.0]])

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        lead=st.lists(st.integers(1, 3), max_size=2),
        n=st.integers(1, 40),
        scale=st.floats(1e-3, 50.0),
        order=st.sampled_from(["C", "F", "strided"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_in_place_forms_keep_the_bits(self, lead, n, scale, order, seed):
        # the shift allocates the one result array, and exp and the division
        # then work in place: the same bits as the fresh forms, on a stack
        # of units of any layout, and the scores are left as they were
        rng = np.random.default_rng(seed)
        s = layout(rng.normal(scale=scale, size=(*lead, n, n)), order)
        before = s.copy()
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        expected = e / e.sum(axis=-1, keepdims=True)
        got = linalg._softmax(s)
        assert got.shape == expected.shape
        assert (got == expected).all()
        assert (s == before).all()


class TestPairwiseCosineMean:
    def test_identical_rows(self):
        x = np.tile([1.0, 2.0, -1.0], (4, 1))
        assert pairwise_cosine_mean(x) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_rows(self):
        assert pairwise_cosine_mean([[1.0, 0.0], [0.0, 1.0]]) == pytest.approx(0.0, abs=1e-15)

    def test_three_row_hand_value(self):
        """Pair cosines are 0, sqrt(2)/2, sqrt(2)/2; mean = sqrt(2)/3."""
        r = 1 / math.sqrt(2)
        x = [[1.0, 0.0], [0.0, 1.0], [r, r]]
        assert pairwise_cosine_mean(x) == pytest.approx(math.sqrt(2) / 3, abs=1e-12)

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(5, 3))
        y = x.copy()
        y[2] *= 37.5
        assert pairwise_cosine_mean(y) == pytest.approx(pairwise_cosine_mean(x), abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            x = rng.normal(size=(rng.integers(2, 10), rng.integers(1, 6)))
            assert -1.0 <= pairwise_cosine_mean(x) <= 1.0

    def test_zero_row_names_index(self):
        with pytest.raises(ValueError, match="row 1"):
            pairwise_cosine_mean([[1.0, 0.0], [0.0, 0.0]])

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            pairwise_cosine_mean([[1.0, 2.0]])


class TestMaxPairwiseDistance:
    def test_single_row(self):
        assert max_pairwise_distance([[1.0, 2.0]]) == 0.0

    def test_three_four_five(self):
        assert max_pairwise_distance([[0.0, 0.0], [3.0, 4.0]]) == pytest.approx(5.0)

    def test_scalar_rows(self):
        assert max_pairwise_distance([[0.0], [1.0], [5.0]]) == pytest.approx(5.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(7, 4))
        brute = max(
            np.linalg.norm(x[i] - x[j])
            for i in range(len(x))
            for j in range(len(x))
        )
        assert max_pairwise_distance(x) == pytest.approx(brute, rel=1e-15)

    def test_zero_iff_rows_equal(self):
        x = np.tile([0.3, -0.7], (5, 1))
        assert max_pairwise_distance(x) == 0.0
        x[3, 1] = np.nextafter(x[3, 1], 1.0)
        assert max_pairwise_distance(x) > 0.0


def one_shot_sq_dists(x):
    """Reference: the direct formula over the whole (N, N, D) difference
    tensor, which the blocked routine must reproduce bit for bit."""
    diff = x[:, None, :] - x[None, :, :]
    return (diff * diff).sum(axis=-1)


def layout(x, order):
    """The same values as ``x`` in C order, F order or as a view strided
    along its last two axes."""
    if order == "C":
        return np.ascontiguousarray(x)
    if order == "F":
        return np.asfortranarray(x)
    big = np.zeros((*x.shape[:-2], 2 * x.shape[-2], 3 * x.shape[-1]))
    big[..., ::2, ::3] = x
    return big[..., ::2, ::3]


def assert_metrics_match_reference(x, w):
    ref = one_shot_sq_dists(x)
    sq = pairwise_sq_distances(x)
    np.testing.assert_array_equal(sq, ref)
    np.testing.assert_array_equal(sq, sq.T)
    assert not np.diagonal(sq).any()
    assert max_pairwise_distance(x) == float(np.sqrt(ref).max())
    assert nonlocal_energy(x, w) == float(0.5 * (w * ref).sum())


class TestPairwiseSqDistances:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 64),
        d=st.integers(1, 16),
        scale=st.floats(1e-3, 30.0),
        shift=st.sampled_from([0.0, 1.0, 1e3]),
        order=st.sampled_from(["C", "F", "strided"]),
        block=st.sampled_from([None, 1, 7, 100, 1000]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_one_shot_formula(self, n, d, scale, shift, order,
                                               block, seed):
        rng = np.random.default_rng(seed)
        x = layout(shift + rng.normal(scale=scale, size=(n, d)), order)
        w = rng.uniform(size=(n, n))
        budget = linalg._BLOCK_ENTRIES if block is None else block
        with mock.patch.object(linalg, "_BLOCK_ENTRIES", budget):
            assert_metrics_match_reference(x, w)

    def test_two_uneven_blocks(self):
        # the first block has 2**16 // 400 = 163 rows; the other 237 rows
        # span 237 columns, and 2**16 // 237 = 276 >= 237, so they form
        # the second and last block
        assert linalg._BLOCK_ENTRIES == 2**16
        rng = np.random.default_rng(16)
        x = rng.normal(size=(400, 1))
        assert_metrics_match_reference(x, rng.uniform(size=(400, 400)))

    def test_one_row_per_block(self):
        # 40 * 30000 entries exceed the budget, so each block is one row;
        # the (40, 40, 30000) reference tensor is too large to form at once,
        # so the direct formula is applied to each pair of rows
        rng = np.random.default_rng(17)
        x = rng.normal(size=(40, 30000))
        ref = np.array([[one_shot_sq_dists(x[[i, j]])[0, 1] for j in range(40)]
                        for i in range(40)])
        np.testing.assert_array_equal(pairwise_sq_distances(x), ref)
        assert max_pairwise_distance(x) == float(np.sqrt(ref).max())
        w = rng.uniform(size=(40, 40))
        assert nonlocal_energy(x, w) == float(0.5 * (w * ref).sum())

    def test_identical_rows_give_exact_zero(self):
        x = np.tile([1e3 + 0.1, -2.7, 1e-9], (1100, 1))
        assert not pairwise_sq_distances(x).any()
        assert max_pairwise_distance(x) == 0.0
        assert nonlocal_energy(x, np.ones((1100, 1100))) == 0.0

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            pairwise_sq_distances(np.zeros(3))

    @pytest.mark.parametrize("metric", ["max_pairwise_distance", "nonlocal_energy"])
    def test_memory_is_quadratic_not_cubic(self, metric):
        # at N=512, D=64 the (N, N, D) difference tensor alone is 128 MiB
        rng = np.random.default_rng(18)
        x = rng.normal(size=(512, 64))
        w = rng.uniform(size=(512, 512))
        call = {"max_pairwise_distance": lambda: max_pairwise_distance(x),
                "nonlocal_energy": lambda: nonlocal_energy(x, w)}[metric]
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_block_stays_small(self):
        # the (512, 512) result is 2 MiB and one difference block 512 KiB
        x = np.random.default_rng(19).normal(size=(512, 64))
        tracemalloc.start()
        try:
            pairwise_sq_distances(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    @pytest.mark.parametrize("block", [1, 100, None])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_stack_matches_each_unit(self, block, order):
        # the engine behind the trace records takes a stack of units along a
        # leading axis; each unit's matrix must equal the 2-D call's
        x = np.random.default_rng(20).normal(size=(5, 37, 6))
        x = np.asfortranarray(x) if order == "F" else x
        budget = linalg._BLOCK_ENTRIES if block is None else block
        with mock.patch.object(linalg, "_BLOCK_ENTRIES", budget):
            stacked = linalg._sq_distances(x)
        for unit in range(5):
            np.testing.assert_array_equal(stacked[unit], pairwise_sq_distances(x[unit]))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("d", [7, 8])
    def test_stack_on_either_side_of_the_feature_order(self, d, order):
        # below 8 features the sum over D runs across pairs, from 8 on along
        # each pair's last axis; both must give each unit's one-shot bits
        x = np.random.default_rng(22).normal(scale=3.0, size=(6, 45, d)) + 1.0
        x = np.asfortranarray(x) if order == "F" else x
        with mock.patch.object(linalg, "_BLOCK_ENTRIES", 1000):
            blocked = linalg._sq_distances(x)
        stacked = linalg._sq_distances(x)
        for unit in range(6):
            ref = one_shot_sq_dists(x[unit])
            np.testing.assert_array_equal(blocked[unit], ref)
            np.testing.assert_array_equal(stacked[unit], ref)

    def test_block_budget_counts_units(self):
        # the (32, 128, 128) result is 4 MiB; a budget that ignored the 32
        # units would form 16-row blocks of 16 MiB, this one 1 MiB
        x = np.random.default_rng(21).normal(size=(32, 128, 32))
        tracemalloc.start()
        try:
            linalg._sq_distances(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestStreams:
    def test_substream_deterministic(self):
        a = substream(5, 1, 2).random(4)
        b = substream(5, 1, 2).random(4)
        np.testing.assert_array_equal(a, b)

    def test_substream_keys_independent(self):
        a = substream(5, 1).random(4)
        b = substream(5, 2).random(4)
        assert np.any(a != b)

    def test_mix_seed_stable(self):
        assert mix_seed(5, 1, 2) == mix_seed(5, 1, 2)
        assert mix_seed(5, 1) != mix_seed(5, 2)
