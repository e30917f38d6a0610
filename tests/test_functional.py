import numpy as np
import pytest

from neutreno.attention import exp_score_kernel, neutreno_attention, NeutrenoParams, symmetric_attention
from neutreno.functional import (
    adaptive_step_sizes,
    central_difference_grad,
    fidelity_energy,
    fidelity_grad,
    nonlocal_energy,
    nonlocal_energy_grad,
    regularized_step,
    smoothing_step,
    split_smoothing_step,
    total_energy,
)


def loop_energy(u, w):
    """Independent oracle: literal double sum."""
    u, w = np.asarray(u, float), np.asarray(w, float)
    total = 0.0
    for i in range(u.shape[0]):
        for j in range(u.shape[0]):
            total += 0.5 * w[i, j] * np.sum((u[i] - u[j]) ** 2)
    return total


def fd_check(func, analytic, u):
    """Max relative error of the analytic gradient against central
    differences, taking the better of h = 1e-4 and h = 1e-5."""
    best = np.inf
    for h in (1e-4, 1e-5):
        est = central_difference_grad(func, u, h)
        denom = np.maximum(1.0, np.maximum(np.abs(est), np.abs(analytic)))
        best = min(best, float((np.abs(est - analytic) / denom).max()))
    return best


class TestNonlocalEnergy:
    def test_identical_rows_zero(self):
        u = np.tile([1.0, -2.0], (4, 1))
        assert nonlocal_energy(u, np.ones((4, 4))) == 0.0

    def test_two_scalar_tokens_hand_value(self):
        """Two ordered pairs, each contributing 1/2 * 1 * 1."""
        u = np.array([[0.0], [1.0]])
        assert nonlocal_energy(u, np.ones((2, 2))) == pytest.approx(1.0)

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(41)
        u = rng.normal(size=(5, 3))
        w = rng.uniform(size=(5, 5))
        assert nonlocal_energy(2 * u, w) == pytest.approx(4 * nonlocal_energy(u, w),
                                                          rel=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        u = rng.normal(size=(6, 2))
        w = rng.uniform(size=(6, 6))
        assert nonlocal_energy(u, w) == pytest.approx(loop_energy(u, w), rel=1e-13)

    def test_nonnegative_and_zero_iff_constant(self):
        rng = np.random.default_rng(43)
        w = rng.uniform(0.1, 1.0, size=(5, 5))
        u = rng.normal(size=(5, 2))
        assert nonlocal_energy(u, w) > 0
        assert nonlocal_energy(np.tile(u[0], (5, 1)), w) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nonlocal_energy(np.zeros((3, 2)), np.ones((4, 4)))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            nonlocal_energy(np.zeros((2, 2)), [[0.0, -1.0], [0.0, 0.0]])


class TestNonlocalEnergyGrad:
    def test_identical_rows_zero(self):
        u = np.tile([3.0, 4.0], (3, 1))
        assert not nonlocal_energy_grad(u, np.ones((3, 3))).any()

    def test_two_scalar_tokens_hand_value(self):
        """(u1 - u2)(w12 + w21) = (-1)(2) = -2 for the first row."""
        u = np.array([[0.0], [1.0]])
        grad = nonlocal_energy_grad(u, np.ones((2, 2)))
        np.testing.assert_allclose(grad, [[-2.0], [2.0]])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(44)
        u = rng.normal(size=(5, 3))
        w = rng.uniform(size=(5, 5))
        err = fd_check(lambda t: nonlocal_energy(t, w), nonlocal_energy_grad(u, w), u)
        assert err <= 1e-5

    def test_mass_conservation_symmetric_weights(self):
        rng = np.random.default_rng(45)
        w = rng.uniform(size=(6, 6))
        w = w + w.T
        grad = nonlocal_energy_grad(rng.normal(size=(6, 4)), w)
        np.testing.assert_allclose(grad.sum(axis=0), 0.0, atol=1e-10)


class TestFidelity:
    def test_anchor_equal_zero(self):
        u = np.ones((3, 2))
        assert fidelity_energy(u, u, 2.0) == 0.0
        assert not fidelity_grad(u, u, 2.0).any()

    def test_hand_value(self):
        """(2/2) * (3 - 1)^2 = 4, gradient 2 * (3 - 1) = 4."""
        u, f = np.array([[3.0]]), np.array([[1.0]])
        assert fidelity_energy(u, f, 2.0) == pytest.approx(4.0)
        np.testing.assert_allclose(fidelity_grad(u, f, 2.0), [[4.0]])

    def test_zero_lambda(self):
        rng = np.random.default_rng(46)
        u, f = rng.normal(size=(2, 4, 3))
        assert fidelity_energy(u, f, 0.0) == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(47)
        u, f = rng.normal(size=(2, 4, 3))
        err = fd_check(lambda t: fidelity_energy(t, f, 1.7),
                       fidelity_grad(u, f, 1.7), u)
        assert err <= 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_energy(np.zeros((2, 2)), np.zeros((3, 2)), 1.0)


class TestTotalEnergy:
    def test_sum_decomposition(self):
        rng = np.random.default_rng(48)
        u, f = rng.normal(size=(2, 5, 2))
        w = rng.uniform(size=(5, 5))
        report = total_energy(u, f, w, 0.8)
        assert report.e_value == pytest.approx(report.j_value + report.g_value,
                                               abs=1e-12)
        assert report.j_value >= 0 and report.g_value >= 0


class TestAdaptiveStepSizes:
    def test_uniform_weights(self):
        """Symmetrized row sums are 2N = 8, so every step is 1/8."""
        np.testing.assert_allclose(adaptive_step_sizes(np.ones((4, 4))), 0.125)

    def test_single_token(self):
        np.testing.assert_allclose(adaptive_step_sizes([[3.0]]), [1.0 / 6.0])

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(49)
        w = rng.uniform(0.5, 2.0, size=(5, 5))
        np.testing.assert_allclose(
            adaptive_step_sizes(3.0 * w), adaptive_step_sizes(w) / 3.0, rtol=1e-15
        )

    def test_zero_row_sum_names_row(self):
        w = np.ones((3, 3))
        w[1, :] = 0.0
        w[:, 1] = 0.0
        with pytest.raises(ValueError, match="row 1"):
            adaptive_step_sizes(w)


class TestSmoothingStep:
    def test_fixed_point_identical_rows(self):
        u = np.tile([2.0, -1.0], (4, 1))
        np.testing.assert_allclose(smoothing_step(u, np.ones((4, 4))), u)

    def test_uniform_weights_give_row_mean(self):
        rng = np.random.default_rng(50)
        u = rng.normal(size=(5, 3))
        out = smoothing_step(u, np.ones((5, 5)))
        np.testing.assert_allclose(out, np.tile(u.mean(axis=0), (5, 1)), atol=1e-12)

    def test_equals_explicit_gradient_step(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            u = rng.normal(size=(n, 3))
            w = rng.uniform(0.1, 2.0, size=(n, n))
            dt = adaptive_step_sizes(w)
            explicit = u - dt[:, None] * nonlocal_energy_grad(u, w)
            np.testing.assert_allclose(smoothing_step(u, w), explicit, atol=1e-12)

    def test_exp_kernel_step_is_symmetric_attention(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            keys = rng.normal(size=(n, 4))
            u = rng.normal(size=(n, 3))
            step = smoothing_step(u, exp_score_kernel(keys, keys))
            np.testing.assert_allclose(step, symmetric_attention(keys, u), atol=1e-12)

    def test_descent_on_exp_kernels(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            keys = rng.normal(scale=0.7, size=(n, 3))
            w = exp_score_kernel(keys, keys)
            u = rng.normal(size=(n, 4))
            assert nonlocal_energy(smoothing_step(u, w), w) <= nonlocal_energy(u, w) + 1e-10


class TestRegularizedStep:
    def test_zero_lambda_is_bitwise_smoothing(self):
        rng = np.random.default_rng(54)
        u, f = rng.normal(size=(2, 5, 2))
        w = rng.uniform(size=(5, 5))
        np.testing.assert_array_equal(
            regularized_step(u, f, w, 0.0), smoothing_step(u, w)
        )

    def test_anchor_equal_state_is_smoothing(self):
        rng = np.random.default_rng(55)
        u = rng.normal(size=(4, 3))
        w = rng.uniform(size=(4, 4))
        np.testing.assert_array_equal(
            regularized_step(u, u.copy(), w, 0.9), smoothing_step(u, w)
        )

    def test_matches_anchored_attention(self):
        rng = np.random.default_rng(56)
        keys = rng.normal(size=(6, 3))
        v = rng.normal(size=(6, 2))
        v0 = rng.normal(size=(6, 2))
        step = regularized_step(v, v0, exp_score_kernel(keys, keys), 0.6)
        attn = neutreno_attention(keys, keys, v, NeutrenoParams(0.6, v0))
        np.testing.assert_allclose(step, attn, atol=1e-12)


class TestSplitSmoothingStep:
    def test_symmetric_weights_square_the_averaging(self):
        rng = np.random.default_rng(57)
        w = rng.uniform(0.1, 1.0, size=(5, 5))
        w = w + w.T
        u = rng.normal(size=(5, 3))
        p = w / w.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(split_smoothing_step(u, w), p @ (p @ u), atol=1e-12)

    def test_fixed_point_identical_rows(self):
        u = np.tile([1.0, 1.0, -3.0], (4, 1))
        rng = np.random.default_rng(58)
        w = rng.uniform(0.2, 1.0, size=(4, 4))
        np.testing.assert_allclose(split_smoothing_step(u, w), u, atol=1e-12)

    def test_uniform_weights_reach_mean_after_first_half(self):
        rng = np.random.default_rng(59)
        u = rng.normal(size=(4, 2))
        out = split_smoothing_step(u, np.ones((4, 4)))
        np.testing.assert_allclose(out, np.tile(u.mean(axis=0), (4, 1)), atol=1e-12)

    def test_zero_column_sum_rejected(self):
        w = np.ones((3, 3))
        w[:, 2] = 0.0
        with pytest.raises(ValueError, match="column 2"):
            split_smoothing_step(np.zeros((3, 1)), w)
