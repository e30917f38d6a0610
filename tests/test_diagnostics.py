import math

import numpy as np
import pytest

from neutreno.diagnostics import (
    asymmetric_grad_approx,
    grad_alignment,
)


def loop_grad_approx(values, queries, keys):
    """Independent oracle: literal double sum of weighted differences."""
    v, q, k = (np.asarray(a, float) for a in (values, queries, keys))
    n, d_qk = q.shape
    out = np.zeros_like(v)
    for i in range(n):
        for j in range(n):
            out[i] += (v[i] - v[j]) * math.exp(q[i] @ k[j] / math.sqrt(d_qk))
    return out


class TestGradApprox:
    def test_identical_values_vanish(self):
        rng = np.random.default_rng(110)
        v = np.tile([1.0, -0.5], (4, 1))
        k = rng.normal(size=(4, 3))
        assert not asymmetric_grad_approx(v, k, k).any()
        assert not asymmetric_grad_approx(v, rng.normal(size=(4, 3)), k).any()

    def test_hand_computed_two_tokens(self):
        """Zero keys weight every difference by exp(0) = 1."""
        v = np.array([[0.0], [1.0]])
        k = np.zeros((2, 1))
        np.testing.assert_allclose(asymmetric_grad_approx(v, k, k), [[-1.0], [1.0]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(112)
        v = rng.normal(size=(4, 3))
        q = rng.normal(size=(4, 2))
        k = rng.normal(size=(4, 2))
        np.testing.assert_allclose(
            asymmetric_grad_approx(v, q, k), loop_grad_approx(v, q, k), atol=1e-13
        )
        np.testing.assert_allclose(
            asymmetric_grad_approx(v, k, k), loop_grad_approx(v, k, k), atol=1e-13
        )

    def test_translation_invariance_in_values(self):
        rng = np.random.default_rng(113)
        v = rng.normal(size=(5, 3))
        q = rng.normal(size=(5, 2))
        k = rng.normal(size=(5, 2))
        shifted = v + np.array([10.0, -3.0, 0.5])
        np.testing.assert_allclose(
            asymmetric_grad_approx(shifted, q, k),
            asymmetric_grad_approx(v, q, k),
            atol=1e-12,
        )


class TestGradAlignment:
    def test_tied_queries_align_exactly(self):
        rng = np.random.default_rng(114)
        v = rng.normal(size=(6, 3))
        k = rng.normal(size=(6, 2))
        report = grad_alignment(v, k, k)
        assert report.mean_cosine_alignment == 1.0
        assert report.skipped_rows == 0

    def test_random_instance_reported_not_asserted(self):
        # measurement only: the value depends on the draw, the bounds do not
        rng = np.random.default_rng(115)
        v = rng.normal(size=(16, 8))
        q = rng.normal(size=(16, 8))
        k = rng.normal(size=(16, 8))
        report = grad_alignment(v, q, k)
        assert -1.0 <= report.mean_cosine_alignment <= 1.0
        assert report.sym_grad.shape == v.shape
        assert report.asym_grad.shape == v.shape

    def test_all_degenerate_rows_rejected(self):
        v = np.tile([2.0, 2.0], (3, 1))
        k = np.zeros((3, 2))
        with pytest.raises(ValueError, match="zero gradient"):
            grad_alignment(v, k, k)
