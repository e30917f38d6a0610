import math

import numpy as np
import pytest

from neutreno.attention import (
    NeutrenoParams,
    attention_matrix,
    neutreno_attention,
    softmax_attention,
    symmetric_attention,
)
from neutreno.linalg import row_softmax


def loop_attention(q, k, v):
    """Independent oracle: explicit double loop over positions."""
    q, k, v = (np.asarray(a, dtype=float) for a in (q, k, v))
    n, d_qk = q.shape[0], q.shape[1]
    out = np.zeros((n, v.shape[1]))
    for i in range(n):
        scores = np.array([q[i] @ k[j] / math.sqrt(d_qk) for j in range(k.shape[0])])
        weights = np.exp(scores - scores.max())
        weights /= weights.sum()
        for j in range(k.shape[0]):
            out[i] += weights[j] * v[j]
    return out


class TestSoftmaxAttention:
    def test_single_token_returns_values(self):
        v = np.array([[3.0, -1.0]])
        out = softmax_attention(np.array([[2.0]]), np.array([[5.0]]), v)
        np.testing.assert_allclose(out, v)

    def test_hand_computed_two_tokens(self):
        """Scores (0, ln4) give weights (0.2, 0.8); zero query gives (0.5, 0.5)."""
        q = np.array([[1.0], [0.0]])
        k = np.array([[0.0], [math.log(4.0)]])
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = softmax_attention(q, k, v)
        np.testing.assert_allclose(out, [[0.2, 0.8], [0.5, 0.5]], atol=1e-15)

    def test_equal_keys_give_column_mean(self):
        rng = np.random.default_rng(21)
        q = rng.normal(size=(4, 3))
        k = np.tile(rng.normal(size=3), (4, 1))
        v = rng.normal(size=(4, 2))
        out = softmax_attention(q, k, v)
        np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (4, 1)), atol=1e-12)

    def test_output_in_convex_hull_of_values(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            q = rng.normal(size=(n, 4))
            k = rng.normal(size=(n, 4))
            v = rng.normal(size=(n, 3))
            out = softmax_attention(q, k, v)
            assert np.all(out <= v.max(axis=0) + 1e-12)
            assert np.all(out >= v.min(axis=0) - 1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(23)
        q, k, v = rng.normal(size=(3, 4, 3))
        np.testing.assert_allclose(
            softmax_attention(q, k, v), loop_attention(q, k, v), atol=1e-14
        )

    def test_zero_key_dim_rejected(self):
        with pytest.raises(ValueError):
            softmax_attention(np.zeros((2, 0)), np.zeros((2, 0)), np.zeros((2, 1)))


class TestSymmetricAttention:
    def test_equals_softmax_with_tied_queries(self):
        rng = np.random.default_rng(24)
        k = rng.normal(size=(5, 3))
        v = rng.normal(size=(5, 4))
        np.testing.assert_array_equal(
            symmetric_attention(k, v), softmax_attention(k, k, v)
        )

    def test_zero_keys_give_row_mean(self):
        v = np.array([[2.0, 0.0], [0.0, 4.0]])
        out = symmetric_attention(np.zeros((2, 1)), v)
        np.testing.assert_allclose(out, [[1.0, 2.0], [1.0, 2.0]], atol=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(25)
        k = rng.normal(size=(4, 3))
        v = rng.normal(size=(4, 3))
        np.testing.assert_allclose(
            symmetric_attention(k, v), loop_attention(k, k, v), atol=1e-14
        )


class TestNeutrenoAttention:
    def test_zero_lambda_is_bitwise_softmax(self):
        rng = np.random.default_rng(26)
        q, k, v = rng.normal(size=(3, 6, 4))
        params = NeutrenoParams(0.0, rng.normal(size=(6, 4)))
        np.testing.assert_array_equal(
            neutreno_attention(q, k, v, params), softmax_attention(q, k, v)
        )

    def test_anchor_equal_to_values_is_softmax(self):
        rng = np.random.default_rng(27)
        q, k, v = rng.normal(size=(3, 5, 3))
        params = NeutrenoParams(1.3, v.copy())
        np.testing.assert_array_equal(
            neutreno_attention(q, k, v, params), softmax_attention(q, k, v)
        )

    def test_matches_two_term_assembly(self):
        """Anchor weight 0.6; compare against loop attention plus residual."""
        rng = np.random.default_rng(28)
        q, k, v = rng.normal(size=(3, 5, 3))
        v0 = rng.normal(size=(5, 3))
        params = NeutrenoParams(0.6, v0)
        expected = loop_attention(q, k, v) + 0.6 * (v0 - v)
        np.testing.assert_allclose(neutreno_attention(q, k, v, params), expected,
                                   atol=1e-14)

    def test_anchor_shape_mismatch(self):
        params = NeutrenoParams(0.5, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            neutreno_attention(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)),
                               params)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            NeutrenoParams(-0.1, np.zeros((2, 2)))


class TestAttentionMatrix:
    def test_row_stochastic_and_positive(self):
        rng = np.random.default_rng(29)
        a = attention_matrix(rng.normal(size=(7, 3)), rng.normal(size=(7, 3)))
        assert np.all(a > 0)
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_row_softmax_of_scores(self):
        rng = np.random.default_rng(30)
        q = rng.normal(size=(4, 2))
        k = rng.normal(size=(4, 2))
        np.testing.assert_array_equal(
            attention_matrix(q, k), row_softmax(q @ k.T / math.sqrt(2))
        )


class TestPermutationEquivariance:
    @pytest.mark.parametrize("variant", ["softmax", "symmetric", "neutreno"])
    def test_permuting_tokens_permutes_outputs(self, variant):
        rng = np.random.default_rng(31)
        q, k, v = rng.normal(size=(3, 6, 3))
        v0 = rng.normal(size=(6, 3))
        perm = rng.permutation(6)

        if variant == "softmax":
            base = softmax_attention(q, k, v)
            permuted = softmax_attention(q[perm], k[perm], v[perm])
        elif variant == "symmetric":
            base = symmetric_attention(k, v)
            permuted = symmetric_attention(k[perm], v[perm])
        else:
            base = neutreno_attention(q, k, v, NeutrenoParams(0.6, v0))
            permuted = neutreno_attention(
                q[perm], k[perm], v[perm], NeutrenoParams(0.6, v0[perm])
            )
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)
