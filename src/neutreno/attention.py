"""Attention variants on dense query, key and value matrices.

Three variants share one score path:

* ``softmax_attention`` -- standard scaled dot-product attention,
* ``symmetric_attention`` -- queries tied to keys (score matrix is
  symmetric), which makes one attention application identical to one
  adaptive-step smoothing step on the nonlocal energy (see
  ``neutreno.functional.smoothing_step``),
* ``neutreno_attention`` -- softmax attention plus an anchor residual
  ``lam * (v0 - v)`` pulling values back toward the first layer's values.

The row-stochastic attention matrix is exposed as a first-class value
(``attention_matrix``) because the same matrix doubles as a Markov-chain
transition matrix in ``neutreno.random_walk``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import _softmax, row_softmax

__all__ = [
    "NeutrenoParams",
    "scaled_scores",
    "exp_score_kernel",
    "attention_matrix",
    "softmax_attention",
    "symmetric_attention",
    "neutreno_attention",
]


@dataclass(frozen=True)
class NeutrenoParams:
    """Anchor residual parameters: weight ``lambda_tilde`` and the cached
    first-layer value matrix the residual pulls toward."""

    lambda_tilde: float
    first_layer_values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.lambda_tilde < 0:
            raise ValueError(f"lambda_tilde must be nonnegative, got {self.lambda_tilde}")
        object.__setattr__(
            self, "first_layer_values",
            np.asarray(self.first_layer_values, dtype=np.float64),
        )


def scaled_scores(queries, keys) -> np.ndarray:
    """Score matrix ``queries @ keys.T / sqrt(key_dim)``.

    Leading axes, if any, index independent units and must agree; each
    unit's matrix is the same product as for its 2-D slices.
    """
    q = np.asarray(queries, dtype=np.float64)
    k = np.asarray(keys, dtype=np.float64)
    if q.ndim < 2 or q.ndim != k.ndim or q.shape[:-2] != k.shape[:-2] \
            or q.shape[-1] != k.shape[-1]:
        raise ValueError(f"query shape {q.shape} incompatible with key shape {k.shape}")
    if q.shape[-1] == 0:
        raise ValueError("key dimension must be positive")
    return q @ k.swapaxes(-1, -2) / np.sqrt(q.shape[-1])


def exp_score_kernel(queries, keys) -> np.ndarray:
    """Unnormalized affinity kernel ``exp(scaled_scores)``.

    Row-normalizing this kernel gives ``attention_matrix``; it is also the
    natural weight matrix for the nonlocal energy of the state that
    produced the scores.
    """
    return np.exp(scaled_scores(queries, keys))


def attention_matrix(queries, keys) -> np.ndarray:
    """Row-stochastic attention matrix ``row_softmax(scaled_scores)``.

    All entries are strictly positive and each row sums to 1, so the
    result is simultaneously an attention map and a Markov transition
    matrix over token indices.
    """
    return row_softmax(scaled_scores(queries, keys))


def _attend(scores, values, lambda_tilde: float = 0.0,
            first_layer_values=None) -> np.ndarray:
    """``row_softmax(scores) @ values``, plus ``lambda_tilde *
    (first_layer_values - values)`` when ``lambda_tilde`` is nonzero.  The
    one attention path, shared by the public variants and by
    ``neutreno.stack``, which passes a stack of units along leading axes."""
    v = np.asarray(values, dtype=np.float64)
    rows = v.shape[scores.ndim - 2]
    if rows != scores.shape[-1]:
        raise ValueError(f"values have {rows} rows but keys have {scores.shape[-1]}")
    out = _softmax(scores) @ v
    if lambda_tilde:
        out = out + lambda_tilde * (first_layer_values - v)
    return out


def softmax_attention(queries, keys, values) -> np.ndarray:
    """Scaled dot-product attention output ``attention_matrix @ values``.

    Each output row is a convex combination of value rows, so every
    output coordinate lies inside the [min, max] range of its value
    column.
    """
    return _attend(scaled_scores(queries, keys), values)


def symmetric_attention(keys, values) -> np.ndarray:
    """Attention with queries tied to keys: ``softmax_attention(k, k, v)``."""
    return softmax_attention(keys, keys, values)


def neutreno_attention(queries, keys, values, params: NeutrenoParams) -> np.ndarray:
    """Softmax attention plus the anchor residual ``lam * (v0 - values)``.

    With ``lambda_tilde == 0`` the residual branch is skipped entirely, so
    the output is bit-identical to ``softmax_attention``.
    """
    v = np.asarray(values, dtype=np.float64)
    v0 = params.first_layer_values
    if v0.shape != v.shape:
        raise ValueError(
            f"first-layer values shape {v0.shape} != values shape {v.shape}"
        )
    return _attend(scaled_scores(queries, keys), v, params.lambda_tilde, v0)
