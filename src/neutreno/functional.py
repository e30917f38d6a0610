"""Nonlocal smoothness energy, fidelity energy, and their gradient-flow steps.

The central object is the nonlocal energy of a token matrix ``u`` under a
nonnegative affinity weight matrix ``w``::

    J(u) = 1/2 * sum_{i,j} w[i, j] * |u_i - u_j|^2

Minimizing ``J`` drives all rows of ``u`` toward each other.  The fidelity
energy ``G(u) = lam/2 * sum_i |u_i - f_i|^2`` pins ``u`` to an anchor
signal ``f``, and the total energy is ``E = J + G``.

A single explicit Euler step on ``J`` with the per-row adaptive step size
``1 / sum_j (w[i,j] + w[j,i])`` collapses to a kernel-normalized
averaging (``smoothing_step``); with the exponential score kernel this
averaging is exactly symmetric softmax attention.  Adding the fidelity
gradient gives ``regularized_step``, the anchored update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import pairwise_sq_distances

__all__ = [
    "EnergyReport",
    "nonlocal_energy",
    "nonlocal_energy_grad",
    "fidelity_energy",
    "fidelity_grad",
    "total_energy",
    "adaptive_step_sizes",
    "smoothing_step",
    "regularized_step",
    "split_smoothing_step",
    "central_difference_grad",
]


def _check_weights(w, n_tokens: int) -> np.ndarray:
    """Validate a square nonnegative weight matrix."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"weight matrix must be square, got shape {w.shape}")
    if w.shape[0] != n_tokens:
        raise ValueError(
            f"weight matrix is {w.shape[0]}x{w.shape[0]} but tokens have {n_tokens} rows"
        )
    if np.any(w < 0):
        raise ValueError("weight matrix must be entrywise nonnegative")
    return w


def _check_anchor(u, anchor, lam: float, name: str = "lam") -> tuple[np.ndarray, np.ndarray]:
    """``u`` and ``anchor`` as float64 arrays of one shape, with the anchor
    weight ``lam`` (called ``name`` in the error) nonnegative."""
    u = np.asarray(u, dtype=np.float64)
    f = np.asarray(anchor, dtype=np.float64)
    if u.shape != f.shape:
        raise ValueError(f"token shape {u.shape} != anchor shape {f.shape}")
    if lam < 0:
        raise ValueError(f"{name} must be nonnegative, got {lam}")
    return u, f


def _check_sums(sums: np.ndarray, line: str, kernel: str) -> None:
    """Raise unless every entry of ``sums``, the sums of each ``line`` (row
    or column) of ``kernel``, is positive."""
    if np.any(sums <= 0):
        bad = int(np.argwhere(sums <= 0)[0, 0])
        raise ValueError(f"{line} {bad} of the {kernel} has zero sum")


@dataclass(frozen=True)
class EnergyReport:
    """Snapshot of the energy split: ``e_value == j_value + g_value``."""

    j_value: float
    g_value: float
    e_value: float
    lam: float


def nonlocal_energy(u, weights) -> float:
    """Evaluate ``J(u) = 1/2 sum_{i,j} w_ij |u_i - u_j|^2``.

    Nonnegative for nonnegative weights; zero iff all rows of ``u`` are
    equal whenever the off-diagonal weights are strictly positive.
    """
    u = np.asarray(u, dtype=np.float64)
    w = _check_weights(weights, u.shape[0])
    return float(0.5 * (w * pairwise_sq_distances(u)).sum())


def nonlocal_energy_grad(u, weights) -> np.ndarray:
    """Gradient of the nonlocal energy with respect to each token row.

    Row ``i`` of the result is ``sum_j (u_i - u_j) * (w_ij + w_ji)``.
    For symmetric ``w`` the rows sum to the zero vector (each pair
    contributes equal and opposite terms).
    """
    u = np.asarray(u, dtype=np.float64)
    w = _check_weights(weights, u.shape[0])
    sym = w + w.T
    degree = sym.sum(axis=1)
    return degree[:, None] * u - sym @ u


def fidelity_energy(u, anchor, lam: float) -> float:
    """Evaluate ``G(u) = lam/2 * sum_i |u_i - f_i|^2`` against anchor ``f``."""
    u, f = _check_anchor(u, anchor, lam)
    d = u - f
    return float(0.5 * lam * (d * d).sum())


def fidelity_grad(u, anchor, lam: float) -> np.ndarray:
    """Gradient of the fidelity energy: ``lam * (u - f)`` rowwise."""
    u, f = _check_anchor(u, anchor, lam)
    return lam * (u - f)


def total_energy(u, anchor, weights, lam: float) -> EnergyReport:
    """Evaluate both energy terms and their sum."""
    j = nonlocal_energy(u, weights)
    g = fidelity_energy(u, anchor, lam)
    return EnergyReport(j_value=j, g_value=g, e_value=j + g, lam=lam)


def adaptive_step_sizes(weights) -> np.ndarray:
    """Per-row Euler step sizes ``1 / sum_j (w_ij + w_ji)``.

    Raises if any row of the symmetrized kernel sums to zero (the step
    would be undefined there).
    """
    w = np.asarray(weights, dtype=np.float64)
    w = _check_weights(w, w.shape[0])
    sums = (w + w.T).sum(axis=1)
    _check_sums(sums, "row", "symmetrized kernel")
    return 1.0 / sums


def smoothing_step(u, weights) -> np.ndarray:
    """One adaptive-step Euler update on the nonlocal energy.

    Equals ``u - diag(dt) @ nonlocal_energy_grad(u, w)`` with the adaptive
    step sizes, which algebraically collapses to row-normalized
    symmetrized-kernel averaging::

        u_i  <-  sum_j K_ij u_j / sum_j K_ij,   K = w + w.T

    Each new row is a convex combination of the old rows.  With
    ``w = exp_score_kernel(k, k)`` this update is symmetric softmax
    attention (same weights, different arithmetic path, so agreement is
    to rounding, not bitwise).
    """
    u = np.asarray(u, dtype=np.float64)
    w = _check_weights(weights, u.shape[0])
    sym = w + w.T
    sums = sym.sum(axis=1)
    _check_sums(sums, "row", "symmetrized kernel")
    return (sym @ u) / sums[:, None]


def regularized_step(u, anchor, weights, lam_tilde: float) -> np.ndarray:
    """One Euler step on the total energy ``E = J + G``.

    With the fidelity weight chosen as ``lam_tilde / dt(i)`` per row, the
    update is ``smoothing_step(u, w) + lam_tilde * (anchor - u)``.  With
    the exponential score kernel and the first-layer values as anchor
    this is exactly the anchored attention update.  ``lam_tilde == 0``
    takes the same code path as ``smoothing_step`` bit for bit.
    """
    u, f = _check_anchor(u, anchor, lam_tilde, "lam_tilde")
    out = smoothing_step(u, weights)
    if lam_tilde:
        out = out + lam_tilde * (f - u)
    return out


def split_smoothing_step(u, weights) -> np.ndarray:
    """Two half-steps splitting the kernel into ``w`` and ``w.T`` parts.

    First half-step averages with row-normalized ``w`` (step size
    ``1 / sum_j w_ij``), the second with column-normalized ``w`` (step
    size ``1 / sum_j w_ji``)::

        u'_i  = sum_j w_ij u_j  / sum_j w_ij
        u''_i = sum_j w_ji u'_j / sum_j w_ji

    For symmetric ``w`` both half-steps apply the same row-normalized
    matrix, so the result is that matrix squared times ``u``.
    """
    u = np.asarray(u, dtype=np.float64)
    w = _check_weights(weights, u.shape[0])
    row_sums = w.sum(axis=1)
    col_sums = w.sum(axis=0)
    _check_sums(row_sums, "row", "kernel")
    _check_sums(col_sums, "column", "kernel")
    half = (w @ u) / row_sums[:, None]
    return (w.T @ half) / col_sums[:, None]


def central_difference_grad(scalar_func, u, h: float = 1e-5) -> np.ndarray:
    """Numerical gradient of a scalar function by central differences.

    Perturbs one entry of ``u`` at a time by ``+/- h`` and differences the
    function values.  Entries are independent, so evaluation order does
    not affect the result.  Verification utility: pair it with an
    analytic gradient to check the analytic code path.
    """
    u = np.asarray(u, dtype=np.float64)
    grad = np.empty_like(u)
    work = u.copy()
    it = np.nditer(u, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        original = work[idx]
        work[idx] = original + h
        high = scalar_func(work)
        work[idx] = original - h
        low = scalar_func(work)
        work[idx] = original
        grad[idx] = (high - low) / (2.0 * h)
    return grad
