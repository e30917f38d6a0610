"""Alignment diagnostics between the two nonlocal-energy gradient estimates.

At a state where tokens equal the values, the descent direction of the
nonlocal energy can be estimated with either the symmetric key-key kernel
or the asymmetric query-key kernel::

    g_sym[i]  = sum_j (v_i - v_j) * exp(k_i . k_j / sqrt(d))
    g_asym[i] = sum_j (v_i - v_j) * exp(q_i . k_j / sqrt(d))

``grad_alignment`` reports the mean per-row cosine between the two
estimates: a value near 1 means the asymmetric attention map still points
down the symmetric energy landscape.  The metric is computed on whatever
tensors are supplied; it carries no expected value of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import exp_score_kernel

__all__ = [
    "GradApproxReport",
    "asymmetric_grad_approx",
    "grad_alignment",
]


@dataclass(frozen=True)
class GradApproxReport:
    """Both gradient estimates plus their mean per-row cosine.

    Rows where both estimates vanish are excluded from the mean and
    counted in ``skipped_rows`` (the cosine is undefined at zero).
    """

    sym_grad: np.ndarray = field(repr=False)
    asym_grad: np.ndarray = field(repr=False)
    mean_cosine_alignment: float
    skipped_rows: int


def asymmetric_grad_approx(values, queries, keys) -> np.ndarray:
    """Kernel-weighted sum of value differences using query-key scores.

    Row ``i`` is ``sum_j (v_i - v_j) * exp(q_i . k_j / sqrt(d))``.
    Vanishes exactly when all value rows are equal, and depends on the
    values only through differences (adding a constant row leaves it
    unchanged).
    """
    v = np.asarray(values, dtype=np.float64)
    kernel = exp_score_kernel(queries, keys)
    if kernel.shape[0] != v.shape[0] or kernel.shape[1] != v.shape[0]:
        raise ValueError(
            f"kernel shape {kernel.shape} does not match {v.shape[0]} value rows"
        )
    return kernel.sum(axis=1)[:, None] * v - kernel @ v


def grad_alignment(values, queries, keys) -> GradApproxReport:
    """Compare the two gradient estimates row by row.

    Returns the mean cosine over rows where both estimates are nonzero;
    degenerate rows are skipped and counted.  Identical estimate matrices
    short-circuit to an alignment of exactly 1.0.  Raises if every row is
    degenerate, which happens exactly when all value rows are equal.
    """
    g_sym = asymmetric_grad_approx(values, keys, keys)
    g_asym = asymmetric_grad_approx(values, queries, keys)

    sym_norms = np.linalg.norm(g_sym, axis=1)
    asym_norms = np.linalg.norm(g_asym, axis=1)
    keep = (sym_norms > 0.0) & (asym_norms > 0.0)
    skipped = int((~keep).sum())
    if not keep.any():
        raise ValueError(
            "all rows have zero gradient estimates; alignment is undefined"
        )
    if np.array_equal(g_sym, g_asym):
        alignment = 1.0
    else:
        cosines = (g_sym[keep] * g_asym[keep]).sum(axis=1) / (
            sym_norms[keep] * asym_norms[keep]
        )
        alignment = float(np.clip(cosines, -1.0, 1.0).mean())
    return GradApproxReport(
        sym_grad=g_sym,
        asym_grad=g_asym,
        mean_cosine_alignment=alignment,
        skipped_rows=skipped,
    )
