"""Markov-chain view of repeated attention smoothing.

The row-stochastic attention matrix ``A`` doubles as the transition
matrix of a random walk over token indices.  Iterating the frozen map
``u <- A u`` is then the expectation of that walk, its strictly positive
entries guarantee a unique stationary distribution ``pi``, and the
iterates collapse onto the single row ``v_bar = sum_j pi_j v0_j`` -- the
over-smoothed limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import attention_matrix, exp_score_kernel
from .linalg import _BLOCK_ENTRIES, _allowed_cpus, _in_order, substream

__all__ = [
    "ConvergenceError",
    "WalkStats",
    "is_transition_matrix",
    "transition_from_scores",
    "iterate_state",
    "stationary_closed_form",
    "stationary_power_iteration",
    "limit_vector",
    "walk_sample_stats",
]


class ConvergenceError(RuntimeError):
    """Iteration failed to reach the requested tolerance.

    Carries the last residual in ``residual``.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def is_transition_matrix(a, tol: float = 1e-12) -> bool:
    """True if ``a`` is square with strictly positive entries and rows
    summing to 1 within ``tol``."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    if not np.all(a > 0):
        return False
    return bool(np.allclose(a.sum(axis=1), 1.0, rtol=0.0, atol=tol))


def _check_transition(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if not is_transition_matrix(a):
        raise ValueError(
            "transition matrix must be square, strictly positive, "
            "with rows summing to 1"
        )
    return a


def transition_from_scores(queries, keys) -> np.ndarray:
    """Transition matrix from attention scores.

    Same code path as the attention matrix: ``row_softmax(q k^T / sqrt(d))``.
    Pass the keys twice for the symmetric (key-key) kernel.
    """
    return attention_matrix(queries, keys)


def iterate_state(v0, transition, steps: int) -> np.ndarray:
    """Apply ``state <- A @ state`` for ``steps`` iterations.

    ``steps == 0`` returns a copy of ``v0``.
    """
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    a = _check_transition(transition)
    state = np.array(v0, dtype=np.float64, copy=True)
    for _ in range(steps):
        state = a @ state
    return state


def stationary_closed_form(keys) -> np.ndarray:
    """Stationary distribution of the key-key (symmetric-kernel) chain.

    With ``A = row_softmax(k k^T / sqrt(d))`` the chain is reversible and
    the stationary weights are the normalized kernel row sums::

        pi_i = d_i / sum_j d_j,   d_i = sum_j exp(k_i . k_j / sqrt(d))

    Only valid for the symmetric kernel; chains built from separate
    queries need ``stationary_power_iteration``.
    """
    kernel = exp_score_kernel(keys, keys)
    d = kernel.sum(axis=1)
    return d / d.sum()


def stationary_power_iteration(
    transition, tol: float = 1e-12, max_iters: int = 100_000
) -> np.ndarray:
    """Left-eigenvector power iteration for the stationary distribution.

    Starts from the uniform distribution and repeats ``pi <- pi @ A``
    (renormalizing to sum 1) until the l1 residual ``|pi A - pi|_1``
    drops below ``tol``.  Strict positivity of ``A`` guarantees a unique
    fixed point, so the starting distribution does not matter.

    Raises
    ------
    ConvergenceError
        If the residual is still above ``tol`` after ``max_iters``
        sweeps; the error carries the final residual.
    """
    a = _check_transition(transition)
    n = a.shape[0]
    pi = np.full(n, 1.0 / n)
    residual = float("inf")
    for _ in range(max_iters):
        nxt = pi @ a
        nxt = nxt / nxt.sum()
        residual = float(np.abs(nxt @ a - nxt).sum())
        pi = nxt
        if residual <= tol:
            return pi
    raise ConvergenceError(
        f"power iteration residual {residual:.3e} above tol {tol:.3e} "
        f"after {max_iters} iterations",
        residual,
    )


def limit_vector(pi, v0) -> np.ndarray:
    """Over-smoothed limit ``v_bar = sum_j pi_j * v0_j``.

    Every row of ``iterate_state(v0, A, k)`` approaches this vector as
    ``k`` grows.
    """
    pi = np.asarray(pi, dtype=np.float64)
    v0 = np.asarray(v0, dtype=np.float64)
    if pi.ndim != 1 or v0.ndim != 2 or pi.shape[0] != v0.shape[0]:
        raise ValueError(
            f"pi length {pi.shape} does not match state shape {v0.shape}"
        )
    return pi @ v0


@dataclass(frozen=True)
class WalkStats:
    """Monte-Carlo estimate of the walk value at one start index."""

    mean: np.ndarray
    stderr: np.ndarray
    n_samples: int


def walk_sample_stats(
    v0, transition, steps: int, start: int, n_samples: int, seed
) -> WalkStats:
    """Simulate ``n_samples`` independent ``steps``-step walks from ``start``.

    Each walk moves over token indices with row ``i`` of the transition
    matrix as its jump distribution and pays out ``v0[final index]``.
    The randomness is one (n_samples, steps) uniform block from
    ``substream(seed, start, steps)``; walk ``w`` consumes row ``w``, so
    the result is reproducible and independent of how the walks are
    scheduled.  The block is drawn in pieces: each allowed CPU takes one
    contiguous share of the walks (no more shares than there are full
    blocks of ``_BLOCK_ENTRIES`` walks), and each share walks
    ``_BLOCK_ENTRIES`` of them at a time.  ``Generator.random`` spends one
    64-bit output per double, so a share starting at walk ``lo`` draws its
    rows from a generator advanced by ``lo * steps`` outputs, and a
    share's blocks continue its stream.  Besides the ``n_samples`` final
    states, a share holds O(``_BLOCK_ENTRIES * steps``) memory.

    A jump from state ``s`` with draw ``u`` goes to the number of
    thresholds ``cumsum(A[s])`` below ``u``, clipped to the last state.
    It is found with a guide table (Chen & Asau 1974), built once per
    call: [0, 1) splits into ``G = 16 * W`` equal buckets, ``W`` the power
    of two at or above N, and each (row, bucket) entry holds the jump of
    every draw in the bucket, or flags a bucket that holds thresholds.  A
    flagged walk then bisects over the thresholds inside its bucket.  As
    ``G`` is a power of two, ``floor(u * G)`` is the exact bucket of
    ``u``, and the flagged walks compare ``threshold < u`` as a direct
    count would, so every jump is exact.  The table takes O(N * W)
    memory: 2 bytes an entry up to N = 32 767, 128 KiB at N = 64.

    Returns the per-coordinate sample mean and its standard error
    ``std / sqrt(n_samples)``.
    """
    a = _check_transition(transition)
    v0 = np.asarray(v0, dtype=np.float64)
    if not 0 <= start < a.shape[0]:
        raise ValueError(f"start index {start} out of range for {a.shape[0]} states")
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")

    if steps == 0:
        # no randomness consumed; the payout is the start value exactly
        return WalkStats(mean=v0[start].copy(), stderr=np.zeros(v0.shape[1]),
                         n_samples=n_samples)
    n = a.shape[0]
    thresholds = np.cumsum(a, axis=1)
    size = 16 << (n - 1).bit_length()
    stride = size + 1
    table = np.empty(n * stride, dtype=np.int16 if n < 2**15 else np.int32)
    crowd = 0  # the most thresholds in one bucket
    chunk = max(1, _BLOCK_ENTRIES // size)
    for top in range(0, n, chunk):
        part = thresholds[top:top + chunk]
        # the bucket of each threshold, exact as size is a power of two; a
        # threshold below bucket b has its bucket below b.  Thresholds at or
        # above 1, which no draw exceeds, join an extra bucket closing each
        # row
        edge = np.full((len(part), n + 1), size, dtype=np.intp)
        np.minimum(part * size, size, out=edge[:, :n], casting="unsafe")
        # the first threshold of each bucket that holds any, by row: it has
        # `below` thresholds before it.  Row by row, each such bucket follows
        # a run of empty buckets whose draws all jump to `below`, clipped,
        # and holds -1 - below itself
        opens = np.ones(edge.shape, dtype=bool)
        np.not_equal(edge[:, 1:], edge[:, :-1], out=opens[:, 1:])
        row, below = np.nonzero(opens)
        position = row * stride + edge[row, below]
        runs = np.ones((len(position), 2), dtype=np.intp)
        runs[:, 0] = np.diff(position, prepend=-1) - 1
        values = np.stack([np.minimum(below, n - 1), -1 - below], axis=1)
        table[top * stride:(top + len(part)) * stride] = np.repeat(
            values.astype(table.dtype).ravel(), runs.ravel())
        # the step from a row's extra bucket to the next row is negative
        crowd = max(crowd, int(np.diff(below).max(initial=0)))
    reach = 1 << crowd.bit_length()  # the bisection's width, above crowd
    thresholds = thresholds.ravel()
    states = np.empty(n_samples, dtype=np.intp)

    def walk(rng, lo, hi, draws, index, entry):
        for first in range(lo, hi, _BLOCK_ENTRIES):
            m = min(hi - first, _BLOCK_ENTRIES)
            rows = rng.random(out=draws[:m])
            at, guide = index[:m], entry[:m]
            bucket = states[first:first + m]  # free until the block ends
            at.fill(start)
            for t in range(steps):
                # inverse-CDF jump: the entry of the draw's bucket in the
                # current row; the cast floors the exact product
                u = rows[:, t]
                np.multiply(u, size, out=bucket, casting="unsafe")
                at *= stride
                at += bucket
                # every index is in range, so "wrap" moves none; it spares
                # the copy of out that take makes under "raise"
                np.take(table, at, out=guide, mode="wrap")
                # a flagged walk adds the thresholds in its bucket below its
                # draw, by bisection; past the bucket they are above the
                # draw, and a probe past the row reads its last one, which
                # only the final clip can tell apart
                flagged = np.flatnonzero(guide < 0)
                base = at[flagged] // stride * n
                jump = -1 - guide[flagged].astype(np.intp)
                draw = u[flagged]
                half = reach // 2
                while half:
                    probe = np.minimum(jump + (half - 1), n - 1)
                    probe += base
                    jump += (thresholds[probe] < draw) * half
                    half //= 2
                np.copyto(at, guide)
                at[flagged] = np.minimum(jump, n - 1)
            states[first:first + m] = at

    def share(lo, hi):
        """The arguments of ``walk`` for walks ``lo`` to ``hi``."""
        rng = substream(seed, start, steps)
        rng.bit_generator.advance(lo * steps)
        block = min(hi - lo, _BLOCK_ENTRIES)
        return (rng, lo, hi, np.empty((block, steps)), np.empty(block, dtype=np.intp),
                np.empty(block, dtype=table.dtype))

    # the generators and buffers are made on the calling thread: only it
    # runs functions that a caller may have wrapped, and the workers
    # allocate nothing large; the calling thread walks the first share
    # while the pool walks the others, and the buffers are freed before
    # the payouts
    count = max(1, min(_allowed_cpus(), n_samples // _BLOCK_ENTRIES))
    bounds = [n_samples * k // count for k in range(count + 1)]
    shares = [share(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    with _in_order(lambda args: walk(*args), shares[1:], count - 1) as others:
        walk(*shares[0])
        del shares
        for _ in others:  # a share's error is raised here
            pass

    payouts = np.take(v0, states, axis=0)
    mean = payouts.mean(axis=0)
    if n_samples > 1:
        stderr = payouts.std(axis=0, ddof=1) / np.sqrt(n_samples)
    else:
        stderr = np.zeros_like(mean)
    return WalkStats(mean=mean, stderr=stderr, n_samples=n_samples)

