"""Row softmax, seed substreams, token metrics, and work on the allowed CPUs.

The maths operates on plain float64 ``numpy`` arrays: matrices are 2-D
row-major arrays, vectors are 1-D arrays.  Those functions are pure and
never mutate their inputs, so values can be shared freely across threads.
``_in_order``, which runs the passes of a ``stack`` command, is the one
place that starts threads.
"""

from __future__ import annotations

import math
import os
from collections import deque
from contextlib import contextmanager
from itertools import islice

import numpy as np

# Entries per (rows, span, D) difference block in ``pairwise_sq_distances``:
# 512 KiB of float64, so a block stays in a 2 MiB L2 cache and the token
# metrics need O(N^2) memory, not O(N^2 D).  ``neutreno.dynamics`` also
# sizes its batches of trace records by it, and ``neutreno.random_walk``
# its blocks of walks, which run on the calling thread.
_BLOCK_ENTRIES = 1 << 16

__all__ = [
    "row_softmax",
    "pairwise_cosine_mean",
    "pairwise_sq_distances",
    "max_pairwise_distance",
    "substream",
    "mix_seed",
]


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def row_softmax(scores) -> np.ndarray:
    """Apply the softmax function to each row of a matrix.

    The per-row maximum is subtracted before exponentiation, so the result
    is finite for any finite input and invariant under adding a constant
    to a row.  Every output row sums to 1 and every entry is strictly
    positive.

    Raises
    ------
    ValueError
        If any input entry is NaN or infinite; the message names the
        first offending row.
    """
    return _softmax(_as_matrix(scores, "scores"))


def _softmax(scores: np.ndarray) -> np.ndarray:
    """``row_softmax`` of every matrix in a stack with leading unit axes."""
    finite = np.isfinite(scores)
    if not finite.all():
        bad_row = int(np.argwhere(~finite)[0, -2])
        raise ValueError(f"non-finite entry in row {bad_row} of scores")
    # one score-sized array: the shift allocates it, exp and the division
    # work in place with the same bits as their fresh forms
    e = scores - scores.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def pairwise_cosine_mean(tokens) -> float:
    """Mean cosine similarity over all ordered pairs of distinct rows.

    Computes ``(1 / (N (N - 1))) * sum_{i != j} <x_i, x_j> / (|x_i| |x_j|)``
    and clips the result into [-1, 1] to absorb rounding at the
    boundaries.  Requires at least two rows, none of them zero.
    """
    x = _as_matrix(tokens, "tokens")
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 rows, got {n}")
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0):
        bad = int(np.argwhere(norms == 0.0)[0, 0])
        raise ValueError(f"row {bad} has zero norm; cosine undefined")
    return float(_cosine_means(x, norms))


def _cosine_means(x: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """``pairwise_cosine_mean`` of every (N, D) matrix in a stack with
    leading unit axes, given its row norms; meaningless for a matrix with
    fewer than two rows or a zero row."""
    n = x.shape[-2]
    unit = x / norms[..., None]
    gram = unit @ unit.swapaxes(-1, -2)
    total = gram.sum(axis=(-2, -1)) - np.trace(gram, axis1=-2, axis2=-1)
    # clipped into [-1, 1]; NaN stays NaN
    return np.minimum(np.maximum(total / (n * (n - 1)), -1.0), 1.0)


def pairwise_sq_distances(tokens) -> np.ndarray:
    """Matrix of squared Euclidean distances ``|x_i - x_j|^2`` between rows.

    Entry ``(i, j)`` is ``((x_i - x_j) ** 2).sum()`` evaluated exactly as
    the one-shot ``(N, N, D)`` difference tensor would, bit for bit, for
    any memory layout of ``tokens``.  Only the upper triangle is formed, a
    block of rows ``[start, stop)`` against columns ``start:`` at a time,
    and each block is mirrored into the lower triangle: ``x_j - x_i`` is
    the exact negation of ``x_i - x_j``, so both entries are the same sum
    of the same squares.  Each block holds at most ``_BLOCK_ENTRIES``
    differences (at least one row), so memory beyond the ``(N, N)`` result
    is bounded.  Identical finite rows subtract to exact zeros, so their
    entry, and every diagonal entry, is exactly 0.0.
    """
    return _sq_distances(_as_matrix(tokens, "tokens"))


def _sq_distances(x: np.ndarray) -> np.ndarray:
    """``pairwise_sq_distances`` of every (N, D) matrix in a stack with
    leading unit axes; the block budget counts every unit."""
    *lead, n, d = x.shape
    units = math.prod(lead)
    out = np.empty((*lead, n, n))
    # numpy adds fewer than 8 terms strictly left to right, whether they
    # lie along the last axis or not; with the features outermost, one sum
    # over axis 0 runs across every pair at once and gives the same bits
    features_first = d < 8
    if features_first:
        x = np.ascontiguousarray(np.moveaxis(x, -1, 0))
    start = 0
    while start < n:
        stop = min(n, start + max(1, _BLOCK_ENTRIES // max(units * (n - start) * d, 1)))
        if features_first:
            diff = x[..., start:stop, None] - x[..., None, start:]
            block = np.multiply(diff, diff, out=diff).sum(axis=0)
        else:
            # from 8 terms on, the sum over the last axis is pairwise; a
            # fresh difference follows the layout of x, which fixes its
            # order, and a reused C-ordered buffer would change the bits
            diff = x[..., start:stop, None, :] - x[..., None, start:, :]
            block = np.multiply(diff, diff, out=diff).sum(axis=-1)
        out[..., start:stop, start:] = block
        out[..., start:, start:stop] = block.swapaxes(-1, -2)
        # freed before the next block is formed, whose allocation can then
        # reuse the memory instead of growing the heap and faulting in pages
        del diff, block
        start = stop
    return out


def max_pairwise_distance(tokens) -> float:
    """Largest Euclidean distance between any two rows.

    Exactly 0.0 iff all rows are equal (identical rows subtract to exact
    zeros, so no tolerance is involved).  Takes the square root of the
    largest squared distance; sqrt is monotone and correctly rounded, so
    this equals the largest of the square roots.
    """
    return float(np.sqrt(pairwise_sq_distances(tokens).max()))


def substream(seed, *key) -> np.random.Generator:
    """Derive an independent generator from a seed plus integer indices.

    Mixing is delegated to ``numpy.random.SeedSequence([seed, *key])``;
    two calls with the same arguments yield identical streams, and
    distinct keys yield statistically independent streams.  Used to give
    each experimental unit (seed index, walk block, ...) its own stream
    so results do not depend on evaluation order.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def mix_seed(seed, *key) -> int:
    """Collapse (seed, indices) into a single derived integer seed.

    Same SeedSequence mixing as ``substream``, exposed as an int for APIs
    that store a scalar seed.
    """
    return int(np.random.SeedSequence([int(seed), *map(int, key)]).generate_state(1)[0])


def _allowed_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextmanager
def _in_order(func, items, threads: int):
    """A context whose value yields ``func(item)`` for each of ``items``,
    in order.

    With ``threads`` >= 1, a pool of that many threads runs the items: the
    first ``threads`` are submitted on entry and one more each time a
    result is taken, so the pool runs at most ``threads`` items ahead of
    the consumer.  A failed item raises when its result is taken.  On
    exit, the items not yet started are cancelled and the pool's threads
    are joined.  With ``threads`` == 0, the items run one at a time on the
    calling thread as their results are taken.
    """
    if not threads:
        yield map(func, items)
        return
    from concurrent.futures import ThreadPoolExecutor
    items = iter(items)
    pool = ThreadPoolExecutor(threads)
    try:
        pending = deque(pool.submit(func, item) for item in islice(items, threads))

        def results():
            while pending:
                result = pending.popleft().result()
                pending.extend(pool.submit(func, item) for item in islice(items, 1))
                yield result

        yield results()
    finally:
        pool.shutdown(cancel_futures=True)
