"""Depth dynamics under a frozen transition matrix.

``run_plain_dynamics`` iterates ``u <- A u`` and records per-step metrics;
the diameter of the token set shrinks every step and the state collapses
to a single repeated row.  ``run_neutreno_dynamics`` iterates the anchored
update ``u <- A u + lam * (f - u)``, whose fixed point

    u* = lam * ((1 + lam) I - A)^{-1} f

is generally *not* a constant-row matrix when the anchor ``f`` has
distinct rows: the anchor term keeps token identities apart.
``neutreno_fixed_point`` solves for ``u*`` directly and
``fixed_point_separation`` measures how far apart it keeps anchored-apart
rows.

The transition matrix is frozen across steps throughout this module (the
idealization under which the limit statements are exact); the layered
model in ``neutreno.stack`` recomputes projections per layer instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    _BLOCK_ENTRIES, _cosine_means, _sq_distances, max_pairwise_distance,
    pairwise_sq_distances,
)
from .functional import _check_weights
from .random_walk import _check_transition

__all__ = [
    "TraceRecord",
    "DynamicsTrace",
    "FixedPointReport",
    "SeparationReport",
    "run_plain_dynamics",
    "run_neutreno_dynamics",
    "neutreno_fixed_point",
    "fixed_point_separation",
]

DEFAULT_OVERFLOW_BOUND = 1e12


@dataclass(frozen=True)
class TraceRecord:
    """Metrics for one step: the nonlocal energy of the state (weighted by
    the transition matrix itself), mean pairwise cosine, token diameter,
    and whether the overflow bound has been exceeded by this step."""

    step: int
    j_value: float
    mean_cosine: float
    max_pairwise: float
    diverged: bool
    state: np.ndarray | None = field(default=None, repr=False)


# the float64 columns of a trace, in the order of every CSV that holds them
METRICS = ("mean_cosine", "j_value", "max_pairwise")


class DynamicsTrace:
    """Per-step metrics held as named columns, contiguous from step 0.

    Built once from finished arrays: ``values`` is (len(METRICS), steps)
    float64 in ``METRICS`` order, ``overflowed`` the (steps,) bool flags
    of the states that are non-finite or exceed the overflow bound, and
    ``states``, if given, the recorded state of each step (an array or a
    list of arrays, indexed by step).  ``column(name)`` is a read-only
    array with one entry per step: float64 for each name in ``METRICS``,
    bool for the ``"diverged"`` flag, which latches from the first
    overflowed step on.  ``trace[i]``, slices and iteration give
    ``TraceRecord`` views of the same values, whose ``state`` is the
    recorded state and ``None`` when no states were recorded.
    """

    def __init__(self, values: np.ndarray, overflowed: np.ndarray, states=None):
        self._values = values.view()
        self._flags = np.logical_or.accumulate(overflowed)
        self._values.flags.writeable = self._flags.flags.writeable = False
        self._states = states

    def column(self, name: str) -> np.ndarray:
        return self._flags if name == "diverged" else self._values[METRICS.index(name)]

    def _record(self, step: int) -> TraceRecord:
        return TraceRecord(step, **dict(zip(METRICS, self._values[:, step].tolist())),
                           diverged=bool(self._flags[step]),
                           state=None if self._states is None else self._states[step])

    def __len__(self):
        return len(self._flags)

    def __iter__(self):
        return map(self._record, range(len(self)))

    def __getitem__(self, idx):
        steps = range(len(self))[idx]
        if isinstance(steps, range):
            return [self._record(step) for step in steps]
        return self._record(steps)

    @property
    def final(self) -> TraceRecord:
        return self[-1]

    @property
    def diverged(self) -> bool:
        return bool(self._flags[-1:].any())  # the last flag, if any


def _records(x: np.ndarray, weights: np.ndarray, overflow_bound: float):
    """The (len(METRICS), units) values, in ``METRICS`` order, and the
    (units,) overflow flags of the (units, N, D) states ``x``; J is weighted
    by each unit's already checked (N, N) ``weights``.

    J, cosine and diameter are NaN where undefined, and a non-finite state
    gets NaN for all three.  A state overflows when it is non-finite or
    exceeds ``overflow_bound`` in magnitude.
    """
    # the metrics run on the layout the recorded state has
    x = np.ascontiguousarray(x)
    values = np.full((len(METRICS), len(x)), np.nan)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        finite = np.isfinite(x).all(axis=(-2, -1))
        overflowed = ~finite
        if not finite.all():
            x, weights = x[finite], weights[finite]
        if len(x):
            # J and the diameter share one squared-distance matrix; the
            # expressions are those of nonlocal_energy, max_pairwise_distance
            # and pairwise_cosine_mean.  The diameter is taken first, so the
            # weighted squares can overwrite the (C-ordered) matrix, which is
            # then released before the cosine's Gram matrix is formed.
            sq = _sq_distances(x)
            diameter = np.sqrt(sq.max(axis=(-2, -1)))
            j = 0.5 * np.multiply(weights, sq, out=sq).sum(axis=(-2, -1))
            del sq
            norms = np.linalg.norm(x, axis=-1)
            # the cosine is undefined with a zero row, whose NaN norm spreads
            # to its unit's mean, or with a single row, whose mean is 0 / 0
            if not norms.all():
                norms[norms == 0.0] = np.nan
            values[:, finite] = _cosine_means(x, norms), j, diameter
            overflowed[finite] = np.abs(x).max(axis=(-2, -1)) > overflow_bound
    return values, overflowed


def _run(v0, transition, steps, lam, anchor, overflow_bound, record_states):
    """The trace of ``u <- A u (+ lam (anchor - u))`` over ``steps`` steps.

    Records are computed a batch of steps at a time.  The float64 iterate
    of this deterministic map ends in an exact fixed point or cycle; once a
    state repeats an earlier one bit for bit, the run stops stepping and
    replays the cycle's records (and states) out to ``steps``, which gives
    the same trace as stepping on.  Finding the repeat costs one extra
    copy of the state.
    """
    a = np.asarray(transition, dtype=np.float64)
    state = np.array(v0, dtype=np.float64, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != state.shape[0]:
        raise ValueError(
            f"transition shape {a.shape} does not match state shape {state.shape}"
        )
    if anchor is not None and anchor.shape != state.shape:
        raise ValueError(
            f"anchor shape {anchor.shape} != state shape {state.shape}"
        )
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    n = state.shape[0]
    a = _check_weights(a, n)

    values = np.empty((len(METRICS), steps + 1))
    overflowed = np.empty(steps + 1, dtype=bool)
    states = np.empty((steps + 1, *state.shape)) if record_states else None
    # consecutive steps stand in for the units of the stack path; a batch's
    # distance matrices hold at most _BLOCK_ENTRIES entries
    batch = np.empty((min(steps + 1, max(1, _BLOCK_ENTRIES // n**2)), *state.shape))
    # Brent's cycle finding: each new state's bytes are compared with a
    # checkpoint, which jumps to the current state at power-of-two distances.
    # Step 0 is never a checkpoint, because the map's bits may depend on the
    # input's memory layout; every later state is a fresh C-ordered product.
    checkpoint, since, power = None, 0, 1
    step = period = 0
    while step <= steps and not period:
        k = 0
        with np.errstate(over="ignore", invalid="ignore"):
            while k < len(batch) and step <= steps:
                if step:
                    nxt = a @ state
                    if lam:
                        nxt = nxt + lam * (anchor - state)
                    state = nxt
                    key = state.tobytes()
                    if key == checkpoint:
                        period = step - since
                        break
                    if step - since == power:
                        checkpoint, since, power = key, step, 2 * power
                batch[k] = state
                k += 1
                step += 1
        if k:
            done = slice(step - k, step)
            values[:, done], overflowed[done] = _records(
                batch[:k], np.broadcast_to(a, (k, n, n)), overflow_bound)
            if record_states:
                states[done] = batch[:k]
    if period:
        # the state at `step` is the one at `step - period`, and the map and
        # the metrics see only the state, so the rest of the run repeats the
        # cycle's records and states; every cycle state is already latched
        cycle = step - period + np.arange(steps + 1 - step) % period
        values[:, step:], overflowed[step:] = values[:, cycle], overflowed[cycle]
        if record_states:
            states[step:] = states[cycle]
    return DynamicsTrace(values, overflowed, states)


def run_plain_dynamics(v0, transition, steps: int, *, record_states: bool = False,
                       overflow_bound: float = DEFAULT_OVERFLOW_BOUND) -> DynamicsTrace:
    """Iterate ``u <- A u`` for ``steps`` steps, recording metrics per step.

    The trace has ``steps + 1`` records (step 0 is the initial state).
    Every new row is a convex combination of the previous rows, so
    ``max_pairwise`` never increases and the final diameter is at most
    the initial one.  Once the iterate repeats an earlier state bit for
    bit, the later records are copied from that cycle rather than
    computed, so a large ``steps`` costs little past the repeat.
    """
    return _run(v0, transition, steps, 0.0, None, overflow_bound, record_states)


def run_neutreno_dynamics(v0, anchor, transition, lam_tilde: float, steps: int, *,
                          overflow_bound: float = DEFAULT_OVERFLOW_BOUND,
                          record_states: bool = False) -> DynamicsTrace:
    """Iterate the anchored update ``u <- A u + lam * (anchor - u)``.

    With ``lam_tilde == 0`` this takes the same arithmetic path as
    ``run_plain_dynamics`` and produces a bitwise-identical trace.
    Divergence (any entry above ``overflow_bound`` in magnitude) is
    recorded in the trace, not raised: the iteration matrix ``A - lam I``
    can have spectral radius above 1, in which case the iterates grow.
    The ``diverged`` flag latches from the first offending step onward.
    As in ``run_plain_dynamics``, the records after the iterate first
    repeats an earlier state bit for bit (a fixed point, a cycle, or a
    NaN orbit) are copied from that cycle rather than computed.
    """
    if lam_tilde < 0:
        raise ValueError(f"lam_tilde must be nonnegative, got {lam_tilde}")
    anchor = np.asarray(anchor, dtype=np.float64)
    return _run(v0, transition, steps, lam_tilde, anchor, overflow_bound, record_states)


@dataclass(frozen=True)
class FixedPointReport:
    """Fixed point of the anchored recursion and its quality measures.

    ``residual`` is ``max |u* - (A u* + lam (f - u*))|``;
    ``is_constant_vector`` flags a token diameter below ``constant_tol``;
    ``spectral_ok`` reports whether the iteration matrix ``A - lam I``
    has spectral radius below 1, computed exactly from its eigenvalues
    (so the recursion actually converges to ``u*``).
    """

    u_star: np.ndarray
    residual: float
    is_constant_vector: bool
    spectral_ok: bool


def neutreno_fixed_point(anchor, transition, lam_tilde: float, *,
                         constant_tol: float = 1e-10) -> FixedPointReport:
    """Solve for the fixed point ``u* = lam ((1 + lam) I - A)^{-1} f``.

    Requires ``lam_tilde > 0`` and a transition matrix (square, strictly
    positive, rows summing to 1); raises ``ValueError`` otherwise.  Then
    ``(1 + lam) I - A`` is strictly diagonally dominant, so the solve
    cannot meet a singular system.  If the anchor is a constant-row
    matrix, ``u*`` equals the anchor (constant rows are fixed by ``A``).
    """
    if lam_tilde <= 0:
        raise ValueError(f"lam_tilde must be positive, got {lam_tilde}")
    a = _check_transition(transition)
    f = np.asarray(anchor, dtype=np.float64)
    n = a.shape[0]
    if f.ndim != 2 or f.shape[0] != n:
        raise ValueError(f"anchor shape {f.shape} does not match transition {a.shape}")
    eye = np.eye(n)
    u_star = np.linalg.solve((1.0 + lam_tilde) * eye - a, lam_tilde * f)
    residual = float(np.abs(u_star - (a @ u_star + lam_tilde * (f - u_star))).max())
    rho = np.abs(np.linalg.eigvals(a - lam_tilde * eye)).max()
    return FixedPointReport(
        u_star=u_star,
        residual=residual,
        is_constant_vector=max_pairwise_distance(u_star) < constant_tol,
        spectral_ok=bool(rho < 1.0),
    )


@dataclass(frozen=True)
class SeparationReport:
    """Row-separation margins of the anchored fixed point.

    For every pair of rows whose anchors differ, ``margins`` holds the
    Euclidean distance between the corresponding fixed-point rows;
    ``min_margin`` and ``worst_pair`` locate the closest such pair, and
    ``separated`` states whether every margin is strictly positive.
    """

    min_margin: float
    worst_pair: tuple[int, int]
    separated: bool
    margins: dict[tuple[int, int], float]
    fixed_point: FixedPointReport


def fixed_point_separation(anchor, transition, lam_tilde: float) -> SeparationReport:
    """Measure how the anchored fixed point keeps distinct-anchor rows apart.

    Requires at least two anchor rows to differ; raises otherwise (with a
    constant anchor the fixed point *is* the anchor, and there is nothing
    to separate).
    """
    f = np.asarray(anchor, dtype=np.float64)
    pairs = [
        (i, j)
        for i in range(f.shape[0])
        for j in range(i + 1, f.shape[0])
        if not np.array_equal(f[i], f[j])
    ]
    if not pairs:
        raise ValueError("anchor rows are all identical; separation is undefined")
    report = neutreno_fixed_point(f, transition, lam_tilde)
    sq = pairwise_sq_distances(report.u_star)
    margins = {(i, j): float(np.sqrt(sq[i, j])) for i, j in pairs}
    worst = min(margins, key=margins.get)
    min_margin = margins[worst]
    return SeparationReport(
        min_margin=min_margin,
        worst_pair=worst,
        separated=min_margin > 0.0,
        margins=margins,
        fixed_point=report,
    )
