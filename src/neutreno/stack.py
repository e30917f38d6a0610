"""A toy multi-layer attention model for depth experiments.

Each layer projects the current token state to queries/keys/values and
applies one of the attention variants; the layer output (plus the input,
if residual connections are on) becomes the next state.  No feed-forward
blocks, normalization, or multiple heads: the point is to isolate how the
attention map alone drives token representations together over depth,
and how the anchored variant slows that collapse.

The per-layer trace records the mean pairwise cosine, the token diameter,
and the nonlocal energy of the layer output weighted by that layer's own
exponential score kernel.  Record 0 holds the raw input, with its energy
measured under the first layer's kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import _attend, scaled_scores
from .dynamics import DEFAULT_OVERFLOW_BOUND, METRICS, DynamicsTrace, _records

__all__ = ["VARIANTS", "StackConfig", "StackModel", "init_stack", "forward"]

VARIANTS = ("softmax", "symmetric", "neutreno")


@dataclass(frozen=True)
class StackConfig:
    """Dimensions and options for a model stack.

    ``value_dim`` must equal ``input_dim`` when ``layers > 1``, because a
    layer's output feeds the next layer's projections directly.  Weights
    are drawn i.i.d. Gaussian with standard deviation
    ``init_scale / sqrt(input_dim)``.
    """

    layers: int
    input_dim: int
    key_dim: int
    value_dim: int
    variant: str = "softmax"
    lambda_tilde: float = 0.0
    residual: bool = False
    init_scale: float = 1.0

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError(f"need at least one layer, got {self.layers}")
        for name in ("input_dim", "key_dim", "value_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.lambda_tilde < 0:
            raise ValueError(f"lambda_tilde must be nonnegative, got {self.lambda_tilde}")
        if self.init_scale <= 0:
            raise ValueError(f"init_scale must be positive, got {self.init_scale}")
        if self.layers > 1 and self.value_dim != self.input_dim:
            raise ValueError(
                f"value_dim ({self.value_dim}) must equal input_dim "
                f"({self.input_dim}) when outputs feed the next layer"
            )


@dataclass(frozen=True)
class StackModel:
    """A stack's config and its weights, one slice per layer: ``w_q`` and
    ``w_k`` are (layers, key_dim, input_dim), ``w_v`` is (layers,
    value_dim, input_dim) for one seed, and each has a leading seed axis,
    (S, layers, rows, input_dim), for an ensemble of S seeds.  Inputs are
    projected as ``x @ w.T``.  Every variant holds the same weights; the
    symmetric one ties its keys to its queries, so its ``w_k`` goes
    unused."""

    config: StackConfig
    w_q: np.ndarray = field(repr=False)
    w_k: np.ndarray = field(repr=False)
    w_v: np.ndarray = field(repr=False)

    def __post_init__(self):
        cfg = self.config
        seeds = np.shape(self.w_q)[:-3]  # () for one seed, (S,) for an ensemble
        for name, rows in (("w_q", cfg.key_dim), ("w_k", cfg.key_dim), ("w_v", cfg.value_dim)):
            shape = np.shape(getattr(self, name))
            if len(seeds) > 1 or shape != (*seeds, cfg.layers, rows, cfg.input_dim):
                raise ValueError(f"{name} shape {shape} does not match the config's "
                                 f"{(cfg.layers, rows, cfg.input_dim)} after w_q's seed axes")


def init_stack(config: StackConfig, seed) -> StackModel:
    """Draw the projection weights deterministically from ``seed``.

    Each layer's ``w_q``, ``w_k`` and ``w_v`` are drawn in that order from
    the stream ``default_rng(seed)``, whatever the variant, so two configs
    that differ only in ``variant`` or ``lambda_tilde`` hold identical
    weights.  A sequence of S seeds draws unit ``u`` from ``seed[u]`` in
    the same way and stacks the units along a leading seed axis.
    """
    std = config.init_scale / np.sqrt(config.input_dim)
    k = config.key_dim
    size = (config.layers, 2 * k + config.value_dim, config.input_dim)
    ensemble = np.ndim(seed) == 1
    seeds = seed if ensemble else [seed]
    if not len(seeds):
        raise ValueError("need at least one seed")
    # filled unit by unit: one draw at a time is alive next to the result
    weights = np.empty((len(seeds), *size))
    for unit, s in enumerate(seeds):
        weights[unit] = np.random.default_rng(s).normal(scale=std, size=size)
    w_q, w_k, w_v = np.split(weights if ensemble else weights[0], [k, 2 * k], axis=-2)
    return StackModel(config, w_q, w_k, w_v)


def forward(model: StackModel, x0, *, record_states: bool = False):
    """Run the stack on input tokens; return (output, per-layer trace).

    A model of one seed runs (N, D) tokens ``x0``.  A model with a seed
    axis of S units runs (S, N, D) tokens; then the output is (S, N, D')
    and the trace a list of S traces.  Both forms run the same batched
    code, and each unit's output and trace are bitwise-identical to a
    call with that unit alone.

    The anchored variant caches the value matrix of layer 1 on every
    forward pass and pulls each later layer's values toward it with
    weight ``lambda_tilde``.  Identical (model, x0) pairs produce
    bitwise-identical outputs and traces.

    If a unit's state overflows to non-finite values (possible with
    residual connections at extreme depth), that unit stops after
    recording the layer, so its trace can be shorter than ``layers + 1``
    records; the other units go on.
    """
    cfg = model.config
    single = np.ndim(model.w_q) == 3
    weights = [w[None] if single else w for w in (model.w_q, model.w_k, model.w_v)]
    state = np.asarray(x0, dtype=np.float64)
    if single:
        state = state[None]
    units = len(weights[0])
    if state.ndim != 3 or state.shape[0] != units or state.shape[2] != cfg.input_dim:
        raise ValueError(
            f"input shape {np.shape(x0)} does not match input_dim {cfg.input_dim}"
            + ("" if single else f" and {units} seeds")
        )

    # the records of every unit, filled for the active units one record at
    # a time; a unit that stops early keeps its first `records[unit]`
    values = np.empty((len(METRICS), units, cfg.layers + 1))
    overflowed = np.empty((units, cfg.layers + 1), dtype=bool)
    records = np.full(units, cfg.layers + 1)
    states = []  # under record_states, one (S, N, D) block per record
    output = np.empty((units, state.shape[1], cfg.value_dim))
    active = np.arange(units)
    first_layer_values = None
    lam = cfg.lambda_tilde if cfg.variant == "neutreno" else 0.0
    for index in range(cfg.layers):
        # this layer's weights of the active units, a fresh C-ordered
        # (S, rows, input_dim) copy each, transposed: state @ w is x @ w.T
        # for every unit
        w_q, w_k, w_v = (w[active, index].swapaxes(-1, -2) for w in weights)
        q = state @ w_q
        k = q if cfg.variant == "symmetric" else state @ w_k
        v = state @ w_v
        # one score matrix per layer feeds both the softmax and the kernel;
        # an overflowing product is named by the check below, not warned of
        with np.errstate(over="ignore", invalid="ignore"):
            scores = scaled_scores(q, k)
        if not np.isfinite(scores).all():
            unit, row = np.argwhere(~np.isfinite(scores))[0, :2].tolist()
            raise ValueError(
                f"non-finite entry in row {row} of scores of unit {active[unit]}")
        if index == 0:
            first_layer_values = v
        out = _attend(scores, v, lam, first_layer_values)
        # the softmax has read the scores, so the kernel overwrites them
        with np.errstate(over="ignore"):
            # a diverging state saturates the kernel to inf; that is
            # recorded as data, not raised
            kernel = np.exp(scores, out=scores)
        recorded = [(0, state)] if index == 0 else []
        state = out + state if cfg.residual else out
        for record, x in (*recorded, (index + 1, state)):
            values[:, active, record], overflowed[active, record] = _records(
                x, kernel, DEFAULT_OVERFLOW_BOUND)
            if record_states:
                states.append(np.empty((units, *x.shape[1:])))
                states[record][active] = x
        # release the kernel before the next layer forms its scores
        del scores, kernel
        # a unit stops before its score products can overflow to
        # non-finite values
        stop = ~np.isfinite(state).all(axis=(-2, -1)) \
            | (np.abs(state).max(axis=(-2, -1)) > 1e150)
        if stop.any():
            output[active[stop]] = state[stop]
            records[active[stop]] = index + 2
            keep = ~stop
            active, state = active[keep], state[keep]
            first_layer_values = first_layer_values[keep]
            if not active.size:
                break
    output[active] = state
    traces = [DynamicsTrace(values[:, unit, :count], overflowed[unit, :count],
                            [block[unit] for block in states[:count]] if record_states else None)
              for unit, count in enumerate(records.tolist())]
    return (output[0], traces[0]) if single else (output, traces)
