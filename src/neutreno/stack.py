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

from .attention import NeutrenoParams, ProjectionSet, _attend, project_qkv, scaled_scores
from .dynamics import DEFAULT_OVERFLOW_BOUND, DynamicsTrace, _append_record

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
    seed: int = 0
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
    projections: tuple[ProjectionSet, ...] = field(repr=False)
    config: StackConfig


def init_stack(config: StackConfig) -> StackModel:
    """Draw per-layer projection weights deterministically from the seed.

    The three weight matrices of every layer are drawn from a single
    stream in a fixed order regardless of variant, so two configs that
    differ only in ``variant`` or ``lambda_tilde`` share identical
    weights.  The symmetric variant then ties the key projection to the
    query projection.
    """
    rng = np.random.default_rng(config.seed)
    std = config.init_scale / np.sqrt(config.input_dim)
    layers = []
    for _ in range(config.layers):
        w_q = rng.normal(scale=std, size=(config.key_dim, config.input_dim))
        w_k = rng.normal(scale=std, size=(config.key_dim, config.input_dim))
        w_v = rng.normal(scale=std, size=(config.value_dim, config.input_dim))
        if config.variant == "symmetric":
            w_k = w_q.copy()
        layers.append(ProjectionSet(w_q, w_k, w_v, symmetric=config.variant == "symmetric"))
    return StackModel(projections=tuple(layers), config=config)


def forward(model: StackModel, x0, *, record_states: bool = False,
            overflow_bound: float = DEFAULT_OVERFLOW_BOUND):
    """Run the stack on input tokens; return (output, per-layer trace).

    The anchored variant caches the value matrix of layer 1 on every
    forward pass and pulls each later layer's values toward it with
    weight ``lambda_tilde``.  Identical (model, x0) pairs produce
    bitwise-identical outputs and traces.

    If the state overflows to non-finite values (possible with residual
    connections at extreme depth), the run stops after recording that
    layer, so the trace can be shorter than ``layers + 1`` records.
    """
    cfg = model.config
    state = np.asarray(x0, dtype=np.float64)
    if state.ndim != 2 or state.shape[1] != cfg.input_dim:
        raise ValueError(
            f"input shape {state.shape} does not match input_dim {cfg.input_dim}"
        )

    trace = DynamicsTrace()
    first_layer_values = None
    for index, proj in enumerate(model.projections):
        q, k, v = project_qkv(state, proj)
        # one score matrix per layer feeds both the softmax and the kernel
        scores = scaled_scores(k if cfg.variant == "symmetric" else q, k)
        with np.errstate(over="ignore"):
            # a diverging state saturates the kernel to inf; that is
            # recorded as data, not raised
            kernel = np.exp(scores)
        if index == 0:
            _append_record(trace, state, kernel, overflow_bound, record_states)
            first_layer_values = v
        anchor = (NeutrenoParams(cfg.lambda_tilde, first_layer_values)
                  if cfg.variant == "neutreno" else None)
        out = _attend(scores, v, anchor)
        state = out + state if cfg.residual else out
        _append_record(trace, state, kernel, overflow_bound, record_states)
        # stop before score products can overflow to non-finite values
        if not np.isfinite(state).all() or np.abs(state).max() > 1e150:
            break
    return state, trace
