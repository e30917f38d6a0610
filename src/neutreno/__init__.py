"""Numerical laboratory for attention as kernel-weighted smoothing.

The library makes three families of facts executable on dense float64
arrays:

* one adaptive-step gradient descent step on a nonlocal smoothness
  energy is exactly a symmetric softmax-attention update
  (``functional``, ``attention``);
* iterating a frozen attention map is a Markov chain in disguise, and
  its iterates collapse onto a single stationary-weighted average row --
  the over-smoothing limit (``random_walk``, ``dynamics``);
* anchoring the update with a residual toward the first layer's values
  moves the fixed point away from any constant-row matrix, so token
  identities survive depth (``dynamics``, ``stack``).

See the ``demos/`` scripts for narrative walkthroughs and ``neutreno.cli``
for the file-emitting experiment runner.
"""

from .attention import (
    NeutrenoParams,
    attention_matrix,
    exp_score_kernel,
    neutreno_attention,
    scaled_scores,
    softmax_attention,
    symmetric_attention,
)
from .diagnostics import (
    GradApproxReport,
    asymmetric_grad_approx,
    grad_alignment,
)
from .dynamics import (
    DynamicsTrace,
    FixedPointReport,
    SeparationReport,
    TraceRecord,
    fixed_point_separation,
    neutreno_fixed_point,
    run_neutreno_dynamics,
    run_plain_dynamics,
)
from .functional import (
    EnergyReport,
    adaptive_step_sizes,
    central_difference_grad,
    fidelity_energy,
    fidelity_grad,
    nonlocal_energy,
    nonlocal_energy_grad,
    regularized_step,
    smoothing_step,
    split_smoothing_step,
    total_energy,
)
from .linalg import (
    max_pairwise_distance,
    mix_seed,
    pairwise_cosine_mean,
    pairwise_sq_distances,
    row_softmax,
    substream,
)
from .random_walk import (
    ConvergenceError,
    WalkStats,
    is_transition_matrix,
    iterate_state,
    limit_vector,
    stationary_closed_form,
    stationary_power_iteration,
    transition_from_scores,
    walk_sample_stats,
)
from .stack import VARIANTS, StackConfig, StackModel, forward, init_stack
from .tensorfile import TensorFileError, load_tensor, save_tensor

__version__ = "0.1.0"
