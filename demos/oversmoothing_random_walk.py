"""Why repeated attention collapses tokens: the Markov-chain picture.

The attention matrix is row-stochastic with positive entries, so applying
it over and over is running a Markov chain over token indices.  The chain
has a unique stationary distribution pi, and the iterated state converges
to the single row sum_j pi_j v_j -- every token ends up identical.

This script builds a chain from random keys and shows each piece:
expectation-equals-iteration (checked by simulation), the stationary
distribution (closed form vs power iteration), and the collapse itself.
"""

import numpy as np

from neutreno import (
    attention_matrix,
    iterate_state,
    limit_vector,
    max_pairwise_distance,
    pairwise_cosine_mean,
    run_plain_dynamics,
    stationary_closed_form,
    stationary_power_iteration,
    walk_sample_stats,
)

rng = np.random.default_rng(2024)

N, D_QK, D = 6, 3, 4
keys = rng.normal(scale=0.5, size=(N, D_QK))
values = rng.normal(size=(N, D))
transition = attention_matrix(keys, keys)

print("transition matrix (rows sum to 1, all entries positive):")
print(np.array_str(transition, precision=4, suppress_small=True))

print("\n=== simulated walks agree with exact iteration ===")
steps, start, samples = 3, 2, 100_000
stats = walk_sample_stats(values, transition, steps, start, samples, seed=0)
exact = iterate_state(values, transition, steps)[start]
print(f"{samples} walks of length {steps} from token {start}:")
print(f"  Monte-Carlo mean: {stats.mean}")
print(f"  exact iteration:  {exact}")
print(f"  deviation in standard errors: {np.abs(stats.mean - exact) / stats.stderr}")

print("\n=== the stationary distribution ===")
pi = stationary_closed_form(keys)
pi_power = stationary_power_iteration(transition)
print(f"closed form (normalized kernel row sums): {pi}")
print(f"power iteration:                          {pi_power}")
print(f"left-eigenvector residual |pi A - pi|_1:  "
      f"{np.abs(pi @ transition - pi).sum():.2e}")

print("\n=== the collapse ===")
v_bar = limit_vector(pi, values)
print(f"predicted limit row: {v_bar}")
trace = run_plain_dynamics(values, transition, 200)
for step in (0, 1, 2, 5, 10, 50, 200):
    rec = trace[step]
    print(f"  step {step:3d}: diameter {rec.max_pairwise:.3e}   "
          f"mean cosine {rec.mean_cosine:+.6f}")
final = iterate_state(values, transition, 200)
print(f"distance of every row to the predicted limit: "
      f"{np.abs(final - v_bar[None, :]).max():.2e}")
print("\ndiameters never increase: each new row is a convex combination of")
print("the old rows, so the token set keeps shrinking into its own hull.")
