"""Depth experiment: token similarity layer by layer in a toy stack.

Twelve attention layers, randomly initialized, no training, no
feed-forward blocks.  The plain softmax stack pushes the mean pairwise
cosine of the tokens toward 1 as depth grows; the anchored variant keeps
it visibly lower on almost every seed.  The per-layer smoothness energy
(measured with each layer's own score kernel) falls alongside.
"""

import numpy as np

from neutreno import StackConfig, forward, init_stack, substream

LAYERS, N, DIM = 12, 16, 8


def run(seed, variant, lam=0.0, residual=False):
    config = StackConfig(layers=LAYERS, input_dim=DIM, key_dim=DIM, value_dim=DIM,
                         variant=variant, lambda_tilde=lam, residual=residual)
    x0 = substream(seed, 1).normal(size=(N, DIM))
    _, trace = forward(init_stack(config, seed), x0)
    return trace


print(f"=== one seed, layer by layer ({LAYERS} layers, {N} tokens, dim {DIM}) ===")
plain = run(seed=0, variant="softmax")
anchored = run(seed=0, variant="neutreno", lam=0.6)
tied = run(seed=0, variant="symmetric")
print("layer   softmax cos   anchored cos   symmetric cos   softmax energy")
for step in range(LAYERS + 1):
    print(f"  {step:2d}     {plain[step].mean_cosine:+.6f}     "
          f"{anchored[step].mean_cosine:+.6f}      {tied[step].mean_cosine:+.6f}"
          f"      {plain[step].j_value:10.4f}")

print("\n=== 50-seed ensemble: final-layer mean cosine ===")
seeds = range(50)
wins = 0
monotone_energy = 0
plain_finals, anchored_finals = [], []
for seed in seeds:
    p = run(seed, "softmax")
    a = run(seed, "neutreno", lam=0.6)
    plain_finals.append(p.final.mean_cosine)
    anchored_finals.append(a.final.mean_cosine)
    if a.final.mean_cosine < p.final.mean_cosine:
        wins += 1
    energies = [rec.j_value for rec in p][1:]
    if all(b <= a_ + 1e-10 for a_, b in zip(energies, energies[1:])):
        monotone_energy += 1
print(f"softmax  final cosine: mean {np.mean(plain_finals):.4f} "
      f"(min {min(plain_finals):.4f}, max {max(plain_finals):.4f})")
print(f"anchored final cosine: mean {np.mean(anchored_finals):.4f} "
      f"(min {min(anchored_finals):.4f}, max {max(anchored_finals):.4f})")
print(f"anchored strictly below softmax on {wins}/50 seeds")
print(f"softmax energy nonincreasing through depth on {monotone_energy}/50 seeds")

print("\n=== residual connections change the speed, not the story ===")
for residual in (False, True):
    p = run(seed=1, variant="softmax", residual=residual)
    a = run(seed=1, variant="neutreno", lam=0.6, residual=residual)
    label = "with residual" if residual else "no residual  "
    print(f"{label}: softmax final cosine {p.final.mean_cosine:+.4f}, "
          f"anchored {a.final.mean_cosine:+.4f}")

print("\n=== sweep of the anchor weight (final cosine, seed 0) ===")
print("  lam     final cosine")
for lam in (0.1, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0, 2.0):
    trace = run(seed=0, variant="neutreno", lam=lam)
    flag = "  (diverged)" if trace.diverged else ""
    print(f"  {lam:<5g}   {trace.final.mean_cosine:+.6f}{flag}")
