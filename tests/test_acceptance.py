"""Acceptance suite: every exit criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
whole suite finishes in well under five minutes on a laptop.
"""

import json
import time

import numpy as np

from neutreno.attention import (
    NeutrenoParams,
    exp_score_kernel,
    neutreno_attention,
    softmax_attention,
    symmetric_attention,
)
from neutreno.cli import main
from neutreno.dynamics import neutreno_fixed_point, run_neutreno_dynamics, run_plain_dynamics
from neutreno.functional import (
    central_difference_grad,
    fidelity_energy,
    fidelity_grad,
    nonlocal_energy,
    nonlocal_energy_grad,
    smoothing_step,
)
from neutreno.linalg import max_pairwise_distance, substream
from neutreno.random_walk import (
    iterate_state,
    stationary_closed_form,
    stationary_power_iteration,
    transition_from_scores,
    walk_sample_stats,
)
from neutreno.stack import StackConfig, forward, init_stack
from neutreno.tensorfile import load_tensor, save_tensor

KEY_SCALE = 0.5  # keeps random chains fast-mixing (see cli module)


def report(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status}  {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_smoothing_step_equals_symmetric_attention():
    """One adaptive-step smoothing with the exponential key kernel matches
    symmetric attention entrywise to 1e-12, 100 random instances."""
    rng = np.random.default_rng(1001)
    started = time.time()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 33))
        d_qk = int(rng.integers(1, 17))
        d = int(rng.integers(1, 9))
        keys = rng.normal(size=(n, d_qk))
        values = rng.normal(size=(n, d))
        step = smoothing_step(values, exp_score_kernel(keys, keys))
        attn = symmetric_attention(keys, values)
        worst = max(worst, float(np.abs(step - attn).max()))
    elapsed = time.time() - started
    report(1, worst <= 1e-12 and elapsed < 5.0,
           f"identity residual {worst:.2e} (tol 1e-12) over 100 instances in {elapsed:.2f}s")


def test_criterion_02_gradients_match_finite_differences():
    """Analytic gradients of both energies vs central differences,
    max relative error 1e-5 over 50 random instances."""
    rng = np.random.default_rng(1002)
    started = time.time()
    worst_nonlocal = 0.0
    worst_fidelity = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 5))
        u = rng.normal(size=(n, d))
        w = rng.uniform(0.0, 2.0, size=(n, n))
        anchor = rng.normal(size=(n, d))
        lam = float(rng.uniform(0.1, 2.0))

        def rel_err(analytic, func):
            best = np.inf
            for h in (1e-4, 1e-5):
                est = central_difference_grad(func, u, h)
                denom = np.maximum(1.0, np.maximum(np.abs(est), np.abs(analytic)))
                best = min(best, float((np.abs(est - analytic) / denom).max()))
            return best

        worst_nonlocal = max(worst_nonlocal, rel_err(
            nonlocal_energy_grad(u, w), lambda t: nonlocal_energy(t, w)))
        worst_fidelity = max(worst_fidelity, rel_err(
            fidelity_grad(u, anchor, lam), lambda t: fidelity_energy(t, anchor, lam)))
    elapsed = time.time() - started
    report(2, worst_nonlocal <= 1e-5 and worst_fidelity <= 1e-5 and elapsed < 30.0,
           f"max rel errors: smoothness {worst_nonlocal:.2e}, fidelity "
           f"{worst_fidelity:.2e} (tol 1e-5) in {elapsed:.2f}s")


def test_criterion_03_stationary_distribution_closed_form():
    """Closed-form stationary weights: left-eigenvector residual 1e-10 and
    power-iteration agreement 1e-9 on 50 key sets; hand chain to 1e-12."""
    rng = np.random.default_rng(1003)
    worst_residual = 0.0
    worst_agreement = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 17))
        keys = rng.normal(scale=KEY_SCALE, size=(n, int(rng.integers(1, 9))))
        a = transition_from_scores(keys, keys)
        pi = stationary_closed_form(keys)
        worst_residual = max(worst_residual, float(np.abs(pi @ a - pi).sum()))
        powered = stationary_power_iteration(a, tol=1e-13)
        worst_agreement = max(worst_agreement, float(np.abs(pi - powered).max()))
    hand = stationary_power_iteration(np.array([[0.9, 0.1], [0.5, 0.5]]), tol=1e-14)
    hand_err = float(np.abs(hand - np.array([5 / 6, 1 / 6])).max())
    report(3, worst_residual <= 1e-10 and worst_agreement <= 1e-9 and hand_err <= 1e-12,
           f"residual {worst_residual:.2e} (tol 1e-10), agreement "
           f"{worst_agreement:.2e} (tol 1e-9), hand chain {hand_err:.2e} (tol 1e-12)")


def test_criterion_04_walk_expectation_matches_iteration():
    """Monte-Carlo walk mean within 4 standard errors of the exact
    iteration, 20 chains, 2e5 samples each."""
    rng = np.random.default_rng(1004)
    started = time.time()
    all_within = True
    worst_sigmas = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, 6))
        keys = rng.normal(scale=KEY_SCALE, size=(n, 3))
        a = transition_from_scores(keys, keys)
        v0 = rng.normal(size=(n, d))
        start = int(rng.integers(0, n))
        stats = walk_sample_stats(v0, a, k, start, 200_000, seed=trial)
        expected = iterate_state(v0, a, k)[start]
        deviation = np.abs(stats.mean - expected)
        with np.errstate(divide="ignore", invalid="ignore"):
            sigmas = np.where(deviation == 0.0, 0.0, deviation / stats.stderr)
        worst_sigmas = max(worst_sigmas, float(np.nanmax(sigmas)))
        all_within = all_within and bool(np.all(deviation <= 4.0 * stats.stderr))
    elapsed = time.time() - started
    report(4, all_within and elapsed < 60.0,
           f"worst deviation {worst_sigmas:.2f} standard errors (limit 4) "
           f"over 20 chains in {elapsed:.2f}s")


def test_criterion_05_oversmoothing_limit():
    """200 frozen-transition steps collapse the tokens: diameter at most
    1e-8, mean cosine at least 1 - 1e-6, diameter nonincreasing."""
    rng = np.random.default_rng(1005)
    worst_diameter = 0.0
    worst_cosine = 1.0
    monotone = True
    for _ in range(50):
        n = int(rng.integers(2, 33))
        keys = rng.normal(scale=KEY_SCALE, size=(n, int(rng.integers(1, 9))))
        a = transition_from_scores(keys, keys)
        v0 = rng.normal(size=(n, int(rng.integers(1, 9))))
        trace = run_plain_dynamics(v0, a, 200)
        diameters = [rec.max_pairwise for rec in trace]
        monotone = monotone and all(
            later <= earlier + 1e-12 for earlier, later in zip(diameters, diameters[1:])
        )
        worst_diameter = max(worst_diameter, trace.final.max_pairwise)
        worst_cosine = min(worst_cosine, trace.final.mean_cosine)
    report(5, worst_diameter <= 1e-8 and worst_cosine >= 1 - 1e-6 and monotone,
           f"final diameter {worst_diameter:.2e} (tol 1e-8), final cosine "
           f"{worst_cosine:.10f} (floor 1-1e-6), diameters monotone: {monotone}")


def test_criterion_06_anchored_fixed_point_not_constant():
    """Anchored recursion converges to the solved fixed point (1e-8) and
    that point is never a constant-row matrix, for anchor weights
    0.2 / 0.4 / 0.6 over 50 instances."""
    rng = np.random.default_rng(1006)
    worst_gap = 0.0
    min_diameter = np.inf
    worst_residual_excess = -np.inf
    checked = 0
    for _ in range(50):
        n = int(rng.integers(2, 17))
        keys = rng.normal(scale=KEY_SCALE, size=(n, 4))
        a = transition_from_scores(keys, keys)
        anchor = rng.normal(size=(n, int(rng.integers(1, 6))))
        for lam in (0.2, 0.4, 0.6):
            fp = neutreno_fixed_point(anchor, a, lam)
            if not fp.spectral_ok:
                continue
            checked += 1
            trace = run_neutreno_dynamics(anchor, anchor, a, lam, 400,
                                          record_states=True)
            worst_gap = max(worst_gap, float(np.abs(trace.final.state - fp.u_star).max()))
            min_diameter = min(min_diameter, max_pairwise_distance(fp.u_star))
            allowed = 1e-9 * (1 + np.abs(anchor).max())
            worst_residual_excess = max(worst_residual_excess, fp.residual - allowed)
    ok = (checked > 0 and worst_gap <= 1e-8 and min_diameter > 1e-10
          and worst_residual_excess <= 0.0)
    report(6, ok,
           f"{checked} stable cases: recursion-vs-solve gap {worst_gap:.2e} "
           f"(tol 1e-8), min fixed-point diameter {min_diameter:.2e} (floor 1e-10)")


def test_criterion_07_zero_anchor_weight_degeneracy(tmp_path):
    """Anchor weight 0: anchored attention, dynamics, and CLI output are
    bitwise/byte identical to the plain softmax paths."""
    rng = np.random.default_rng(1007)
    q, k, v = rng.normal(size=(3, 8, 5))
    v0 = rng.normal(size=(8, 5))
    op_equal = np.array_equal(
        neutreno_attention(q, k, v, NeutrenoParams(0.0, v0)),
        softmax_attention(q, k, v),
    )

    keys = rng.normal(scale=KEY_SCALE, size=(6, 3))
    a = transition_from_scores(keys, keys)
    state0 = rng.normal(size=(6, 2))
    anchor = rng.normal(size=(6, 2))
    plain = run_plain_dynamics(state0, a, 60, record_states=True)
    anchored = run_neutreno_dynamics(state0, anchor, a, 0.0, 60, record_states=True)
    trace_equal = all(
        np.array_equal(r1.state, r2.state)
        and r1.j_value == r2.j_value
        and r1.mean_cosine == r2.mean_cosine
        and r1.max_pairwise == r2.max_pairwise
        and r1.diverged == r2.diverged
        for r1, r2 in zip(plain, anchored)
    )

    base = ["--seed", "11", "--steps", "50"]
    main(["dynamics", "--variant", "softmax", "--out", str(tmp_path / "p")] + base)
    main(["dynamics", "--variant", "neutreno", "--lambda-tilde", "0",
          "--out", str(tmp_path / "n")] + base)
    cli_equal = (tmp_path / "p/dynamics.csv").read_bytes() == \
                (tmp_path / "n/dynamics.csv").read_bytes()

    report(7, op_equal and trace_equal and cli_equal,
           f"operation bitwise: {op_equal}, trace bitwise: {trace_equal}, "
           f"CLI bytes: {cli_equal}")


def _stack_trace(seed: int, variant: str, lam: float):
    config = StackConfig(layers=12, input_dim=8, key_dim=8, value_dim=8,
                         variant=variant, lambda_tilde=lam, residual=False)
    x0 = substream(seed, 1).normal(size=(16, 8))
    _, trace = forward(init_stack(config, seed), x0)
    return trace


def test_criterion_08_random_init_stack_separation():
    """Anchored stacks (weight 0.6) end with strictly lower mean token
    cosine than plain softmax stacks on at least 90% of 50 seeds."""
    started = time.time()
    wins = 0
    for seed in range(50):
        plain = _stack_trace(seed, "softmax", 0.0)
        anchored = _stack_trace(seed, "neutreno", 0.6)
        if anchored.final.mean_cosine < plain.final.mean_cosine:
            wins += 1
    elapsed = time.time() - started
    report(8, wins >= 45 and elapsed < 120.0,
           f"anchored below baseline on {wins}/50 seeds (need 45) in {elapsed:.1f}s")


def test_criterion_09_energy_descends_with_depth():
    """The per-layer smoothness energy is nonincreasing through the
    12-layer softmax stack on at least 90% of the same 50 seeds."""
    monotone_seeds = 0
    for seed in range(50):
        trace = _stack_trace(seed, "softmax", 0.0)
        values = [rec.j_value for rec in trace][1:]  # layer rows, own kernels
        if all(later <= earlier + 1e-10 for earlier, later in zip(values, values[1:])):
            monotone_seeds += 1
    report(9, monotone_seeds >= 45,
           f"energy nonincreasing on {monotone_seeds}/50 seeds (need 45)")


def test_criterion_10_determinism_and_formats(tmp_path):
    """Every command is byte-reproducible per seed; tensor files round-trip
    bit-exactly; all CSV/JSON outputs parse back."""
    commands = {
        "dynamics": ["dynamics", "--seed", "3", "--steps", "30"],
        "stack": ["stack", "--variant", "neutreno", "--n-seeds", "2", "--seed", "3"],
        "randomwalk": ["randomwalk", "--seed", "3", "--n-samples", "5000"],
        "gradcheck": ["gradcheck", "--seed", "3", "--instances", "5"],
    }
    reproducible = True
    parse_back = True
    for name, args in commands.items():
        dir_a = tmp_path / f"{name}_a"
        dir_b = tmp_path / f"{name}_b"
        assert main(args + ["--out", str(dir_a)]) == 0
        assert main(args + ["--out", str(dir_b)]) == 0
        files_a = sorted(p.name for p in dir_a.iterdir())
        files_b = sorted(p.name for p in dir_b.iterdir())
        reproducible = reproducible and files_a == files_b
        for fname in files_a:
            reproducible = reproducible and (
                (dir_a / fname).read_bytes() == (dir_b / fname).read_bytes()
            )
            text = (dir_a / fname).read_text(encoding="utf-8")
            if fname.endswith(".json"):
                json.loads(text)
            else:
                lines = text.splitlines()
                parse_back = parse_back and len(lines) > 1
                for line in lines[1:]:
                    for cell in line.split(","):
                        float(cell)

    rng = np.random.default_rng(1010)
    round_trip = True
    for shape in [(4, 3), (2, 2, 2), (5,)]:
        a = rng.normal(size=shape)
        path = tmp_path / "rt.ntt"
        save_tensor(path, a)
        round_trip = round_trip and load_tensor(path).tobytes() == a.tobytes()

    report(10, reproducible and parse_back and round_trip,
           f"byte-reproducible: {reproducible}, parse-back: {parse_back}, "
           f"tensor round-trip: {round_trip}")
