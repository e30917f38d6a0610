"""The benchmark's workloads: one operation each, and its output check.

A workload is built from the run's seed and a work directory.  ``run(i)``
performs operation ``i`` and is the only timed part; ``check(i, value)``
inspects what it returned and gives the list of failed checks (empty when
the operation is correct).  Every library call goes through a module
attribute (``cli.main``, ``random_walk.walk_sample_stats``, ...) so the
traced run sees it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from neutreno import cli, dynamics, random_walk


class _CliWorkload:
    """One ``neutreno`` CLI command per op, each into a fresh ``--out``.

    Every op runs the same command with the run's seed, so every op after
    the first must write byte-identical files (acceptance criterion 10).
    """

    argv: list[str] = []

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.reference: str | None = None

    def expected_files(self) -> set[str]:
        raise NotImplementedError

    def check_summaries(self, out: Path) -> list[str]:
        raise NotImplementedError

    def run(self, index: int):
        out = self.work_dir / f"op{index}"
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            status = cli.main([*self.argv, "--seed", str(self.seed), "--out", str(out)])
        return status, out, stderr.getvalue()

    def check(self, index: int, value) -> list[str]:
        status, out, stderr = value
        try:
            if status != 0:
                return [f"exit status {status}: {stderr.strip()[:300]}"]
            names = sorted(p.name for p in out.iterdir())
            if set(names) != self.expected_files():
                return [f"wrote {len(names)} files, expected {len(self.expected_files())}"]
            failures = self.check_summaries(out)
            digest = hashlib.sha256()
            for name in names:
                digest.update(name.encode() + b"\0" + (out / name).read_bytes())
            if self.reference is None:
                if not failures:
                    self.reference = digest.hexdigest()
            elif digest.hexdigest() != self.reference:
                failures.append("outputs differ from the first op of this config")
            return failures
        finally:
            shutil.rmtree(out, ignore_errors=True)


class EnsembleSweep(_CliWorkload):
    """450 forward passes on 16x8 tokens over 50 seeds and 8 anchor
    weights, plus 458 output files: per-call overhead and CLI output."""

    sweep = (0.1, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0, 2.0)
    n_seeds = 50
    argv = ["stack", "--variant", "neutreno", "--n-seeds", str(n_seeds),
            "--lambda-sweep", ",".join(f"{lam:g}" for lam in sweep),
            "--expect-separation", "0.9"]

    def expected_files(self) -> set[str]:
        names = {f"stack_softmax_seed{u}.csv" for u in range(self.n_seeds)}
        for lam in self.sweep:
            names.add(f"summary_lambda{lam:g}.json")
            names.update(f"stack_neutreno_lambda{lam:g}_seed{u}.csv"
                         for u in range(self.n_seeds))
        return names

    def check_summaries(self, out: Path) -> list[str]:
        failures = []
        for lam in self.sweep:
            summary = json.loads((out / f"summary_lambda{lam:g}.json").read_text())
            fraction = summary["fraction_below_baseline"]
            seeds = len(summary["per_seed"])
            if seeds != self.n_seeds or fraction < 0.9:
                failures.append(f"lambda {lam:g}: {seeds} seeds, separation {fraction}")
        return failures


class WideStack(_CliWorkload):
    """Two 12-layer passes on 512x64 tokens: the token metrics' (N, N, D)
    difference tensors outgrow the last-level cache."""

    argv = ["stack", "--n", "512", "--input-dim", "64", "--key-dim", "64",
            "--value-dim", "64", "--n-seeds", "1"]

    def expected_files(self) -> set[str]:
        return {"stack_softmax_seed0.csv", "stack_neutreno_seed0.csv", "summary.json"}

    def check_summaries(self, out: Path) -> list[str]:
        record = json.loads((out / "summary.json").read_text())["per_seed"][0]
        bad = [key for key, value in record.items()
               if not isinstance(value, (int, float)) or not math.isfinite(value)]
        return [f"non-finite summary values: {bad}"] if bad else []


class FrozenChains:
    """Acceptance criteria 3-6 on one fresh key-key chain per op, through
    the library API: stationary distributions, a Monte-Carlo walk, a plain
    collapse and anchored runs against the solved fixed point."""

    walk_samples = 200_000
    walk_steps = 3
    collapse_steps = 200
    anchored_steps = 400
    anchor_weights = (0.2, 0.6)

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed

    def run(self, index: int) -> dict:
        # Sizes are drawn without replacement in blocks of 57, so every run
        # of a given length sees nearly the same mix of N in [8, 64] and the
        # median op time does not depend on which sizes the seed favours.
        block, slot = divmod(index, 57)
        sizes = np.random.default_rng(np.random.SeedSequence([self.seed, block, 57]))
        n = 8 + int(sizes.permutation(57)[slot])
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, index]))
        keys = rng.normal(scale=cli.KEY_SCALE, size=(n, 4))
        tokens = rng.normal(size=(n, 3))
        # One payout column: the 4-standard-error band has a false-alarm
        # rate of about 6e-5 per coordinate, and a run makes many ops.
        payout = tokens[:, :1]
        start = int(rng.integers(0, n))
        walk_seed = int(rng.integers(2**31))

        a = random_walk.transition_from_scores(keys, keys)
        result = {
            "closed": random_walk.stationary_closed_form(keys),
            "powered": random_walk.stationary_power_iteration(a, tol=1e-13),
            "walk": random_walk.walk_sample_stats(
                payout, a, self.walk_steps, start, self.walk_samples, walk_seed),
            "expected": random_walk.iterate_state(payout, a, self.walk_steps)[start],
            "collapse": dynamics.run_plain_dynamics(tokens, a, self.collapse_steps).final,
            "anchored": [],
        }
        for lam in self.anchor_weights:
            fixed = dynamics.neutreno_fixed_point(tokens, a, lam)
            trace = dynamics.run_neutreno_dynamics(
                tokens, tokens, a, lam, self.anchored_steps, record_states=True)
            result["anchored"].append((lam, fixed, trace.final.state))
        return result

    def check(self, index: int, r: dict) -> list[str]:
        failures = []
        agreement = float(np.abs(r["closed"] - r["powered"]).max())
        if not agreement <= 1e-9:
            failures.append(f"stationary methods disagree by {agreement:.3e}")
        deviation = np.abs(r["walk"].mean - r["expected"])
        if not np.all(deviation <= 4.0 * r["walk"].stderr):
            failures.append(f"walk mean {deviation.max():.3e} outside 4 standard errors")
        if not r["collapse"].max_pairwise <= 1e-8:
            failures.append(f"collapse diameter {r['collapse'].max_pairwise:.3e}")
        for lam, fixed, final in r["anchored"]:
            gap = float(np.abs(final - fixed.u_star).max())
            if not fixed.spectral_ok:
                failures.append(f"anchored recursion not contracting at {lam}")
            if not gap <= 1e-8:
                failures.append(f"recursion-vs-solve gap {gap:.3e} at {lam}")
            if fixed.is_constant_vector:
                failures.append(f"anchored fixed point is constant at {lam}")
        return failures


WORKLOADS = {
    "ensemble_sweep": EnsembleSweep,
    "wide_stack": WideStack,
    "frozen_chains": FrozenChains,
}
