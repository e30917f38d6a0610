"""Benchmark of the neutreno laboratory: one workload per invocation.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload frozen_chains --seed 1 --seconds 30 --trace 0

Each workload runs as a closed loop with one client in a fresh worker
process (``bench/worker.py``), importing the package from ``src``.  Every
op's output is checked; a failed check or an exception counts the op as
failed and never aborts the run.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
several fresh-interpreter imports of ``neutreno.cli``), ``op_p50_s``
(median op wall time) and ``peak_rss_mb`` (peak resident memory of the
worker, in MiB).  ``--trace 1`` runs every op twice, untraced and
with spans around every public function, and reports per-op calls and
self time per layer and for the functions the planned optimisations
target, plus the tracing overhead.

The line before the last is a JSON report with every per-op statistic
(including the tail percentile, where the run has enough ops) and the
machine facts; the last line is the JSON result.  Per-op output
directories and the traced run's spans live under ``.bench_runs/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".bench_runs"

WORKLOAD_NAMES = ("ensemble_sweep", "wide_stack", "frozen_chains")

# One BLAS thread on both sides of every comparison: on wide_stack two
# OpenBLAS threads took the same wall time for about 1.5x the CPU, and a
# second busy thread on a 2-vCPU box competes with the other processes.
BLAS_THREADS = 1

# Fresh interpreters timed per run; setup_s is their median.
SETUP_PROBES = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import neutreno.cli; "
    "print(time.perf_counter() - t)"
)

# Functions whose self time or call count the planned optimisations move.
FUNCTION_METRICS = (
    ("functional.nonlocal_energy", "self_s"),
    ("linalg.max_pairwise_distance", "self_s"),
    ("linalg.pairwise_cosine_mean", "self_s"),
    ("attention.scaled_scores", "calls"),
    ("stack.forward", "calls"),
    ("dynamics.spectral_radius_estimate", "self_s"),
    ("linalg.solve_linear", "self_s"),
    ("random_walk.walk_sample_stats", "self_s"),
    ("random_walk.stationary_power_iteration", "self_s"),
)


class BenchError(RuntimeError):
    """A run that could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _python(args: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    done = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        raise BenchError(f"{args[:3]} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return done


def import_seconds(env: dict) -> float:
    return float(_python(["-c", IMPORT_PROBE], env, 60).stdout.split()[-1])


def scipy_import_seconds(env: dict) -> float:
    """Cumulative import time of the scipy modules, from ``-X importtime``."""
    stderr = _python(["-X", "importtime", "-c", "import neutreno.cli"], env, 60).stderr
    return scipy_seconds_from_importtime(stderr)


def scipy_seconds_from_importtime(stderr: str) -> float:
    """Sum the cumulative time of each scipy import not nested in another."""
    total_us = 0
    ancestors: list[tuple[int, str]] = []  # (indent, name) of the open entries
    # the report lists children before their parent; reversed, parents come first
    for line in reversed(stderr.splitlines()):
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        indent = len(fields[2]) - len(fields[2].lstrip())
        name = fields[2].strip()
        while ancestors and ancestors[-1][0] >= indent:
            ancestors.pop()
        if _is_scipy(name) and not any(_is_scipy(a) for _, a in ancestors):
            total_us += int(fields[1])
        ancestors.append((indent, name))
    return total_us / 1e6


def _is_scipy(name: str) -> bool:
    return name == "scipy" or name.startswith("scipy.")


def run_worker(workload: str, seed: int, seconds: float, mode: str, env: dict) -> dict:
    work_dir = RUNS_DIR / f"{workload}-seed{seed}-{mode}"
    shutil.rmtree(work_dir, ignore_errors=True)
    done = _python([str(ROOT / "bench" / "worker.py"), workload, str(seed), str(seconds),
                    mode, str(work_dir)], env, seconds + 120)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} worker printed no result")
    return json.loads(lines[-1])


def tail(values: list[float]) -> dict | None:
    """Highest listed percentile with at least ten ops beyond it (nearest rank)."""
    ordered = sorted(values)
    for pct in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(pct / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return {"percentile": pct, "value_s": ordered[rank - 1], "ops": len(ordered)}
    return None


def summarize(wall: list[float], cpu: list[float]) -> dict:
    quartiles = statistics.quantiles(wall, n=4) if len(wall) > 1 else [wall[0]] * 3
    return {
        "ops": len(wall),
        "op_p50_s": statistics.median(wall),
        "op_quartiles_s": quartiles,
        "op_tail_s": tail(wall),
        "cpu_per_op_s": statistics.median(cpu),
    }


def end_to_end(args, env) -> tuple[dict, dict, dict]:
    setup = [import_seconds(env) for _ in range(SETUP_PROBES)]
    result = run_worker(args.workload, args.seed, args.seconds, "plain", env)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(result["wall_s"]["plain"]), "s"),
        "peak_rss_mb": (result["peak_rss_mib"], "MiB"),
    }
    return metrics, result, {"setup_samples_s": setup}


def per_layer(args, env) -> tuple[dict, dict, dict]:
    scipy = [scipy_import_seconds(env) for _ in range(3)]
    result = run_worker(args.workload, args.seed, args.seconds, "traced", env)
    wall, ops = result["wall_s"], len(result["wall_s"]["traced"])
    calls, own = result["calls"], result["self_s"]
    layer_calls, layer_self = spans.layer_totals(calls, own)
    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.calls"] = (layer_calls.get(layer, 0) / ops, "count")
        metrics[f"{layer}.self_s"] = (layer_self.get(layer, 0.0) / ops, "s")
    for name, kind in FUNCTION_METRICS:
        value = calls.get(name, 0) if kind == "calls" else own.get(name, 0.0)
        metrics[f"{name}.{kind}"] = (value / ops, "count" if kind == "calls" else "s")
    metrics["setup.scipy_s"] = (statistics.median(scipy), "s")
    metrics["process.cpu_per_op_s"] = (statistics.median(result["cpu_s"]["plain"]), "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(wall["traced"]) / statistics.median(wall["plain"]), "ratio")
    return metrics, result, {"scipy_import_samples_s": scipy}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    if not (ROOT / "src" / "neutreno" / "cli.py").is_file():
        print(f"error: no neutreno sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        import_seconds(env)  # untimed: byte-compiles and warms the file cache
        metrics, result, samples = (per_layer if args.trace else end_to_end)(args, env)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(wall) for wall in result["wall_s"].values())
    failed = result["failed"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client",
        "blas_threads": BLAS_THREADS,
        "facts": result["facts"],
        "ops": {kind: summarize(wall, result["cpu_s"][kind])
                for kind, wall in result["wall_s"].items()},
        "ops_attempted": attempted,
        "ops_failed": failed,
        "failures": result["failures"],
        "peak_rss_mib": result["peak_rss_mib"],
        **samples,
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }
    RUNS_DIR.mkdir(exist_ok=True)
    report_path = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
