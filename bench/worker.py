"""One workload in a fresh process: a closed loop with a single client.

Usage: python bench/worker.py WORKLOAD SEED SECONDS {plain,traced} WORK_DIR

Imports the package from the checkout's ``src``, then runs operations one
after another until ``SECONDS`` have passed (the last op may overrun),
checks each op's output, and prints one JSON object with the per-op wall
and CPU times, failures, peak resident memory and machine facts.

With ``traced``, every op index runs twice, untraced and traced (with
every public function wrapped in spans) in alternating order, so the two
kinds see the same inputs and the same state of the machine.  The spans
are written to WORK_DIR/spans.csv and summed per function.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import machine
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def measure(workload, index: int, tracer: spans.Tracer | None):
    """Run and check op ``index``; return (wall s, CPU s, failed checks)."""
    run, binding = workload.run, contextlib.nullcontext()
    if tracer is not None:
        tracer.op = index
        run, binding = tracer.wrap(spans.OP_SPAN, run), spans.rebound(tracer)
    with binding:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            value = run(index)
            problems = None
        except Exception as exc:  # counted as a failed op, never fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if problems is None:
        try:
            problems = workload.check(index, value)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    return wall, cpu, problems


def main(argv: list[str]) -> int:
    name, seed, seconds, mode, work_dir = argv
    seed, seconds, work_dir = int(seed), float(seconds), Path(work_dir)

    work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, work_dir)
    tracers = {"plain": None}
    if mode == "traced":
        tracers["traced"] = spans.Tracer()
    wall = {kind: [] for kind in tracers}
    cpu = {kind: [] for kind in tracers}
    failed, failures = 0, []

    loop_start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - loop_start < seconds:
        # alternate which kind goes first, so neither always pays for the
        # other's leftovers (the first op in a process runs cold)
        order = list(tracers.items())
        for kind, tracer in order if index % 2 == 0 else reversed(order):
            op_wall, op_cpu, problems = measure(workload, index, tracer)
            wall[kind].append(op_wall)
            cpu[kind].append(op_cpu)
            if problems:
                failed += 1
                failures.extend(f"op {index} {kind}: {p}" for p in problems[:3])
        index += 1

    result = {
        "workload": name,
        "wall_s": wall,
        "cpu_s": cpu,
        "failed": failed,
        "failures": failures[:20],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "facts": machine.facts(ROOT, work_dir),
    }
    if mode == "traced":
        tracer = tracers["traced"]
        tracer.write(work_dir / "spans.csv")
        result["calls"], result["self_s"] = spans.self_times(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
