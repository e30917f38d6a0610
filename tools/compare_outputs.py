"""Check that two source trees write byte-identical experiment outputs.

Runs a fixed list of ``neutreno`` commands and the four demo scripts
once from ``--parent`` (another checkout, for example of the parent
commit) and twice from the checkout that holds this script: on every CPU
this tool may use, then pinned to one of them, so that the one-CPU path
(the stack passes on the calling thread) is compared too.  Each run is a
subprocess with ``PYTHONPATH=<tree>/src`` and one BLAS thread, in a
fresh work directory that first receives the run's input files
(``INPUTS``).
``--out`` is appended to every command; a parser that stops at ``--help``
or at a usage error exits before it reads that flag.  The exit status,
stdout, every file under ``--out`` and stderr (stdout and stderr with the
output directory replaced by ``<out>``) are compared byte for byte, in
that order.

    python tools/compare_outputs.py --parent ../neutreno-parent

Prints, for each run of the change (the pinned one marked "one CPU"),
every difference in that order: the exit status, the set of files, and
the first differing line of each differing stream and file; or that it
is identical.  Exits 1 if any run differed, 0 when every run matches.  It is not part of the
test suite: the bits depend on the BLAS build, so both trees must run on
the same machine.
"""

from __future__ import annotations

import argparse
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]

ENSEMBLE_SWEEP = ["stack", "--variant", "neutreno", "--n-seeds", "50",
                  "--lambda-sweep", "0.1,0.2,0.4,0.5,0.6,0.8,1,2",
                  "--expect-separation", "0.9", "--seed", "1"]
WIDE_STACK = ["stack", "--n", "512", "--input-dim", "64", "--key-dim", "64",
              "--value-dim", "64", "--n-seeds", "1", "--seed", "1"]

COMMANDS = {
    "dynamics": ["dynamics"],
    "dynamics-neutreno": ["dynamics", "--variant", "neutreno", "--lambda-tilde", "0.6"],
    "dynamics-divergent": ["dynamics", "--variant", "neutreno", "--lambda-tilde", "3",
                           "--steps", "400"],
    # records batched over steps: many batches, divergence inside a batch,
    # and the last-axis distance sum from 8 features on
    "dynamics-wide": ["dynamics", "--n", "64", "--steps", "400"],
    "dynamics-divergent-40": ["dynamics", "--variant", "neutreno", "--lambda-tilde", "3",
                              "--n", "40", "--steps", "400"],
    "dynamics-dim8": ["dynamics", "--dim", "8"],
    # long runs whose iterate ends in an exact cycle, so most records are
    # replayed from the cycle's records
    "dynamics-long": ["dynamics", "--steps", "5000"],
    "dynamics-neutreno-long": ["dynamics", "--variant", "neutreno", "--lambda-tilde", "0.2",
                               "--steps", "5000"],
    "dynamics-wide-neutreno-long": ["dynamics", "--n", "64", "--variant", "neutreno",
                                    "--lambda-tilde", "0.6", "--steps", "3000"],
    "stack": ["stack"],
    "stack-symmetric": ["stack", "--variant", "symmetric", "--n-seeds", "5"],
    "ensemble-sweep": ENSEMBLE_SWEEP,
    "wide-stack": WIDE_STACK,
    **{f"deep-residual-{variant}": ["stack", "--variant", variant, "--layers", "60",
                                    "--residual", "--init-scale", "5", "--n-seeds", "2"]
       for variant in ("softmax", "symmetric", "neutreno")},
    # units stop at different layers inside one batched pass
    "deep-residual-300": ["stack", "--variant", "neutreno", "--layers", "300", "--residual",
                          "--init-scale", "5", "--n-seeds", "4",
                          "--lambda-sweep", "0.2,0.6"],
    # symmetric models are reused across the sweep
    "symmetric-sweep": ["stack", "--variant", "symmetric", "--n-seeds", "5",
                        "--lambda-sweep", "0.2,0.6"],
    # odd shapes and a lambda = 0 sweep point
    "odd-shapes": ["stack", "--n", "37", "--input-dim", "5", "--key-dim", "3",
                   "--value-dim", "5", "--n-seeds", "7", "--lambda-sweep", "0,0.3,3",
                   "--seed", "3"],
    # one layer that changes the width: record 0 is measured at 8 features,
    # record 1 at 3
    "stack-width-change": ["stack", "--layers", "1", "--value-dim", "3", "--n-seeds", "3",
                           "--lambda-sweep", "0.2,0.6"],
    # passes large enough to run on a pool of threads, one per allowed CPU
    "wide-sweep": ["stack", "--variant", "neutreno", "--n", "256", "--input-dim", "8",
                   "--key-dim", "8", "--value-dim", "8", "--layers", "3",
                   "--lambda-sweep", "0,0.3,3"],
    "wide-symmetric-sweep": ["stack", "--variant", "symmetric", "--n", "300", "--n-seeds", "2",
                             "--lambda-sweep", "0.2,0.6"],
    "wide-deep-residual": ["stack", "--variant", "neutreno", "--n", "256", "--layers", "60",
                           "--residual", "--init-scale", "5", "--n-seeds", "2",
                           "--lambda-sweep", "0.2,0.6"],
    # error paths: a failed check (exit 1), then failing passes (exit 2)
    "failed-separation": [*ENSEMBLE_SWEEP, "--expect-separation", "1.01"],
    "overflowing-wide-sweep": ["stack", "--variant", "neutreno", "--n", "256", "--layers", "300",
                               "--residual", "--init-scale", "1e5", "--n-seeds", "2",
                               "--lambda-sweep", "0.2,0.6"],
    "negative-lambda-sweep": ["stack", "--variant", "neutreno", "--n-seeds", "3",
                              "--lambda-sweep", "0.2,-1,-2"],
    "negative-lambda-wide-sweep": ["stack", "--variant", "neutreno", "--n", "256", "--layers", "2",
                                   "--n-seeds", "1", "--lambda-sweep", "0.2,-1,-2"],
    "randomwalk": ["randomwalk"],
    # a walk whose guide table has 64 rows of 1024 buckets
    "randomwalk-64": ["randomwalk", "--n", "64"],
    # 4096 buckets a row, over several blocks
    "randomwalk-200-two-blocks": ["randomwalk", "--n", "200", "--n-samples", "131073"],
    "randomwalk-asymmetric": ["randomwalk", "--n", "37", "--kernel", "asymmetric"],
    # two blocks of 65 536 walks and one walk past them
    "randomwalk-two-blocks": ["randomwalk", "--n-samples", "131073"],
    "randomwalk-64-long": ["randomwalk", "--n", "64", "--walk-steps", "4",
                           "--n-samples", "333333"],
    "randomwalk-asymmetric-one-block": ["randomwalk", "--kernel", "asymmetric",
                                        "--n-samples", "65537"],
    "gradcheck": ["gradcheck"],
    "gradcheck-symmetric": ["gradcheck", "--symmetric"],
    # the parser: every help text and three usage errors (exit 2)
    **{"-".join(["help", *sub]): [*sub, "--help"]
       for sub in ([], ["dynamics"], ["stack"], ["randomwalk"], ["gradcheck"], ["tensor"],
                   ["tensor", "inspect"], ["tensor", "convert"])},
    "usage-lambda-sweep": ["stack", "--lambda-sweep", "a"],
    "usage-variant": ["dynamics", "--variant", "x"],
    "usage-n": ["randomwalk", "--n", "x"],
    # input files (see INPUTS): config files, tokens, keys and a transition
    # matrix whose power iteration does not converge (exit 1)
    "config-override": ["dynamics", "--config", "exp.cfg", "--steps", "12"],
    "config-unknown-key": ["dynamics", "--config", "unknown.cfg"],
    "config-bogus-variant": ["dynamics", "--config", "bogus.cfg"],
    "dynamics-tokens": ["dynamics", "--tokens", "tokens.ntt", "--steps", "20"],
    "randomwalk-keys": ["randomwalk", "--keys", "keys.ntt"],
    # keys of magnitude about 6: each row's thresholds crowd into its first
    # and last buckets, and the nearly decomposable chain fails its
    # stationary and limit checks (exit 1) after the walk
    "randomwalk-keys-crowded": ["randomwalk", "--keys", "keys.ntt"],
    "randomwalk-periodic": ["randomwalk", "--transition", "periodic.ntt"],
    # files with no rows or no columns (exit 2)
    "dynamics-tokens-empty": ["dynamics", "--tokens", "tokens.ntt"],
    "randomwalk-keys-empty": ["randomwalk", "--keys", "keys.ntt"],
    "dynamics-tokens-no-columns": ["dynamics", "--tokens", "tokens.ntt"],
    "randomwalk-keys-no-columns": ["randomwalk", "--keys", "keys.ntt"],
    # bad values, which leave no --out (exit 2); a missing --out and an
    # empty one compare equal
    "dynamics-zero-steps": ["dynamics", "--steps", "0"],
    "randomwalk-zero-samples": ["randomwalk", "--n-samples", "0"],
    "stack-zero-layers": ["stack", "--layers", "0"],
    "dynamics-zero-key-dim": ["dynamics", "--key-dim", "0"],
    "gradcheck-zero-instances": ["gradcheck", "--instances", "0"],
    "stack-negative-input-dim": ["stack", "--input-dim", "-1"],
    "randomwalk-bogus-kernel": ["randomwalk", "--config", "bogus.cfg"],
}


def tensor_bytes(rows: list[list[float]], width: int | None = None) -> bytes:
    """A rank-2 tensor file: magic, u32 version 1, u32 rank, u64 dims, then
    the row-major float64 payload, all little-endian (see README).  With no
    rows, ``width`` gives the second dimension."""
    values = [v for row in rows for v in row]
    return struct.pack(f"<8sII2Q{len(values)}d", b"NTRNTNSR", 1, 2, len(rows),
                       len(rows[0]) if rows else width, *values)


# run name -> {file name: bytes}, written into the run's work directory
INPUTS = {
    "config-override": {"exp.cfg": b"steps = 10\nseed = 3\n# comment\nn = 5\n"},
    "config-unknown-key": {"unknown.cfg": b"stepz = 10\n"},
    "config-bogus-variant": {"bogus.cfg": b"variant = bogus\n"},
    "dynamics-tokens": {"tokens.ntt": tensor_bytes(
        [[(3 * i) % 7 - 3.0, 0.25 * ((5 * i) % 11)] for i in range(8)])},
    "randomwalk-keys": {"keys.ntt": tensor_bytes(
        [[0.3 * ((7 * i + 3 * j) % 5 - 2) for j in range(3)] for i in range(5)])},
    "randomwalk-keys-crowded": {"keys.ntt": tensor_bytes(
        [[(5 * i + 3 * j) % 13 - 6.0 for j in range(4)] for i in range(6)])},
    "randomwalk-periodic": {"periodic.ntt": tensor_bytes(
        [[1e-6, 1 - 1e-6], [1 - 2e-6, 2e-6]])},
    "dynamics-tokens-empty": {"tokens.ntt": tensor_bytes([], 3)},
    "randomwalk-keys-empty": {"keys.ntt": tensor_bytes([], 3)},
    "dynamics-tokens-no-columns": {"tokens.ntt": tensor_bytes([[], [], []])},
    "randomwalk-keys-no-columns": {"keys.ntt": tensor_bytes([[], [], []])},
    "randomwalk-bogus-kernel": {"bogus.cfg": b"kernel = bogus\n"},
}

DEMOS = ("anchored_fixed_point.py", "depth_experiment.py",
         "oversmoothing_random_walk.py", "smoothing_is_attention.py")


def pin_to_one_cpu() -> None:
    """Allow the calling process one of the CPUs it may use."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(tree: Path, argv: list[str], work: Path,
        one_cpu: bool) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, *argv], cwd=work, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          preexec_fn=pin_to_one_cpu if one_cpu else None)
    return proc.returncode, proc.stdout, proc.stderr


def outputs(tree: Path, name: str, one_cpu: bool = False
            ) -> tuple[int, bytes, bytes, dict[str, bytes]]:
    """Exit status, normalised stdout and stderr, and ``--out`` files of
    one run in a fresh work directory, pinned to one CPU if ``one_cpu``."""
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for file, data in INPUTS.get(name, {}).items():
            (work / file).write_bytes(data)
        if name not in COMMANDS:
            return (*run(tree, [str(tree / "demos" / name)], work, one_cpu), {})
        out = work / "out"
        status, stdout, stderr = run(
            tree, ["-m", "neutreno", *COMMANDS[name], "--out", str(out)], work, one_cpu)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
        where = str(out).encode()
        return status, stdout.replace(where, b"<out>"), stderr.replace(where, b"<out>"), files


def first_difference(label: str, a: bytes, b: bytes) -> str:
    a_lines, b_lines = a.splitlines(), b.splitlines()
    for line, (x, y) in enumerate(zip(a_lines, b_lines), start=1):
        if x != y:
            return f"{label}, line {line}:\n  parent: {x!r}\n  change: {y!r}"
    return f"{label}: {len(a_lines)} lines in parent, {len(b_lines)} in change"


def compare(expected, got) -> list[str]:
    """Every difference of the outputs ``got`` of a run of the change from
    the parent's ``expected``, in the order the module docstring gives."""
    status_a, stdout_a, stderr_a, files_a = expected
    status_b, stdout_b, stderr_b, files_b = got
    differences = []
    if status_a != status_b:
        differences.append(f"exit status {status_a} in parent, {status_b} in change")
    if stdout_a != stdout_b:
        differences.append(first_difference("stdout", stdout_a, stdout_b))
    if files_a.keys() != files_b.keys():
        differences.append(f"files only in parent: {sorted(files_a.keys() - files_b.keys())}, "
                           f"only in change: {sorted(files_b.keys() - files_a.keys())}")
    differences += [first_difference(file, files_a[file], files_b[file])
                    for file in files_a if file in files_b and files_a[file] != files_b[file]]
    if stderr_a != stderr_b:
        differences.append(first_difference("stderr", stderr_a, stderr_b))
    return differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout to compare against (its src/ and demos/ are used)")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    differed = False
    for name in [*COMMANDS, *DEMOS]:
        expected = outputs(parent, name)
        for label, one_cpu in ((name, False), (f"{name}, one CPU", True)):
            differences = compare(expected, outputs(HERE, name, one_cpu))
            for difference in differences or ["identical"]:
                print(f"{label}: {difference}")
            differed |= bool(differences)
    return int(differed)


if __name__ == "__main__":
    sys.exit(main())
