import argparse
import contextlib
import json
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from neutreno import cli, linalg, stack
from neutreno.cli import main
from neutreno.config import coerce
from neutreno.tensorfile import save_tensor


# a nearly periodic two-state chain: its power iteration does not converge
PERIODIC = np.array([[1e-6, 1 - 1e-6], [1 - 2e-6, 2e-6]])


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    return header, rows


class TestDynamicsCommand:
    def test_writes_expected_csv(self, tmp_path):
        out = tmp_path / "run"
        assert main(["dynamics", "--out", str(out), "--seed", "9", "--steps", "200"]) == 0
        header, rows = read_csv(out / "dynamics.csv")
        assert header == ["step", "mean_cosine", "j_value", "max_pairwise", "diverged"]
        assert len(rows) == 201
        assert rows[-1][3] <= 1e-8  # long-run collapse
        assert all(r[4] == 0.0 for r in rows)

    def test_byte_reproducible(self, tmp_path):
        args = ["dynamics", "--seed", "4", "--steps", "50"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a/dynamics.csv").read_bytes() == \
               (tmp_path / "b/dynamics.csv").read_bytes()

    def test_zero_lambda_matches_softmax_byte_for_byte(self, tmp_path):
        base = ["--seed", "5", "--steps", "40"]
        main(["dynamics", "--variant", "softmax", "--out", str(tmp_path / "p")] + base)
        main(["dynamics", "--variant", "neutreno", "--lambda-tilde", "0",
              "--out", str(tmp_path / "n")] + base)
        assert (tmp_path / "p/dynamics.csv").read_bytes() == \
               (tmp_path / "n/dynamics.csv").read_bytes()

    def test_constant_tokens_stay_collapsed(self, tmp_path):
        # softmax rows sum to 1 only within 1 ulp, so a constant state can
        # pick up rounding-level diameter; exact zero is not attainable
        tokens = tmp_path / "tokens.ntt"
        save_tensor(tokens, np.tile([1.5, -2.0], (8, 1)))
        out = tmp_path / "run"
        assert main(["dynamics", "--out", str(out), "--tokens", str(tokens),
                     "--steps", "20"]) == 0
        _, rows = read_csv(out / "dynamics.csv")
        assert rows[0][3] == 0.0
        assert all(r[3] <= 1e-12 for r in rows)

    def test_divergent_run_fails_with_reason(self, tmp_path, capsys):
        code = main(["dynamics", "--variant", "neutreno", "--lambda-tilde", "3.0",
                     "--n", "2", "--steps", "400", "--out", str(tmp_path / "d")])
        err = capsys.readouterr().err
        assert code == 1
        assert "warning" in err  # lambda above 1.0
        assert "failed_checks" in err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("steps = 10\nseed = 3\n# comment\nn = 5\n")
        out = tmp_path / "run"
        assert main(["dynamics", "--config", str(cfg), "--steps", "12",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out / "dynamics.csv")
        assert len(rows) == 13  # flag wins over file

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("stepz = 10\n")
        assert main(["dynamics", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "stepz" in capsys.readouterr().err

    def test_tol_is_not_a_dynamics_key(self, tmp_path, capsys):
        # dynamics checks no tolerance, so it takes no tol key or flag
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("tol = 1e-3\n")
        out = tmp_path / "x"
        assert main(["dynamics", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: unknown config keys: tol\n"
        assert not out.exists()

    def test_tol_is_not_a_stack_key(self, tmp_path, capsys):
        # stack checks no tolerance either, so it takes no tol key or flag
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("tol = 1e-3\n")
        out = tmp_path / "x"
        assert main(["stack", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: unknown config keys: tol\n"
        assert not out.exists()
        with pytest.raises(SystemExit) as exit_info:
            main(["stack", "--tol", "1e-3", "--out", str(out)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err
        assert not out.exists()


class TestStackCommand:
    def test_single_layer_two_rows(self, tmp_path):
        out = tmp_path / "run"
        assert main(["stack", "--layers", "1", "--variant", "softmax",
                     "--n-seeds", "1", "--out", str(out)]) == 0
        header, rows = read_csv(out / "stack_softmax_seed0.csv")
        assert header == ["layer", "mean_cosine", "j_value", "max_pairwise"]
        assert len(rows) == 2

    def test_ensemble_separation_fraction(self, tmp_path):
        out = tmp_path / "run"
        assert main(["stack", "--variant", "neutreno", "--lambda-tilde", "0.6",
                     "--n-seeds", "12", "--expect-separation", "0.9",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fraction_below_baseline"] >= 0.9
        assert len(summary["per_seed"]) == 12

    def test_lambda_sweep_writes_one_summary_each(self, tmp_path):
        out = tmp_path / "run"
        grid = "0.1,0.2,0.4,0.5,0.6,0.8,1.0,2.0"
        assert main(["stack", "--variant", "neutreno", "--n-seeds", "2",
                     "--lambda-sweep", grid, "--out", str(out)]) == 0
        for token in ("0.1", "0.2", "0.4", "0.5", "0.6", "0.8", "1", "2"):
            summary = json.loads((out / f"summary_lambda{token}.json").read_text())
            assert summary["lambda_tilde"] == float(token)
            assert summary["fraction_below_baseline"] is not None

    def test_byte_reproducible(self, tmp_path):
        args = ["stack", "--variant", "neutreno", "--n-seeds", "2", "--seed", "1"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        for name in ("summary.json", "stack_softmax_seed1.csv",
                     "stack_neutreno_seed1.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()
        sweep = args + ["--lambda-sweep", "0.2,0.6"]
        assert main(sweep + ["--out", str(tmp_path / "c")]) == 0
        assert main(sweep + ["--out", str(tmp_path / "d")]) == 0
        names = sorted(p.name for p in (tmp_path / "c").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "d").iterdir())
        assert "stack_neutreno_lambda0.6_seed1.csv" in names
        assert "summary_lambda0.2.json" in names
        for name in names:
            assert (tmp_path / "c" / name).read_bytes() == \
                   (tmp_path / "d" / name).read_bytes()

    def test_one_batched_forward_per_lambda(self, tmp_path):
        """All seeds of one model run in a single batched forward pass: one
        for the baseline and one per anchor weight."""
        spy = mock.Mock(wraps=stack.forward)
        with mock.patch.object(stack, "forward", spy):
            assert main(["stack", "--variant", "neutreno", "--n-seeds", "3",
                         "--lambda-sweep", "0.2,0.6", "--out", str(tmp_path / "s")]) == 0
        assert spy.call_count == 3

    def test_weights_drawn_once_per_seed(self, tmp_path):
        """One call draws every seed's weights, and the baseline and every
        anchor weight run on them."""
        spy = mock.Mock(wraps=stack.init_stack)
        with mock.patch.object(stack, "init_stack", spy):
            assert main(["stack", "--variant", "neutreno", "--n-seeds", "3",
                         "--lambda-sweep", "0.2,0.6", "--out", str(tmp_path / "s")]) == 0
        assert spy.call_count == 1
        assert len(spy.call_args.args[1]) == 3

    def test_overflowing_scores_name_the_unit(self, tmp_path, capsys):
        # the error line is all that reaches stderr: no overflow warning
        # from the score product precedes it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["stack", "--layers", "300", "--residual", "--init-scale", "1e5",
                         "--n-seeds", "2", "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: non-finite entry in row 0 of scores of unit 0\n"
        assert [str(w.message) for w in caught] == []

    def test_rejects_nonpositive_seed_count(self, tmp_path, capsys):
        assert main(["stack", "--n-seeds", "0", "--out", str(tmp_path / "z")]) == 2
        assert "n_seeds" in capsys.readouterr().err

    def test_summaries_match_the_last_csv_rows(self, tmp_path):
        out = tmp_path / "run"
        assert main(["stack", "--variant", "neutreno", "--n-seeds", "3",
                     "--lambda-sweep", "0.2,0.6", "--out", str(out)]) == 0
        for lam in ("0.2", "0.6"):
            summary = json.loads((out / f"summary_lambda{lam}.json").read_text())
            assert [seed["seed_index"] for seed in summary["per_seed"]] == [0, 1, 2]
            for seed in summary["per_seed"]:
                unit = seed["seed_index"]
                finals = {}
                for prefix, name in (("baseline_", f"stack_softmax_seed{unit}.csv"),
                                     ("", f"stack_neutreno_lambda{lam}_seed{unit}.csv")):
                    header, rows = read_csv(out / name)
                    finals.update({f"{prefix}final_{column}": value
                                   for column, value in zip(header[1:], rows[-1][1:])})
                assert {key: value for key, value in seed.items() if "final_" in key} == finals

    # a warning for each anchor weight above 1 that a neutreno pass uses, once
    @pytest.mark.parametrize("argv, warned", [
        (["--lambda-tilde", "3"], [3]),
        (["--lambda-tilde", "3", "--lambda-sweep", "0.2"], []),
        (["--lambda-sweep", "0.2,2"], [2]),
        (["--lambda-sweep", "3,0.2,3,1.5"], [3, 1.5]),
        (["--variant", "softmax", "--lambda-tilde", "3"], []),
        (["--variant", "symmetric", "--lambda-sweep", "0.2,3"], []),
    ])
    def test_warns_about_each_used_lambda_above_one(self, tmp_path, capsys, argv, warned):
        assert main(["stack", "--n-seeds", "2", *argv, "--out", str(tmp_path / "w")]) == 0
        assert capsys.readouterr().err == "".join(
            f"warning: lambda_tilde = {lam:g} is above 1.0; the anchored update "
            "can become unstable there\n" for lam in warned)


# 256 tokens: each pass's score stack holds 2**16 entries per seed, enough
# to run the passes in a pool of threads
WIDE_SWEEP = ["stack", "--variant", "neutreno", "--n", "256", "--input-dim", "8",
              "--key-dim", "8", "--value-dim", "8", "--layers", "3",
              "--lambda-sweep", "0,0.3,3", "--n-seeds", "1"]
WIDE_SYMMETRIC = ["stack", "--variant", "symmetric", "--n", "256", "--input-dim", "8",
                  "--key-dim", "8", "--value-dim", "8", "--layers", "3", "--n-seeds", "2"]


def run_on_cpus(cpus, argv, out, capsys, write_delay=0.0, pass_delay=0.0):
    """One ``stack`` run with ``cpus`` allowed (``None``: the affinity call
    is left alone).

    Returns its exit status, stdout and stderr (output directory
    replaced) and files (``None`` for a directory), then the thread of
    each pass, the thread of each written batch of files, and the names
    under ``out`` as each line was printed.  Each batch waits ``write_delay``
    seconds before it is written and each pass ``pass_delay`` seconds
    before it runs, so that the writes fall behind the pooled passes or
    run ahead of them.  The run must leave no thread behind.
    """
    forward, write_files, real_print = stack.forward, cli._write_files, print
    passes, writes, printed = [], [], []

    def forward_spy(*args, **kwargs):
        passes.append(threading.current_thread())
        time.sleep(pass_delay)
        return forward(*args, **kwargs)

    def write_spy(files):
        writes.append(threading.current_thread())
        time.sleep(write_delay)
        write_files(files)

    def print_spy(*args, **kwargs):
        printed.append({p.name for p in out.iterdir()} if out.is_dir() else set())
        real_print(*args, **kwargs)

    threads = threading.active_count()
    with contextlib.ExitStack() as patches:
        if cpus is not None:
            patches.enter_context(mock.patch("os.sched_getaffinity", return_value=set(cpus)))
        patches.enter_context(mock.patch.object(stack, "forward", forward_spy))
        patches.enter_context(mock.patch.object(cli, "_write_files", write_spy))
        patches.enter_context(mock.patch.object(cli, "print", print_spy, create=True))
        code = main(argv + ["--out", str(out)])
    assert threading.active_count() == threads
    captured = capsys.readouterr()
    files = {p.name: None if p.is_dir() else p.read_bytes()
             for p in sorted(out.iterdir())} if out.is_dir() else {}
    run = (code, captured.out.replace(str(out), "<out>"),
           captured.err.replace(str(out), "<out>"), files)
    return run, passes, writes, printed


class TestConcurrentPasses:
    """The baseline pass and the per-lambda passes run on a pool of
    threads, one per allowed CPU, and write the bytes of a sequential run;
    with one allowed CPU they run on the calling thread."""

    @pytest.mark.parametrize("argv", [WIDE_SWEEP, WIDE_SYMMETRIC])
    def test_pool_writes_the_sequential_bytes(self, tmp_path, capsys, argv):
        alone, threads_alone, *_ = run_on_cpus({0}, argv, tmp_path / "one", capsys)
        pooled, threads_pooled, *_ = run_on_cpus({0, 1}, argv, tmp_path / "two", capsys)
        assert alone[0] == 0
        assert pooled == alone
        assert threads_alone == [threading.current_thread()] * len(threads_alone)
        assert threading.current_thread() not in threads_pooled
        assert len(threads_pooled) == len(threads_alone) == (4 if argv is WIDE_SWEEP else 2)

    def test_first_two_passes_run_at_the_same_time(self, tmp_path, capsys):
        # the baseline and the pass at lambda 0 each mark their start, then
        # wait for the other's; run one after the other, the first times out
        forward = stack.forward
        started = {"softmax": threading.Event(), "neutreno": threading.Event()}
        met = {}

        def meeting_forward(model, x0, **kwargs):
            variant = model.config.variant
            if model.config.lambda_tilde == 0.0:
                started[variant].set()
                other = "neutreno" if variant == "softmax" else "softmax"
                met[variant] = started[other].wait(timeout=10)
            return forward(model, x0, **kwargs)

        with mock.patch("os.sched_getaffinity", return_value={0, 1}), \
                mock.patch.object(stack, "forward", meeting_forward):
            assert main(WIDE_SWEEP + ["--out", str(tmp_path)]) == 0
        assert met == {"softmax": True, "neutreno": True}

    def test_small_passes_share_one_pool_thread(self, tmp_path, capsys):
        # 3 seeds of 16 tokens hold 768 score entries per pass
        (code, *_), threads, *_ = run_on_cpus(
            {0, 1}, ["stack", "--variant", "neutreno", "--n-seeds", "3",
                     "--lambda-sweep", "0.2,0.6"], tmp_path / "s", capsys)
        assert code == 0
        assert len(threads) == 3
        assert len(set(threads)) == 1
        assert threading.current_thread() not in threads

    @pytest.mark.parametrize("argv, error, files", [
        # the baseline and the first anchored pass both overflow
        (["--n", "256", "--layers", "300", "--residual", "--init-scale", "1e5",
          "--lambda-sweep", "0.2,0.6", "--n-seeds", "2"],
         "non-finite entry in row 0 of scores of unit 0", 0),
        # the passes at -1 and -2 both fail, after the one at 0.2 is written
        (["--n", "256", "--layers", "2", "--lambda-sweep", "0.2,-1,-2", "--n-seeds", "1"],
         "lambda_tilde must be nonnegative, got -1.0", 3),
    ])
    def test_first_failing_pass_is_reported(self, tmp_path, capsys, argv, error, files):
        argv = ["stack", "--variant", "neutreno", *argv]
        alone, *_ = run_on_cpus({0}, argv, tmp_path / "one", capsys)
        pooled, threads, *_ = run_on_cpus({0, 1}, argv, tmp_path / "two", capsys)
        assert alone[0] == 2
        assert alone[2] == f"error: {error}\n"
        assert len(alone[3]) == files
        assert pooled == alone
        assert threading.current_thread() not in threads


ENSEMBLE_SIZED = ["stack", "--variant", "neutreno", "--n-seeds", "3",
                  "--lambda-sweep", "0.2,0.6"]


class WritesBothWays:
    """Runs a stack command with one allowed CPU and with two."""

    def both_ways(self, tmp_path, capsys, argv, setup=lambda out: None, delays=(0.02, 0.0)):
        runs = []
        for cpus in ({0}, {0, 1}):
            out = tmp_path / f"cpus{len(cpus)}"
            out.mkdir()
            setup(out)
            runs.append(run_on_cpus(cpus, argv, out, capsys, *delays))
        (alone, passes_alone, writes_alone, printed_alone), (written, passes, writes, printed) = runs
        assert written == alone
        # passes run off the calling thread with two CPUs, every write on it
        caller = threading.current_thread()
        assert passes_alone + writes_alone + writes == \
            [caller] * (len(passes_alone) + len(writes_alone) + len(writes))
        assert passes and caller not in passes
        # each line is printed once every file before it is on disk
        assert len(printed) == len(printed_alone)
        for names_alone, names in zip(printed_alone, printed):
            assert names_alone <= names
        return alone, (len(passes_alone), len(passes))


class TestBackgroundWriter(WritesBothWays):
    """A failed write stops the later writes. The name is older than the
    split of passes and writes; it keeps these cases' test ids."""

    # the writes fall behind the passes, or fail before the next pass ends
    @pytest.mark.parametrize("delays", [(0.02, 0.0), (0.0, 0.05)],
                             ids=["writer-behind", "writer-ahead"])
    @pytest.mark.parametrize("lam, stdout, files", [
        # the baseline, then one file
        ("0.2", "", 3 + 1),
        # the baseline, the first lambda and its summary, then one file
        ("0.6", "wrote <out>/summary_lambda0.2.json\n", 3 + 4 + 1),
    ], ids=["first-lambda", "second-lambda"])
    def test_failed_write_stops_the_writes(self, tmp_path, capsys, delays, lam, stdout, files):
        blocker = f"stack_neutreno_lambda{lam}_seed1.csv"
        run, _ = self.both_ways(tmp_path, capsys, ENSEMBLE_SIZED,
                                lambda out: (out / blocker).mkdir(), delays)
        assert run[:3] == (2, stdout, f"error: [Errno 21] Is a directory: '<out>/{blocker}'\n")
        assert run[3][blocker] is None
        assert len(run[3]) == files + 1


class TestWritesBesidePooledPasses(WritesBothWays):
    """With two or more allowed CPUs, the calling thread writes a stack
    command's files while the pool computes its later passes; files,
    output, errors and exit status are those of a sequential run."""

    def test_sweep_writes_the_sequential_bytes(self, tmp_path, capsys):
        (code, stdout, stderr, files), _ = self.both_ways(tmp_path, capsys, ENSEMBLE_SIZED)
        assert code == 0
        assert stdout == "wrote <out>/summary_lambda0.2.json\nwrote <out>/summary_lambda0.6.json\n"
        assert stderr == ""
        assert len(files) == 3 + 2 * 4

    def test_failed_separation_check(self, tmp_path, capsys):
        (code, stdout, stderr, _), _ = self.both_ways(
            tmp_path, capsys, ENSEMBLE_SIZED + ["--expect-separation", "1.01"])
        assert code == 1
        assert stdout.count("wrote") == 2
        assert json.loads(stderr)["failed_checks"][0].startswith("separation fraction")

    def test_failed_write_wins_over_a_later_failing_pass(self, tmp_path, capsys):
        blocker = "stack_neutreno_lambda0.2_seed1.csv"
        (code, stdout, stderr, files), _ = self.both_ways(
            tmp_path, capsys, ["stack", "--variant", "neutreno", "--n-seeds", "3",
                               "--lambda-sweep", "0.2,-1"],
            lambda out: (out / blocker).mkdir())
        assert code == 2
        assert stdout == ""
        assert stderr == f"error: [Errno 21] Is a directory: '<out>/{blocker}'\n"
        assert len(files) == 3 + 1 + 1

    def test_failing_pass_after_written_files(self, tmp_path, capsys):
        (code, stdout, stderr, files), _ = self.both_ways(
            tmp_path, capsys, ["stack", "--variant", "neutreno", "--n-seeds", "3",
                               "--lambda-sweep", "0.2,-1,-2"])
        assert code == 2
        assert stdout == "wrote <out>/summary_lambda0.2.json\n"
        assert stderr == "error: lambda_tilde must be nonnegative, got -1.0\n"
        assert len(files) == 3 + 4

    def test_failed_write_cancels_the_passes_not_started(self, tmp_path, capsys):
        # the baseline's write fails while the pool runs the second pass
        blocker = "stack_softmax_seed1.csv"
        (code, stdout, stderr, files), passes = self.both_ways(
            tmp_path, capsys, ENSEMBLE_SIZED, lambda out: (out / blocker).mkdir(),
            delays=(0.1, 0.3))
        assert (code, stdout) == (2, "")
        assert stderr == f"error: [Errno 21] Is a directory: '<out>/{blocker}'\n"
        assert sorted(files) == ["stack_softmax_seed0.csv", blocker]
        assert files[blocker] is None
        # one pass alone; with the pool, the second pass but never the third
        assert passes == (1, 2)

    def test_at_most_one_pass_runs_ahead_of_the_writes(self, tmp_path, capsys):
        # one pool thread: while the baseline's files are written, the pool
        # may run the first compared pass but not start the second
        forward, write_files = stack.forward, cli._write_files
        started, seen = [], []

        def forward_spy(*args, **kwargs):
            started.append(threading.current_thread())
            return forward(*args, **kwargs)

        def slow_first_write(files):
            time.sleep(0.0 if seen else 0.2)
            write_files(files)
            seen.append(len(started))

        with mock.patch("os.sched_getaffinity", return_value={0, 1}), \
                mock.patch.object(stack, "forward", forward_spy), \
                mock.patch.object(cli, "_write_files", slow_first_write):
            assert main(ENSEMBLE_SIZED + ["--out", str(tmp_path)]) == 0
        assert len(started) == 3
        assert seen[0] <= 2


class TestAllowedCpus:
    """Without an affinity call, the CPU count decides on the pool."""

    @pytest.mark.parametrize("count", [1, 2])
    def test_falls_back_to_the_cpu_count(self, tmp_path, capsys, monkeypatch, count):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert linalg._allowed_cpus() == count
        (code, *_), passes, writes, _ = run_on_cpus(None, WIDE_SWEEP, tmp_path / "w", capsys)
        assert code == 0
        caller = threading.current_thread()
        assert writes == [caller] * len(writes)
        on_caller = [t is caller for t in passes]
        assert all(on_caller) if count == 1 else not any(on_caller)


class TestRandomwalkCommand:
    def test_generated_chain_passes_checks(self, tmp_path):
        out = tmp_path / "run"
        assert main(["randomwalk", "--out", str(out), "--seed", "2",
                     "--n-samples", "20000"]) == 0
        report = json.loads((out / "randomwalk.json").read_text())
        assert report["passed"]
        assert report["walk_check"]["within_band"]
        assert report["stationary"]["residual_l1_closed_form"] <= 1e-10
        assert report["stationary"]["agreement_max_abs_diff"] <= 1e-9
        assert report["limit"]["converged"]

    def test_hand_transition_matrix(self, tmp_path):
        """pi = (5/6, 1/6) for the two-state chain [[.9,.1],[.5,.5]]."""
        matrix = tmp_path / "chain.ntt"
        save_tensor(matrix, np.array([[0.9, 0.1], [0.5, 0.5]]))
        out = tmp_path / "run"
        assert main(["randomwalk", "--transition", str(matrix), "--out", str(out),
                     "--n-samples", "5000", "--limit-steps", "400"]) == 0
        report = json.loads((out / "randomwalk.json").read_text())
        pi = report["stationary"]["power_iteration"]
        np.testing.assert_allclose(pi, [5 / 6, 1 / 6], atol=1e-9)
        assert report["stationary"]["closed_form"] is None

    def test_zero_keys_give_uniform_pi_in_both_methods(self, tmp_path):
        keys = tmp_path / "keys.ntt"
        save_tensor(keys, np.zeros((5, 3)))
        out = tmp_path / "run"
        assert main(["randomwalk", "--keys", str(keys), "--out", str(out),
                     "--n-samples", "5000"]) == 0
        report = json.loads((out / "randomwalk.json").read_text())
        np.testing.assert_allclose(report["stationary"]["closed_form"], 0.2, atol=1e-12)
        np.testing.assert_allclose(report["stationary"]["power_iteration"], 0.2,
                                   atol=1e-11)

    def test_asymmetric_kernel_skips_closed_form(self, tmp_path):
        out = tmp_path / "run"
        assert main(["randomwalk", "--kernel", "asymmetric", "--out", str(out),
                     "--n-samples", "5000"]) == 0
        report = json.loads((out / "randomwalk.json").read_text())
        assert report["stationary"]["closed_form"] is None
        assert report["passed"]

    def test_non_stochastic_transition_rejected(self, tmp_path, capsys):
        matrix = tmp_path / "bad.ntt"
        save_tensor(matrix, np.array([[0.9, 0.2], [0.5, 0.5]]))
        assert main(["randomwalk", "--transition", str(matrix),
                     "--out", str(tmp_path / "x")]) == 2
        assert "row-stochastic" in capsys.readouterr().err

    def test_unconverged_power_iteration_is_a_failed_check(self, tmp_path, capsys):
        # a nearly periodic two-state chain: the power iteration's residual
        # stalls near 7e-7
        matrix = tmp_path / "periodic.ntt"
        save_tensor(matrix, PERIODIC)
        out = tmp_path / "run"
        assert main(["randomwalk", "--transition", str(matrix), "--out", str(out),
                     "--n-samples", "1000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [reason] = json.loads(captured.err)["failed_checks"]
        assert reason.startswith("power iteration residual ")
        assert reason.endswith(" after 100000 iterations")
        assert not (out / "randomwalk.json").exists()
        assert not out.exists()

    def test_byte_reproducible(self, tmp_path):
        args = ["randomwalk", "--seed", "8", "--n-samples", "4000"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a/randomwalk.json").read_bytes() == \
               (tmp_path / "b/randomwalk.json").read_bytes()


class TestGradcheckCommand:
    def test_report_within_tolerances(self, tmp_path):
        out = tmp_path / "run"
        assert main(["gradcheck", "--out", str(out), "--instances", "10"]) == 0
        report = json.loads((out / "gradcheck.json").read_text())
        assert report["nonlocal_grad_max_rel_error"] <= 1e-5
        assert report["fidelity_grad_max_rel_error"] <= 1e-5
        assert report["smoothing_identity_max_abs_residual"] <= 1e-12
        assert report["passed"]

    def test_symmetric_mode_aligns_exactly(self, tmp_path):
        out = tmp_path / "run"
        assert main(["gradcheck", "--out", str(out), "--instances", "3",
                     "--symmetric"]) == 0
        report = json.loads((out / "gradcheck.json").read_text())
        assert report["alignment"]["mean_cosine"] == 1.0

    def test_byte_reproducible(self, tmp_path):
        args = ["gradcheck", "--seed", "6", "--instances", "4"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a/gradcheck.json").read_bytes() == \
               (tmp_path / "b/gradcheck.json").read_bytes()


class TestTensorCommand:
    def test_inspect_prints_shape(self, tmp_path, capsys):
        path = tmp_path / "t.ntt"
        save_tensor(path, np.arange(12.0).reshape(3, 4))
        assert main(["tensor", "inspect", str(path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["shape"] == [3, 4]
        assert info["min"] == 0.0 and info["max"] == 11.0

    def test_convert_round_trip(self, tmp_path):
        rng = np.random.default_rng(121)
        a = rng.normal(size=(4, 3))
        src = tmp_path / "a.ntt"
        save_tensor(src, a)
        csv_path = tmp_path / "a.csv"
        back = tmp_path / "back.ntt"
        assert main(["tensor", "convert", str(src), str(csv_path)]) == 0
        assert main(["tensor", "convert", str(csv_path), str(back)]) == 0
        from neutreno.tensorfile import load_tensor

        np.testing.assert_array_equal(load_tensor(back), a)

    def test_bad_magic_is_reported(self, tmp_path, capsys):
        path = tmp_path / "junk.ntt"
        path.write_bytes(b"JUNKJUNK" + b"\x00" * 24)
        assert main(["tensor", "inspect", str(path)]) == 2
        assert "magic" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["tensor", "inspect", str(tmp_path / "nope.ntt")]) == 2
        assert "error" in capsys.readouterr().err


# a zero size is a config error where the value is used; like every run
# that fails before its first write, it leaves no --out
@pytest.mark.parametrize("argv, key", [
    (["dynamics", "--n", "0"], "n"),
    (["dynamics", "--dim", "0"], "dim"),
    (["stack", "--n", "0"], "n"),
    (["randomwalk", "--n", "0"], "n"),
    (["randomwalk", "--dim", "0"], "dim"),
    (["gradcheck", "--n", "0"], "n"),
    (["gradcheck", "--dim", "0"], "dim"),
])
def test_zero_size_is_a_config_error(tmp_path, capsys, argv, key):
    out = tmp_path / "z"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {key} must be positive, got 0\n"
    assert not out.exists()


# so is any other bad count or scale
@pytest.mark.parametrize("argv, message", [
    (["dynamics", "--steps", "0"], "steps must be at least 1, got 0"),
    (["randomwalk", "--walk-steps", "-1"], "steps must be nonnegative, got -1"),
    (["randomwalk", "--n-samples", "0"], "need at least one sample, got 0"),
    (["randomwalk", "--limit-steps", "-1"], "steps must be nonnegative, got -1"),
    (["stack", "--layers", "0"], "need at least one layer, got 0"),
    (["stack", "--init-scale", "0"], "init_scale must be positive, got 0.0"),
    # a bad count is named before the chain is found not to converge
    (["randomwalk", "--transition", "periodic.ntt", "--walk-steps", "-1"],
     "steps must be nonnegative, got -1"),
    # with no lambda_tilde warning before the error
    (["dynamics", "--variant", "neutreno", "--lambda-tilde", "2", "--steps", "0"],
     "steps must be at least 1, got 0"),
])
def test_bad_value_is_a_config_error(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    save_tensor(tmp_path / "periodic.ntt", PERIODIC)
    out = tmp_path / "z"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["dynamics", "--tokens", "in.ntt", "--n", "0", "--dim", "0", "--steps", "3"],
    ["randomwalk", "--keys", "in.ntt", "--n", "0", "--n-samples", "100"],
    ["randomwalk", "--transition", "chain.ntt", "--n", "0", "--n-samples", "100"],
])
def test_unused_size_is_not_checked(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    save_tensor(tmp_path / "in.ntt", np.tile([0.5, -1.0], (4, 1)))
    save_tensor(tmp_path / "chain.ntt", np.array([[0.9, 0.1], [0.5, 0.5]]))
    assert main(argv + ["--out", "run"]) == 0


# a file with no rows or no columns is named, and leaves no --out
@pytest.mark.parametrize("argv, kind", [
    (["dynamics", "--tokens", "rows.ntt"], "tokens"),
    (["randomwalk", "--keys", "rows.ntt"], "keys"),
    (["dynamics", "--tokens", "columns.ntt"], "tokens"),
    (["randomwalk", "--keys", "columns.ntt"], "keys"),
])
def test_zero_row_file_is_a_config_error(tmp_path, monkeypatch, capsys, argv, kind):
    monkeypatch.chdir(tmp_path)
    shapes = {"rows": (0, 3), "columns": (3, 0)}
    for lacks, shape in shapes.items():
        save_tensor(tmp_path / f"{lacks}.ntt", np.zeros(shape))
    lacks = argv[-1].removesuffix(".ntt")
    assert main(argv + ["--out", "run"]) == 2
    assert capsys.readouterr().err == \
        f"error: {kind} file has no {lacks}, got shape {shapes[lacks]}\n"
    assert not (tmp_path / "run").exists()


# --out is made at the first write, so a run that fails before it leaves
# none, whichever check fails: the library's, a config value outside its
# choices, or a failed check (exit 1); files with no rows or columns are
# the cases of test_zero_row_file_is_a_config_error
@pytest.mark.parametrize("argv, code, stderr", [
    (["dynamics", "--key-dim", "0"], 2, "error: key dimension must be positive"),
    (["gradcheck", "--key-dim", "0"], 2, "error: key dimension must be positive"),
    (["dynamics", "--variant", "neutreno", "--lambda-tilde", "-1"], 2,
     "error: lam_tilde must be nonnegative, got -1.0"),
    (["gradcheck", "--n", "1"], 2,
     "error: all rows have zero gradient estimates; alignment is undefined"),
    (["gradcheck", "--instances", "0"], 2, "error: instances must be positive, got 0"),
    (["gradcheck", "--instances", "-3"], 2, "error: instances must be positive, got -3"),
    (["stack", "--input-dim", "-1"], 2, "error: input_dim must be positive, got -1"),
    (["randomwalk", "--transition", "periodic.ntt", "--n-samples", "1000"], 1,
     '{"failed_checks": ["power iteration residual 7.408e-07 above tol 1.000e-12 '
     'after 100000 iterations"]}'),
    (["dynamics", "--config", "variant.cfg"], 2,
     "error: variant must be one of softmax, neutreno, got 'bogus'"),
    (["stack", "--config", "variant.cfg"], 2,
     "error: variant must be one of softmax, symmetric, neutreno, got 'bogus'"),
    (["randomwalk", "--config", "kernel.cfg"], 2,
     "error: kernel must be one of symmetric, asymmetric, got 'bogus'"),
])
def test_failed_run_leaves_no_out(tmp_path, monkeypatch, capsys, argv, code, stderr):
    monkeypatch.chdir(tmp_path)
    save_tensor(tmp_path / "periodic.ntt", PERIODIC)
    (tmp_path / "variant.cfg").write_text("variant = bogus\n")
    (tmp_path / "kernel.cfg").write_text("kernel = bogus\n")
    assert main(argv + ["--out", "run"]) == code
    assert capsys.readouterr().err == stderr + "\n"
    assert not (tmp_path / "run").exists()


def subparsers() -> dict:
    [action] = [a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
    return action.choices


# a flag value of each schema type, as typed on the command line
FLAG_TEXT = {int: "7", float: "0.25", str: "in.ntt", "list[float]": "0.2, ,1"}


class TestCommandTable:
    """Each config key is declared once, as its command's schema entry, and
    its flag is derived from it."""

    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    def test_flags_are_the_schema_keys(self, name):
        dests = [action.dest for action in subparsers()[name]._actions
                 if action.dest not in ("help", "config", "out")]
        assert sorted(dests) == sorted(cli.COMMANDS[name][0])

    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    def test_flags_parse_like_config_values(self, name):
        schema = cli.COMMANDS[name][0]
        parser = cli.build_parser()
        assert all(getattr(parser.parse_args([name]), key) is None for key in schema)
        for action in subparsers()[name]._actions:
            if action.dest not in schema:
                continue
            kind = schema[action.dest][0]
            if kind is bool:
                argv, text = [], "true"
            else:
                text = action.choices[-1] if action.choices else FLAG_TEXT[kind]
                argv = [text]
            value = getattr(parser.parse_args([name, action.option_strings[0], *argv]),
                            action.dest)
            expected = coerce(action.dest, text, kind)
            assert value == expected and type(value) is type(expected), action.dest

    def test_lambda_sweep_skips_blank_items(self):
        args = cli.build_parser().parse_args(["stack", "--lambda-sweep", "0.2, ,1"])
        assert args.lambda_sweep == [0.2, 1.0]


def test_cli_import_does_not_load_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, neutreno.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def test_cli_import_does_not_load_the_thread_pool():
    # concurrent.futures is imported only when linalg._in_order starts a
    # pool: a stack command or a walk with two or more allowed CPUs
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, neutreno.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"
