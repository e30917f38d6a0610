"""Experiment runner: seeded, file-emitting, byte-reproducible.

Subcommands
-----------
``dynamics``    frozen-transition iteration (plain or anchored), CSV trace
``stack``       multi-layer model over a seed ensemble, CSV per seed + JSON summary
``randomwalk``  stationary-distribution and Monte-Carlo walk checks, JSON report
``gradcheck``   finite-difference gradient checks and identities, JSON report
``tensor``      inspect or convert tensor container files

Exit status: 0 when every requested check passed, 1 with a JSON failure
list on stderr when a check failed, 2 for configuration or I/O errors.
All emitted files are byte-identical across reruns with the same
configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import diagnostics, dynamics, functional, random_walk, stack
from .attention import attention_matrix, exp_score_kernel, symmetric_attention
from .config import ConfigError, coerce, merge_config, read_config_file
from .linalg import _BLOCK_ENTRIES, _allowed_cpus, _in_order, mix_seed, substream
from .tensorfile import TensorFileError, load_tensor, save_tensor

__all__ = ["main", "entry"]

# protocol constant: keeps randomly generated chains fast-mixing
KEY_SCALE = 0.5


# ---------------------------------------------------------------------------
# formatting helpers


def _fmt(x) -> str:
    """Render a float with 17 significant digits (lossless round trip)."""
    return format(float(x), ".17g")


def _csv_bytes(header: list[str], rows) -> bytes:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _trace_csv(index: str, trace, *flags: str) -> bytes:
    """A CSV of ``trace``: the step as column ``index``, then the metric
    columns ``dynamics.METRICS`` and the ``flags`` columns as 0 or 1."""
    columns = [trace.column(name).tolist() for name in dynamics.METRICS]
    columns += [trace.column(name).astype(int).tolist() for name in flags]
    return _csv_bytes([index, *dynamics.METRICS, *flags], zip(range(len(trace)), *columns))


def _final_values(trace, prefix: str = "") -> dict:
    """The metric columns of the last record of ``trace`` as summary keys
    ``<prefix>final_<column>``."""
    final = trace.final
    return {f"{prefix}final_{name}": getattr(final, name) for name in dynamics.METRICS}


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if np.isfinite(f) else repr(f)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(_jsonify(payload), indent=2, sort_keys=True) + "\n").encode("utf-8")


def _write_files(files) -> None:
    """Write each ``(path, bytes)`` of ``files`` in order, stopping at the
    first failure: one plain create, write and close per file.  Their
    directories are made first, so a run makes ``--out`` at its first
    write and a run that fails before it leaves none."""
    for directory in {path.parent for path, _ in files}:
        directory.mkdir(parents=True, exist_ok=True)
    for path, data in files:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            view = memoryview(data)
            while view:  # a write may take only part of the buffer
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)


def _warn_lambda(lam: float) -> None:
    if lam > 1.0:
        print(
            f"warning: lambda_tilde = {lam:g} is above 1.0; the anchored "
            "update can become unstable there",
            file=sys.stderr,
        )


# ---------------------------------------------------------------------------
# per-command schemas: key -> (type, default)

DYNAMICS_SCHEMA = {
    "n": (int, 8),
    "key_dim": (int, 4),
    "dim": (int, 3),
    "steps": (int, 200),
    "variant": (str, "softmax"),
    "lambda_tilde": (float, 0.6),
    "overflow_bound": (float, dynamics.DEFAULT_OVERFLOW_BOUND),
    "tokens_path": (str, ""),
    "seed": (int, 0),
}

STACK_SCHEMA = {
    "layers": (int, 12),
    "n": (int, 16),
    "input_dim": (int, 8),
    "key_dim": (int, 8),
    "value_dim": (int, 8),
    "variant": (str, "neutreno"),
    "lambda_tilde": (float, 0.6),
    "residual": (bool, False),
    "init_scale": (float, 1.0),
    "n_seeds": (int, 50),
    "lambda_sweep": ("list[float]", []),
    "expect_separation": (float, -1.0),
    "seed": (int, 0),
}

RANDOMWALK_SCHEMA = {
    "n": (int, 6),
    "key_dim": (int, 4),
    "dim": (int, 3),
    "kernel": (str, "symmetric"),
    "walk_steps": (int, 3),
    "n_samples": (int, 200_000),
    "start": (int, 0),
    "limit_steps": (int, 200),
    "keys_path": (str, ""),
    "transition_path": (str, ""),
    "seed": (int, 0),
    "tol": (float, 1e-8),
}

GRADCHECK_SCHEMA = {
    "n": (int, 6),
    "dim": (int, 3),
    "key_dim": (int, 4),
    "instances": (int, 50),
    "symmetric": (bool, False),
    "seed": (int, 0),
    "tol": (float, 1e-5),
}


def _resolve(schema: dict, args: argparse.Namespace) -> dict:
    file_values = read_config_file(args.config) if args.config else {}
    return merge_config(schema, file_values, {key: getattr(args, key) for key in schema})


def _require_positive(cfg: dict, *keys: str) -> None:
    for key in keys:
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be positive, got {cfg[key]}")


def _load_matrix(path: str, kind: str) -> np.ndarray:
    """The tensor in file ``path``, which must be 2-D with at least one row
    and one column; ``kind`` names the file in the error."""
    a = load_tensor(path)
    if a.ndim != 2:
        raise ConfigError(f"{kind} file must be 2-D, got shape {a.shape}")
    if not a.shape[0]:
        raise ConfigError(f"{kind} file has no rows, got shape {a.shape}")
    if not a.shape[1]:
        raise ConfigError(f"{kind} file has no columns, got shape {a.shape}")
    return a


# ---------------------------------------------------------------------------
# dynamics


def cmd_dynamics(cfg, out: Path) -> list[str]:
    if cfg["tokens_path"]:
        v0 = _load_matrix(cfg["tokens_path"], "tokens")
        n = v0.shape[0]
    else:
        _require_positive(cfg, "n", "dim")
        n = cfg["n"]
        v0 = substream(cfg["seed"], 1).normal(size=(n, cfg["dim"]))
    keys = substream(cfg["seed"], 0).normal(scale=KEY_SCALE, size=(n, cfg["key_dim"]))
    transition = attention_matrix(keys, keys)

    if cfg["variant"] == "neutreno":
        trace = dynamics.run_neutreno_dynamics(
            v0, v0, transition, cfg["lambda_tilde"], cfg["steps"],
            overflow_bound=cfg["overflow_bound"],
        )
        _warn_lambda(cfg["lambda_tilde"])  # after the run, so a bad value prints only its error
    else:
        trace = dynamics.run_plain_dynamics(
            v0, transition, cfg["steps"], overflow_bound=cfg["overflow_bound"]
        )

    path = out / "dynamics.csv"
    _write_and_print([(path, _trace_csv("step", trace, "diverged"))],
                     f"wrote {path} ({len(trace)} rows)")
    if trace.diverged:
        return [f"dynamics diverged at step {trace.column('diverged').argmax()}"]
    return []


# ---------------------------------------------------------------------------
# stack


def _stack_traces(model, variant: str, lam: float, x0) -> list:
    """Every unit's trace as ``variant`` at anchor weight ``lam``, from one
    batched pass."""
    change = {"variant": variant}
    if variant == "neutreno":
        change["lambda_tilde"] = lam
    return stack.forward(replace(model, config=replace(model.config, **change)), x0)[1]


def cmd_stack(cfg, out: Path) -> list[str]:
    _require_positive(cfg, "n_seeds", "n")
    config = stack.StackConfig(
        layers=cfg["layers"],
        input_dim=cfg["input_dim"],
        key_dim=cfg["key_dim"],
        value_dim=cfg["value_dim"],
        residual=cfg["residual"],
        init_scale=cfg["init_scale"],
    )

    # each unit's input and weights are drawn once, unit u's weights from
    # mix_seed(seed, u, 0); every variant, so every pass, shares them
    units = range(cfg["n_seeds"])
    x0 = np.stack([substream(cfg["seed"], unit, 1).normal(size=(cfg["n"], cfg["input_dim"]))
                   for unit in units])
    model = stack.init_stack(config, [mix_seed(cfg["seed"], unit, 0) for unit in units])

    sweep = cfg["lambda_sweep"] or [cfg["lambda_tilde"]]
    if cfg["variant"] == "neutreno":  # the only variant that reads the anchor weight
        for lam in dict.fromkeys(sweep):
            _warn_lambda(lam)
    compare = cfg["variant"] != "softmax"
    # the (variant, anchor weight) of the baseline pass, then one per anchor weight
    pairs = [("softmax", 0.0)] + ([(cfg["variant"], lam) for lam in sweep] if compare else [])
    # with two or more allowed CPUs, a pool computes the passes while the
    # calling thread writes the results that have arrived: one thread per
    # allowed CPU once a pass's score stack holds _BLOCK_ENTRIES entries,
    # and one thread below that, where numpy's calls are too short to
    # release the GIL for long; the passes share no mutable state, so they
    # keep the bits of a sequential run
    cpus = _allowed_cpus()
    wide = x0.shape[0] * x0.shape[1] ** 2 >= _BLOCK_ENTRIES
    threads = 0 if cpus < 2 else min(len(pairs), cpus) if wide else 1
    with _in_order(lambda pair: _stack_traces(model, *pair, x0), pairs, threads) as passes:
        return _write_stack(cfg, out, sweep, compare, passes)


def _write_and_print(files, line=None) -> None:
    _write_files(files)
    if line is not None:
        print(line)


def _write_stack(cfg, out: Path, sweep, compare: bool, passes) -> list[str]:
    """Write the baseline pass of ``passes``, then one summary per anchor
    weight of ``sweep``, taking each compared pass as it arrives; return
    the failed checks."""
    baseline_traces = next(passes)
    _write_and_print([(out / f"stack_softmax_seed{unit}.csv", _trace_csv("layer", trace))
                      for unit, trace in enumerate(baseline_traces)])
    baseline_finals = [_final_values(trace, "baseline_") for trace in baseline_traces]

    failures = []
    for lam in sweep:
        per_seed = []
        csvs = []
        wins = 0
        traces = next(passes) if compare else None
        for unit in range(cfg["n_seeds"]):
            seed_record = {"seed_index": unit, **baseline_finals[unit]}
            if compare:
                trace = traces[unit]
                tag = f"lambda{lam:g}_" if len(sweep) > 1 else ""
                path = out / f"stack_{cfg['variant']}_{tag}seed{unit}.csv"
                csvs.append((path, _trace_csv("layer", trace)))
                seed_record.update(_final_values(trace))
                if trace.final.mean_cosine < baseline_traces[unit].final.mean_cosine:
                    wins += 1
            per_seed.append(seed_record)
        if compare:
            _write_and_print(csvs)

        echo_keys = set(STACK_SCHEMA) - {"lambda_sweep", "lambda_tilde", "expect_separation"}
        summary = {
            "config": {k: cfg[k] for k in sorted(echo_keys)},
            "lambda_tilde": lam,
            "n_seeds": cfg["n_seeds"],
            "per_seed": per_seed,
            "fraction_below_baseline": (wins / cfg["n_seeds"]) if compare else None,
        }
        name = f"summary_lambda{lam:g}.json" if len(sweep) > 1 else "summary.json"
        _write_and_print([(out / name, _json_bytes(summary))], f"wrote {out / name}")
        if compare and cfg["expect_separation"] >= 0:
            frac = wins / cfg["n_seeds"]
            if frac < cfg["expect_separation"]:
                failures.append(
                    f"separation fraction {frac:.3f} below expected "
                    f"{cfg['expect_separation']:.3f} at lambda_tilde={lam:g}"
                )
    return failures


# ---------------------------------------------------------------------------
# randomwalk


def cmd_randomwalk(cfg, out: Path) -> list[str]:
    if not (cfg["keys_path"] or cfg["transition_path"]):
        _require_positive(cfg, "n")
    _require_positive(cfg, "dim")

    keys = None
    if cfg["transition_path"]:
        transition = load_tensor(cfg["transition_path"])
        if not random_walk.is_transition_matrix(transition):
            raise ConfigError("supplied transition matrix is not row-stochastic positive")
        n = transition.shape[0]
        symmetric_kernel = False
    else:
        if cfg["keys_path"]:
            keys = _load_matrix(cfg["keys_path"], "keys")
        else:
            keys = substream(cfg["seed"], 0).normal(
                scale=KEY_SCALE, size=(cfg["n"], cfg["key_dim"])
            )
        n = keys.shape[0]
        if cfg["kernel"] == "asymmetric":
            queries = substream(cfg["seed"], 2).normal(scale=KEY_SCALE, size=keys.shape)
            transition = attention_matrix(queries, keys)
            symmetric_kernel = False
        else:
            transition = attention_matrix(keys, keys)
            symmetric_kernel = True

    v0 = substream(cfg["seed"], 1).normal(size=(n, cfg["dim"]))
    # the walk and the iterations check the start, the sample count and the
    # steps, so a bad value is an error even for a chain that does not converge
    k = cfg["walk_steps"]
    stats = random_walk.walk_sample_stats(
        v0, transition, k, cfg["start"], cfg["n_samples"], cfg["seed"]
    )
    expected = random_walk.iterate_state(v0, transition, k)[cfg["start"]]
    final = random_walk.iterate_state(v0, transition, cfg["limit_steps"])

    try:
        pi_power = random_walk.stationary_power_iteration(transition, tol=1e-12)
    except random_walk.ConvergenceError as exc:
        return [str(exc)]
    failures = []
    residual_power = float(np.abs(pi_power @ transition - pi_power).sum())

    stationary = {
        "power_iteration": pi_power,
        "residual_l1_power_iteration": residual_power,
        "closed_form": None,
        "residual_l1_closed_form": None,
        "agreement_max_abs_diff": None,
    }
    if symmetric_kernel:
        pi_closed = random_walk.stationary_closed_form(keys)
        residual_closed = float(np.abs(pi_closed @ transition - pi_closed).sum())
        agreement = float(np.abs(pi_closed - pi_power).max())
        stationary.update({
            "closed_form": pi_closed,
            "residual_l1_closed_form": residual_closed,
            "agreement_max_abs_diff": agreement,
        })
        if residual_closed > 1e-10:
            failures.append(
                f"closed-form stationary residual {residual_closed:.3e} above 1e-10"
            )
        if agreement > 1e-9:
            failures.append(
                f"stationary methods disagree by {agreement:.3e} (above 1e-9)"
            )

    deviation = np.abs(stats.mean - expected)
    band = 4.0 * stats.stderr
    within = bool(np.all(deviation <= band))
    if not within:
        failures.append("Monte-Carlo walk mean outside the 4-standard-error band")

    limit = random_walk.limit_vector(pi_power, v0)
    limit_distance = float(np.abs(final - limit[None, :]).max())
    if limit_distance > cfg["tol"]:
        failures.append(
            f"limit distance {limit_distance:.3e} above tol {cfg['tol']:.3e} "
            f"after {cfg['limit_steps']} steps"
        )

    report = {
        "config": cfg,
        "n_states": n,
        "stationary": stationary,
        "walk_check": {
            "steps": k,
            "start": cfg["start"],
            "n_samples": cfg["n_samples"],
            "mc_mean": stats.mean,
            "expected": expected,
            "deviation": deviation,
            "band_4_stderr": band,
            "within_band": within,
        },
        "limit": {
            "steps": cfg["limit_steps"],
            "max_row_distance": limit_distance,
            "tol": cfg["tol"],
            "converged": limit_distance <= cfg["tol"],
        },
        "passed": not failures,
        "failed_checks": failures,
    }
    path = out / "randomwalk.json"
    _write_and_print([(path, _json_bytes(report))], f"wrote {path}")
    return failures


# ---------------------------------------------------------------------------
# gradcheck


def _rel_error(analytic: np.ndarray, estimate: np.ndarray) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(estimate)))
    return float((np.abs(analytic - estimate) / denom).max())


def cmd_gradcheck(cfg, out: Path) -> list[str]:
    _require_positive(cfg, "n", "dim", "instances")

    worst_j = 0.0
    worst_g = 0.0
    worst_identity = 0.0
    for inst in range(cfg["instances"]):
        rng = substream(cfg["seed"], inst)
        u = rng.normal(size=(cfg["n"], cfg["dim"]))
        keys = rng.normal(scale=KEY_SCALE, size=(cfg["n"], cfg["key_dim"]))
        queries = keys if cfg["symmetric"] else rng.normal(
            scale=KEY_SCALE, size=(cfg["n"], cfg["key_dim"])
        )
        anchor = rng.normal(size=(cfg["n"], cfg["dim"]))
        lam = float(rng.uniform(0.1, 2.0))
        weights = exp_score_kernel(queries, keys)

        analytic_j = functional.nonlocal_energy_grad(u, weights)
        analytic_g = functional.fidelity_grad(u, anchor, lam)
        err_j = min(
            _rel_error(analytic_j, functional.central_difference_grad(
                lambda t: functional.nonlocal_energy(t, weights), u, h))
            for h in (1e-4, 1e-5)
        )
        err_g = min(
            _rel_error(analytic_g, functional.central_difference_grad(
                lambda t: functional.fidelity_energy(t, anchor, lam), u, h))
            for h in (1e-4, 1e-5)
        )
        worst_j = max(worst_j, err_j)
        worst_g = max(worst_g, err_g)

        sym_kernel = exp_score_kernel(keys, keys)
        identity = float(np.abs(
            functional.smoothing_step(u, sym_kernel) - symmetric_attention(keys, u)
        ).max())
        worst_identity = max(worst_identity, identity)

    rng = substream(cfg["seed"], cfg["instances"])
    values = rng.normal(size=(cfg["n"], cfg["dim"]))
    keys = rng.normal(scale=KEY_SCALE, size=(cfg["n"], cfg["key_dim"]))
    queries = keys if cfg["symmetric"] else rng.normal(
        scale=KEY_SCALE, size=(cfg["n"], cfg["key_dim"])
    )
    alignment = diagnostics.grad_alignment(values, queries, keys)

    failures = []
    if worst_j > cfg["tol"]:
        failures.append(f"nonlocal gradient max relative error {worst_j:.3e} above {cfg['tol']:.0e}")
    if worst_g > cfg["tol"]:
        failures.append(f"fidelity gradient max relative error {worst_g:.3e} above {cfg['tol']:.0e}")
    if worst_identity > 1e-12:
        failures.append(f"smoothing/attention identity residual {worst_identity:.3e} above 1e-12")

    report = {
        "config": cfg,
        "nonlocal_grad_max_rel_error": worst_j,
        "fidelity_grad_max_rel_error": worst_g,
        "smoothing_identity_max_abs_residual": worst_identity,
        "alignment": {
            "mean_cosine": alignment.mean_cosine_alignment,
            "skipped_rows": alignment.skipped_rows,
        },
        "passed": not failures,
        "failed_checks": failures,
    }
    path = out / "gradcheck.json"
    _write_and_print([(path, _json_bytes(report))], f"wrote {path}")
    return failures


# ---------------------------------------------------------------------------
# tensor


def cmd_tensor(args) -> int:
    if args.tensor_action == "inspect":
        a = load_tensor(args.path)
        info = {
            "shape": list(a.shape),
            "rank": a.ndim,
            "count": int(a.size),
            "min": float(a.min()) if a.size else None,
            "max": float(a.max()) if a.size else None,
            "mean": float(a.mean()) if a.size else None,
        }
        print(json.dumps(_jsonify(info), indent=2, sort_keys=True))
        return 0

    src, dst = Path(args.src), Path(args.dst)
    if src.suffix == ".csv":
        rows = [
            [float(cell) for cell in line.split(",")]
            for line in src.read_text(encoding="utf-8").strip().splitlines()
        ]
        save_tensor(dst, np.array(rows, dtype=np.float64))
    else:
        a = load_tensor(src)
        if a.ndim == 1:
            a = a[None, :]
        if a.ndim != 2:
            raise ConfigError(f"can only convert rank-1/2 tensors to CSV, got rank {a.ndim}")
        lines = [",".join(_fmt(v) for v in row) for row in a]
        dst.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    print(f"wrote {dst}")
    return 0


# ---------------------------------------------------------------------------
# wiring


# name -> (schema, run(cfg, out) -> failed checks, help, argparse extras by key);
# every other flag is derived from the schema by _add_flag
COMMANDS = {
    "dynamics": (DYNAMICS_SCHEMA, cmd_dynamics, "frozen-transition token dynamics", {
        "variant": {"choices": ["softmax", "neutreno"]},
        "tokens_path": {"help": "tensor file with the initial tokens"},
    }),
    "stack": (STACK_SCHEMA, cmd_stack, "multi-layer model over a seed ensemble", {
        "variant": {"choices": list(stack.VARIANTS)},
        "lambda_sweep": {"help": "comma-separated lambda values, one summary each"},
        "expect_separation": {
            "help": "fail unless the variant beats the baseline on this seed fraction"},
    }),
    "randomwalk": (RANDOMWALK_SCHEMA, cmd_randomwalk, "stationary distribution and walk checks", {
        "kernel": {"choices": ["symmetric", "asymmetric"]},
        "keys_path": {"help": "tensor file with key vectors"},
        "transition_path": {"help": "tensor file with an explicit transition matrix"},
    }),
    "gradcheck": (GRADCHECK_SCHEMA, cmd_gradcheck, "gradient and identity verification", {}),
}


def _add_flag(parser: argparse.ArgumentParser, schema: dict, key: str, **extra) -> None:
    """Add ``--key-name`` (``--x`` for a file path ``x_path``) with ``dest``
    ``key``, parsed as a config file value of ``key``'s schema type.  It
    defaults to ``None``, so an absent flag leaves the file or the default."""
    kind = schema[key][0]
    if kind is bool:
        extra.update(action="store_const", const=True)
    else:  # a lambda, so that argparse names the list type "<lambda>"
        extra["type"] = kind if isinstance(kind, type) else (lambda text: coerce(key, text, kind))
    flag = "--" + key.removesuffix("_path").replace("_", "-")
    parser.add_argument(flag, dest=key, default=None, **extra)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neutreno",
        description="attention-as-smoothing numerical laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (schema, _, help_text, extras) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="flat key=value config file")
        _add_flag(p, schema, "seed", help="master seed")
        p.add_argument("--out", default="out", help="output directory")
        if "tol" in schema:
            _add_flag(p, schema, "tol", help="primary check tolerance")
        for key in schema:
            if key not in ("seed", "tol"):
                _add_flag(p, schema, key, **extras.get(key, {}))

    p = sub.add_parser("tensor", help="inspect or convert tensor files")
    tensor_sub = p.add_subparsers(dest="tensor_action", required=True)
    pi = tensor_sub.add_parser("inspect", help="print shape and summary stats")
    pi.add_argument("path")
    pc = tensor_sub.add_parser("convert", help="convert tensor file <-> csv")
    pc.add_argument("src")
    pc.add_argument("dst")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "tensor":
            return cmd_tensor(args)
        schema, run, _, extras = COMMANDS[args.command]
        cfg = _resolve(schema, args)
        # a config file value skips argparse's choices
        for key, extra in extras.items():
            if "choices" in extra and cfg[key] not in extra["choices"]:
                raise ConfigError(
                    f"{key} must be one of {', '.join(extra['choices'])}, got {cfg[key]!r}")
        failures = run(cfg, Path(args.out))
        if failures:
            print(json.dumps({"failed_checks": failures}), file=sys.stderr)
            return 1
        return 0
    except (ConfigError, TensorFileError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
