"""Config-driven command line front end.

Subcommands::

    simulate     direct integration -> trajectory CSV + drift summary
    linearize    sampled linear-ODE coefficients and psi(theta) -> CSV
    reconstruct  linearized route -> reconstructed trajectory CSV
    validate     simulate + reconstruct + compatibility residuals -> report

Each takes ``--config <path>`` (or ``--preset <name>``) and ``--out <dir>``.
Exit status: 0 success/pass, 1 validation failure, 2 runtime or domain
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .config import (
    ConfigError,
    PRESETS,
    RunConfig,
    build_spec,
    linearizable_view,
    load_config,
    preset_config,
)
from .integration import IntegratorConfig, integrate_polar, monitor_invariant
from .invariant import invariant_level
from .linearize import build_pipeline, solve_from_state, verify_compatibility
from .numerics import linspace
from .systems import PolarState

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

DRIFT_THRESHOLD = 1e-6
ROUND_TRIP_THRESHOLD = 1e-5
COMPATIBILITY_THRESHOLD = 1e-9


def _write_csv(path: Path, header: list[str], rows) -> None:
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in rows)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _sample_times(cfg: RunConfig, t_end: float) -> list[float]:
    return linspace(cfg.t_span[0], t_end, cfg.samples)


def _direct_run(spec, cfg: RunConfig):
    """The config's direct run, its invariant drift (or the ValueError of a node where ``V``
    has no value), its sample times and its states at them."""
    tolerances = IntegratorConfig(cfg.t_span, cfg.rel_tol, cfg.abs_tol, cfg.max_step)
    traj = integrate_polar(spec, cfg.initial_state, tolerances)
    try:
        drift = monitor_invariant(traj, spec.V)
    except ValueError as exc:
        drift = exc
    times = _sample_times(cfg, traj.t_end)
    return traj, drift, times, traj.sample(times)


def _level_or_nan(r: float, theta: float, thetadot: float, V) -> float:
    try:
        return invariant_level(r, theta, thetadot, V)
    except ValueError:  # V has no value at theta
        return math.nan


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    spec = build_spec(cfg)
    traj, drift, times, states = _direct_run(spec, cfg)
    rows = [
        (t, r, theta, rdot, thetadot, _level_or_nan(r, theta, thetadot, spec.V))
        for t, (r, theta, rdot, thetadot) in zip(times, states)
    ]
    _write_csv(out_dir / "trajectory.csv", ["t", "r", "theta", "rdot", "thetadot", "I"], rows)
    failed = isinstance(drift, ValueError)
    summary = {
        "termination": traj.termination,
        "t_final": traj.t_end,
        "steps": {"accepted": traj.n_accepted, "rejected": traj.n_rejected},
        "events": [{"name": e.name, "t": e.t} for e in traj.events],
        "invariant": {"error": str(drift)} if failed else {
            "initial": drift.reference,
            "drift_max_rel": drift.max_rel,
            "drift_rms_rel": drift.rms_rel,
        },
    }
    _write_json(out_dir / "summary.json", summary)
    if traj.termination != "completed":
        print(f"simulate: stopped early ({traj.termination}); partial output written")
        return EXIT_ERROR
    if failed:
        print(f"simulate: no invariant drift ({drift}); output written")
        return EXIT_ERROR
    print(f"simulate: ok, {traj.n_accepted} steps, invariant drift {drift.max_rel:.3e}")
    return EXIT_OK


def cmd_linearize(cfg: RunConfig, out_dir: Path) -> int:
    span = None if cfg.theta_span is None else (min(cfg.theta_span), max(cfg.theta_span))
    theta0 = cfg.initial_state.theta
    if span is not None and not span[0] <= theta0 <= span[1]:
        raise ConfigError("theta_span", f"{list(span)} excludes the initial angle {theta0!r}")
    sol = solve_from_state(linearizable_view(cfg, build_spec(cfg)), cfg.initial_state, span)
    grid = linspace(*sol.window, cfg.samples)
    rows = [(th, *coefficients) for th, coefficients in zip(grid, sol.coefficients(grid))]
    _write_csv(out_dir / "linear_ode.csv", ["theta", "p2", "p1", "p0", "rhs", "psi"], rows)
    print(f"linearize: ok, {len(grid)} samples on [{grid[0]:.6g}, {grid[-1]:.6g}]")
    return EXIT_OK


def cmd_reconstruct(cfg: RunConfig, out_dir: Path) -> int:
    lin = linearizable_view(cfg, build_spec(cfg))
    pipe = build_pipeline(lin, cfg.initial_state, t_window=cfg.t_span)
    times = _sample_times(cfg, cfg.t_span[1])
    rows = [(t, *point) for t, point in zip(times, pipe.sample(times))]
    _write_csv(out_dir / "reconstructed.csv", ["t", "theta", "r"], rows)
    print(f"reconstruct: ok, {len(rows)} samples over t in {list(cfg.t_span)}")
    return EXIT_OK


def cmd_validate(cfg: RunConfig, out_dir: Path) -> int:
    checks: dict[str, dict] = {}

    lin = linearizable_view(cfg, build_spec(cfg))  # a kind with no linearizable form fails first
    traj, drift, times, sampled = _direct_run(lin, cfg)
    if isinstance(drift, ValueError):
        checks["invariant_drift"] = {"error": str(drift), "pass": False}
    else:
        checks["invariant_drift"] = {
            "max_rel": drift.max_rel,
            "rms_rel": drift.rms_rel,
            "termination": traj.termination,
            "threshold": DRIFT_THRESHOLD,
            "pass": bool(traj.termination == "completed" and drift.max_rel <= DRIFT_THRESHOLD),
        }

    try:
        pipe = build_pipeline(lin, cfg.initial_state, t_window=cfg.t_span)
        r_err = 0.0
        th_err = 0.0
        for (theta, r), row in zip(pipe.sample(times), sampled):
            th_err = max(th_err, abs(theta - row[1]))
            r_err = max(r_err, abs(r - row[0]))
        checks["round_trip"] = {
            "r_sup": r_err,
            "theta_sup": th_err,
            "window": [times[0], times[-1]],
            "threshold": ROUND_TRIP_THRESHOLD,
            "pass": bool(max(r_err, th_err) <= ROUND_TRIP_THRESHOLD),
        }
    except ValueError as exc:
        checks["round_trip"] = {"error": str(exc), "pass": False}

    try:
        residuals = []
        for t, row in zip(times, sampled):
            if abs(row[3]) < 1e-6 or row[0] <= 0.0:
                continue
            state = PolarState(r=row[0], theta=row[1], rdot=row[2], thetadot=row[3], t=t)
            residuals.append(verify_compatibility(lin, state))
            if len(residuals) >= 100:
                break
        max_res = max(residuals) if residuals else math.inf
        checks["compatibility"] = {
            "max_residual": max_res,
            "n_states": len(residuals),
            "threshold": COMPATIBILITY_THRESHOLD,
            "pass": bool(residuals and max_res <= COMPATIBILITY_THRESHOLD),
        }
    except ValueError as exc:
        checks["compatibility"] = {"error": str(exc), "pass": False}

    ok = all(c.get("pass", False) for c in checks.values())
    _write_json(out_dir / "report.json", {"checks": checks, "pass": bool(ok)})
    for name, c in checks.items():
        print(f"validate: {name}: {'pass' if c.get('pass') else 'FAIL'}")
    print(f"validate: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_FAIL


_COMMANDS = {
    "simulate": cmd_simulate,
    "linearize": cmd_linearize,
    "reconstruct": cmd_reconstruct,
    "validate": cmd_validate,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ermakov",
        description="Define, integrate, linearize, and reconstruct generalized Ermakov systems.",
    )
    parser.add_argument("command", choices=list(_COMMANDS), help="what to run")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", type=Path, help="path to a JSON run config")
    group.add_argument("--preset", choices=sorted(PRESETS), help="use a built-in named configuration")
    parser.add_argument("--out", type=Path, required=True, help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = preset_config(args.preset) if args.preset else load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_FAIL
    out_dir: Path = args.out
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_FAIL
    try:
        return _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, MemoryError, OSError) as exc:  # OSError: a result file cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
