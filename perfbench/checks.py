"""Correctness checks for one op's outputs, run outside the timed region.

The oracles here do not use the package: potentials are closed forms written
from the config's own parameters, and reconstructed trajectories are compared
with a tight-tolerance scipy integration of the equations of motion.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

DRIFT_MAX = 1e-6  # summary.json invariant drift (README acceptance criterion 1)
RECONSTRUCT_TOL = 1e-5  # reconstructed (theta, r) against the oracle (criterion 4)
P2_TOL = 1e-8  # p2 = 2 (I - V), relative to 1 + |p2|
AFFINE_TOL = 1e-8  # free-motion psi against its straight-line fit (criterion 5)

_HEADERS = {
    "simulate": ["t", "r", "theta", "rdot", "thetadot", "I"],
    "linearize": ["theta", "p2", "p1", "p0", "rhs", "psi"],
    "reconstruct": ["t", "theta", "r"],
}
_FILES = {
    "simulate": "trajectory.csv",
    "linearize": "linear_ode.csv",
    "reconstruct": "reconstructed.csv",
}


class CheckFailed(Exception):
    pass


def _potential(family: str, p: dict):
    """V(theta) and dV/dtheta for the families the workloads draw."""
    if family == "winternitz":
        def v(th):
            return (p["g1"] + p["g2"] * math.cos(th)) / math.sin(th) ** 2

        def dv(th):
            s, c = math.sin(th), math.cos(th)
            return (-p["g2"] * s * s - 2.0 * (p["g1"] + p["g2"] * c) * c) / s**3

        return v, dv
    if family == "kepler":
        return (lambda th: p["v0"] * math.cos(th) ** 2), (lambda th: -p["v0"] * math.sin(2.0 * th))
    if family == "linearizable":
        return (lambda th: p["v0"] * math.sin(th) ** 2), (lambda th: p["v0"] * math.sin(2.0 * th))
    if family == "free_motion":
        # f(u) = c u, g(v) = -c / v: U(w) = c (w^2 - 1) / 2 + c ln w at w = tan(theta)
        def v(th):
            w = math.tan(th)
            return p["c"] * (0.5 * (w * w - 1.0) + math.log(w))

        return v, None
    raise CheckFailed(f"no closed-form potential for family {family!r}")


def _kepler_forces(family: str, p: dict):
    """Radial coupling F(theta) and attraction G of a Kepler-Ermakov family."""
    if family == "winternitz":
        v, _ = _potential(family, p)
        return (lambda th: 2.0 * (v(th) + p["g3"])), p["mu0"]
    if family == "kepler":
        return (lambda th: p["f0"] + p["f1"] * math.cos(th) ** 2), p["g0"]
    raise CheckFailed(f"no reconstruct oracle for family {family!r}")


def _read_csv(path: Path, header: list[str], rows: int) -> np.ndarray:
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    if table[0] != header:
        raise CheckFailed(f"{path.name}: header {table[0]} != {header}")
    if len(table) - 1 != rows:
        raise CheckFailed(f"{path.name}: {len(table) - 1} rows, expected {rows}")
    return np.array([[float(x) for x in row] for row in table[1:]])


def _check_simulate(config: dict, out: Path) -> None:
    _read_csv(out / "trajectory.csv", _HEADERS["simulate"], config["samples"])
    summary = json.loads((out / "summary.json").read_text())
    if summary["termination"] != "completed":
        raise CheckFailed(f"termination {summary['termination']!r}")
    drift = summary["invariant"]["drift_max_rel"]
    if not drift <= DRIFT_MAX:
        raise CheckFailed(f"invariant drift {drift!r} > {DRIFT_MAX}")


def _check_reconstruct(family: str, config: dict, out: Path) -> None:
    data = _read_csv(out / "reconstructed.csv", _HEADERS["reconstruct"], config["samples"])
    p = config["system"]["params"]
    _, dv = _potential(family, p)
    force, attraction = _kepler_forces(family, p)

    def rhs(t, y):
        r, th, rd, thd = y
        rdd = r * thd * thd + force(th) / r**3 - attraction / (r * r)
        thdd = (-dv(th) / r**3 - 2.0 * rd * thd) / r
        return [rd, thd, rdd, thdd]

    s = config["initial_state"]
    t0, t1 = config["t_span"]
    sol = solve_ivp(
        rhs, (t0, t1), [s["r"], s["theta"], s["rdot"], s["thetadot"]],
        method="DOP853", rtol=1e-12, atol=1e-12, dense_output=True,
    )
    if not sol.success:
        raise CheckFailed(f"oracle integration failed: {sol.message}")
    times = np.linspace(t0, t1, config["samples"])
    if not np.array_equal(data[:, 0], times):
        raise CheckFailed("time column differs from the requested sample grid")
    ref = sol.sol(times)
    err = max(np.max(np.abs(data[:, 1] - ref[1])), np.max(np.abs(data[:, 2] - ref[0])))
    if not err <= RECONSTRUCT_TOL:
        raise CheckFailed(f"reconstruction differs from the oracle by {err:.3e}")


def _check_linearize(family: str, config: dict, out: Path) -> None:
    data = _read_csv(out / "linear_ode.csv", _HEADERS["linearize"], config["samples"])
    v, _ = _potential(family, config["system"]["params"])
    s = config["initial_state"]
    level = 0.5 * (s["r"] ** 2 * s["thetadot"]) ** 2 + v(s["theta"])
    expected = np.array([2.0 * (level - v(th)) for th in data[:, 0]])
    err = np.max(np.abs(data[:, 1] - expected) / (1.0 + np.abs(expected)))
    if not err <= P2_TOL:
        raise CheckFailed(f"p2 differs from 2 (I - V) by {err:.3e} (relative)")
    if family == "free_motion":
        theta, psi = data[:, 0], data[:, 5]
        resid = np.max(np.abs(np.polyval(np.polyfit(theta, psi, 1), theta) - psi))
        if not resid <= AFFINE_TOL:
            raise CheckFailed(f"free-motion psi is not affine: residual {resid:.3e}")


def _check_validate(out: Path) -> None:
    report = json.loads((out / "report.json").read_text())
    if report.get("pass") is not True:
        failing = [k for k, c in report.get("checks", {}).items() if not c.get("pass")]
        raise CheckFailed(f"report.json does not pass: {failing}")


def check_op(command: str, family: str, config: dict, exit_code, out: Path) -> str | None:
    """None when the op's outputs are correct, else the reason they are not."""
    if exit_code != 0:
        return f"exit code {exit_code!r}"
    try:
        if command == "simulate":
            _check_simulate(config, out)
        elif command == "reconstruct":
            _check_reconstruct(family, config, out)
        elif command == "linearize":
            _check_linearize(family, config, out)
        elif command == "validate":
            _check_validate(out)
        else:
            raise CheckFailed(f"unknown command {command!r}")
    except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def output_digest(out: Path) -> dict[str, str]:
    """SHA-256 of every file an op wrote, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }
