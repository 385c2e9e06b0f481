"""Seeded run configs for the benchmark workloads.

Every op is one CLI command on one config that no other op shares, so the
spec-keyed caches of the program start cold for each op, as they do for a
user who runs the CLI once per config.  Only config shapes that README
documents are drawn; parameter ranges are chosen so that every op is
expected to succeed, and an op that does not is still run and counted.

The property that sets an op's cost (``samples`` and the time span) follows
a Weyl sequence whose phase comes from the seed: any run of consecutive ops
covers the cost range almost evenly, so medians stay comparable between
seeds while the configs themselves differ.  The other parameters are drawn
independently per op.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# irrational steps for the Weyl sequences, one per cost dimension
_STEPS = ((math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0)


@dataclass(frozen=True)
class Op:
    index: int
    command: str
    family: str
    config: dict


class _Draw:
    """Per-op random stream plus the op's position in the cost sequences."""

    def __init__(self, workload: str, seed: int, index: int, phases: tuple[float, float]):
        self.rng = random.Random(f"{workload}:{seed}:{index}")
        self.cost = tuple((p + index * s) % 1.0 for p, s in zip(phases, _STEPS))

    def uniform(self, lo: float, hi: float) -> float:
        return self.rng.uniform(lo, hi)

    def spread(self, dim: int, lo: float, hi: float) -> float:
        return lo + self.cost[dim] * (hi - lo)

    def count(self, dim: int, lo: int, hi: int) -> int:
        return lo + min(int(self.cost[dim] * (hi - lo + 1)), hi - lo)


def _polar_state(d: _Draw, r, theta, rdot, thetadot) -> dict:
    return {
        "coords": "polar",
        "r": d.uniform(*r),
        "theta": d.uniform(*theta),
        "rdot": d.uniform(*rdot),
        "thetadot": d.uniform(*thetadot),
    }


def _tolerances(d: _Draw) -> dict:
    rel = 10.0 ** d.uniform(-10.0, -9.0)
    return {"rel_tol": rel, "abs_tol": rel * 1e-3}


def winternitz(d: _Draw, t_end: float, samples: int) -> dict:
    return {
        "system": {
            "kind": "winternitz",
            "params": {
                "mu0": d.uniform(0.8, 1.2),
                "g1": d.uniform(0.6, 1.2),
                "g2": d.uniform(0.2, 0.6),
                "g3": d.uniform(0.8, 1.2),
            },
        },
        "initial_state": _polar_state(d, (0.9, 1.1), (1.35, 1.55), (-0.1, 0.1), (1.8, 2.2)),
        "t_span": [0.0, t_end],
        "tolerances": _tolerances(d),
        "samples": samples,
    }


def kepler(d: _Draw, t_end: float, samples: int) -> dict:
    return {
        "system": {
            "kind": "kepler",
            "functions": {"F": "f0 + f1*cos(theta)^2", "G": "g0", "V": "v0*cos(theta)^2"},
            "params": {
                "f0": d.uniform(0.2, 0.6),
                "f1": d.uniform(0.0, 0.3),
                "g0": d.uniform(0.8, 1.2),
                "v0": d.uniform(0.1, 0.4),
            },
        },
        "initial_state": _polar_state(d, (0.9, 1.1), (0.9, 1.2), (-0.1, 0.1), (1.1, 1.5)),
        "t_span": [0.0, t_end],
        "tolerances": _tolerances(d),
        "samples": samples,
    }


def polar(d: _Draw, t_end: float, samples: int) -> dict:
    return {
        "system": {
            "kind": "polar",
            "functions": {"F": "f0", "V": "v0*sin(theta)^2", "omega2": "w0 + w1*sin(t)"},
            "params": {
                "f0": d.uniform(0.2, 0.6),
                "v0": d.uniform(0.1, 0.4),
                "w0": d.uniform(0.8, 1.2),
                "w1": d.uniform(0.0, 0.3),
            },
        },
        "initial_state": _polar_state(d, (0.9, 1.1), (0.9, 1.2), (-0.1, 0.1), (1.1, 1.5)),
        "t_span": [0.0, t_end],
        "tolerances": _tolerances(d),
        "samples": samples,
    }


def linearizable(d: _Draw, t_end: float, samples: int) -> dict:
    """The six-function family with a time-dependent scale rho = 1 + a t^2."""
    return {
        "system": {
            "kind": "linearizable",
            "functions": {
                "rho": "1 + a*t^2",
                "A": "sin(theta)",
                "B": "L",
                "C": "c0",
                "F": "0",
                "V": "v0*sin(theta)^2",
            },
            "params": {
                "a": d.uniform(0.05, 0.15),
                "c0": d.uniform(0.6, 1.0),
                "v0": d.uniform(0.2, 0.4),
            },
        },
        "initial_state": _polar_state(d, (1.0, 1.1), (0.9, 1.1), (0.05, 0.2), (1.2, 1.4)),
        "t_span": [0.0, t_end],
        "tolerances": _tolerances(d),
        "samples": samples,
    }


def free_motion(d: _Draw, t_end: float, samples: int) -> dict:
    """Free-motion class: V(theta) = U(tan theta) is quadrature-backed."""
    rho = "1" if d.rng.random() < 0.5 else "1 + b*t"
    params = {"c": d.uniform(0.3, 0.7)}
    if rho != "1":
        params["b"] = d.uniform(0.05, 0.2)
    return {
        "system": {"kind": "free_motion", "functions": {"f": "c*u", "rho": rho}, "params": params},
        "initial_state": _polar_state(d, (0.95, 1.05), (0.74, 0.8), (-0.25, -0.15), (0.95, 1.1)),
        "t_span": [0.0, t_end],
        "tolerances": _tolerances(d),
        "samples": samples,
    }


def _direct(d: _Draw, i: int) -> Op:
    family = ("winternitz", "kepler", "polar", "linearizable")[i % 4]
    samples = d.count(0, 50, 400)
    t_end = d.spread(1, 2.0, 10.0) if family != "linearizable" else d.spread(1, 1.0, 1.3)
    return Op(i, "simulate", family, FAMILIES[family](d, t_end, samples))


def _reconstruct(d: _Draw, i: int) -> Op:
    family = ("winternitz", "kepler")[i % 2]
    samples = d.count(0, 6, 14)
    t_end = d.spread(1, 1.5, 3.0) if family == "winternitz" else d.spread(1, 1.0, 2.0)
    return Op(i, "reconstruct", family, FAMILIES[family](d, t_end, samples))


def _mixed(d: _Draw, i: int) -> Op:
    command = ("linearize", "validate")[i % 2]
    family = ("linearizable", "free_motion")[(i // 2) % 2]
    # per-kind sizes that give the four kinds of op about the same cost, so
    # the median does not fall in a gap between clusters
    lo, hi = {
        ("linearize", "linearizable"): (200, 600),
        ("linearize", "free_motion"): (400, 800),
        ("validate", "linearizable"): (10, 20),
        ("validate", "free_motion"): (6, 10),
    }[command, family]
    samples = d.count(0, lo, hi)
    t_end = d.spread(1, 1.0, 1.3) if family == "linearizable" else d.spread(1, 0.1, 0.15)
    return Op(i, command, family, FAMILIES[family](d, t_end, samples))


FAMILIES = {
    "winternitz": winternitz,
    "kepler": kepler,
    "polar": polar,
    "linearizable": linearizable,
    "free_motion": free_motion,
}

# The highest percentile with at least ten ops beyond it, at the op count a
# run of this benchmark's length reaches on each workload.
TAIL_PERCENTILE = {"direct": 95, "reconstruct": 70, "validate-mixed": 75}

WORKLOADS = {
    "direct": _direct,
    "reconstruct": _reconstruct,
    "validate-mixed": _mixed,
}


def ops(workload: str, seed: int):
    """Endless, reproducible stream of ops for one workload and seed."""
    make = WORKLOADS[workload]
    phase_rng = random.Random(f"{workload}:{seed}:phase")
    phases = (phase_rng.random(), phase_rng.random())
    i = 0
    while True:
        yield make(_Draw(workload, seed, i, phases), i)
        i += 1
