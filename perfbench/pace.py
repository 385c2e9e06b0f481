"""Host-speed reference for the timed metrics.

The benchmark shares its CPUs with other tenants, and their load changes the
speed of this process by up to about 1.6x from one minute to the next: a run
of raw wall-clock latencies then measures the neighbours as much as the
program.  A fixed reference job, run between ops, measures the host's speed
at that moment.  Each op's wall time is scaled by ``REFERENCE_S`` over the
reference job's time around it, giving seconds at a fixed host speed.

The job does the kinds of work the program does (recursive Python
evaluation of a small expression tree, scipy quadrature over a Python
callback, small numpy products), so it slows down with the same
neighbours.  It is part of the benchmark, not of the program, so no change
to the program can move it.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.integrate import quad

# Reference-job time that defines the reference host speed.  On the 2-vCPU
# Intel Xeon host the benchmark was written on, one job took 0.016 s to
# 0.035 s depending on the neighbours' load.
REFERENCE_S = 0.02
# Longest wall-clock gap between two reference jobs during a timed loop.
EVERY_S = 0.25

_TREE = ("+", ("*", "x", 2.0), ("s", ("*", "x", "x"), 1.0))


def _tree(node, env):
    if type(node) is float:
        return node
    if type(node) is str:
        return env[node]
    op, a, b = node
    x, y = _tree(a, env), _tree(b, env)
    if op == "+":
        return x + y
    if op == "*":
        return x * y
    return math.sin(x) + y


def reference_job() -> float:
    """Wall time of one fixed unit of interpreter, scipy and numpy work."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(6000):
        acc += _tree(_TREE, {"x": i * 1e-3})
    for _ in range(60):
        acc += quad(lambda x: _tree(_TREE, {"x": x}), 0.0, 1.0)[0]
    m = np.eye(4)
    v = np.ones(4)
    for i in range(3000):
        v = m @ v + 1e-3 * np.array([1.0, i, 2.0, 3.0])
    if not math.isfinite(acc + float(v.sum())):
        raise ArithmeticError("reference job produced a non-finite value")
    return time.perf_counter() - t0


class Pace:
    """Reference-job times along a run, and the scale they give an interval."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []
        self.sample()

    def sample(self) -> int:
        """Run the reference job now; returns its mark index."""
        self.marks.append((time.perf_counter(), reference_job()))
        return len(self.marks) - 1

    def due(self) -> bool:
        return time.perf_counter() - self.marks[-1][0] >= EVERY_S

    def scale(self, before: int, after: int) -> float:
        """Factor from wall seconds to reference seconds between two marks."""
        pace = 0.5 * (self.marks[before][1] + self.marks[after][1])
        return REFERENCE_S / pace

    def median_job_s(self) -> float:
        jobs = sorted(t for _, t in self.marks)
        return jobs[len(jobs) // 2]
