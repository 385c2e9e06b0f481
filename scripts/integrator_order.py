#!/usr/bin/env python3
"""Tolerance sweep on the isotropic oscillator: endpoint error against a
tight-tolerance reference versus mean step size, with the fitted slope.

Exits 1 unless the slope lies in [4.5, 6.0], where a fifth-order pair puts it."""

import argparse
import math
import sys

import numpy as np

import ermakov as ek

SLOPE_RANGE = (4.5, 6.0)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=11, help="number of tolerance halvings")
    args = ap.parse_args()

    spec = ek.CartesianSpec(f="0", g="0", omega_sq="1")
    s0 = ek.CartesianState(1.0, 0.0, 0.0, 1.0)
    T = 2.0 * math.pi
    ref = np.asarray(ek.integrate_cartesian(
        spec, s0, ek.IntegratorConfig(t_span=(0.0, T), rel_tol=1e-12, abs_tol=1e-14)
    ).ys[-1])

    print(f"{'rel_tol':>10} {'steps':>6} {'h_mean':>9} {'endpoint err':>13}")
    logs_h, logs_e = [], []
    for k in range(args.levels):
        rtol = 1e-5 * 2.0**-k
        traj = ek.integrate_cartesian(
            spec, s0, ek.IntegratorConfig(t_span=(0.0, T), rel_tol=rtol, abs_tol=rtol * 1e-3)
        )
        err = float(np.max(np.abs(np.asarray(traj.ys[-1]) - ref)))
        h_mean = T / traj.n_accepted
        print(f"{rtol:10.2e} {traj.n_accepted:6d} {h_mean:9.4f} {err:13.3e}")
        if err > 1e-12:
            logs_h.append(math.log(h_mean))
            logs_e.append(math.log(err))
    slope = float(np.polyfit(logs_h, logs_e, 1)[0])
    print(f"fitted slope: {slope:.2f}")
    if not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
        print(f"slope outside {list(SLOPE_RANGE)}: the pair is not fifth order", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
