#!/usr/bin/env python3
"""Show the free-motion reduction: along a direct trajectory of the class
built from a single coupling, psi = rho/r is an affine function of the angle."""

import argparse
import math

import numpy as np

import ermakov as ek


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--coupling", default="u", help="coupling f as an expression in one variable")
    ap.add_argument("--rdot0", type=float, default=-0.2)
    args = ap.parse_args()

    fm = ek.free_motion_system(args.coupling, "1")
    s0 = ek.PolarState(1.0, math.pi / 4, args.rdot0, 1.0)
    traj = ek.integrate_polar(fm.linearizable, s0, ek.IntegratorConfig(t_span=(0.0, 1.0)))
    turnings = [e.t for e in traj.events if e.name == "turning_point"]
    t_hi = 0.95 * turnings[0] if turnings else traj.t_end
    print(f"integrated to t={traj.t_end:.3f}; fitting over [0, {t_hi:.3f}]"
          + (f" (turning at t={turnings[0]:.3f})" if turnings else ""))

    ts = np.linspace(0.0, t_hi, 120)
    ys = np.asarray(traj.sample(ts))
    psi = 1.0 / ys[:, 0]
    slope, intercept = np.polyfit(ys[:, 1], psi, 1)
    resid = float(np.max(np.abs(np.polyval([slope, intercept], ys[:, 1]) - psi)))
    print(f"psi(theta) fit: {intercept:.6f} + {slope:.6f}*theta, residual {resid:.3e}")
    print(f"predicted slope -rdot0/L0 = {-args.rdot0:.6f}")


if __name__ == "__main__":
    main()
