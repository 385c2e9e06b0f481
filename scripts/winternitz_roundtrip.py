#!/usr/bin/env python3
"""Integrate the Winternitz system directly and through the linearized route,
then report how closely the two trajectories agree."""

import argparse
import csv
import math
from pathlib import Path

import numpy as np

import ermakov as ek
from ermakov.linearize import build_pipeline


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    ap.add_argument("--t-end", type=float, default=4.0)
    ap.add_argument("--samples", type=int, default=200)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    params = ek.WinternitzParams(mu0=1.0, g1=1.0, g2=0.5, g3=1.0)
    spec = ek.winternitz_system(params)
    state0 = ek.PolarState(r=1.0, theta=math.pi / 2, rdot=0.0, thetadot=2.0)

    traj = ek.integrate_polar(spec, state0, ek.IntegratorConfig(t_span=(0.0, args.t_end)))
    drift = ek.monitor_invariant(traj, spec.V)
    print(f"direct integration: {traj.n_accepted} steps, drift {drift.max_rel:.3e}")

    pipe = build_pipeline(spec, state0, t_window=(0.0, args.t_end))
    times = np.linspace(0.0, args.t_end, args.samples)
    rows = []
    sup_r = sup_th = 0.0
    for t in times:
        y = traj.at(t)
        th, r = pipe.at(float(t))
        sup_th = max(sup_th, abs(th - y[1]))
        sup_r = max(sup_r, abs(r - y[0]))
        rows.append((t, y[0], y[1], r, th))

    with open(args.out / "winternitz_roundtrip.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "r_direct", "theta_direct", "r_linearized", "theta_linearized"])
        writer.writerows(rows)
    print(f"round trip over [0, {args.t_end}]: sup|dr| {sup_r:.3e}, sup|dtheta| {sup_th:.3e}")
    print(f"wrote {args.out / 'winternitz_roundtrip.csv'}")


if __name__ == "__main__":
    main()
