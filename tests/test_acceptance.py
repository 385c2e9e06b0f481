"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line per
criterion.
"""

import json
import math

import numpy as np

import ermakov as ek
from ermakov.cli import ROUND_TRIP_THRESHOLD, main
from ermakov.expressions import evaluate
from ermakov.invariant import ForbiddenRegionError, invariant_level, turning_tolerance
from ermakov.linearize import build_linear_ode, build_pipeline, solve_linear
from ermakov.numerics import linspace, quad_adaptive
from oracles import winternitz_angular_time_closed, winternitz_dpsi_closed, winternitz_psi_closed

DRIFT_TOL = 1e-6
HOMOGENEOUS_RESIDUAL_TOL = 1e-12
CLOSED_FORM_TOL = 1e-8
CLOSED_TIME_TOL = 1e-9
ROUND_TRIP_TOL = 1e-5
AFFINE_RESIDUAL_TOL = 1e-8
STRAIGHT_LINE_TOL = 1e-9
COORDINATE_TOL = 1e-6
QUASI_INVARIANCE_TOL = 1e-6
MIN_CONVERGENCE_SLOPE = 3.5


def _report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE PASS criterion {criterion}: {text}")


def angular_time(theta: float, invariant, V, J: float = 0.0, base: float = math.pi / 2.0) -> float:
    """Reparametrized time T(theta) = integral of 1/h from the base angle, plus J.

    The package's side of criterion 3's time check: its evaluator and its
    quadrature, held against the arcsine form in ``oracles``.
    """
    level = float(invariant)
    lo, hi = (base, theta) if base <= theta else (theta, base)
    tol = turning_tolerance(level)
    if lo < hi:
        for th in linspace(lo, hi, 201):
            gap = level - evaluate(V, {"theta": th})
            if gap <= tol:
                raise ForbiddenRegionError(th, level, level - gap)

    def integrand(lam: float) -> float:
        gap = level - evaluate(V, {"theta": lam})
        if gap <= 0.0:
            raise ForbiddenRegionError(lam, level, level - gap)
        return 1.0 / math.sqrt(2.0 * gap)

    return quad_adaptive(integrand, base, theta) + J


def test_criterion_1_invariant_conservation(winternitz_trajectory):
    """Relative conserved-level drift over t in [0, 10] at default tolerances."""
    assert winternitz_trajectory.termination == "completed"
    drift = winternitz_trajectory.drift.max_rel
    assert drift <= DRIFT_TOL
    _report(1, f"invariant drift {drift:.3e} <= {DRIFT_TOL}")


def test_criterion_2_usual_ermakov_homogeneity(tmp_path):
    """A = B = C = 0: emitted rhs column exactly zero; with the harmonic
    scale factor rho = cos t (so the induced frequency is 1) the
    compatibility residual stays below 1e-12 at 100 random states."""
    cfg = {
        "system": {
            "kind": "linearizable",
            "functions": {
                "rho": "cos(t)", "A": "0", "B": "0", "C": "0",
                "F": "0", "V": "0.3*sin(theta)^2",
            },
        },
        "initial_state": {"coords": "polar", "r": 1.0, "theta": 0.9, "rdot": 0.1, "thetadot": 1.2},
        "t_span": [0.0, 1.2],
        "samples": 80,
    }
    cfg_path = tmp_path / "usual.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["linearize", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "linear_ode.csv").read_text().strip().splitlines()
    rhs_column = [line.split(",")[4] for line in lines[1:]]
    assert all(float(v) == 0.0 for v in rhs_column)

    spec = ek.LinearizableSpec(
        rho="cos(t)", A="0", B="0", C="0", F="0", V="0.3*sin(theta)^2"
    )
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        state = ek.PolarState(
            r=float(rng.uniform(0.5, 2.0)),
            theta=float(rng.uniform(0.2, 2.9)),
            rdot=float(rng.uniform(-1.0, 1.0)),
            thetadot=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)),
            t=float(rng.uniform(0.0, 1.4)),
        )
        worst = max(worst, ek.verify_compatibility(spec, state))
    assert worst <= HOMOGENEOUS_RESIDUAL_TOL
    _report(2, f"rhs column all zero; max residual {worst:.3e} <= {HOMOGENEOUS_RESIDUAL_TOL}")


def test_criterion_3_kepler_closed_form_cross_check():
    """Closed-form psi against the numeric linear solve over [pi/6, 5pi/6]
    for levels 2 and 3, and numeric angular time against the arcsine form.

    Parameters (mu0=1, g1=0.2, g2=0.1, g3=1) keep the whole interval inside
    the allowed region for both levels.
    """
    params = ek.WinternitzParams(mu0=1.0, g1=0.2, g2=0.1, g3=1.0)
    spec = ek.winternitz_system(params)
    lo, hi = math.pi / 6, 5 * math.pi / 6
    grid = np.linspace(lo, hi, 97)
    for level in (2.0, 3.0):
        c1, c2, J = 0.8, 0.3, 0.1
        th0 = math.pi / 2
        ode = build_linear_ode(spec, level, (lo, hi))
        sol = solve_linear(
            ode,
            th0,
            winternitz_psi_closed(params, level, c1, c2, J, th0),
            winternitz_dpsi_closed(params, level, c1, c2, J, th0),
        )
        psi_diff = max(
            abs(sol.psi(float(th)) - winternitz_psi_closed(params, level, c1, c2, J, float(th)))
            for th in grid
        )
        assert psi_diff <= CLOSED_FORM_TOL
        time_diff = max(
            abs(
                angular_time(float(th), level, spec.V, J)
                - winternitz_angular_time_closed(params, level, float(th), J)
            )
            for th in grid
        )
        assert time_diff <= CLOSED_TIME_TOL
    _report(3, f"psi sup-diff <= {CLOSED_FORM_TOL}, time sup-diff <= {CLOSED_TIME_TOL}")


def _round_trip_error(spec, state0, t_hi):
    cfg = ek.IntegratorConfig(t_span=(0.0, t_hi))
    direct = ek.integrate_polar(spec, state0, cfg)
    assert direct.termination == "completed"
    assert not any(e.name == "turning_point" for e in direct.events)
    pipe = build_pipeline(spec, state0, t_window=(0.0, t_hi))
    err_r = err_th = 0.0
    for t in np.linspace(0.0, t_hi, 41):
        y = direct.at(t)
        theta, r = pipe.at(float(t))
        err_th = max(err_th, abs(theta - y[1]))
        err_r = max(err_r, abs(r - y[0]))
    return err_r, err_th


def test_criterion_4_round_trip_reconstruction(winternitz_spec, winternitz_state):
    """Reconstructed (r(t), theta(t)) track direct integration to 1e-5 over a
    turning-point-free window of length 2."""
    err_r, err_th = _round_trip_error(winternitz_spec, winternitz_state, 2.0)
    assert max(err_r, err_th) <= ROUND_TRIP_TOL

    generic = ek.LinearizableSpec(
        rho="1 + t^2/10", A="sin(theta)", B="L", C="1", F="0", V="0.3*sin(theta)^2"
    )
    state = ek.PolarState(r=1.0, theta=1.0, rdot=0.1, thetadot=1.3)
    err_r2, err_th2 = _round_trip_error(generic, state, 2.0)
    assert max(err_r2, err_th2) <= ROUND_TRIP_TOL
    _report(
        4,
        f"winternitz sup {max(err_r, err_th):.3e}, generic sup {max(err_r2, err_th2):.3e} "
        f"<= {ROUND_TRIP_TOL}",
    )


# A Kepler-Ermakov orbit whose angle librates in [pi/3, 2pi/3]: thetadot changes
# sign 16 times over the window, so only a route through turning points rebuilds it
LIBRATING_CONFIG = {
    "system": {"kind": "kepler", "functions": {"F": "0", "G": "1", "V": "2*cos(theta)^2"}},
    "initial_state": {"coords": "polar", "r": 1.0, "theta": math.pi / 2, "rdot": 0.0, "thetadot": 1.0},
    "t_span": [0.0, 10.0],
}


def test_librating_orbit_round_trip(tmp_path):
    """reconstruct follows the librating orbit through at least ten turns of
    thetadot, within the round-trip threshold of simulate at the same times."""
    path = tmp_path / "librating.json"
    path.write_text(json.dumps(LIBRATING_CONFIG))
    for command in ("simulate", "reconstruct"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 0
    direct = np.loadtxt(tmp_path / "simulate" / "trajectory.csv", delimiter=",", skiprows=1)
    rebuilt = np.loadtxt(tmp_path / "reconstruct" / "reconstructed.csv", delimiter=",", skiprows=1)
    assert np.array_equal(direct[:, 0], rebuilt[:, 0])
    turns = np.count_nonzero(np.diff(np.sign(direct[:, 4])))
    assert turns >= 10
    err_th = float(np.max(np.abs(rebuilt[:, 1] - direct[:, 2])))
    err_r = float(np.max(np.abs(rebuilt[:, 2] - direct[:, 1])))
    assert max(err_th, err_r) <= ROUND_TRIP_THRESHOLD
    _report(4, f"librating orbit, {turns} turns: theta sup {err_th:.3e}, r sup {err_r:.3e} <= {ROUND_TRIP_THRESHOLD}")


def test_criterion_5_free_motion_class():
    """f(u) = u, rho = 1: psi = rho/r is affine in the angle along a direct
    trajectory, and the constructed linear ODE has straight-line solutions."""
    fm = ek.free_motion_system("u", "1")
    s0 = ek.PolarState(1.0, math.pi / 4, -0.2, 1.0)
    traj = ek.integrate_polar(fm, s0, ek.IntegratorConfig(t_span=(0.0, 1.0)))
    turnings = [e.t for e in traj.events if e.name == "turning_point"]
    t_hi = 0.95 * turnings[0] if turnings else traj.t_end
    ts = np.linspace(0.0, t_hi, 80)
    ys = np.asarray(traj.sample(ts))
    psi = 1.0 / ys[:, 0]
    coeffs = np.polyfit(ys[:, 1], psi, 1)
    resid = float(np.max(np.abs(np.polyval(coeffs, ys[:, 1]) - psi)))
    assert resid <= AFFINE_RESIDUAL_TOL

    level = invariant_level(s0.r, s0.theta, s0.thetadot, fm.V)
    ode = build_linear_ode(fm, level, (0.3, 0.85))
    assert ode.rhs_is_zero
    sol = solve_linear(ode, 0.5, 1.5, 1.0)
    line_err = max(
        abs(sol.psi(float(th)) - (1.0 + float(th))) for th in np.linspace(0.3, 0.85, 45)
    )
    assert line_err <= STRAIGHT_LINE_TOL
    _report(5, f"affine residual {resid:.3e}, straight-line error {line_err:.3e}")


def test_criterion_6_coordinate_equivalence():
    """Cartesian and polar integrations of the same system agree to 1e-6 for
    five seeded random couplings and off-axis initial states (this also pins
    the cot(theta) reading of the radial coupling)."""
    rng = np.random.default_rng(20250811)
    checked = 0
    tries = 0
    worst = 0.0
    while checked < 5 and tries < 60:
        tries += 1
        a1, a2, b1, b2 = (float(v) for v in rng.uniform(-0.6, 0.6, 4))
        w0 = float(rng.uniform(0.3, 1.5))
        spec_c = ek.CartesianSpec(
            f=f"{a1!r}*u + {a2!r}*u^2",
            g=f"{b1!r}*v + {b2!r}*v^2",
            omega_sq=f"{w0!r}",
        )
        x0, y0 = (float(v) for v in rng.uniform(0.7, 1.3, 2))
        xd, yd = (float(v) for v in rng.uniform(-0.4, 0.4, 2))
        if abs(x0 * yd - y0 * xd) < 0.3:
            continue
        s0c = ek.CartesianState(x0, y0, xd, yd)
        cfg = ek.IntegratorConfig(t_span=(0.0, 2.0))
        traj_c = ek.integrate_cartesian(spec_c, s0c, cfg)
        traj_p = ek.integrate_polar(
            ek.polar_from_cartesian(spec_c), ek.polar_state_from_cartesian(s0c), cfg,
            monitor=False,
        )
        if traj_c.termination != "completed" or traj_p.termination != "completed":
            continue  # crossed an axis: resample
        sup = 0.0
        for t in np.linspace(0.0, 2.0, 41):
            yp = traj_p.at(t)
            cs = ek.cartesian_state_from_polar(
                ek.PolarState(yp[0], yp[1], yp[2], yp[3], t=float(t))
            )
            yc = traj_c.at(t)
            sup = max(
                sup,
                abs(cs.x - yc[0]),
                abs(cs.y - yc[1]),
                abs(cs.xdot - yc[2]),
                abs(cs.ydot - yc[3]),
            )
        assert sup <= COORDINATE_TOL
        worst = max(worst, sup)
        checked += 1
    assert checked == 5
    _report(6, f"5 random systems, worst sup error {worst:.3e} <= {COORDINATE_TOL}")


def test_criterion_7_quasi_invariance():
    """Trajectories with rho = 1 + t^2/10 map onto the autonomous system
    within 1e-6 after the time reparametrization."""
    rho = "1 + t^2/10"
    spec = ek.LinearizableSpec(
        rho=rho, A="sin(theta)", B="L", C="1", F="0", V="0.3*sin(theta)^2"
    )
    barred = ek.LinearizableSpec(
        rho="1", A="sin(theta)", B="L", C="1", F="0", V="0.3*sin(theta)^2"
    )
    s0 = ek.PolarState(1.0, 1.0, 0.1, 1.3)
    traj = ek.integrate_polar(spec, s0, ek.IntegratorConfig(t_span=(0.0, 2.0)))
    assert traj.termination == "completed"
    s_bar0 = ek.quasi_invariance_map(rho, s0, 0.0)
    t_bar_end = ek.quasi_invariance_map(rho, ek.PolarState(*traj.at(2.0), t=2.0), 0.0).t
    traj_bar = ek.integrate_polar(barred, s_bar0, ek.IntegratorConfig(t_span=(0.0, t_bar_end)))
    sup = 0.0
    for t in np.linspace(0.0, 2.0, 41):
        y = traj.at(t)
        mapped = ek.quasi_invariance_map(
            rho, ek.PolarState(y[0], y[1], y[2], y[3], t=float(t)), 0.0
        )
        yb = traj_bar.at(mapped.t)
        sup = max(
            sup,
            abs(yb[0] - mapped.r),
            abs(yb[1] - mapped.theta),
            abs(yb[2] - mapped.rdot),
            abs(yb[3] - mapped.thetadot),
        )
    assert sup <= QUASI_INVARIANCE_TOL
    _report(7, f"autonomous-map sup error {sup:.3e} <= {QUASI_INVARIANCE_TOL}")


def test_criterion_8_integrator_order():
    """Endpoint error on the isotropic oscillator, referenced to a
    1e-12-tolerance run, shrinks with the mean step size at slope >= 3.5
    under tolerance halving."""
    spec = ek.CartesianSpec(f="0", g="0", omega_sq="1")
    s0 = ek.CartesianState(1.0, 0.0, 0.0, 1.0)
    T = 2.0 * math.pi
    ref = ek.integrate_cartesian(
        spec, s0, ek.IntegratorConfig(t_span=(0.0, T), rel_tol=1e-12, abs_tol=1e-14)
    ).ys[-1]
    ref = np.asarray(ref)
    logs_h, logs_e = [], []
    for k in range(11):
        rtol = 1e-5 * 2.0**-k
        traj = ek.integrate_cartesian(
            spec, s0, ek.IntegratorConfig(t_span=(0.0, T), rel_tol=rtol, abs_tol=rtol * 1e-3)
        )
        err = float(np.max(np.abs(traj.ys[-1] - ref)))
        if err > 1e-12:
            logs_h.append(math.log(T / traj.n_accepted))
            logs_e.append(math.log(err))
    assert len(logs_h) >= 5
    slope = float(np.polyfit(logs_h, logs_e, 1)[0])
    assert slope >= MIN_CONVERGENCE_SLOPE
    _report(8, f"observed convergence slope {slope:.2f} >= {MIN_CONVERGENCE_SLOPE}")
