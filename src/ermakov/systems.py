"""System families and the transformations between them.

A planar Ermakov-type system couples a radial and an angular degree of
freedom through a shared frequency function.  This module houses the
concrete families (cartesian, polar, six-function linearizable, with the
Kepler-Ermakov systems, the Winternitz example and the free-motion class
built as linearizable members), the coordinate maps between them, and the
frequency/coupling constructions each family needs.

All quantities are dimensionless.  Expression variables follow fixed
conventions: ``theta`` and ``L`` (angular momentum r^2*thetadot) in the
structure functions A, B, C; ``theta`` alone in F, V, G; ``t`` alone in
rho; the full state vocabulary in frequency expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .expressions import (
    BinOp,
    Call,
    DERIV_VAR,
    EvaluationError,
    Expression,
    Neg,
    Num,
    Ufunc,
    Var,
    as_expression,
    differentiate,
    evaluate,
    free_variables,
    is_literal_zero,
    simplify,
    substitute,
)
from .numerics import quad_adaptive

__all__ = [
    "CartesianSpec",
    "CartesianState",
    "FreeMotionSystem",
    "LinearizableSpec",
    "PolarSpec",
    "PolarState",
    "WinternitzParams",
    "absorb_coupling",
    "cartesian_rhs",
    "cartesian_rhs_function",
    "cartesian_state_from_polar",
    "check_rho_nonzero",
    "frequency_from_linearizable",
    "free_motion_system",
    "kepler_ermakov_system",
    "polar_as_spec",
    "polar_from_cartesian",
    "polar_rhs",
    "polar_rhs_function",
    "polar_state_from_cartesian",
    "potential_expression",
    "potential_value_from_fg",
    "quasi_invariance_map",
    "radial_coupling_from_fg",
    "winternitz_hamiltonian",
    "winternitz_system",
]

_POLAR_VARS = frozenset({"t", "r", "theta", "rdot", "thetadot"})
_CARTESIAN_VARS = frozenset({"t", "x", "y", "xdot", "ydot"})
_STRUCTURE_VARS = frozenset({"theta", "L"})
_ANGLE_VARS = frozenset({"theta"})
_TIME_VARS = frozenset({"t"})


def _check_vars(expr: Expression, allowed: frozenset[str], what: str) -> None:
    extra = free_variables(expr) - allowed
    if extra:
        raise ValueError(
            f"{what} may only use {sorted(allowed)}; found {sorted(extra)}"
        )


def _single_var(expr: Expression, what: str) -> str:
    names = free_variables(expr)
    if len(names) > 1:
        raise ValueError(f"{what} must be a function of one argument; found {sorted(names)}")
    return next(iter(names)) if names else "u"


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CartesianState:
    x: float
    y: float
    xdot: float
    ydot: float
    t: float = 0.0


@dataclass(frozen=True)
class PolarState:
    r: float
    theta: float
    rdot: float
    thetadot: float
    t: float = 0.0

    def __post_init__(self):
        if not self.r > 0.0:
            raise ValueError(f"polar radius must be positive, got {self.r}")

    @property
    def angular_momentum(self) -> float:
        return self.r * self.r * self.thetadot


def polar_state_from_cartesian(s: CartesianState) -> PolarState:
    r2 = s.x * s.x + s.y * s.y
    if r2 == 0.0:
        raise ValueError("cannot convert the origin to polar coordinates")
    r = math.sqrt(r2)
    return PolarState(
        r=r,
        theta=math.atan2(s.y, s.x),
        rdot=(s.x * s.xdot + s.y * s.ydot) / r,
        thetadot=(s.x * s.ydot - s.y * s.xdot) / r2,
        t=s.t,
    )


def cartesian_state_from_polar(s: PolarState) -> CartesianState:
    c, sn = math.cos(s.theta), math.sin(s.theta)
    return CartesianState(
        x=s.r * c,
        y=s.r * sn,
        xdot=s.rdot * c - s.r * sn * s.thetadot,
        ydot=s.rdot * sn + s.r * c * s.thetadot,
        t=s.t,
    )


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CartesianSpec:
    """Coupled pair xddot + w2*x = f(y/x)/(y x^2), yddot + w2*y = g(x/y)/(x y^2)."""

    f: Expression
    g: Expression
    omega_sq: Expression

    def __post_init__(self):
        object.__setattr__(self, "f", as_expression(self.f))
        object.__setattr__(self, "g", as_expression(self.g))
        object.__setattr__(self, "omega_sq", as_expression(self.omega_sq))
        _single_var(self.f, "coupling f")
        _single_var(self.g, "coupling g")
        _check_vars(self.omega_sq, _CARTESIAN_VARS, "omega_sq")


@dataclass(frozen=True)
class PolarSpec:
    """Polar form: rddot - r*thetadot^2 + w2*r = F/r^3 and the angular equation."""

    F: Expression
    V: Expression
    omega_sq: Expression

    def __post_init__(self):
        object.__setattr__(self, "F", as_expression(self.F))
        object.__setattr__(self, "V", as_expression(self.V))
        object.__setattr__(self, "omega_sq", as_expression(self.omega_sq))
        _check_vars(self.F, _ANGLE_VARS, "coupling F")
        _check_vars(self.V, _ANGLE_VARS, "potential V")
        _check_vars(self.omega_sq, _POLAR_VARS, "omega_sq")


@dataclass(frozen=True)
class LinearizableSpec:
    """Six-function family whose frequency admits linearization in (psi, theta).

    rho depends on t only; A, B, C on theta and L = r^2*thetadot; F and V
    on theta.  rho must stay nonzero on the integration window (checked at
    run time).
    """

    rho: Expression
    A: Expression
    B: Expression
    C: Expression
    F: Expression
    V: Expression

    def __post_init__(self):
        object.__setattr__(self, "rho", as_expression(self.rho))
        for name in ("A", "B", "C", "F", "V"):
            object.__setattr__(self, name, as_expression(getattr(self, name)))
        _check_vars(self.rho, _TIME_VARS, "rho")
        _check_vars(self.A, _STRUCTURE_VARS, "A")
        _check_vars(self.B, _STRUCTURE_VARS, "B")
        _check_vars(self.C, _STRUCTURE_VARS, "C")
        _check_vars(self.F, _ANGLE_VARS, "coupling F")
        _check_vars(self.V, _ANGLE_VARS, "potential V")


@dataclass(frozen=True)
class WinternitzParams:
    """Constants of the superintegrable non-central force example.

    All four are nonnegative; zero values of mu0, g2, or g3 are accepted
    as degenerate checks.
    """

    mu0: float
    g1: float
    g2: float
    g3: float

    def __post_init__(self):
        for name in ("mu0", "g1", "g2", "g3"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be a finite nonnegative number, got {v}")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class FreeMotionSystem:
    """A free-motion-class system in both its polar and cartesian forms."""

    linearizable: LinearizableSpec
    cartesian: CartesianSpec


# ---------------------------------------------------------------------------
# Couplings and potentials from the cartesian pair (f, g)
# ---------------------------------------------------------------------------

def radial_coupling_from_fg(f, g) -> Expression:
    """Radial coupling F(theta) = (f(tan theta) + g(cot theta)) / (sin theta cos theta).

    The second coupling is evaluated at cot(theta) = x/y, which is what the
    radial projection of the cartesian pair produces.
    """
    f = as_expression(f)
    g = as_expression(g)
    fvar = _single_var(f, "coupling f")
    gvar = _single_var(g, "coupling g")
    theta = Var("theta")
    sin_t = Call("sin", theta)
    cos_t = Call("cos", theta)
    numerator = simplify(
        BinOp(
            "+",
            substitute(f, {fvar: Call("tan", theta)}),
            substitute(g, {gvar: BinOp("/", cos_t, sin_t)}),
        )
    )
    if is_literal_zero(numerator):
        return Num(0.0)
    return BinOp("/", numerator, BinOp("*", sin_t, cos_t))


def _potential_fn(f: Expression, g: Expression) -> Callable[[float], float]:
    """U for one coupling pair, with zero-ness and argument names decided once."""
    fvar = _single_var(f, "coupling f")
    gvar = _single_var(g, "coupling g")
    f_live = not is_literal_zero(f)
    g_live = not is_literal_zero(g)

    def u(w: float) -> float:
        if not w > 0.0:
            raise EvaluationError(f"potential argument must be positive, got {w!r}")
        total = 0.0
        if f_live:
            total += quad_adaptive(lambda lam: evaluate(f, {fvar: lam}), 1.0, w)
        if g_live:
            total += quad_adaptive(lambda lam: evaluate(g, {gvar: lam}), 1.0, 1.0 / w)
        return total

    return u


def potential_value_from_fg(f, g, w: float) -> float:
    """U(w): the two coupling integrals accumulated from the base point 1.

    U(w) = int_1^w f + int_1^{1/w} g, so U(1) = 0 by convention.  Requires
    w > 0 (single-sector evaluation).
    """
    return _potential_fn(as_expression(f), as_expression(g))(w)


def potential_expression(f, g) -> Expression:
    """Angular potential V(theta) = U(tan theta) as a quadrature-backed node.

    Evaluation integrates numerically (with memoization); the symbolic
    derivative is elementary, so dV/dtheta works like any other tree.
    """
    f = as_expression(f)
    g = as_expression(g)
    if is_literal_zero(f) and is_literal_zero(g):
        return Num(0.0)
    fvar = _single_var(f, "coupling f")
    gvar = _single_var(g, "coupling g")
    w = Var(DERIV_VAR)
    # U'(w) = f(w) - g(1/w)/w^2
    deriv = simplify(
        BinOp(
            "-",
            substitute(f, {fvar: w}),
            BinOp("/", substitute(g, {gvar: BinOp("/", Num(1.0), w)}), BinOp("^", w, Num(2.0))),
        )
    )
    cache: dict[float, float] = {}
    u = _potential_fn(f, g)

    def u_of(wv: float) -> float:
        v = cache.get(wv)
        if v is None:
            v = u(wv)
            cache[wv] = v
        return v

    return Ufunc("U", Call("tan", Var("theta")), u_of, deriv)


def polar_from_cartesian(spec: CartesianSpec) -> PolarSpec:
    """Re-express a cartesian pair in polar coordinates.

    The coupling becomes F(theta), the potential V(theta) = U(tan theta)
    backs the angular equation, and the frequency is rewritten with
    x = r cos(theta), y = r sin(theta) and the matching velocities.
    """
    theta = Var("theta")
    r = Var("r")
    sin_t, cos_t = Call("sin", theta), Call("cos", theta)
    rd, thd = Var("rdot"), Var("thetadot")
    polar_map = {
        "x": BinOp("*", r, cos_t),
        "y": BinOp("*", r, sin_t),
        "xdot": BinOp("-", BinOp("*", rd, cos_t), BinOp("*", BinOp("*", r, sin_t), thd)),
        "ydot": BinOp("+", BinOp("*", rd, sin_t), BinOp("*", BinOp("*", r, cos_t), thd)),
    }
    return PolarSpec(
        F=radial_coupling_from_fg(spec.f, spec.g),
        V=potential_expression(spec.f, spec.g),
        omega_sq=simplify(substitute(spec.omega_sq, polar_map)),
    )


def absorb_coupling(spec: PolarSpec) -> PolarSpec:
    """Fold the radial coupling into the frequency: w2 -> w2 - F/r^4, F -> 0.

    Trajectories are unchanged; applying the map twice equals applying it
    once.
    """
    if is_literal_zero(spec.F):
        return spec
    shifted = BinOp(
        "-", spec.omega_sq, BinOp("/", spec.F, BinOp("^", Var("r"), Num(4.0)))
    )
    return PolarSpec(F=Num(0.0), V=spec.V, omega_sq=simplify(shifted))


# ---------------------------------------------------------------------------
# Frequencies of the linearizable family
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _rho_derivatives(rho: Expression) -> tuple[Expression, Expression]:
    """rho' and rho'', derived once per run (a run has one scale factor)."""
    d1 = simplify(differentiate(rho, "t"))
    d2 = simplify(differentiate(d1, "t"))
    return d1, d2


def check_rho_nonzero(rho: Expression, a: float, b: float, samples: int, where: str) -> None:
    """Raise EvaluationError if rho comes near zero or changes sign on a grid over [a, b]."""
    vals = np.array([evaluate(rho, {"t": float(s)}) for s in np.linspace(a, b, samples)])
    if np.min(np.abs(vals)) < 1e-12 or (np.min(vals) < 0.0 < np.max(vals)):
        raise EvaluationError(f"rho vanishes inside {where}")


@lru_cache(maxsize=1)
def frequency_from_linearizable(spec: LinearizableSpec) -> Expression:
    """Frequency w2(t, r, theta, rdot, thetadot) induced by the six functions.

    w2 = -rhoddot/rho + (rho*rdot - rhodot*r)/(rho r^3) * A
         + B/r^4 + C/(rho r^3), with A, B, C evaluated at L = r^2*thetadot.
    One entry serves a run, which has one system; more would keep every
    earlier system alive, with its compiled trees and quadrature memo.
    """
    rho = spec.rho
    rho_d, rho_dd = _rho_derivatives(rho)
    r, thd = Var("r"), Var("thetadot")
    ell = BinOp("*", BinOp("^", r, Num(2.0)), thd)
    sub = {"L": ell}
    a_term = BinOp(
        "*",
        BinOp(
            "/",
            BinOp("-", BinOp("*", rho, Var("rdot")), BinOp("*", rho_d, r)),
            BinOp("*", rho, BinOp("^", r, Num(3.0))),
        ),
        substitute(spec.A, sub),
    )
    b_term = BinOp("/", substitute(spec.B, sub), BinOp("^", r, Num(4.0)))
    c_term = BinOp("/", substitute(spec.C, sub), BinOp("*", rho, BinOp("^", r, Num(3.0))))
    out = BinOp(
        "+",
        BinOp("+", BinOp("+", Neg(BinOp("/", rho_dd, rho)), a_term), b_term),
        c_term,
    )
    return simplify(out)


def polar_as_spec(spec: LinearizableSpec) -> PolarSpec:
    """View a linearizable system as a plain polar spec with its induced frequency."""
    return PolarSpec(F=spec.F, V=spec.V, omega_sq=frequency_from_linearizable(spec))


def kepler_ermakov_system(F, G, V) -> LinearizableSpec:
    """Radial equation rddot - r*thetadot^2 = F/r^3 - G/r^2 plus the angular one.

    Kepler-Ermakov systems are the linearizable members with rho = 1,
    A = B = 0 and C = G; F, G and V depend on theta only.
    """
    G = as_expression(G)
    _check_vars(G, _ANGLE_VARS, "coupling G")
    return LinearizableSpec(rho=Num(1.0), A=Num(0.0), B=Num(0.0), C=G, F=F, V=V)


# ---------------------------------------------------------------------------
# Equations of motion
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _potential_derivative(V: Expression) -> Expression:
    """dV/dtheta, derived once per run.

    One entry serves a run, which has one potential; more would keep the
    quadrature memo of every earlier free-motion potential alive.
    """
    return simplify(differentiate(V, "theta"))


def polar_rhs_function(spec) -> Callable[[float, np.ndarray], np.ndarray]:
    """Vector field (t, [r, theta, rdot, thetadot]) -> time derivative.

    Accepts PolarSpec or LinearizableSpec.
    """
    if not isinstance(spec, (PolarSpec, LinearizableSpec)):
        raise TypeError(f"no polar equations of motion for {type(spec).__name__}")
    dV = _potential_derivative(spec.V)
    dV_zero = dV == Num(0.0)  # cached trees come simplified: no second pass
    F_zero = is_literal_zero(spec.F)

    def angular(r, theta, rd, thd):
        dv = 0.0 if dV_zero else evaluate(dV, {"theta": theta})
        return (-dv / (r * r * r) - 2.0 * rd * thd) / r

    if isinstance(spec, PolarSpec):

        def rhs(t, y):
            r, theta, rd, thd = y.tolist()
            if r <= 0.0:
                raise EvaluationError("radius reached zero")
            env = {"t": float(t), "r": r, "theta": theta, "rdot": rd, "thetadot": thd}
            w2 = evaluate(spec.omega_sq, env)
            fv = 0.0 if F_zero else evaluate(spec.F, {"theta": theta})
            rdd = r * thd * thd - w2 * r + fv / (r * r * r)
            return np.array([rd, thd, rdd, angular(r, theta, rd, thd)])

        return rhs

    rho_d, rho_dd = _rho_derivatives(spec.rho)
    A_zero, B_zero, C_zero = map(is_literal_zero, (spec.A, spec.B, spec.C))
    rho_dd_zero = rho_dd == Num(0.0)

    def rho_at(t):
        tenv = {"t": t}
        rho_v = evaluate(spec.rho, tenv)
        if rho_v == 0.0:
            raise EvaluationError(f"rho vanished at t={t!r}")
        return rho_v, evaluate(rho_d, tenv), evaluate(rho_dd, tenv)

    fixed = None
    if not free_variables(spec.rho):
        try:
            fixed = rho_at(0.0)
        except EvaluationError:
            pass  # the first call raises it again, with its time

    def rhs(t, y):
        r, theta, rd, thd = y.tolist()
        if r <= 0.0:
            raise EvaluationError("radius reached zero")
        rho_v, rho_dv, rho_ddv = fixed or rho_at(float(t))
        senv = {"theta": theta, "L": r * r * thd}
        av = 0.0 if A_zero else evaluate(spec.A, senv)
        bv = 0.0 if B_zero else evaluate(spec.B, senv)
        cv = 0.0 if C_zero else evaluate(spec.C, senv)
        fv = 0.0 if F_zero else evaluate(spec.F, {"theta": theta})
        r2, r3 = r * r, r * r * r
        # the rho'', A and B terms are left out where they vanish identically, as
        # the Kepler-Ermakov equation has none: 0*inf would turn an overflow into NaN
        rdd = r * thd * thd + fv / r3
        if not rho_dd_zero:
            rdd += (rho_ddv / rho_v) * r
        if not A_zero:
            rdd -= ((rho_v * rd - rho_dv * r) / (rho_v * r2)) * av
        if not B_zero:
            rdd -= bv / r3
        rdd -= cv / (rho_v * r2)
        return np.array([rd, thd, rdd, angular(r, theta, rd, thd)])

    return rhs


def polar_rhs(spec, state: PolarState) -> tuple[float, float, float, float]:
    """State derivative (rdot, thetadot, rddot, thetaddot) at one instant."""
    y = np.array([state.r, state.theta, state.rdot, state.thetadot])
    out = polar_rhs_function(spec)(state.t, y)
    return float(out[0]), float(out[1]), float(out[2]), float(out[3])


def cartesian_rhs_function(spec: CartesianSpec) -> Callable[[float, np.ndarray], np.ndarray]:
    """Vector field (t, [x, y, xdot, ydot]) -> time derivative."""
    f_zero, g_zero = is_literal_zero(spec.f), is_literal_zero(spec.g)
    f_var, g_var = _single_var(spec.f, "coupling f"), _single_var(spec.g, "coupling g")

    def rhs(t, y):
        xv, yv, xd, yd = y.tolist()
        env = {"t": float(t), "x": xv, "y": yv, "xdot": xd, "ydot": yd}
        w2 = evaluate(spec.omega_sq, env)
        if f_zero:
            f_term = 0.0
        else:
            if xv == 0.0 or yv == 0.0:
                raise EvaluationError("coupling f is singular on the axes")
            f_term = evaluate(spec.f, {f_var: yv / xv}) / (yv * xv * xv)
        if g_zero:
            g_term = 0.0
        else:
            if xv == 0.0 or yv == 0.0:
                raise EvaluationError("coupling g is singular on the axes")
            g_term = evaluate(spec.g, {g_var: xv / yv}) / (xv * yv * yv)
        return np.array([xd, yd, -w2 * xv + f_term, -w2 * yv + g_term])

    return rhs


def cartesian_rhs(spec: CartesianSpec, state: CartesianState) -> tuple[float, float, float, float]:
    y = np.array([state.x, state.y, state.xdot, state.ydot])
    out = cartesian_rhs_function(spec)(state.t, y)
    return float(out[0]), float(out[1]), float(out[2]), float(out[3])


# ---------------------------------------------------------------------------
# Named constructions
# ---------------------------------------------------------------------------

def winternitz_system(params: WinternitzParams) -> LinearizableSpec:
    """Kepler-Ermakov form of the Winternitz non-central force problem.

    V(theta) = (g1 + g2 cos theta)/sin^2 theta, F = 2 (V + g3), G = mu0.
    """
    theta = Var("theta")
    v = BinOp(
        "/",
        BinOp("+", Num(params.g1), BinOp("*", Num(params.g2), Call("cos", theta))),
        BinOp("^", Call("sin", theta), Num(2.0)),
    )
    f = BinOp("*", Num(2.0), BinOp("+", v, Num(params.g3)))
    return kepler_ermakov_system(F=simplify(f), G=Num(params.mu0), V=simplify(v))


def winternitz_hamiltonian(params: WinternitzParams, state: PolarState) -> float:
    """Conserved energy 0.5*(rdot^2 + r^2 thetadot^2) - mu0/r + (V + g3)/r^2."""
    v = (params.g1 + params.g2 * math.cos(state.theta)) / math.sin(state.theta) ** 2
    kinetic = 0.5 * (state.rdot**2 + (state.r * state.thetadot) ** 2)
    return kinetic - params.mu0 / state.r + (v + params.g3) / state.r**2


def free_motion_system(f, rho) -> FreeMotionSystem:
    """Systems whose linearized form is straight-line motion in (psi, theta).

    Built from a single coupling f and scale rho: the partner coupling is
    g(v) = -f(1/v), which cancels the radial coupling exactly, and the
    structure functions A = (dV/dtheta)/L, B = L^2, C = 0 collapse the
    linear equation to psi'' = 0.  The matching cartesian pair is exposed
    alongside the polar form.
    """
    f = as_expression(f)
    rho = as_expression(rho)
    _check_vars(rho, _TIME_VARS, "rho")
    fvar = _single_var(f, "coupling f")
    ell = Var("L")

    if is_literal_zero(f):
        g = Num(0.0)
        v_expr: Expression = Num(0.0)
        a_expr: Expression = Num(0.0)
    else:
        g = Neg(substitute(f, {fvar: BinOp("/", Num(1.0), Var(fvar))}))
        v_expr = potential_expression(f, g)
        a_expr = BinOp("/", _potential_derivative(v_expr), ell)

    lin = LinearizableSpec(
        rho=rho,
        A=a_expr,
        B=BinOp("^", ell, Num(2.0)),
        C=Num(0.0),
        F=Num(0.0),
        V=v_expr,
    )

    # cartesian frequency of the same class
    rho_d, rho_dd = _rho_derivatives(rho)
    x, y, xd, yd = Var("x"), Var("y"), Var("xdot"), Var("ydot")
    cross = BinOp("-", BinOp("*", x, yd), BinOp("*", y, xd))
    r2 = BinOp("+", BinOp("^", x, Num(2.0)), BinOp("^", y, Num(2.0)))
    w2: Expression = BinOp(
        "+",
        Neg(BinOp("/", rho_dd, rho)),
        BinOp("^", BinOp("/", cross, r2), Num(2.0)),
    )
    if not is_literal_zero(f):
        radial_dot = BinOp(
            "+",
            BinOp("*", BinOp("-", BinOp("*", rho, xd), BinOp("*", rho_d, x)), x),
            BinOp("*", BinOp("-", BinOp("*", rho, yd), BinOp("*", rho_d, y)), y),
        )
        denom = BinOp(
            "*",
            BinOp("*", rho, BinOp("*", BinOp("^", x, Num(2.0)), BinOp("^", y, Num(2.0)))),
            cross,
        )
        w2 = BinOp(
            "+",
            w2,
            BinOp(
                "*",
                BinOp("/", radial_dot, denom),
                substitute(f, {fvar: BinOp("/", y, x)}),
            ),
        )
    cart = CartesianSpec(f=f, g=g, omega_sq=simplify(w2))
    return FreeMotionSystem(linearizable=lin, cartesian=cart)


def quasi_invariance_map(rho, state: PolarState, t0: float) -> PolarState:
    """Rescale onto the autonomous representation.

    rbar = r/rho, thetabar = theta, tbar = integral of 1/rho^2 from t0,
    with velocities taken with respect to tbar.  Fails if rho vanishes or
    changes sign on [t0, t].
    """
    rho = as_expression(rho)
    _check_vars(rho, _TIME_VARS, "rho")
    rho_d = _rho_derivatives(rho)[0]
    t = state.t
    lo, hi = (t0, t) if t0 <= t else (t, t0)
    check_rho_nonzero(rho, lo, hi, 129, f"[{lo}, {hi}]")
    tbar = quad_adaptive(lambda lam: 1.0 / evaluate(rho, {"t": lam}) ** 2, t0, t)
    rho_v = evaluate(rho, {"t": t})
    rho_dv = evaluate(rho_d, {"t": t})
    return PolarState(
        r=state.r / rho_v,
        theta=state.theta,
        rdot=rho_v * state.rdot - rho_dv * state.r,
        thetadot=rho_v * rho_v * state.thetadot,
        t=tbar,
    )
