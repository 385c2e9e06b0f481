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
from functools import cached_property, partial, reduce
from typing import Callable, Sequence

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
    _Frozen,
    as_expression,
    differentiate,
    evaluate,
    free_variables,
    is_literal_zero,
    lower,
    simplify,
    substitute,
)
from .numerics import linspace, quad_adaptive

__all__ = [
    "CartesianSpec",
    "CartesianState",
    "LinearizableSpec",
    "PolarSpec",
    "PolarState",
    "WinternitzParams",
    "cartesian_rhs_function",
    "cartesian_state_from_polar",
    "check_rho_nonzero",
    "frequency_from_linearizable",
    "free_motion_system",
    "kepler_ermakov_system",
    "polar_from_cartesian",
    "polar_rhs_function",
    "polar_state_from_cartesian",
    "potential_expression",
    "quasi_invariance_map",
    "radial_coupling_from_fg",
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


def _derivative(expr: Expression, var: str) -> Expression:
    return simplify(differentiate(expr, var))


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

class CartesianState(_Frozen):
    _fields = ("x", "y", "xdot", "ydot", "t")

    def __init__(self, x: float, y: float, xdot: float, ydot: float, t: float = 0.0):
        self.__dict__.update(x=x, y=y, xdot=xdot, ydot=ydot, t=t)


class PolarState(_Frozen):
    _fields = ("r", "theta", "rdot", "thetadot", "t")

    def __init__(self, r: float, theta: float, rdot: float, thetadot: float, t: float = 0.0):
        if not r > 0.0:
            raise ValueError(f"polar radius must be positive, got {r}")
        self.__dict__.update(r=r, theta=theta, rdot=rdot, thetadot=thetadot, t=t)

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

class CartesianSpec(_Frozen):
    """Coupled pair xddot + w2*x = f(y/x)/(y x^2), yddot + w2*y = g(x/y)/(x y^2)."""

    _fields = ("f", "g", "omega_sq")

    def __init__(self, f: Expression, g: Expression, omega_sq: Expression):
        f, g, omega_sq = map(as_expression, (f, g, omega_sq))
        _single_var(f, "coupling f")
        _single_var(g, "coupling g")
        _check_vars(omega_sq, _CARTESIAN_VARS, "omega_sq")
        self.__dict__.update(f=f, g=g, omega_sq=omega_sq)

    @cached_property
    def cartesian_terms(self) -> tuple[Callable, Callable | None, Callable | None]:
        """omega_sq(t, x, y, xdot, ydot), f and g of their one argument (None if literally 0)."""
        f, g = (None if is_literal_zero(e) else lower((e,), (_single_var(e, ""),))
                for e in (self.f, self.g))
        return lower((self.omega_sq,), ("t", "x", "y", "xdot", "ydot")), f, g


class _PolarFamily(_Frozen):
    """A spec with polar equations of motion: it carries F, V and omega_sq.

    Trees derived from the defining functions, and the compiled functions
    of the tuples of trees the equations read, are spec attributes, each
    built on first use and kept with the spec (and so compiled once) in the
    instance ``__dict__``.
    """

    @cached_property
    def dV(self) -> Expression:
        """dV/dtheta, simplified."""
        return _derivative(self.V, "theta")

    @cached_property
    def polar_terms(self) -> Callable[..., tuple[float, float, float]]:
        """(omega_sq, F, dV/dtheta) as one compiled function of (t, r, theta, rdot, thetadot).

        A literally zero F or dV/dtheta lowers as the literal 0.0, so a
        factor the simplifier dropped is never evaluated.
        """
        F = Num(0.0) if is_literal_zero(self.F) else self.F
        dV = Num(0.0) if self.dV == Num(0.0) else self.dV  # derived trees come simplified
        return lower((self.omega_sq, F, dV), ("t", "r", "theta", "rdot", "thetadot"))


class PolarSpec(_PolarFamily):
    """Polar form: rddot - r*thetadot^2 + w2*r = F/r^3 and the angular equation."""

    _fields = ("F", "V", "omega_sq")

    def __init__(self, F: Expression, V: Expression, omega_sq: Expression):
        F, V, omega_sq = map(as_expression, (F, V, omega_sq))
        _check_vars(F, _ANGLE_VARS, "coupling F")
        _check_vars(V, _ANGLE_VARS, "potential V")
        _check_vars(omega_sq, _POLAR_VARS, "omega_sq")
        self.__dict__.update(F=F, V=V, omega_sq=omega_sq)


class LinearizableSpec(_PolarFamily):
    """Six-function family whose frequency admits linearization in (psi, theta).

    rho depends on t only; A, B, C on theta and L = r^2*thetadot; F and V
    on theta.  rho must stay nonzero on the integration window (checked at
    run time); a rho that vanishes identically is rejected here, as the
    induced frequency may not divide by it.  ``omega_sq`` is that induced
    frequency, so the spec runs through the same polar equations.
    """

    _fields = ("rho", "A", "B", "C", "F", "V")

    def __init__(self, rho, A, B, C, F, V):  # expressions, or what as_expression takes
        rho, A, B, C, F, V = map(as_expression, (rho, A, B, C, F, V))
        _check_vars(rho, _TIME_VARS, "rho")
        if is_literal_zero(rho):
            raise ValueError("rho vanishes identically")
        _check_vars(A, _STRUCTURE_VARS, "A")
        _check_vars(B, _STRUCTURE_VARS, "B")
        _check_vars(C, _STRUCTURE_VARS, "C")
        _check_vars(F, _ANGLE_VARS, "coupling F")
        _check_vars(V, _ANGLE_VARS, "potential V")
        self.__dict__.update(rho=rho, A=A, B=B, C=C, F=F, V=V)

    @cached_property
    def rho_derivatives(self) -> tuple[Expression, Expression]:
        """rho' and rho'', simplified."""
        d1 = _derivative(self.rho, "t")
        return d1, _derivative(d1, "t")

    @cached_property
    def omega_sq(self) -> Expression:
        return frequency_from_linearizable(self)

    @cached_property
    def linear_terms(self) -> Callable[..., tuple[float, float, float, float, float]]:
        """(A, B, C, F, dV/dtheta) as one compiled function of (theta, L)."""
        return lower((self.A, self.B, self.C, self.F, self.dV), ("theta", "L"))


class WinternitzParams(_Frozen):
    """Constants of the superintegrable non-central force example.

    All four are nonnegative; zero values of mu0, g2, or g3 are accepted
    as degenerate checks.
    """

    _fields = ("mu0", "g1", "g2", "g3")

    def __init__(self, mu0: float, g1: float, g2: float, g3: float):
        for name, v in zip(self._fields, (mu0, g1, g2, g3)):
            v = float(v)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be a finite nonnegative number, got {v}")
            self.__dict__[name] = v


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


def _coupling_potential(
    f: Expression, g: Expression
) -> tuple[Expression, Callable[[float], float]]:
    """U for one coupling pair, with its slope U'(w) = f(w) - g(1/w)/w^2.

    U(w) = int_1^w f + int_1^{1/w} g; substituting lam -> 1/lam in the g
    integral turns this into int_1^w U', one quadrature of the slope, taken
    in s = ln lam as int_0^{ln w} U'(e^s) e^s ds: the factor e^s tames the
    w^-2 of the g term, and w on either side of 1 spans a like range of s.
    The slope tree is built once per pair, and lowered to a function of w
    when the first quadrature runs; values are memoized per w (DP5's last
    two stages share an angle).
    """
    fvar = _single_var(f, "coupling f")
    gvar = _single_var(g, "coupling g")
    w = Var(DERIV_VAR)
    slope = simplify(
        BinOp(
            "-",
            substitute(f, {fvar: w}),
            BinOp("/", substitute(g, {gvar: BinOp("/", Num(1.0), w)}), BinOp("^", w, Num(2.0))),
        )
    )
    cache: dict[float, float] = {}
    slope_at = None

    def integrand(s: float) -> float:
        lam = math.exp(s)
        return slope_at(lam)[0] * lam

    def u(wv: float) -> float:
        nonlocal slope_at
        v = cache.get(wv)
        if v is None:
            if not wv > 0.0:
                raise EvaluationError(f"potential argument must be positive, got {wv!r}")
            if slope_at is None:
                slope_at = lower((slope,), (DERIV_VAR,))
            v = quad_adaptive(integrand, 0.0, math.log(wv))
            cache[wv] = v
        return v

    return slope, u


def potential_expression(f, g) -> Expression:
    """Angular potential V(theta) = U(tan theta) as a quadrature-backed node.

    Evaluation integrates numerically (with memoization); the symbolic
    derivative is the slope U' by the chain rule, so dV/dtheta works like
    any other tree.
    """
    f = as_expression(f)
    g = as_expression(g)
    if is_literal_zero(f) and is_literal_zero(g):
        return Num(0.0)
    slope, u = _coupling_potential(f, g)
    return Ufunc("U", Call("tan", Var("theta")), u, slope)


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


# ---------------------------------------------------------------------------
# Frequencies of the linearizable family
# ---------------------------------------------------------------------------

def check_rho_nonzero(rho: Expression, a: float, b: float, samples: int, where: str) -> None:
    """Raise EvaluationError if rho comes near zero or changes sign on a grid over [a, b]."""
    vals = [evaluate(rho, {"t": s}) for s in linspace(a, b, samples)]
    if min(map(abs, vals)) < 1e-12 or min(vals) < 0.0 < max(vals):
        raise EvaluationError(f"rho vanishes inside {where}")


def frequency_from_linearizable(spec: LinearizableSpec) -> Expression:
    """Frequency w2(t, r, theta, rdot, thetadot) induced by the six functions.

    w2 = -rhoddot/rho + (rho*rdot - rhodot*r)/(rho r^3) * A
         + B/r^4 + C/(rho r^3), with A, B, C evaluated at L = r^2*thetadot.
    The tree is assembled from already simplified pieces, and a term that
    vanishes identically is left out rather than simplified away: a zero
    term times an overflow would be NaN, and simplify keeps 0/x.  The spec
    keeps the tree as ``spec.omega_sq``.
    """
    rho = spec.rho
    rho_d, rho_dd = spec.rho_derivatives
    r = Var("r")
    sub = {"L": BinOp("*", BinOp("^", r, Num(2.0)), Var("thetadot"))}
    rho_r3 = BinOp("*", rho, BinOp("^", r, Num(3.0)))
    terms = []
    if rho_dd != Num(0.0):  # derived trees come simplified: no second pass
        terms.append(Neg(BinOp("/", rho_dd, rho)))
    if not is_literal_zero(spec.A):
        drift = BinOp("-", BinOp("*", rho, Var("rdot")), BinOp("*", rho_d, r))
        terms.append(BinOp("*", BinOp("/", drift, rho_r3), substitute(spec.A, sub)))
    if not is_literal_zero(spec.B):
        terms.append(BinOp("/", substitute(spec.B, sub), BinOp("^", r, Num(4.0))))
    if not is_literal_zero(spec.C):
        terms.append(BinOp("/", substitute(spec.C, sub), rho_r3))
    return reduce(partial(BinOp, "+"), terms) if terms else Num(0.0)


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

def polar_rhs_function(spec) -> Callable[[float, Sequence[float]], tuple]:
    """Vector field (t, [r, theta, rdot, thetadot]) -> time derivative, as a tuple.

    Accepts PolarSpec or LinearizableSpec: either carries polar_terms, the
    one compiled function of omega_sq, F and dV/dtheta it calls.
    """
    if not isinstance(spec, _PolarFamily):
        raise TypeError(f"no polar equations of motion for {type(spec).__name__}")
    terms = spec.polar_terms

    def rhs(t, y):
        r, theta, rd, thd = y
        if r <= 0.0:
            raise EvaluationError("radius reached zero")
        w2, fv, dv = terms(t, r, theta, rd, thd)
        rdd = r * thd * thd - w2 * r + fv / (r * r * r)
        return rd, thd, rdd, (-dv / (r * r * r) - 2.0 * rd * thd) / r

    return rhs


def cartesian_rhs_function(spec: CartesianSpec) -> Callable[[float, Sequence[float]], tuple]:
    """Vector field (t, [x, y, xdot, ydot]) -> time derivative, as a tuple."""
    omega_sq, f, g = spec.cartesian_terms

    def rhs(t, y):
        xv, yv, xd, yd = y
        (w2,) = omega_sq(t, xv, yv, xd, yd)
        f_term = g_term = 0.0
        if f is not None:
            if xv == 0.0 or yv == 0.0:
                raise EvaluationError("coupling f is singular on the axes")
            f_term = f(yv / xv)[0] / (yv * xv * xv)
        if g is not None:
            if xv == 0.0 or yv == 0.0:
                raise EvaluationError("coupling g is singular on the axes")
            g_term = g(xv / yv)[0] / (xv * yv * yv)
        return xd, yd, -w2 * xv + f_term, -w2 * yv + g_term

    return rhs


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


def free_motion_system(f, rho) -> LinearizableSpec:
    """Systems whose linearized form is straight-line motion in (psi, theta).

    Built from a single coupling f and scale rho: the partner coupling is
    g(v) = -f(1/v), which cancels the radial coupling exactly, so F = 0 and
    V = U(tan theta) comes from the pair (f, g); the structure functions
    A = (dV/dtheta)/L, B = L^2, C = 0 collapse the linear equation to
    psi'' = 0.
    """
    f = as_expression(f)
    rho = as_expression(rho)
    _check_vars(rho, _TIME_VARS, "rho")
    fvar = _single_var(f, "coupling f")
    ell = Var("L")

    if is_literal_zero(f):
        v_expr: Expression = Num(0.0)
        a_expr: Expression = Num(0.0)
    else:
        g = Neg(substitute(f, {fvar: BinOp("/", Num(1.0), Var(fvar))}))
        v_expr = potential_expression(f, g)
        a_expr = BinOp("/", _derivative(v_expr, "theta"), ell)

    return LinearizableSpec(
        rho=rho,
        A=a_expr,
        B=BinOp("^", ell, Num(2.0)),
        C=Num(0.0),
        F=Num(0.0),
        V=v_expr,
    )


def quasi_invariance_map(rho, state: PolarState, t0: float) -> PolarState:
    """Rescale onto the autonomous representation.

    rbar = r/rho, thetabar = theta, tbar = integral of 1/rho^2 from t0,
    with velocities taken with respect to tbar.  Fails if rho vanishes or
    changes sign on [t0, t].
    """
    rho = as_expression(rho)
    _check_vars(rho, _TIME_VARS, "rho")
    rho_d = _derivative(rho, "t")
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
