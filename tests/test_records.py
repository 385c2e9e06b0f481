"""The package's record classes: constructors, immutability, value equality and checks."""

import math
from collections import Counter

import pytest

import ermakov as ek
from ermakov import integration, systems
from ermakov.config import RunConfig, SystemConfig, preset_config
from ermakov.expressions import BinOp, Call, Neg, Num, ParseError, Ufunc, Var, parse
from ermakov.integration import DriftStats, Event, EventSpec, IntegratorConfig, Trajectory
from ermakov.linearize import AngularTimeRun, LinearODE, LinearSolution

_X = Var("x")
_SPEC = ek.LinearizableSpec(rho="1", A="0", B="0", C="1", F="0", V="0")
_STATE = ek.PolarState(1.0, 0.0, 0.0, 1.0)
_ODE = LinearODE(_SPEC, 0.5, (-1.0, 1.0), 1)

# every record class with its parameters, in order, and a value for each
_CONSTRUCTORS = [
    (Num, {"value": 1.5}),
    (Var, {"name": "x"}),
    (Neg, {"operand": _X}),
    (BinOp, {"op": "+", "lhs": _X, "rhs": Num(1.0)}),
    (Call, {"func": "sin", "arg": _X}),
    (Ufunc, {"name": "U", "arg": _X, "fn": math.exp, "deriv": Var("_w")}),
    (ek.CartesianState, {"x": 1.0, "y": 2.0, "xdot": 3.0, "ydot": 4.0, "t": 5.0}),
    (ek.PolarState, {"r": 1.0, "theta": 2.0, "rdot": 3.0, "thetadot": 4.0, "t": 5.0}),
    (ek.CartesianSpec, {"f": Var("u"), "g": Var("v"), "omega_sq": Num(1.0)}),
    (ek.PolarSpec, {"F": Num(0.4), "V": parse("sin(theta)"), "omega_sq": Var("r")}),
    (ek.LinearizableSpec, {"rho": Num(1.0), "A": Num(0.0), "B": Var("L"), "C": Num(1.0),
                           "F": Num(0.0), "V": Num(0.0)}),
    (ek.WinternitzParams, {"mu0": 1.0, "g1": 2.0, "g2": 3.0, "g3": 4.0}),
    (IntegratorConfig, {"t_span": (0.0, 1.0), "rel_tol": 1e-8, "abs_tol": 1e-11, "max_step": 0.5,
                        "first_step": 0.1}),
    (EventSpec, {"name": "e", "fn": min, "terminal": True, "direction": -1}),
    (Event, {"name": "e", "t": 1.0, "y": [2.0]}),
    (DriftStats, {"max_rel": 1.0, "rms_rel": 2.0, "reference": 3.0}),
    (Trajectory, {"ts": [0.0], "ys": [[1.0]], "hs": [], "slopes": [], "n_accepted": 0, "n_rejected": 1,
                  "n_rhs": 2, "termination": "max_steps", "events": []}),
    (SystemConfig, {"kind": "polar", "functions": {"F": Num(0.0)}, "params": {"a": 1.0}}),
    (RunConfig, {"system": SystemConfig("winternitz"), "initial_state": _STATE, "t_span": (0.0, 1.0),
                 "theta_span": (-1.0, 1.0), "rel_tol": 1e-8, "abs_tol": 1e-11, "max_step": 0.5,
                 "samples": 12}),
    (LinearODE, {"spec": _SPEC, "invariant": 0.5, "domain": (-1.0, 1.0), "branch_sign": -1}),
    (LinearSolution, {"ode": _ODE, "theta0": 0.0, "y0": [1.0, 0.0, 1.0, 0.5], "up": None, "down": None}),
    (AngularTimeRun, {"spec": _SPEC, "y0": [0.0, 1.0, 1.0, 0.0, 0.0], "window": (0.0, 1.0), "up": None,
                      "down": None}),
]


@pytest.mark.parametrize("cls, fields", _CONSTRUCTORS, ids=[c.__name__ for c, _ in _CONSTRUCTORS])
def test_positional_and_keyword_construction_agree(cls, fields):
    by_position, by_name = cls(*fields.values()), cls(**fields)
    for name, value in fields.items():
        assert getattr(by_position, name) == getattr(by_name, name) == value, name


_IMMUTABLE = {
    "node": (lambda: parse("x + 1"), "op"),
    "Num": (lambda: Num(1.0), "value"),
    "PolarState": (lambda: ek.PolarState(1.0, 0.0, 0.0, 1.0), "r"),
    "CartesianState": (lambda: ek.CartesianState(1.0, 0.0, 0.0, 1.0), "t"),
    "PolarSpec": (lambda: ek.PolarSpec(F="0", V="0", omega_sq="1"), "V"),
    "LinearizableSpec": (lambda: ek.LinearizableSpec("1", "0", "0", "1", "0", "0"), "rho"),
    "CartesianSpec": (lambda: ek.CartesianSpec(f="u", g="v", omega_sq="1"), "f"),
    "WinternitzParams": (lambda: ek.WinternitzParams(1.0, 1.0, 0.5, 1.0), "g1"),
    "IntegratorConfig": (lambda: IntegratorConfig((0.0, 1.0)), "rel_tol"),
    "RunConfig": (lambda: preset_config("uniform-rotation"), "samples"),
    "SystemConfig": (lambda: preset_config("uniform-rotation").system, "kind"),
}


@pytest.mark.parametrize("name", sorted(_IMMUTABLE))
def test_fields_cannot_be_assigned_or_deleted(name):
    make, field = _IMMUTABLE[name]
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.other = 1
    assert getattr(record, field) is before and not hasattr(record, "other")


class TestNodeEquality:
    def test_equal_fields_compare_and_hash_equal(self):
        a, b = parse("sin(x)*exp(x/3) - -y^2"), parse("sin(x)*exp(x/3) - -y^2")
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1

    def test_other_fields_or_class_compare_unequal(self):
        assert BinOp("+", _X, Num(1.0)) != BinOp("-", _X, Num(1.0))
        assert BinOp("+", _X, Num(1.0)) != BinOp("+", Num(1.0), _X)
        assert Var("x") != Var("y") and Call("sin", _X) != Call("cos", _X)
        assert Neg(_X) != Call("sin", _X) and Var("x") != Call("x", _X)
        assert Var("x") != Neg("x")  # equal fields, another class
        assert ek.PolarState(1.0, 0.0, 0.0, 1.0) != ek.CartesianState(1.0, 0.0, 0.0, 1.0)

    def test_signed_zeros_are_equal_and_keep_their_sign(self):
        assert Num(0.0) == Num(-0.0) and hash(Num(0.0)) == hash(Num(-0.0))
        assert BinOp("*", _X, Num(-0.0)) == BinOp("*", _X, Num(0.0))
        assert math.copysign(1.0, Num(-0.0).value) == -1.0

    def test_ufunc_equality_ignores_the_callable(self):
        a = Ufunc("U", _X, math.sin, Num(1.0))
        b = Ufunc("U", _X, math.cos, Num(1.0))
        assert a == b and hash(a) == hash(b) and (a.fn, b.fn) == (math.sin, math.cos)
        assert a != Ufunc("W", _X, math.sin, Num(1.0)) and a != Ufunc("U", _X, math.sin, Num(2.0))
        assert Ufunc("U", _X, math.sin).deriv == Num(0.0)

    def test_a_node_never_equals_a_tuple(self):
        node = BinOp("+", _X, Num(1.0))
        assert node != ("+", _X, Num(1.0)) and ("+", _X, Num(1.0)) != node
        assert Call("sin", _X) != ("sin", _X) and Num(1.0) != (1.0,) and Num(1.0) != 1.0

    def test_num_coerces_to_float(self):
        assert type(Num("1").value) is float and Num("1") == Num(1.0)
        assert type(Num(2).value) is float


def test_records_compare_by_value():
    assert ek.PolarState(1.0, 0.5, 0.0, 1.0) == ek.PolarState(1.0, 0.5, 0.0, 1.0)
    assert ek.PolarState(1.0, 0.5, 0.0, 1.0) != ek.PolarState(1.0, 0.5, 0.0, 1.0, t=1.0)
    assert ek.PolarSpec(F="0", V="sin(theta)", omega_sq="1") == ek.PolarSpec(F=0, V="sin(theta)", omega_sq=1)
    assert preset_config("winternitz-default") == preset_config("winternitz-default")
    assert preset_config("winternitz-default") != preset_config("uniform-rotation")


class TestChecks:
    def test_polar_radius(self):
        with pytest.raises(ValueError, match=r"^polar radius must be positive, got 0$"):
            ek.PolarState(r=0, theta=0.0, rdot=0.0, thetadot=1.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"t_span": (1.0, 1.0)}, "t_span must be a nondegenerate finite interval, got (1.0, 1.0)"),
            (
                {"t_span": (0.0, math.inf), "rel_tol": -1.0},
                "t_span must be a nondegenerate finite interval, got (0.0, inf)",
            ),
            ({"t_span": (0.0, 1.0), "rel_tol": -1.0, "max_step": 0.0}, "tolerances must be positive"),
            ({"t_span": (0.0, 1.0), "abs_tol": 0.0}, "tolerances must be positive"),
            ({"t_span": (0.0, 1.0), "max_step": 0.0}, "max_step must be positive"),
        ],
    )
    def test_integrator_config(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            IntegratorConfig(**kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: ek.PolarSpec(F="r", V="theta", omega_sq="x"), "coupling F may only use ['theta']; found ['r']"),
            (lambda: ek.PolarSpec(F="0", V="0", omega_sq="x"), "omega_sq may only use"),
            (lambda: ek.LinearizableSpec("theta", "x", "0", "0", "0", "0"), "rho may only use ['t']; found ['theta']"),
            (lambda: ek.LinearizableSpec("0", "x", "0", "0", "0", "0"), "rho vanishes identically"),
            (lambda: ek.LinearizableSpec("1", "0", "0", "x", "r", "0"), "C may only use ['L', 'theta']; found ['x']"),
            (lambda: ek.CartesianSpec(f="u*v", g="w", omega_sq="r"), "coupling f must be a function of one argument"),
            (lambda: ek.WinternitzParams(1.0, -1.0, math.nan, 1.0), "g1 must be a finite nonnegative number, got -1.0"),
        ],
    )
    def test_specs(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value).startswith(message)

    def test_every_function_is_parsed_before_any_is_checked(self):
        with pytest.raises(ParseError):
            ek.PolarSpec(F="r", V="(", omega_sq="x")

    def test_winternitz_params_become_floats(self):
        params = ek.WinternitzParams(1, 2, 0, 3)
        assert [type(v) for v in (params.mu0, params.g1, params.g2, params.g3)] == [float] * 4


def test_derived_trees_and_compiled_terms_are_built_once(monkeypatch):
    built = []
    for name in ("_derivative", "lower", "frequency_from_linearizable"):
        real = getattr(systems, name)
        monkeypatch.setattr(systems, name, lambda *a, _real=real, _name=name: built.append(_name) or _real(*a))
    specs = [
        (ek.LinearizableSpec("1 + 0.1*t^2", "sin(theta)", "L", "0.8", "0.4", "0.3*sin(theta)^2"),
         ("dV", "rho_derivatives", "omega_sq", "polar_terms", "linear_terms")),
        (ek.PolarSpec(F="0.4", V="0.2*sin(theta)^2", omega_sq="1 + 0.1*sin(t)"), ("dV", "polar_terms")),
        (ek.CartesianSpec(f="u", g="v^2", omega_sq="1"), ("cartesian_terms",)),
    ]
    first = [[getattr(spec, name) for name in names] for spec, names in specs]
    assert Counter(built) == {"_derivative": 4, "lower": 6, "frequency_from_linearizable": 1}
    for (spec, names), values in zip(specs, first):
        for name, value in zip(names, values):
            assert getattr(spec, name) is value is vars(spec)[name]
    assert len(built) == 11


def test_defaults():
    cfg = IntegratorConfig((0.0, 1.0))
    assert (cfg.rel_tol, cfg.abs_tol, cfg.max_step, cfg.first_step, integration._EVENT_TIME_TOL) == (
        1e-9, 1e-12, math.inf, None, 1e-10
    )
    run = RunConfig(SystemConfig("winternitz"), _STATE, (0.0, 1.0))
    assert (run.theta_span, run.rel_tol, run.abs_tol, run.max_step, run.samples) == (
        None, 1e-9, 1e-12, math.inf, 400
    )
    assert (ek.PolarState(1.0, 0.0, 0.0, 1.0).t, ek.CartesianState(1.0, 0.0, 0.0, 1.0).t) == (0.0, 0.0)
    event = EventSpec("e", min)
    assert (event.terminal, event.direction) == (False, 0)
    traj = Trajectory([0.0], [[1.0]], [], [], 0, 0, 1, "completed")
    assert traj.events == []
    assert traj.events is not Trajectory([0.0], [[1.0]], [], [], 0, 0, 1, "completed").events


def test_system_configs_do_not_share_a_dict():
    a, b = SystemConfig("polar"), SystemConfig("polar")
    assert a.functions == a.params == {}
    assert a.functions is not b.functions and a.params is not b.params and a.functions is not a.params
