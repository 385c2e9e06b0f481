"""Run configuration: JSON schema, validation, and built-in presets.

A run config names a system kind, its defining function expressions and
numeric parameters, an initial state, spans, and tolerances.  Validation
is strict: unknown keys anywhere are rejected with a dotted field path, so
typos in function names fail loudly instead of silently changing the
dynamics.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Callable, Mapping

from .expressions import (
    Expression,
    Num,
    ParseError,
    _Frozen,
    free_variables,
    parse,
    substitute,
)
from .systems import (
    _ANGLE_VARS,
    _CARTESIAN_VARS,
    _POLAR_VARS,
    _STRUCTURE_VARS,
    _TIME_VARS,
    CartesianSpec,
    CartesianState,
    LinearizableSpec,
    PolarSpec,
    PolarState,
    WinternitzParams,
    free_motion_system,
    kepler_ermakov_system,
    polar_from_cartesian,
    polar_state_from_cartesian,
    winternitz_system,
)

__all__ = ["ConfigError", "RunConfig", "SystemConfig", "PRESETS", "load_config", "preset_config"]

# each kind: the function keys it requires, with the variables each may use (None: any
# single argument), and the builder of its spec from (functions, params)
_KINDS: dict[str, tuple[dict[str, frozenset[str] | None], Callable[[dict, dict], Any]]] = {
    "cartesian": (
        {"f": None, "g": None, "omega2": _CARTESIAN_VARS},
        lambda fn, p: polar_from_cartesian(CartesianSpec(fn["f"], fn["g"], fn["omega2"])),
    ),
    "polar": (
        {"F": _ANGLE_VARS, "V": _ANGLE_VARS, "omega2": _POLAR_VARS},
        lambda fn, p: PolarSpec(fn["F"], fn["V"], fn["omega2"]),
    ),
    "linearizable": (
        {"rho": _TIME_VARS, "A": _STRUCTURE_VARS, "B": _STRUCTURE_VARS, "C": _STRUCTURE_VARS,
         "F": _ANGLE_VARS, "V": _ANGLE_VARS},
        lambda fn, p: LinearizableSpec(fn["rho"], fn["A"], fn["B"], fn["C"], fn["F"], fn["V"]),
    ),
    "kepler": (
        {"F": _ANGLE_VARS, "G": _ANGLE_VARS, "V": _ANGLE_VARS},
        lambda fn, p: kepler_ermakov_system(fn["F"], fn["G"], fn["V"]),
    ),
    "winternitz": (
        {},
        lambda fn, p: winternitz_system(WinternitzParams(p["mu0"], p["g1"], p["g2"], p["g3"])),
    ),
    "free_motion": ({"f": None, "rho": _TIME_VARS}, lambda fn, p: free_motion_system(fn["f"], fn["rho"])),
}
KINDS = tuple(_KINDS)

_RESERVED_NAMES = frozenset(
    {"t", "r", "theta", "rdot", "thetadot", "L", "x", "y", "xdot", "ydot", "pi"}
)


class ConfigError(ValueError):
    """Invalid run configuration; the message carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(mapping: Mapping, key: str, path: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"{path}.{key}", "required field is missing")
    return mapping[key]


def _reject_unknown(mapping: Mapping, allowed: set[str], path: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}", "unknown field")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        raise ConfigError(path, "must be finite") from None
    if not math.isfinite(v):
        raise ConfigError(path, "must be finite")
    return v


def _span(value, path: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(path, "expected a pair [start, end]")
    a = _number(value[0], f"{path}[0]")
    b = _number(value[1], f"{path}[1]")
    if a == b:
        raise ConfigError(path, "span must be nondegenerate")
    return (a, b)


class SystemConfig(_Frozen):
    _fields = ("kind", "functions", "params")

    def __init__(self, kind: str, functions: dict[str, Expression] | None = None, params: dict | None = None):
        # a dict left out is a new one for each config
        self.__dict__.update(kind=kind, functions={} if functions is None else functions,
                             params={} if params is None else params)


class RunConfig(_Frozen):
    _fields = ("system", "initial_state", "t_span", "theta_span", "rel_tol", "abs_tol", "max_step", "samples")

    def __init__(
        self,
        system: SystemConfig,
        initial_state: PolarState,
        t_span: tuple[float, float],
        theta_span: tuple[float, float] | None = None,
        rel_tol: float = 1e-9,
        abs_tol: float = 1e-12,
        max_step: float = math.inf,
        samples: int = 400,
    ):
        self.__dict__.update(system=system, initial_state=initial_state, t_span=t_span, theta_span=theta_span,
                             rel_tol=rel_tol, abs_tol=abs_tol, max_step=max_step, samples=samples)


def _parse_functions(raw, kind: str, params: dict[str, float], path: str) -> dict[str, Expression]:
    schema = _KINDS[kind][0]
    if not isinstance(raw, Mapping):
        raise ConfigError(path, "expected an object of expression strings")
    _reject_unknown(raw, set(schema), path)
    out: dict[str, Expression] = {}
    subs = {name: Num(value) for name, value in params.items()}
    for key, allowed in schema.items():
        src = _require(raw, key, path)
        if not isinstance(src, str):
            raise ConfigError(f"{path}.{key}", f"expected an expression string, got {src!r}")
        try:
            expr = parse(src)
        except ParseError as exc:
            raise ConfigError(f"{path}.{key}", f"parse error: {exc}") from exc
        expr = substitute(expr, subs)
        names = free_variables(expr)
        if allowed is None:
            if len(names) > 1:
                raise ConfigError(
                    f"{path}.{key}",
                    f"must be a function of one argument; found variables {sorted(names)}",
                )
        else:
            extra = names - allowed
            if extra:
                raise ConfigError(
                    f"{path}.{key}",
                    f"may only use variables {sorted(allowed)}; found {sorted(extra)}",
                )
        out[key] = expr
    return out


def _parse_params(raw, path: str) -> dict[str, float]:
    if raw is None:
        return {}
    if not isinstance(raw, Mapping):
        raise ConfigError(path, "expected an object of numbers")
    out = {}
    for name, value in raw.items():
        if not isinstance(name, str) or not name.isidentifier():
            raise ConfigError(f"{path}.{name}", "parameter names must be identifiers")
        if name in _RESERVED_NAMES:
            raise ConfigError(f"{path}.{name}", "parameter name is reserved")
        out[name] = _number(value, f"{path}.{name}")
    return out


def _parse_state(raw, path: str) -> PolarState:
    """The initial state in polar form: a cartesian one is converted here, once."""
    if not isinstance(raw, Mapping):
        raise ConfigError(path, "expected an object")
    coords = raw.get("coords", "polar")
    if coords == "polar":
        names = ("r", "theta", "rdot", "thetadot")
    elif coords == "cartesian":
        names = ("x", "y", "xdot", "ydot")
    else:
        raise ConfigError(f"{path}.coords", f"must be 'polar' or 'cartesian', got {coords!r}")
    _reject_unknown(raw, {"coords", "t", *names}, path)
    values = [_number(_require(raw, name, path), f"{path}.{name}") for name in names]
    t = _number(raw.get("t", 0.0), f"{path}.t")
    try:
        if coords == "polar":
            return PolarState(*values, t)
        state = polar_state_from_cartesian(CartesianState(*values, t))
    except ValueError as exc:  # a radius that is not positive, or the origin
        raise ConfigError(path, str(exc)) from exc
    if not all(map(math.isfinite, (state.r, state.theta, state.rdot, state.thetadot))):
        raise ConfigError(path, f"the cartesian state has no finite polar form: {state!r}")
    return state


def load_config(source) -> RunConfig:
    """Build a validated RunConfig from a dict, JSON text, or file path."""
    if isinstance(source, (str, Path)):
        try:
            raw = json.loads(Path(source).read_text())
        except ValueError as exc:  # not UTF-8, not JSON, or an integer too long to convert
            raise ConfigError("<root>", f"invalid JSON: {exc}") from exc
        except RecursionError as exc:  # the decoder's own bound on nesting
            raise ConfigError("<root>", "invalid JSON: nested too deeply") from exc
    elif isinstance(source, Mapping):
        raw = source
    else:
        raise TypeError(f"cannot load a config from {type(source).__name__}")

    if not isinstance(raw, Mapping):
        raise ConfigError("<root>", "config must be a JSON object")
    allowed = {"system", "initial_state", "t_span", "theta_span", "tolerances", "samples"}
    _reject_unknown(raw, allowed, "<root>")

    sys_raw = _require(raw, "system", "<root>")
    if not isinstance(sys_raw, Mapping):
        raise ConfigError("system", "expected an object")
    _reject_unknown(sys_raw, {"kind", "functions", "params"}, "system")
    kind = _require(sys_raw, "kind", "system")
    if kind not in KINDS:
        raise ConfigError("system.kind", f"must be one of {list(KINDS)}, got {kind!r}")
    params = _parse_params(sys_raw.get("params"), "system.params")
    if kind == "winternitz":
        if sys_raw.get("functions"):
            raise ConfigError("system.functions", "winternitz systems take params only")
        for name in ("mu0", "g1", "g2", "g3"):
            if name not in params:
                raise ConfigError(f"system.params.{name}", "required field is missing")
        functions: dict[str, Expression] = {}
    else:
        functions = _parse_functions(sys_raw.get("functions", {}), kind, params, "system.functions")

    state = _parse_state(_require(raw, "initial_state", "<root>"), "initial_state")
    t_span = _span(_require(raw, "t_span", "<root>"), "t_span")
    theta_span = _span(raw["theta_span"], "theta_span") if "theta_span" in raw else None

    tol_raw = raw.get("tolerances", {})
    if not isinstance(tol_raw, Mapping):
        raise ConfigError("tolerances", "expected an object")
    _reject_unknown(tol_raw, {"rel_tol", "abs_tol", "max_step"}, "tolerances")
    rel_tol = _number(tol_raw.get("rel_tol", 1e-9), "tolerances.rel_tol")
    abs_tol = _number(tol_raw.get("abs_tol", 1e-12), "tolerances.abs_tol")
    max_step = (
        _number(tol_raw["max_step"], "tolerances.max_step") if "max_step" in tol_raw else math.inf
    )
    if rel_tol <= 0.0 or abs_tol <= 0.0 or max_step <= 0.0:
        raise ConfigError("tolerances", "tolerances must be positive")

    samples = raw.get("samples", 400)
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 2:
        raise ConfigError("samples", f"expected an integer >= 2, got {samples!r}")

    if abs(state.t - t_span[0]) > 1e-12 * (1.0 + abs(t_span[0])):
        raise ConfigError("initial_state.t", "must equal the start of t_span")

    return RunConfig(
        system=SystemConfig(kind=kind, functions=functions, params=params),
        initial_state=state,
        t_span=t_span,
        theta_span=theta_span,
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        max_step=max_step,
        samples=samples,
    )


def build_spec(cfg: RunConfig) -> PolarSpec | LinearizableSpec:
    """The polar-family spec a config describes, built once per run.

    Building a spec evaluates nothing: a constructor's ValueError is the config's fault.
    """
    try:
        return _KINDS[cfg.system.kind][1](cfg.system.functions, cfg.system.params)
    except ValueError as exc:
        raise ConfigError("system", str(exc)) from exc


def linearizable_view(cfg: RunConfig, spec) -> LinearizableSpec:
    """``build_spec(cfg)`` as the linearizable spec the pipeline commands need."""
    if isinstance(spec, LinearizableSpec):
        return spec
    raise ConfigError(
        "system.kind",
        f"kind {cfg.system.kind!r} has no linearizable form; "
        "use linearizable, kepler, winternitz, or free_motion",
    )


PRESETS: dict[str, dict] = {
    "winternitz-default": {
        "system": {
            "kind": "winternitz",
            "params": {"mu0": 1.0, "g1": 1.0, "g2": 0.5, "g3": 1.0},
        },
        "initial_state": {
            "coords": "polar",
            "r": 1.0,
            "theta": 1.5707963267948966,
            "rdot": 0.0,
            "thetadot": 2.0,
        },
        "t_span": [0.0, 10.0],
    },
    "uniform-rotation": {
        "system": {
            "kind": "linearizable",
            "functions": {"rho": "1", "A": "0", "B": "0", "C": "1", "F": "0", "V": "0"},
        },
        "initial_state": {"coords": "polar", "r": 1.0, "theta": 0.0, "rdot": 0.0, "thetadot": 1.0},
        "t_span": [0.0, 5.0],
    },
    "free-motion-demo": {
        "system": {"kind": "free_motion", "functions": {"f": "u", "rho": "1"}},
        "initial_state": {
            "coords": "polar",
            "r": 1.0,
            "theta": 0.7853981633974483,
            "rdot": -0.2,
            "thetadot": 1.0,
        },
        "t_span": [0.0, 0.15],
    },
}


def preset_config(name: str) -> RunConfig:
    if name not in PRESETS:
        raise ConfigError("<preset>", f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return load_config(PRESETS[name])
