import contextlib
import copy
import importlib
import inspect
import io
import json
import math
import pkgutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ermakov
from ermakov import linearize, systems
from ermakov.cli import main
from ermakov.config import PRESETS, ConfigError, build_spec, load_config, preset_config
from ermakov.linearize import build_pipeline


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def _winternitz_config(**overrides):
    cfg = {
        "system": {
            "kind": "winternitz",
            "params": {"mu0": 1.0, "g1": 1.0, "g2": 0.5, "g3": 1.0},
        },
        "initial_state": {
            "coords": "polar",
            "r": 1.0,
            "theta": math.pi / 2,
            "rdot": 0.0,
            "thetadot": 2.0,
        },
        "t_span": [0.0, 2.0],
        "samples": 60,
    }
    cfg.update(overrides)
    return cfg


def _cheap_preset(name):
    """A preset config shortened to at most one time unit and 12 samples."""
    cfg = copy.deepcopy(PRESETS[name])
    cfg["t_span"] = [0.0, min(cfg["t_span"][1], 1.0)]
    cfg["samples"] = 12
    return cfg


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


class TestConfigValidation:
    def test_missing_function_names_path(self, tmp_path):
        cfg = {
            "system": {"kind": "polar", "functions": {"F": "0", "omega2": "1"}},
            "initial_state": {"coords": "polar", "r": 1.0, "theta": 0.5, "rdot": 0.0, "thetadot": 1.0},
            "t_span": [0.0, 1.0],
        }
        with pytest.raises(ConfigError, match=r"system\.functions\.V"):
            load_config(cfg)

    def test_degenerate_t_span(self):
        with pytest.raises(ConfigError, match="t_span"):
            load_config(_winternitz_config(t_span=[0.0, 0.0]))

    def test_unknown_key_rejected(self):
        bad = _winternitz_config()
        bad["surprise"] = 1
        with pytest.raises(ConfigError, match="unknown field"):
            load_config(bad)

    def test_unknown_function_key_rejected(self):
        cfg = {
            "system": {
                "kind": "polar",
                "functions": {"F": "0", "V": "0", "omega2": "1", "W": "1"},
            },
            "initial_state": {"coords": "polar", "r": 1.0, "theta": 0.5, "rdot": 0.0, "thetadot": 1.0},
            "t_span": [0.0, 1.0],
        }
        with pytest.raises(ConfigError, match="unknown field"):
            load_config(cfg)

    def test_reserved_param_name(self):
        bad = _winternitz_config()
        bad["system"] = {
            "kind": "winternitz",
            "params": {"mu0": 1.0, "g1": 1.0, "g2": 0.5, "g3": 1.0, "theta": 2.0},
        }
        with pytest.raises(ConfigError, match="reserved"):
            load_config(bad)

    def test_params_substituted_into_expressions(self):
        cfg = {
            "system": {
                "kind": "polar",
                "functions": {"F": "0", "V": "w0*sin(theta)^2", "omega2": "1"},
                "params": {"w0": 0.25},
            },
            "initial_state": {"coords": "polar", "r": 1.0, "theta": 0.5, "rdot": 0.0, "thetadot": 1.0},
            "t_span": [0.0, 1.0],
        }
        run = load_config(cfg)
        from ermakov.expressions import evaluate

        assert evaluate(run.system.functions["V"], {"theta": math.pi / 2}) == 0.25

    def test_expression_variable_policing(self):
        cfg = {
            "system": {
                "kind": "polar",
                "functions": {"F": "0", "V": "sin(t)", "omega2": "1"},
            },
            "initial_state": {"coords": "polar", "r": 1.0, "theta": 0.5, "rdot": 0.0, "thetadot": 1.0},
            "t_span": [0.0, 1.0],
        }
        with pytest.raises(ConfigError, match=r"system\.functions\.V"):
            load_config(cfg)

    def test_presets_load(self):
        for name in ("winternitz-default", "uniform-rotation", "free-motion-demo"):
            assert preset_config(name).t_span[1] > 0

    @pytest.mark.parametrize("max_step", ["fast", [1], math.nan])
    def test_max_step_must_be_a_finite_number(self, tmp_path, capsys, max_step):
        cfg = _winternitz_config(tolerances={"max_step": max_step})
        with pytest.raises(ConfigError, match=r"tolerances\.max_step"):
            load_config(cfg)
        path = _write(tmp_path, "c.json", cfg)  # NaN goes out as the JSON literal NaN
        assert main(["reconstruct", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "tolerances.max_step" in err and "Traceback" not in err


    @pytest.mark.parametrize("field", ["t_span", "params"])
    def test_integer_too_large_for_a_float(self, tmp_path, capsys, field):
        cfg = _winternitz_config()
        if field == "t_span":
            cfg["t_span"] = [0.0, 10**400]
            path = "t_span[1]"
        else:
            cfg["system"]["params"]["g3"] = 10**400
            path = "system.params.g3"
        cfg_path = _write(tmp_path, "c.json", cfg)
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: {path}: must be finite\n"

    @pytest.mark.parametrize("problem", ["integer too long", "not UTF-8", "nested too deeply"])
    def test_unreadable_config_text(self, tmp_path, capsys, problem):
        text = json.dumps(_winternitz_config())
        if problem == "integer too long":
            # past the interpreter's digit limit for int conversion, parsing itself fails
            data = text.replace('"samples": 60', '"samples": ' + "9" * 5000).encode()
        elif problem == "not UTF-8":
            data = text.encode("utf-16")
        else:
            data = ("[" * 100_000 + "]" * 100_000).encode()
        cfg_path = tmp_path / "c.json"
        cfg_path.write_bytes(data)
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1


class TestSimulate:
    def test_winternitz_drift_and_exit_code(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "run.json", _winternitz_config(t_span=[0.0, 10.0]))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] == "completed"
        assert summary["invariant"]["drift_max_rel"] <= 1e-6
        header, data = _read_csv(out / "trajectory.csv")
        assert header == ["t", "r", "theta", "rdot", "thetadot", "I"]
        assert np.max(np.abs(data[:, 5] - 3.0)) <= 1e-6

    def test_missing_function_exit_code(self, tmp_path, capsys):
        cfg_path = _write(
            tmp_path,
            "bad.json",
            {
                "system": {"kind": "polar", "functions": {"F": "0", "omega2": "1"}},
                "initial_state": {
                    "coords": "polar", "r": 1.0, "theta": 0.5, "rdot": 0.0, "thetadot": 1.0,
                },
                "t_span": [0.0, 1.0],
            },
        )
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert "system.functions.V" in capsys.readouterr().err

    def test_partial_output_on_event(self, tmp_path):
        # radial plunge: terminal event, nonzero exit, partial CSV written
        cfg = {
            "system": {"kind": "kepler", "functions": {"F": "0", "G": "1", "V": "0"}},
            "initial_state": {"coords": "polar", "r": 1.0, "theta": 0.3, "rdot": -0.5, "thetadot": 0.0},
            "t_span": [0.0, 10.0],
            "samples": 40,
        }
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(_write(tmp_path, "c.json", cfg)), "--out", str(out)]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] != "completed"
        assert summary["t_final"] < 10.0
        _, data = _read_csv(out / "trajectory.csv")
        assert len(data) == 40

    def test_no_accepted_step_writes_partial_output(self, tmp_path, capsys):
        # omega2 is undefined for t > 0: every trial step fails until the step underflows
        cfg = {
            "system": {"kind": "polar", "functions": {"F": "0", "V": "0", "omega2": "sqrt(-t)"}},
            "initial_state": {"coords": "polar", "r": 1.0, "theta": 0.5, "rdot": 0.0, "thetadot": 1.0},
            "t_span": [0.0, 1.0],
            "samples": 5,
        }
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(_write(tmp_path, "c.json", cfg)), "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] == "step_size_underflow"
        assert summary["steps"]["accepted"] == 0
        _, data = _read_csv(out / "trajectory.csv")
        assert data.tolist() == [[0.0, 1.0, 0.5, 0.0, 1.0, 0.5]] * 5

    # 1e-60 overflows the error norm; at 1e-200, r^3 underflows to a zero divisor
    @pytest.mark.parametrize("r", [1e-60, 1e-200])
    def test_extreme_radius_exits_2_without_runtime_warning(self, tmp_path, r):
        cfg = copy.deepcopy(PRESETS["winternitz-default"])
        cfg["initial_state"]["r"] = r
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", "--config", str(_write(tmp_path, "c.json", cfg)), "--out", str(out)])
        assert code == 2
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert json.loads((out / "summary.json").read_text())["termination"] == "step_size_underflow"

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = _write(tmp_path, "run.json", _winternitz_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


    @pytest.mark.parametrize("command", ["simulate", "linearize", "reconstruct", "validate"])
    def test_sample_count_beyond_memory(self, tmp_path, capsys, command):
        # 10**17 samples is 711 PiB: numpy refuses the array before allocating any of it
        cfg_path = _write(tmp_path, "c.json", _winternitz_config(samples=10**17))
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestLinearize:
    def test_usual_ermakov_rhs_column_exactly_zero(self, tmp_path):
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
            "samples": 50,
        }
        out = tmp_path / "out"
        assert main(["linearize", "--config", str(_write(tmp_path, "c.json", cfg)), "--out", str(out)]) == 0
        header, data = _read_csv(out / "linear_ode.csv")
        assert header == ["theta", "p2", "p1", "p0", "rhs", "psi"]
        assert np.all(data[:, 4] == 0.0)

    def test_kepler_rhs_column_equals_G(self, tmp_path):
        cfg = {
            "system": {
                "kind": "kepler",
                "functions": {"F": "0", "G": "1 + 0.1*cos(theta)", "V": "0.2*sin(theta)^2"},
            },
            "initial_state": {"coords": "polar", "r": 1.0, "theta": 1.0, "rdot": 0.0, "thetadot": 1.5},
            "t_span": [0.0, 1.0],
            "samples": 40,
        }
        out = tmp_path / "out"
        assert main(["linearize", "--config", str(_write(tmp_path, "c.json", cfg)), "--out", str(out)]) == 0
        _, data = _read_csv(out / "linear_ode.csv")
        expected = 1.0 + 0.1 * np.cos(data[:, 0])
        assert np.max(np.abs(data[:, 4] - expected)) <= 1e-12

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_psi_column_is_the_pipeline_solution(self, tmp_path, preset):
        out = tmp_path / "out"
        assert main(["linearize", "--preset", preset, "--out", str(out)]) == 0
        _, data = _read_csv(out / "linear_ode.csv")
        cfg = preset_config(preset)
        pipe = build_pipeline(
            build_spec(cfg),
            cfg.polar_state,
            theta_domain=(data[0, 0], data[-1, 0]),
            t_window=cfg.t_span,
        )
        assert [pipe.solution.psi(th) for th in data[:, 0]] == data[:, 5].tolist()

    def test_theta_beyond_turning_names_angle(self, tmp_path, capsys):
        cfg = _winternitz_config(theta_span=[0.1, 3.0])
        out = tmp_path / "out"
        code = main(["linearize", "--config", str(_write(tmp_path, "c.json", cfg)), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "0.741" in err  # names the turning angle

    @pytest.mark.parametrize("command", ["linearize", "reconstruct", "validate"])
    def test_initial_angle_at_turning_point_names_potential(self, tmp_path, capsys, command):
        # r = 1e-60 leaves no angular momentum: the level equals V(theta0) = 1
        cfg = copy.deepcopy(PRESETS["winternitz-default"])
        cfg["initial_state"]["r"] = 1e-60
        out = tmp_path / "out"
        code = main([command, "--config", str(_write(tmp_path, "c.json", cfg)), "--out", str(out)])
        if command == "validate":
            assert code == 1
            message = json.loads((out / "report.json").read_text())["checks"]["round_trip"]["error"]
        else:
            assert code == 2
            message = capsys.readouterr().err
        assert "turning point at theta=1.5707963267948966" in message
        assert "potential 1.0" in message
        assert "nan" not in message and "forbidden" not in message


class TestReconstruct:
    def test_uniform_rotation_linear_theta(self, tmp_path):
        out = tmp_path / "out"
        assert main(["reconstruct", "--preset", "uniform-rotation", "--out", str(out)]) == 0
        _, data = _read_csv(out / "reconstructed.csv")
        assert np.max(np.abs(data[:, 1] - data[:, 0])) <= 1e-9  # theta = t
        assert np.max(np.abs(data[:, 2] - 1.0)) <= 1e-9  # r = 1

    def test_matches_simulation(self, tmp_path):
        cfg_path = _write(tmp_path, "run.json", _winternitz_config(samples=40))
        out_sim, out_rec = tmp_path / "s", tmp_path / "r"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_sim)]) == 0
        assert main(["reconstruct", "--config", str(cfg_path), "--out", str(out_rec)]) == 0
        _, sim = _read_csv(out_sim / "trajectory.csv")
        _, rec = _read_csv(out_rec / "reconstructed.csv")
        assert np.max(np.abs(sim[:, 0] - rec[:, 0])) == 0.0  # same time grid
        assert np.max(np.abs(sim[:, 2] - rec[:, 1])) <= 1e-5  # theta
        assert np.max(np.abs(sim[:, 1] - rec[:, 2])) <= 1e-5  # r

    def test_free_motion_demo_affine_psi(self, tmp_path):
        out = tmp_path / "out"
        assert main(["reconstruct", "--preset", "free-motion-demo", "--out", str(out)]) == 0
        _, data = _read_csv(out / "reconstructed.csv")
        psi = 1.0 / data[:, 2]
        coeffs = np.polyfit(data[:, 1], psi, 1)
        resid = np.max(np.abs(np.polyval(coeffs, data[:, 1]) - psi))
        assert resid <= 1e-8


class TestValidate:
    def test_caches_hold_one_system(self, tmp_path):
        # the spec-keyed caches keep compiled trees and quadrature memos alive
        for name in ("uniform-rotation", "free-motion-demo"):
            cfg_path = _write(tmp_path, f"{name}.json", _cheap_preset(name))
            assert main(["validate", "--config", str(cfg_path), "--out", str(tmp_path / name)]) == 0
        caches = [
            systems.frequency_from_linearizable,
            systems._rho_derivatives,
            systems._potential_derivative,
            linearize._winternitz_potential,
        ]
        assert [c.cache_info().currsize <= 1 for c in caches] == [True] * len(caches)

    def test_winternitz_passes(self, tmp_path):
        cfg_path = _write(tmp_path, "run.json", _winternitz_config(samples=50))
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True
        assert set(report["checks"]) == {"invariant_drift", "round_trip", "compatibility"}

    def test_usual_ermakov_harmonic_scale_passes(self, tmp_path):
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
            "samples": 50,
        }
        out = tmp_path / "out"
        assert main(["validate", "--config", str(_write(tmp_path, "c.json", cfg)), "--out", str(out)]) == 0

    def test_family_closed_under_structure_edits(self, tmp_path):
        # editing a structure function in the config produces another valid
        # family member, so a self-consistent run still validates; one-sided
        # tampering (the detector-sensitivity case) is exercised at the API
        # level in the linearize tests
        # window kept clear of this system's angular turning point at t ~ 1.27
        cfg = _winternitz_config(samples=40, t_span=[0.0, 1.0])
        cfg["system"] = {
            "kind": "linearizable",
            "functions": {
                "rho": "1", "A": "0", "B": "0", "C": "1 + L^2",
                "F": "2*((1 + 0.5*cos(theta))/sin(theta)^2 + 1)",
                "V": "(1 + 0.5*cos(theta))/sin(theta)^2",
            },
        }
        out = tmp_path / "out"
        code = main(["validate", "--config", str(_write(tmp_path, "c.json", cfg)), "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert report["checks"]["compatibility"]["pass"] is True
        assert code == 0

    def test_builds_its_system_once(self, tmp_path, monkeypatch):
        calls = []
        original = ermakov.config.free_motion_system

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(ermakov.config, "free_motion_system", counted)
        out = tmp_path / "out"
        assert main(["validate", "--preset", "free-motion-demo", "--out", str(out)]) == 0
        assert len(calls) == 1

    def test_report_shape_on_pipeline_failure(self, tmp_path):
        # start exactly at a turning point: the pipeline cannot be built
        cfg = _winternitz_config()
        cfg["initial_state"]["thetadot"] = 0.0
        cfg["initial_state"]["rdot"] = 0.5
        out = tmp_path / "out"
        code = main(["validate", "--config", str(_write(tmp_path, "c.json", cfg)), "--out", str(out)])
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is False
        assert report["checks"]["round_trip"]["pass"] is False


def test_every_error_class_is_a_value_error():
    # the CLI maps runtime failures to exit 2 with a single `except ValueError`
    found = []
    for info in pkgutil.iter_modules(ermakov.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"ermakov.{info.name}")
        found += [
            obj
            for obj in vars(module).values()
            if inspect.isclass(obj)
            and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
        ]
    assert {"ConfigError", "EvaluationError", "LinearizationError"} <= {c.__name__ for c in found}
    assert [c.__name__ for c in found if not issubclass(c, ValueError)] == []


def _fields(node, path=()):
    """Every field path of a config, containers included."""
    if path:
        yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _fields(child, path + (key,))


_CHEAP_PRESETS = {name: _cheap_preset(name) for name in sorted(PRESETS)}
_FIELDS = [(name, path) for name, cfg in _CHEAP_PRESETS.items() for path in _fields(cfg)]
_FINITE = st.floats(-1.0, 1.0, allow_subnormal=False)
_JUNK = st.one_of(
    st.integers(10**309, 10**400),  # too large for a float
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.booleans(),
    st.none(),
    st.text(alphabet="0123456789.+-*/^() tuvLpisncoexqrghÀ²", max_size=10),
    st.lists(_FINITE, max_size=3),
    st.sampled_from([[0.0, 0.0], [1.0, 1.0]]),  # degenerate spans
)


def _at(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


def _new_value(field):
    """Half numbers where the preset holds a number, within the cheap ranges."""
    name, path = field
    if type(_at(_CHEAP_PRESETS[name], path)) not in (int, float):
        return _JUNK
    numbers = st.integers(2, 20) if path == ("samples",) else _FINITE | st.integers(-1, 1)
    # one_of would flatten both into one list of branches and weight each branch alike
    return st.sampled_from([numbers, _JUNK]).flatmap(lambda values: values)


_CHANGES = st.sampled_from(_FIELDS).flatmap(lambda f: st.tuples(st.just(f), _new_value(f)))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    change=_CHANGES,
    command=st.sampled_from(["simulate", "linearize", "reconstruct", "validate"]),
)
@example(change=(("winternitz-default", ("t_span", 1)), 10**400), command="simulate")
@example(change=(("uniform-rotation", ("samples",)), 10**17), command="linearize")
@example(change=(("free-motion-demo", ("system", "functions", "f")), "À"), command="simulate")
@example(
    change=(("uniform-rotation", ("system", "functions", "V")), "(" * 3000 + "0" + ")" * 3000),
    command="simulate",
)
@example(change=(("winternitz-default", ("initial_state", "r")), 1e-60), command="simulate")
def test_one_changed_field_keeps_the_exit_code_contract(change, command):
    (name, path), value = change
    cfg = copy.deepcopy(_CHEAP_PRESETS[name])
    _at(cfg, path[:-1])[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "c.json"
        cfg_path.write_text(json.dumps(cfg))  # NaN and infinities go out as JSON literals
        out = Path(tmp) / "out"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([command, "--config", str(cfg_path), "--out", str(out)])
        assert code in (0, 1, 2)
        if code == 2 and "stopped early" in stdout.getvalue():  # partial output is written
            assert (out / "trajectory.csv").is_file() and (out / "summary.json").is_file()
