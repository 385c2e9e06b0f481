import argparse
import contextlib
import copy
import gc
import importlib
import importlib.util
import inspect
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile
import time
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ermakov
from ermakov import integration, linearize, systems
from ermakov.cli import main
from ermakov.config import KINDS, PRESETS, ConfigError, build_spec, load_config, preset_config
from ermakov.expressions import FUNCTIONS
from ermakov.linearize import solve_from_state
from ermakov.numerics import linspace
from test_acceptance import LIBRATING_CONFIG


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


# winternitz with g2 > g1: V = (g1 + g2 cos theta)/sin^2 theta falls to minus
# infinity at theta = pi, and the orbit reaches it
_POLE_PARAMS = {"mu0": 0.3, "g1": 0.6075, "g2": 1.5456, "g3": 1.1976}
_POLE_STATE = {"r": 1.2845, "theta": 2.2937, "rdot": 0.3068, "thetadot": 0.3}


def _cheap_preset(name):
    """A preset config shortened to at most one time unit and 12 samples."""
    cfg = copy.deepcopy(PRESETS[name])
    cfg["t_span"] = [0.0, min(cfg["t_span"][1], 1.0)]
    cfg["samples"] = 12
    return cfg


def _same_outputs():
    """The byte-identity script, imported: its workflow configs and preset variants."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "same_outputs.py"
    loader = importlib.util.spec_from_file_location("same_outputs", path)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


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

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize(
        "preset, path, value, message",
        [
            ("winternitz-default", ("params", "mu0"), -1, "mu0 must be a finite nonnegative number, got -1.0"),
            ("free-motion-demo", ("functions", "rho"), "0", "rho vanishes identically"),
        ],
    )
    def test_spec_a_constructor_rejects(self, tmp_path, capsys, command, preset, path, value, message):
        # the config parses, but the spec it describes cannot be built
        cfg = copy.deepcopy(PRESETS[preset])
        cfg["system"][path[0]][path[1]] = value
        cfg_path = _write(tmp_path, "c.json", cfg)
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: system: {message}\n"

    @pytest.mark.parametrize("command", ["simulate", "linearize", "reconstruct", "validate"])
    @pytest.mark.parametrize(
        "state, message",
        [
            ({"x": 0.0, "y": 0.0}, "cannot convert the origin to polar coordinates"),
            ({"x": 1e-200, "y": 1e-200}, "cannot convert the origin to polar coordinates"),  # r^2 underflows
            ({"x": 1e200, "y": 1e200}, "the cartesian state has no finite polar form"),  # r overflows
            ({"x": 1e150, "xdot": 1e200}, "the cartesian state has no finite polar form"),  # rdot overflows
        ],
    )
    def test_cartesian_state_with_no_finite_polar_form(self, tmp_path, capsys, command, state, message):
        cfg = _same_outputs().workflow_config("CARTESIAN_STATE_CONFIG")
        cfg["initial_state"].update(state)
        out = tmp_path / "out"
        assert main([command, "--config", str(_write(tmp_path, "c.json", cfg)), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: initial_state: {message}")
        assert not out.exists()

    def test_cartesian_state_is_converted_at_load(self, tmp_path):
        # winternitz-default's state, r = 1 and thetadot = 2 at theta = pi/2, in cartesian form
        cfg = copy.deepcopy(PRESETS["winternitz-default"])
        cfg["initial_state"] = {"coords": "cartesian", "x": 0.0, "y": 1.0, "xdot": -2.0, "ydot": 0.0}
        assert load_config(cfg) == preset_config("winternitz-default")
        path = _write(tmp_path, "c.json", cfg)
        for command in ("simulate", "linearize", "reconstruct", "validate"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / "cartesian" / command)]) == 0
            assert main([command, "--preset", "winternitz-default", "--out", str(tmp_path / "polar" / command)]) == 0
        files = _files(tmp_path / "polar")
        assert len(files) == 5 and _files(tmp_path / "cartesian") == files


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

    def test_vanishing_constant_rho_is_a_named_error(self, tmp_path, capsys):
        # rho^2 underflows to 0, and so does h psi^2 at psi = rho/r
        cfg = copy.deepcopy(PRESETS["uniform-rotation"])
        cfg["system"]["functions"]["rho"] = "1e-200"
        path = _write(tmp_path, "c.json", cfg)
        assert main(["reconstruct", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: linear solve stopped at theta=0.0") and "Traceback" not in err
        assert main(["validate", "--config", str(path), "--out", str(tmp_path / "v")]) == 1
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((tmp_path / "v" / "report.json").read_text())
        assert report["checks"]["round_trip"]["error"].startswith("linear solve stopped")

    # (r^2 thetadot)^2 overflows: the level is inf and its drift NaN, with no warning
    @pytest.mark.parametrize(
        "preset, r",
        [("winternitz-default", 1e150), ("uniform-rotation", 1e100), ("free-motion-demo", 1e150)],
    )
    @pytest.mark.parametrize("command, code", [("simulate", 2), ("validate", 1)])
    def test_overflowing_invariant_raises_no_runtime_warning(
        self, tmp_path, capsys, preset, r, command, code
    ):
        cfg = copy.deepcopy(PRESETS[preset])
        cfg["initial_state"]["r"] = r
        path = _write(tmp_path, "c.json", cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == code
        assert capsys.readouterr().err == ""

    # a span shorter than the smallest step the integrator may start with
    @pytest.mark.parametrize("t_span", [[0.0, 1e-300], [1e6, 1e6 + 1e-10]])
    def test_span_below_the_smallest_step_is_one_step(self, tmp_path, t_span):
        cfg = copy.deepcopy(PRESETS["winternitz-default"])
        cfg["initial_state"]["t"] = t_span[0]
        cfg["t_span"] = t_span
        path = _write(tmp_path, "c.json", cfg)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
        summary = json.loads((tmp_path / "s" / "summary.json").read_text())
        assert summary["termination"] == "completed"
        assert summary["steps"]["accepted"] == 1
        assert main(["validate", "--config", str(path), "--out", str(tmp_path / "v")]) == 0

    def test_event_location_ends_at_large_times(self, tmp_path):
        # one ulp of t = 1e6 exceeds the event time tolerance; a fresh process
        # with a timeout, so a bisection that never ends fails instead of hanging
        cfg = copy.deepcopy(PRESETS["winternitz-default"])
        cfg["initial_state"]["t"] = 1e6
        cfg["t_span"] = [1e6, 1e6 + 10.0]
        path = _write(tmp_path, "c.json", cfg)
        done = subprocess.run(
            [sys.executable, "-m", "ermakov", "simulate", "--config", str(path), "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(ermakov.__file__).resolve().parents[1])},
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["termination"] == "completed"

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = _write(tmp_path, "run.json", _winternitz_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


    @pytest.mark.parametrize("command", ["simulate", "linearize", "reconstruct", "validate"])
    def test_sample_count_beyond_memory(self, tmp_path, capsys, command):
        # 10**17 samples is 711 PiB: the sample grid is one allocation, which fails at once
        cfg_path = _write(tmp_path, "c.json", _winternitz_config(samples=10**17))
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestLinearize:
    def test_workflow_theta_span_grid_holds_the_initial_angle(self, tmp_path):
        # the workflow's THETA_SPAN_CONFIG: grid point 100 of 201 is theta0 = 1.0 itself,
        # answered from the initial data between the sweeps below and above it
        same_outputs = _same_outputs()
        cfg = same_outputs.workflow_config("THETA_SPAN_CONFIG")
        assert cfg == {**same_outputs.workflow_config("RHO_T_CONFIG"), "theta_span": [0.5, 1.5], "samples": 201}
        assert "THETA_SPAN_CONFIG" in same_outputs.WORKFLOW_CONFIGS.values()
        grid = linspace(0.5, 1.5, 201)
        assert 1.0 in grid and cfg["initial_state"]["theta"] == 1.0
        out = tmp_path / "out"
        assert main(["linearize", "--config", str(_write(tmp_path, "c.json", cfg)), "--out", str(out)]) == 0
        _, data = _read_csv(out / "linear_ode.csv")
        assert data[:, 0].tolist() == grid
        assert data[grid.index(1.0), 5] == 1.0 / 1.05  # psi0 = rho(0)/r

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
        sol = solve_from_state(build_spec(cfg), cfg.initial_state)
        assert sol.window == (data[0, 0], data[-1, 0])
        assert [sol.psi(th) for th in data[:, 0]] == data[:, 5].tolist()

    @pytest.mark.parametrize("case", [*sorted(PRESETS), "librating", "winternitz-near-turning"])
    def test_p2_column_is_twice_the_gap(self, tmp_path, case):
        # p2 = L^2 from the L carried along the solve; ode.gap evaluates V.  The librating
        # domain ends at turning margins on both sides, where L is smallest; the
        # winternitz span starts 1e-6 past the turning angle 0.741576, where p2 is about 1e-5
        configs = {
            "librating": LIBRATING_CONFIG,
            "winternitz-near-turning": {**PRESETS["winternitz-default"], "theta_span": [0.741577, 1.6]},
        }
        out = tmp_path / "out"
        if case in PRESETS:
            source, cfg = ["--preset", case], preset_config(case)
        else:
            source, cfg = ["--config", str(_write(tmp_path, "c.json", configs[case]))], load_config(configs[case])
        assert main(["linearize", *source, "--out", str(out)]) == 0
        _, data = _read_csv(out / "linear_ode.csv")
        ode = solve_from_state(build_spec(cfg), cfg.initial_state).ode
        direct = np.array([2.0 * ode.gap(th) for th in data[:, 0]])
        assert np.all(np.abs(data[:, 1] - direct) <= 1e-9 * (1.0 + np.abs(direct)))
        if case == "winternitz-near-turning":
            assert direct[0] < 2e-5

    def test_turning_point_start_is_named(self, tmp_path, capsys):
        # V = 0.3 sin^2 theta peaks at theta0 = pi/2, where the level clears it by
        # (r^2 thetadot)^2/2 = 5e-15, inside the turning tolerance; the span's check
        # grid misses the peak, and the initial L names it
        cfg = {
            "system": {
                "kind": "linearizable",
                "functions": {"rho": "1", "A": "0", "B": "0", "C": "0", "F": "0", "V": "0.3*sin(theta)^2"},
            },
            "initial_state": {"coords": "polar", "r": 1.0, "theta": math.pi / 2, "rdot": 0.0, "thetadot": 1e-7},
            "t_span": [0.0, 1.0],
            "theta_span": [1.0, 2.2],
        }
        out = tmp_path / "out"
        assert main(["linearize", "--config", str(_write(tmp_path, "c.json", cfg)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: turning point at theta=1.5707963267948966 (invariant 0.3")
        assert not (out / "linear_ode.csv").exists()

    def test_theta_span_where_the_potential_is_undefined(self, tmp_path, capsys):
        # U(tan theta) is defined for theta in (0, pi/2) only
        cfg = copy.deepcopy(PRESETS["free-motion-demo"])
        cfg["theta_span"] = [-0.2, 0.8]
        out = tmp_path / "out"
        code = main(["linearize", "--config", str(_write(tmp_path, "c.json", cfg)), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: potential undefined at theta=-0.2: U domain error at -0.2027")
        assert "forbidden" not in err and "inf" not in err

    def test_theta_beyond_turning_names_angle(self, tmp_path, capsys):
        cfg = _winternitz_config(theta_span=[0.1, 3.0])
        out = tmp_path / "out"
        code = main(["linearize", "--config", str(_write(tmp_path, "c.json", cfg)), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "0.741" in err  # names the turning angle

    def test_theta_span_must_contain_the_initial_angle(self, tmp_path, capsys):
        path = _write(tmp_path, "c.json", _winternitz_config(theta_span=[2.0, 2.5], samples=8))
        assert main(["linearize", "--config", str(path), "--out", str(tmp_path / "lin")]) == 1
        err = capsys.readouterr().err
        assert err == (
            "config error: theta_span: [2.0, 2.5] excludes the initial angle 1.5707963267948966\n"
        )
        for command in ("simulate", "reconstruct", "validate"):  # they ignore theta_span
            assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 0

    # free motion f = u at theta = 1e-9, next to the log singularity of U(tan theta) at 0
    _NEAR_SINGULARITY = {
        "system": {"kind": "free_motion", "functions": {"f": "u", "rho": "1"}},
        "initial_state": {"coords": "polar", "r": 1.0, "theta": 1e-9, "rdot": -0.2, "thetadot": 1.0},
        "t_span": [0.0, 0.1],
        "samples": 5,
    }

    @pytest.mark.parametrize("command", ["reconstruct", "validate"])
    def test_empty_scanned_domain_is_a_domain_error(self, tmp_path, capsys, command):
        # the run in angular time falls into the singularity at theta = 0, as simulate does
        out, path = tmp_path / "out", _write(tmp_path, "c.json", self._NEAR_SINGULARITY)
        code = main([command, "--config", str(path), "--out", str(out)])
        if command == "validate":
            assert code == 1
            message = json.loads((out / "report.json").read_text())["checks"]["round_trip"]["error"]
        else:
            assert code == 2
            message = capsys.readouterr().err
        assert "linear solve stopped at theta=4.3" in message and "(step_size_underflow)" in message

    def test_domain_next_to_a_singularity_stops_short_of_it(self, tmp_path):
        # the angle solve's run down stalls short of theta = 0, its run up meets the
        # turning margin a little above theta0
        out = tmp_path / "out"
        path = _write(tmp_path, "c.json", self._NEAR_SINGULARITY)
        assert main(["linearize", "--config", str(path), "--out", str(out)]) == 0
        _, data = _read_csv(out / "linear_ode.csv")
        assert 0.0 < data[0, 0] < 1e-12 and 1e-9 < data[-1, 0] < 1e-8
        assert np.all(np.isfinite(data))

    def test_pole_of_the_potential_ends_the_domain_short_of_it(self, tmp_path):
        # the workflow's POLE_CONFIG: V falls to minus infinity at theta = pi, where the run
        # up stalls and stops; the run down meets the turning margin
        cfg = _same_outputs().workflow_config("POLE_CONFIG")
        assert cfg["system"]["params"] == _POLE_PARAMS
        assert {k: cfg["initial_state"][k] for k in _POLE_STATE} == _POLE_STATE
        out, path = tmp_path / "out", _write(tmp_path, "c.json", cfg)
        start = time.perf_counter()
        assert main(["linearize", "--config", str(path), "--out", str(out)]) == 0
        assert time.perf_counter() - start < 0.5
        _, data = _read_csv(out / "linear_ode.csv")
        loaded = load_config(cfg)
        sol = solve_from_state(build_spec(loaded), loaded.initial_state)
        assert sol.window == (data[0, 0], data[-1, 0])
        assert (sol.down.termination, sol.up.termination) == ("event:turning_margin", "stopped")
        assert 3.14 < data[-1, 0] < math.pi

    @pytest.mark.parametrize("command", ["linearize"])
    def test_initial_angle_at_turning_point_names_potential(self, tmp_path, capsys, command):
        # r = 1e-60 leaves no angular momentum: the level equals V(theta0) = 1
        cfg = copy.deepcopy(PRESETS["winternitz-default"])
        cfg["initial_state"]["r"] = 1e-60
        out = tmp_path / "out"
        assert main([command, "--config", str(_write(tmp_path, "c.json", cfg)), "--out", str(out)]) == 2
        message = capsys.readouterr().err
        assert "turning point at theta=1.5707963267948966" in message
        assert "potential 1.0" in message
        assert "nan" not in message and "forbidden" not in message

    @pytest.mark.parametrize("command", ["reconstruct", "validate"])
    def test_tiny_radius_stops_the_time_run_at_its_start(self, tmp_path, capsys, command):
        # r = 1e-60: psi = 1e60 swings at a rate no step of tau can resolve, as r does for
        # simulate; the run needs no angle domain, so no turning point is named
        cfg = copy.deepcopy(PRESETS["winternitz-default"])
        cfg["initial_state"]["r"] = 1e-60
        out = tmp_path / "out"
        code = main([command, "--config", str(_write(tmp_path, "c.json", cfg)), "--out", str(out)])
        if command == "validate":
            assert code == 1
            message = json.loads((out / "report.json").read_text())["checks"]["round_trip"]["error"]
        else:
            assert code == 2
            message = capsys.readouterr().err.removeprefix("error: ").strip()
        assert message == "linear solve stopped at theta=1.5707963267948966, t=0.0 (step_size_underflow)"
        assert main(["simulate", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "s")]) == 2

    # (r^2 thetadot)^2 overflows: an infinite level is not a turning point
    @pytest.mark.parametrize(
        "preset, r, command",
        [
            (preset, r, command)
            for preset, r in [
                ("winternitz-default", 1e150), ("uniform-rotation", 1e100), ("free-motion-demo", 1e150)
            ]
            for command in ("linearize", "reconstruct", "validate")
        ],
    )
    def test_overflowing_invariant_names_a_non_finite_level(self, tmp_path, capsys, preset, r, command):
        cfg = copy.deepcopy(PRESETS[preset])
        cfg["initial_state"]["r"] = r
        out = tmp_path / "out"
        code = main([command, "--config", str(_write(tmp_path, "c.json", cfg)), "--out", str(out)])
        if command == "validate":
            assert code == 1
            message = json.loads((out / "report.json").read_text())["checks"]["round_trip"]["error"]
        else:
            assert code == 2
            message = capsys.readouterr().err
        assert "invariant level inf at the initial state is not finite" in message
        assert "turning point" not in message


class TestReconstruct:
    def test_last_sample_within_rounding_of_the_window_end(self, tmp_path):
        # rho = 1 + a t^2: Theta at theta(t_end) lands a few ulp past the end
        # of the Tau run, which is t_end itself
        cfg = {
            "system": {
                "kind": "linearizable",
                "functions": {
                    "rho": "1 + a*t^2", "A": "sin(theta)", "B": "L", "C": "c0",
                    "F": "0", "V": "v0*sin(theta)^2",
                },
                "params": {
                    "a": 0.10669050478658262, "c0": 0.6598405691121524, "v0": 0.31798295783235514
                },
            },
            "initial_state": {
                "coords": "polar", "r": 1.011794615283574, "theta": 1.0419044409251672,
                "rdot": 0.10991662987041691, "thetadot": 1.2429473105451267,
            },
            "t_span": [0.0, 1.0008013447464166],
            "samples": 2,
        }
        path, out = _write(tmp_path, "c.json", cfg), tmp_path / "out"
        assert main(["reconstruct", "--config", str(path), "--out", str(out)]) == 0
        _, data = _read_csv(out / "reconstructed.csv")
        assert data[-1, 0] == 1.0008013447464166

    def test_pole_of_the_potential_is_a_named_error_in_well_under_a_second(self, tmp_path, capsys):
        # the run meets the pole at theta = pi where simulate stops, and stops there too
        cfg = _winternitz_config(t_span=[0.0, 10.0])
        cfg["system"]["params"] = _POLE_PARAMS
        cfg["initial_state"].update(_POLE_STATE)
        path = _write(tmp_path, "c.json", cfg)
        start = time.perf_counter()
        assert main(["reconstruct", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        elapsed = time.perf_counter() - start
        assert capsys.readouterr().err.splitlines() == [
            "error: linear solve stopped at theta=3.141591786741305, t=0.8101104870295297 (step_size_underflow)"
        ]
        assert elapsed < 0.5
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "s")]) == 2
        summary = json.loads((tmp_path / "s" / "summary.json").read_text())
        assert summary["termination"] == "step_size_underflow"
        assert summary["t_final"] == pytest.approx(0.8101104870295297, abs=1e-9)

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


class TestCompiles:
    """A command compiles each tuple of trees its spec holds once, and no literal."""

    RHO_T = {
        "system": {"kind": "linearizable", "functions": {
            "rho": "1 + 0.1*t^2", "A": "sin(theta)", "B": "L", "C": "0.8", "F": "0",
            "V": "0.3*sin(theta)^2"}},
        "initial_state": {"coords": "polar", "r": 1.05, "theta": 1.0, "rdot": 0.1, "thetadot": 1.3},
        "t_span": [0.0, 1.2],
    }
    FREE_MOTION = {
        "system": {"kind": "free_motion", "functions": {"f": "0.5*u", "rho": "1 + 0.1*t"}},
        "initial_state": {"coords": "polar", "r": 1.0, "theta": 0.77, "rdot": -0.2, "thetadot": 1.0},
        "t_span": [0.0, 0.12],
        "samples": 8,
    }
    KEPLER = {
        "system": {"kind": "kepler", "functions": {
            "F": "0.4 + 0.1*cos(theta)^2", "G": "1", "V": "0.2*cos(theta)^2"}},
        "initial_state": {"coords": "polar", "r": 1.0, "theta": 1.0, "rdot": 0.05, "thetadot": 1.3},
        "t_span": [0.0, 1.5],
        "samples": 12,
    }

    @staticmethod
    def _lowered(monkeypatch, tmp_path, command, cfg):
        """The spec the config builds, and the tuples of trees the command lowers."""
        import ermakov.expressions as expressions

        real, calls = expressions._lower, []
        monkeypatch.setattr(
            expressions, "_lower", lambda trees, *rest: calls.append(trees) or real(trees, *rest)
        )
        path = _write(tmp_path, "run.json", cfg)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        return build_spec(load_config(path)), calls

    @pytest.mark.parametrize("cfg", [RHO_T, FREE_MOTION], ids=["rho-t", "free-motion"])
    def test_validate_reads_the_compatibility_terms_from_the_spec_tuples(
        self, monkeypatch, tmp_path, cfg
    ):
        spec, calls = self._lowered(monkeypatch, tmp_path, "validate", cfg)
        alone = [(spec.A,), (spec.B,), (spec.C,), (spec.omega_sq,)]
        assert [trees for trees in calls if trees in alone] == []
        assert len(calls) <= 5

    def test_reconstruct_on_kepler_lowers_one_function(self, monkeypatch, tmp_path):
        # (A, B, C, F, dV/dtheta): nothing evaluates V; rho = 1 and rho' = 0 are literals
        spec, calls = self._lowered(monkeypatch, tmp_path, "reconstruct", self.KEPLER)
        assert calls == [(spec.A, spec.B, spec.C, spec.F, spec.dV)]


# both runs cross theta = 0, where the slope U'(tan theta) has a value but the
# potential, a quadrature of it in ln w, has none
_NO_POTENTIAL = {
    "cartesian": {
        "system": {"kind": "cartesian", "functions": {"f": "0.01*u", "g": "0", "omega2": "1"}},
        "initial_state": {"coords": "polar", "r": 1.0, "theta": 0.3, "rdot": 0.0, "thetadot": -1.0},
        "t_span": [0.0, 2.0],
    },
    "free-motion": {
        "system": {"kind": "free_motion", "functions": {"f": "u^2", "rho": "1"}},
        "initial_state": {"coords": "polar", "r": 1.0, "theta": 0.2, "rdot": 0.0, "thetadot": -1.0},
        "t_span": [0.0, 1.0],
    },
}


class TestPotentialWithoutValue:
    """A direct run whose nodes reach angles where V has no value is kept and reported."""

    @pytest.mark.parametrize("name", sorted(_NO_POTENTIAL))
    def test_simulate_writes_the_run_and_names_the_error(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        path = _write(tmp_path, "c.json", _NO_POTENTIAL[name])
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "" and len(captured.out.splitlines()) == 1
        assert captured.out.startswith("simulate: ") and "Traceback" not in captured.out
        assert sorted(p.name for p in out.iterdir()) == ["summary.json", "trajectory.csv"]
        invariant = json.loads((out / "summary.json").read_text())["invariant"]
        assert list(invariant) == ["error"] and invariant["error"].startswith("U domain error at -")
        _, data = _read_csv(out / "trajectory.csv")
        no_value = np.tan(data[:, 2]) <= 0.0
        assert 0 < no_value.sum() < len(data)
        assert np.array_equal(np.isnan(data[:, 5]), no_value)
        assert np.all(np.isfinite(np.delete(data, 5, axis=1)))

    def test_validate_records_the_error_and_runs_its_other_checks(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = _write(tmp_path, "c.json", _NO_POTENTIAL["free-motion"])
        assert main(["validate", "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "" and "Traceback" not in captured.out
        assert [p.name for p in out.iterdir()] == ["report.json"]
        report = json.loads((out / "report.json").read_text())
        drift = report["checks"]["invariant_drift"]
        assert list(drift) == ["error", "pass"] and drift["error"].startswith("U domain error at -")
        assert drift["pass"] is False and report["pass"] is False
        assert sorted(report["checks"]) == ["compatibility", "invariant_drift", "round_trip"]


class TestValidate:
    @pytest.mark.parametrize("name", ["librating", "mirrored-winternitz-default"])
    def test_passes_through_turning_points(self, tmp_path, name):
        # the librating Kepler orbit turns 16 times; the mirrored preset nears its
        # turning angle as r grows, past linearize's turning margin
        if name == "librating":
            cfg = LIBRATING_CONFIG
        else:
            cfg = copy.deepcopy(PRESETS["winternitz-default"])
            cfg["initial_state"]["thetadot"] = -cfg["initial_state"]["thetadot"]
        out = tmp_path / "out"
        assert main(["validate", "--config", str(_write(tmp_path, "c.json", cfg)), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["checks"]["round_trip"]["pass"] is True

    def test_workflow_backward_config_is_the_reversed_preset(self, tmp_path):
        # the workflow's BACKWARD_CONFIG is a reversed preset the byte check runs: its
        # round trip inverts the falling t column of the pipeline's backward run
        same_outputs = _same_outputs()
        cfg = same_outputs.workflow_config("BACKWARD_CONFIG")
        assert cfg == {**PRESETS["winternitz-default"], "t_span": [0.0, -10.0]}
        assert same_outputs.preset_variants()["reversed-winternitz-default"] == (cfg, same_outputs.REVERSED)
        out = tmp_path / "out"
        assert main(["validate", "--config", str(_write(tmp_path, "c.json", cfg)), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["checks"]["round_trip"]["pass"] is True

    def test_alternating_specs_build_each_frequency_once(self, monkeypatch):
        # each spec keeps its own induced frequency, whichever spec came last
        built = []
        real = systems.frequency_from_linearizable

        def counted(spec):
            built.append(spec)
            return real(spec)

        monkeypatch.setattr(systems, "frequency_from_linearizable", counted)
        specs = [
            build_spec(preset_config("winternitz-default")),
            ermakov.LinearizableSpec(rho="1 + 0.1*t^2", A="sin(theta)", B="L", C="0.8", F="0", V="0"),
        ]
        state = ermakov.PolarState(1.05, 1.0, 0.1, 1.3, t=0.4)
        for _ in range(10):
            for spec in specs:
                systems.polar_rhs_function(spec)(0.4, (1.05, 1.0, 0.1, 1.3))
                assert linearize.verify_compatibility(spec, state) <= 1e-12
        assert built == specs

    def test_validate_keeps_no_spec_alive(self, tmp_path, monkeypatch):
        # derived trees, compiled functions and the U memo go with the run's spec
        refs = []

        def recording(cfg):
            spec = build_spec(cfg)
            refs.append(weakref.ref(spec))
            return spec

        monkeypatch.setattr(ermakov.cli, "build_spec", recording)
        path = _write(tmp_path, "c.json", _cheap_preset("free-motion-demo"))
        assert main(["validate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        gc.collect()
        assert len(refs) == 1 and refs[0]() is None

    def test_builds_the_pipeline_reconstruct_builds(self, tmp_path, monkeypatch):
        calls = []
        real = ermakov.cli.build_pipeline

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(ermakov.cli, "build_pipeline", recording)
        path = _write(tmp_path, "c.json", _cheap_preset("winternitz-default"))
        for command in ("reconstruct", "validate"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 0
        assert len(calls) == 2 and calls[0] == calls[1]

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

    def test_nan_level_mid_run_fails_the_drift_check(self, tmp_path, monkeypatch):
        # one NaN level in the middle of the series: a max() that skipped it would pass
        levels = []
        real = ermakov.integration.invariant_level

        def nan_at_fifth_node(*args):
            levels.append(real(*args))
            return math.nan if len(levels) == 5 else levels[-1]

        monkeypatch.setattr(ermakov.integration, "invariant_level", nan_at_fifth_node)
        path = _write(tmp_path, "c.json", _winternitz_config(samples=50))
        out = tmp_path / "out"
        assert main(["validate", "--config", str(path), "--out", str(out)]) == 1
        assert len(levels) > 10
        check = json.loads((out / "report.json").read_text())["checks"]["invariant_drift"]
        assert math.isnan(check["max_rel"]) and math.isnan(check["rms_rel"])
        assert check["pass"] is False

    def test_report_shape_on_pipeline_failure(self, tmp_path):
        # V = (g1 + g2 cos theta)/sin^2 theta falls to minus infinity at theta = pi
        # (g2 > g1): the run in angular time cannot pass the pole
        cfg = _winternitz_config()
        cfg["system"]["params"] = _POLE_PARAMS
        cfg["initial_state"].update(_POLE_STATE)
        out = tmp_path / "out"
        code = main(["validate", "--config", str(_write(tmp_path, "c.json", cfg)), "--out", str(out)])
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is False
        assert report["checks"]["round_trip"] == {
            "error": "linear solve stopped at theta=3.141591786741305, t=0.8101104870295297 (step_size_underflow)",
            "pass": False,
        }

    def test_inverts_each_sample_time_once(self, tmp_path, monkeypatch):
        calls = []
        real = integration.Trajectory.invert

        def counted(run, column, values):
            values = list(values)
            calls.extend(values)
            return real(run, column, values)

        monkeypatch.setattr(integration.Trajectory, "invert", counted)
        # a constant rho, and rho = 1 + 0.1 t^2, whose radius needs the time
        for command, cfg in [
            ("validate", _cheap_preset("winternitz-default")),
            ("reconstruct", _BASE_CONFIGS["linearizable"]),
        ]:
            calls.clear()
            path = _write(tmp_path, "c.json", cfg)
            assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 0
            # every sample time but the first, t0, whose row is the initial data
            times = linspace(*cfg["t_span"], cfg["samples"])
            assert calls == times[1:]

    @pytest.mark.parametrize("kind", ["polar", "cartesian"])
    def test_kind_without_linearizable_form_fails_before_integrating(
        self, tmp_path, monkeypatch, capsys, kind
    ):
        def integrate_polar(*args, **kwargs):
            raise AssertionError("validate integrated a system it cannot linearize")

        monkeypatch.setattr(ermakov.cli, "integrate_polar", integrate_polar)
        path = _write(tmp_path, "c.json", _BASE_CONFIGS[kind])
        assert main(["validate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("config error: system.kind: ")

    def test_compatibility_error_prints_plain_floats(self, tmp_path):
        # r^3 overflows in the frequency's C term: the message shows the radius as a float
        cfg = copy.deepcopy(PRESETS["winternitz-default"])
        cfg["initial_state"]["r"] = 1e150
        out = tmp_path / "out"
        assert main(["validate", "--config", str(_write(tmp_path, "c.json", cfg)), "--out", str(out)]) == 1
        check = json.loads((out / "report.json").read_text())["checks"]["compatibility"]
        assert check == {"error": "power domain error: 1e+150^3.0", "pass": False}


class TestOutputPath:
    @pytest.mark.parametrize("under", ["file itself", "below a file"])
    def test_out_that_cannot_be_created_is_one_line_and_exit_1(self, tmp_path, capsys, under):
        blocker = tmp_path / "FILE"
        blocker.write_text("")
        out = blocker if under == "file itself" else blocker / "sub"
        assert main(["simulate", "--preset", "uniform-rotation", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot create output directory: ") and err.count("\n") == 1
        assert str(out) in err and blocker.read_text() == ""

    @pytest.mark.parametrize(
        "command, name",
        [("simulate", "summary.json"), ("linearize", "linear_ode.csv"),
         ("reconstruct", "reconstructed.csv"), ("validate", "report.json")],
    )
    def test_result_file_that_cannot_be_written_exits_2(self, tmp_path, capsys, command, name):
        (tmp_path / "D" / name).mkdir(parents=True)  # a directory where the file goes
        assert main([command, "--preset", "uniform-rotation", "--out", str(tmp_path / "D")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and err.count("\n") == 1


class TestArguments:
    @pytest.mark.parametrize("command", ["simulate", "linearize", "reconstruct", "validate"])
    def test_each_command_takes_a_config_or_a_preset(self, command):
        from ermakov.cli import _build_parser

        parse = _build_parser().parse_args
        args = parse([command, "--config", "run.json", "--out", "results"])
        assert (args.command, args.config, args.preset, args.out) == (
            command, Path("run.json"), None, Path("results")
        )
        args = parse([command, "--preset", "uniform-rotation", "--out", "results"])
        assert (args.command, args.config, args.preset) == (command, None, "uniform-rotation")

    USAGE_ERRORS = [
        (["simulate", "--preset", "uniform-rotation"], "the following arguments are required: --out"),
        (["simulate", "--out", "o"], "one of the arguments --config --preset is required"),
        (["simulate", "--config", "c.json", "--preset", "uniform-rotation", "--out", "o"],
         "argument --preset: not allowed with argument --config"),
        (["simulat", "--preset", "uniform-rotation", "--out", "o"], "invalid choice: 'simulat'"),
        (["simulate", "--preset", "nope", "--out", "o"], "invalid choice: 'nope'"),
    ]

    @pytest.mark.parametrize("argv, message", USAGE_ERRORS)
    def test_usage_errors_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ermakov ") and message in err

    def test_one_parser_serves_every_call(self, tmp_path):
        from ermakov import cli

        assert cli._build_parser() is cli._build_parser()
        cli._build_parser.cache_clear()
        init = argparse.ArgumentParser.__init__
        with mock.patch.object(argparse.ArgumentParser, "__init__", autospec=True, side_effect=init) as built:
            for run in ("first", "second"):
                assert main(["simulate", "--preset", "uniform-rotation", "--out", str(tmp_path / run)]) == 0
        assert built.call_count == 1

    def test_usage_errors_after_a_successful_call(self, capsys, tmp_path):
        # the reused parser keeps nothing of the call before: each error reads as on a fresh one
        for k, (argv, message) in enumerate(self.USAGE_ERRORS):
            assert main(["linearize", "--preset", "uniform-rotation", "--out", str(tmp_path / f"ok{k}")]) == 0
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: ermakov ") and message in err, argv


def test_csv_values_are_written_as_format_17g_writes_them(tmp_path):
    from ermakov.cli import _write_csv

    values = (
        math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.225073858507201e-308,
        sys.float_info.max, -sys.float_info.max, 0.1, 1.0 / 3.0, 1e22, 1e16, 123456789.0, 2.0**-1074 * 3,
    )
    rows = [values, values[::-1]]
    header = [f"c{i}" for i in range(len(values))]
    _write_csv(tmp_path / "x.csv", header, rows)
    expected = [",".join(header)] + [",".join(f"{x:.17g}" for x in row) for row in rows]
    assert (tmp_path / "x.csv").read_bytes() == ("\n".join(expected) + "\n").encode()


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


_PRESET_RUNS = """
import json, sys
from ermakov.cli import main
from ermakov.config import PRESETS
codes = {
    f"{command} {preset}": main([command, "--preset", preset, "--out", f"{sys.argv[1]}/{command}-{preset}"])
    for command in ("simulate", "linearize", "reconstruct", "validate")
    for preset in PRESETS
}
print(json.dumps(codes))
"""


def _fresh_interpreter(*args):
    """Run a fresh interpreter that finds this package and nothing else on PYTHONPATH."""
    src = str(Path(ermakov.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_every_command_runs_on_the_standard_library(tmp_path):
    # -S leaves site-packages off sys.path, so no numpy or scipy can be imported
    stdlib, site = tmp_path / "stdlib", tmp_path / "site"
    flags = ("-W", "error::RuntimeWarning", "-c", _PRESET_RUNS)
    codes = json.loads(_fresh_interpreter("-S", *flags, str(stdlib)))
    assert len(codes) == 4 * len(PRESETS) == 12
    assert codes == {run: 0 for run in codes}
    # the same runs in an interpreter with site-packages write the same bytes
    assert json.loads(_fresh_interpreter(*flags, str(site))) == codes
    files = _files(stdlib)
    assert len(files) >= 12 and files == _files(site)


def test_cli_import_loads_no_costly_module():
    # every command pays for what the import loads: dataclasses brings inspect, ast and dis
    costly = ("dataclasses", "inspect", "numpy", "scipy")
    code = f"import sys, ermakov.cli; print([m for m in {costly!r} if m in sys.modules])"
    assert _fresh_interpreter("-c", code) == "[]"


def test_cli_leaves_logging_alone(tmp_path):
    # in a fresh interpreter: pytest's own handlers would hide a configured root logger
    argv = ["linearize", "--preset", "uniform-rotation", "--out", str(tmp_path)]
    code = (
        f"import sys, ermakov.cli; loaded = 'logging' in sys.modules; ermakov.cli.main({argv!r}); "
        "import logging; print([loaded, logging.root.handlers])"
    )
    assert _fresh_interpreter("-c", code) == "[False, []]"


def test_oracles_load_no_package_module():
    # the package is importable here, so only the oracles' own imports keep it out
    tests = str(Path(__file__).resolve().parent)
    code = f"import json, sys; sys.path.insert(0, {tests!r}); import oracles; print(json.dumps(list(sys.modules)))"
    loaded = json.loads(_fresh_interpreter("-c", code))
    assert "oracles" in loaded and [m for m in loaded if m.split(".")[0] == "ermakov"] == []


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


def _cheap_config(system, state=None):
    """A one-time-unit, 12-sample config of a kind that no preset runs."""
    state = state or {"coords": "polar", "r": 1.0, "theta": 1.0, "rdot": 0.1, "thetadot": 1.3}
    return {"system": system, "initial_state": state, "t_span": [0.0, 1.0], "samples": 12}


# every kind, each through all four commands: the presets, and one config per other kind
_BASE_CONFIGS = {
    **{name: _cheap_preset(name) for name in sorted(PRESETS)},
    "cartesian": _cheap_config(
        {"kind": "cartesian", "functions": {"f": "0.3*u", "g": "-0.2*v^2", "omega2": "1"}},
        {"coords": "cartesian", "x": 1.0, "y": 1.0, "xdot": 0.1, "ydot": 0.3},
    ),
    "polar": _cheap_config(
        {"kind": "polar", "functions": {"F": "0.5", "V": "0.2*sin(theta)^2", "omega2": "1"}}
    ),
    "kepler": _cheap_config(
        {
            "kind": "kepler",
            "functions": {"F": "0.3 + 0.1*cos(theta)", "G": "1 + 0.2*sin(theta)", "V": "0.2*sin(theta)^2"},
        }
    ),
    "linearizable": _cheap_config(
        {
            "kind": "linearizable",
            "functions": {
                "rho": "1 + 0.1*t^2", "A": "sin(theta)", "B": "L", "C": "0.8",
                "F": "0", "V": "0.3*sin(theta)^2",
            },
        }
    ),
}
_FIELDS = [(name, path) for name, cfg in _BASE_CONFIGS.items() for path in _fields(cfg)]
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
    """Half numbers where the base config holds a number, within the cheap ranges."""
    name, path = field
    if type(_at(_BASE_CONFIGS[name], path)) not in (int, float):
        return _JUNK
    numbers = st.integers(2, 20) if path == ("samples",) else _FINITE | st.integers(-1, 1)
    # one_of would flatten both into one list of branches and weight each branch alike
    return st.sampled_from([numbers, _JUNK]).flatmap(lambda values: values)


_CHANGES = st.sampled_from(_FIELDS).flatmap(lambda f: st.tuples(st.just(f), _new_value(f)))
_COMMANDS = ["simulate", "linearize", "reconstruct", "validate"]


def _each_base_config_unchanged(test):
    """One example per base config and command, which writes samples back unchanged."""
    for name, cfg in _BASE_CONFIGS.items():
        for command in _COMMANDS:
            test = example(change=((name, ("samples",)), cfg["samples"]), command=command)(test)
    return test


@settings(derandomize=True, deadline=None, max_examples=100)
@given(change=_CHANGES, command=st.sampled_from(_COMMANDS))
@example(change=(("winternitz-default", ("t_span", 1)), 10**400), command="simulate")
@example(change=(("uniform-rotation", ("samples",)), 10**17), command="linearize")
@example(change=(("free-motion-demo", ("system", "functions", "f")), "À"), command="simulate")
@example(
    change=(("uniform-rotation", ("system", "functions", "V")), "(" * 3000 + "0" + ")" * 3000),
    command="simulate",
)
@example(change=(("winternitz-default", ("initial_state", "r")), 1e-60), command="simulate")
@example(change=(("winternitz-default", ("initial_state", "r")), 1e-300), command="validate")
@example(change=(("winternitz-default", ("initial_state", "r")), 1e300), command="validate")
@_each_base_config_unchanged
def test_one_changed_field_keeps_the_exit_code_contract(change, command):
    (name, path), value = change
    cfg = copy.deepcopy(_BASE_CONFIGS[name])
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


# the functions of each kind and the variables each may use
_KIND_FUNCTIONS = {
    "cartesian": {"f": ["u"], "g": ["v"], "omega2": ["t", "x", "y", "xdot", "ydot"]},
    "polar": {"F": ["theta"], "V": ["theta"], "omega2": ["t", "r", "theta", "rdot", "thetadot"]},
    "linearizable": {
        "rho": ["t"], "A": ["theta", "L"], "B": ["theta", "L"], "C": ["theta", "L"],
        "F": ["theta"], "V": ["theta"],
    },
    "kepler": {"F": ["theta"], "G": ["theta"], "V": ["theta"]},
    "free_motion": {"f": ["u"], "rho": ["t"]},
}


def _expression(variables):
    """Expression text of up to four leaves over ``variables``, any operator or function."""
    leaves = st.sampled_from([*variables, "0.5", "2", "0.1"])
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/^"), inner).map(lambda p: "({} {} {})".format(*p)),
            st.tuples(st.sampled_from(sorted(FUNCTIONS)), inner).map(lambda p: "{}({})".format(*p)),
        ),
        max_leaves=4,
    )


def _system(kind):
    if kind == "winternitz":
        params = st.fixed_dictionaries({p: st.floats(0.0, 2.0) for p in ("mu0", "g1", "g2", "g3")})
        return params.map(lambda p: {"kind": kind, "params": p})
    functions = st.fixed_dictionaries({k: _expression(v) for k, v in _KIND_FUNCTIONS[kind].items()})
    return functions.map(lambda f: {"kind": kind, "functions": f})


def _off_axis(lo, hi):
    return st.tuples(st.floats(lo, hi), st.sampled_from([1.0, -1.0])).map(lambda p: p[0] * p[1])


# states off the axes, where couplings such as f(y/x) are singular
_STATES = st.one_of(
    st.builds(
        lambda r, quadrant, angle, rdot, thetadot: {
            "coords": "polar", "r": r, "theta": quadrant * math.pi / 2 + angle,
            "rdot": rdot, "thetadot": thetadot,
        },
        st.floats(0.5, 2.0), st.integers(-2, 1), st.floats(0.2, 1.35),
        st.floats(-0.5, 0.5), _off_axis(0.3, 2.0),
    ),
    st.builds(
        lambda x, y, xdot, ydot: {"coords": "cartesian", "x": x, "y": y, "xdot": xdot, "ydot": ydot},
        _off_axis(0.3, 1.5), _off_axis(0.3, 1.5), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
    ),
)

def _whole_config(kind):
    """A config of ``kind`` with every field drawn; short spans and few samples bound its cost."""
    return st.builds(
        lambda system, state, t_end, samples: {
            "system": system, "initial_state": state, "t_span": [0.0, t_end], "samples": samples,
        },
        _system(kind),
        _STATES,
        st.floats(0.05, 0.5),
        st.integers(2, 6),
    )


@pytest.mark.parametrize("command", _COMMANDS)
@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, deadline=None, max_examples=4)
@given(data=st.data())
def test_whole_configs_keep_the_exit_code_contract(kind, command, data):
    cfg = data.draw(_whole_config(kind))
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        # a run that creeps near a singularity ends at max_steps after 5,000 steps, not 500,000
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                mock.patch.object(integration, "_MAX_STEPS", 5_000):
            code = main([command, "--config", str(cfg_path), "--out", str(out)])
        assert code in (0, 1, 2)
        assert "Traceback" not in stderr.getvalue()
        if code == 2 and "stopped early" in stdout.getvalue():  # partial output is written
            assert (out / "trajectory.csv").is_file() and (out / "summary.json").is_file()
