#!/usr/bin/env python3
"""Check that the working tree writes the same bytes as another revision.

    python3 scripts/same_outputs.py --against REV

Both trees run the same invocations, each tree in fresh interpreters with
its own ``src`` on the path:

- the preset runs: the four commands on each of the three presets;
- the four commands on the workflow's ``RHO_T_CONFIG``, ``POLAR_CONFIG``,
  ``LIBRATING_CONFIG``, ``THETA_SPAN_CONFIG``, ``POLE_CONFIG`` and
  ``CARTESIAN_STATE_CONFIG``;
- ``reconstruct`` and ``validate`` on each preset with its initial
  ``thetadot`` negated, so the angle leaves theta0 the other way, and
  ``simulate``, ``reconstruct`` and ``validate`` on each preset with its
  time span reversed, ``[0, -T]``, so every run goes backward in time (the
  working tree's presets, which are only imported);
- the three experiment scripts (each tree's own copy);
- the first 60 ops of each benchmark workload on seeds 1 and 2, drawn from
  the working tree's ``perfbench/workloads.py``, which is only imported.

Every file written, each command's exit code and messages and each
script's standard output are compared.  Any difference is listed and the
script exits 1; otherwise it exits 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ("winternitz-default", "uniform-rotation", "free-motion-demo")
COMMANDS = ("simulate", "linearize", "reconstruct", "validate")
MIRRORED = ("reconstruct", "validate")  # on the presets with thetadot negated
REVERSED = ("simulate", "reconstruct", "validate")  # on the presets with t_span [0, -T]
WORKFLOW_CONFIGS = {
    "rho-t": "RHO_T_CONFIG",
    "polar": "POLAR_CONFIG",
    "librating": "LIBRATING_CONFIG",
    "theta-span": "THETA_SPAN_CONFIG",
    "pole": "POLE_CONFIG",
    "cartesian-state": "CARTESIAN_STATE_CONFIG",
}
SCRIPTS = {
    "winternitz_roundtrip": ["--out", "roundtrip"],
    "integrator_order": [],
    "free_motion_demo": [],
}
OPS = 60  # first ops of each workload, per seed
SEEDS = (1, 2)

# Runs in a fresh interpreter per tree: argv[1] is the tree's src, argv[2]
# the job list; each job calls the CLI in process, its output under the cwd.
_RUNNER = r"""
import contextlib, io, json, logging, sys
sys.path.insert(0, sys.argv[1])
logging.basicConfig(stream=open("ermakov.log", "w"))
import ermakov.cli
assert ermakov.cli.__file__.startswith(sys.argv[1]), f"imported {ermakov.cli.__file__}"
results = {}
for name, argv in json.load(open(sys.argv[2])):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = ermakov.cli.main(argv + ["--out", name])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"uncaught {type(exc).__name__}: {exc}"
    results[name] = [code, sink.getvalue()]
with open("results.json", "w") as fh:
    json.dump(results, fh, indent=1, sort_keys=True)
"""


def workflow_config(name: str) -> dict:
    """The folded (``>-``) value of an env entry of the CI workflow, as JSON."""
    lines = (ROOT / ".github" / "workflows" / "tests.yml").read_text().splitlines()
    key = next(i for i, line in enumerate(lines) if line.strip() == f"{name}: >-")
    indent = len(lines[key]) - len(lines[key].lstrip())
    value = []
    for line in lines[key + 1:]:
        if len(line) - len(line.lstrip()) <= indent:
            break
        value.append(line.strip())
    return json.loads(" ".join(value))


def preset_variants() -> dict[str, tuple[dict, tuple[str, ...]]]:
    """The working tree's presets, each mirrored (initial thetadot negated) and reversed
    (time span [t0, t0 - T]), by name, with the commands each variant runs."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from ermakov.config import PRESETS as configs
    finally:
        sys.path.pop(0)
    variants = {}
    for name in PRESETS:
        mirrored, reversed_ = json.loads(json.dumps(configs[name])), json.loads(json.dumps(configs[name]))
        mirrored["initial_state"]["thetadot"] = -mirrored["initial_state"]["thetadot"]
        t0, t1 = reversed_["t_span"]
        reversed_["t_span"] = [t0, t0 - (t1 - t0)]
        variants[f"mirrored-{name}"] = mirrored, MIRRORED
        variants[f"reversed-{name}"] = reversed_, REVERSED
    return variants


def jobs(configs: Path) -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of every command run, with its config files written."""
    sys.dont_write_bytecode = True  # the working tree's modules are read only: no cache beside them
    out = [(f"{cmd}-{p}", [cmd, "--preset", p]) for p in PRESETS for cmd in COMMANDS]
    for label, name in WORKFLOW_CONFIGS.items():
        path = configs / f"{label}.json"
        path.write_text(json.dumps(workflow_config(name)))
        out += [(f"{cmd}-{label}", [cmd, "--config", str(path)]) for cmd in COMMANDS]
    for label, (cfg, commands) in preset_variants().items():
        path = configs / f"{label}.json"
        path.write_text(json.dumps(cfg))
        out += [(f"{cmd}-{label}", [cmd, "--config", str(path)]) for cmd in commands]
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            stream = workloads.ops(workload, seed)
            for _ in range(OPS):
                op = next(stream)
                name = f"{workload}-seed{seed}-op{op.index:03d}"
                path = configs / f"{name}.json"
                path.write_text(json.dumps(op.config, indent=1, sort_keys=True) + "\n")
                out.append((name, [op.command, "--config", str(path)]))
    return out


def extract_revision(rev: str, dest: Path) -> Path:
    """The tree of git revision ``rev``, extracted into ``dest``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter where this Python has it (3.12 warns without one)
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest


def run_tree(tree: Path, job_file: Path, out: Path) -> None:
    """Every job and script of one tree, written under ``out``."""
    out.mkdir()
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", _RUNNER, str(tree / "src"), str(job_file)],
        cwd=out, env=env, check=True,
    )
    for script, args in SCRIPTS.items():
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", str(tree / "scripts" / f"{script}.py"), *args],
            cwd=out, env=env, capture_output=True, text=True,
        )
        report = f"exit {proc.returncode}\n{proc.stdout}{proc.stderr}"
        (out / f"{script}.txt").write_text(report)


def differences(a: Path, b: Path) -> tuple[int, list[str]]:
    """How many files either tree wrote, and those not byte-identical in the other."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    found = []
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            found.append(f"{rel}: only in {'the working tree' if rel in files_a else 'the revision'}")
        elif (a / rel).read_bytes() != (b / rel).read_bytes():
            found.append(f"{rel}: bytes differ")
    return len(files_a | files_b), found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        revision = extract_revision(args.against, tmp / "revision")
        (tmp / "configs").mkdir()
        job_list = jobs(tmp / "configs")
        job_file = tmp / "jobs.json"
        job_file.write_text(json.dumps(job_list))
        run_tree(ROOT, job_file, tmp / "working")
        run_tree(revision, job_file, tmp / "against")
        n_files, found = differences(tmp / "working", tmp / "against")

    print(f"{len(job_list)} commands and {len(SCRIPTS)} scripts, {n_files} files compared against {args.against}")
    for line in found:
        print(f"  {line}")
    print("identical" if not found else f"{len(found)} files differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
