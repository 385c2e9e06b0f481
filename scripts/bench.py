#!/usr/bin/env python3
"""Measure the working tree against another revision and write one BENCH file per side.

    python3 scripts/bench.py --against REV --label NAME [--first-seed 101] [--out DIR]

Both trees are copied into a scratch directory first (the working tree's
tracked and untracked, not ignored, files; the revision by ``git archive``),
so each starts with the same bytecode state.  The script measures:

- the benchmark: ``perfbench/run.py --workload W --seed S --seconds T`` on
  each workload in BENCHMARK.json, ``T`` its ``run_seconds``, as ``PAIRS``
  pairs of runs, pair ``k`` on seed ``first-seed + k`` with the side that
  runs first alternating; per end-to-end metric the median, quartiles, IQR
  and the pairs this side won, and in the working tree's file a verdict
  (see ``verdict``);
- the preset table: each command on each preset in fresh interpreters,
  ``PRESET_RUNS`` per cell and side, interleaved, the clock started after
  ``import ermakov.cli``; median, IQR and n in milliseconds;
- the tier-1 time: the test suite once per tree, under
  ``-W error::RuntimeWarning``, wall clock and pytest's summary line;
- the bytecode case: ``PYTHONDONTWRITEBYTECODE`` and the ``.pyc`` files under
  each tree's ``src`` before and after.

Each tree runs its own ``perfbench/``, which this script never edits.  It
writes ``BENCH_<label>.json`` for the working tree and
``BENCH_<short revision>.json`` for the revision under ``--out`` (the
repository root by default).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from same_outputs import COMMANDS, PRESETS, ROOT, extract_revision

PAIRS = 10  # alternating pairs of benchmark runs per workload
PRESET_RUNS = 7  # fresh interpreters per preset cell and side

# One CLI command in a fresh interpreter: argv[1] is the tree's src, then the
# command, preset and output directory; prints the command's exit code and its
# time in ms, counted from after the import.
_PRESET_RUN = r"""
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
import ermakov.cli
t0 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = ermakov.cli.main([sys.argv[2], "--preset", sys.argv[3], "--out", sys.argv[4]])
print(code, (time.perf_counter() - t0) * 1e3)
"""


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def verdict(change: dict, parent: dict, better: str, bound: float) -> str:
    """The working tree's reading on one metric and workload against the revision's runs:

    - ``better``: it won at least 9 in 10 pairs, and the medians differ, its way, by more
      than the revision's IQR;
    - ``unresolved``: the revision's IQR exceeds ``bound`` times its median, and not every
      run of the working tree beats every run of the revision;
    - ``no worse``: its median is within ``bound`` (relative) of the revision's;
    - ``worse``.
    """
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (change["median"] - parent["median"])
    if change["wins"] >= 0.9 * change["n"] and gain > parent["iqr"]:
        return "better"
    beats_all = min(sign * v for v in change["values"]) > max(sign * v for v in parent["values"])
    if parent["iqr"] > bound * abs(parent["median"]) and not beats_all:
        return "unresolved"
    return "no worse" if gain >= -bound * abs(parent["median"]) else "worse"


def _rev_parse(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def _pyc_count(tree: Path) -> int:
    return sum(1 for _ in (tree / "src").rglob("*.pyc"))


def copy_trees(against: str, work: Path) -> dict[str, Path]:
    """The working tree and the revision, each copied under ``work``."""
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        capture_output=True, check=True,
    ).stdout.decode().split("\0")
    working = work / "working"
    for rel in filter(None, listed):
        if (ROOT / rel).is_file():  # a tracked file deleted in the working tree is skipped
            (working / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / rel, working / rel)
    return {"working": working, "revision": extract_revision(against, work / "revision")}


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run of ``tree``: its last line, the run's JSON summary."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def preset_run(tree: Path, command: str, preset: str, out: Path) -> tuple[int, float]:
    proc = subprocess.run(
        [sys.executable, "-c", _PRESET_RUN, str(tree / "src"), command, preset, str(out)],
        capture_output=True, text=True, check=True,
    )
    code, ms = proc.stdout.split()
    return int(code), float(ms)


def tier1(tree: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    seconds = time.perf_counter() - t0
    return {"seconds": seconds, "exit": proc.returncode, "summary": proc.stdout.strip().splitlines()[-1]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json, the working tree's file")
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--out", type=Path, default=ROOT, help="directory of the BENCH files")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    revision = _rev_parse(args.against)
    labels = {"working": args.label, "revision": _rev_parse("--short", args.against)}

    with tempfile.TemporaryDirectory() as tmp:
        trees = copy_trees(args.against, Path(tmp))
        sides = list(trees)
        result = {
            side: {
                "label": labels[side],
                "tree": "working tree" if side == "working" else f"revision {args.against} ({revision})",
                "compared_with": labels[sides[1 - k]],
                "host": {"python": platform.python_version(), "machine": platform.machine(),
                         "cpus": os.cpu_count()},
                "bytecode": {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                             "pyc_files_before": _pyc_count(trees[side])},
                "workloads": {},
                "presets": {},
            }
            for k, side in enumerate(sides)
        }

        runs = {(side, w): [] for side in sides for w in workloads}
        for k in range(PAIRS):
            order = sides if k % 2 == 0 else sides[::-1]
            for workload in workloads:
                for side in order:
                    run = bench_run(trees[side], workload, args.first_seed + k, seconds)
                    runs[side, workload].append({"seed": args.first_seed + k, "ran_first": side == order[0],
                                                 "attempted": run["attempted"], "failed": run["failed"],
                                                 "metrics": {m: v["value"] for m, v in run["metrics"].items()}})
                    print(f"pair {k} {workload} {labels[side]}: {run['failed']} failed of {run['attempted']}, "
                          f"ops_per_s {run['metrics']['ops_per_s']['value']:.4g}", flush=True)

        for k, side in enumerate(sides):
            other = sides[1 - k]
            for workload in workloads:
                mine, theirs = runs[side, workload], runs[other, workload]
                metrics = {}
                for name, direction in better.items():
                    values = [r["metrics"][name] for r in mine]
                    sign = 1 if direction == "higher" else -1
                    wins = sum(sign * (a["metrics"][name] - b["metrics"][name]) > 0 for a, b in zip(mine, theirs))
                    metrics[name] = {**_summary(values), "better": direction, "wins": wins, "values": values}
                result[side]["workloads"][workload] = {"seconds": seconds, "metrics": metrics, "runs": mine}
        for workload in workloads:
            for name, metric in result["working"]["workloads"][workload]["metrics"].items():
                parent = result["revision"]["workloads"][workload]["metrics"][name]
                metric["verdict"] = verdict(metric, parent, better[name], bounds[name])

        times = {(side, p, c): [] for side in sides for p in PRESETS for c in COMMANDS}
        codes = {key: set() for key in times}
        for n in range(PRESET_RUNS):
            order = sides if n % 2 == 0 else sides[::-1]
            for preset in PRESETS:
                for command in COMMANDS:
                    for side in order:
                        out = Path(tmp) / "preset-out" / side / f"{command}-{preset}-{n}"
                        code, ms = preset_run(trees[side], command, preset, out)
                        times[side, preset, command].append(ms)
                        codes[side, preset, command].add(code)
        for (side, preset, command), values in times.items():
            cell = {**_summary(values), "exit_codes": sorted(codes[side, preset, command])}
            result[side]["presets"].setdefault(preset, {})[command] = cell
        print("preset table done", flush=True)

        for side in sides[::-1]:
            result[side]["tier1"] = tier1(trees[side])
            result[side]["bytecode"]["pyc_files_after"] = _pyc_count(trees[side])
            print(f"tier-1 {labels[side]}: {result[side]['tier1']['summary']}", flush=True)

    args.out.mkdir(parents=True, exist_ok=True)
    for side in sides:
        path = args.out / f"BENCH_{labels[side]}.json"
        path.write_text(json.dumps(result[side], indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    for workload in workloads:
        for name in better:
            a, b = (result[s]["workloads"][workload]["metrics"][name] for s in sides)
            print(f"{workload} {name}: {a['verdict']}, {labels['working']} {a['median']:.4g} (IQR {a['iqr']:.3g}, "
                  f"{a['wins']} wins) vs {labels['revision']} {b['median']:.4g} (IQR {b['iqr']:.3g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
