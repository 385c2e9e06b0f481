"""Benchmark of the ermakov command line: per-command latency per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client drives ``ermakov.cli.main`` in this process, closed loop: each op
is the next generated config file, started when the previous op returns.
Outputs are checked after the timed loop.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  Generated configs and results
stay under ``.bench_work/`` at the repository root; see NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

# What every CLI invocation pays before any work: a fresh interpreter that
# imports the CLI (numpy and scipy with it) and loads a config.
_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import ermakov.cli; from ermakov.config import load_config; load_config(sys.argv[2]); "
    "print(ermakov.cli.__file__)"
)


def _percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


class Runner:
    def __init__(self, workload: str, seed: int, work: Path):
        import workloads

        self.stream = workloads.ops(workload, seed)
        self.configs = work / "configs"
        self.outputs = work / "out"
        self.configs.mkdir(parents=True)
        self.outputs.mkdir(parents=True)

    def next_op(self):
        op = next(self.stream)
        path = self.configs / f"op{op.index:05d}.json"
        path.write_text(json.dumps(op.config, indent=1, sort_keys=True) + "\n")
        return op, path

    def run(self, op, path: Path, tag: str = "") -> tuple[float, object, str, Path]:
        """One CLI invocation; returns latency, exit code, its messages and the output dir."""
        import ermakov.cli

        out = self.outputs / f"op{op.index:05d}{tag}"
        argv = [op.command, "--config", str(path), "--out", str(out)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                code = ermakov.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback breaks the CLI contract: record it
                code = f"uncaught {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
        return latency, code, sink.getvalue(), out


def _setup_seconds(config: Path) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC), str(config)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or not proc.stdout.strip().startswith(str(SRC)):
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip() or proc.stdout}")
    return elapsed


def _check(checks, op, code, messages: str, out: Path, failures: dict) -> None:
    reason = checks.check_op(op.command, op.family, op.config, code, out)
    if reason is not None:
        last = messages.strip().splitlines()[-1:]
        failures.setdefault(op.index, "; ".join([reason, *last]))


def timed_run(runner: Runner, seconds: float, tail_pct: int):
    import checks
    import pace as pace_mod

    first = runner.next_op()
    # Set-up runs in a child process, whose speed the in-process reference
    # job does not track, so it is reported as raw wall clock.
    setup = [_setup_seconds(first[1]) for _ in range(SETUP_REPEATS)]
    pace = pace_mod.Pace()

    # each op runs between reference-job marks `before` and `before + 1`
    done = []
    op, path = first
    before = pace.sample()
    start = time.perf_counter()
    while True:
        latency, code, messages, out = runner.run(op, path)
        done.append((op, path, latency, code, messages, out, before))
        if time.perf_counter() - start >= seconds:
            break
        if pace.due():
            before = pace.sample()
        op, path = runner.next_op()
    wall = time.perf_counter() - start
    pace.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures: dict[int, str] = {}
    for op, _, _, code, messages, out, _ in done:
        _check(checks, op, code, messages, out, failures)
    # README: identical configs produce byte-identical files
    op, path, _, _, _, out, _ = done[0]
    _, code, _, again = runner.run(op, path, tag="-again")
    if code != 0 or checks.output_digest(again) != checks.output_digest(out):
        failures.setdefault(op.index, "re-run of the first op is not byte-identical")

    raw = [lat for _, _, lat, _, _, _, _ in done]
    scaled = [lat * pace.scale(k, k + 1) for _, _, lat, _, _, _, k in done]
    n = len(done)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "p50_s": (statistics.median(scaled), "s"),
        "tail_s": (_percentile(scaled, tail_pct), "s"),
        "ops_per_s": (n / sum(scaled), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    beyond = n - 1 - int((n - 1) * tail_pct / 100.0)
    notes = [
        f"{n} ops in {wall:.2f} s wall, closed loop, one client",
        f"tail_s is p{tail_pct} over {n} ops ({beyond} beyond it)",
        f"setup_s is the median of {SETUP_REPEATS} fresh interpreters, raw wall clock",
        f"op times are at reference host speed: reference job median {pace.median_job_s():.4f} s"
        f" here against {pace_mod.REFERENCE_S} s",
        f"raw wall clock: p50 {statistics.median(raw):.4f} s, p{tail_pct} {_percentile(raw, tail_pct):.4f} s,"
        f" {n / sum(raw):.4f} ops/s",
    ]
    return done, failures, metrics, notes


def traced_run(runner: Runner, seconds: float, tail_pct: int):
    import checks
    from tracing import Tracer, per_layer_metrics

    tracer = Tracer()
    done = []
    failures: dict[int, str] = {}
    overhead = []
    written = 0
    start = time.perf_counter()
    while not done or time.perf_counter() - start < seconds:
        op, path = runner.next_op()
        tracer.install()
        try:
            traced_s, code, messages, out = runner.run(op, path)
        finally:
            tracer.uninstall()
        integrations, disagreements = tracer.finish_op()
        done.append((op, code, messages, out))
        if disagreements:
            failures.setdefault(op.index, "; ".join(disagreements))
        # untraced re-run of the same config gives the tracing overhead and
        # another byte-identity check
        plain_s, plain_code, _, plain_out = runner.run(op, path, tag="-plain")
        overhead.append(traced_s - plain_s)
        written += _dir_bytes(out)
        if plain_code != code or checks.output_digest(plain_out) != checks.output_digest(out):
            failures.setdefault(op.index, "traced and untraced outputs differ")
        if op.command == "simulate" and code == 0:
            steps = json.loads((out / "summary.json").read_text())["steps"]
            if integrations != [steps]:
                failures.setdefault(op.index, f"summary.json steps {steps} != traced {integrations}")
    for op, code, messages, out in done:
        _check(checks, op, code, messages, out, failures)

    n = len(done)
    extra = {
        "cli.bytes_written": (written / n, "B/op"),
        "trace.overhead_s": (statistics.mean(overhead), "s/op"),
        "trace.ops": (float(n), "count"),
    }
    metrics = per_layer_metrics(tracer, n, extra)
    notes = [f"{n} traced ops, each re-run untraced for the overhead; times are raw wall clock"]
    if tracer.missing:
        notes.append(f"not traced (absent from the program): {', '.join(sorted(tracer.missing))}")
    return done, failures, metrics, notes


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ermakov" / "cli.py").is_file():
        print(f"benchmark: no ermakov package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ermakov.cli

    if not Path(ermakov.cli.__file__).resolve().is_relative_to(SRC):
        print(f"benchmark: imported ermakov from {ermakov.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(args.workload, args.seed, work)
    run = traced_run if args.trace else timed_run
    done, failures, metrics, notes = run(
        runner, args.seconds, workloads.TAIL_PERCENTILE[args.workload]
    )
    shutil.rmtree(runner.outputs, ignore_errors=True)

    attempted = len(done)
    failed = len(failures)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(f"  {line}")
    print(f"  failed {failed} of {attempted} ops (fail_ratio {failed / attempted:.4f})")
    for index, reason in sorted(failures.items())[:10]:
        print(f"  op {index}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
