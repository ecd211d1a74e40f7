"""runshift benchmark: seeded workloads through the public API, checked.

Usage (from the repository root):

    python3 bench/run.py --workload {decay,digit,sweep} --seed N --seconds S --trace {0,1}

Runs the workload's task list repeatedly until S seconds have been spent
on it (at least once), checks every output, and prints as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json; with ``--trace 1`` untraced and traced passes alternate
and the metrics are the per-layer ones, taken from spans the benchmark
records around the library's public functions (see tracer.py).  The line
before it, ``record {...}``, holds the seed, the environment and the
failure reasons.  The traced run writes its spans to
``bench/_traces/<workload>-seed<N>.json.gz``.

One process, one thread: BLAS and OpenMP pools are pinned to one thread
before numpy is imported.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up time counts every import from here on

import os  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer, write_trace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, "_work")
TRACEDIR = os.path.join(HERE, "_traces")
REFS = os.path.join(HERE, "refs", "decay.json")
SETUP_PROBES = 5


def _parse(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["decay", "digit", "sweep"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_library():
    """Import runshift from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "runshift", "__init__.py")):
        raise SystemExit(f"bench: no runshift sources under {SRC}")
    sys.path.insert(0, SRC)
    import runshift

    if os.path.dirname(os.path.abspath(runshift.__file__)) != os.path.join(SRC, "runshift"):
        raise SystemExit(f"bench: imported runshift from {runshift.__file__}, not {SRC}")
    import runshift.cli  # noqa: F401  (the CLI is part of what users import)


def _build(args):
    import workloads

    with open(REFS) as fh:
        refs = json.load(fh)
    return workloads.WORKLOADS[args.workload](args.seed, WORKDIR, refs)


def _setup_seconds(args) -> float:
    """Median over fresh processes of: import runshift, build the task list."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
    }


class Pass:
    """Outcome of one pass over the task list.  In a traced pass every task
    runs twice, untraced into ``latencies`` and traced into ``traced``."""

    def __init__(self):
        self.latencies: list[float] = []
        self.traced: list[float] = []
        self.failures: list[str] = []
        self.bytes_written = 0
        self.rows_written = 0

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.traced)


def run_task(task, tracer=None) -> tuple[float, str | None]:
    """Run one task, timed with its check excluded; (seconds, failure or None)."""
    from runshift import cli

    sink = io.StringIO()
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            outcome = cli.main(task.argv) if task.argv is not None else task.step()
        error = None
    except Exception as exc:  # a library failure is a failed task, not a crash
        outcome, error = None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    if tracer is not None:
        tracer.active = False
    if error is None and task.argv is not None and outcome != 0:
        error = f"exit code {outcome}: {sink.getvalue().strip()[-300:]}"
    if error is None:
        try:
            error = task.check(outcome)
        except Exception as exc:  # an unreadable output is a failed check
            error = f"check raised {type(exc).__name__}: {exc}"
    return end - start, error


def run_pass(tasks, tracer=None, pass_id: int = 0) -> Pass:
    """Run and check every task once, or with a tracer once untraced and
    once traced, alternating which goes first so that warm caches favour
    neither."""
    result = Pass()
    for i, task in enumerate(tasks):
        order = [False] if tracer is None else [False, True][:: 1 if i % 2 == 0 else -1]
        for traced in order:
            if traced:
                tracer.task = f"{pass_id}:{i}:{task.label}"
                with tracer.installed():
                    latency, error = run_task(task, tracer)
                result.traced.append(latency)
            else:
                latency, error = run_task(task)
                result.latencies.append(latency)
                if error is None and task.out is not None:
                    result.bytes_written += os.path.getsize(task.out)
                    result.rows_written += checks.count_rows(task.out)
            if error is not None:
                result.failures.append(f"task {i} ({' '.join(task.argv or [task.label])}): {error}")
    return result


def _quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: an average of all order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) law.  Unlike a single
    order statistic it does not jump when two tasks swap places."""
    from scipy.special import betainc

    s = sorted(values)
    n = len(s)
    edges = betainc((n + 1) * p, (n + 1) * (1 - p), [i / n for i in range(n + 1)])
    return float(sum((hi - lo) * v for lo, hi, v in zip(edges, edges[1:], s)))


def _timed_passes(args, tasks, tracer=None) -> tuple[list, Pass | None]:
    """Passes until ``args.seconds`` are spent.  The first pass warms the
    process (first-touch page faults, lazy imports) and is not timed unless
    it alone fills the time; it is checked all the same."""
    first = run_pass(tasks, tracer, 0)
    if first.wall + sum(first.traced) >= args.seconds:
        return [first], None
    if tracer is not None:
        tracer.clear()
    passes = []
    while not passes or sum(p.wall + sum(p.traced) for p in passes) < args.seconds:
        passes.append(run_pass(tasks, tracer, len(passes) + 1))
    return passes, first


def measure(args, tasks):
    """Untraced passes: the end-to-end metrics."""
    passes, warmup = _timed_passes(args, tasks)
    # each task's latency is its median over the timed passes, so the
    # quantiles do not jump with the number of passes that fit the time
    latencies = [statistics.median(p.latencies[i] for p in passes) for i in range(len(tasks))]
    metrics = {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "task_p50_s": (_quantile(latencies, 0.5), "s"),
        "task_p90_s": (_quantile(latencies, 0.9), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return passes, warmup, metrics, {"task_samples": len(latencies)}


def measure_traced(args, tasks):
    """Traced passes: the per-layer metrics, as means over the passes so
    that the layers' self times add up to trace.wall_s."""
    tracer = Tracer()
    passes, warmup = _timed_passes(args, tasks, tracer)
    n = len(passes)
    metrics = {}
    for name, value in tracer.layer_metrics().items():
        unit = "s" if name.endswith("_s") else ("bytes" if name.endswith("bytes") else "count")
        metrics[name] = (value / n, unit)
    for name, unit in (("bytes_written", "bytes"), ("rows_written", "count")):
        metrics[f"cli.{name}"] = (sum(getattr(p, name) for p in passes) / n, unit)
    metrics["trace.wall_s"] = (sum(sum(p.traced) for p in passes) / n, "s")
    metrics["trace.overhead_s"] = (sum(sum(p.traced) - p.wall for p in passes) / n, "s")
    metrics["trace.spans"] = (len(tracer.spans) / n, "count")
    return passes, warmup, metrics, {"spans": tracer.spans}


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        _import_library()
        _build(args)
        print(time.perf_counter() - START)
        return 0
    _import_library()
    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    try:
        tasks = _build(args)
        if args.trace:
            passes, warmup, metrics, extra = measure_traced(args, tasks)
        else:
            setup = _setup_seconds(args)
            passes, warmup, metrics, extra = measure(args, tasks)
            metrics = {"setup_s": (setup, "s"), **metrics}
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    checked = passes + ([warmup] if warmup is not None else [])
    attempted = sum(p.attempted for p in checked)
    failures = [f for p in checked for f in p.failures]
    env = _environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "warmup_pass": warmup is not None,
        "pass_walls": [p.wall for p in passes], "tasks_per_pass": len(tasks),
        "failed_frac": len(failures) / attempted, "failures": failures[:20],
        "env": env,
    }
    if args.trace:
        os.makedirs(TRACEDIR, exist_ok=True)
        path = os.path.join(TRACEDIR, f"{args.workload}-seed{args.seed}.json.gz")
        meta = {k: v for k, v in record.items() if k != "failures"}
        write_trace(path, extra.pop("spans"), meta)
        record["trace_file"] = os.path.relpath(path, ROOT)
    record.update(extra)
    for name, (value, unit) in metrics.items():
        print(f"{name:24s} {value:.6g} {unit}")
    print(f"{'failed_frac':24s} {record['failed_frac']:.6g} ({len(failures)}/{attempted})")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
