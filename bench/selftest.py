"""Quick self-test of the benchmark at tiny sizes (about a minute).

Usage (from the repository root):  python3 bench/selftest.py

Runs bench/run.py's main on a tiny task list that touches every layer, in
place of each workload's real list, and checks that:

1. every metric BENCHMARK.json names is emitted, with its unit, and none
   other, for each workload and both trace settings;
2. the layers' self times (cli.self_s included) add up to the traced wall
   time within trace.overhead_s;
3. one output row nudged by one ulp makes the run report a failure.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import sys
from contextlib import redirect_stdout

import run  # sets up the paths and thread pinning before numpy loads

run._import_library()

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def tiny_tasks(seed: int, workdir: str, refs: dict) -> list:
    """One small task of every kind, every layer reached."""
    rng = random.Random(seed)
    return [
        workloads.eta_task(workdir, 0, "power:3", 10000),
        workloads.eta_task(workdir, 1, "geometric:0.99", 2000, "json"),
        workloads.inverse_task(workdir, 2, "stretched:0.5", 3000),  # ~9000 spans: measurable overhead
        workloads.decay_task(workdir, 3, "power:3", workloads.SWEEP_DECAY_QMAX,
                             workloads.SWEEP_DECAY_TRUNC, refs, ("--mc-paths", "500")),
        *workloads.fixed_point_and_apply(workdir, 4, 2, 300, a2=-0.7),
        *workloads.fixed_point_and_apply(workdir, 5, 3, 100, "0,2", 8),
        workloads.integrate_task(workdir, 6, 3, "0,2", 2, 10, mc=20_000, seed=seed),
        workloads.equilibrium_task(rng, "power", 2000),
    ]


def _nudge_row(path: str, row: int):
    """Move the T value of one data row of an eta CSV up by one ulp."""
    with open(path) as fh:
        lines = fh.read().splitlines(True)
    first = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1
    fields = lines[first + row].rstrip("\n").split(",")
    fields[2] = repr(math.nextafter(float(fields[2]), math.inf))
    lines[first + row] = ",".join(fields) + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


def perturbed_tasks(seed: int, workdir: str, refs: dict) -> list:
    tasks = tiny_tasks(seed, workdir, refs)
    eta = tasks[0]
    check = eta.check

    def nudge_then_check(outcome):
        _nudge_row(eta.out, 3)
        return check(outcome)

    eta.check = nudge_then_check
    return tasks


def _run(workload: str, trace: int, seconds: float = 2.0) -> dict:
    sink = io.StringIO()
    with redirect_stdout(sink):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", str(seconds),
                         "--trace", str(trace)])
    if code != 0:
        raise SystemExit(f"run.main exited {code}")
    return json.loads(sink.getvalue().strip().splitlines()[-1])


def main() -> int:
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    expect = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        workloads.WORKLOADS[w["name"]] = tiny_tasks
    for w in spec["workloads"]:
        for trace in (0, 1):
            out = _run(w["name"], trace, seconds=2.0 + 2.0 * trace)
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != expect[trace]:
                problems.append(f"{w['name']} trace={trace}: metrics {sorted(got)} "
                                f"!= BENCHMARK.json {sorted(expect[trace])}")
            if not out["correct"] or out["failed"]:
                problems.append(f"{w['name']} trace={trace}: {out['failed']} failed tasks")
            if trace:
                m = {k: v["value"] for k, v in out["metrics"].items()}
                total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
                gap = m["trace.wall_s"] - total
                print(f"{w['name']}: traced wall {m['trace.wall_s']:.6f} s, layer self "
                      f"times {total:.6f} s, overhead {m['trace.overhead_s']:.6f} s")
                if not 0.0 <= gap <= m["trace.overhead_s"]:
                    problems.append(f"{w['name']}: self times miss the traced wall by {gap!r} s, "
                                    f"overhead {m['trace.overhead_s']!r} s")
    workloads.WORKLOADS["sweep"] = perturbed_tasks
    out = _run("sweep", 0, seconds=0.1)
    print(f"perturbed row: {out['failed']} of {out['attempted']} tasks failed")
    if out["failed"] == 0 or out["correct"]:
        problems.append("a perturbed output row was not caught")
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
