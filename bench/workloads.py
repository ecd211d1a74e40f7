"""Seeded task lists of the three workloads.

A task is one CLI invocation through ``runshift.cli.main`` or one
equilibrium step through the ``runshift.potential`` functions.  Every
library function is looked up on its module at call time, so the tracer's
wrappers see the call.  The seed fixes the sweep task list and every
Monte Carlo seed; the library receives only the generated arguments.

Parameter ranges stay inside each family's domain in double precision
(no value underflows, no target profile loses positivity), so on correct
code no task fails.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import checks
from runshift import cantor, potential, sequences

# Sweep decay tasks draw from this grid so that each has a recorded reference.
# Geometric ratios stay above 0.49: decay caps n_max at 1024 for that family.
DECAY_GRID = (
    "power:2.5", "power:3", "power:4",
    "stretched:0.3", "stretched:0.5", "stretched:0.7",
    "geometric:0.6", "geometric:0.8", "geometric:0.95",
)
SWEEP_DECAY_QMAX = 256
SWEEP_DECAY_TRUNC = 10000


@dataclass
class Task:
    """One unit of work: ``argv`` for the CLI, or ``step`` for a direct call.

    ``check(outcome)`` returns None or a failure reason; ``out`` is the file
    a CLI task writes (None for a direct call).
    """

    label: str
    check: Callable
    argv: list | None = None
    step: Callable | None = None
    out: str | None = None


def decay_key(family: str, qmax: int, trunc: int) -> str:
    return f"{family}|{qmax}|{trunc}"


def cli_task(label, argv, out, check) -> Task:
    return Task(label, check, argv=argv + ["--out", out], out=out)


def decay_task(workdir, i, family, qmax, trunc, refs, extra=()):
    out = os.path.join(workdir, f"{i:03d}-decay.csv")
    ref = refs[decay_key(family, qmax, trunc)]
    argv = ["decay", "--family", family, "--qmax", str(qmax), "--oracle-trunc", str(trunc),
            *extra]
    return cli_task("decay", argv, out, lambda _: checks.check_decay(out, ref))


def fixed_point_task(workdir, i, k, nmax, digits=None, depth=None, a2=None) -> Task:
    """Type 1 (block operator, ``a2`` given) or type 2 (digit operator)."""
    out = os.path.join(workdir, f"{i:03d}-fixed-point.csv")
    if digits is None:
        argv = ["fixed-point", "--type1", "--k", str(k), f"--a2={a2!r}", "--nmax", str(nmax)]
        return cli_task("fixed-point", argv, out, lambda _: checks.check_fixed_point(out))
    argv = ["fixed-point", "--type2", "--k", str(k), "--digits", digits,
            "--depth", str(depth), "--nmax", str(nmax)]
    cm = cantor.CantorMeasure(cantor.DigitSystem(k, tuple(int(c) for c in digits.split(","))))
    bound = lambda n: cantor.error_bound(cm, n, depth)  # noqa: E731
    return cli_task("fixed-point", argv, out, lambda _: checks.check_fixed_point(out, bound))


def fixed_point_and_apply(workdir, i, k, nmax, digits=None, depth=None, a2=None):
    """A fixed point followed by ``apply`` reading that fixed point back in."""
    fp = fixed_point_task(workdir, i, k, nmax, digits, depth, a2)
    op = ["--type1"] if digits is None else ["--type2", "--digits", digits]
    out = os.path.join(workdir, f"{i:03d}-apply.csv")
    argv = ["apply", *op, "--k", str(k), "--in", fp.out]
    return [fp, cli_task("apply", argv, out, lambda _: checks.check_apply(out, fp.out))]


def eta_task(workdir, i, family, nmax, fmt="csv"):
    out = os.path.join(workdir, f"{i:03d}-eta.{fmt}")
    argv = ["eta", "--family", family, "--nmax", str(nmax), "--out-format", fmt]
    return cli_task("eta", argv, out, lambda _: checks.check_eta(out, nmax))


def inverse_task(workdir, i, target, qmax):
    out = os.path.join(workdir, f"{i:03d}-inverse.csv")
    argv = ["inverse", "--target", target, "--qmax", str(qmax)]
    return cli_task("inverse", argv, out, lambda _: checks.check_inverse(out))


def integrate_task(workdir, i, k, digits, n, depth, mc=None, seed=None):
    out = os.path.join(workdir, f"{i:03d}-integral.csv")
    argv = ["integrate", "--k", str(k), "--digits", digits, "--n", str(n), "--depth", str(depth)]
    if mc:
        argv += ["--mc", str(mc), "--seed", str(seed)]
    return cli_task("integrate", argv, out, lambda _: checks.check_integral(out))


def _equilibrium_step(family: str, param: float, nmax: int, qmax: int, n: int, lam: float,
                      tol: float):
    """The equilibrium step of demos/equilibrium_measure.py for one sequence."""
    key = {"power": "gamma", "stretched": "theta", "geometric": "ratio"}[family]
    eta = sequences.make_eta(family, {key: param}, nmax)
    table = potential.equilibrium_table(eta, qmax)
    report = potential.check_normalization(eta, range(1, qmax + 1))
    value = potential.eigenfunction(potential.lead_zeros(n), eta, lam=lam, tol=tol)
    return table, report, value


def equilibrium_task(rng: random.Random, family: str, nmax: int) -> Task:
    # the normalization 2 sum n eta_n is finite for power weights only when gamma > 2
    param = _family_param(rng, family, nmax, gamma_lo=2.2)
    qmax = rng.randint(64, 512)
    n = rng.randint(1, 32)
    lam = round(rng.uniform(1.05, 2.0), 3)
    tol = 1e-10
    return Task(
        "equilibrium",
        lambda outcome: checks.check_equilibrium(outcome, n, tol),
        step=lambda: _equilibrium_step(family, param, nmax, qmax, n, lam, tol),
    )


def _family_param(rng: random.Random, family: str, nmax: int, gamma_lo: float = 1.5) -> float:
    """A parameter for which eta_1..eta_nmax stay normal doubles."""
    if family == "power":
        return round(rng.uniform(gamma_lo, 4.0), 3)
    if family == "stretched":  # need nmax^theta well below 708
        return round(rng.uniform(0.3, min(0.55, math.log(600) / math.log(nmax))), 3)
    return round(rng.uniform(max(0.5, math.exp(-600 / nmax)), 0.9995), 4)


def _inverse_target(rng: random.Random, family: str, qmax: int) -> str:
    """A target profile that stays positive out to 2 qmax + 18."""
    far = 2 * qmax + 18
    if family == "power":
        return f"power:{round(rng.uniform(0.5, 3.0), 3)}"
    if family == "geometric":
        return f"geometric:{round(rng.uniform(max(0.5, math.exp(-600 / far)), 0.99), 4)}"
    return f"stretched:{round(rng.uniform(0.3, min(0.7, math.log(600) / math.log(far))), 3)}"


def _digits(rng: random.Random, k: int, l: int) -> str:
    return ",".join(str(c) for c in sorted(rng.sample(range(k), l)))


def _spread(lo: float, hi: float, count: int) -> list[float]:
    """count points from lo to hi evenly in log scale."""
    return [lo * (hi / lo) ** (j / (count - 1)) for j in range(count)]


FAMILIES = ("power", "stretched", "geometric")


def decay_tasks(seed: int, workdir: str, refs: dict) -> list[Task]:
    """The README decay example and a power-law companion: the oracle's
    O(qmax M) propagation and the D(q) sweep dominate; cantor is idle."""
    return [
        decay_task(workdir, 0, "stretched:0.5", 10000, 100000, refs),
        decay_task(workdir, 1, "power:3", 2000, 100000, refs),
    ]


def digit_tasks(seed: int, workdir: str, refs: dict) -> list[Task]:
    """Depth-18/20 Cantor quadrature and a 4e6-sample Monte Carlo run.
    The {1,3} set has sup K = 1.5, the slowest case for a moment series.

    The Monte Carlo run goes first.  Its arrays of tens of MB raise glibc's
    mmap threshold, so the fixed points' 2 MB temporaries come from the
    heap in every pass, the first included.  In the other order the first
    pass page-faults about 1e6 times per fixed point, and the fixed points
    of later passes ran up to 30% faster or slower depending on the heap
    the earlier passes left, which made a run's latencies bimodal.
    """
    return [
        integrate_task(workdir, 0, 3, "0,2", 2, 20, mc=4_000_000, seed=seed),
        fixed_point_task(workdir, 1, 3, 1000, "0,2", 18),
        fixed_point_task(workdir, 2, 3, 1000, "1,3", 18),
    ]


def sweep_tasks(seed: int, workdir: str, refs: dict) -> list[Task]:
    """About 150 small tasks over every subcommand and family: per-call
    overhead, formatting and file I/O dominate.

    Sizes are spread over fixed grids in a fixed order, and the seed picks
    family parameters, digit sets, Monte Carlo seeds and which family gets
    which size, so the work and memory of a pass hardly depend on the seed.
    """
    rng = random.Random(seed)
    units = []  # (make, *arguments); make(i, *arguments) returns a list of tasks

    def eta(i, family, nmax, fmt):
        return [eta_task(workdir, i, f"{family}:{_family_param(rng, family, nmax)}", nmax, fmt)]

    def inverse(i, family, qmax):
        return [inverse_task(workdir, i, _inverse_target(rng, family, qmax), qmax)]

    def decay(i, family, paths):
        extra = ("--mc-paths", str(paths), "--seed", str(rng.randrange(2**31))) if paths else ()
        return [decay_task(workdir, i, family, SWEEP_DECAY_QMAX, SWEEP_DECAY_TRUNC, refs, extra)]

    def type1(i, k, nmax):
        return fixed_point_and_apply(workdir, i, k, nmax, a2=round(rng.uniform(-2.0, -0.05), 4))

    def type2(i, l, nmax):
        k = rng.randint(max(3, l), 5)
        depth = 12 if l == 2 else 7  # l^depth near 4e3 prefix points
        return fixed_point_and_apply(workdir, i, k, nmax, _digits(rng, k, l), depth)

    def integrate(i, k, l, depth, mc):
        return [integrate_task(workdir, i, k, _digits(rng, k, l), rng.randint(2, 50), depth, mc,
                           rng.randrange(2**31))]

    def equilibrium(i, family, nmax):
        return [equilibrium_task(rng, family, nmax)]

    def families(count):
        shift = rng.randrange(3)
        return [FAMILIES[(j + shift) % 3] for j in range(count)]

    for j, (family, nmax) in enumerate(zip(families(15), _spread(1e4, 1e5, 15))):
        units.append((eta, family, round(nmax), "json" if j % 2 else "csv"))
    for family, qmax in zip(families(15), _spread(100, 5000, 15)):
        units.append((inverse, family, round(qmax)))
    for j, family in enumerate(DECAY_GRID * 2):
        units.append((decay, family, (500, 1500, 4000)[j // 6] if j % 3 == 0 else None))
    for family, nmax in zip(families(24), _spread(2000, 20000, 24)):
        units.append((equilibrium, family, round(nmax)))
    for j, nmax in enumerate(_spread(300, 5000, 10)):
        units.append((type1, 2 + j % 3, round(nmax)))
    for j, nmax in enumerate(_spread(100, 500, 10)):
        units.append((type2, 2 + j % 2, round(nmax)))
    for j in range(36):  # k fixes the Monte Carlo digit count, hence its memory
        l = 2 + j % 2
        depth = (10 + j // 2 % 5) if l == 2 else (10 + j // 2 % 3)
        k = (2, 3, 4, 5)[j // 2 % 4] if l == 2 else (3, 4, 5)[j // 2 % 3]
        units.append((integrate, k, l, depth, 20_000 * (1 + j // 4) if j % 4 < 2 else None))
    # a fixed order, the kinds evenly interleaved: the peak memory of a pass
    # depends on which tasks run before the largest Monte Carlo draw
    kinds = [u[0] for u in units]
    rank = [(kinds[:i].count(k) + 0.5) / kinds.count(k) for i, k in enumerate(kinds)]
    units = [units[i] for i in sorted(range(len(units)), key=rank.__getitem__)]
    tasks: list[Task] = []
    for i, (make, *params) in enumerate(units):
        tasks += make(i, *params)
    return tasks


WORKLOADS = {"decay": decay_tasks, "digit": digit_tasks, "sweep": sweep_tasks}
