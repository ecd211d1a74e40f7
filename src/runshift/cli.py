"""Batch front end: reproducible runs of every capability from the shell.

Every run writes a table (CSV with ``#`` metadata header lines, or a JSON
mirror with ``--out-format json``) whose header records the version, the
full parameter set, and any seeds, so identical invocations produce
byte-identical data sections.  Exit codes: 0 success, 2 precondition or
usage rejection, 1 internal error.  The RUNSHIFT_OUT_DIR environment
variable supplies the default output directory; an optional key=value
config file supplies flag defaults that explicit flags override.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .cantor import CantorMeasure, DigitSystem, monte_carlo_integral, quadrature
from .decay import decay_table
from .oracle import build_chain, correlation, sample_paths
from .renorm import (
    WaltersCoefficients,
    renorm1_apply,
    renorm1_fixed_point,
    renorm2_apply,
    renorm2_fixed_point,
)
from .sequences import (
    NotSummableError,
    ToleranceError,
    decay_profile,
    inverse_design,
    make_eta,
    parse_family,
    sequence_table,
    verify_design_shift,
)

__all__ = ["main", "entry"]


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_table(args, default_name: str, meta: dict, columns: dict) -> str:
    path = args.out or os.path.join(os.environ.get("RUNSHIFT_OUT_DIR", "."), default_name)
    if args.out_format == "json":
        doc = {
            "meta": {"version": __version__, **meta},
            "columns": list(columns),
            "data": {k: [float(x) for x in v] for k, v in columns.items()},
        }
        text = json.dumps(doc, indent=1) + "\n"
    else:
        lines = [f"# runshift {__version__}"]
        lines += [f"# {k}={meta[k]}" for k in meta]
        lines.append(",".join(columns))
        cols = list(columns.values())
        for row in zip(*cols):
            lines.append(",".join(_fmt(x) for x in row))
        text = "\n".join(lines) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return path


def _depth_field(depth: int | None):
    """The header's depth: the midpoint-rule depth, or ``exact`` for the series."""
    return "exact" if depth is None else depth


def _parse_digits(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"--digits {text!r}: expected integers c_1,...,c_l") from None


def _read_coeffs(path: str) -> WaltersCoefficients:
    """Read columns n,a of a table as ``_write_table`` writes it: CSV (metadata
    lines ignored) or JSON (``data.n``, ``data.a``)."""
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        data = json.loads(text).get("data", {})
        rows = list(zip(data.get("n", []), data.get("a", [])))
    else:
        lines = (line.strip() for line in text.splitlines())
        rows = [line.split(",") for line in lines if line and not line.startswith("#")]
    ns, vals = [], []
    for row in rows:
        if len(row) < 2:
            raise ValueError(f"{path}: row {row[0]!r} has one column; expected n,a")
        try:
            n = int(float(row[0]))
            a = float(row[1])
        except ValueError:
            continue  # header row
        ns.append(n)
        vals.append(a)
    if not ns or ns != list(range(2, 2 + len(ns))):
        raise ValueError(f"{path}: expected consecutive rows n=2,3,... with columns n,a")
    return WaltersCoefficients(np.asarray(vals))


def _select_operator(args) -> tuple[functools.partial, dict]:
    """The operator --type1 / --type2 name, with its header fields."""
    if args.type1 == args.type2:
        raise ValueError("choose exactly one of --type1 / --type2")
    if args.type1:
        return functools.partial(renorm1_apply, k=args.k), {"type": 1, "k": args.k}
    if args.digits is None:
        raise ValueError("--type2 needs --digits")
    ds = DigitSystem(args.k, _parse_digits(args.digits))
    return functools.partial(renorm2_apply, ds=ds), {"type": 2, "k": args.k,
                                                     "digits": args.digits}


# -- subcommands -------------------------------------------------------------


def _cmd_eta(args) -> int:
    eta = make_eta(*parse_family(args.family), args.nmax)
    table = sequence_table(eta)
    meta = {"command": "eta", "family": args.family, "nmax": args.nmax}
    path = _write_table(args, "eta.csv", meta, table)
    print(f"wrote {path} ({eta.n_max} rows, W={eta.W()!r})")
    return 0


def _cmd_fixed_point(args) -> int:
    operator, fields = _select_operator(args)
    meta = {"command": "fixed-point", **fields}
    if args.type1:
        if args.a2 is None:
            raise ValueError("--type1 needs --a2")
        coeffs = renorm1_fixed_point(args.k, args.a2, args.nmax, b=args.b)
        meta["a2"] = args.a2
    else:
        fp = renorm2_fixed_point(operator.keywords["ds"], args.nmax, depth=args.depth, b=args.b)
        coeffs = fp.coeffs
        meta.update(depth=_depth_field(fp.depth), alpha=fp.measure.alpha)
    meta.update(b=args.b, nmax=args.nmax)
    image = operator(coeffs)
    n = np.arange(2, coeffs.n_max + 1)
    ra = np.full(n.size, np.nan)
    ra[: image.a.size] = image.a
    res = np.abs(coeffs.a - ra)
    path = _write_table(args, f"fixed_point_type{fields['type']}.csv", meta,
                        {"n": n, "a": coeffs.a, "Ra": ra, "residual": res})
    sup = float(res[: image.a.size].max())
    print(f"wrote {path} (sup residual {sup!r} over {image.a.size} indices)")
    return 0


def _cmd_apply(args) -> int:
    operator, fields = _select_operator(args)
    image = operator(_read_coeffs(args.infile))
    meta = {"command": "apply", **fields, "in": args.infile}
    n = np.arange(2, image.n_max + 1)
    path = _write_table(args, "applied.csv", meta, {"n": n, "a": image.a})
    print(f"wrote {path} ({image.a.size} rows)")
    return 0


def _cmd_integrate(args) -> int:
    ds = DigitSystem(args.k, _parse_digits(args.digits))
    cm = CantorMeasure(ds)
    value, bound = quadrature(cm, args.n, depth=args.depth)
    meta = {"command": "integrate", "k": args.k, "digits": args.digits,
            "n": args.n, "depth": _depth_field(args.depth), "alpha": cm.alpha}
    columns = {"n": [args.n], "I": [value], "bound": [bound]}
    if args.mc:
        est, stderr = monte_carlo_integral(cm, args.n, args.mc, args.seed)
        meta.update({"mc_samples": args.mc, "seed": args.seed})
        columns.update({"mc": [est], "mc_stderr": [stderr]})
    path = _write_table(args, "integral.csv", meta, columns)
    print(f"wrote {path} (I({args.n})={value!r} +- {bound!r})")
    return 0


def _cmd_decay(args) -> int:
    family, params = parse_family(args.family)
    nmax = args.nmax or max(args.qmax + 2, args.oracle_trunc + 1, 64)
    if not args.nmax and family == "geometric" and 0.0 < params["ratio"] < 1.0:
        # default only: the last n with ratio^(n-1) a normal double; make_eta rejects other ratios
        nmax = min(nmax, 1 + int(np.log(sys.float_info.min) / np.log(params["ratio"])))
    eta = make_eta(family, params, nmax)
    chain = build_chain(eta, args.oracle_trunc)
    c = correlation(chain, np.arange(1, args.qmax + 1))
    table = decay_table(eta, args.qmax, oracle_correlations=c)
    meta = {"command": "decay", "family": args.family, "qmax": args.qmax,
            "oracle_trunc": args.oracle_trunc, "nmax": nmax,
            "eps_trunc": chain.eps_trunc}
    if args.mc_paths:
        mc = sample_paths(chain, args.qmax, args.mc_paths, args.seed)
        meta.update({"mc_paths": args.mc_paths, "seed": args.seed})
        table["C_mc"] = mc["estimate"][1:]
        table["mc_stderr"] = mc["stderr"][1:]
        table["eps_trunc"] = np.full(args.qmax, chain.eps_trunc)
    path = _write_table(args, "decay.csv", meta, table)
    print(f"wrote {path} (eps_trunc={chain.eps_trunc!r})")
    return 0


def _cmd_inverse(args) -> int:
    fn, label = decay_profile(args.target)
    eta = inverse_design(fn, args.qmax, label=label)
    delta, rel = verify_design_shift(eta, fn, range(1, min(args.qmax, 32) + 1))
    q = np.arange(1, args.qmax + 1)
    d = np.array([fn(v) for v in range(1, args.qmax + 2)])  # d_q for q = 1..qmax+1
    dq = eta.double_tail_grid()[1 : args.qmax + 1]
    meta = {"command": "inverse", "target": args.target, "qmax": args.qmax,
            "shift": delta, "max_rel_err": rel}
    path = _write_table(args, "inverse.csv", meta,
                        {"q": q, "d": d[:-1], "eta": eta.values[: args.qmax],
                         "D": dq, "d_shift": d[1:], "rel_err": np.abs(dq - d[1:]) / d[1:]})
    print(f"wrote {path} (shift delta={delta}, max rel err {rel!r})")
    return 0


# -- parser ------------------------------------------------------------------


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="runshift",
        description="Run-structure thermodynamics on the binary shift: "
        "sequences, renormalization fixed points, Cantor quadrature, "
        "decay of correlations.",
    )
    parser.add_argument("--config", help="key=value file of flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output path (default: RUNSHIFT_OUT_DIR)")
        p.add_argument("--out-format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("eta", help="tabulate a weight family: n, eta, T, a")
    p.add_argument("--family", required=True, help="power:G | stretched:T | geometric:R")
    p.add_argument("--nmax", type=int, default=10000)
    common(p)
    p.set_defaults(run=_cmd_eta)

    p = sub.add_parser("fixed-point",
                       help="renormalization fixed point: n, a, Ra, residual")
    p.add_argument("--type1", action="store_true", help="block operator (needs --a2)")
    p.add_argument("--type2", action="store_true", help="digit operator (needs --digits)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a2", type=float, help="free parameter a_2 < 0 (type 1)")
    p.add_argument("--digits", help="comma list c_1,...,c_l (type 2)")
    p.add_argument("--depth", type=int,
                   help="midpoint-rule depth (type 2; default: the exact series)")
    p.add_argument("--b", type=float, default=0.0, help="free switch-cylinder value")
    p.add_argument("--nmax", type=int, default=1000)
    common(p)
    p.set_defaults(run=_cmd_fixed_point)

    p = sub.add_parser("apply",
                       help="apply a renormalization operator to a coefficient table: n, a")
    p.add_argument("--type1", action="store_true")
    p.add_argument("--type2", action="store_true")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--digits")
    p.add_argument("--in", dest="infile", required=True, help="CSV or JSON table with columns n,a")
    common(p)
    p.set_defaults(run=_cmd_apply)

    p = sub.add_parser("integrate", help="Cantor-measure kernel integral: n, I, bound")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--digits", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, help="midpoint-rule depth (default: the exact series)")
    p.add_argument("--mc", type=int, help="add a Monte Carlo cross-check with this many samples")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(run=_cmd_integrate)

    p = sub.add_parser(
        "decay",
        help="renewal decay table with oracle correlations: "
        "q, A, V, K, D, C_oracle, C_over_D [, C_mc, mc_stderr, eps_trunc]",
    )
    p.add_argument("--family", required=True)
    p.add_argument("--qmax", type=int, default=256)
    p.add_argument("--oracle-trunc", type=int, default=10000)
    p.add_argument("--nmax", type=int)
    p.add_argument("--mc-paths", type=int,
                   help="add Monte Carlo columns C_mc, mc_stderr, eps_trunc")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(run=_cmd_decay)

    p = sub.add_parser(
        "inverse",
        help="design eta realizing a target decay profile: "
        "q, d, eta, D, d_shift, rel_err",
    )
    p.add_argument("--target", required=True, help="power:P | geometric:R | stretched:T")
    p.add_argument("--qmax", type=int, default=1000)
    common(p)
    p.set_defaults(run=_cmd_inverse)

    return parser, sub.choices


def _apply_config(argv: list[str], commands: dict) -> list[str]:
    """Strip --config PATH anywhere in argv and fold its key=value entries
    in right after the subcommand, so explicit flags override them.  An
    entry for a flag that takes no value reads key=true or key=false."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise ValueError("--config needs a file path")
    path = argv[idx + 1]
    rest = argv[:idx] + argv[idx + 2 :]
    command = commands.get(rest[0]) if rest else None
    extra: list[str] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = (part.strip() for part in line.partition("="))
            flag = f"--{key.replace('_', '-')}"
            if command is None or command.get_default(key.replace("-", "_")) is not False:
                extra += [flag, value]
            elif value.lower() not in ("true", "false"):
                raise ValueError(f"{path}: {key} is a flag; set {key}=true or {key}=false")
            elif value.lower() == "true":
                extra.append(flag)
    return rest[:1] + extra + rest[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parser()
    try:
        argv = _apply_config(argv, commands)
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    except (OSError, ValueError) as exc:
        print(f"runshift: error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.run(args)
    except (ValueError, ToleranceError, NotSummableError, OSError) as exc:
        print(f"runshift {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"runshift {args.command}: internal error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
