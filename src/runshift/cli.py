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
from ._floattext import float_text, int_text
from .cantor import CantorMeasure, DigitSystem, monte_carlo_integral, quadrature
from .decay import decay_table
from .oracle import build_chain, correlation, sample_paths
from .renorm import (
    InputTooShort,
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
)

__all__ = ["main", "entry"]


_JSON_SEP = np.frombuffer(b",\n   ", np.uint8)
# The writer formats and writes about _CHUNK cells at a time (whole rows in CSV), so its
# memory does not grow with the table.  The float cells of a chunk, all its columns in
# CSV and one column in JSON (which writes every cell as a float), come from one call of
# the vectorized repr of _floattext; a JSON table of at most _CHUNK cells takes one call.
_CHUNK = 4096


def _text(parts: list) -> str:
    """The ``uint8`` text matrices side by side, row after row, without NUL padding."""
    return np.concatenate(parts, axis=1).tobytes().translate(None, b"\0").decode()


def _cell_text(cols: list, json: bool = False) -> list:
    """Text matrices of the columns' cells: ``repr`` of floats and ``str`` of integers;
    with ``json``, ``json.dumps`` of each cell as a float.  The float cells, and with
    ``json`` every cell, come from one kernel call."""
    floats = [c for c in cols if json or c.dtype.kind == "f"]
    text = float_text(np.concatenate(floats), json) if floats else None
    out, at = [], 0
    for c in cols:
        if json or c.dtype.kind == "f":
            out.append(text[at : at + len(c)])
            at += len(c)
        else:
            out.append(int_text(c))
    return out


def _csv_rows(chunk: list) -> str:
    """CSV lines of a chunk of rows."""
    comma = np.full((len(chunk[0]), 1), ord(","), np.uint8)
    parts = []
    for cell in _cell_text(chunk):
        parts += [cell, comma]
    parts[-1] = np.full_like(comma, ord("\n"))
    return _text(parts)


def _json_cells(text: np.ndarray, first: bool) -> str:
    """A chunk of a JSON column's cell texts, each on its own line after a comma,
    except the first cell of the column."""
    sep = np.empty((len(text), _JSON_SEP.size), np.uint8)
    sep[:] = _JSON_SEP
    sep[:1, 0] *= not first  # NUL: no comma before a column's first cell
    return _text([sep, text])


def _write_table(args, default_name: str, meta: dict, columns: dict, note: str) -> int:
    """Stream the table to its file and report it.  CSV cells are ``repr`` of floats
    and ``str`` of the rest; JSON is ``json.dumps(doc, indent=1)`` with float cells.
    Each chunk of about ``_CHUNK`` cells is formatted and written at once, its float
    cells by one call of the vectorized ``repr``."""
    path = args.out or os.path.join(os.environ.get("RUNSHIFT_OUT_DIR", "."), default_name)
    as_json = args.out_format == "json"
    cols = [np.asarray(col) for col in columns.values()]
    with open(path, "w", newline="\n") as fh:
        if as_json:
            head = {"meta": {"version": __version__, **meta}, "columns": list(columns)}
            fh.write(json.dumps(head, indent=1).removesuffix("\n}") + ',\n "data": {')
            if sum(map(len, cols)) <= _CHUNK:  # the whole table at once
                chunks = ([text] for text in _cell_text(cols, json=True))
            else:
                chunks = ((_cell_text([col[at : at + _CHUNK]], json=True)[0]
                           for at in range(0, len(col), _CHUNK)) for col in cols)
            for i, (name, col, texts) in enumerate(zip(columns, cols, chunks)):
                # indent=1 layout: "[]" when empty, else one cell a line, comma-separated
                fh.write(f"{',' if i else ''}\n  {json.dumps(name)}: [")
                for j, text in enumerate(texts):
                    fh.write(_json_cells(text, j == 0))
                fh.write("\n  ]" if len(col) else "]")
            fh.write("\n }\n}\n" if columns else "}\n}\n")
        else:
            fh.write(f"# runshift {__version__}\n")
            fh.writelines(f"# {k}={v}\n" for k, v in meta.items())
            fh.write(",".join(columns) + "\n")
            rows = min(map(len, cols), default=0)
            step = max(1, _CHUNK // max(1, len(cols)))
            for at in range(0, rows, step):
                fh.write(_csv_rows([col[at : min(at + step, rows)] for col in cols]))
    print(f"wrote {path} ({note})")
    return 0


def _depth_field(depth: int | None):
    """The header's depth: the midpoint-rule depth, or ``exact`` for the series."""
    return "exact" if depth is None else depth


def _positive(text: str) -> int:
    """argparse type of an optional count flag, so that 0 is named, not ignored."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_digits(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"--digits {text!r}: expected integers c_1,...,c_l") from None


def _read_coeffs(path: str) -> WaltersCoefficients:
    """Read columns n,a of a table as ``_write_table`` writes it: CSV (``#`` lines
    ignored, the first other line may be a header) or JSON (``data.n``, ``data.a``)."""
    with open(path) as fh:
        text = fh.read()
    is_json = text.lstrip().startswith("{")
    if is_json:
        data = json.loads(text).get("data", {})
        rows = list(zip(data.get("n", []), data.get("a", [])))
    else:
        lines = (line.strip() for line in text.splitlines())
        rows = [line.split(",") for line in lines if line and not line.startswith("#")]
    ns, vals = [], []
    for i, row in enumerate(rows):
        if len(row) < 2:
            raise ValueError(f"{path}: row {row[0]!r} has one column; expected n,a")
        try:
            n, a = int(float(row[0])), float(row[1])
        except (TypeError, ValueError):
            if i == 0 and not is_json:
                continue  # header row
            raise ValueError(f"{path}: row {','.join(map(str, row))!r} is not n,a") from None
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
    return _write_table(args, "eta.csv", meta, table, f"{eta.n_max} rows, W={eta.W()!r}")


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
    try:
        image = operator(coeffs)
    except InputTooShort as exc:
        raise ValueError(f"--nmax {args.nmax} is too small: (Ra)_2 needs a_{exc.required}, "
                         f"so --nmax must be at least {exc.required}") from None
    n = np.arange(2, coeffs.n_max + 1)
    ra = np.full(n.size, np.nan)
    ra[: image.a.size] = image.a
    res = np.abs(coeffs.a - ra)
    sup = float(res[: image.a.size].max())
    return _write_table(args, f"fixed_point_type{fields['type']}.csv", meta,
                        {"n": n, "a": coeffs.a, "Ra": ra, "residual": res},
                        f"sup residual {sup!r} over {image.a.size} indices")


def _cmd_apply(args) -> int:
    operator, fields = _select_operator(args)
    coeffs = _read_coeffs(args.infile)
    try:
        image = operator(coeffs)
    except InputTooShort as exc:
        raise ValueError(f"{args.infile}: rows n=2..{coeffs.n_max} are too few, "
                         f"(Ra)_2 needs a_{exc.required}") from None
    meta = {"command": "apply", **fields, "in": args.infile}
    n = np.arange(2, image.n_max + 1)
    return _write_table(args, "applied.csv", meta, {"n": n, "a": image.a},
                        f"{image.a.size} rows")


def _cmd_integrate(args) -> int:
    ds = DigitSystem(args.k, _parse_digits(args.digits))
    cm = CantorMeasure(ds)
    value, bound = quadrature(cm, args.n, depth=args.depth)
    meta = {"command": "integrate", "k": args.k, "digits": args.digits,
            "n": args.n, "depth": _depth_field(args.depth), "alpha": cm.alpha}
    columns = {"n": [args.n], "I": [value], "bound": [bound]}
    if args.mc is not None:
        est, stderr = monte_carlo_integral(cm, args.n, args.mc, args.seed)
        meta.update({"mc_samples": args.mc, "seed": args.seed})
        columns.update({"mc": [est], "mc_stderr": [stderr]})
    return _write_table(args, "integral.csv", meta, columns,
                        f"I({args.n})={value!r} +- {bound!r}")


def _cmd_decay(args) -> int:
    family, params = parse_family(args.family)
    nmax = args.nmax
    if nmax is None:
        nmax = max(args.qmax + 2, args.oracle_trunc + 1, 64)
        if family == "geometric" and 0.0 < params["ratio"] < 1.0:
            # the last n with ratio^(n-1) a normal double; make_eta rejects other ratios
            nmax = min(nmax, 1 + int(np.log(sys.float_info.min) / np.log(params["ratio"])))
    eta = make_eta(family, params, nmax)
    chain = build_chain(eta, args.oracle_trunc)
    c = correlation(chain, np.arange(1, args.qmax + 1))
    table = decay_table(eta, args.qmax, oracle_correlations=c)
    meta = {"command": "decay", "family": args.family, "qmax": args.qmax,
            "oracle_trunc": args.oracle_trunc, "nmax": nmax,
            "eps_trunc": chain.eps_trunc}
    if args.mc_paths is not None:
        mc = sample_paths(chain, args.qmax, args.mc_paths, args.seed)
        meta.update({"mc_paths": args.mc_paths, "seed": args.seed})
        table["C_mc"] = mc["estimate"][1:]
        table["mc_stderr"] = mc["stderr"][1:]
        table["eps_trunc"] = np.full(args.qmax, chain.eps_trunc)
    return _write_table(args, "decay.csv", meta, table, f"eps_trunc={chain.eps_trunc!r}")


def _cmd_inverse(args) -> int:
    fn = decay_profile(args.target)
    eta = inverse_design(fn, args.qmax)
    q = np.arange(1, args.qmax + 1)
    d = np.array([fn(v) for v in range(1, args.qmax + 2)])  # d_q for q = 1..qmax+1
    dq = eta.double_tail_grid()[1 : args.qmax + 1]
    rel_err = np.abs(dq - d[1:]) / d[1:]
    rel = float(rel_err.max())
    meta = {"command": "inverse", "target": args.target, "qmax": args.qmax,
            "shift": 1, "max_rel_err": rel}
    return _write_table(args, "inverse.csv", meta,
                        {"q": q, "d": d[:-1], "eta": eta.values[: args.qmax],
                         "D": dq, "d_shift": d[1:], "rel_err": rel_err},
                        f"shift delta=1, max rel err {rel!r}")


# -- parser ------------------------------------------------------------------


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name, built once: parsing
    never changes them."""
    parser = argparse.ArgumentParser(
        prog="runshift",
        description="Run-structure thermodynamics on the binary shift: "
        "sequences, renormalization fixed points, Cantor quadrature, "
        "decay of correlations.",
    )
    parser.add_argument("--config", help="key=value file of flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", help="output path (default: RUNSHIFT_OUT_DIR)")
        p.add_argument("--out-format", choices=["csv", "json"], default="csv")
        p.set_defaults(run=run)
        return p

    def operator_flags(p):
        p.add_argument("--type1", action="store_true", help="block operator")
        p.add_argument("--type2", action="store_true", help="digit operator (needs --digits)")
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--digits", help="comma list c_1,...,c_l (type 2)")

    p = command("eta", _cmd_eta, "tabulate a weight family: n, eta, T, a")
    p.add_argument("--family", required=True, help="power:G | stretched:T | geometric:R")
    p.add_argument("--nmax", type=int, default=10000)

    p = command("fixed-point", _cmd_fixed_point, "renormalization fixed point: n, a, Ra, residual")
    operator_flags(p)
    p.add_argument("--a2", type=float, help="free parameter a_2 < 0 (needed by --type1)")
    p.add_argument("--depth", type=int,
                   help="midpoint-rule depth (type 2; default: the exact series)")
    p.add_argument("--b", type=float, default=0.0, help="free switch-cylinder value")
    p.add_argument("--nmax", type=int, default=1000)

    p = command("apply", _cmd_apply, "apply a renormalization operator to a table: n, a")
    operator_flags(p)
    p.add_argument("--in", dest="infile", required=True, help="CSV or JSON table with columns n,a")

    p = command("integrate", _cmd_integrate, "Cantor-measure kernel integral: n, I, bound")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--digits", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, help="midpoint-rule depth (default: the exact series)")
    p.add_argument("--mc", type=int,
                   help="add a Monte Carlo cross-check with this many samples")
    p.add_argument("--seed", type=int, default=0)

    p = command("decay", _cmd_decay, "renewal decay table with oracle correlations: "
                "q, A, V, K, D, C_oracle, C_over_D [, C_mc, mc_stderr, eps_trunc]")
    p.add_argument("--family", required=True)
    p.add_argument("--qmax", type=int, default=256)
    p.add_argument("--oracle-trunc", type=int, default=10000)
    p.add_argument("--nmax", type=_positive)
    p.add_argument("--mc-paths", type=_positive,
                   help="add Monte Carlo columns C_mc, mc_stderr, eps_trunc")
    p.add_argument("--seed", type=int, default=0)

    p = command("inverse", _cmd_inverse,
                "design eta realizing a target decay profile: q, d, eta, D, d_shift, rel_err")
    p.add_argument("--target", required=True, help="power:P | geometric:R | stretched:T")
    p.add_argument("--qmax", type=int, default=1000)

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
