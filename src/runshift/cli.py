"""Batch front end: reproducible runs of every capability from the shell.

Every run writes a table (CSV with ``#`` metadata header lines, or a JSON
mirror with ``--out-format json``) whose header records the version, the
full parameter set, and any seeds, so identical invocations produce
byte-identical data sections.  Exit codes: 0 success, 2 precondition or
usage rejection, 1 internal error.  The RUNSHIFT_OUT_DIR environment
variable supplies the default output directory; an argument file, @FILE after
the subcommand, supplies flags as key = value lines that later flags override.
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
from .decay import renewal_series
from .oracle import build_chain, correlation, sample_paths
from .renorm import (
    InputTooShort,
    renorm1_apply,
    renorm1_fixed_point,
    renorm2_apply,
    renorm2_fixed_point,
    residual,
)
from .sequences import (
    FAMILIES,
    NotSummableError,
    ToleranceError,
    decay_profile,
    inverse_design,
    make_eta,
    parse_family,
    sequence_table,
    target_grid,
)

__all__ = ["main", "entry"]


_JSON_SEP = np.frombuffer(b",\n   ", np.uint8)
# The writer formats and writes about _CHUNK cells at a time (whole rows in CSV), so its
# memory does not grow with the table.  The float cells of a chunk, all its columns in
# CSV and one column in JSON (which writes every cell as a float), come from one call of
# the vectorized repr of _floattext.
_CHUNK = 4096
_INT64_MAX = 2**63 - 1  # the library's index arrays are int64
# numpy refuses an array of more than 2^63 - 1 bytes with an error that names no flag;
# at most 2^59 rows keep float64 arrays of up to twice as many rows under that, so a size
# too large for the memory raises MemoryError instead, which main reports naming the sizes
_MAX_ROWS = 2**59
_SIZE_FLAGS = ("nmax", "qmax", "oracle_trunc", "mc_paths", "mc")
_MAX_DEPTH = 1075  # k^-depth is 0.0 in double past it for every k >= 2: 2.0**-1075 == 0.0


def _text(parts: list) -> str:
    """The ``uint8`` text matrices side by side, row after row, without NUL padding."""
    return np.concatenate(parts, axis=1).tobytes().translate(None, b"\0").decode()


def _cell_text(cols: list) -> list:
    """Text matrices of the columns' cells: ``repr`` of floats and ``str`` of integers.
    The float cells come from one kernel call."""
    floats = [c for c in cols if c.dtype.kind == "f"]
    text = float_text(np.concatenate(floats)) if floats else None
    out, at = [], 0
    for c in cols:
        if c.dtype.kind == "f":
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


def _write_table(args, stem: str, meta: dict, columns: dict, note: str) -> int:
    """Stream the table to its file, by default ``<stem>.<out_format>`` in RUNSHIFT_OUT_DIR,
    and report it.  CSV cells are ``repr`` of floats and ``str`` of the rest; JSON is
    ``json.dumps(doc, indent=1)`` with float cells.  Each chunk of about ``_CHUNK`` cells
    is formatted and written at once, its float cells by one call of the vectorized ``repr``."""
    out_dir = os.environ.get("RUNSHIFT_OUT_DIR", ".")
    path = args.out or os.path.join(out_dir, f"{stem}.{args.out_format}")
    as_json = args.out_format == "json"
    cols = [np.asarray(col) for col in columns.values()]
    with open(path, "w", newline="\n") as fh:
        if as_json:
            head = {"meta": {"version": __version__, **meta}, "columns": list(columns)}
            fh.write(json.dumps(head, indent=1).removesuffix("\n}") + ',\n "data": {')
            chunks = ((float_text(col[at : at + _CHUNK], json=True)
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


def _at_least(least: int, most: int | None = None):
    """argparse type of an integer flag with a least value and an optional greatest, so that
    a bad value such as an optional count set to 0 is rejected naming its flag, not passed on."""

    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's message for text that is no integer
    return parse


def _parse_digits(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"--digits {text!r}: expected integers c_1,...,c_l") from None


def _read_coeffs(path: str) -> np.ndarray:
    """Read columns n,a of a table as ``_write_table`` writes it: CSV (``#`` lines
    ignored, the first other line may be a header) or JSON (``data.n``, ``data.a``).
    CSV rows are parsed by one ``np.loadtxt``, and walked one by one only to name a
    row that fails; n is read as ``int(float(n))``."""
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text).get("data", {})
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f'{path}: "data" is not an object of columns n, a')
        cols = [data.get(name, []) for name in "na"]
        for name, col in zip("na", cols):
            if not isinstance(col, list):
                raise ValueError(f'{path}: column "{name}" is not a list')
        if len(cols[0]) != len(cols[1]):
            raise ValueError(f"{path}: column n has {len(cols[0])} cells, column a {len(cols[1])}")
        ns, vals = _walk_rows(path, list(zip(*cols)))
    else:
        lines = [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]
        if lines and _is_header(lines[0]):
            del lines[0]
        ns = vals = []
        try:
            if lines:
                ns, vals = np.loadtxt(lines, delimiter=",", usecols=(0, 1), ndmin=2,
                                      comments=None).T
            if not np.isfinite(ns).all():
                raise ValueError("n must be finite")
        except ValueError as exc:
            _walk_rows(path, [line.split(",") for line in lines])
            raise ValueError(f"{path}: {exc}") from None
    ns = np.trunc(np.asarray(ns, dtype=float))
    if not ns.size or not np.array_equal(ns, np.arange(2, 2 + ns.size)):
        raise ValueError(f"{path}: expected consecutive rows n=2,3,... with columns n,a")
    return np.array(vals, dtype=float)


def _is_header(line: str) -> bool:
    """Whether a table's first CSV row is a header: two cells or more that do not parse
    as n,a.  A one-column row is not: the row walk names it."""
    row = line.split(",")
    try:
        int(float(row[0])), float(row[1])
    except ValueError:
        return True
    except (IndexError, OverflowError):
        pass  # one cell, or n = inf: a bad row, not a header
    return False


def _walk_rows(path: str, rows: list) -> tuple[list, list]:
    """n and a of each row, ``int(float(n))`` and ``float(a)``; the first row that is
    not n,a raises an error naming it."""
    ns, vals = [], []
    for row in rows:
        if len(row) < 2:
            raise ValueError(f"{path}: row {row[0]!r} has one column; expected n,a")
        try:
            ns.append(int(float(row[0])))
            vals.append(float(row[1]))
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{path}: row {','.join(map(str, row))!r} is not n,a") from None
    return ns, vals


def _select_operator(args) -> tuple[functools.partial, dict, DigitSystem | None]:
    """The operator --type1 / --type2 name, with its header fields and, for --type2,
    its digit system.  A flag of the other type is rejected, not ignored."""
    for flag in ("digits", "depth") if args.type1 else ("a2",):
        if getattr(args, flag, None) is not None:
            raise ValueError(f"--{flag} is not used by --type{1 if args.type1 else 2}")
    if args.type1:
        return functools.partial(renorm1_apply, k=args.k), {"type": 1, "k": args.k}, None
    if args.digits is None:
        raise ValueError("--type2 needs --digits")
    ds = DigitSystem(args.k, _parse_digits(args.digits))
    return functools.partial(renorm2_apply, ds=ds), {"type": 2, "k": args.k,
                                                     "digits": args.digits}, ds


# -- subcommands -------------------------------------------------------------


def _cmd_eta(args) -> int:
    eta = make_eta(*parse_family(args.family), args.nmax)
    table = sequence_table(eta)
    meta = {"command": "eta", "family": args.family, "nmax": args.nmax}
    return _write_table(args, "eta", meta, table, f"{eta.n_max} rows, W={eta.W()!r}")


def _cmd_fixed_point(args) -> int:
    operator, fields, ds = _select_operator(args)
    meta = {"command": "fixed-point", **fields}
    if args.type1:
        if args.a2 is None:
            raise ValueError("--type1 needs --a2")
        a = renorm1_fixed_point(args.k, args.a2, args.nmax)
        meta["a2"] = args.a2
    else:
        a, _ = renorm2_fixed_point(ds, args.nmax, depth=args.depth)
        meta.update(depth=_depth_field(args.depth), alpha=ds.hausdorff_alpha)
    meta["nmax"] = args.nmax
    try:
        image = operator(a)
    except InputTooShort as exc:
        if exc.required > _MAX_ROWS:
            raise ValueError(f"--k {args.k} is too large: (Ra)_2 needs a_{exc.required}, past "
                             f"the greatest --nmax {_MAX_ROWS}, so no --nmax can serve it") from None
        raise ValueError(f"--nmax {args.nmax} is too small: (Ra)_2 needs a_{exc.required}, "
                         f"so --nmax must be at least {exc.required}") from None
    res = residual(a, image)
    pad = np.full(a.size - res.size, np.nan)  # where (Ra)_n needs a_i past n_max
    return _write_table(args, f"fixed_point_type{fields['type']}", meta,
                        {"n": np.arange(2, a.size + 2), "a": a,
                         "Ra": np.concatenate([image, pad]),
                         "residual": np.concatenate([res, pad])},
                        f"sup residual {float(res.max())!r} over {res.size} indices")


def _cmd_apply(args) -> int:
    operator, fields, _ = _select_operator(args)
    a = _read_coeffs(args.infile)
    try:
        image = operator(a)
    except InputTooShort as exc:
        raise ValueError(f"{args.infile}: rows n=2..{a.size + 1} are too few, "
                         f"(Ra)_2 needs a_{exc.required}") from None
    meta = {"command": "apply", **fields, "in": args.infile}
    return _write_table(args, "applied", meta, {"n": np.arange(2, image.size + 2), "a": image},
                        f"{image.size} rows")


def _cmd_integrate(args) -> int:
    ds = DigitSystem(args.k, _parse_digits(args.digits))
    cm = CantorMeasure(ds)
    value, bound = quadrature(cm, args.n, depth=args.depth)
    meta = {"command": "integrate", "k": args.k, "digits": args.digits,
            "n": args.n, "depth": _depth_field(args.depth), "alpha": cm.ds.hausdorff_alpha}
    columns = {"n": [args.n], "I": [value], "bound": [bound]}
    if args.mc is not None:
        est, stderr = monte_carlo_integral(cm, args.n, args.mc, args.seed)
        meta.update({"mc_samples": args.mc, "seed": args.seed})
        columns.update({"mc": [est], "mc_stderr": [stderr]})
    return _write_table(args, "integral", meta, columns,
                        f"I({args.n})={value!r} +- {bound!r}")


def _reach(family: str, params: dict, n: int) -> int:
    """The last m <= n with a nonzero weight, as make_eta stores it; weights never rise."""
    fam = FAMILIES[family]
    fam.check(params[fam.key])  # make_eta's own error for a parameter outside the family
    value = fam.tail(params[fam.key]).value
    if value(np.array([float(n)]))[0] > 0.0:
        return n
    return int(np.count_nonzero(value(np.arange(1.0, n + 1.0))))


def _cmd_decay(args) -> int:
    family, params = parse_family(args.family)
    # the renewal sweep reads T(qmax + 1); the chain reads eta up to M unless it is geometric
    need = max(args.qmax + 1, 0 if family == "geometric" else args.oracle_trunc)
    default = max(args.qmax + 2, args.oracle_trunc + 1, 64)
    if args.nmax is None and family == "geometric" and 0.0 < params["ratio"] < 1.0:
        # the last n with ratio^(n-1) a normal double; make_eta rejects other ratios
        reach, kind = 1 + int(np.log(sys.float_info.min) / np.log(params["ratio"])), "normal"
    else:
        reach, kind = _reach(family, params, max(args.nmax or default, need)), "nonzero"
    nmax = args.nmax or min(default, reach)  # only the default stops where the weights do
    if nmax < need:
        flag = f"--qmax {args.qmax}" if need == args.qmax + 1 else f"--oracle-trunc {need}"
        what = f"--nmax at least {need}, got {nmax}" if args.nmax else f"weights up to n = {need}"
        but = f", but {args.family} weights are {kind} doubles only up to n = {reach}"
        raise ValueError(f"{flag} needs {what}" + (but if reach < need else ""))
    eta = make_eta(family, params, nmax)
    chain = build_chain(eta, args.oracle_trunc)
    table = renewal_series(eta, args.qmax)
    table["C_oracle"] = correlation(chain, table["q"])
    with np.errstate(divide="ignore", invalid="ignore"):
        table["C_over_D"] = np.abs(table["C_oracle"]) / table["D"]
    meta = {"command": "decay", "family": args.family, "qmax": args.qmax,
            "oracle_trunc": args.oracle_trunc, "nmax": nmax,
            "eps_trunc": chain.eps_trunc}
    if args.mc_paths is not None:
        mc = sample_paths(chain, args.qmax, args.mc_paths, args.seed)
        meta.update({"mc_paths": args.mc_paths, "seed": args.seed})
        table["C_mc"] = mc["estimate"][1:]
        table["mc_stderr"] = mc["stderr"][1:]
        table["eps_trunc"] = np.full(args.qmax, chain.eps_trunc)
    return _write_table(args, "decay", meta, table, f"eps_trunc={chain.eps_trunc!r}")


def _cmd_inverse(args) -> int:
    fn = decay_profile(args.target)
    dv = target_grid(fn, args.qmax)
    eta = inverse_design(fn, args.qmax, dv)
    q = np.arange(1, args.qmax + 1)
    d = dv[: args.qmax + 1]  # d_q for q = 1..qmax+1
    dq = eta.double_tail_grid()[1 : args.qmax + 1]
    rel_err = np.abs(dq - d[1:]) / d[1:]
    rel = float(rel_err.max())
    meta = {"command": "inverse", "target": args.target, "qmax": args.qmax,
            "shift": 1, "max_rel_err": rel}
    return _write_table(args, "inverse", meta,
                        {"q": q, "d": d[:-1], "eta": eta.values[: args.qmax],
                         "D": dq, "d_shift": d[1:], "rel_err": rel_err},
                        f"shift delta=1, max rel err {rel!r}")


# -- parser ------------------------------------------------------------------


def _file_args(line: str) -> list[str]:
    """An argument-file line as arguments: ``key = value`` is ``--key value`` (``_`` as ``-``),
    ``key = true`` the switch ``--key``; ``key = false``, blank and ``#`` lines give none."""
    key, _, value = (part.strip() for part in line.partition("="))
    if not key or key[0] == "#" or value.lower() == "false":
        return []
    flag = "--" + key.replace("_", "-")
    return [flag] if value.lower() == "true" else [flag, value]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once: parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="runshift",
        description="Run-structure thermodynamics on the binary shift: "
        "sequences, renormalization fixed points, Cantor quadrature, "
        "decay of correlations.",
        epilog="@FILE after the subcommand reads its flags from FILE, one 'key = value' "
        "a line ('key = true' for a switch); flags after @FILE override it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help, fromfile_prefix_chars="@")
        p.convert_arg_line_to_args = _file_args  # @FILE is read after the subcommand only
        p.add_argument("--out", help="output path (default: a file named after the command "
                       "and --out-format, in RUNSHIFT_OUT_DIR or the current directory)")
        p.add_argument("--out-format", choices=["csv", "json"], default="csv")
        p.set_defaults(run=run)
        return p

    def operator_flags(p):
        kind = p.add_mutually_exclusive_group(required=True)
        kind.add_argument("--type1", action="store_true", help="block operator")
        kind.add_argument("--type2", action="store_true", help="digit operator (needs --digits)")
        p.add_argument("--k", type=_at_least(2, _INT64_MAX), required=True)
        p.add_argument("--digits", help="comma list c_1,...,c_l (type 2)")

    p = command("eta", _cmd_eta, "tabulate a weight family: n, eta, T, a")
    p.add_argument("--family", required=True, help="power:G | stretched:T | geometric:R")
    p.add_argument("--nmax", type=_at_least(8, _MAX_ROWS), default=10000)

    p = command("fixed-point", _cmd_fixed_point, "renormalization fixed point: n, a, Ra, residual")
    operator_flags(p)
    p.add_argument("--a2", type=float, help="free parameter a_2 < 0 (needed by --type1)")
    p.add_argument("--depth", type=_at_least(0, _MAX_DEPTH),
                   help="midpoint-rule depth (type 2; default: the exact series)")
    p.add_argument("--nmax", type=_at_least(2, _MAX_ROWS), default=1000)

    p = command("apply", _cmd_apply, "apply a renormalization operator to a table: n, a")
    operator_flags(p)
    p.add_argument("--in", dest="infile", required=True, help="CSV or JSON table with columns n,a")

    p = command("integrate", _cmd_integrate, "Cantor-measure kernel integral: n, I, bound")
    p.add_argument("--k", type=_at_least(2, _INT64_MAX), required=True)
    p.add_argument("--digits", required=True)
    p.add_argument("--n", type=_at_least(2, _INT64_MAX), required=True)
    p.add_argument("--depth", type=_at_least(0, _MAX_DEPTH),
                   help="midpoint-rule depth (default: the exact series)")
    p.add_argument("--mc", type=_at_least(1000, _MAX_ROWS),
                   help="add a Monte Carlo cross-check with this many samples")
    p.add_argument("--seed", type=_at_least(0), default=0)  # numpy's seeds are nonnegative

    p = command("decay", _cmd_decay, "renewal decay table with oracle correlations: "
                "q, A, V, K, D, C_oracle, C_over_D [, C_mc, mc_stderr, eps_trunc]")
    p.add_argument("--family", required=True)
    p.add_argument("--qmax", type=_at_least(1, _MAX_ROWS), default=256)
    # build_chain needs M >= 2
    p.add_argument("--oracle-trunc", type=_at_least(2, _MAX_ROWS), default=10000)
    p.add_argument("--nmax", type=_at_least(8, _MAX_ROWS))
    p.add_argument("--mc-paths", type=_at_least(2, _MAX_ROWS),
                   help="add Monte Carlo columns C_mc, mc_stderr, eps_trunc")
    p.add_argument("--seed", type=_at_least(0), default=0)  # numpy's seeds are nonnegative

    p = command("inverse", _cmd_inverse,
                "design eta realizing a target decay profile: q, d, eta, D, d_shift, rel_err")
    p.add_argument("--target", required=True, help="power:P | geometric:R | stretched:T")
    p.add_argument("--qmax", type=_at_least(2, _MAX_ROWS), default=1000)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (ValueError, ToleranceError, NotSummableError, OSError) as exc:
        print(f"runshift {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        sizes = [f"--{k.replace('_', '-')} {v}" for k, v in vars(args).items()
                 if k in _SIZE_FLAGS and v is not None]
        print(f"runshift {args.command}: error: not enough memory for "
              f"{', '.join(sizes) or 'this input'}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"runshift {args.command}: internal error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
