"""Output checks.  Each returns None when the output holds, else a reason.

Every bound is the certified error the library reports (quadrature
``bound``, ``mc_stderr``, the inverse header's ``max_rel_err``, the
``eps_trunc`` of the chain) or, where the library reports none, the
a-priori rounding bound of the summation it performs (Higham, *Accuracy
and Stability of Numerical Algorithms*, ch. 4: a sum of n nonnegative
terms is exact to n u times the sum).  No bound is tuned to the data.
"""

from __future__ import annotations

import json
import math

import numpy as np

U = 2.0**-53  # unit roundoff of double precision

# Absolute error of the present oracle: C(q) = u[0].sum() - 1/4 cancels
# against 1/4 (about 6e-13 in the README decay example, where the true C is
# near 3e-41).  Values of C_oracle and C_over_D whose reference lies below
# this floor are not checked, so an oracle that is exact there (such as a
# one-vector recurrence without the subtraction) passes as well.
ORACLE_FLOOR = 1e-12


def read_table(path: str) -> tuple[dict, dict]:
    """(meta, columns) of a runshift CSV or JSON output file."""
    with open(path) as fh:
        text = fh.read()
    if text.startswith("{"):
        doc = json.loads(text)
        return doc["meta"], {k: np.asarray(v, dtype=float) for k, v in doc["data"].items()}
    meta = {}
    lines = text.split("\n", 64)  # the header lines; the body is parsed in numpy
    while lines[0].startswith("#"):
        key, sep, value = lines.pop(0)[1:].strip().partition("=")
        if sep:
            meta[key] = value
    header = lines[0].split(",")
    body = "\n".join(lines[1:])
    # parsed without one Python object per value, so checking a large table
    # does not raise the process's peak memory above the library's own
    data = np.fromstring(body.replace("\n", ","), sep=",").reshape(-1, len(header))
    return meta, {name: data[:, i] for i, name in enumerate(header)}


def count_rows(path: str) -> int:
    """Data rows of a runshift CSV or JSON output file."""
    return len(next(iter(read_table(path)[1].values())))


def _first_bad(mask) -> int:
    return int(np.argmax(mask))


def check_eta(path: str, nmax: int) -> str | None:
    """Rows n = 1..nmax with T(m) = eta_m + T(m+1) exactly."""
    _, c = read_table(path)
    if c["n"].size != nmax or not np.array_equal(c["n"], np.arange(1, nmax + 1)):
        return f"expected rows n=1..{nmax}, got {c['n'].size}"
    bad = c["T"][:-1] != c["eta"][:-1] + c["T"][1:]
    if bad.any():
        return f"T(m) != eta_m + T(m+1) at m={_first_bad(bad) + 1}"
    return None


def check_fixed_point(path: str, digit_bound=None) -> str | None:
    """Residual |a_n - (Ra)_n| within the certified bound.

    Type 2 (``digit_bound(n)`` given): each of the l + 1 quadratures in
    a_n - sum_i a_{kn-c_i} errs by at most the quadrature bound at its own
    index, which is largest at n, so the residual is at most (l+1) bound(n).
    Type 1 has no quadrature: a_n and the k block terms are each correct to
    a few ulps, and the k-term sum adds k u, so the residual is at most
    (k + 4) u (|a_n| + |Ra_n|).
    """
    meta, c = read_table(path)
    defined = ~np.isnan(c["Ra"])
    if not defined.any():
        return "no verifiable rows"
    n, a, ra = c["n"][defined], c["a"][defined], c["Ra"][defined]
    res = np.abs(a - ra)
    if digit_bound is not None:
        l = len(meta["digits"].split(","))
        limit = (l + 1) * np.array([digit_bound(int(v)) for v in n])
    else:
        limit = (int(meta["k"]) + 4) * U * (np.abs(a) + np.abs(ra))
    bad = ~(res <= limit)
    if bad.any():
        i = _first_bad(bad)
        return f"residual {res[i]!r} > {limit[i]!r} at n={int(n[i])}"
    return None


def check_apply(path: str, fixed_point_path: str) -> str | None:
    """The operator applied to a fixed point read back from its CSV gives the
    fixed point's own Ra column, bit for bit (the CSV round-trips floats)."""
    _, fp = read_table(fixed_point_path)
    _, c = read_table(path)
    expect = fp["Ra"][~np.isnan(fp["Ra"])]
    if c["a"].size != expect.size:
        return f"{c['a'].size} rows, fixed point has {expect.size} images"
    if not np.array_equal(c["a"], expect):
        return f"Ra differs from the fixed point's image at n={_first_bad(c['a'] != expect) + 2}"
    return None


def check_integral(path: str) -> str | None:
    """|I - mc| <= bound + 5 mc_stderr when a Monte Carlo column is present."""
    _, c = read_table(path)
    value, bound = float(c["I"][0]), float(c["bound"][0])
    if not (value > 0.0 and math.isfinite(bound)):
        return f"I={value!r} with bound {bound!r}"
    if "mc" in c:
        mc, err = float(c["mc"][0]), float(c["mc_stderr"][0])
        if not abs(value - mc) <= bound + 5.0 * err:
            return f"|I - mc| = {abs(value - mc)!r} > bound + 5 stderr = {bound + 5 * err!r}"
    return None


def check_inverse(path: str) -> str | None:
    """rel_err within the header's max_rel_err on the lags it covers, and
    within the rounding bound of the double-tail sum on every lag.

    The header's max_rel_err is measured by verify_design_shift over the
    first min(qmax, 32) lags only; beyond them the table's rel_err can
    exceed it by an ulp or two.  There the bound is that of D(q), a sum of
    at most n_max = 2 qmax + 16 positive terms built from differences of
    the target: (n_max + 4) u relative.
    """
    meta, c = read_table(path)
    qmax = int(meta["qmax"])
    header = float(meta["max_rel_err"])
    covered = c["q"] <= min(qmax, 32)
    if not np.all(c["rel_err"][covered] <= header):
        return f"rel_err above header max_rel_err {header!r} within the sampled lags"
    limit = (2 * qmax + 20) * U
    bad = ~(c["rel_err"] <= limit)
    if bad.any():
        i = _first_bad(bad)
        return f"rel_err {c['rel_err'][i]!r} > {limit!r} at q={int(c['q'][i])}"
    return None


def check_decay(path: str, ref: dict) -> str | None:
    """Decay columns against a reference recorded at the seed commit.

    A, V, K and D must match within each value's recorded certified error
    (see record_refs.py).  C_oracle is compared within ORACLE_FLOOR, and
    only where the reference lies above that floor; C_over_D must then be
    |C_oracle| / D.  Monte Carlo columns must agree with C_oracle within
    5 mc_stderr plus the truncation bias 2 eps_trunc and the floor.
    """
    meta, c = read_table(path)
    qmax = int(meta["qmax"])
    if not np.array_equal(c["q"], np.arange(1, qmax + 1)):
        return f"expected rows q=1..{qmax}"
    rows = np.asarray(ref["q"], dtype=int) - 1
    for col in ("A", "V", "K", "D"):
        got = c[col][rows]
        want = np.asarray(ref["value"][col])
        tol = np.asarray(ref["tol"][col])
        bad = ~(np.abs(got - want) <= tol)
        if bad.any():
            i = _first_bad(bad)
            return (f"{col}({ref['q'][i]}) = {got[i]!r}, reference {want[i]!r} "
                    f"+- {tol[i]!r}")
    want = np.asarray(ref["value"]["C_oracle"])
    above = np.abs(want) > ORACLE_FLOOR
    got = c["C_oracle"][rows]
    bad = above & ~(np.abs(got - want) <= ORACLE_FLOOR)
    if bad.any():
        i = _first_bad(bad)
        return f"C_oracle({ref['q'][i]}) = {got[i]!r}, reference {want[i]!r}"
    ratio = c["C_over_D"][rows][above]
    expect = np.abs(got[above]) / c["D"][rows][above]
    if not np.all(np.abs(ratio - expect) <= 2 * U * expect):
        return "C_over_D != |C_oracle| / D"
    if "C_mc" in c:
        eps = float(meta["eps_trunc"])
        gap = np.abs(c["C_mc"] - c["C_oracle"])
        limit = 5.0 * c["mc_stderr"] + 2.0 * eps + ORACLE_FLOOR
        bad = ~(gap <= limit)
        if bad.any():
            i = _first_bad(bad)
            return f"|C_mc - C_oracle| = {gap[i]!r} > {limit[i]!r} at q={i + 1}"
    return None


def check_equilibrium(result, n: int, tol: float) -> str | None:
    """Equilibrium step: the Jacobian report passes, raw masses obey
    T(q) = eta_q + T(q+1) exactly, and the eigenfunction at lam > 1 lies
    between 1 and its lam = 1 value T(n)/eta_n (within its certified tol)."""
    table, report, value = result
    if not report.ok:
        return f"Jacobian row sums off by {report.max_deviation!r} at m={report.worst_state}"
    rho, mu = table["rho"], table["mu_raw"]
    bad = mu[:-1] != rho[:-1] + mu[1:]
    if bad.any():
        return f"mu_raw(q) != rho_q + mu_raw(q+1) at q={_first_bad(bad) + 1}"
    top = mu[n - 1] / rho[n - 1]
    if not 1.0 <= value <= top * (1.0 + tol):
        return f"eigenfunction {value!r} outside [1, T(n)/eta_n = {top!r}]"
    return None
