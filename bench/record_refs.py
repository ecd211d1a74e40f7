"""Record the decay references the benchmark checks against.

Usage (from the repository root):  python3 bench/record_refs.py

Runs every decay task the workloads use (the two tasks of ``decay`` and the
sweep grid), and stores for a subset of lags each column's value together
with its certified error:

* D(q): the tail model's bracket half-widths, (n_max + 1 - q) for the
  far sum plus one for the far weighted sum, and n u D(q) for rounding of
  the positive sum (n = n_max + qmax terms at most);
* K_q = T(q)/(2W) - T(q+1)/W: 2 n u times its positive parts, plus the far
  bracket half-width over W;
* A_q and V_q: their recursions x_q = sum_{m<q} p_m (+-x_{q-m}) + f_q have
  sum_m p_m <= 1, so an error made at lag j is not amplified later and the
  error at q is at most the sum over j <= q of the local errors
  2 n u (sum_m p_m |x_{j-m}| + |f_j|) + err(f_j);
* C_oracle is compared within checks.ORACLE_FLOOR instead (no tolerance
  stored).

Re-record only when the benchmark's task list changes, never to make a
check pass.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from runshift import cli, sequences  # noqa: E402

REF_PATH = os.path.join(HERE, "refs", "decay.json")


def _lags(qmax: int) -> np.ndarray:
    """Lags 1..16 and 48 more, geometrically spaced out to qmax."""
    far = np.geomspace(17, qmax, 48).round().astype(int)
    return np.unique(np.concatenate([np.arange(1, min(qmax, 16) + 1), far]))


def _half(bracket) -> float:
    lo, hi = bracket
    return 0.5 * (hi - lo)


def _recurrence_error(p, x, forcing, forcing_err, gamma) -> np.ndarray:
    """Accumulated bound of the local errors of x_q = sum p_m x_{q-m} + f_q."""
    conv = np.convolve(p, np.abs(x))[: x.size - 1]  # conv[j-2] = sum_{m<j} p_m |x_{j-m}|
    scale = np.abs(forcing).copy()
    scale[1:] += conv
    return np.cumsum(2.0 * gamma * scale + forcing_err)


def tolerances(family: str, nmax: int, table: dict) -> dict:
    name, _, arg = family.partition(":")
    key = {"power": "gamma", "stretched": "theta", "geometric": "ratio"}[name]
    eta = sequences.make_eta(name, {key: float(arg)}, nmax)
    model = eta.tail_model
    q = table["q"].astype(int)
    qmax = q.size
    gamma = (nmax + qmax) * checks.U
    cut = nmax + 1
    w = eta.W()
    far = _half(model.sum_tail(cut))
    d_tol = (cut - q) * far + _half(model.weighted_tail(cut)) + gamma * table["D"]
    t = np.array([eta.tail(m) for m in range(1, qmax + 2)])
    p = eta.values[:qmax] / w
    k_tol = 2.0 * gamma * (0.5 * t[:qmax] + t[1:]) / w + 1.5 * far / w
    v_tol = _recurrence_error(p, table["V"], table["K"], k_tol, gamma)
    # A_q = sum_{m<q} p_m - sum_{m<q} p_m A_{q-m} + T(q+1)/W
    tail = t[1:] / w
    forcing = tail + np.concatenate([[0.0], np.cumsum(p)[:-1]])
    a_tol = _recurrence_error(p, table["A"], forcing, 2.0 * gamma * tail + far / w, gamma)
    return {"A": a_tol, "V": v_tol, "K": k_tol, "D": d_tol}


def record(family: str, qmax: int, trunc: int, workdir: str) -> dict:
    out = os.path.join(workdir, "ref-decay.csv")
    argv = ["decay", "--family", family, "--qmax", str(qmax), "--oracle-trunc", str(trunc),
            "--out", out]
    if cli.main(argv) != 0:
        raise SystemExit(f"decay {family} failed")
    meta, table = checks.read_table(out)
    tol = tolerances(family, int(meta["nmax"]), table)
    rows = _lags(qmax) - 1
    return {
        "argv": argv[:-2],
        "q": (rows + 1).tolist(),
        "value": {c: table[c][rows].tolist() for c in ("A", "V", "K", "D", "C_oracle")},
        "tol": {c: tol[c][rows].tolist() for c in ("A", "V", "K", "D")},
    }


def main() -> int:
    workdir = os.path.join(HERE, "_work")
    os.makedirs(workdir, exist_ok=True)
    specs = [("stretched:0.5", 10000, 100000), ("power:3", 2000, 100000)]
    specs += [(f, workloads.SWEEP_DECAY_QMAX, workloads.SWEEP_DECAY_TRUNC)
              for f in workloads.DECAY_GRID]
    refs = {workloads.decay_key(*s): record(*s, workdir) for s in specs}
    os.makedirs(os.path.dirname(REF_PATH), exist_ok=True)
    with open(REF_PATH, "w") as fh:
        json.dump(refs, fh, indent=0)
        fh.write("\n")
    print(f"wrote {REF_PATH} ({len(refs)} references)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
