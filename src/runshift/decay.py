"""Renewal recursions for the decay of correlations of the 0-cylinder.

Write W for the total weight, T(m) for tails, p_m = eta_m / W, and let
A_q be the q-fold transfer iterate of the 0-cylinder indicator evaluated
at a unit leading run (equivalently: the probability that the run-length
chain started at a fresh run sits on symbol 0 after q steps).  Splitting
on the step at which the initial run ends, and noting that ending a run
flips the symbol, gives the renewal recursion

    A_q = sum_{m=1}^{q-1} p_m (1 - A_{q-m}) + T(q+1)/W,     A_1 = T(2)/W.

The deficits V_q = 1/2 - A_q then satisfy

    V_q = -sum_{m=1}^{q-1} p_m V_{q-m} + K_q,
    K_q = (1/2) T(q)/W - T(q+1)/W,                          V_1 = K_1,

which is the one recursion solved: A_q = 1/2 - V_q, and 1 - A_q =
1/2 + V_q.  The V form has no constant part, so each V_q is accurate
relative to its own terms.  The iterates from a run of length s are

    B^s_q = sum_{j=1}^{q-1} (eta_{s+j-1}/T(s)) (1 - A_{q-j}) + T(s+q)/T(s).

The predicted size of the correlation at lag q is the double tail
D(q) = sum_{s>=1} sum_{k>=0} eta_{k+q+s}, read from the sequence's
double-tail grid: polynomial q^(2-gamma) for power weights with
gamma > 2, and of order q e^(-sqrt q) for exp(-sqrt n) weights.  The
run-length chain in runshift.oracle provides the independent ground
truth for all of these quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sequences import EtaSequence

__all__ = [
    "RenewalSeries",
    "renewal_series",
    "iterates_from_run",
    "decay_table",
]


@dataclass(frozen=True, eq=False)
class RenewalSeries:
    """Renewal data for lags 1..qmax; index i of each array holds lag i+1.

    jump_probs[m-1] = eta_m / W, tail_terms[q-1] = T(q+1)/W,
    forcing[q-1] = K_q, iterates[q-1] = A_q, deficits[q-1] = V_q.
    """

    jump_probs: np.ndarray
    tail_terms: np.ndarray
    forcing: np.ndarray
    iterates: np.ndarray
    deficits: np.ndarray


def renewal_series(eta: EtaSequence, qmax: int) -> RenewalSeries:
    """Solve the deficit recursion up to lag qmax; the iterates are 1/2 - V.

    Tails are taken from the sequence's certified grid once and reused
    across the whole sweep.
    """
    if qmax < 1:
        raise ValueError("qmax must be at least 1")
    if qmax + 1 > eta.n_max:
        raise ValueError(f"qmax={qmax} needs n_max >= {qmax + 1}")
    w = eta.W()
    t = eta.tail_grid()  # t[m-1] = T(m)
    p = eta.values[:qmax] / w
    tail_terms = t[1 : qmax + 1] / w
    forcing = 0.5 * t[:qmax] / w - tail_terms
    deficits = _lagged_solve(p, forcing)
    return RenewalSeries(p, tail_terms, forcing, 0.5 - deficits, deficits)


def iterates_from_run(eta: EtaSequence, s: int, qmax: int) -> np.ndarray:
    """B^s_q for q = 1..qmax: transfer iterates at a leading run of length s.

    Reduces to the plain iterates at s = 1; V is solved afresh on each call.
    """
    if s < 1:
        raise ValueError("run length s must be at least 1")
    if qmax < 1:
        raise ValueError(f"qmax must be at least 1, got {qmax}")
    if s + qmax > eta.n_max + 1:
        raise ValueError(f"s + qmax = {s + qmax} needs n_max >= {s + qmax - 1}")
    deficits = renewal_series(eta, max(qmax - 1, 1)).deficits
    t = eta.tail_grid()
    ts = t[s - 1]
    ratios = eta.values[s - 1 : s + qmax - 1] / ts  # eta_{s+j-1}/T(s), j = 1..qmax
    tails = t[s : s + qmax] / ts  # T(s+q)/T(s), q = 1..qmax
    comp = np.concatenate(([0.0], 0.5 + deficits[: qmax - 1]))  # 1 - A_i; no A_0 term
    return _causal_convolve(ratios, comp, qmax) + tails


_BLOCK = 32  # lags per numpy call in _lagged_solve and _causal_convolve


def _lagged_solve(p: np.ndarray, f: np.ndarray) -> np.ndarray:
    """x_i = f_i - sum_{k=1}^{min(i, len p)} p[k-1] x_{i-k} by direct summation, accurate
    relative to the terms of x_i's block (an FFT errs by u max|x| and loses tiny late x_i).

    Lags go _BLOCK at a time.  With c = (1, p, 0, ...), block [s, s+b) takes its far history
    x[:s] off f[s:s+b] by one correlation with c[1:], giving y, then multiplies y by the
    inverse R of the unit lower-triangular Toeplitz block of c, built once per call.  R is
    Toeplitz as well, R[i, j] = r_{i-j}, where r_0 = 1 and r_k = -sum_{j=1}^{k} p_j r_{k-j}
    is the renewal sequence of p; 0 <= p and sum p <= 1 give |r_k| <= 1 by induction.  So
    x_i = sum_j r_{i-j} y_j errs by a small multiple of u sum_j |y_j| over the block's
    earlier lags, and |y_j| is at most x_j's own terms |f_j| + sum_k p_k |x_{j-k}|: the same
    accumulated bound as forward substitution.  n min(n, len p) flops in ~n / _BLOCK calls."""
    n, m = f.size, p.size
    c = np.concatenate(([1.0], p, np.zeros(_BLOCK)))
    inverse = np.linalg.inv(np.tril(c[np.abs(np.arange(_BLOCK)[:, None] - np.arange(_BLOCK))]))
    x = np.empty(n)
    for s in range(0, n, _BLOCK):
        b, lo = min(_BLOCK, n - s), max(0, s - m)
        rhs = f[s : s + b]
        if lo < s:
            rhs = rhs - np.correlate(c[1 : b + s - lo], x[lo:s][::-1], "valid")
        x[s : s + b] = inverse[:b, :b] @ rhs
    return x


def _causal_convolve(a: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """y_i = sum_{j=0}^{i} a_j v_{i-j} for i < n (a and v zero past their ends) by direct
    summation: each y_i errs by at most ~n u sum_j |a_j v_{i-j}|, where an FFT errs by u max|y|.

    A block-Toeplitz product: v cut into k blocks of b = _BLOCK forms the rows of `blocks`
    (k, b), and block offset d adds blocks[:k-d] @ T_d.T to the output rows y[d:], with the
    Toeplitz block T_d[r, c] = a_{db+r-c}.  One gemm per offset, n^2 / 2 multiply-adds in all."""
    b = _BLOCK
    k = -(-n // b)
    padded = np.zeros((k + 1) * b)  # a_i at padded[b + i]; zeros before and after
    padded[b : b + min(a.size, n)] = a[:n]
    blocks = np.zeros(k * b)
    blocks[: min(v.size, n)] = v[:n]
    blocks = blocks.reshape(k, b)
    y = np.zeros((k, b))
    toeplitz_t = b + np.arange(b) - np.arange(b)[:, None]  # [c, r] -> b + r - c
    for d in range(k):
        y[d:] += blocks[: k - d] @ padded[d * b + toeplitz_t]
    return y.ravel()[:n]


def decay_table(eta: EtaSequence, qmax: int, oracle_correlations: np.ndarray) -> dict:
    """Columns (q, A, V, K, D, C_oracle, C_over_D) for export; C_oracle is the first qmax
    ``oracle_correlations``, and ``np.full(qmax, np.nan)`` gives a table without them."""
    c = np.asarray(oracle_correlations, dtype=float)
    if c.ndim != 1 or c.size < qmax:
        raise ValueError(f"oracle_correlations of shape {c.shape}: qmax = {qmax} needs a 1-d "
                         f"array of at least {qmax} entries")
    series = renewal_series(eta, qmax)
    q = np.arange(1, qmax + 1)
    d = eta.double_tail_grid()[1 : qmax + 1]  # D(1..qmax); renewal_series needs qmax < n_max
    c = c[:qmax]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(c) / d
    return {
        "q": q,
        "A": series.iterates,
        "V": series.deficits,
        "K": series.forcing,
        "D": d,
        "C_oracle": c,
        "C_over_D": ratio,
    }
