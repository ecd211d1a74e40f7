"""Independent ground truth: the equilibrium process as a run-length chain.

The equilibrium measure conditioned on its future is Markov in the state
(current symbol, current run length): the run continues with probability
c_m = T(m+1)/T(m) and switches symbol with s_m = eta_m/T(m).  Those are
exactly the two Jacobian branches, so this chain is derived from the
normalized potential alone and knows nothing of the renewal recursions it
is used to check.

Truncation at run length M forces a switch there, which keeps every row
stochastic and leaves the stationary law exactly proportional to T(m) on
1 <= m <= M (forced switches re-inject precisely the tail mass).  The
recorded truncation bias for correlation queries is twice the relative
tail mass sum_{m>M} T(m) / sum_m T(m).

Queries follow d = u_0 - u_1 for a mass vector u: both symbols move alike,
so P(symbol 0) = (mass + sum_m d_q[m]) / 2, and C(q) = sum_m d_q[m] / 2 from
the stationary law on symbol 0, with no subtraction of 1/4.  As the
stationary row has pi(m+1) = pi(m) c_m, a run begun at time j+1 > 0 holds
d_q[m] = pi(m) h(q-m).  With F(j), R(q) the switch flux at time j and the
mass left at time q of the runs present at time 0, the switch row
d_{j+1}[1] = -sum_m s_m d_j[m] and the readout become

    pi(1) h(j) = -(sum_{m=1}^{min(j,M)} pi(m) s_m h(j-m) + F(j)),
    sum_m d_q[m] = sum_{m=1}^{min(q,M)} pi(m) h(q-m) + R(q).

Rounding errs by ulps of the readout's terms, of order C(q) for power and
stretched weights but r^q >> C(q) = (2r-1)^q / 4 for geometric r > 1/2.
The recurrence goes to decay._lagged_solve and the readout to
decay._causal_convolve, both direct-summation kernels of runshift.decay.
Only that arithmetic is shared, never inputs: the coefficients, F, R and
the readout's weights come from the chain's rows, never eta/W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decay import _causal_convolve, _lagged_solve
from .sequences import EtaSequence

__all__ = ["RenewalChain", "build_chain", "correlation", "occupation_sweep", "sample_paths"]


@dataclass(frozen=True, eq=False)
class RenewalChain:
    """Truncated run-length chain on states (symbol, m), m = 1..M.

    ``continue_probs[m-1]`` and ``switch_probs[m-1]`` give the two branch
    probabilities out of run length m (identical for both symbols); the
    final row is a forced switch.  ``stationary`` has shape (M,) with
    stationary[m-1] = T(m) / (2 sum_{j<=M} T(j)), the stationary mass of
    (s, m) for either symbol s.
    """

    M: int
    continue_probs: np.ndarray
    switch_probs: np.ndarray
    stationary: np.ndarray
    eps_trunc: float


def build_chain(eta: EtaSequence, M: int) -> RenewalChain:
    """Build the chain truncated at run length M; its eps_trunc = D(M)/D(0)
    is the relative tail mass the truncation drops."""
    if M < 2:
        raise ValueError("truncation level M must be at least 2")
    cont, sw = eta.ratios(1, M)  # fresh arrays; past n_max only for geometric weights
    cont[M - 1] = 0.0
    sw[M - 1] = 1.0
    eps = eta.double_tail(M) / eta.double_tail(0)
    if M <= eta.n_max:
        t = eta.tail_grid()[:M]
    else:  # geometric: T(m) = T(1) ratio^(m-1), exact at any m
        t = eta.tail(1) * eta.tail_model.ratio ** np.arange(M)
    return RenewalChain(M, cont, sw, t / (2.0 * t.sum()), eps)


def correlation(chain: RenewalChain, qs) -> np.ndarray:
    """C(q) = P(x_0 = 0 and x_q = 0) - 1/4 at each requested lag.

    Computed as sum_m d_q[m] / 2, where by stationarity the runs longer than
    j switch at their inflow rate F(j) = pi(j+1); cost O(q min(q, M)),
    C(0) = 1/4, truncation bias <= 2 * eps_trunc.  Scalar in, scalar out.
    """
    pi = chain.stationary
    out = 0.5 * _difference_sums(chain, pi, np.cumsum(pi[::-1])[::-1], qs)
    return float(out[0]) if np.ndim(qs) == 0 else out


def occupation_sweep(chain: RenewalChain, start: tuple[int, int], qs) -> np.ndarray:
    """P(symbol 0 after q steps | start state (symbol, m)) at each lag of qs.

    This is the q-fold transfer iterate of the 0-cylinder indicator at a
    point with leading run (symbol, m), (1 + sum_m d_q[m]) / 2; it matches
    the renewal iterates from runshift.decay up to truncation.
    """
    sym, m = start
    if sym not in (0, 1) or not 1 <= m <= chain.M:
        raise ValueError(f"start state {start} outside (symbol, 1..{chain.M})")
    # the start run, of sign +1 on symbol 0, survives j steps with weight prod_{k=m}^{m+j-1} c_k
    alive = (1 - 2 * sym) * np.cumprod(np.concatenate(([1.0], chain.continue_probs[m - 1 : -1])))
    return 0.5 * (1.0 + _difference_sums(chain, alive * chain.switch_probs[m - 1 :], alive, qs))


def _difference_sums(chain: RenewalChain, flux: np.ndarray, alive: np.ndarray, qs) -> np.ndarray:
    """sum_m d_q[m] at each lag of qs from F = flux and R = alive (zero past their ends)."""
    qs = np.atleast_1d(np.asarray(qs, dtype=int))
    if np.any(qs < 0):
        raise ValueError("lags must be nonnegative")
    n = max(int(qs.max(initial=0)), 1)
    pi = chain.stationary
    sums = np.concatenate((alive, np.zeros(n + 1)))[: n + 1]
    f = np.concatenate((flux, np.zeros(n)))[:n]
    h = _lagged_solve(pi[:n] * chain.switch_probs[:n] / pi[0], -f / pi[0])
    sums[1:] += _causal_convolve(h, pi[:n], n)
    return sums[qs]


def sample_paths(chain: RenewalChain, length: int, n_paths: int, seed: int) -> dict:
    """Monte Carlo correlation estimates from simulated stationary paths.

    Returns arrays over q = 0..length: the empirical C(q) and its standard
    error.  Deterministic for a fixed seed, whose draws come in this order:
    the start symbols (``integers(0, 2, n_paths)``), the start run lengths
    (``choice(M, n_paths, p=2 stationary)``), then one ``random(n_paths)``
    per step, path j continuing its run at step t iff its draw is below
    c_m.  The estimates depend on that order.
    """
    if length < 1:
        raise ValueError(f"path length must be at least 1, got {length}")
    if n_paths < 2:
        raise ValueError(f"n_paths must be at least 2 for a standard error, got {n_paths}")
    rng = np.random.default_rng(seed)
    zeros = np.empty((length + 1, n_paths), dtype=bool)
    np.equal(rng.integers(0, 2, size=n_paths), 0, out=zeros[0])
    m = rng.choice(chain.M, size=n_paths, p=2.0 * chain.stationary)  # run length less one
    u, c = np.empty(n_paths), np.empty(n_paths)
    go = np.empty(n_paths, dtype=bool)
    for t in range(1, length + 1):
        rng.random(out=u)
        # m < M always, as c_M = 0 forces a switch; "clip" skips take's buffered bounds check
        np.less(u, chain.continue_probs.take(m, out=c, mode="clip"), out=go)
        m += 1
        m *= go  # a switch restarts the run at length one
        np.equal(zeros[t - 1], go, out=zeros[t])  # the symbol flips where the run ends
    hits = np.logical_and(zeros, zeros[0], out=zeros).mean(axis=1)  # x_0 = 0 and x_q = 0
    return {"q": np.arange(length + 1), "estimate": hits - 0.25,
            "stderr": np.sqrt(hits * (1.0 - hits) / (n_paths - 1))}
