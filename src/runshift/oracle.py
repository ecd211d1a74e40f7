"""Independent ground truth: the equilibrium process as a run-length chain.

The equilibrium measure conditioned on its future is Markov in the state
(current symbol, current run length): the run continues with probability
T(m+1)/T(m) and switches symbol with probability eta_m/T(m).  Those are
exactly the two Jacobian branches, so this chain is derived from the
normalized potential alone and knows nothing of the renewal recursions it
is used to check.

Truncation at run length M forces a switch there, which keeps every row
stochastic and leaves the stationary law exactly proportional to T(m) on
1 <= m <= M (forced switches re-inject precisely the tail mass).  The
recorded truncation bias for correlation queries is twice the relative
tail mass sum_{m>M} T(m) / sum_m T(m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sequences import EtaSequence, GeometricTail, ToleranceError

__all__ = [
    "RenewalChain",
    "build_chain",
    "step",
    "correlation",
    "occupation_probability",
    "occupation_sweep",
    "cylinder_probability",
    "sample_paths",
    "stationarity_defect",
    "dense_transition",
]


@dataclass(frozen=True, eq=False)
class RenewalChain:
    """Truncated run-length chain on states (symbol, m), m = 1..M.

    ``continue_probs[m-1]`` and ``switch_probs[m-1]`` give the two branch
    probabilities out of run length m (identical for both symbols); the
    final row is a forced switch.  ``stationary`` has shape (2, M) with
    stationary[s, m-1] = T(m) / (2 sum_{j<=M} T(j)).
    """

    eta: EtaSequence
    M: int
    continue_probs: np.ndarray
    switch_probs: np.ndarray
    stationary: np.ndarray
    eps_trunc: float


def build_chain(eta: EtaSequence, M: int, eps_trunc: float | None = None) -> RenewalChain:
    """Build the truncated chain, rejecting M too small for eps_trunc."""
    if M < 2:
        raise ValueError("truncation level M must be at least 2")
    cont, sw = eta.ratio_arrays(M)  # fresh arrays, not views of the tail grid
    cont[M - 1] = 0.0
    sw[M - 1] = 1.0
    eps = eta.double_tail(M) / eta.first_moment()
    if eps_trunc is not None and eps > eps_trunc:
        raise ValueError(
            f"truncation at M={M} leaves relative tail mass {eps:.3g} > {eps_trunc:.3g}"
        )
    if M <= eta.n_max:
        t = eta.tail_grid()[:M]
    elif isinstance(eta.tail_model, GeometricTail):
        # T(m) = T(1) ratio^(m-1), exact at any m
        t = eta.tail(1) * eta.tail_model.ratio ** np.arange(M)
    else:
        raise ToleranceError(f"truncation M={M} needs n_max >= {M}")
    row = t / (2.0 * t.sum())
    return RenewalChain(eta, M, cont, sw, np.vstack([row, row]), eps)


def step(chain: RenewalChain, u: np.ndarray) -> np.ndarray:
    """One application of the transition operator to a mass vector (2, M)."""
    out = np.zeros_like(u)
    out[:, 1:] = u[:, :-1] * chain.continue_probs[:-1]
    flipped = u @ chain.switch_probs
    out[0, 0] = flipped[1]
    out[1, 0] = flipped[0]
    return out


def correlation(chain: RenewalChain, qs) -> np.ndarray:
    """C(q) = P(x_0 = 0 and x_q = 0) - 1/4 at each requested lag.

    Computed by iterated sparse application of the transition operator to
    the stationary mass restricted to symbol 0 (cost O(q M)); C(0) = 1/4.
    The truncation bias is at most 2 * eps_trunc.  Scalar in, scalar out.
    """
    u = chain.stationary.copy()
    u[1, :] = 0.0
    out = _zero_mass_sweep(chain, u, qs) - 0.25
    return float(out[0]) if np.isscalar(qs) else out


def _zero_mass_sweep(chain: RenewalChain, u: np.ndarray, qs) -> np.ndarray:
    """Mass on symbol 0 after each lag of qs, propagating u once."""
    qs = np.asarray(list(np.atleast_1d(qs)), dtype=int)
    if np.any(qs < 0):
        raise ValueError("lags must be nonnegative")
    wanted = {int(q): i for i, q in enumerate(qs)}
    out = np.empty(qs.size)
    if 0 in wanted:
        out[wanted[0]] = u[0].sum()
    for q in range(1, int(qs.max(initial=0)) + 1):
        u = step(chain, u)
        if q in wanted:
            out[wanted[q]] = u[0].sum()
    return out


def occupation_probability(chain: RenewalChain, start: tuple[int, int], q: int) -> float:
    """P(symbol 0 after q steps | start state (symbol, m)).

    This is the q-fold transfer iterate of the 0-cylinder indicator at a
    point with leading run (symbol, m); it matches the renewal iterates
    from runshift.decay up to truncation.
    """
    return float(occupation_sweep(chain, start, [q])[0])


def occupation_sweep(chain: RenewalChain, start: tuple[int, int], qs) -> np.ndarray:
    """occupation_probability at each lag of qs, in one propagation."""
    sym, m = start
    if sym not in (0, 1) or not 1 <= m <= chain.M:
        raise ValueError(f"start state {start} outside (symbol, 1..{chain.M})")
    u = np.zeros((2, chain.M))
    u[sym, m - 1] = 1.0
    return _zero_mass_sweep(chain, u, qs)


def cylinder_probability(chain: RenewalChain, q: int) -> float:
    """Stationary probability of q consecutive zeros,
    sum_{m>=q} T(m) / (2 sum_{j<=M} T(j)), from the chain's own stationary
    law (which covers every m <= M, also past the sequence's n_max)."""
    if not 1 <= q <= chain.M:
        raise ValueError(f"need 1 <= q <= M={chain.M}")
    return float(chain.stationary[0, q - 1 :].sum())


def stationarity_defect(chain: RenewalChain) -> float:
    """max |pi P - pi|: zero up to rounding by construction."""
    return float(np.abs(step(chain, chain.stationary) - chain.stationary).max())


def sample_paths(chain: RenewalChain, length: int, n_paths: int, seed: int) -> dict:
    """Monte Carlo correlation estimates from simulated stationary paths.

    Returns arrays over q = 0..length: the empirical C(q) and its standard
    error.  Deterministic for a fixed seed.
    """
    if length < 1 or n_paths < 1:
        raise ValueError("need positive length and path count")
    rng = np.random.default_rng(seed)
    sym = rng.integers(0, 2, size=n_paths)
    m = rng.choice(chain.M, size=n_paths, p=2.0 * chain.stationary[0]) + 1
    zeros = np.empty((length + 1, n_paths), dtype=bool)
    zeros[0] = sym == 0
    for t in range(1, length + 1):
        go = rng.random(n_paths) < chain.continue_probs[m - 1]
        m = np.where(go, m + 1, 1)
        sym = np.where(go, sym, 1 - sym)
        zeros[t] = sym == 0
    base = zeros[0]
    qs = np.arange(length + 1)
    est = np.empty(length + 1)
    err = np.empty(length + 1)
    for q in qs:
        prod = (base & zeros[q]).astype(float)
        est[q] = prod.mean() - 0.25
        err[q] = prod.std(ddof=1) / math.sqrt(n_paths)
    return {"q": qs, "estimate": est, "stderr": err}


def dense_transition(chain: RenewalChain) -> np.ndarray:
    """The full (2M, 2M) transition matrix, for small-M verification work.

    State (s, m) maps to row/column index s * M + (m - 1).
    """
    M = chain.M
    P = np.zeros((2 * M, 2 * M))
    for s in (0, 1):
        base = s * M
        other = (1 - s) * M
        for m in range(1, M + 1):
            if m < M:
                P[base + m - 1, base + m] = chain.continue_probs[m - 1]
            P[base + m - 1, other] = chain.switch_probs[m - 1]
    return P
