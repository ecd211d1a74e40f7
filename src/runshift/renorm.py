"""Renormalization operators on Walters-class coefficient sequences.

For a stretch k and an offset set C, (Ra)_n = sum over c in C of
a_{k n - c} acts on the run coefficients a_2, a_3, ... of a potential
that is constant on the run cylinders.  One kernel, ``_offset_apply``,
evaluates it through the index map alone, for two offset sets:

* the block operator, C = {k-2, ..., 2k-3}: the sum of the k consecutive
  a_i for i in [k(n-2)+3, k(n-1)+2], with fixed points
  a_n = -log((n + alpha(n)) / (n + alpha(n) - 1)) for the index profile
  alpha_m = k alpha(n) + (k - 2) over blocks; for k = 2 it is the digit
  operator of (2; 0, 1);
* the digit operator of a digit system (k; c_1..c_l), C = {c_1..c_l},
  whose fixed point is minus the Cantor-measure kernel integral from
  runshift.cantor.

Coefficients are plain float64 arrays with ``a[i] = a_{i+2}``, without the
value on the length-one runs.  A fixed point is its coefficients with, for
the digit operator, the per-index bounds of ``quadrature_values``, and
``residual`` gives |a_n - (Ra)_n| for each n the image defines.
"""

from __future__ import annotations

import math

import numpy as np

from .cantor import CantorMeasure, DigitSystem, _digit_sums, quadrature_values
from .sequences import EtaSequence

__all__ = [
    "coeffs_from_eta",
    "eta_from_coeffs",
    "InputTooShort",
    "renorm1_apply",
    "renorm1_fixed_point",
    "renorm2_apply",
    "renorm2_digit_indices",
    "renorm2_fixed_point",
    "residual",
]


def coeffs_from_eta(eta: EtaSequence) -> np.ndarray:
    """Coefficients with e^{a_q} = eta_q / eta_{q-1}; requires eta_1 = 1.

    With the convention eta_q = e^{a_2 + ... + a_q} the Jacobian rows sum
    to one; ``eta.scaled(1 / eta.eta(1))`` normalizes any other sequence.
    """
    if abs(eta.values[0] - 1.0) > 2**-53:  # the scaled route may leave eta_1 one ulp below 1
        raise ValueError("eta_1 != 1; normalize first with eta.scaled(1 / eta.eta(1))")
    return np.log(eta.values[1:] / eta.values[:-1])


def eta_from_coeffs(a: np.ndarray) -> EtaSequence:
    """eta_q = e^{a_2 + ... + a_q} with eta_1 = 1.

    The result has no analytic tail model, so certified tails refuse
    tolerances below the truncation floor.
    """
    # extended-precision accumulation keeps the round trip at the ulp scale
    partial = np.cumsum(np.asarray(a, dtype=np.longdouble))
    values = np.concatenate([[1.0], np.exp(partial).astype(float)])
    return EtaSequence(values)


class InputTooShort(ValueError):
    """The input ends before a_required, the last index (Ra)_2 reads."""

    def __init__(self, required: int):
        super().__init__(f"input too short: a_{required} required for (Ra)_2")
        self.required = required


def _offset_apply(a: np.ndarray, k: int, offsets) -> np.ndarray:
    """(Ra)_n = sum of a_{k n - c} over c in the monotone ``offsets``, added in
    the order given, for n = 2 up to the last n whose every index the input holds."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"coefficients must be a 1-d array a_2, a_3, ..., got shape {a.shape}")
    low = min(offsets[0], offsets[-1])  # not min(offsets), which walks all k of a block
    n_top = (a.size + 1 + low) // k
    if n_top < 2:
        raise InputTooShort(2 * k - low)
    ns = np.arange(2, n_top + 1)
    out = np.zeros(ns.size)
    for c in offsets:
        out += a[k * ns - c - 2]
    return out


# -- first type: block sums over k consecutive indices ---------------------


def renorm1_apply(a: np.ndarray, k: int) -> np.ndarray:
    """(Ra)_n = a_{k(n-2)+3} + ... + a_{k(n-1)+2} for n >= 2, added lowest
    index first: the offsets 2k-3, ..., k-2."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return _offset_apply(a, k, range(2 * k - 3, k - 3, -1))


def renorm1_fixed_point(k: int, a2: float, n_max: int) -> np.ndarray:
    """Fixed point of the block operator with free parameter a_2.

    alpha(2) solves a_2 = -log((2 + alpha)/(1 + alpha)); each block
    [k(n-2)+3, k(n-1)+2] then carries alpha = k alpha(n) + (k - 2), and
    a_n = -log((n + alpha(n))/(n + alpha(n) - 1)).  The k-term block sums
    telescope exactly back to a_n.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if not a2 < 0.0:
        raise ValueError(f"a_2 must be negative, got {a2!r}")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    try:
        big = math.exp(-a2)
        alpha2 = (2.0 - big) / (big - 1.0)
    except (OverflowError, ZeroDivisionError):
        alpha2 = math.nan
    if not math.isfinite(alpha2):
        raise ValueError(f"a_2 = {a2!r} gives no finite alpha(2) = (2 - e^-a_2)/(e^-a_2 - 1)")
    alpha = np.empty(n_max + 1)
    alpha[2] = alpha2
    # one level at a time: index i in first..last takes alpha of lo + (i - first) // k
    lo = hi = 2
    while (first := k * (lo - 2) + 3) <= n_max:
        last = min(k * (hi - 1) + 2, n_max)
        alpha[first : last + 1] = k * alpha[lo + np.arange(last - first + 1) // k] + (k - 2)
        lo, hi = first, last
    shifted = np.arange(2.0, n_max + 1.0) + alpha[2:] - 1.0
    if np.any(shifted <= 0.0):
        bad = int(np.argmax(shifted <= 0.0)) + 2
        raise ValueError(f"recursion leaves n + alpha(n) - 1 <= 0 at n = {bad}")
    return -np.log1p(1.0 / shifted)


# -- second type: digit sums ------------------------------------------------


def renorm2_apply(a: np.ndarray, ds: DigitSystem) -> np.ndarray:
    """(Ra)_n = sum_i a_{k n - c_i} for n >= 2."""
    return _offset_apply(a, ds.k, ds.digits)


def renorm2_digit_indices(ds: DigitSystem, n_fold: int) -> np.ndarray:
    """Offsets j = b_0 k^0 + ... + b_{N-1} k^{N-1} over digit choices b_i.

    The N-fold digit operator acts in one pass as
    (R^N a)_n = sum_j a_{k^N n - j} over these l^N offsets (sorted, with
    multiplicity).
    """
    if ds.digits[-1] * (ds.k**n_fold - 1) // (ds.k - 1) > np.iinfo(np.int64).max:
        raise ValueError(f"N={n_fold}: the largest offset c_l (k^N - 1)/(k - 1) overflows 64 bits")
    weights = [ds.k**i for i in range(n_fold)]
    return np.sort(_digit_sums(np.asarray(ds.digits, dtype=np.int64), weights))


def renorm2_fixed_point(
    ds: DigitSystem, n_max: int, depth: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed point of the digit operator from the Cantor-measure integral,
    with the certified bound of each a_n.

    a_n = -I(n) for 2 <= n <= n_max, where I is the kernel integral over
    K(l, k) at exponent alpha = log l / log k, exact by default or from the
    depth-D midpoint rule.  The residual under renorm2_apply is bounded by
    (l + 1) times the per-index bound.  In the degenerate case l = k with
    contiguous digits the integral is log(n/(n-1)) exactly.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    ns = np.arange(2, n_max + 1)
    vals, bounds = quadrature_values(CantorMeasure(ds), ns, depth)
    return -vals, bounds


# -- verification -----------------------------------------------------------


def residual(a: np.ndarray, image: np.ndarray) -> np.ndarray:
    """|a_n - (Ra)_n| for n = 2, ..., image.size + 1, where ``image`` is the
    operator applied to ``a``; entry i is that of n = i + 2."""
    return np.abs(a[: image.size] - image)
