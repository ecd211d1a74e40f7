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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cantor import CantorMeasure, DigitSystem, _digit_sums, quadrature_values
from .sequences import EtaSequence

__all__ = [
    "WaltersCoefficients",
    "coeffs_from_eta",
    "eta_from_coeffs",
    "InputTooShort",
    "renorm1_apply",
    "renorm1_fixed_point",
    "renorm2_apply",
    "renorm2_digit_indices",
    "renorm2_fixed_point",
    "QuadratureFixedPoint",
    "residual",
    "ResidualReport",
]


@dataclass(frozen=True, eq=False)
class WaltersCoefficients:
    """Defining data of a Walters-class potential: a_2, a_3, ... plus b, d.

    ``a[i]`` stores a_{i+2}; b and d are the constant values on the switch
    cylinders and ride along unchanged under renormalization.
    """

    a: np.ndarray
    b: float = 0.0
    d: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.a, dtype=float)
        object.__setattr__(self, "a", arr)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("need at least a_2")

    @property
    def n_max(self) -> int:
        """Largest defined index: a_2..a_{n_max}."""
        return self.a.size + 1

    def a_at(self, n: int) -> float:
        if not 2 <= n <= self.n_max:
            raise ValueError(f"a_{n} is not defined (have a_2..a_{self.n_max})")
        return float(self.a[n - 2])


def coeffs_from_eta(eta: EtaSequence, rescale: bool = False) -> WaltersCoefficients:
    """Coefficients with e^{a_q} = eta_q / eta_{q-1}; requires eta_1 = 1.

    With the convention eta_q = e^{a_2 + ... + a_q} the Jacobian rows sum
    to one; pass ``rescale=True`` to divide out eta_1 first.  b = d are set
    to log eta_1 - log W, the potential's value on the length-one run cylinders.
    """
    values = eta.values
    if values[0] != 1.0:
        if not rescale:
            raise ValueError("eta_1 != 1; pass rescale=True to normalize first")
        values = values / values[0]
    a = np.log(values[1:] / values[:-1])
    w = eta.W() / eta.values[0]
    return WaltersCoefficients(a, b=-math.log(w), d=-math.log(w))


def eta_from_coeffs(coeffs: WaltersCoefficients) -> EtaSequence:
    """eta_q = e^{a_2 + ... + a_q} with eta_1 = 1.

    The result has no analytic tail model, so certified tails refuse
    tolerances below the truncation floor.
    """
    # extended-precision accumulation keeps the round trip at the ulp scale
    partial = np.cumsum(coeffs.a.astype(np.longdouble))
    values = np.concatenate([[1.0], np.exp(partial).astype(float)])
    return EtaSequence(values)


class InputTooShort(ValueError):
    """The input ends before a_required, the last index (Ra)_2 reads."""

    def __init__(self, required: int):
        super().__init__(f"input too short: a_{required} required for (Ra)_2")
        self.required = required


def _offset_apply(coeffs: WaltersCoefficients, k: int, offsets) -> WaltersCoefficients:
    """(Ra)_n = sum of a_{k n - c} over c in ``offsets``, added in the order
    given, for n = 2 up to the last n whose every index the input holds."""
    low = min(offsets)
    n_top = (coeffs.n_max + low) // k
    if n_top < 2:
        raise InputTooShort(2 * k - low)
    ns = np.arange(2, n_top + 1)
    out = np.zeros(ns.size)
    for c in offsets:
        out += coeffs.a[k * ns - c - 2]
    return WaltersCoefficients(out, coeffs.b, coeffs.d)


# -- first type: block sums over k consecutive indices ---------------------


def renorm1_apply(coeffs: WaltersCoefficients, k: int) -> WaltersCoefficients:
    """(Ra)_n = a_{k(n-2)+3} + ... + a_{k(n-1)+2} for n >= 2, added lowest
    index first: the offsets 2k-3, ..., k-2."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return _offset_apply(coeffs, k, range(2 * k - 3, k - 3, -1))


def renorm1_fixed_point(
    k: int, a2: float, n_max: int, b: float = 0.0
) -> WaltersCoefficients:
    """Fixed point of the block operator with free parameters a_2 (and b).

    alpha(2) solves a_2 = -log((2 + alpha)/(1 + alpha)); each block
    [k(n-2)+3, k(n-1)+2] then carries alpha = k alpha(n) + (k - 2), and
    a_n = -log((n + alpha(n))/(n + alpha(n) - 1)).  The k-term block sums
    telescope exactly back to a_n.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if a2 >= 0.0:
        raise ValueError("a_2 must be negative")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    big = math.exp(-a2)
    alpha = np.empty(n_max + 1)
    alpha[2] = (2.0 - big) / (big - 1.0)
    n = 2
    while True:
        lo, hi = k * (n - 2) + 3, k * (n - 1) + 2
        if lo > n_max:
            break
        alpha[lo : min(hi, n_max) + 1] = k * alpha[n] + (k - 2)
        n += 1
    shifted = np.arange(2.0, n_max + 1.0) + alpha[2:] - 1.0
    if np.any(shifted <= 0.0):
        bad = int(np.argmax(shifted <= 0.0)) + 2
        raise ValueError(f"recursion leaves n + alpha(n) - 1 <= 0 at n = {bad}")
    return WaltersCoefficients(-np.log1p(1.0 / shifted), b=b, d=b)


# -- second type: digit sums ------------------------------------------------


def renorm2_apply(coeffs: WaltersCoefficients, ds: DigitSystem) -> WaltersCoefficients:
    """(Ra)_n = sum_i a_{k n - c_i} for n >= 2."""
    return _offset_apply(coeffs, ds.k, ds.digits)


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


@dataclass(frozen=True, eq=False)
class QuadratureFixedPoint:
    """Digit-operator fixed point a_n = -I(n) with per-index certified bounds."""

    coeffs: WaltersCoefficients
    bounds: np.ndarray
    measure: CantorMeasure
    depth: int | None  # None: the exact series, no quadrature


def renorm2_fixed_point(
    ds: DigitSystem, n_max: int, depth: int | None = None, b: float = 0.0
) -> QuadratureFixedPoint:
    """Fixed point of the digit operator from the Cantor-measure integral.

    a_n = -I(n) for 2 <= n <= n_max, where I is the kernel integral over
    K(l, k) at exponent alpha = log l / log k, exact by default or from the
    depth-D midpoint rule.  The residual under renorm2_apply is bounded by
    (l + 1) times the per-index bound.  In the degenerate case l = k with
    contiguous digits the integral is log(n/(n-1)) exactly.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    cm = CantorMeasure(ds)
    ns = np.arange(2, n_max + 1)
    vals, bounds = quadrature_values(cm, ns, depth)
    return QuadratureFixedPoint(
        WaltersCoefficients(-vals, b=b, d=b), bounds, cm, depth
    )


# -- verification -----------------------------------------------------------


@dataclass(frozen=True)
class ResidualReport:
    """sup |a_n - (Ra)_n| over verifiable indices."""

    sup_abs: float
    n_checked: int


def residual(coeffs: WaltersCoefficients, operator) -> ResidualReport:
    """Fixed-point residual of ``coeffs`` under ``operator`` (a callable
    WaltersCoefficients -> WaltersCoefficients, e.g. a partial of
    renorm1_apply or renorm2_apply)."""
    image = operator(coeffs)
    n_top = min(coeffs.n_max, image.n_max)
    diff = np.abs(coeffs.a[: n_top - 1] - image.a[: n_top - 1])
    return ResidualReport(float(diff.max()), n_top - 1)

