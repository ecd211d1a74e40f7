"""Digit-restricted Cantor sets and certified quadrature of the run kernel.

K(l, k) is the closure of the numbers whose base-k expansion uses only the
digits c_1 < ... < c_l; its maximal-entropy measure nu puts mass l^-D on
every depth-D digit cylinder.  The quantity everything here serves is

    I(n) = integral over K of (n - t)^-alpha dnu(t),   alpha = log l / log k,

whose negative is the fixed-point coefficient sequence of the digit
renormalization operator.  Quadrature enumerates depth-D digit prefixes,
corrects by the midpoint of the residual cylinder, and reports a certified
mean-value error bound; an independent Monte Carlo integrator cross-checks
it from random digit strings.

``quadrature_values`` is the one evaluation loop.  Its prefix points are
rebuilt by ``_digit_sums`` on each call, with no cache, and one check,
``_check_kernel``, rejects n outside the kernel's domain before that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DigitSystem",
    "CantorMeasure",
    "quadrature",
    "quadrature_values",
    "error_bound",
    "required_depth",
    "monte_carlo_integral",
    "self_similarity_check",
    "MAX_POINTS",
]

MAX_POINTS = 1 << 24


@dataclass(frozen=True)
class DigitSystem:
    """Base k >= 2 with an increasing digit set c_1 < ... < c_l, 2 <= l <= k."""

    k: int
    digits: tuple[int, ...]

    def __post_init__(self):
        digits = tuple(int(c) for c in self.digits)
        object.__setattr__(self, "digits", digits)
        if self.k < 2:
            raise ValueError("base k must be at least 2")
        if any(b <= a for a, b in zip(digits, digits[1:])):
            raise ValueError("digits must be strictly increasing")
        if digits[0] < 0 or digits[-1] > self.k:
            raise ValueError(f"digits must lie in [0, {self.k}]")
        if not 2 <= len(digits) <= self.k:
            raise ValueError(f"need 2 <= l <= k digits, got l={len(digits)}")

    @property
    def l(self) -> int:
        return len(self.digits)

    @property
    def hausdorff_alpha(self) -> float:
        """log l / log k, the dimension exponent of K(l, k)."""
        return math.log(self.l) / math.log(self.k)

    @property
    def sup(self) -> float:
        """sup K = c_l / (k - 1)."""
        return self.digits[-1] / (self.k - 1)


def _digit_sums(digits: np.ndarray, weights) -> np.ndarray:
    """All l^D sums b_1 w_1 + ... + b_D w_D over b_i in ``digits``, b_1 slowest."""
    if not weights or digits.size ** len(weights) > MAX_POINTS:
        raise ValueError(
            f"need D >= 1 digit positions and l^D within the enumeration limit {MAX_POINTS}, "
            f"got l^D = {digits.size}^{len(weights)}"
        )
    sums = np.zeros(1, dtype=digits.dtype)
    for w in weights:
        sums = (sums[:, None] + digits[None, :] * w).ravel()
    return sums


@dataclass(frozen=True, eq=False)
class CantorMeasure:
    """K(l, k) with its maximal-entropy measure and kernel exponent alpha."""

    ds: DigitSystem
    alpha: float = None  # defaults to the Hausdorff exponent

    def __post_init__(self):
        if self.alpha is None:
            object.__setattr__(self, "alpha", self.ds.hausdorff_alpha)

    def prefix_points(self, depth: int) -> np.ndarray:
        """All l^depth depth-D cylinder base points sum b_i k^-i, built anew."""
        weights = [self.ds.k ** (-float(i)) for i in range(1, depth + 1)]
        return _digit_sums(np.asarray(self.ds.digits, dtype=float), weights)


def _check_kernel(cm: CantorMeasure, n) -> None:
    if n < 2 or n <= cm.ds.sup:
        raise ValueError(f"kernel singularity: n={n} needs n >= 2 and n > sup K = {cm.ds.sup:g}")


def error_bound(cm: CantorMeasure, n: int, depth: int) -> float:
    """Certified quadrature error: alpha (n - sup K)^(-alpha-1) sup K k^-depth."""
    _check_kernel(cm, n)
    sup = cm.ds.sup
    return cm.alpha * (n - sup) ** (-cm.alpha - 1.0) * sup * cm.ds.k ** (-float(depth))


def required_depth(cm: CantorMeasure, n: int, tol: float) -> int:
    """Smallest depth whose certified bound at this n is <= tol, among the
    depths whose l^depth prefix points fit MAX_POINTS."""
    usable = [d for d in range(1, MAX_POINTS.bit_length()) if cm.ds.l**d <= MAX_POINTS]
    for depth in usable:
        if error_bound(cm, n, depth) <= tol:
            return depth
    top = usable[-1]
    raise ValueError(
        f"tolerance {tol:g} at n={n} needs more than {cm.ds.l}^{top} prefix points "
        f"(limit {MAX_POINTS}); pass an explicit depth <= {top} "
        f"for the bound {error_bound(cm, n, top):.3g}"
    )


def quadrature(
    cm: CantorMeasure, n: int, depth: int | None = None, tol: float = 1e-8
) -> tuple[float, float]:
    """(I(n), bound) at ``depth``, or at the least depth whose bound is <= tol."""
    if depth is None:
        depth = required_depth(cm, n, tol)
    values, bounds = quadrature_values(cm, [n], depth)
    return float(values[0]), float(bounds[0])


def quadrature_values(cm: CantorMeasure, ns, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Vector of (I(n), bound) over indices ns at a common depth.

    Every depth-D digit cylinder carries mass l^-D and spans an interval of
    length sup K * k^-D above its base point; the kernel is evaluated at the
    half-interval midpoint, and |value - I(n)| <= bound for every n.
    """
    ns = np.asarray(ns, dtype=int)
    # error_bound checks every n before the prefix points are enumerated
    bounds = np.array([error_bound(cm, n, depth) for n in ns.tolist()])
    pts = cm.prefix_points(depth)
    mid = cm.ds.sup * cm.ds.k ** (-float(depth)) / 2.0
    out = np.empty(ns.size)
    for i, n in enumerate(ns):
        x = float(n) - pts - mid
        out[i] = np.mean(np.exp(-cm.alpha * np.log(x)))
    return out, bounds


_MC_CHUNK = 1 << 17


def monte_carlo_integral(
    cm: CantorMeasure, n: int, samples: int, seed: int
) -> tuple[float, float]:
    """Independent Monte Carlo estimate of I(n) from random digit strings.

    Draws i.i.d. points of K with uniformly random digits to resolution
    ~2^-40 and returns (estimate, standard error).  Deterministic for a
    fixed seed: the chunked draw order is fixed.
    """
    if samples < 1000:
        raise ValueError("use at least 1000 samples")
    _check_kernel(cm, n)
    length = math.ceil(40.0 / math.log2(cm.ds.k))
    digits = np.asarray(cm.ds.digits, dtype=float)
    weights = cm.ds.k ** -np.arange(1.0, length + 1.0)
    rng = np.random.default_rng(seed)
    vals = []
    remaining = samples
    while remaining > 0:
        chunk = min(remaining, _MC_CHUNK)
        idx = rng.integers(0, cm.ds.l, size=(chunk, length))
        t = digits[idx] @ weights
        vals.append(np.exp(-cm.alpha * np.log(n - t)))
        remaining -= chunk
    f = np.concatenate(vals)
    est = float(np.mean(f))
    stderr = float(np.std(f, ddof=1) / math.sqrt(samples))
    return est, stderr


def self_similarity_check(cm: CantorMeasure, n: int, depth: int) -> float:
    """|I(n) - sum_j I(k n - c_j)|, the fixed-point identity in integral form.

    Bounded by (l + 1) times the quadrature bound at this depth, since each
    of the l + 1 quadratures on the right contributes at most its own bound.
    """
    ns = [n] + [cm.ds.k * n - c for c in cm.ds.digits]
    values, _ = quadrature_values(cm, ns, depth)
    return abs(float(values[0]) - sum(values[1:].tolist()))
