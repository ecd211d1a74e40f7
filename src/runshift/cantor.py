"""Digit-restricted Cantor sets and certified integrals of the run kernel.

K(l, k) is the closure of the numbers whose base-k expansion uses only the
digits c_1 < ... < c_l; its maximal-entropy measure nu puts mass l^-D on
every depth-D digit cylinder.  The quantity everything here serves is

    I(n) = integral over K of (n - t)^-alpha dnu(t),   alpha = log l / log k,

whose negative is the fixed-point coefficient sequence of the digit
renormalization operator.

nu is self-similar: it is the average over the digits c of its images
under t -> (c + t)/k (Hutchinson 1981).  In the scaled variable
s = t / sup K that average acts on the moments m_p = E[s^p] as one
lower-triangular step matrix, so

* ``depth=None``: the moments of nu are the step's fixed point, found by
  forward substitution;
* ``depth=D``: D steps from the point mass at sup K / 2 give the moments
  of the depth-D midpoint rule, which puts mass l^-D at the midpoint of
  every depth-D cylinder and errs by at most ``error_bound``.

Either way I(n) = n^-alpha sum_p (alpha)_p / p! m_p (sup K / n)^p, summed by
Horner over all n at once.  ``quadrature_values`` is the one evaluation;
its bound adds the series' tail and an a-priori rounding bound to the
midpoint rule's error.  ``prefix_points`` enumerates the cylinder base
points directly, the independent reference for the series, and a Monte
Carlo integrator cross-checks both from digit strings made of blocks of
g digits, each a base point of ``prefix_points(g)``.  As nu gives every
depth-g cylinder the same mass, every pass over the table takes each top
block once, and the lower blocks are the same table cyclically shifted
by a random offset, one per pass and block.  One check,
``_check_kernel``, rejects n outside the kernel's domain.
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
    "monte_carlo_integral",
    "self_similarity_check",
    "MAX_POINTS",
]

MAX_POINTS = 1 << 24
U = 2.0**-53  # unit roundoff of double precision


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
    """K(l, k) with its maximal-entropy measure."""

    ds: DigitSystem

    @property
    def alpha(self) -> float:
        """The kernel exponent: the Hausdorff exponent log l / log k."""
        return self.ds.hausdorff_alpha

    def prefix_points(self, depth: int) -> np.ndarray:
        """All l^depth depth-D cylinder base points sum b_i k^-i, built anew."""
        weights = [self.ds.k ** (-float(i)) for i in range(1, depth + 1)]
        return _digit_sums(np.asarray(self.ds.digits, dtype=float), weights)


def _check_kernel(cm: CantorMeasure, n) -> None:
    if n < 2 or n <= cm.ds.sup:
        raise ValueError(f"kernel singularity: n={n} needs n >= 2 and n > sup K = {cm.ds.sup:g}")


def error_bound(cm: CantorMeasure, n, depth: int):
    """Certified quadrature error: alpha (n - sup K)^(-alpha-1) sup K k^-depth
    (elementwise for an array of n)."""
    _check_kernel(cm, np.min(n))
    sup = cm.ds.sup
    return cm.alpha * (n - sup) ** (-cm.alpha - 1.0) * sup * cm.ds.k ** (-float(depth))


def quadrature(cm: CantorMeasure, n: int, depth: int | None = None) -> tuple[float, float]:
    """(I(n), bound) from the depth-D midpoint rule, or exactly with depth=None."""
    values, bounds = quadrature_values(cm, [n], depth)
    return float(values[0]), float(bounds[0])


# Rounding is bounded a priori by counting roundings (Higham, *Accuracy and
# Stability of Numerical Algorithms*, ch. 3-4): a value that went through N
# roundings of positive data has relative error at most
# gamma_N = N u / (1 - N u), and gamma_M, gamma_N compose to gamma_(M+N).
# Every quantity below is positive, so sums never cancel, and a sum's
# relative error is at most the largest of its terms' plus one rounding per
# addition a term passes through.  Underflow adds at most 2^-1074 per
# operation, far below the last bit of any moment: m_p >= 2^-p / l, the
# mass of the top digit's cylinder, where s >= 1/2.


def _series_coefficients(alpha: float, r: float) -> tuple[list, float, float]:
    """([(alpha)_p / p! for p <= P], c_(P+1), rho) for the least P whose tail
    sum_(p>P) (alpha)_p/p! r^p <= c_(P+1) r^(P+1) / (1 - r rho) is below u/4.

    rho bounds the ratio (alpha + p)/(p + 1) of consecutive coefficients for
    every p > P; for alpha <= 1 it is 1.  r = sup K / n_min is at most 0.75.
    """
    coef = [1.0]
    while True:
        p = len(coef)
        coef.append(coef[-1] * (alpha + (p - 1)) / p)
        rho = max(1.0, (alpha + p) / (p + 1))
        if r * rho < 1.0 and coef[-1] * r**p / (1.0 - r * rho) <= U / 4:
            return coef[:-1], coef[-1], rho


def _step_matrix(ds: DigitSystem, P: int) -> np.ndarray:
    """A[p, i] = mean over c of C(p, i) (c / (k sup))^(p-i) k^-i, so that row p
    expands ((c/sup + s)/k)^p in powers of s.

    Pascal's rule builds each digit's row from the last with entries at most
    ((c/sup + 1)/k)^p <= 1, so no binomial coefficient overflows, and 0^0 = 1.
    a_c = c (k-1) / (c_l k) and 1/k are each rounded once, and every level of
    the rule adds a product and a sum: an entry of row p carries 3p + l
    roundings, l of them from the mean over digits.
    """
    a = np.array([c * (ds.k - 1) / (ds.digits[-1] * ds.k) for c in ds.digits])[:, None]
    b = 1.0 / ds.k
    rows = np.zeros((ds.l, P + 1))
    rows[:, 0] = 1.0
    A = np.empty((P + 1, P + 1))
    for p in range(P + 1):
        A[p] = rows.sum(axis=0) / ds.l
        step = a * rows
        step[:, 1:] += b * rows[:, :-1]
        rows = step
    return A


def _moments(ds: DigitSystem, P: int, depth: int | None) -> tuple[np.ndarray, np.ndarray]:
    """(m_p, N_p) for p <= P: the moments E[s^p] of nu (depth=None) or of the
    depth-D midpoint rule, and rounding counts with |m^_p - m_p| <= gamma_N_p m_p.

    m_0 = 1 exactly (row 0 of A is 1, 0, ...).  One step A m adds to row p
    the 3p + l roundings of its entries, 1 of the products and p of the sum,
    over the largest count among m_0..m_p, which is m_p's.  The fixed point
    divides a sum of p terms by 1 - A[p, p].  Relative to 1 - k^-p, that
    denominator carries the 3p + l roundings of A[p, p] (as k^-p <= 1 - k^-p)
    and 1 of the subtraction; dividing by a factor 1 + theta with
    |theta| <= gamma_j is within gamma_2j of dividing by 1, so these count
    twice, and the division once.  The counts of the fixed point are summed
    from p = 0, which overcounts by 3l + 3.
    """
    A = _step_matrix(ds, P)
    p = np.arange(P + 1, dtype=float)
    if depth is not None:
        m = 0.5**p  # the point mass at s = 1/2, exact
        for _ in range(depth):
            m = A @ m
        counts = depth * (4.0 * p + ds.l + 1.0)
    else:
        m = np.empty(P + 1)
        m[0] = 1.0
        for q in range(1, P + 1):
            m[q] = (A[q, :q] @ m[:q]) / (1.0 - A[q, q])
        counts = np.cumsum(10.0 * p + 3.0 * ds.l + 3.0)
    counts[0] = 0.0
    return m, counts


def quadrature_values(
    cm: CantorMeasure, ns, depth: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Vector of (I(n), bound) over indices ns, with |value - I(n)| <= bound.

    With ``depth`` the value is the depth-D midpoint rule and the bound
    starts from its ``error_bound``; with ``depth=None`` it is the integral
    against nu itself.  The bound adds the series' tail past P terms, with
    P taken at the smallest n, and the rounding bound of the moments, the
    coefficients (3p roundings), their products (1), Horner (2p + 1),
    r = sup K / n rounded once and raised to p (p), numpy's power n^-alpha
    (4 ulp, so 8) and the last product (1).
    """
    ns = np.asarray(ns, dtype=int)
    if ns.size == 0:
        return np.empty(0), np.empty(0)
    _check_kernel(cm, ns.min())
    if depth is not None and depth < 0:
        raise ValueError(f"depth must be a nonnegative integer, got {depth}")
    ds = cm.ds
    r = ds.digits[-1] / ((ds.k - 1) * ns.astype(float))  # an int64 product could wrap
    coef, tail_coef, rho = _series_coefficients(cm.alpha, float(r.max()))
    P = len(coef) - 1
    m, counts = _moments(ds, P, depth)
    terms = np.asarray(coef) * m
    x = (counts + 6.0 * np.arange(P + 1) + 11.0) * U
    g = x / (1.0 - x)  # gamma_N
    errs = terms * g / (1.0 - g)  # relative to the computed term, not the exact one
    value = np.zeros(ns.size)
    rounding = np.zeros(ns.size)
    for j in range(P, -1, -1):
        value = value * r + terms[j]
        rounding = rounding * r + errs[j]
    scale = np.power(ns.astype(float), -cm.alpha)
    tail = tail_coef * r ** (P + 1) / (1.0 - r * rho)
    bounds = scale * (tail + rounding)
    if depth is not None:
        bounds += error_bound(cm, ns, depth)
    return scale * value, bounds


_MC_BLOCK = 1 << 16  # most base points in one block's table
_MC_PASSES = 32  # fewest passes, so that their spread is an honest error
_MC_SLICE = 1 << 14  # most points in a batch of whole passes, unless one pass is more


def _mc_blocks(cm: CantorMeasure, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """(prefix_points(g), k^(-g b) for b < B): g >= 1 the largest with
    l^g <= min(_MC_BLOCK, samples // _MC_PASSES), or 1, and B blocks of g
    digits covering the ceil(53 / log2 k) digits of 2^-53."""
    l, per_pass = cm.ds.l, samples // _MC_PASSES
    if l > per_pass:
        raise ValueError(f"need at least {_MC_PASSES * l} samples for {_MC_PASSES} passes "
                         f"over the l = {l} digits, got {samples}")
    g = 1
    while l ** (g + 1) <= min(_MC_BLOCK, per_pass):
        g += 1
    blocks = math.ceil(math.ceil(53.0 / math.log2(cm.ds.k)) / g)
    return cm.prefix_points(g), cm.ds.k ** (-g * np.arange(blocks, dtype=float))


def monte_carlo_integral(
    cm: CantorMeasure, n: int, samples: int, seed: int
) -> tuple[float, float]:
    """Independent Monte Carlo estimate of I(n) from digit strings.

    A string is B blocks of g digits, B g >= ceil(53 / log2 k), so that it
    resolves 2^-53; block b takes a base point of ``prefix_points(g)``,
    whose S = l^g entries have mass l^-g each, scaled by k^(-g b).  Each of
    the P = samples // S passes (at least 32) evaluates every top block
    once, so the top block is stratified.  For each pass and each lower
    block one offset r is drawn uniformly from [0, S) with
    ``default_rng(seed)``, as one (P, B - 1) array, and cell j takes the
    base point (j + r) mod S there: a randomly shifted rule (Cranley and
    Patterson 1976), unbiased in every pass, as for a fixed cell the point
    is uniform.  The passes are independent, so the estimate is the mean
    of the P pass means and the standard error their spread,
    std(ddof=1) / sqrt(P).  The same seed gives the same result.  Needs
    at least max(1000, 32 l) samples, and runs P S <= samples of them.
    """
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    _check_kernel(cm, n)
    table, weights = _mc_blocks(cm, samples)
    size = table.size
    passes = samples // size
    offsets = np.random.default_rng(seed).integers(0, size, size=(passes, weights.size - 1))
    # block b of cell j, shifted by r, is the slice [j + r] of the scaled table stored twice
    lower = [np.tile(table * w, 2) for w in weights[1:]]
    rows = max(1, _MC_SLICE // size)  # whole passes evaluated together
    f = np.empty((rows, size))
    means = np.empty(passes)
    for first in range(0, passes, rows):
        stop = min(passes, first + rows)
        batch = f[:stop - first]
        for x, row in zip(batch, offsets[first:stop].tolist()):
            np.subtract(n, table, out=x)
            for block, r in zip(lower, row):
                x -= block[r:r + size]
        np.log(batch, out=batch)  # of n - t
        np.multiply(batch, -cm.alpha, out=batch)
        np.exp(batch, out=batch)  # (n - t)^-alpha
        np.sum(batch, axis=1, out=means[first:stop])
    means /= size
    return float(np.mean(means)), float(np.std(means, ddof=1)) / math.sqrt(passes)


def self_similarity_check(cm: CantorMeasure, n: int, depth: int) -> float:
    """|I(n) - sum_j I(k n - c_j)|, the fixed-point identity in integral form.

    Bounded by (l + 1) times the quadrature bound at this depth, since each
    of the l + 1 quadratures on the right contributes at most its own bound.
    """
    ns = [n] + [cm.ds.k * n - c for c in cm.ds.digits]
    values, _ = quadrature_values(cm, ns, depth)
    return abs(float(values[0]) - sum(values[1:].tolist()))
