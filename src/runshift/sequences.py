"""Run-weight sequences with certified tail control.

Everything downstream (potentials, equilibrium measures, renewal decay
rates, the run-length oracle) is a functional of a positive nonincreasing
summable sequence eta_1, eta_2, ...  This module provides:

* analytic families (power n^-gamma, stretched exp(-n^theta), geometric
  ratio^(n-1)) evaluated to a finite cutoff, together with tail models that
  certify the truncated remainders by integral brackets or closed forms,
  all named in one registry, FAMILIES; the stretched brackets' upper
  incomplete gamma integrals come from the power series of the lower
  integral for x < a + 1 and from the continued fraction of DLMF 8.9.2
  otherwise, in pure Python;
* custom finite sequences, EtaSequence(values, tail_model);
* tail sums T(m) = sum_{n>=m} eta_n, double tails
  D(q) = sum_{m>q} (m-q) eta_m, powered sums W(beta) = sum_n eta_n^beta,
  and first moments, each with a certified error;
* the inverse construction that produces eta from a target decay profile
  d_q via second differences, with exact tails inherited from the target.

Series are accumulated smallest-terms-first (one cumulative sum from the
far end), so T(m) = eta_m + T(m+1) holds exactly in floating point.  The
certified error of a reported value is the far bracket's half-width; the
rounding of the far-end sum is not yet counted.  The double tails come
from the same grid by D(q) = sum_{j>q} T(j): one more far-end cumulative
sum gives every D(q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable

import numpy as np

__all__ = [
    "EtaSequence",
    "NotSummableError",
    "ToleranceError",
    "Family",
    "FAMILIES",
    "parse_family",
    "make_eta",
    "inverse_design",
    "target_grid",
    "decay_profile",
    "sequence_table",
    "PowerTail",
    "StretchedTail",
    "GeometricTail",
    "TargetTail",
]


class NotSummableError(ValueError):
    """The requested family or exponent gives a divergent series."""


class ToleranceError(RuntimeError):
    """A certified value cannot be produced at the requested tolerance."""


def _upper_gamma(a: float, x: float) -> float:
    """Unnormalized upper incomplete gamma integral from x > 0 to infinity.

    For x < a + 1, Gamma(a) minus the power series of the lower integral,
    x^a e^-x sum_k x^k / (a (a+1) ... (a+k)); otherwise x^a e^-x times the
    continued fraction of DLMF 8.9.2, evaluated by the modified Lentz method.
    The factor x^a e^-x is exp(a log x - x), so it loses about
    |a log x| + x ulps.  Returns inf where Gamma(a) or that factor overflows,
    and 0 where the result underflows.
    """
    eps, tiny = 2.0**-52, 2.0**-1000
    try:
        if x < a + 1.0:
            term = total = 1.0 / a
            ap = a
            while term > total * eps:
                ap += 1.0
                term *= x / ap
                total += term
            return math.gamma(a) - total * math.exp(a * math.log(x) - x)
        # Gamma(a, x) x^-a e^x = 1/(x+1-a- 1(1-a)/(x+3-a- 2(2-a)/(x+5-a- ...)))
        b = x + 1.0 - a
        c, d = 1.0 / tiny, 1.0 / b
        frac = d
        i = 0
        while True:
            i += 1
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = b + an / c
            c = c if abs(c) > tiny else tiny
            step = c * d
            frac *= step
            if abs(step - 1.0) <= eps:
                return frac * math.exp(a * math.log(x) - x)
    except OverflowError:
        return math.inf


class TailModel:
    """Analytic control of eta_n beyond the stored cutoff.

    ``sum_tail(m)`` and ``weighted_tail(m)`` return ``(lo, hi)`` brackets for
    sum_{n>=m} eta_n and sum_{n>=m} (n-m) eta_n: by integral comparison for
    monotone families (_IntegralTail), exact (lo == hi) for geometric and
    target-profile models.  ``powered(beta)`` returns the model for
    eta_n^beta where that is available.  ``value(n)`` gives eta_n at an
    index or, for the analytic families, at an array of indices; make_eta
    takes the stored values from it.  Every model is a frozen dataclass with
    a ``scale`` field, which the shared ``scaled(c)`` multiplies by c.
    """

    def sum_tail(self, m: int) -> tuple[float, float]:
        raise NotImplementedError

    def weighted_tail(self, m: int) -> tuple[float, float]:
        raise NotImplementedError

    def powered(self, beta: float) -> "TailModel":
        if beta == 1.0:
            return self
        raise ToleranceError("tail model does not certify powered sums")

    def scaled(self, c: float) -> "TailModel":
        return replace(self, scale=self.scale * c)


class _IntegralTail(TailModel):
    """Integral-comparison brackets for a decreasing family, which supplies
    ``value``, ``_integral(x)`` = int_x^inf eta and ``_double_integral(a)`` =
    int_a^inf (t - a) eta."""

    def sum_tail(self, m):
        lo = self._integral(m)
        return lo, lo + self.value(m)

    def weighted_tail(self, m):
        a = float(m + 1)
        lo = self._double_integral(a)
        hi = lo + 2.0 * self._integral(a) + self.value(a)
        return lo, hi


@dataclass(frozen=True)
class PowerTail(_IntegralTail):
    """eta_n = scale * n^-gamma, gamma > 1."""

    gamma: float
    scale: float = 1.0

    def value(self, n):
        return self.scale * n**-self.gamma

    def _integral(self, x):
        # int_x^inf scale * t^-gamma dt
        return self.scale * float(x) ** (1.0 - self.gamma) / (self.gamma - 1.0)

    def _double_integral(self, a):
        # int_a^inf (t - a) * scale * t^-gamma dt
        g = self.gamma
        if g <= 2.0:
            raise NotSummableError(f"first moment of power(gamma={g}) tail is infinite")
        return self.scale * float(a) ** (2.0 - g) / ((g - 1.0) * (g - 2.0))

    def powered(self, beta):
        if self.gamma * beta <= 1.0:
            raise NotSummableError(f"power(gamma={self.gamma}) to the beta={beta} is not summable")
        return PowerTail(self.gamma * beta, self.scale**beta)


@dataclass(frozen=True)
class StretchedTail(_IntegralTail):
    """eta_n = scale * exp(-rate * n^theta), 0 < theta < 1."""

    theta: float
    rate: float = 1.0
    scale: float = 1.0

    def value(self, n):
        return self.scale * np.exp(-self.rate * n**self.theta)

    def _integral(self, x):
        # int_x^inf scale * exp(-rate t^theta) dt, by substituting y = rate t^theta
        th, r = self.theta, self.rate
        return self.scale / th * r ** (-1.0 / th) * _upper_gamma(1.0 / th, r * float(x) ** th)

    def _double_integral(self, a):
        # int_a^inf (t - a) * scale * exp(-rate t^theta) dt
        th, r = self.theta, self.rate
        xa = r * float(a) ** th
        g1, g2 = _upper_gamma(1.0 / th, xa), _upper_gamma(2.0 / th, xa)
        return self.scale / th * (r ** (-2.0 / th) * g2 - float(a) * r ** (-1.0 / th) * g1)

    def powered(self, beta):
        return StretchedTail(self.theta, self.rate * beta, self.scale**beta)


@dataclass(frozen=True)
class GeometricTail(TailModel):
    """eta_n = scale * ratio^(n-1); all tails in closed form."""

    ratio: float
    scale: float = 1.0

    def value(self, n):
        return self.scale * self.ratio ** (n - 1)

    def sum_tail(self, m):
        v = self.scale * self.ratio ** (m - 1) / (1.0 - self.ratio)
        return v, v

    def weighted_tail(self, m):
        v = self.scale * self.ratio**m / (1.0 - self.ratio) ** 2
        return v, v

    def powered(self, beta):
        return GeometricTail(self.ratio**beta, self.scale**beta)


@dataclass(frozen=True)
class TargetTail(TailModel):
    """Tails of an inverse-designed sequence, exact from the target profile d.

    With eta_r = d_r - 2 d_{r+1} + d_{r+2} the partial tails telescope:
    sum_{n>=m} eta_n = d_m - d_{m+1} and sum_{n>=m} (n-m) eta_n = d_{m+1}.
    """

    d: Callable[[int], float]
    scale: float = 1.0

    def value(self, n):
        d = self.d
        return self.scale * (d(n) - 2.0 * d(n + 1) + d(n + 2))

    def sum_tail(self, m):
        v = self.scale * (self.d(m) - self.d(m + 1))
        return v, v

    def weighted_tail(self, m):
        v = self.scale * self.d(m + 1)
        return v, v


def _bracket(lo: float, hi: float) -> tuple[float, float]:
    if not math.isfinite(hi):
        return 0.0, math.inf
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def _check_tol(err: float, tol: float | None, what: str):
    if tol is not None and not err <= tol:
        raise ToleranceError(
            f"{what} certified only to {err:.3g}; the requested {tol:.3g} needs "
            "a larger n_max or a sharper tail model"
        )


@dataclass(frozen=True, eq=False)
class EtaSequence:
    """A positive nonincreasing run-weight sequence with certified tails.

    ``values[i]`` stores eta_{i+1} for i < n_max; ``tail_model`` (optional)
    certifies everything beyond.  Instances are immutable and all queries
    are pure, so concurrent evaluation is safe.
    """

    values: np.ndarray
    tail_model: TailModel | None = None
    # beta -> (read-only tail grid, certified half-width of its entries)
    _grids: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("eta needs at least two stored values")
        if not np.all(v > 0.0):
            bad = int(np.argmin(v > 0.0)) + 1
            raise ValueError(f"eta_{bad} is not positive")
        if np.any(v[1:] > v[:-1]):
            bad = int(np.argmax(v[1:] > v[:-1])) + 2
            raise ValueError(f"eta is not nonincreasing at index {bad}")

    @property
    def n_max(self) -> int:
        return self.values.size

    # -- tails ----------------------------------------------------------

    def _tail_grid(self, beta: float) -> tuple[np.ndarray, float]:
        key = float(beta)
        if key not in self._grids:
            if not key > 0.0:
                raise NotSummableError(f"sum eta_n^beta diverges at beta={beta}: beta must be > 0")
            far = (0.0, math.inf)
            if self.tail_model is not None:
                far = _bracket(*self.tail_model.powered(key).sum_tail(self.n_max + 1))
            terms = self.values if key == 1.0 else self.values**key
            acc = np.cumsum(np.append(terms, far[0])[::-1])
            acc.flags.writeable = False
            self._grids[key] = (acc[::-1], far[1])
        return self._grids[key]

    def tail_grid(self, beta: float = 1.0) -> np.ndarray:
        """sum_{n>=m} eta_n^beta for m = 1..n_max+1 at index m-1, read-only.

        One cached cumulative sum from the far end; at beta = 1 these are
        the tails T(m), and T(m) = eta_m + T(m+1) holds exactly.
        """
        return self._tail_grid(beta)[0]

    def tail_error(self, beta: float = 1.0) -> float:
        """Certified error of each entry of tail_grid(beta): the far bracket's half-width
        (inf without a tail model), not yet counting the far-end sum's rounding."""
        return self._tail_grid(beta)[1]

    @cached_property
    def _double_grid(self) -> tuple[np.ndarray, float]:
        """(D(q) for q = 0..n_max, half-width of the weighted far bracket)."""
        w1 = (0.0, math.inf)
        if self.tail_model is not None:
            w1 = _bracket(*self.tail_model.weighted_tail(self.n_max + 1))
        # D(q) = sum_{j>q} T(j), with D(n_max) = T(n_max+1) + weighted far tail
        terms = self.tail_grid().copy()
        terms[-1] += w1[0]
        acc = np.cumsum(terms[::-1])
        acc.flags.writeable = False
        return acc[::-1], w1[1]

    def double_tail_grid(self) -> np.ndarray:
        """D(q) for q = 0..n_max at index q, read-only: one far-end cumulative
        sum of T(1..n_max) on top of the tail model's D(n_max)."""
        return self._double_grid[0]

    def eta(self, n: int) -> float:
        """eta_n; beyond n_max only analytic families can answer."""
        if n < 1:
            raise ValueError("indices start at 1")
        if n <= self.n_max:
            return float(self.values[n - 1])
        if self.tail_model is None:
            raise ToleranceError(f"eta_{n} is beyond the stored cutoff {self.n_max}")
        return float(self.tail_model.value(n))

    def tail(self, m: int, tol: float | None = None, beta: float = 1.0) -> float:
        """sum_{n>=m} eta_n^beta, T(m) at beta = 1, with certified error <= tol
        when given; past n_max + 1 the tail model answers.  beta must be > 0."""
        if m < 1:
            raise ValueError("indices start at 1")
        grid, err = self._tail_grid(beta)  # checks beta even past the grid
        if m <= self.n_max + 1:
            val = float(grid[m - 1])
        elif self.tail_model is None:
            val, err = 0.0, math.inf
        else:
            val, err = _bracket(*self.tail_model.powered(beta).sum_tail(m))
        _check_tol(err, tol, f"T({m})" if beta == 1.0 else f"sum eta^{beta} from {m}")
        return val

    def W(self, beta: float = 1.0, tol: float | None = None) -> float:
        """W(beta) = sum_n eta_n^beta."""
        return self.tail(1, tol, beta)

    def double_tail(self, q: int, tol: float | None = None) -> float:
        """D(q) = sum_{m>q} (m-q) eta_m = sum_{s>=1} sum_{k>=0} eta_{k+q+s}."""
        if q < 0:
            raise ValueError("q must be nonnegative")
        if q <= self.n_max:
            grid, w1_err = self._double_grid
            val = float(grid[q])
            err = (self.n_max + 1 - q) * self.tail_error() + w1_err
        else:
            if self.tail_model is None:
                raise ToleranceError(f"D({q}) is beyond the stored cutoff {self.n_max}")
            s0 = _bracket(*self.tail_model.sum_tail(q + 1))
            w1 = _bracket(*self.tail_model.weighted_tail(q + 1))
            val, err = s0[0] + w1[0], s0[1] + w1[1]
        _check_tol(err, tol, f"D({q})")
        return val

    def first_moment(self, tol: float | None = None) -> float:
        """sum_n n eta_n = D(0), the normalization behind equilibrium cylinders."""
        return self.double_tail(0, tol)

    # -- run-transition ratios -------------------------------------------

    def ratios(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """(T(m+1)/T(m), eta_m/T(m)) for m = lo..hi as fresh arrays, read from
        the tail grid (closed form at any m for the geometric family)."""
        if not 1 <= lo <= hi:
            raise ValueError(f"ratios need 1 <= lo <= hi, got lo={lo}, hi={hi}")
        if isinstance(self.tail_model, GeometricTail):
            r = self.tail_model.ratio
            return np.full(hi - lo + 1, r), np.full(hi - lo + 1, 1.0 - r)
        if hi > self.n_max:
            raise ToleranceError(f"ratios up to m={hi} need n_max >= {hi} (or a geometric family)")
        t = self.tail_grid()[lo - 1 : hi + 1]
        return t[1:] / t[:-1], self.values[lo - 1 : hi] / t[:-1]

    # -- rescaling ---------------------------------------------------------

    def scaled(self, c: float) -> "EtaSequence":
        """The sequence c*eta; every ratio and normalized quantity is unchanged."""
        if c <= 0.0:
            raise ValueError("scale must be positive")
        model = self.tail_model.scaled(c) if self.tail_model is not None else None
        return EtaSequence(self.values * c, model)


def _check_power(gamma: float):
    if not gamma > 1.0:
        raise NotSummableError(f"power(gamma={gamma}) is not summable")


def _check_power_profile(gamma: float):
    if not gamma > 0.0:
        raise ValueError(f"power profile exponent {gamma} must be positive")


def _check_unit(p: float, *, what: str):
    if not 0.0 < p < 1.0:
        raise ValueError(f"{what}={p} must be in (0,1)")


@dataclass(frozen=True)
class Family:
    """An analytic family: ``key`` names its parameter in params;
    ``check(p)`` rejects a parameter outside the sequence's domain;
    ``tail(p)`` is the tail model, whose vectorised ``value`` gives the
    stored values; ``profile(p)`` is the target decay profile d(q) of the
    same shape, and ``profile_check`` its domain check where that differs
    from ``check``."""

    key: str
    check: Callable[[float], None]
    tail: Callable[[float], TailModel]
    profile: Callable[[float], Callable[[int], float]]
    profile_check: Callable[[float], None] | None = None


# The one registry of analytic families: add a family here and every caller has it.
FAMILIES: dict[str, Family] = {
    "power": Family("gamma", _check_power, PowerTail, lambda p: lambda q: float(q) ** -p,
                    _check_power_profile),
    "stretched": Family("theta", partial(_check_unit, what="stretched exponent theta"),
                        StretchedTail, lambda p: lambda q: math.exp(-float(q) ** p)),
    "geometric": Family("ratio", partial(_check_unit, what="geometric ratio"), GeometricTail,
                        lambda p: lambda q: p**q),
}


def parse_family(spec: str) -> tuple[str, dict]:
    """Split a "name:param" spec into a registered family name and its params."""
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r} in {spec!r}; known: {', '.join(FAMILIES)}")
    key = FAMILIES[name].key
    try:
        return name, {key: float(arg)}
    except ValueError:
        raise ValueError(f"{spec!r} needs a numeric {key}, as in {name}:<{key}>") from None


def make_eta(family: str, params: dict, n_max: int) -> EtaSequence:
    """Build a run-weight sequence from a named family.

    Families and parameters:

    * ``power``:     eta_n = n^-gamma, requires gamma > 1
    * ``stretched``: eta_n = exp(-n^theta), requires 0 < theta < 1
    * ``geometric``: eta_n = ratio^(n-1), requires 0 < ratio < 1
    """
    if n_max < 8:
        raise ValueError("n_max must be at least 8")
    name = family.lower()
    if name not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    fam = FAMILIES[name]
    p = float(params[fam.key])
    fam.check(p)
    model = fam.tail(p)
    values = model.value(np.arange(1.0, n_max + 1.0))
    if values[-1] == 0.0:
        first = int(np.argmin(values > 0.0)) + 1
        raise ValueError(f"{name}({fam.key}={p}) underflows double precision at eta_{first}; "
                         f"use a smaller n_max than {n_max} or a slower decay")
    return EtaSequence(values, model)


def decay_profile(spec: str):
    """Parse a target decay profile "family:param" into its callable.

    ``power:p`` -> q^-p, ``geometric:r`` -> r^q, ``stretched:t`` -> exp(-q^t).
    """
    name, params = parse_family(spec)
    fam = FAMILIES[name]
    p = params[fam.key]
    (fam.profile_check or fam.check)(p)
    return fam.profile(p)


def target_grid(d: Callable[[int], float], qmax: int) -> np.ndarray:
    """d_1, d_2, ..., d_(n_max+2) with n_max = max(2 qmax + 16, 64): the values of
    the target profile ``d`` that ``inverse_design(d, qmax)`` works from."""
    if qmax < 2:
        raise ValueError("qmax must be at least 2")
    return np.array([d(q) for q in range(1, max(2 * qmax + 16, 64) + 3)])


def inverse_design(d: Callable[[int], float], qmax: int,
                   dv: np.ndarray | None = None) -> EtaSequence:
    """Construct eta whose double tail realizes a target decay profile.

    ``d`` is a callable mapping q >= 1 to a strictly decreasing,
    convex-difference profile, and ``dv`` its values ``target_grid(d, qmax)``,
    evaluated here unless given.  The construction sets
    eta_r = d_r - 2 d_{r+1} + d_{r+2}; double telescoping then gives
    sum_{s>=1} sum_{k>=0} eta_{k+q+s} = d_{q+1} exactly (the shift is one).
    Rejects profiles whose differences fail to stay positive, naming the
    first bad index.
    """
    dv = target_grid(d, qmax) if dv is None else dv
    if np.any(dv <= 0.0):
        bad = int(np.argmax(dv <= 0.0)) + 1
        raise ValueError(f"target profile is not positive at q={bad}")
    c = dv[:-1] - dv[1:]
    if np.any(c <= 0.0):
        bad = int(np.argmax(c <= 0.0)) + 1
        raise ValueError(f"target profile is not strictly decreasing at q={bad}")
    eta = c[:-1] - c[1:]
    if np.any(eta <= 0.0):
        bad = int(np.argmax(eta <= 0.0)) + 1
        raise ValueError(f"second difference of the target is not positive at r={bad}")
    if np.any(eta[1:] > eta[:-1]):
        bad = int(np.argmax(eta[1:] > eta[:-1])) + 1
        raise ValueError(f"the target's second differences d_r - 2 d_(r+1) + d_(r+2) increase "
                         f"from r={bad} to r={bad + 1} in double precision")
    return EtaSequence(eta, TargetTail(d))


def sequence_table(eta: EtaSequence) -> dict:
    """Columns (n, eta, T, a) for export; a_1 is undefined and reported nan."""
    n = np.arange(1, eta.n_max + 1)
    t = eta.tail_grid()[: eta.n_max]
    a = np.full(eta.n_max, np.nan)
    a[1:] = np.log(eta.values[1:] / eta.values[:-1])
    return {"n": n, "eta": eta.values, "T": t, "a": a}
