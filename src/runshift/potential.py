"""Walters-class potential on the binary shift and its equilibrium data.

The potential is constant on the run cylinders: beta * a_q on a leading
run of length q >= 2 (either symbol), beta log eta_1 - log W(beta) on
length-one runs, and zero at the two fixed points.  At beta = 1 its
transfer operator has the explicit eigenfunction r(q) = T(q)/eta_q on run
cylinders, eigenmeasure rho with cylinder masses eta_q, and equilibrium
measure mu with raw cylinder masses T(q), certified by eta.tail(q, tol),
and normalization Z = 2 D(0), certified by 2 * eta.double_tail(0, tol);
equilibrium_table lists the normalized masses T(q)/Z.  The normalized Jacobian

    J = continue with T(q)/T(q-1),  switch with eta_q/T(q)

is a stochastic kernel because T(q) = eta_q + T(q+1) exactly.  Points are
described symbolically by their leading run pattern, which is precisely
the information the potential, eigenfunction, and Jacobian depend on.
All three are symmetric under 0 <-> 1, so each mirror pair of points is
named once, by its zero-led member (inner_zeros(q) by its run of zeros).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .sequences import EtaSequence, ToleranceError, _check_tol

__all__ = [
    "Pattern",
    "SymbolicPoint",
    "lead_zeros",
    "inner_zeros",
    "ALL_ZEROS",
    "ZERO_THEN_ONES",
    "potential_value",
    "eigenfunction",
    "zero_cylinder_mass",
    "jacobian",
    "check_normalization",
    "NormalizationReport",
    "equilibrium_table",
]


class Pattern(Enum):
    LEAD_ZEROS = "0^q 1 ..."
    INNER_ZEROS = "1 0^q 1 ..."
    ALL_ZEROS = "0^inf"
    ZERO_THEN_ONES = "0 1^inf"


@dataclass(frozen=True)
class SymbolicPoint:
    """A point of {0,1}^N described by its leading run pattern."""

    pattern: Pattern
    q: int | None = None

    def __post_init__(self):
        if self.pattern in (Pattern.LEAD_ZEROS, Pattern.INNER_ZEROS):
            if self.q is None or self.q < 1:
                raise ValueError(f"{self.pattern.name} needs a run length q >= 1")
        elif self.q is not None:
            raise ValueError(f"{self.pattern.name} takes no run length")


def lead_zeros(q: int) -> SymbolicPoint:
    """0^q 1 ...: a maximal leading run of q zeros."""
    return SymbolicPoint(Pattern.LEAD_ZEROS, q)


def inner_zeros(q: int) -> SymbolicPoint:
    """1 0^q 1 ...: a completed run of q zeros after a leading one."""
    return SymbolicPoint(Pattern.INNER_ZEROS, q)


ALL_ZEROS = SymbolicPoint(Pattern.ALL_ZEROS)
ZERO_THEN_ONES = SymbolicPoint(Pattern.ZERO_THEN_ONES)


def _lead_run(point: SymbolicPoint) -> int | None:
    """Length of the leading run, or None at the constant point."""
    if point.pattern is Pattern.LEAD_ZEROS:
        return point.q
    return None if point.pattern is Pattern.ALL_ZEROS else 1  # 1 0^q 1 ... and 0 1^inf


def potential_value(point: SymbolicPoint, eta: EtaSequence, beta: float = 1.0) -> float:
    """The potential at a symbolic point: beta a_q, beta log eta_1 - log W(beta), or 0."""
    q = _lead_run(point)
    if q is None:
        return 0.0
    if q == 1:
        return beta * math.log(eta.eta(1)) - math.log(eta.W(beta))
    return beta * math.log(eta.eta(q) / eta.eta(q - 1))


def eigenfunction(
    point: SymbolicPoint,
    eta: EtaSequence,
    beta: float = 1.0,
    lam: float = 1.0,
    tol: float | None = None,
) -> float:
    """Transfer-operator eigenfunction at a supplied eigenvalue lam >= 1.

    On a leading run of length n (either symbol, by 0/1 symmetry) the value
    is 1 + eta_n^-beta sum_{j>=1} eta_{n+j}^beta lam^-j, normalized to 1 at
    the constant point.  At beta = lam = 1 this is T(n)/eta_n, and
    multiplying by eta_n gives the raw equilibrium cylinder mass T(n).
    With potential_value's potential the lam = 1 series solves L h = h at
    every beta; the lam != 1 series solves L h = lam h only when the value
    on length-one runs is log(lam / h(1)) instead.  A given ``tol``
    certifies the relative error; divergent powered series (lam too small
    for the tail) and an ``eta_n^beta`` that underflows to 0 are rejected.
    """
    if lam < 1.0:
        raise ValueError("eigenvalue lam must be >= 1")
    n = _lead_run(point)
    if n is None:
        return 1.0
    scale = eta.eta(n) ** beta
    if scale == 0.0:
        raise ToleranceError(
            f"eigenfunction at n={n}: eta_n^beta underflows double precision at "
            f"beta={beta!r}, so the series cannot be divided by it"
        )
    if lam == 1.0:
        series = eta.tail(n + 1, beta=beta)
        err = eta.tail_error(beta)
    else:
        if n > eta.n_max:
            raise ToleranceError(f"eigenfunction at n={n} with lam != 1 sums stored terms "
                                 f"past n, but n_max={eta.n_max}; use a larger n_max")
        series = 0.0
        damp = 1.0
        terms = eta.values[n:] ** beta
        tails = eta.tail_grid(beta)
        rest = tails[n]  # the whole remainder before the first term
        floor = (tol if tol is not None else 1e-13) * scale
        for j in range(1, eta.n_max - n + 1):
            damp /= lam
            series += terms[j - 1] * damp
            # remainder <= lam^-j * sum_{i > n+j} eta_i^beta
            rest = damp * tails[n + j]
            if rest <= floor:
                break
        if tol is None and rest > floor:
            raise ToleranceError(
                f"eigenfunction at n={n} leaves a remainder above its floor after "
                f"the stored terms to n_max={eta.n_max}; use a larger n_max or a tol"
            )
        # the grid's sum is certified only to the far bracket's half-width,
        # which is inf without a tail model
        err = rest + damp * eta.tail_error(beta)
    value = 1.0 + series / scale
    _check_tol(err / scale / value, tol, f"eigenfunction at n={n} (relative)")
    return value


def zero_cylinder_mass(eta: EtaSequence) -> float:
    """Normalized equilibrium mass of the 0-cylinder, as a cylinder sum.

    The masses T(q) of all run cylinders add up to D(0), read from the
    double-tail grid.  The normalization Z = 2 sum_n n eta_n is summed here
    directly from the weights, an independent route to the same number, so
    the result checks the value 1/2 of 0/1 symmetry instead of restating it.
    """
    cut = eta.n_max + 1
    moment = float(np.sum((eta.values * np.arange(1.0, cut))[::-1]))
    if eta.tail_model is not None:
        s0, w1 = eta.tail_model.sum_tail(cut), eta.tail_model.weighted_tail(cut)
        moment += 0.5 * (cut * (s0[0] + s0[1]) + w1[0] + w1[1])
    return eta.double_tail(0) / (2.0 * moment)


def jacobian(point: SymbolicPoint, eta: EtaSequence) -> float:
    """The equilibrium Jacobian at a symbolic point (beta = 1).

    Continuing a run of length q >= 2 carries T(q)/T(q-1); ending a run of
    length q carries eta_q/T(q); the constant point is fixed with J = 1;
    the pre-fixed point 0 1^inf carries J = 0.  A bare length-one leading
    run is ambiguous (J depends on the following run), so inner_zeros(q)
    must be used there.
    """
    if point.pattern is Pattern.LEAD_ZEROS:
        if point.q == 1:
            raise ValueError(
                "Jacobian on a length-one leading run depends on the next run; use inner_zeros(q)"
            )
        return float(eta.ratios(point.q - 1, point.q - 1)[0][0])
    if point.pattern is Pattern.INNER_ZEROS:
        return float(eta.ratios(point.q, point.q)[1][0])
    if point.pattern is Pattern.ALL_ZEROS:
        return 1.0
    return 0.0  # 0 1^inf


@dataclass(frozen=True)
class NormalizationReport:
    """Row-sum check of the Jacobian over sampled run states."""

    max_deviation: float
    worst_state: int
    ok: bool


def check_normalization(eta: EtaSequence, states=range(1, 65)) -> NormalizationReport:
    """Verify sum over preimages of J = 1, to within 1e-14, at each sampled run state.

    At state m the two preimages carry T(m+1)/T(m) and eta_m/T(m), whose
    sum is 1 exactly by T(m) = eta_m + T(m+1).
    """
    states = np.asarray(list(states), dtype=int)
    if states.size == 0:
        raise ValueError("no run states to check")
    if states.min() < 1:
        raise ValueError(f"run state {states[states < 1][0]} does not exist; states are m >= 1")
    cont, sw = eta.ratios(1, int(states.max()))
    dev = np.abs(cont[states - 1] + sw[states - 1] - 1.0)
    worst = int(np.argmax(dev))
    return NormalizationReport(float(dev[worst]), int(states[worst]), not (dev > 1e-14).any())


def equilibrium_table(eta: EtaSequence, qmax: int) -> dict:
    """Columns (q, rho, mu_raw, mu_norm, r, J_L) for export.

    r and J_L are eigenfunction (lam = 1) and jacobian at lead_zeros(q), bit
    for bit; J_L is nan at q = 1, where it depends on the following run.
    """
    if qmax < 1:
        raise ValueError(f"qmax must be at least 1, got {qmax}")
    if qmax > eta.n_max:
        raise ValueError(f"qmax={qmax} exceeds n_max={eta.n_max}")
    q = np.arange(1, qmax + 1)
    rho = eta.values[:qmax]
    mu_raw = eta.tail_grid()[:qmax]
    z = 2.0 * eta.double_tail(0)  # Z = 2 sum_n n eta_n, the raw mass of all run cylinders
    r = 1.0 + eta.tail_grid()[1 : qmax + 1] / rho
    j_l = np.append(np.nan, eta.ratios(1, qmax)[0][:-1])  # T(q)/T(q-1), as jacobian reads it
    return {
        "q": q,
        "rho": rho,
        "mu_raw": mu_raw,
        "mu_norm": mu_raw / z,
        "r": r,
        "J_L": j_l,
    }
