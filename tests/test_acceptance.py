"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.  Tolerances are pinned here and
nowhere else.
"""

import math
import time

import numpy as np
import pytest

from runshift import (
    CantorMeasure,
    DigitSystem,
    build_chain,
    check_normalization,
    correlation,
    eta_from_coeffs,
    inverse_design,
    iterates_from_run,
    make_eta,
    occupation_sweep,
    quadrature_values,
    renewal_series,
    renorm1_apply,
    renorm1_fixed_point,
    renorm2_apply,
    renorm2_digit_indices,
    renorm2_fixed_point,
    residual,
    zero_cylinder_mass,
)


def _report(idx: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {idx:2d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {idx}: {detail}"


def test_criterion_1_block_fixed_point_residuals():
    worst, slowest = 0.0, 0.0
    for k in (2, 3, 4):
        for a2 in (-math.log(2.0), -math.log(3.0)):
            start = time.perf_counter()
            coeffs = renorm1_fixed_point(k, a2, k * 10_000 + 2)
            res = residual(coeffs, renorm1_apply(coeffs, k))
            elapsed = time.perf_counter() - start
            assert res.size >= 10_000
            worst = max(worst, float(res.max()))
            slowest = max(slowest, elapsed)
    _report(
        1,
        worst <= 1e-12 and slowest < 1.0,
        f"block fixed points k in {{2,3,4}}: sup residual {worst:.2e} (<=1e-12), "
        f"slowest build+check {slowest:.2f}s (<1s)",
    )


def test_criterion_2_digit_fixed_point_residuals():
    ok = True
    details = []
    for k, digits in ((3, (0, 2)), (5, (0, 3))):
        ds = DigitSystem(k, digits)
        coeffs, bounds = renorm2_fixed_point(ds, k * 1000, depth=14)
        diff = residual(coeffs, renorm2_apply(coeffs, ds))  # n = 2..1000
        assert diff.size == 999
        allowed = (ds.l + 1) * bounds[: diff.size]
        ok &= bool(np.all(diff <= allowed))
        details.append(f"(k={k},{digits}): max resid/allowed "
                       f"{np.max(diff / allowed):.3f}")
    # closed-form control: the l = k case against -log(n/(n-1))
    coeffs, _ = renorm2_fixed_point(DigitSystem(3, (0, 1, 2)), 1000, depth=10)
    n = np.arange(2.0, 1001.0)
    gap = float(np.max(np.abs(coeffs + np.log(n / (n - 1.0)))))
    ok &= gap <= 1e-8
    _report(2, ok, "; ".join(details) + f"; closed-form gap {gap:.2e} (<=1e-8)")


def test_criterion_3_digit_lemma():
    ds = DigitSystem(3, (0, 2))
    assert renorm2_digit_indices(ds, 2).tolist() == [0, 2, 6, 8]
    rng = np.random.default_rng(2)
    ok = True
    for n_fold in range(1, 6):
        a = rng.integers(-9, 10, size=3**n_fold * 6 + 20).astype(float)
        composed = a
        for _ in range(n_fold):
            composed = renorm2_apply(composed, ds)
        js = renorm2_digit_indices(ds, n_fold)
        direct = np.array(
            [
                sum(a[3**n_fold * n - int(j) - 2] for j in js)
                for n in range(2, composed.size + 2)
            ]
        )
        ok &= bool(np.array_equal(composed, direct))
    _report(3, ok, "N-fold digit action equals one-pass offset sums exactly, N<=5")


def test_criterion_4_jacobian_stochasticity_and_symmetry():
    families = [
        ("power", {"gamma": 3.0}, 10_001),
        ("stretched", {"theta": 0.5}, 10_001),
        ("geometric", {"ratio": 0.5}, 1024),
    ]
    worst_row, worst_mass = 0.0, 0.0
    for fam, params, nmax in families:
        eta = make_eta(fam, params, nmax)
        rep = check_normalization(eta, range(1, 10_001))
        worst_row = max(worst_row, rep.max_deviation)
        worst_mass = max(worst_mass, abs(zero_cylinder_mass(eta) - 0.5))
    _report(
        4,
        worst_row <= 1e-14 and worst_mass <= 1e-12,
        f"row sums off by {worst_row:.2e} (<=1e-14) at m<=1e4; "
        f"|mu(0-cyl) - 1/2| = {worst_mass:.2e} (<=1e-12)",
    )


def test_criterion_5_bernoulli_degenerate_oracle():
    eta = make_eta("geometric", {"ratio": 0.5}, 128)
    ser = renewal_series(eta, 64)
    chain = build_chain(eta, 64)
    c = correlation(chain, np.arange(1, 65))
    worst = max(
        float(np.max(np.abs(ser.forcing))),
        float(np.max(np.abs(ser.deficits))),
        float(np.max(np.abs(c))),
    )
    _report(5, worst <= 1e-12, f"geometric(1/2): max |K|,|V|,|C| = {worst:.2e} (<=1e-12)")


def test_criterion_6_renewal_oracle_equivalence():
    worst = 0.0
    for fam, params, nmax in (
        ("power", {"gamma": 3.0}, 12_000),
        ("stretched", {"theta": 0.5}, 12_000),
    ):
        eta = make_eta(fam, params, nmax)
        chain = build_chain(eta, 10_000)
        qs = np.arange(1, 257)
        ser = renewal_series(eta, 256)
        worst = max(
            worst, float(np.max(np.abs(ser.iterates - occupation_sweep(chain, (0, 1), qs))))
        )
        for s in (1, 2, 4, 8):
            b = iterates_from_run(eta, s, 256)
            got = occupation_sweep(chain, (0, s), qs)
            worst = max(worst, float(np.max(np.abs(b - got))))
    _report(
        6,
        worst <= 1e-6,
        f"renewal vs chain, q<=256, s in {{1,2,4,8}}: max gap {worst:.2e} (<=1e-6 at M=1e4)",
    )


def test_criterion_7_polynomial_decay_order():
    start = time.perf_counter()
    eta = make_eta("power", {"gamma": 3.0}, 100_001)
    chain = build_chain(eta, 100_000)
    qs = np.array([128, 181, 256, 362, 512, 724, 1024])
    c = correlation(chain, qs)
    elapsed = time.perf_counter() - start
    slope_c = float(np.polyfit(np.log(qs), np.log(np.abs(c)), 1)[0])
    d = eta.double_tail_grid()[qs]
    slope_d = float(np.polyfit(np.log(qs), np.log(d), 1)[0])
    _report(
        7,
        abs(slope_c + 1.0) <= 0.15 and abs(slope_d + 1.0) <= 0.05 and elapsed < 60.0,
        f"power(3) slopes: oracle {slope_c:.3f} (-1+-0.15), D {slope_d:.3f} (-1+-0.05), "
        f"{elapsed:.1f}s at M=1e5 (<60s)",
    )


def test_criterion_8_stretched_exponential_order():
    eta = make_eta("stretched", {"theta": 0.5}, 40_000)
    qs = np.linspace(2500, 10_000, 16).astype(int)
    ratios = np.array([eta.double_tail(int(q)) for q in qs]) / (
        qs * np.exp(-np.sqrt(qs))
    )
    spread = float(ratios.max() / ratios.min())
    # the k=5, l=2 fixed-point weight order is dominated termwise
    theta5 = 1.0 - math.log(2.0) / math.log(5.0)
    n = np.arange(1.0, 10_001.0)
    dominated = bool(np.all(np.exp(-(n**theta5)) <= np.exp(-np.sqrt(n))))
    _report(
        8,
        spread < 1.10 and dominated,
        f"D(q)/(q e^-sqrt q) in [{ratios.min():.3f}, {ratios.max():.3f}], spread "
        f"{(spread - 1) * 100:.1f}% (<10%) on [2500, 1e4]; termwise domination "
        f"exp(-n^{theta5:.5f}) <= exp(-sqrt n): {dominated}",
    )


def test_criterion_9_inverse_design():
    eta_g = inverse_design(lambda q: 2.0**-q, qmax=64)
    worst_g = max(
        abs(eta_g.double_tail(q) - 2.0 ** -(q + 1)) / 2.0 ** -(q + 1)
        for q in range(1, 33)
    )
    eta_p = inverse_design(lambda q: float(q) ** -2.0, qmax=128)
    worst_p = max(
        abs(eta_p.double_tail(q) - (q + 1.0) ** -2.0) / (q + 1.0) ** -2.0
        for q in range(10, 101)
    )
    _report(
        9,
        worst_g <= 1e-12 and worst_p <= 0.01,
        f"double tail vs shifted target: geometric {worst_g:.2e} (exact), "
        f"power {worst_p:.2e} (<=1%)",
    )


def test_criterion_10_scale_invariance():
    eta = make_eta("power", {"gamma": 3.0}, 12_000)
    scaled = eta.scaled(7.0)
    worst = 0.0
    s1, s2 = renewal_series(eta, 128), renewal_series(scaled, 128)
    for a, b in ((s1.iterates, s2.iterates), (s1.deficits, s2.deficits),
                 (s1.forcing, s2.forcing)):
        worst = max(worst, float(np.max(np.abs(a - b))))
    for s in (2, 8):
        worst = max(worst, float(np.max(np.abs(
            iterates_from_run(eta, s, 64) - iterates_from_run(scaled, s, 64)))))
    qs = np.arange(1, 65)
    c1 = correlation(build_chain(eta, 4096), qs)
    c2 = correlation(build_chain(scaled, 4096), qs)
    worst = max(worst, float(np.max(np.abs(c1 - c2))))
    d_ratio_1 = eta.double_tail_grid()[qs] / eta.double_tail(1)
    d_ratio_2 = scaled.double_tail_grid()[qs] / scaled.double_tail(1)
    worst = max(worst, float(np.max(np.abs(d_ratio_1 - d_ratio_2))))
    _report(
        10,
        worst <= 1e-12,
        f"eta -> 7 eta changes renewal/oracle outputs and D-ratios by {worst:.2e} (<=1e-12)",
    )
