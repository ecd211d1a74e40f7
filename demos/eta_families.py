"""Tour of the run-weight sequence calculus.

Builds the three analytic families, shows certified tail sums against
closed forms, converts between weights and potential coefficients, and
designs a sequence realizing a prescribed correlation profile.
"""

import math

import numpy as np

from runshift import (
    coeffs_from_eta,
    eta_from_coeffs,
    inverse_design,
    make_eta,
)

ZETA3 = 1.2020569031595942  # the double nearest zeta(3) = 1.2020569031595942853997...


def main():
    print("== geometric(1/2): everything in closed form ==")
    geo = make_eta("geometric", {"ratio": 0.5}, 64)
    print(f"W = sum eta_n            = {geo.W()}   (exactly 2)")
    print(f"T(3) = sum_(n>=3) eta_n  = {geo.tail(3)}   (exactly 1/2)")
    print(f"D(3) = double tail       = {geo.double_tail(3)}   (exactly 1/2)")

    print("\n== power(3): certified against zeta(3) ==")
    p3 = make_eta("power", {"gamma": 3.0}, 10_000)
    print(f"W        = {p3.W():.12f}")
    print(f"zeta(3)  = {ZETA3:.12f}")
    print(f"T(2)     = {p3.tail(2):.12f}  vs zeta(3)-1 = {ZETA3 - 1.0:.12f}")
    if abs(p3.W() - ZETA3) > p3.tail_error():
        raise SystemExit("check failed: W is farther from zeta(3) than its certified error")

    print("\n== stretched(1/2): tails from incomplete gamma brackets ==")
    st = make_eta("stretched", {"theta": 0.5}, 40_000)
    for m in (100, 10_000):
        model = 2.0 * (math.sqrt(m) + 1.0) * math.exp(-math.sqrt(m))
        print(f"T({m:>6}) = {st.tail(m):.6e}   integral model {model:.6e}")

    print("\n== coefficients <-> weights round trip ==")
    coeffs = coeffs_from_eta(p3)
    back = eta_from_coeffs(coeffs)
    drift = np.max(np.abs(back.values - p3.values) / p3.values)
    print(f"a_2 = {coeffs[0]:+.6f}, a_3 = {coeffs[1]:+.6f}")
    print(f"round-trip relative drift over {p3.n_max} indices: {drift:.2e}")

    print("\n== inverse design: hit a prescribed decay profile ==")
    target = lambda q: float(q) ** -2.0  # noqa: E731
    eta = inverse_design(target, qmax=100)
    print("eta_r = d_r - 2 d_(r+1) + d_(r+2), so D(q) = d(q+1): the shift is one")
    for q in (10, 50, 100):
        print(f"  D({q:>3}) = {eta.double_tail(q):.6e}   d({q}+1) = {target(q + 1):.6e}")
    q = np.arange(1, 101)
    d_next = (q + 1.0) ** -2.0
    err = np.max(np.abs(eta.double_tail_grid()[1:101] - d_next) / d_next)
    print(f"max relative mismatch on q <= 100: {err:.2e}")


if __name__ == "__main__":
    main()
