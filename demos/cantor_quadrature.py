"""Certified integrals against the maximal-entropy Cantor measure.

Shows the kernel integral I(n) from the exact moment series and from the
depth-D midpoint rule, each with its certified error bound, the closed
form in the interval case, the self-similarity identity the fixed point
rests on, and an independent Monte Carlo cross-check.  Exits non-zero when
any printed gap exceeds its allowance.
"""

import math

from runshift import (
    CantorMeasure,
    DigitSystem,
    monte_carlo_integral,
    quadrature,
    self_similarity_check,
)


def _require(ok, what: str) -> None:
    """Exit non-zero when a certified check fails, so running the demo tests it."""
    if not ok:
        raise SystemExit(f"check failed: {what}")


def main():
    print("== interval case (k = l = 3): I(2) = log 2 ==")
    leb = CantorMeasure(DigitSystem(3, (0, 1, 2)))
    value, bound = quadrature(leb, 2, depth=12)
    print(f"I(2) = {value:.12f}  certified bound {bound:.2e}")
    print(f"log2 = {math.log(2.0):.12f}  actual gap {abs(value - math.log(2)):.2e}")
    _require(abs(value - math.log(2.0)) <= bound, "I(2) leaves log 2 by more than its bound")

    print("\n== middle-thirds digits {0,2} ==")
    cm = CantorMeasure(DigitSystem(3, (0, 2)))
    print(f"alpha = log 2 / log 3 = {cm.alpha:.6f}")
    exact, exact_bound = quadrature(cm, 2)
    for depth in (8, 11, 14):
        value, bound = quadrature(cm, 2, depth=depth)
        print(f"depth {depth:>2}: I(2) = {value:.12f}  bound {bound:.2e}  "
              f"gap to exact {abs(value - exact):.2e}")
        _require(abs(value - exact) <= bound + exact_bound,
                 f"the depth-{depth} gap to exact exceeds the sum of both bounds")
    print(f"exact   : I(2) = {exact:.12f}  bound {exact_bound:.2e}")

    print("\nself-similarity identity I(n) = sum_j I(3n - c_j):")
    for n in (2, 5, 11):
        dev = self_similarity_check(cm, n, depth=14)
        _, bound = quadrature(cm, n, depth=14)
        allowance = (cm.ds.l + 1) * bound
        print(f"  n = {n:>2}: deviation {dev:.3e}  allowance {allowance:.3e}")
        _require(dev <= allowance, f"the identity at n = {n} deviates past its allowance")

    print("\nMonte Carlo cross-check (61 passes over the 2^14 depth-14 cylinders):")
    est, se = monte_carlo_integral(cm, 2, 1_000_000, seed=7)
    print(f"exact {exact:.12f}   MC {est:.12f} +- {se:.1e}   "
          f"gap/sigma = {abs(est - exact) / se:.2f}")
    _require(abs(est - exact) <= exact_bound + 4.0 * se,
             "the Monte Carlo estimate is more than 4 stderr off")

    print("\n== large-n behavior: n^alpha I(n) -> 1 ==")
    for n in (10, 100, 1000):
        value, _ = quadrature(cm, n)
        print(f"  n = {n:>4}: n^alpha I(n) = {n**cm.alpha * value:.6f}")


if __name__ == "__main__":
    main()
