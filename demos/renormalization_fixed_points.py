"""Fixed points of both renormalization operators.

The block operator sums k consecutive coefficients; its fixed points are
explicit log-ratio sequences.  The digit operator sums over digit offsets
of base k; its fixed point is the negative kernel integral against the
maximal-entropy measure of a digit-restricted Cantor set.
"""

import math

import numpy as np

from runshift import (
    DigitSystem,
    eta_from_coeffs,
    renorm1_apply,
    renorm1_fixed_point,
    renorm2_apply,
    renorm2_digit_indices,
    renorm2_fixed_point,
    residual,
)

U = 2.0**-53  # unit roundoff of double precision
U_LD = float(np.finfo(np.longdouble).eps) / 2.0  # of the extended cumsum in eta_from_coeffs


def _require(ok, what: str) -> None:
    """Exit non-zero when a certified check fails, so running the demo tests it."""
    if not ok:
        raise SystemExit(f"check failed: {what}")


def main():
    print("== block operator, k = 2, a_2 = -log 2 ==")
    coeffs = renorm1_fixed_point(2, -math.log(2.0), 2000)
    res = residual(coeffs, renorm1_apply(coeffs, 2))
    print(f"a_n = -log(n/(n-1)) recovered; sup residual {res.max():.2e} "
          f"over {res.size} indices")
    eta = eta_from_coeffs(coeffs)
    n = np.arange(1.0, eta.n_max + 1.0)
    gap = np.max(np.abs(n * eta.values - 1.0))
    # a priori, with sum |a_n| = log n: each a_n within 8u |a_n| (the alpha
    # recursion, the reciprocal, log1p), the extended cumsum within
    # (n-1) u_ld log n, then exp, the cast and the product n eta_n
    log_n = math.log(eta.n_max)
    allowed = 8.0 * U * log_n + (eta.n_max - 1) * U_LD * log_n + 3.0 * U
    print(f"weights eta_n = 1/n exactly: max |n eta_n - 1| = {gap:.1e} "
          f"<= rounding bound {allowed:.1e}")
    _require(gap <= allowed, "eta_from_coeffs drifts from 1/n beyond rounding")

    print("\n== block operator, k = 3, a_2 = -log 3 ==")
    coeffs = renorm1_fixed_point(3, -math.log(3.0), 3002)
    res = residual(coeffs, renorm1_apply(coeffs, 3))
    print(f"sup residual {res.max():.2e} over {res.size} indices")

    print("\n== digit operator, k = 3, digits {0,1,2}: the interval case ==")
    coeffs, _ = renorm2_fixed_point(DigitSystem(3, (0, 1, 2)), 50, depth=12)
    n = np.arange(2.0, 51.0)
    gap = np.max(np.abs(coeffs + np.log(n / (n - 1.0))))
    print(f"quadrature vs closed form -log(n/(n-1)): max gap {gap:.2e}")

    print("\n== digit operator, k = 3, digits {0,2}: middle-thirds set ==")
    ds = DigitSystem(3, (0, 2))
    print(f"dimension exponent alpha = {ds.hausdorff_alpha:.6f}")
    coeffs, bounds = renorm2_fixed_point(ds, 60, depth=14)
    image = renorm2_apply(coeffs, ds)
    res = residual(coeffs, image)
    for n in (2, 5, 20):
        print(f"  a_{n} = {coeffs[n - 2]:+.9f}   (Ra)_{n} = {image[n - 2]:+.9f}   "
              f"diff {res[n - 2]:.2e} <= {(ds.l + 1) * bounds[n - 2]:.2e}")
    _require(np.all(res <= (ds.l + 1) * bounds[: res.size]),
             "a digit residual exceeds (l + 1) times its quadrature bound")
    print(f"offset lemma, two applications = offsets {renorm2_digit_indices(ds, 2).tolist()}")

    print("\n== digit operator, k = 5, digits {0,3}: faster-than-polynomial ==")
    ds5 = DigitSystem(5, (0, 3))
    alpha = ds5.hausdorff_alpha
    coeffs5, bounds5 = renorm2_fixed_point(ds5, 2000)
    eta5 = eta_from_coeffs(coeffs5)
    # K lies in [inf K, sup K], so -a_n = I(n) lies between (n - inf K)^-alpha
    # and (n - sup K)^-alpha, widened by the series bound and edge rounding
    n = np.arange(2.0, 2001.0)
    lo = (n - ds5.digits[0] / (ds5.k - 1)) ** -alpha * (1.0 - 2.0 * U) - bounds5
    hi = (n - ds5.sup) ** -alpha * (1.0 + 2.0 * U) + bounds5
    inside = (lo <= -coeffs5) & (-coeffs5 <= hi)
    print(f"alpha = {alpha:.6f}; (n - inf K)^-alpha <= -a_n <= (n - sup K)^-alpha "
          f"for all n <= 2000: {bool(inside.all())}")
    _require(inside.all(), "-a_n leaves its pointwise bracket")
    # summed: -log eta_2000 = sum of -a_n, of order n^(1-alpha)/(1-alpha);
    # the slack covers the cumsum, exp and log between the two
    minus_log = -math.log(eta5.values[-1])
    slack = 2000 * U * math.fsum(hi)
    lo_sum, hi_sum = math.fsum(lo) - slack, math.fsum(hi) + slack
    print(f"-log eta_2000 = {minus_log:.3f} in [{lo_sum:.3f}, {hi_sum:.3f}], "
          f"weights of order exp(-n^(1-alpha)/(1-alpha)), 1 - alpha = {1 - alpha:.4f}")
    _require(lo_sum <= minus_log <= hi_sum, "-log eta_2000 leaves the summed bracket")


if __name__ == "__main__":
    main()
