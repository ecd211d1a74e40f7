import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from runshift import (
    CantorMeasure,
    DigitSystem,
    monte_carlo_integral,
    quadrature,
    quadrature_values,
    self_similarity_check,
)
from runshift.cantor import U, _mc_blocks, error_bound

LOG2_LOG3 = 0.6309297535714574


@pytest.fixture(scope="module")
def middle_thirds():
    return CantorMeasure(DigitSystem(3, (0, 2)))


@pytest.fixture(scope="module")
def lebesgue3():
    return CantorMeasure(DigitSystem(3, (0, 1, 2)))


class TestDigitGeometry:
    def test_hausdorff_exponent(self, middle_thirds):
        assert middle_thirds.ds.hausdorff_alpha == pytest.approx(LOG2_LOG3, abs=1e-15)

    def test_sup(self, middle_thirds, lebesgue3):
        assert middle_thirds.ds.sup == 1.0
        assert lebesgue3.ds.sup == 1.0
        assert DigitSystem(5, (0, 3)).sup == 0.75

    def test_cylinder_masses_sum_to_one(self, middle_thirds):
        for depth in (1, 4, 8):
            pts = middle_thirds.prefix_points(depth)
            assert pts.size == 2**depth
            assert pts.size * middle_thirds.ds.l ** -float(depth) == 1.0

    def test_prefix_points_in_range(self, middle_thirds):
        pts = middle_thirds.prefix_points(10)
        assert pts.min() == 0.0
        assert pts.max() < middle_thirds.ds.sup


class TestQuadrature:
    def test_index_whose_product_with_k_minus_1_passes_int64(self, middle_thirds):
        # (k - 1) n = 2 n is past 2^63 - 1: r = sup K / ((k - 1) n) must not wrap
        n = np.iinfo(np.int64).max
        value, bound = quadrature(middle_thirds, n)
        assert value == pytest.approx(float(n) ** -LOG2_LOG3, rel=1e-14, abs=0)
        assert 0.0 < bound <= 1e-14 * value

    def test_lebesgue_closed_form(self, lebesgue3):
        # I(n) = log(n/(n-1)); the midpoint equals the cylinder mean here,
        # so depth 14 is far inside the printed tolerance 3^-20
        value, bound = quadrature(lebesgue3, 2, depth=14)
        assert abs(value - math.log(2.0)) <= 3.0**-20
        for n in (3, 7, 100):
            v, _ = quadrature(lebesgue3, n, depth=12)
            assert v == pytest.approx(math.log(n / (n - 1.0)), abs=1e-9)

    def test_depth_refinement_within_bound(self, middle_thirds):
        v14, b14 = quadrature(middle_thirds, 2, depth=14)
        v18, _ = quadrature(middle_thirds, 2, depth=18)
        assert abs(v14 - v18) <= b14

    def test_bracket_never_jumps_more_than_bound(self, middle_thirds):
        prev, prev_bound = quadrature(middle_thirds, 3, depth=6)
        for depth in range(7, 14):
            cur, cur_bound = quadrature(middle_thirds, 3, depth=depth)
            assert abs(cur - prev) <= prev_bound
            prev, prev_bound = cur, cur_bound

    def test_decreasing_in_n_and_asymptotic(self, middle_thirds):
        ns = np.array([2, 3, 5, 10, 100, 1000])
        vals, _ = quadrature_values(middle_thirds, ns, depth=14)
        assert np.all(np.diff(vals) < 0.0)
        # n^alpha I(n) -> 1
        alpha = middle_thirds.ds.hausdorff_alpha
        assert 1000.0**alpha * vals[-1] == pytest.approx(1.0, rel=0.01, abs=0)

    def test_singularity_rejected(self, middle_thirds):
        with pytest.raises(ValueError):
            quadrature(middle_thirds, 1, depth=8)
        # c_l = k with k = 2 puts sup K = 2 at n = 2
        cm = CantorMeasure(DigitSystem(2, (0, 2)))
        with pytest.raises(ValueError, match="singularity"):
            quadrature(cm, 2, depth=8)
        # the vector path checks the same domain: sup K = 0.75 < n = 1 < 2
        cm = CantorMeasure(DigitSystem(5, (0, 3)))
        with pytest.raises(ValueError, match="singularity"):
            quadrature_values(cm, [1], 8)

    def test_negative_depth_rejected(self, middle_thirds):
        with pytest.raises(ValueError, match="depth must be a nonnegative integer, got -1"):
            quadrature_values(middle_thirds, [2], -1)

    def test_cl_equals_k_allowed_with_adjusted_bound(self):
        cm = CantorMeasure(DigitSystem(3, (0, 3)))
        assert cm.ds.sup == 1.5
        v12, b12 = quadrature(cm, 2, depth=12)
        v16, _ = quadrature(cm, 2, depth=16)
        assert abs(v12 - v16) <= b12

    def test_enumeration_cap(self, lebesgue3):
        # the limit binds the enumerator only; the series needs no prefix points
        with pytest.raises(ValueError, match="enumeration limit"):
            lebesgue3.prefix_points(20)

    def test_no_prefix_tables_retained(self):
        # nothing is kept between calls; a depth-18 prefix table alone would be 3 MB
        cm = CantorMeasure(DigitSystem(3, (0, 2)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for depth in (14, 16, 18):
                quadrature(cm, 2, depth=depth)
            self_similarity_check(cm, 2, depth=17)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 0.1e6

    def test_default_depth_certifies_1e8(self, middle_thirds):
        value, bound = quadrature(middle_thirds, 2)
        assert bound <= 1e-8
        v18, _ = quadrature(middle_thirds, 2, depth=18)
        assert abs(value - v18) <= 1e-8


def _direct_midpoint_sum(cm, n, depth):
    """(value, error bound) of the depth-D midpoint rule summed point by point.

    Relative error of one kernel value: the base points are sums of D
    rounded products (D + 3 roundings of at most sup K), the midpoint shift
    and the two subtractions in x = n - t - mid add 2 of sup K and 2 of n;
    through (n - t)^-alpha these give alpha ((D + 5) sup + 2 n) / (n - sup)
    units.  numpy's log and exp err by at most 4 ulp each: 9 alpha |log x|
    units with the product by alpha, and 8 more.  fsum rounds once and the
    division by l^D once.
    """
    sup, alpha = cm.ds.sup, cm.ds.hausdorff_alpha
    x = float(n) - cm.prefix_points(depth) - sup * cm.ds.k ** (-float(depth)) / 2.0
    value = math.fsum(np.exp(-alpha * np.log(x)).tolist()) / x.size
    log_x = max(abs(math.log(n - sup)), math.log(n))
    rel = alpha * ((depth + 5) * sup + 2 * n) / (n - sup) + 9 * alpha * log_x + 10
    return value, rel * U * value


def _mp_integral(ds, alpha, ns, dps=30):
    """I(n) against nu to about 10^-dps, from the moments mu_p = E[t^p] of the
    self-similarity mu_p (k^p - 1) = (1/l) sum_c sum_(i<p) C(p, i) c^(p-i) mu_i
    in exact-integer coefficients, summed until a term falls below 10^-dps
    (the terms then fall at least geometrically, by sup K / n <= 0.75)."""
    import mpmath

    out = []
    with mpmath.workdps(dps + 10):
        mu = [mpmath.mpf(1)]
        a = mpmath.mpf(alpha)
        for n in ns:
            total, coef, p = mpmath.mpf(0), mpmath.mpf(1), 0
            while True:
                if p == len(mu):
                    acc = sum(math.comb(p, i) * sum(c ** (p - i) for c in ds.digits) * mu[i]
                              for i in range(p))
                    mu.append(acc / (ds.l * (ds.k**p - 1)))
                term = coef * mu[p] / mpmath.mpf(n) ** p
                total += term
                if term < mpmath.mpf(10) ** -(dps + 2):
                    break
                p += 1
                coef *= (a + p - 1) / p
            out.append(total * mpmath.mpf(n) ** -a)
    return out


class TestMomentSeries:
    @pytest.mark.parametrize("k,digits,depths", [
        (3, (0, 2), (6, 12, 18)),
        (3, (1, 3), (6, 12, 18)),  # sup K = 1.5: ratio 0.75 at n = 2
        (2, (0, 2), (6, 12, 18)),  # sup K = 2: n >= 3
        (5, (0, 2, 4), (6, 9, 12)),
        (3, (0, 1, 2), (6, 9, 12)),
    ])
    def test_matches_direct_midpoint_sum(self, k, digits, depths):
        cm = CantorMeasure(DigitSystem(k, digits))
        n0 = max(2, math.floor(cm.ds.sup) + 1)
        ns = [n0, n0 + 1, 50, 1000]
        for depth in depths:
            values, bounds = quadrature_values(cm, ns, depth)
            # the bound beyond the midpoint rule's own error: tail and rounding
            series = bounds - error_bound(cm, np.array(ns), depth)
            for n, v, s in zip(ns, values, series):
                direct, direct_err = _direct_midpoint_sum(cm, n, depth)
                assert abs(v - direct) <= s + direct_err, (depth, n)
                assert s <= 1e3 * U * v  # the rounding bound is not vacuous

    @pytest.mark.parametrize("k,digits,ns", [
        (5, (0, 3), [2, 3, 7]),  # sup K = 0.75
        (3, (0, 2), [2, 3, 7]),  # sup K = 1
        (3, (1, 3), [2, 3, 7]),  # sup K = 1.5
        (2, (0, 2), [3, 4, 7]),  # sup K = 2
    ])
    def test_exact_series_within_bound_of_mpmath(self, k, digits, ns):
        mpmath = pytest.importorskip("mpmath")  # only this test needs the test extra
        cm = CantorMeasure(DigitSystem(k, digits))
        values, bounds = quadrature_values(cm, ns)
        for v, b, ref in zip(values, bounds, _mp_integral(cm.ds, cm.ds.hausdorff_alpha, ns)):
            assert abs(mpmath.mpf(v) - ref) <= b
            assert b <= 1e-13 * v

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_all_digits_give_log1p(self, k):
        # l = k: nu is Lebesgue measure on [0, 1] and alpha = 1 exactly
        cm = CantorMeasure(DigitSystem(k, tuple(range(k))))
        n = np.arange(2, 1001)
        values, bounds = quadrature_values(cm, n)
        ref = np.log1p(1.0 / (n - 1.0))  # 1/(n-1) rounded once, log1p within 4 ulp
        assert np.all(np.abs(values - ref) <= bounds + 9 * U * ref)

    @pytest.mark.parametrize("depth", [None, 0, 12])
    def test_empty_ns(self, middle_thirds, depth):
        values, bounds = quadrature_values(middle_thirds, [], depth)
        assert values.shape == bounds.shape == (0,)

    def test_exact_within_quadrature_bounds(self, middle_thirds):
        ns = np.arange(2, 200)
        exact, exact_b = quadrature_values(middle_thirds, ns)
        for depth in (4, 10, 18):
            v, b = quadrature_values(middle_thirds, ns, depth)
            assert np.all(np.abs(v - exact) <= b + exact_b)


MC_SYSTEMS = [  # (k, digits, n): the four the sampler was timed on
    (3, (0, 2), 2),
    (3, (1, 3), 2),  # sup K = 1.5, the kernel nearest its singularity
    (4, (1, 3), 3),
    (2, (0, 1), 2),  # K = [0, 1] and alpha = 1
]


class TestMonteCarlo:
    def test_agrees_with_quadrature(self, middle_thirds):
        value, bound = quadrature(middle_thirds, 2)
        est, se = monte_carlo_integral(middle_thirds, 2, 1_000_000, seed=7)
        assert abs(est - value) <= bound + 4.0 * se

    def test_lebesgue_log2(self, lebesgue3):
        est, se = monte_carlo_integral(lebesgue3, 2, 200_000, seed=3)
        assert abs(est - math.log(2.0)) <= 4.0 * se

    def test_streamed_moments_match_all_draws(self, middle_thirds):
        # every pass gathered at once by index arrays against the sampler's
        # shifted slices, evaluated a pass or a slice at a time
        samples, seed = 300_000, 11
        est, se = monte_carlo_integral(middle_thirds, 3, samples, seed)
        # 300000 // 32 = 9375: the 3^-13 table of 2^13 base points, 36 whole
        # passes, and two lower blocks give 39 >= ceil(53 / log2 3) = 34 digits
        table, size, passes = middle_thirds.prefix_points(13), 1 << 13, 36
        shifts = np.random.default_rng(seed).integers(0, size, size=(passes, 2))
        cells = np.arange(size)
        x = (3.0 - table[cells]
             - table[(cells + shifts[:, :1]) % size] * 3.0**-13
             - table[(cells + shifts[:, 1:]) % size] * 3.0**-26)  # n - t
        f = np.exp(-middle_thirds.ds.hausdorff_alpha * np.log(x))
        assert est == pytest.approx(f.mean(), rel=1e-14, abs=0)
        assert se == pytest.approx(f.mean(axis=1).std(ddof=1) / math.sqrt(passes), rel=1e-12, abs=0)

    def test_more_points_than_a_uint16_index(self):
        # l = 70000 > 2^16: one digit per block, and 32 passes need 32 l samples
        cm = CantorMeasure(DigitSystem(70000, tuple(range(70000))))
        table, _ = _mc_blocks(cm, 32 * 70000)
        assert table.size == 70000
        est, se = monte_carlo_integral(cm, 3, 32 * 70000, seed=1)
        assert abs(est - math.log(1.5)) <= 4.0 * se  # l = k: nu is Lebesgue measure

    def test_fewer_than_32_passes_rejected(self):
        cm = CantorMeasure(DigitSystem(70000, tuple(range(70000))))
        message = "need at least 2240000 samples for 32 passes over the l = 70000 digits, got "
        for samples in (2000, 32 * 70000 - 1):
            with pytest.raises(ValueError, match=f"^{message}{samples}$"):
                monte_carlo_integral(cm, 3, samples, seed=1)

    @pytest.mark.parametrize("k,digits", [(3, (0, 2)), (3, (1, 3)), (5, (0, 2, 4)), (4, (0, 1, 3))])
    def test_block_points_are_digit_strings(self, k, digits):
        cm = CantorMeasure(DigitSystem(k, digits))
        for samples in (1000, 20_000, 4_000_000):
            table, weights = _mc_blocks(cm, samples)
            l, blocks = len(digits), weights.size
            g = round(math.log(table.size, l))
            assert l**g == table.size <= min(1 << 16, samples // 32) < l ** (g + 1)
            assert g * blocks >= math.ceil(53.0 / math.log2(k))
            string_weights = float(k) ** -np.arange(1.0, g * blocks + 1.0)
            for idx in np.random.default_rng(k).integers(0, table.size, size=(200, blocks)):
                string = []
                for b in idx.tolist():  # b's base-l digits, most significant first
                    block = []
                    for _ in range(g):
                        b, r = divmod(b, l)
                        block.append(digits[r])
                    string += block[::-1]
                exact = np.array(string, dtype=float) @ string_weights
                # both sides sum positive terms, each through at most g B + 3
                # roundings (weights, products, additions), so each is within
                # gamma_(g B + 3) of the exact string
                assert abs(table[idx] @ weights - exact) <= 2 * (g * blocks + 3) * U * exact

    @pytest.mark.parametrize("k,digits,n", MC_SYSTEMS)
    def test_truncation_bias_at_rounding_level(self, k, digits, n):
        # the sampled strings are cylinder base points of depth g B, which
        # bias the estimate by at most error_bound at that depth
        cm = CantorMeasure(DigitSystem(k, digits))
        value, _ = quadrature(cm, n)
        for samples in (1000, 20_000, 300_000, 4_000_000):
            table, weights = _mc_blocks(cm, samples)
            depth = round(math.log(table.size, cm.ds.l)) * weights.size
            assert error_bound(cm, n, depth) <= 2.0**-50 * value, samples

    @pytest.mark.parametrize("k,digits,n,expected", [
        (3, (1, 3), 2, None),  # sup K = 1.5, the kernel nearest its singularity
        (5, (0, 2, 4), 3, None),
        (4, (0, 1, 3), 5, None),
        (2, (0, 1), 2, math.log(2.0)),  # K = [0, 1] and alpha = 1
    ])
    def test_agrees_with_exact_series(self, k, digits, n, expected):
        cm = CantorMeasure(DigitSystem(k, digits))
        value, bound = quadrature(cm, n)
        if expected is None:
            expected = value
        est, se = monte_carlo_integral(cm, n, 1_000_000, seed=2026)
        assert abs(est - expected) <= bound + 4.0 * se

    def test_standard_error_at_4e6_samples(self, middle_thirds):
        # i.i.d. digit strings gave 6.2e-5 here; stratified, shifted passes 8e-11
        _, se = monte_carlo_integral(middle_thirds, 2, 4_000_000, seed=1)
        assert se <= 6.2e-10

    def test_calibrated_over_seeds(self):
        # |z| > 2 holds for 4.6% of a normal's draws; 12..46 of 600 is the
        # central 99.9% of that binomial
        outside = 0
        for k, digits, n in MC_SYSTEMS[:3]:
            cm = CantorMeasure(DigitSystem(k, digits))
            value, bound = quadrature(cm, n)
            for seed in range(200):
                est, se = monte_carlo_integral(cm, n, 20_000, seed)
                assert bound < 1e-3 * se
                outside += abs(est - value) > 2.0 * se
        assert 12 <= outside <= 46

    def test_seed_reproducibility(self, middle_thirds):
        a = monte_carlo_integral(middle_thirds, 5, 50_000, seed=42)
        b = monte_carlo_integral(middle_thirds, 5, 50_000, seed=42)
        assert a == b

    def test_sample_floor(self, middle_thirds):
        with pytest.raises(ValueError, match="need at least 1000 samples, got 10$"):
            monte_carlo_integral(middle_thirds, 2, 10, seed=1)


def sequential_monte_carlo(cm, n, samples, seed):
    """Pass by pass, whole, with the lower blocks' shifted tables from
    np.roll: the reference the sampler must match bit for bit."""
    table, weights = _mc_blocks(cm, samples)
    size = table.size
    passes = samples // size
    shifts = np.random.default_rng(seed).integers(0, size, size=(passes, weights.size - 1))
    means = []
    for row in shifts:
        x = n - table
        for w, r in zip(weights[1:], row):
            x = x - np.roll(table, -r) * w  # cell j takes table[(j + r) mod size]
        means.append(np.sum(np.exp(-cm.ds.hausdorff_alpha * np.log(x))) / size)
    means = np.array(means)
    return float(np.mean(means)), float(np.std(means, ddof=1)) / math.sqrt(passes)


def sliced_monte_carlo(cm, n, samples, seed, slice_size=1 << 14):
    """The sampler as it was with an inner loop over slices of slice_size points in
    each batch of passes: the log, multiply and exp went slice by slice."""
    table, weights = _mc_blocks(cm, samples)
    size = table.size
    passes = samples // size
    offsets = np.random.default_rng(seed).integers(0, size, size=(passes, weights.size - 1))
    lower = [np.tile(table * w, 2) for w in weights[1:]]
    rows = max(1, slice_size // size)
    f = np.empty((rows, size))
    means = np.empty(passes)
    for first in range(0, passes, rows):
        stop = min(passes, first + rows)
        batch, shifts = f[:stop - first], offsets[first:stop].tolist()
        for lo in range(0, size, slice_size):
            hi = min(size, lo + slice_size)
            for x, row in zip(batch[:, lo:hi], shifts):
                np.subtract(n, table[lo:hi], out=x)
                for block, r in zip(lower, row):
                    x -= block[r + lo:r + hi]
            x = batch[:, lo:hi]
            np.log(x, out=x)
            np.multiply(x, -cm.ds.hausdorff_alpha, out=x)
            np.exp(x, out=x)
        np.sum(batch, axis=1, out=means[first:stop])
    means /= size
    return float(np.mean(means)), float(np.std(means, ddof=1)) / math.sqrt(passes)


class TestWholeBatch:
    """One log, multiply and exp per batch of passes gives the sliced loop's bits."""

    def test_one_pass_a_batch(self, middle_thirds):
        # a 65536-point table: each batch is one pass, once cut into four slices
        assert _mc_blocks(middle_thirds, 4_000_000)[0].size > 1 << 14
        got = monte_carlo_integral(middle_thirds, 2, 4_000_000, 5)
        assert got == sliced_monte_carlo(middle_thirds, 2, 4_000_000, 5)

    @pytest.mark.parametrize("k,digits", [(3, (0, 2)), (4, (0, 1, 3))], ids=["l2", "l3"])
    def test_several_passes_a_batch(self, k, digits):
        cm = CantorMeasure(DigitSystem(k, digits))
        assert _mc_blocks(cm, 20_000)[0].size < 1 << 13
        for seed in (0, 11):
            got = monte_carlo_integral(cm, 3, 20_000, seed)
            assert got == sliced_monte_carlo(cm, 3, 20_000, seed)


class TestDrawAhead:
    """The sampler against the pass-by-pass reference, called from one
    thread and from several."""

    # counts that are and are not whole passes of the table
    @pytest.mark.parametrize("samples", [1000, 20_000, 131_072, 131_073, 300_000, 393_221])
    @pytest.mark.parametrize("k,digits", [(3, (0, 2)), (3, (1, 3)), (5, (0, 2, 4)), (2, (0, 1)),
                                          (4, (1, 3))])
    def test_bit_identical_to_sequential_loop(self, k, digits, samples):
        cm = CantorMeasure(DigitSystem(k, digits))
        assert monte_carlo_integral(cm, 2, samples, 19) == sequential_monte_carlo(cm, 2, samples, 19)

    def test_concurrent_calls_under_fast_switching(self):
        # four callers on two cores, switching every microsecond, must each
        # get the reference's result: the sampler keeps no state between calls
        cases = [(CantorMeasure(DigitSystem(k, d)), seed) for k, d in [(3, (0, 2)), (5, (0, 2, 4))]
                 for seed in (1, 2)]
        want = [sequential_monte_carlo(cm, 2, 40_005, seed) for cm, seed in cases]
        got = [None] * len(cases)

        def run(i):
            got[i] = monte_carlo_integral(cases[i][0], 2, 40_005, cases[i][1])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == want


class TestSelfSimilarity:
    def test_middle_thirds(self, middle_thirds):
        dev = self_similarity_check(middle_thirds, 2, depth=14)
        _, bound = quadrature(middle_thirds, 2, depth=14)
        assert dev <= (middle_thirds.ds.l + 1) * bound

    def test_lebesgue_exact_logs(self, lebesgue3):
        assert self_similarity_check(lebesgue3, 2, depth=12) <= 1e-9

    def test_k5_system(self):
        cm = CantorMeasure(DigitSystem(5, (0, 3)))
        dev = self_similarity_check(cm, 3, depth=10)
        _, bound = quadrature(cm, 3, depth=10)
        assert dev <= (cm.ds.l + 1) * bound
