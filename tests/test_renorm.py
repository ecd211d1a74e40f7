import functools
import math

import numpy as np
import pytest

from runshift import (
    CantorMeasure,
    DigitSystem,
    coeffs_from_eta,
    eta_from_coeffs,
    make_eta,
    quadrature_values,
    renorm1_apply,
    renorm1_fixed_point,
    renorm2_apply,
    renorm2_digit_indices,
    renorm2_fixed_point,
    residual,
)
from runshift.renorm import InputTooShort, _offset_apply


def hofbauer(n_max):
    """a_n = -log(n/(n-1)), the eta_n = 1/n coefficient sequence."""
    n = np.arange(2.0, n_max + 1.0)
    return -np.log(n / (n - 1.0))


def reference_block_fixed_point(k, a2, n_max):
    """The block-by-block recursion that renorm1_fixed_point replaced: one Python
    step per block [k(n-2)+3, k(n-1)+2]."""
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
    return -np.log1p(1.0 / (np.arange(2.0, n_max + 1.0) + alpha[2:] - 1.0))


class TestConversions:
    def test_geometric_coeffs_constant(self, geometric_half):
        coeffs = coeffs_from_eta(geometric_half)
        assert np.allclose(coeffs, -math.log(2.0), rtol=0, atol=1e-15)

    def test_hofbauer_telescoping(self):
        eta = eta_from_coeffs(hofbauer(200))
        assert np.allclose(eta.values, 1.0 / np.arange(1.0, 201.0), rtol=1e-13)

    def test_round_trip_power3(self, power3):
        back = eta_from_coeffs(coeffs_from_eta(power3))
        assert np.max(np.abs(back.values - power3.values) / power3.values) < 1e-13

    def test_eta1_gate(self, stretched_half):
        with pytest.raises(ValueError, match=r"eta\.scaled\(1 / eta\.eta\(1\)\)"):
            coeffs_from_eta(stretched_half)
        coeffs = coeffs_from_eta(stretched_half.scaled(1 / stretched_half.eta(1)))
        back = eta_from_coeffs(coeffs)
        ratio = stretched_half.values / stretched_half.values[0]
        assert np.max(np.abs(back.values - ratio) / ratio) < 1e-12

    def test_eta1_gate_passes_the_scaled_route_one_ulp_low(self, power3):
        # 49 * (1/49) is 1 - 2^-53 in double precision, not 1
        eta = power3.scaled(49.0)
        assert eta.scaled(1 / eta.eta(1)).values[0] == 1.0 - 2.0**-53
        coeffs = coeffs_from_eta(eta.scaled(1 / eta.eta(1)))
        back = eta_from_coeffs(coeffs)
        assert np.max(np.abs(back.values - power3.values) / power3.values) < 1e-13
        with pytest.raises(ValueError, match="eta_1 != 1"):
            coeffs_from_eta(power3.scaled(1.0 - 2.0**-52))


class TestBlockOperator:
    def test_hofbauer_fixed_under_k2(self):
        coeffs = hofbauer(100)
        image = renorm1_apply(coeffs, 2)
        # (Ra)_2 = a_3 + a_4 = -log 2 = a_2, and so on
        assert image[0] == pytest.approx(-math.log(2.0), rel=1e-14, abs=0)
        assert np.allclose(image, coeffs[: image.size], atol=1e-15)

    def test_zero_sequence_fixed(self):
        coeffs = np.zeros(50)
        assert np.all(renorm1_apply(coeffs, 3) == 0.0)

    def test_hofbauer_not_fixed_under_k3(self):
        image = renorm1_apply(hofbauer(100), 3)
        # a_3 + a_4 + a_5 = -log(5/2) != a_2
        assert image[0] == pytest.approx(-math.log(2.5), rel=1e-14, abs=0)
        assert abs(image[0] - (-math.log(2.0))) > 0.2


U = 2.0**-53


class TestOneKernel:
    """The block operator is the offset sum over C = {k-2, ..., 2k-3}."""

    def test_k2_is_digit_operator_01(self):
        c = np.random.default_rng(3).normal(size=999)
        block = renorm1_apply(c, 2)
        digit = renorm2_apply(c, DigitSystem(2, (0, 1)))
        assert np.array_equal(block, digit)

    def test_k3_is_digit_operator_123(self):
        # same three terms, summed in opposite orders: each sum errs by at
        # most 2u times the sum of |terms| (to first order), so they differ
        # by at most 4u times it
        c = hofbauer(3000)
        block = renorm1_apply(c, 3)
        digit = renorm2_apply(c, DigitSystem(3, (1, 2, 3)))
        n = np.arange(2, block.size + 2)
        terms = sum(np.abs(c[3 * n - j - 2]) for j in (1, 2, 3))
        assert np.all(np.abs(block - digit) <= 4.0 * U * terms)

    @pytest.mark.parametrize("operator,first", [
        (functools.partial(renorm1_apply, k=5), 7),  # offsets 7..3
        (functools.partial(renorm2_apply, ds=DigitSystem(5, (1, 3))), 9),
    ], ids=["block", "digit"])
    def test_too_short_names_first_index(self, operator, first):
        # (Ra)_2 needs a_{2k - min C}; a_2..a_{first-1} stops one short
        with pytest.raises(ValueError, match=f"input too short: a_{first} required for"):
            operator(np.zeros(first - 2))
        assert operator(np.zeros(first - 1)).size == 1

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match=r"1-d array a_2, a_3, \.\.\., got shape \(2, 50\)"):
            _offset_apply(np.zeros((2, 50)), 2, (0, 1))

    def test_too_short_for_a_block_of_2_to_62_found_at_once(self):
        # (Ra)_2 needs a_{k + 2}; finding that out must not walk the k offsets
        with pytest.raises(InputTooShort, match=f"a_{2**62 + 2} required"):
            renorm1_apply(np.zeros(100), 2**62)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_matches_block_reshape(self, k):
        c = renorm1_fixed_point(3, -1.0, 5001)
        m = (c.size - 1) // k
        reference = c[1 : 1 + k * m].reshape(m, k).sum(axis=1)
        got = renorm1_apply(c, k)
        if k < 8:
            # numpy sums fewer than 8 terms left to right, as the kernel does
            assert np.array_equal(got, reference)
        else:
            # from 8 terms on numpy sums pairwise
            assert np.all(np.abs(got - reference) <= (k + 1) * U * np.abs(reference))


class TestBlockFixedPoint:
    def test_canonical_case_is_hofbauer(self):
        coeffs = renorm1_fixed_point(2, -math.log(2.0), 500)
        n = np.arange(2.0, 501.0)
        assert np.max(np.abs(coeffs + np.log(n / (n - 1.0)))) < 1e-14
        eta = eta_from_coeffs(coeffs)
        assert np.allclose(eta.values, 1.0 / np.arange(1.0, 501.0), rtol=1e-12)

    def test_log3_case_by_hand(self):
        coeffs = renorm1_fixed_point(2, -math.log(3.0), 10)
        # alpha(2) = -1/2 gives a_3 = -log 2, a_4 = -log(3/2)
        assert coeffs[1] == pytest.approx(-math.log(2.0), rel=1e-14, abs=0)
        assert coeffs[2] == pytest.approx(-math.log(1.5), rel=1e-14, abs=0)
        assert coeffs[1] + coeffs[2] == pytest.approx(
            -math.log(3.0), rel=1e-14, abs=0
        )

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("a2", [-math.log(2.0), -math.log(3.0)])
    def test_residual_small(self, k, a2):
        coeffs = renorm1_fixed_point(k, a2, k * 1000 + 2)
        res = residual(coeffs, renorm1_apply(coeffs, k))
        assert res.max() < 1e-12
        assert res.size >= 1000

    @pytest.mark.parametrize("k", range(2, 7))
    @pytest.mark.parametrize("a2", [-math.log(2.0), -0.1058, -3.7])
    def test_matches_per_block_reference(self, k, a2):
        # n_max at a_2 alone, the first and last index of n = 2's block, the last index of
        # n = k + 1's block and one past it, and several levels deep
        for n_max in (2, 3, k + 2, k * k + 2, k * k + 3, 5000):
            got = renorm1_fixed_point(k, a2, n_max)
            assert np.array_equal(got, reference_block_fixed_point(k, a2, n_max)), n_max

    def test_nonpositive_shift_rejected(self):
        # a_2 = -40 rounds alpha(2) to -1, so n + alpha(n) - 1 = 0 at n = 2
        with pytest.raises(ValueError, match=r"n \+ alpha\(n\) - 1 <= 0 at n = 2$"):
            renorm1_fixed_point(3, -40.0, 100)

    @pytest.mark.parametrize("call,cause", [
        (lambda: renorm1_apply(np.zeros(8), 1), "k must be at least 2"),
        (lambda: renorm1_fixed_point(1, -0.5, 100), "k must be at least 2"),
        (lambda: renorm1_fixed_point(2, -0.5, 1), "n_max must be at least 2"),
        (lambda: renorm2_fixed_point(DigitSystem(3, (0, 2)), 1), "n_max must be at least 2"),
    ], ids=["apply-k", "fixed-point-k", "fixed-point-n_max", "digit-fixed-point-n_max"])
    def test_size_below_its_floor_rejected(self, call, cause):
        with pytest.raises(ValueError, match=f"^{cause}$"):
            call()

    def test_positive_a2_rejected(self):
        with pytest.raises(ValueError):
            renorm1_fixed_point(2, 0.1, 100)

    @pytest.mark.parametrize("a2", [math.nan, -math.inf, -800.0, -1e-17])
    def test_a2_without_finite_alpha_rejected(self, a2):
        # nan and -inf once gave a table of nan, -800 overflowed e^-a_2 and -1e-17
        # divided by e^-a_2 - 1 = 0
        with pytest.raises(ValueError, match=r"a_2"):
            renorm1_fixed_point(2, a2, 100)

    def test_a2_next_to_zero_runs(self):
        # e^-a_2 = 1 + 2^-52, so alpha(2) is finite, about 2^52
        assert np.array_equal(renorm1_fixed_point(2, -3e-16, 10),
                              reference_block_fixed_point(2, -3e-16, 10))

    def test_block_of_2_to_62_indices(self):
        # one block covers a_3..a_50: alpha is filled index by index, not by a k-fold repeat
        k = 2**62
        assert np.array_equal(renorm1_fixed_point(k, -1.0, 50),
                              reference_block_fixed_point(k, -1.0, 50))


class TestDigitOperator:
    def test_index_arithmetic(self):
        # k=3, digits {0,2}: (Ra)_2 = a_6 + a_4, checked with marker values
        a = np.zeros(10)
        a[6 - 2] = 5.0
        a[4 - 2] = 11.0
        image = renorm2_apply(a, DigitSystem(3, (0, 2)))
        assert image[0] == 16.0

    def test_hofbauer_fixed_in_lebesgue_case(self):
        image = renorm2_apply(hofbauer(100), DigitSystem(3, (0, 1, 2)))
        # -log(6/5) - log(5/4) - log(4/3) = -log 2
        assert image[0] == pytest.approx(-math.log(2.0), rel=1e-14, abs=0)
        assert np.allclose(image, hofbauer(100)[: image.size], atol=1e-14)

    def test_zero_fixed(self):
        image = renorm2_apply(np.zeros(30), DigitSystem(3, (0, 2)))
        assert np.all(image == 0.0)

    def test_digit_system_validation(self):
        with pytest.raises(ValueError):
            DigitSystem(3, (2, 0))
        with pytest.raises(ValueError):
            DigitSystem(3, (0, 4))
        with pytest.raises(ValueError):
            DigitSystem(3, (0, 1, 2, 3))
        with pytest.raises(ValueError):
            DigitSystem(1, (0, 1))


class TestDigitLemma:
    def test_single_pass_is_digits(self):
        ds = DigitSystem(3, (0, 2))
        assert renorm2_digit_indices(ds, 1).tolist() == [0, 2]

    def test_depth_two_and_three(self):
        ds = DigitSystem(3, (0, 2))
        assert renorm2_digit_indices(ds, 2).tolist() == [0, 2, 6, 8]
        assert renorm2_digit_indices(ds, 3).tolist() == [0, 2, 6, 8, 18, 20, 24, 26]

    @pytest.mark.parametrize("n_fold", [1, 2, 3, 4, 5])
    def test_composition_matches_exactly(self, n_fold):
        # integer coefficients make both evaluation orders exact
        ds = DigitSystem(3, (0, 2))
        rng = np.random.default_rng(11)
        a = rng.integers(-50, 50, size=3**n_fold * 8 + 16).astype(float)
        composed = a
        for _ in range(n_fold):
            composed = renorm2_apply(composed, ds)
        js = renorm2_digit_indices(ds, n_fold)
        n_top = composed.size + 1
        direct = np.array(
            [sum(a[3**n_fold * n - j - 2] for j in js) for n in range(2, n_top + 1)]
        )
        assert np.array_equal(composed, direct)

    def test_multiplicity_preserved(self):
        # digits {0,1,3} in base 3 collide: 3 = 3*1 + 0 = 0 + 3
        ds = DigitSystem(3, (0, 1, 3))
        js = renorm2_digit_indices(ds, 2)
        assert js.size == 9
        assert np.count_nonzero(js == 3) == 2

    def test_enumeration_limit(self):
        with pytest.raises(ValueError, match="limit"):
            renorm2_digit_indices(DigitSystem(3, (0, 2)), 25)

    def test_offsets_fit_int64(self):
        # the largest offset is c_l (k^N - 1)/(k - 1) = 10^N - 1 here
        ds = DigitSystem(10, (0, 9))
        js = renorm2_digit_indices(ds, 18)
        assert js.size == 2**18
        assert js[0] == 0 and js[-1] == 10**18 - 1
        assert np.all(np.diff(js) > 0)
        with pytest.raises(ValueError, match="64 bits"):
            renorm2_digit_indices(ds, 19)


class TestDigitFixedPoint:
    def test_lebesgue_case_closed_form(self):
        coeffs, _ = renorm2_fixed_point(DigitSystem(3, (0, 1, 2)), 60, depth=12)
        n = np.arange(2.0, 61.0)
        assert np.max(np.abs(coeffs + np.log(n / (n - 1.0)))) < 1e-8

    def test_returns_coeffs_and_bounds(self):
        ds = DigitSystem(3, (0, 2))
        coeffs, bounds = renorm2_fixed_point(ds, 40, depth=10)
        assert isinstance(coeffs, np.ndarray) and coeffs.shape == (39,)  # a_2..a_40
        assert isinstance(bounds, np.ndarray) and bounds.shape == coeffs.shape
        vals, want = quadrature_values(CantorMeasure(ds), np.arange(2, 41), 10)
        assert np.array_equal(coeffs, -vals) and np.array_equal(bounds, want)

    def test_self_similarity_residual(self):
        ds = DigitSystem(3, (0, 2))
        coeffs, bounds = renorm2_fixed_point(ds, 30, depth=14)
        res = residual(coeffs, renorm2_apply(coeffs, ds))
        assert res.size == 9  # n = 2..10
        assert np.all(res <= (ds.l + 1) * bounds[: res.size])

    def test_k5_alpha_and_eta_order(self):
        ds = DigitSystem(5, (0, 3))
        assert ds.hausdorff_alpha == pytest.approx(0.43067655807339306, abs=1e-12)
        alpha, u = ds.hausdorff_alpha, 2.0**-53
        coeffs, bounds = renorm2_fixed_point(ds, 2000, depth=12)
        eta = eta_from_coeffs(coeffs)
        # K lies in [inf K, sup K], so -a_n = I(n) lies between (n - inf K)^-alpha
        # and (n - sup K)^-alpha, widened by the quadrature bound and edge rounding
        n = np.arange(2.0, 2001.0)
        lo = (n - ds.digits[0] / (ds.k - 1)) ** -alpha * (1.0 - 2.0 * u) - bounds
        hi = (n - ds.sup) ** -alpha * (1.0 + 2.0 * u) + bounds
        assert np.all((lo <= -coeffs) & (-coeffs <= hi))
        # summed: -log eta_2000 = sum of -a_n, so eta_n is of order exp(-n^(1-alpha)/(1-alpha));
        # the slack covers the cumsum, exp and log between the two
        minus_log = -math.log(eta.values[-1])
        slack = 2000 * u * math.fsum(hi)
        assert math.fsum(lo) - slack <= minus_log <= math.fsum(hi) + slack


class TestResidualOp:
    def test_perturbation_detected(self):
        coeffs = renorm1_fixed_point(2, -math.log(2.0), 200)
        bumped = coeffs.copy()
        bumped[2] += 1e-3
        assert residual(bumped, renorm1_apply(bumped, 2)).max() >= 1e-3

    def test_zero_residual_for_zero(self):
        zero = np.zeros(64)
        assert np.all(residual(zero, renorm1_apply(zero, 2)) == 0.0)

    @pytest.mark.parametrize("apply", [
        functools.partial(renorm1_apply, k=2),
        functools.partial(renorm1_apply, k=3),
        functools.partial(renorm1_apply, k=4),
        functools.partial(renorm2_apply, ds=DigitSystem(3, (0, 2))),
    ], ids=["block-2", "block-3", "block-4", "digit-3-02"])
    def test_is_elementwise_difference(self, apply):
        # residual(coeffs, image)[i] is |a_{i+2} - (Ra)_{i+2}| for n = 2..image.size + 1
        coeffs = np.random.default_rng(5).normal(size=500)
        image = apply(coeffs)
        res = residual(coeffs, image)
        assert res.size == image.size
        want = [abs(coeffs[n - 2] - image[n - 2]) for n in range(2, image.size + 2)]
        assert np.array_equal(res, want)
