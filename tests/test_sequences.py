import math

import numpy as np
import pytest

from conftest import ZETA3, brute_double_tail
from runshift import (
    EtaSequence,
    NotSummableError,
    ToleranceError,
    decay_profile,
    equilibrium_table,
    inverse_design,
    make_eta,
    parse_family,
    sequence_table,
)
from runshift.sequences import FAMILIES, GeometricTail, _upper_gamma


class TestMakeEta:
    def test_geometric_values_and_weight(self, geometric_half):
        n = np.arange(1, 11)
        assert np.array_equal(geometric_half.values[:10], 2.0 ** (1 - n))
        assert geometric_half.W() == 2.0

    def test_power3_weight_matches_zeta(self, power3):
        # independent oracle: direct summation plus integral tail bound
        direct = float(np.sum(np.arange(1.0, 10001.0)[::-1] ** -3.0))
        lo, hi = direct + 10001.0**-2 / 2, direct + 10000.0**-2 / 2
        assert lo <= ZETA3 <= hi
        assert abs(power3.W() - ZETA3) < 1e-8

    def test_power1_not_summable(self):
        with pytest.raises(NotSummableError, match="not summable"):
            make_eta("power", {"gamma": 1.0}, 100)

    def test_nmax_floor(self):
        with pytest.raises(ValueError):
            make_eta("power", {"gamma": 3.0}, 4)

    def test_stretched_param_validation(self):
        with pytest.raises(ValueError):
            make_eta("stretched", {"theta": 1.5}, 100)

    def test_geometric_underflow_rejected(self):
        with pytest.raises(ValueError, match="underflows"):
            make_eta("geometric", {"ratio": 0.5}, 2000)

    @pytest.mark.parametrize("nmax", [64, 100_000])
    def test_values_bit_identical_to_closed_forms(self, nmax):
        # the closed forms evaluated elementwise by numpy, matched bit for bit
        n = np.arange(1.0, nmax + 1.0)
        assert np.array_equal(make_eta("power", {"gamma": 2.7}, nmax).values, n**-2.7)
        assert np.array_equal(
            make_eta("stretched", {"theta": 0.35}, nmax).values, np.exp(-(n**0.35))
        )
        assert np.array_equal(
            make_eta("geometric", {"ratio": 0.9995}, nmax).values, 0.9995 ** (n - 1.0)
        )

    def test_values_must_decrease(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            EtaSequence(np.array([1.0, 0.5, 0.7, 0.1] + [0.05] * 8))


class TestTails:
    def test_geometric_tails_exact(self, geometric_half):
        assert geometric_half.tail(3) == 0.5
        assert geometric_half.tail(1) == 2.0

    def test_power_tail(self, power3):
        assert abs(power3.tail(2) - (ZETA3 - 1.0)) < 1e-8

    @pytest.mark.parametrize("fam,params,nmax", [
        ("power", {"gamma": 3.0}, 500),
        ("power", {"gamma": 2.2}, 500),
        ("stretched", {"theta": 0.5}, 500),
        ("stretched", {"theta": 0.3}, 500),
        ("geometric", {"ratio": 0.7}, 500),
    ])
    def test_tail_difference_identity(self, fam, params, nmax):
        # exact up to one rounding of the accumulation: |.| <= ulp(T(m))
        eta = make_eta(fam, params, nmax)
        for m in [1, 2, 5, 17, 100, nmax - 1]:
            diff = eta.tail(m) - eta.tail(m + 1)
            assert abs(diff - eta.values[m - 1]) <= 4e-16 * eta.tail(m)

    @pytest.mark.parametrize("fam,params", [
        ("power", {"gamma": 3.0}),
        ("stretched", {"theta": 0.5}),
        ("geometric", {"ratio": 0.5}),
    ])
    def test_row_sum_identity_exact(self, fam, params):
        # the stochastic-kernel identity (T(m+1) + eta_m)/T(m) = 1 is exact
        # because T(m) was accumulated as that very sum
        eta = make_eta(fam, params, 500)
        t = eta.tail_grid()
        for m in [1, 2, 5, 17, 100, 499]:
            assert (t[m] + eta.values[m - 1]) / t[m - 1] == 1.0

    def test_power_bracket_across_cutoffs(self):
        # the integral bound brackets the remainder: certified intervals from
        # two cutoffs must overlap and both contain the sharper estimate
        small = make_eta("power", {"gamma": 3.0}, 100)
        big = make_eta("power", {"gamma": 3.0}, 10000)
        lo_s, hi_s = small.tail_model.sum_tail(101)
        val_small = float(np.sum(small.values[::-1]))
        assert val_small + lo_s <= big.W() <= val_small + hi_s

    def test_values_and_tails_past_cutoff(self):
        # past n_max the tail model answers: closed forms n^-3 and r^(n-1)
        power = make_eta("power", {"gamma": 3.0}, 100)
        geo = make_eta("geometric", {"ratio": 0.7}, 100)
        for n in (101, 150, 1000):
            assert power.eta(n) == pytest.approx(float(n) ** -3.0, rel=1e-15, abs=0)
            assert geo.eta(n) == pytest.approx(0.7 ** (n - 1), rel=1e-13, abs=0)
            assert geo.tail(n) == pytest.approx(0.7 ** (n - 1) / 0.3, rel=1e-13, abs=0)
            # T(m) = sum_{n>=m} n^-3 lies between 1/(2m^2) and 1/(2(m-1)^2)
            assert 0.5 / n**2 <= power.tail(n) <= 0.5 / (n - 1) ** 2

    def test_custom_values_with_tail_model(self):
        # a custom sequence is its values plus any tail model that certifies the rest
        values = 2.0 ** (1 - np.arange(1.0, 33.0))
        eta = EtaSequence(values, GeometricTail(0.5))
        assert eta.tail(1, tol=1e-15) == 2.0
        assert eta.tail(40) == pytest.approx(2.0**-38, rel=1e-15, abs=0)

    def test_tolerance_rejection_without_model(self):
        eta = EtaSequence(1.0 / np.arange(1.0, 101.0) ** 3)
        with pytest.raises(ToleranceError):
            eta.tail(1, tol=1e-10)
        # un-certified truncated value still available
        assert eta.tail(1) > 1.0


class TestUpperGamma:
    # the stretched tails' incomplete gamma integral, a = k/theta for k = 1, 2, 3

    @pytest.mark.parametrize("theta", [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95])
    def test_against_mpmath(self, theta):
        # the factor x^a e^-x = exp(a log x - x) is off by about |a log x| + x ulps;
        # below the normal range doubles are 2^-1074 apart
        mpmath = pytest.importorskip("mpmath")
        for a in (1.0 / theta, 2.0 / theta, 3.0 / theta):
            # both sides of the switch from the series to the continued fraction
            xs = [*np.geomspace(0.3, 745.0, 40).tolist(), math.nextafter(a + 1.0, 0.0), a + 1.0]
            for x in xs:
                with mpmath.workdps(40):
                    want = mpmath.gammainc(a, x)
                    err = abs(mpmath.mpf(_upper_gamma(a, x)) - want)
                bound = 2.0 * (abs(a * math.log(x)) + x + 32.0) * 2.0**-53 * want + 2.0**-1074
                assert err <= bound, (a, x)

    @pytest.mark.parametrize("x", [0.3, 1.06, 100.0, 200.0])
    def test_gamma_overflow_gives_inf(self, x):
        # Gamma(200) overflows a double
        assert _upper_gamma(200.0, x) == math.inf

    def test_overflowing_tail_is_uncertified(self):
        # a = 1/theta = 200: the far bracket is (0, inf), and nothing raises
        eta = make_eta("stretched", {"theta": 0.005}, 100)
        assert eta.tail_error() == math.inf

    @pytest.mark.parametrize("a", [1.0 / 0.95, 2.0, 4.0])
    def test_underflow_gives_zero(self, a):
        # Gamma(a, 800) <= 800^(a-1) e^-800 / (1 - (a-1)/800) < 2^-1075
        assert _upper_gamma(a, 800.0) == 0.0


class TestDoubleTail:
    def test_geometric_brute_force(self, geometric_half):
        brute = brute_double_tail(lambda m: 2.0 ** (1 - m), 3, terms=200)
        assert abs(brute - 0.5) < 1e-15
        assert geometric_half.double_tail(3) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("fam,params", [
        ("power", {"gamma": 3.0}),
        ("power", {"gamma": 2.5}),
        ("stretched", {"theta": 0.5}),
        ("geometric", {"ratio": 0.5}),
    ])
    def test_difference_identity(self, fam, params):
        eta = make_eta(fam, params, 400)
        for q in [1, 2, 7, 50, 200]:
            lhs = eta.double_tail(q) - eta.double_tail(q + 1)
            assert lhs == pytest.approx(eta.tail(q + 1), rel=1e-10, abs=1e-300)

    def test_stretched_incomplete_gamma_vs_brute(self, stretched_half):
        # certified value against an independent truncated double sum
        q = 10000
        brute = brute_double_tail(lambda m: np.exp(-np.sqrt(m)), q, terms=30000)
        assert stretched_half.double_tail(q) == pytest.approx(brute, rel=1e-10, abs=0)

    def test_stretched_order_constant(self, stretched_half):
        # D(q) ~ (4 + 12/sqrt(q)) q e^-sqrt(q) from the incomplete-gamma expansion
        q = 10000
        ratio = stretched_half.double_tail(q) / (q * math.exp(-math.sqrt(q)))
        assert ratio == pytest.approx(4.0, rel=0.10, abs=0)

    def test_power_first_moment_gate(self):
        eta = make_eta("power", {"gamma": 2.0}, 100)
        with pytest.raises(NotSummableError):
            eta.double_tail(5)
        with pytest.raises(NotSummableError):
            eta.first_moment()


class TestPoweredSums:
    def test_geometric_powered(self, geometric_half):
        # W(2) = sum 4^(1-n)... = sum (1/2)^(2(n-1)) = 1/(1-1/4)
        assert geometric_half.W(2.0) == pytest.approx(4.0 / 3.0, rel=1e-14, abs=0)

    def test_power_powered_divergence(self, power3):
        with pytest.raises(NotSummableError):
            power3.W(0.25)

    def test_stretched_powered(self, stretched_half):
        direct = float(np.sum((stretched_half.values[::-1]) ** 2.0))
        assert stretched_half.W(2.0) == pytest.approx(direct, rel=1e-12, abs=0)


class TestScaleInvariance:
    @pytest.mark.parametrize("fam,params", [
        ("power", {"gamma": 3.0}),
        ("stretched", {"theta": 0.5}),
        ("geometric", {"ratio": 0.5}),
    ])
    def test_ratios_unchanged(self, fam, params):
        eta = make_eta(fam, params, 200)
        scaled = eta.scaled(7.0)
        for m in [1, 5, 50, 150]:
            assert scaled.tail(m + 1) / scaled.tail(m) == pytest.approx(
                eta.tail(m + 1) / eta.tail(m), rel=1e-14, abs=0
            )
            assert scaled.ratios(m, m)[1][0] == pytest.approx(
                eta.ratios(m, m)[1][0], rel=1e-14, abs=0
            )

    def test_scaled_tails_scale(self, power3):
        assert power3.scaled(7.0).tail(10) == pytest.approx(7.0 * power3.tail(10), rel=1e-14, abs=0)


class TestRatios:
    @pytest.mark.parametrize("fam,params", [("power", {"gamma": 3.0}), ("geometric", {"ratio": 0.5})])
    def test_matches_tails(self, fam, params):
        eta = make_eta(fam, params, 100)
        cont, switch = eta.ratios(3, 60)
        for m in (3, 17, 60):
            assert cont[m - 3] == pytest.approx(eta.tail(m + 1) / eta.tail(m), rel=1e-14, abs=0)
            assert switch[m - 3] == pytest.approx(eta.eta(m) / eta.tail(m), rel=1e-14, abs=0)

    @pytest.mark.parametrize("fam,params", [("power", {"gamma": 3.0}), ("geometric", {"ratio": 0.5})])
    @pytest.mark.parametrize("lo,hi", [(0, 0), (-5, -5), (-2, 4), (1, -2), (5, 4)])
    def test_outside_range_rejected(self, fam, params, lo, hi):
        # lo = 0 used to raise a bare IndexError (power) or return 0.5 (geometric)
        with pytest.raises(ValueError, match=f"1 <= lo <= hi, got lo={lo}, hi={hi}"):
            make_eta(fam, params, 100).ratios(lo, hi)


class TestInverseDesign:
    def test_geometric_target_exact(self):
        eta = inverse_design(lambda q: 2.0**-q, qmax=40)
        r = np.arange(1, 21)
        assert np.allclose(eta.values[:20], 2.0 ** (-r - 2.0), rtol=1e-15, atol=0)
        for q in range(1, 33):
            assert eta.double_tail(q) == pytest.approx(2.0 ** -(q + 1), rel=1e-13, abs=0)

    def test_target_tail_values_are_second_differences(self):
        eta = inverse_design(decay_profile("power:2"), qmax=40)
        model = eta.tail_model
        for n in (1, 7, eta.n_max):
            assert model.value(n) == eta.values[n - 1]
        # past the cutoff, eta_n = d_n - 2 d_(n+1) + d_(n+2) from the target alone
        for n in (eta.n_max + 1, 500):
            d = [float(q) ** -2.0 for q in (n, n + 1, n + 2)]
            assert eta.eta(n) == pytest.approx(d[0] - 2.0 * d[1] + d[2], rel=1e-12, abs=0)
        big = model.scaled(3.0)
        assert big.value(9) == 3.0 * model.value(9)
        for m in (9, eta.n_max + 1):
            assert big.sum_tail(m) == tuple(3.0 * x for x in model.sum_tail(m))
            assert big.weighted_tail(m) == tuple(3.0 * x for x in model.weighted_tail(m))
        far = eta.n_max + 5
        assert eta.scaled(3.0).tail(far) == pytest.approx(3.0 * eta.tail(far), rel=1e-15, abs=0)

    def test_power_target_within_one_percent(self):
        eta = inverse_design(lambda q: float(q) ** -2.0, qmax=100)
        for q in range(10, 101, 10):
            target = (q + 1.0) ** -2.0
            assert abs(eta.double_tail(q) - target) / target < 0.01

    def test_nonmonotone_rejection_names_index(self):
        def d(q):
            return (0.5, 0.9)[q - 1] if q <= 2 else 1.0 / q

        with pytest.raises(ValueError, match="q=1"):
            inverse_design(d, qmax=2)

    def test_nonconvex_rejection(self):
        # decreasing but not convex: differences re-increase -> eta_3 < 0
        def d(q):
            return (1.0, 0.6, 0.5, 0.45)[q - 1] if q <= 4 else 0.45 * 2.0 ** (4 - q)

        with pytest.raises(ValueError, match="r=3"):
            inverse_design(d, qmax=2)

    def test_rounded_second_differences_rising_named(self):
        # geometric:0.999999 in exact arithmetic has decreasing second differences, but their
        # rounded values rise from r=2 to r=3; the target is named, not EtaSequence's check
        with pytest.raises(ValueError, match=r"d_r - 2 d_\(r\+1\) \+ d_\(r\+2\) increase "
                                             r"from r=2 to r=3 in double precision"):
            inverse_design(decay_profile("geometric:0.999999"), qmax=3)


class TestSerialization:
    def test_table_columns(self, geometric_half):
        table = sequence_table(geometric_half)
        assert list(table) == ["n", "eta", "T", "a"]
        assert math.isnan(table["a"][0])
        assert table["a"][1] == pytest.approx(-math.log(2.0))
        assert table["T"][0] == 2.0


class TestRegistry:
    def test_parse_family_names_the_cause(self):
        assert parse_family("Power:3") == ("power", {"gamma": 3.0})
        with pytest.raises(ValueError, match="needs a numeric gamma"):
            parse_family("power")
        with pytest.raises(ValueError, match="needs a numeric ratio"):
            parse_family("geometric:half")
        with pytest.raises(ValueError, match="unknown family 'cubic'"):
            parse_family("cubic:3")

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_every_family_reaches_each_caller(self, name):
        p = {"power": 3.0, "stretched": 0.5, "geometric": 0.5}[name]
        eta = make_eta(*parse_family(f"{name}:{p}"), 64)
        assert eta.tail_model == FAMILIES[name].tail(p)
        assert eta.scaled(3.0).tail_model == eta.tail_model.scaled(3.0)
        fn = decay_profile(f"{name}:{p}")
        assert fn(2) < fn(1)

    def test_profile_domain_differs_from_sequence_domain(self):
        # q^-1/2 is a valid target although n^-1/2 is not summable
        assert decay_profile("power:0.5")(4) == 0.5
        with pytest.raises(ValueError, match="positive"):
            decay_profile("power:0")
        with pytest.raises(ValueError, match=r"must be in \(0,1\)"):
            decay_profile("geometric:1.5")


class TestGrids:
    def test_grids_read_only(self, power3):
        # callers get the cached grids themselves, or slices of them
        handed_out = (power3.tail_grid(), power3.tail_grid(2.0), power3.double_tail_grid(),
                      sequence_table(power3)["T"], equilibrium_table(power3, 8)["mu_raw"])
        for grid in handed_out:
            with pytest.raises(ValueError, match="read-only"):
                grid[0] = 0.0
        assert power3.tail(1) == power3.W()
