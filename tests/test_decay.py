import numpy as np
import pytest

from conftest import brute_double_tail
from runshift import (
    EtaSequence,
    iterates_from_run,
    make_eta,
    renewal_series,
)

A1_POWER3 = 0.16809262741929248  # (zeta(3) - 1) / zeta(3)
K1_POWER3 = 0.33190737258070746  # 1/zeta(3) - 1/2


class TestBernoulliCase:
    def test_everything_vanishes(self, geometric_half):
        ser = renewal_series(geometric_half, 64)
        assert np.all(ser["A"] == 0.5)
        assert np.all(ser["K"] == 0.0)
        assert np.all(ser["V"] == 0.0)

    def test_iterates_from_any_run(self, geometric_half):
        for s in (1, 2, 4, 8):
            b = iterates_from_run(geometric_half, s, 32)
            assert np.max(np.abs(b - 0.5)) < 1e-15


class TestRenewalRecursion:
    def test_first_iterate(self, power3):
        ser = renewal_series(power3, 8)
        assert ser["A"][0] == pytest.approx(A1_POWER3, abs=1e-12)
        assert ser["A"][0] == pytest.approx(power3.tail(2) / power3.W(), rel=1e-14, abs=0)

    def test_first_forcing_equals_first_deficit(self, power3):
        ser = renewal_series(power3, 8)
        assert ser["K"][0] == pytest.approx(K1_POWER3, abs=1e-12)
        assert ser["V"][0] == ser["K"][0]

    @pytest.mark.parametrize("fam,params,nmax", [
        ("power", {"gamma": 3.0}, 2100),
        ("stretched", {"theta": 0.5}, 2100),
        ("geometric", {"ratio": 0.5}, 1024),
    ])
    def test_deficits_are_half_minus_iterates(self, fam, params, nmax):
        # the two recursions are algebraically the same statement
        eta = make_eta(fam, params, nmax)
        ser = renewal_series(eta, 1000)
        assert np.max(np.abs(ser["V"] - (0.5 - ser["A"]))) < 1e-12

    @pytest.mark.parametrize("qmax,cause", [
        (0, "qmax must be at least 1"),
        (200, "qmax=200 needs n_max >= 201"),
    ])
    def test_qmax_out_of_range_rejected(self, qmax, cause):
        eta = make_eta("power", {"gamma": 3.0}, 200)
        with pytest.raises(ValueError, match=cause):
            renewal_series(eta, qmax)

    def test_iterates_in_unit_interval_and_converge(self, power3):
        a = renewal_series(power3, 2048)["A"]
        assert np.all((a > 0.0) & (a < 1.0))
        # |A_q - 1/2| tail decreases to zero
        gap = np.abs(a - 0.5)
        assert gap[-1] < 1e-5
        assert np.max(gap[1024:]) < np.max(gap[256:1024]) < np.max(gap[:256])

    def test_deficits_vanish(self, power3):
        v = renewal_series(power3, 2048)["V"]
        assert abs(v[-1]) < 1e-5

    def test_generating_function_identity(self, power3):
        # V(z) (1 + z f(z)) = z K(z) at z = 1/2, within truncation tails
        ser = renewal_series(power3, 400)
        z = 0.5
        pow_z = z ** np.arange(1, 401)
        v_z = float(np.sum(ser["V"] * pow_z))
        f_z = float(np.sum(power3.values[:400] / power3.W() * pow_z / z))
        k_z = float(np.sum(ser["K"] * pow_z / z))
        assert v_z * (1.0 + z * f_z) == pytest.approx(z * k_z, abs=1e-12)


class TestIteratesFromRun:
    def test_reduces_to_plain_iterates_at_unit_run(self, power3):
        ser = renewal_series(power3, 64)
        b = iterates_from_run(power3, 1, 64)
        assert np.max(np.abs(b - ser["A"])) < 1e-14

    def test_first_step_is_continue_probability(self, power3):
        for s in (1, 3, 9):
            b = iterates_from_run(power3, s, 4)
            assert b[0] == pytest.approx(power3.tail(s + 1) / power3.tail(s), rel=1e-14, abs=0)

    @pytest.mark.parametrize("s,qmax,cause", [
        (1, 0, "qmax must be at least 1, got 0"),
        (1, -3, "qmax must be at least 1, got -3"),
        (3, 600, "s \\+ qmax = 603 needs n_max >= 602"),
        (0, 4, "run length s must be at least 1"),
    ])
    def test_bad_range_names_the_argument(self, s, qmax, cause):
        eta = make_eta("power", {"gamma": 3.0}, 200)
        with pytest.raises(ValueError, match=cause):
            iterates_from_run(eta, s, qmax)

    def test_builds_no_double_tail_grid(self):
        # the iterates need V alone, so a fresh sequence caches no D grid (key None)
        eta = make_eta("power", {"gamma": 3.0}, 200)
        iterates_from_run(eta, 4, 64)
        assert None not in eta._grids

    def test_values_in_unit_interval(self, stretched_half):
        for s in (1, 2, 4, 8):
            b = iterates_from_run(stretched_half, s, 256)
            assert np.all((b > 0.0) & (b <= 1.0))


class TestCorrelationOrder:
    def test_power3_double_tail_bracket(self, power3):
        # D(q) = sum_{j>q} T(j) with 1/(2j^2) <= T(j) <= 1/(2(j-1)^2), so by
        # integral comparison 1/(2(q+1)) <= D(q) <= 1/(2q) + 1/(2q^2): order 1/q
        qs = np.array([128, 181, 256, 362, 512, 724, 1024])
        d = power3.double_tail_grid()[qs]
        lo_w, hi_w = power3.tail_model.weighted_tail(power3.n_max + 1)
        # the certified error of the grid plus the rounding of its two cumulative sums
        slack = ((power3.n_max + 1 - qs) * power3.tail_error() + 0.5 * (hi_w - lo_w)
                 + 2.0 * (power3.n_max + 2) * 2.0**-53 * d)
        assert np.all(1.0 / (2.0 * (qs + 1.0)) - slack <= d)
        assert np.all(d <= 1.0 / (2.0 * qs) + 1.0 / (2.0 * qs**2.0) + slack)

    def test_stretched_order_constant(self, stretched_half):
        qs = np.linspace(2500, 10000, 16).astype(int)
        ratios = stretched_half.double_tail_grid()[qs] / (
            qs * np.exp(-np.sqrt(qs))
        )
        assert np.all(np.abs(ratios - 4.0) < 0.4)
        assert ratios.max() / ratios.min() < 1.10

    def test_geometric_not_sharp(self, geometric_half):
        # the order statement is not attained for geometric weights: the
        # predicted scale is 1/2 at q=3 while the true correlation is 0
        assert geometric_half.double_tail_grid()[3] == pytest.approx(0.5, abs=1e-13)

    def test_matches_brute_double_sum(self, power3):
        q, terms = 64, 2_000_000
        brute = brute_double_tail(lambda m: m**-3.0, q, terms=terms)
        # remainder of the truncated double sum lies between the integral
        # from the cutoff and that plus one leading term
        cut = q + terms + 1
        lo = 1.0 / cut - q / (2.0 * cut**2)
        value = power3.double_tail_grid()[q]
        assert brute + lo <= value <= brute + lo + 2.0 * (cut - q) * cut**-3.0


class TestScaleInvariance:
    def test_renewal_outputs_unchanged(self, power3):
        scaled = power3.scaled(7.0)
        s1 = renewal_series(power3, 128)
        s2 = renewal_series(scaled, 128)
        assert np.max(np.abs(s1["A"] - s2["A"])) < 1e-12
        assert np.max(np.abs(s1["V"] - s2["V"])) < 1e-12
        assert np.max(np.abs(s1["K"] - s2["K"])) < 1e-12
        b1 = iterates_from_run(power3, 4, 64)
        b2 = iterates_from_run(scaled, 4, 64)
        assert np.max(np.abs(b1 - b2)) < 1e-12

    def test_double_tail_ratios_unchanged(self, power3):
        scaled = power3.scaled(7.0)
        for q in (2, 8, 64):
            r1 = power3.double_tail(q) / power3.double_tail(1)
            r2 = scaled.double_tail(q) / scaled.double_tail(1)
            assert r1 == pytest.approx(r2, rel=1e-13, abs=0)


class TestStretchedTailReport:
    def test_tails_within_model_bracket(self, stretched_half):
        # the demo's tail report: T(m) inside the integral bracket down to 1e-41
        eta = stretched_half
        for m in (100, 1000, 10_000):
            t = eta.tail(m)
            lo, hi = eta.tail_model.sum_tail(m)
            slack = eta.tail_error() + 2.0 * (eta.n_max + 2) * 2.0**-53 * t
            assert lo - slack <= t <= hi + slack
        assert eta.tail(10_000) < 1e-41

    def test_faster_family_dominated_termwise(self):
        # exponent 1 - log2/log5 > 1/2, so exp(-n^theta5) <= exp(-sqrt n)
        theta5 = 1.0 - 0.43067655807339306
        fast = make_eta("stretched", {"theta": theta5}, 4000)
        slow = make_eta("stretched", {"theta": 0.5}, 4000)
        assert np.all(fast.values <= slow.values)
        for q in (10, 100, 1000):
            assert fast.double_tail(q) <= slow.double_tail(q)


class TestDecayTable:
    def test_columns(self, geometric_half):
        table = renewal_series(geometric_half, 16)
        assert list(table) == ["q", "A", "V", "K", "D"]
        assert np.array_equal(table["q"], np.arange(1, 17))
        assert all(len(col) == 16 for col in table.values())

    def test_d_column_read_from_grid(self, power3, monkeypatch):
        lags = []
        scalar = EtaSequence.double_tail
        monkeypatch.setattr(EtaSequence, "double_tail",
                            lambda self, q, tol=None: lags.append(q) or scalar(self, q, tol))
        table = renewal_series(power3, 512)
        assert lags == []  # no lag goes through the scalar route
        assert np.array_equal(table["D"], power3.double_tail_grid()[1:513])
