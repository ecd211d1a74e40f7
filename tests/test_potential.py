import math

import numpy as np
import pytest

from conftest import ZETA3, transfer_ratio
from runshift import (
    ALL_ONES,
    ALL_ZEROS,
    ONE_THEN_ZEROS,
    ZERO_THEN_ONES,
    EtaSequence,
    NotSummableError,
    SymbolicPoint,
    ToleranceError,
    check_normalization,
    decay_profile,
    eigenfunction,
    equilibrium_cylinder,
    equilibrium_normalization,
    equilibrium_table,
    inner_ones,
    inner_zeros,
    inverse_design,
    jacobian,
    lead_ones,
    lead_zeros,
    make_eta,
    parse_family,
    potential_value,
    zero_cylinder_mass,
)


class TestSymbolicPoint:
    def test_run_patterns_need_q(self):
        with pytest.raises(ValueError):
            lead_zeros(0)
        with pytest.raises(ValueError):
            SymbolicPoint(ALL_ZEROS.pattern, 3)

    def test_factories(self):
        assert lead_zeros(3).q == 3
        assert inner_zeros(2).q == 2


class TestPotentialValue:
    def test_run_value_is_log_ratio(self, geometric_half):
        assert potential_value(lead_zeros(3), geometric_half) == pytest.approx(
            -math.log(2.0), rel=1e-15, abs=0
        )
        assert potential_value(lead_ones(3), geometric_half) == pytest.approx(
            -math.log(2.0), rel=1e-15, abs=0
        )

    def test_unit_run_value(self, power3):
        assert potential_value(lead_zeros(1), power3) == pytest.approx(
            -math.log(ZETA3), rel=1e-10, abs=0
        )
        # every length-one-run pattern sees the same value
        assert potential_value(inner_ones(5), power3) == potential_value(
            lead_zeros(1), power3
        )
        assert potential_value(ZERO_THEN_ONES, power3) == potential_value(
            lead_ones(1), power3
        )

    def test_fixed_points_zero(self, power3):
        assert potential_value(ALL_ZEROS, power3) == 0.0
        assert potential_value(ALL_ONES, power3) == 0.0

    def test_beta_scales_run_values(self, power3):
        v1 = potential_value(lead_zeros(4), power3, beta=1.0)
        v2 = potential_value(lead_zeros(4), power3, beta=2.0)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-14, abs=0)

    def test_unit_run_value_with_eta1_below_one(self, stretched_half):
        # beta log eta_1 - log W(beta), with eta_1 = 1/e
        for beta in (1.0, 2.0):
            want = beta * -1.0 - math.log(stretched_half.W(beta))
            assert potential_value(inner_zeros(3), stretched_half, beta) == pytest.approx(
                want, rel=1e-15, abs=0
            )
        # at beta = 1 it is -log W of eta / eta_1
        minus_log_w = -math.log(stretched_half.scaled(1 / stretched_half.eta(1)).W())
        assert potential_value(inner_zeros(3), stretched_half) == pytest.approx(
            minus_log_w, rel=1e-14, abs=0
        )


class TestTransferOperator:
    @pytest.mark.parametrize("spec,n_max,beta", [
        ("stretched:0.5", 2000, 1.0),  # eta_1 = 1/e
        ("stretched:0.5", 2000, 2.0),
        ("geometric:0.6", 200, 1.5),
    ])
    def test_eigenfunction_is_fixed(self, spec, n_max, beta):
        # L h = h on every leading run, a few roundings per term
        eta = make_eta(*parse_family(spec), n_max)
        for q in (1, 2, 5, 50, n_max // 2, n_max - 1):
            assert transfer_ratio(eta, q, beta) == pytest.approx(1.0, rel=0, abs=16 * 2.0**-53)

    def test_inverse_designed_eigenfunction_is_fixed(self):
        eta = inverse_design(decay_profile("power:3"), qmax=200)
        assert eta.eta(1) < 0.8
        for q in (1, 5, 50, 200, eta.n_max - 1):
            assert transfer_ratio(eta, q) == pytest.approx(1.0, rel=0, abs=16 * 2.0**-53)


class TestNonpositiveBeta:
    @pytest.mark.parametrize("spec", ["power:3", "stretched:0.5", "geometric:0.6"])
    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_every_powered_route_rejects(self, spec, beta):
        # sum eta_n^beta diverges for beta <= 0 whatever the family
        eta = make_eta(*parse_family(spec), 200)
        calls = [
            lambda: eta.W(beta),
            lambda: eta.tail(5, beta=beta),
            lambda: eta.tail(eta.n_max + 10, beta=beta),
            lambda: eta.tail_grid(beta),
            lambda: potential_value(inner_zeros(2), eta, beta),
            lambda: eigenfunction(lead_zeros(3), eta, beta=beta),
            lambda: eigenfunction(lead_zeros(3), eta, beta=beta, lam=1.5, tol=1e-10),
        ]
        for call in calls:
            with pytest.raises(NotSummableError, match=f"beta={beta}"):
                call()


class TestEigenfunction:
    def test_geometric_is_constant_two(self, geometric_half):
        for n in (1, 2, 5, 20):
            assert eigenfunction(lead_zeros(n), geometric_half) == pytest.approx(
                2.0, rel=1e-14, abs=0
            )

    def test_unit_run_times_eta1_is_weight(self, power3, stretched_half):
        for eta in (power3, stretched_half):
            r1 = eigenfunction(lead_zeros(1), eta)
            assert r1 * eta.eta(1) == pytest.approx(eta.W(), rel=1e-10, abs=0)

    def test_power3_run2(self, power3):
        # T(2)/eta_2 = (zeta(3)-1) * 8
        assert eigenfunction(lead_zeros(2), power3) == pytest.approx(
            1.6164552252767541, rel=1e-9, abs=0
        )

    def test_symmetry(self, power3):
        assert eigenfunction(lead_zeros(7), power3) == eigenfunction(
            lead_ones(7), power3
        )

    def test_fixed_points_normalized(self, power3):
        assert eigenfunction(ALL_ZEROS, power3) == 1.0
        assert eigenfunction(ALL_ONES, power3) == 1.0

    def test_supplied_eigenvalue_vs_brute_series(self, power3):
        lam, n = 2.0, 2
        val = eigenfunction(lead_zeros(n), power3, lam=lam, tol=1e-10)
        brute = 1.0 + sum(
            (n + j) ** -3.0 * lam**-j for j in range(1, 4000)
        ) / power3.eta(n) ** 1.0
        assert val == pytest.approx(brute, abs=1e-9)

    def test_model_less_remainder_not_certified(self):
        # nothing bounds the weights beyond n_max without a tail model, so a
        # tolerance cannot be met however fast the stored values decay
        n = np.arange(1.0, 41.0)
        for values in (n**-3.0, 0.5 ** (n - 1.0)):
            with pytest.raises(ToleranceError):
                eigenfunction(lead_zeros(2), EtaSequence(values), lam=1.01, tol=1e-10)

    @pytest.mark.parametrize("beta,lam", [(1.0, 1.01), (0.8, 1.3), (2.0, 1.05)])
    def test_supplied_eigenvalue_certified_geometric(self, beta, lam):
        # geometric(1/2): 1 + sum_j x^j = 1/(1 - x) with x = 2^-beta / lam
        eta = make_eta("geometric", {"ratio": 0.5}, 200)
        val = eigenfunction(lead_zeros(3), eta, beta=beta, lam=lam, tol=1e-12)
        x = 0.5**beta / lam
        assert val == pytest.approx(1.0 / (1.0 - x), rel=2e-12, abs=0)

    @pytest.mark.parametrize("n", [99, 100])
    def test_unconverged_series_rejected(self, n):
        # at lam = 1.05 the stored terms run out before the remainder of
        # sum_j (n+j)^-3 lam^-j falls below its floor; no partial sum is returned
        eta = make_eta("power", {"gamma": 3.0}, 100)
        with pytest.raises(ToleranceError, match=f"n={n} .*n_max=100"):
            eigenfunction(lead_zeros(n), eta, lam=1.05)
        assert eigenfunction(lead_zeros(n), eta) > 1.0

    @pytest.mark.parametrize("n", [101, 150])
    def test_run_past_n_max_rejected_at_lam_above_one(self, n):
        # the lam != 1 series sums the stored terms past n; at lam = 1 the tail model answers
        eta = make_eta("power", {"gamma": 3.0}, 100)
        with pytest.raises(ToleranceError, match=f"n={n} .*n_max=100; use a larger n_max"):
            eigenfunction(lead_zeros(n), eta, lam=1.5, tol=1e-6)
        assert eigenfunction(lead_zeros(n), eta) > 1.0

    @pytest.mark.parametrize("lam", [1.0, 1.5])
    def test_underflowing_scale_rejected(self, lam):
        # make_eta accepts the sequence (eta_1300 is a normal double), but eta_1300^1.5 is 0.0
        eta = make_eta("stretched", {"theta": 0.9}, 1400)
        with pytest.raises(ToleranceError, match="n=1300: eta_n\\^beta underflows .* beta=1.5"):
            eigenfunction(lead_zeros(1300), eta, beta=1.5, lam=lam)

    def test_eigenvalue_below_one_rejected(self, power3):
        with pytest.raises(ValueError):
            eigenfunction(lead_zeros(2), power3, lam=0.5)

    def test_divergent_powered_series_rejected(self, power3):
        with pytest.raises(NotSummableError):
            eigenfunction(lead_zeros(2), power3, beta=0.25)

    def test_unreachable_tolerance_rejected(self, power3):
        with pytest.raises(Exception, match="certified"):
            eigenfunction(lead_zeros(40), power3, tol=1e-13)

    def test_eigenfunction_times_eta_is_cylinder_mass(self, power3):
        for n in (1, 2, 5, 40):
            lhs = eigenfunction(lead_zeros(n), power3) * power3.eta(n)
            assert lhs == pytest.approx(equilibrium_cylinder(n, power3), rel=1e-10, abs=0)


class TestMeasures:
    def test_eigenmeasure_is_eta(self, power3):
        # the dual eigenmeasure gives the run-5 cylinder the mass eta_5
        assert power3.eta(5) == 5.0**-3

    def test_geometric_normalized_cylinder(self, geometric_half):
        # T(2) = 1, Z = 8
        assert equilibrium_normalization(geometric_half) == pytest.approx(8.0, rel=1e-14, abs=0)
        assert equilibrium_cylinder(2, geometric_half, normalized=True) == pytest.approx(
            0.125, rel=1e-14, abs=0
        )

    def test_unnormalized_unit_cylinder_is_weight(self, power3):
        assert equilibrium_cylinder(1, power3) == power3.W()

    def test_cylinders_sum_to_one(self, power3):
        # both symbols: 2 * (sum_q T(q)) / Z = 1
        assert 2.0 * zero_cylinder_mass(power3) == pytest.approx(1.0, abs=1e-12)

    def test_zero_cylinder_is_half(self, power3, stretched_half, geometric_half):
        for eta in (power3, stretched_half, geometric_half):
            assert abs(zero_cylinder_mass(eta) - 0.5) < 1e-12

    def test_infinite_first_moment_rejected(self):
        eta = make_eta("power", {"gamma": 1.5}, 100)
        assert equilibrium_cylinder(3, eta) > 0.0  # raw value fine
        with pytest.raises(NotSummableError):
            equilibrium_cylinder(3, eta, normalized=True)


class TestJacobian:
    def test_geometric_continue(self, geometric_half):
        for q in (2, 3, 10, 64):
            assert jacobian(lead_zeros(q), geometric_half) == 0.5

    def test_switch_value(self, power3):
        q = 6
        assert jacobian(inner_zeros(q), power3) == pytest.approx(
            power3.eta(q) / power3.tail(q), rel=1e-14, abs=0
        )

    def test_boundary_cases(self, power3):
        assert jacobian(ALL_ZEROS, power3) == 1.0
        assert jacobian(ALL_ONES, power3) == 1.0
        assert jacobian(ONE_THEN_ZEROS, power3) == 0.0
        assert jacobian(ZERO_THEN_ONES, power3) == 0.0

    def test_unit_leading_run_ambiguous(self, power3):
        with pytest.raises(ValueError, match="inner"):
            jacobian(lead_zeros(1), power3)

    def test_symmetry(self, power3):
        assert jacobian(lead_zeros(5), power3) == jacobian(lead_ones(5), power3)
        assert jacobian(inner_ones(5), power3) == jacobian(inner_zeros(5), power3)

    @pytest.mark.parametrize("fam,params,nmax", [
        ("geometric", {"ratio": 0.5}, 128),
        ("power", {"gamma": 3.0}, 128),
        ("stretched", {"theta": 0.5}, 128),
    ])
    def test_normalization_m_up_to_64(self, fam, params, nmax):
        eta = make_eta(fam, params, nmax)
        report = check_normalization(eta, range(1, 65))
        assert report.ok
        assert report.max_deviation < 1e-14

    @pytest.mark.parametrize("states,cause", [
        ([0, 5], "run state 0 does not exist"),
        ([-3, 2], "run state -3 does not exist"),
        ([], "no run states"),
    ])
    def test_normalization_rejects_missing_states(self, states, cause):
        # state 0 used to read the row of the largest state, and pass
        with pytest.raises(ValueError, match=cause):
            check_normalization(make_eta("power", {"gamma": 3.0}, 100), states)


class TestEquilibriumData:
    def test_table_columns(self, power3):
        table = equilibrium_table(power3, 16)
        assert list(table) == ["q", "rho", "mu_raw", "mu_norm", "r", "J_L"]
        assert math.isnan(table["J_L"][0])
        # r(q) eta_q = mu_raw, and J_L(q) = T(q)/T(q-1)
        assert np.allclose(table["r"] * table["rho"], table["mu_raw"], rtol=1e-14)
        assert table["J_L"][1] == pytest.approx(
            power3.tail(2) / power3.tail(1), rel=1e-14, abs=0
        )

    @pytest.mark.parametrize("qmax,cause", [
        (0, "qmax must be at least 1, got 0"),
        (-3, "qmax must be at least 1, got -3"),
        (101, "qmax=101 exceeds n_max=100"),
    ])
    def test_table_rejects_qmax_out_of_range(self, qmax, cause):
        with pytest.raises(ValueError, match=cause):
            equilibrium_table(make_eta("power", {"gamma": 3.0}, 100), qmax)
