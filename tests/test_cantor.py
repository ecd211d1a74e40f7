import math
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
from runshift.cantor import error_bound, required_depth

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
        assert middle_thirds.alpha == middle_thirds.ds.hausdorff_alpha

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
        assert 1000.0**middle_thirds.alpha * vals[-1] == pytest.approx(1.0, rel=0.01)

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

    def test_cl_equals_k_allowed_with_adjusted_bound(self):
        cm = CantorMeasure(DigitSystem(3, (0, 3)))
        assert cm.ds.sup == 1.5
        v12, b12 = quadrature(cm, 2, depth=12)
        v16, _ = quadrature(cm, 2, depth=16)
        assert abs(v12 - v16) <= b12

    def test_enumeration_cap(self, lebesgue3):
        with pytest.raises(ValueError, match="enumeration limit"):
            quadrature(lebesgue3, 2, depth=20)

    def test_no_prefix_tables_retained(self):
        # prefix points are rebuilt on each call; a depth-18 table alone is 3 MB
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

    def test_required_depth_honors_bound(self, middle_thirds):
        depth = required_depth(middle_thirds, 2, 1e-8)
        assert error_bound(middle_thirds, 2, depth) <= 1e-8
        assert error_bound(middle_thirds, 2, depth - 1) > 1e-8

    def test_default_depth_certifies_1e8(self, middle_thirds):
        value, bound = quadrature(middle_thirds, 2)
        assert bound <= 1e-8
        v18, _ = quadrature(middle_thirds, 2, depth=18)
        assert abs(value - v18) <= 1e-8


class TestMonteCarlo:
    def test_agrees_with_quadrature(self, middle_thirds):
        value, _ = quadrature(middle_thirds, 2, depth=16)
        est, se = monte_carlo_integral(middle_thirds, 2, 1_000_000, seed=7)
        assert abs(est - value) <= 4.0 * se

    def test_lebesgue_log2(self, lebesgue3):
        est, se = monte_carlo_integral(lebesgue3, 2, 200_000, seed=3)
        assert abs(est - math.log(2.0)) <= 4.0 * se

    def test_seed_reproducibility(self, middle_thirds):
        a = monte_carlo_integral(middle_thirds, 5, 50_000, seed=42)
        b = monte_carlo_integral(middle_thirds, 5, 50_000, seed=42)
        assert a == b

    def test_sample_floor(self, middle_thirds):
        with pytest.raises(ValueError):
            monte_carlo_integral(middle_thirds, 2, 10, seed=1)


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
