"""Property tests and high-precision references for the tail grids, the
tail models' brackets past them, and the transfer operator built on them.

Needs the optional test packages hypothesis and mpmath (the ``test``
extra); the module is skipped without them.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import transfer_ratio  # noqa: E402
from runshift import make_eta  # noqa: E402
from runshift.sequences import FAMILIES, PowerTail, StretchedTail  # noqa: E402

U = 2.0**-53  # unit roundoff of double precision


@st.composite
def analytic_eta(draw):
    """A valid analytic family at a random n_max, inside double precision."""
    name = draw(st.sampled_from(sorted(FAMILIES)))
    n_max = draw(st.integers(8, 3000))
    if name == "power":  # gamma > 2 keeps the double tails finite
        p = draw(st.floats(2.05, 6.0))
    elif name == "stretched":  # n_max^theta below the exp underflow at 745
        p = draw(st.floats(0.1, min(0.95, math.log(700.0) / math.log(n_max))))
    else:
        p = draw(st.floats(max(0.05, math.exp(-700.0 / n_max)), 0.999))
    return make_eta(name, {FAMILIES[name].key: p}, n_max)


GRID_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)


class TestTailGrid:
    @GRID_SETTINGS
    @given(analytic_eta())
    def test_tails_within_model_bracket(self, eta):
        # T(m) = sum_{n>=m} eta_n lies in the tail model's integral bracket
        # (exact for geometric weights); the grid adds the far bracket's
        # midpoint and rounds at most n_max+2 times per entry
        t = eta.tail_grid()
        for m in np.unique(np.linspace(1, eta.n_max, 17).astype(int)):
            lo, hi = eta.tail_model.sum_tail(int(m))
            slack = eta.tail_error() + 2.0 * (eta.n_max + 2) * U * t[m - 1]
            assert lo - slack <= t[m - 1] <= hi + slack

    @GRID_SETTINGS
    @given(analytic_eta(), st.sampled_from([1.0, 1.5, 2.0]))
    def test_powered_sums_across_cutoff(self, eta, beta):
        # the grid's last entry and the powered model's bracket past it differ
        # by eta_{n_max+1}^beta, each within its own bracket's half-width; the
        # powered model's rounded ratio or rate is raised to powers up to n_max+1
        head, past = eta.tail(eta.n_max + 1, beta=beta), eta.tail(eta.n_max + 2, beta=beta)
        lo, hi = eta.tail_model.powered(beta).sum_tail(eta.n_max + 2)
        slack = eta.tail_error(beta) + (hi - lo) + 4.0 * (eta.n_max + 2) * math.ulp(head)
        assert abs(head - past - eta.eta(eta.n_max + 1) ** beta) <= slack


class TestFarBrackets:
    # the tail models' (lo, hi) brackets past the grid against 40-digit sums

    @pytest.mark.parametrize("gamma", [2.5, 3.0, 4.0])
    @pytest.mark.parametrize("m", [10, 1001, 100_000])
    def test_power_against_hurwitz_zeta(self, gamma, m):
        model = PowerTail(gamma)
        with mpmath.workdps(40):
            t = mpmath.zeta(gamma, m)
            w = mpmath.zeta(gamma - 1, m) - m * t  # sum_{n>=m} (n-m) n^-gamma
            (s_lo, s_hi), (w_lo, w_hi) = model.sum_tail(m), model.weighted_tail(m)
            assert s_lo <= t <= s_hi
            assert w_lo <= w <= w_hi

    @pytest.mark.parametrize("theta", [0.3, 0.5])
    @pytest.mark.parametrize("m", [100, 1000])
    def test_stretched_against_nsum(self, theta, m):
        # the default nsum extrapolation is off by 1e-6 relative at theta 0.3;
        # its Euler-Maclaurin method agrees with a direct 1e5-term sum to 1e-26
        model = StretchedTail(theta)
        with mpmath.workdps(40):
            def f(n):
                return mpmath.exp(-mpmath.mpf(n) ** theta)

            t = mpmath.nsum(f, [m, mpmath.inf], method="euler-maclaurin")
            w = mpmath.nsum(lambda n: (n - m) * f(n), [m, mpmath.inf], method="euler-maclaurin")
            (s_lo, s_hi), (w_lo, w_hi) = model.sum_tail(m), model.weighted_tail(m)
            assert s_lo <= t <= s_hi
            assert w_lo <= w <= w_hi


class TestDoubleTailGrid:
    @GRID_SETTINGS
    @given(analytic_eta())
    def test_double_tail_difference_is_tail(self, eta):
        # D(q) - D(q+1) = T(q+1): one rounded addition, one subtraction
        d, t = eta.double_tail_grid(), eta.tail_grid()
        gap = np.abs(d[:-1] - d[1:] - t[: eta.n_max])
        assert np.all(gap <= 2.0 * U * d[:-1])

    @GRID_SETTINGS
    @given(analytic_eta(), st.floats(1e-3, 1e3))
    def test_double_tail_ratios_scale_free(self, eta, c):
        # each D(q) passes through at most 2(n_max+1) roundings per side
        d, dc = eta.double_tail_grid(), eta.scaled(c).double_tail_grid()
        gap = np.abs(dc / dc[0] - d / d[0])
        assert np.all(gap <= 8.0 * (eta.n_max + 2) * U * d / d[0])

    @GRID_SETTINGS
    @given(analytic_eta())
    def test_grid_within_bracket_of_direct_sum(self, eta):
        cut = eta.n_max + 1
        s_lo, s_hi = eta.tail_model.sum_tail(cut)
        w_lo, w_hi = eta.tail_model.weighted_tail(cut)
        d = eta.double_tail_grid()
        for q in np.unique(np.linspace(0, eta.n_max, 17).astype(int)):
            m = np.arange(q + 1.0, cut)
            direct = float(np.sum(((m - q) * eta.values[q:])[::-1]))
            slack = 2.0 * cut * U * d[q]
            assert direct + (cut - q) * s_lo + w_lo - slack <= d[q]
            assert d[q] <= direct + (cut - q) * s_hi + w_hi + slack

    def test_stretched_against_mpmath(self):
        # 50-digit references out to D ~ 1e-20: the exact sum of the very
        # inputs the grid adds (stored values, far-bracket midpoints), and
        # the true series sum_{m>q} (m-q) e^-sqrt(m)
        n_max, qs = 3000, [0, 1, 10, 100, 1000, 2000, 2500, 2900, 2999, 3000]
        eta = make_eta("stretched", {"theta": 0.5}, n_max)
        cut = n_max + 1
        (s_lo, s_hi), (w_lo, w_hi) = eta.tail_model.sum_tail(cut), eta.tail_model.weighted_tail(cut)
        d = eta.double_tail_grid()
        with mpmath.workdps(50):
            same = [mpmath.mpf(0)] * (cut + 1)  # same[j] = T(j) from the same inputs
            same[cut] = mpmath.mpf(0.5 * (s_lo + s_hi))
            for j in range(n_max, 0, -1):
                same[j] = same[j + 1] + mpmath.mpf(float(eta.values[j - 1]))
            far = 16_000  # e^-sqrt(16000) ~ 1e-55: the rest is far below 50 digits
            true = [mpmath.mpf(0)] * (far + 2)
            for j in range(far, 0, -1):
                true[j] = true[j + 1] + mpmath.exp(-mpmath.sqrt(j))
            d_same = mpmath.fsum(same[cut:]) + mpmath.mpf(0.5 * (w_lo + w_hi))
            d_true = mpmath.fsum(true[cut:])
            for q in range(n_max, -1, -1):
                if q in qs:
                    rel = abs(d[q] - d_same) / d_same
                    assert rel <= 2 * cut * U, (q, float(rel))
                    bracket = (cut - q) * 0.5 * (s_hi - s_lo) + 0.5 * (w_hi - w_lo)
                    assert abs(d[q] - d_true) <= bracket + 2 * cut * U * d_true
                d_same += same[q]
                d_true += true[q]
        assert d[3000] < 1e-19


class TestTransferOperator:
    @GRID_SETTINGS
    @given(analytic_eta())
    def test_eigenfunction_is_fixed(self, eta):
        # L r = r for r(q) = T(q)/eta_q on every leading run, whatever eta_1 is;
        # each of the two terms rounds a few times, exp(-log W) about |log W| times
        slack = (16.0 + 2.0 * abs(math.log(eta.W()))) * U
        for q in np.unique(np.linspace(1, eta.n_max - 1, 9).astype(int)):
            assert abs(transfer_ratio(eta, int(q)) - 1.0) <= slack
