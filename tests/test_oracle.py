import numpy as np
import pytest

from runshift import (
    build_chain,
    correlation,
    equilibrium_cylinder,
    iterates_from_run,
    make_eta,
    occupation_sweep,
    renewal_series,
    sample_paths,
)


def stationary_mass(chain):
    """The stationary law as a (2, M) mass vector, one row per symbol."""
    return np.vstack([chain.stationary, chain.stationary])


def step(chain, u):
    """One application of the transition operator to a mass vector (2, M)."""
    out = np.zeros_like(u)
    out[:, 1:] = u[:, :-1] * chain.continue_probs[:-1]
    flipped = u @ chain.switch_probs
    out[0, 0] = flipped[1]
    out[1, 0] = flipped[0]
    return out


def reference_sample_paths(chain, length, n_paths, seed):
    """The per-step sampler that sample_paths replaced: the same draws, 1-based run
    lengths and symbols held as integers, new arrays at every step."""
    rng = np.random.default_rng(seed)
    sym = rng.integers(0, 2, size=n_paths)
    m = rng.choice(chain.M, size=n_paths, p=2.0 * chain.stationary) + 1
    zeros = np.empty((length + 1, n_paths), dtype=bool)
    zeros[0] = sym == 0
    for t in range(1, length + 1):
        go = rng.random(n_paths) < chain.continue_probs[m - 1]
        m = np.where(go, m + 1, 1)
        sym = np.where(go, sym, 1 - sym)
        zeros[t] = sym == 0
    hits = np.logical_and(zeros, zeros[0], out=zeros).mean(axis=1)
    return {"q": np.arange(length + 1), "estimate": hits - 0.25,
            "stderr": np.sqrt(hits * (1.0 - hits) / (n_paths - 1))}


def dense_transition(chain):
    """The full (2M, 2M) transition matrix; state (s, m) is index s * M + (m - 1)."""
    M = chain.M
    P = np.zeros((2 * M, 2 * M))
    for s in (0, 1):
        rows = s * M + np.arange(M)
        P[rows[:-1], rows[1:]] = chain.continue_probs[:-1]
        P[rows, (1 - s) * M] = chain.switch_probs
    return P


def stationarity_defect(chain):
    """max |pi P - pi|: zero up to rounding by construction."""
    pi = stationary_mass(chain)
    return float(np.abs(step(chain, pi) - pi).max())


def cylinder_probability(chain, q):
    """Stationary probability of q consecutive zeros,
    sum_{m>=q} T(m) / (2 sum_{j<=M} T(j)), from the chain's own stationary
    law (which covers every m <= M, also past the sequence's n_max)."""
    assert 1 <= q <= chain.M
    return float(chain.stationary[q - 1 :].sum())


@pytest.fixture(scope="module")
def power3_chain(power3):
    return build_chain(power3, 10_000)


class TestBuildChain:
    def test_geometric_is_bernoulli(self, geometric_half):
        chain = build_chain(geometric_half, 64)
        assert np.all(chain.continue_probs[:-1] == 0.5)
        assert np.all(chain.switch_probs[:-1] == 0.5)
        assert chain.switch_probs[-1] == 1.0

    def test_rows_stochastic(self, power3_chain):
        rows = power3_chain.continue_probs + power3_chain.switch_probs
        assert np.max(np.abs(rows - 1.0)) < 1e-14

    def test_stationary_is_tail_profile(self, power3_chain, power3):
        t = power3.tail_grid()[:10_000]
        expected = t / (2.0 * t.sum())
        assert np.allclose(power3_chain.stationary, expected, rtol=1e-14)
        assert power3_chain.stationary.sum() == pytest.approx(0.5, abs=1e-12)

    def test_stationarity_defect(self, power3_chain):
        assert stationarity_defect(power3_chain) < 1e-12

    def test_truncation_gate(self, power3):
        assert build_chain(power3, 8).eps_trunc > 1e-6


class TestCorrelation:
    def test_lag_zero_is_quarter(self, power3_chain):
        assert correlation(power3_chain, 0) == pytest.approx(0.25, abs=1e-14)

    def test_geometric_vanishes(self, geometric_half):
        chain = build_chain(geometric_half, 64)
        c = correlation(chain, np.arange(1, 65))
        assert np.max(np.abs(c)) < 1e-12

    def test_lags_as_range_list_array_or_scalar(self, power3_chain):
        want = correlation(power3_chain, np.arange(1, 9))
        assert np.array_equal(correlation(power3_chain, range(1, 9)), want)
        assert np.array_equal(correlation(power3_chain, list(range(1, 9))), want)
        assert correlation(power3_chain, 8) == want[-1]
        # a 0-d array is a scalar lag too
        got = correlation(power3_chain, np.array(8))
        assert isinstance(got, float) and got == correlation(power3_chain, 8)

    def test_bounded_by_quarter(self, power3_chain):
        c = correlation(power3_chain, [1, 2, 5, 50])
        assert np.all(np.abs(c) <= 0.25)

    def test_power3_slope(self, power3):
        chain = build_chain(power3, 10_000)
        qs = np.array([128, 181, 256, 362, 512])
        c = correlation(chain, qs)
        slope = np.polyfit(np.log(qs), np.log(np.abs(c)), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.15)

    def test_time_reversal_symmetry(self, power3):
        # C(q) agrees for the chain and its stationarity reversal
        chain = build_chain(power3, 128)
        M = chain.M
        P = dense_transition(chain)
        pi = stationary_mass(chain).reshape(-1)
        rev = (P * pi[:, None]).T / pi[:, None]
        assert np.max(np.abs(rev.sum(axis=1) - 1.0)) < 1e-12
        ind0 = np.zeros(2 * M)
        ind0[:M] = 1.0
        for q in (1, 3, 7):
            fwd = pi * ind0 @ np.linalg.matrix_power(P, q) @ ind0 - 0.25
            bwd = pi * ind0 @ np.linalg.matrix_power(rev, q) @ ind0 - 0.25
            assert fwd == pytest.approx(bwd, abs=1e-14)
            assert fwd == pytest.approx(float(correlation(chain, q)), abs=1e-14)


class TestOccupation:
    def test_single_step(self, power3_chain, power3):
        got = occupation_sweep(power3_chain, (0, 1), [1])[0]
        assert got == pytest.approx(power3.tail(2) / power3.W(), rel=1e-13, abs=0)

    def test_symmetry_between_symbols(self, power3_chain):
        a = occupation_sweep(power3_chain, (0, 3), [5])[0]
        b = occupation_sweep(power3_chain, (1, 3), [5])[0]
        assert a == pytest.approx(1.0 - b, abs=1e-14)

    def test_matches_renewal_iterates(self, power3):
        chain = build_chain(power3, 10_000)
        ser = renewal_series(power3, 64)
        got = occupation_sweep(chain, (0, 1), np.arange(1, 65))
        assert np.max(np.abs(got - ser.iterates)) < 1e-10

    def test_matches_run_iterates(self, power3):
        chain = build_chain(power3, 10_000)
        got = occupation_sweep(chain, (0, 4), np.arange(1, 9))
        want = iterates_from_run(power3, 4, 8)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_bad_start_state(self, power3_chain):
        with pytest.raises(ValueError):
            occupation_sweep(power3_chain, (2, 1), [1])
        with pytest.raises(ValueError):
            occupation_sweep(power3_chain, (0, 0), [1])


class TestAgainstStep:
    """The recurrence against repeated application of the chain itself.

    Lags run to 3M so the forced switch at M is exercised; the references
    use the test-local ``step`` alone and nothing of the shared lag kernel."""

    @pytest.mark.parametrize("family,key,param", [
        ("power", "gamma", 3.0), ("stretched", "theta", 0.5), ("geometric", "ratio", 0.8)])
    @pytest.mark.parametrize("M", [40, 300])
    def test_matches_repeated_step(self, family, key, param, M):
        chain = build_chain(make_eta(family, {key: param}, 2000), M)
        qs = np.arange(1, 3 * M + 1)
        u = stationary_mass(chain)
        u[1, :] = 0.0
        want = []
        for _ in qs:
            u = step(chain, u)
            want.append(0.5 * float(u[0].sum() - u[1].sum()))
        assert np.max(np.abs(correlation(chain, qs) - want)) <= 1e-13
        for sym, m in ((0, 1), (1, 3), (0, M), (1, M - 1)):
            u = np.zeros((2, M))
            u[sym, m - 1] = 1.0
            want = []
            for _ in qs:
                u = step(chain, u)
                want.append(float(u[0].sum()))
            got = occupation_sweep(chain, (sym, m), qs)
            assert np.max(np.abs(got - want)) <= 1e-13, (sym, m)

    def test_negative_lag_rejected(self, power3_chain):
        with pytest.raises(ValueError, match="nonnegative"):
            correlation(power3_chain, [3, -1])
        with pytest.raises(ValueError, match="nonnegative"):
            occupation_sweep(power3_chain, (0, 1), [-2])


class TestCylinderConsistency:
    def test_chain_cylinders_match_measure(self, power3):
        # P(q consecutive zeros) vs the sum of normalized run-cylinder masses
        chain = build_chain(power3, 10_000)
        z = 2.0 * power3.first_moment()
        for q in range(1, 65):
            mu_q = (
                float(np.sum(power3.tail_grid()[q - 1 : power3.n_max][::-1]))
                + power3.double_tail(power3.n_max)
            ) / z
            assert cylinder_probability(chain, q) == pytest.approx(
                mu_q, abs=4.0 * chain.eps_trunc + 1e-13
            )

    def test_unit_cylinder_is_half(self, power3_chain):
        assert cylinder_probability(power3_chain, 1) == pytest.approx(0.5, abs=1e-13)

    def test_chain_longer_than_stored_sequence(self):
        # geometric chains may run past n_max; T(m) is r^(m-1)/(1-r) there, so
        # P(q zeros) = (r^(q-1) - r^M) / (2 (1 - r^M)) over the whole chain
        r, M = 0.999, 5000
        chain = build_chain(make_eta("geometric", {"ratio": r}, 1024), M)
        for q in (1, 3, 1024, 1025, 1500, 4999, M):
            exact = (r ** (q - 1) - r**M) / (2.0 * (1.0 - r**M))
            assert cylinder_probability(chain, q) == pytest.approx(exact, rel=1e-12, abs=0)


class TestSamplePaths:
    def test_geometric_within_four_sigma(self, geometric_half):
        chain = build_chain(geometric_half, 64)
        out = sample_paths(chain, length=4, n_paths=100_000, seed=5)
        for q in (1, 2, 3, 4):
            assert abs(out["estimate"][q]) <= 4.0 * out["stderr"][q]

    def test_power3_within_four_sigma(self, power3):
        chain = build_chain(power3, 2000)
        out = sample_paths(chain, length=16, n_paths=200_000, seed=11)
        exact = correlation(chain, 16)
        assert abs(out["estimate"][16] - exact) <= 4.0 * out["stderr"][16]

    def test_seed_determinism(self, geometric_half):
        chain = build_chain(geometric_half, 32)
        a = sample_paths(chain, length=3, n_paths=10_000, seed=9)
        b = sample_paths(chain, length=3, n_paths=10_000, seed=9)
        assert np.array_equal(a["estimate"], b["estimate"])
        assert np.array_equal(a["stderr"], b["stderr"])

    @pytest.mark.parametrize("family,params,n_max,M", [
        ("power", {"gamma": 2.5}, 400, 300),
        ("stretched", {"theta": 0.3}, 400, 400),
        ("geometric", {"ratio": 0.6}, 64, 200),  # the chain runs past n_max
        ("geometric", {"ratio": 0.95}, 32, 100),
    ])
    @pytest.mark.parametrize("length,n_paths", [(1, 2), (1, 500), (40, 2), (64, 777)])
    @pytest.mark.parametrize("seed", [0, 3, 2**31 - 1])
    def test_matches_per_step_reference(self, family, params, n_max, M, length, n_paths, seed):
        chain = build_chain(make_eta(family, params, n_max), M)
        got = sample_paths(chain, length=length, n_paths=n_paths, seed=seed)
        want = reference_sample_paths(chain, length, n_paths, seed)
        assert list(got) == list(want)
        for key in want:
            assert np.array_equal(got[key], want[key]), key

    def test_runs_reach_the_forced_switch(self):
        # ratio 0.99 over M = 8: most paths continue, so many reach m = M and must switch
        chain = build_chain(make_eta("geometric", {"ratio": 0.99}, 64), 8)
        got = sample_paths(chain, length=50, n_paths=300, seed=1)
        want = reference_sample_paths(chain, 50, 300, 1)
        assert np.array_equal(got["estimate"], want["estimate"])

    @pytest.mark.parametrize("n_paths", [0, 1])
    def test_path_count_below_two_rejected(self, geometric_half, n_paths):
        # the standard error divides by n_paths - 1
        chain = build_chain(geometric_half, 32)
        with pytest.raises(ValueError, match=f"n_paths must be at least 2.*got {n_paths}"):
            sample_paths(chain, length=3, n_paths=n_paths, seed=9)


class TestStep:
    def test_mass_conserved(self, power3_chain):
        u = stationary_mass(power3_chain)
        for _ in range(5):
            u = step(power3_chain, u)
            assert u.sum() == pytest.approx(1.0, abs=1e-14)

    def test_forced_switch_at_truncation(self, power3):
        chain = build_chain(power3, 16)
        u = np.zeros((2, 16))
        u[0, 15] = 1.0
        v = step(chain, u)
        assert v[1, 0] == 1.0
