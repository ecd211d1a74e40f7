import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import runshift
import runshift.cantor
from runshift import (
    CantorMeasure,
    DigitSystem,
    monte_carlo_integral,
    quadrature,
    quadrature_values,
    self_similarity_check,
)
from runshift.cantor import _MC_AHEAD, _MC_CHUNK, _MC_DRAW, U, _mc_blocks, error_bound

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
        assert 1000.0**middle_thirds.alpha * vals[-1] == pytest.approx(1.0, rel=0.01, abs=0)

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
    sup = cm.ds.sup
    x = float(n) - cm.prefix_points(depth) - sup * cm.ds.k ** (-float(depth)) / 2.0
    value = math.fsum(np.exp(-cm.alpha * np.log(x)).tolist()) / x.size
    log_x = max(abs(math.log(n - sup)), math.log(n))
    rel = cm.alpha * ((depth + 5) * sup + 2 * n) / (n - sup) + 9 * cm.alpha * log_x + 10
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
        for v, b, ref in zip(values, bounds, _mp_integral(cm.ds, cm.alpha, ns)):
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


class TestMonteCarlo:
    def test_agrees_with_quadrature(self, middle_thirds):
        value, _ = quadrature(middle_thirds, 2, depth=16)
        est, se = monte_carlo_integral(middle_thirds, 2, 1_000_000, seed=7)
        assert abs(est - value) <= 4.0 * se

    def test_lebesgue_log2(self, lebesgue3):
        est, se = monte_carlo_integral(lebesgue3, 2, 200_000, seed=3)
        assert abs(est - math.log(2.0)) <= 4.0 * se

    def test_streamed_moments_match_all_draws(self, middle_thirds):
        # three chunks merged by Chan's formula against one pass over the
        # same draws, kept whole
        samples, seed, chunk = 300_000, 11, 1 << 17
        est, se = monte_carlo_integral(middle_thirds, 3, samples, seed)
        rng = np.random.default_rng(seed)
        # l = 2: one integer indexes the 2^16 depth-16 base points, and two
        # blocks give 32 >= ceil(40 / log2 3) = 26 digits
        table = middle_thirds.prefix_points(16)
        weights = 3.0 ** -np.array([0.0, 16.0])
        t = np.concatenate([
            table[rng.integers(0, 1 << 16, size=(min(chunk, samples - s), 2))] @ weights
            for s in range(0, samples, chunk)])
        f = (3.0 - t) ** -middle_thirds.alpha
        assert est == pytest.approx(f.mean(), rel=1e-14, abs=0)
        assert se == pytest.approx(f.std(ddof=1) / math.sqrt(samples), rel=1e-12, abs=0)

    @pytest.mark.parametrize("k,digits", [(3, (0, 2)), (3, (1, 3)), (5, (0, 2, 4)), (4, (0, 1, 3))])
    def test_block_points_are_digit_strings(self, k, digits):
        cm = CantorMeasure(DigitSystem(k, digits))
        table, weights = _mc_blocks(cm)
        l, blocks = len(digits), weights.size
        g = round(math.log(table.size, l))
        assert l**g == table.size <= 1 << 16 < l ** (g + 1)
        assert g * blocks >= math.ceil(40.0 / math.log2(k))
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

    @pytest.mark.parametrize("k,digits,n,expected", [
        (3, (1, 3), 2, None),  # sup K = 1.5, the kernel nearest its singularity
        (5, (0, 2, 4), 3, None),
        (4, (0, 1, 3), 5, None),
        (2, (0, 1), 2, math.log(2.0)),  # K = [0, 1] and alpha = 1
    ])
    def test_agrees_with_exact_series(self, k, digits, n, expected):
        cm = CantorMeasure(DigitSystem(k, digits))
        if expected is None:
            expected = float(quadrature_values(cm, [n])[0][0])
        est, se = monte_carlo_integral(cm, n, 1_000_000, seed=2026)
        assert abs(est - expected) <= 4.0 * se

    def test_seed_reproducibility(self, middle_thirds):
        a = monte_carlo_integral(middle_thirds, 5, 50_000, seed=42)
        b = monte_carlo_integral(middle_thirds, 5, 50_000, seed=42)
        assert a == b

    def test_sample_floor(self, middle_thirds):
        with pytest.raises(ValueError, match="need at least 1000 samples, got 10$"):
            monte_carlo_integral(middle_thirds, 2, 10, seed=1)


def sequential_monte_carlo(cm, n, samples, seed):
    """The chunk loop drawn and reduced on the calling thread alone, one chunk
    after another: the reference the draw-ahead pipeline must match bit for bit."""
    table, weights = _mc_blocks(cm)
    rng = np.random.default_rng(seed)
    count, mean, m2 = 0, 0.0, 0.0
    while count < samples:
        chunk = min(samples - count, runshift.cantor._MC_CHUNK)
        idx = rng.integers(0, table.size, size=(chunk, weights.size))
        f = np.exp(-cm.alpha * np.log(n - table[idx] @ weights))
        f_mean = float(np.mean(f))
        delta = f_mean - mean
        total = count + chunk
        mean += delta * chunk / total
        m2 += float(np.sum((f - f_mean) ** 2)) + delta * delta * count * chunk / total
        count = total
    return mean, math.sqrt(m2 / (samples - 1)) / math.sqrt(samples)


class WatchedGenerator:
    """Wraps a Generator: records the row count and thread of each ``integers``
    call, fails if two calls overlap, and raises on call number ``fail_at``."""

    def __init__(self, rng, fail_at=None):
        self._rng, self._fail_at = rng, fail_at
        self.calls, self._busy = [], threading.Lock()

    def integers(self, *args, size, **kwargs):
        if not self._busy.acquire(blocking=False):
            raise AssertionError("two draws overlap")
        try:
            self.calls.append((size[0], threading.current_thread()))
            if len(self.calls) == self._fail_at:
                raise RuntimeError(f"draw {self._fail_at} failed")
            return self._rng.integers(*args, size=size, **kwargs)
        finally:
            self._busy.release()


def watch_draws(monkeypatch, fail_at=None):
    """Make ``np.random.default_rng`` return WatchedGenerators; returns the list of them."""
    made, default_rng = [], np.random.default_rng

    def watched(seed):
        made.append(WatchedGenerator(default_rng(seed), fail_at))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", watched)
    return made


class TestDrawAhead:
    """The next chunk is drawn on a worker thread while the current one is reduced."""

    @pytest.mark.parametrize("samples", [1000, _MC_CHUNK, _MC_CHUNK + 1, 3 * _MC_CHUNK + 5])
    @pytest.mark.parametrize("k,digits", [(3, (0, 2)), (3, (1, 3)), (5, (0, 2, 4)), (2, (0, 1))])
    def test_bit_identical_to_sequential_loop(self, k, digits, samples):
        cm = CantorMeasure(DigitSystem(k, digits))
        assert monte_carlo_integral(cm, 2, samples, 19) == sequential_monte_carlo(cm, 2, samples, 19)

    @pytest.mark.parametrize("high", [2, 5**6, 3**10, 1 << 16])
    def test_split_draw_continues_the_stream(self, high):
        # the worker draws a chunk in parts; numpy's bounded draws keep no
        # state between calls outside the bit generator, so parts concatenate
        # to the one draw
        whole = np.random.default_rng(5).integers(0, high, size=(3 * 1001, 2))
        rng = np.random.default_rng(5)
        parts = [rng.integers(0, high, size=(size, 2)) for size in (1000, 1, 2002)]
        assert np.array_equal(np.concatenate(parts), whole)

    def test_draws_run_in_order_one_at_a_time(self, monkeypatch, middle_thirds):
        made = watch_draws(monkeypatch)
        got = monte_carlo_integral(middle_thirds, 2, 3 * _MC_CHUNK + 5, seed=19)
        sizes, threads = zip(*made[0].calls)
        assert sizes == (_MC_CHUNK,) + (_MC_DRAW,) * (2 * _MC_CHUNK // _MC_DRAW) + (5,)
        # the first chunk on the calling thread, the rest on one worker
        assert threads[0] is threading.current_thread()
        assert len(set(threads[1:])) == 1 and threads[1] is not threads[0]
        assert got == sequential_monte_carlo(middle_thirds, 2, 3 * _MC_CHUNK + 5, seed=19)

    def test_worker_runs_at_most_the_bound_ahead(self, monkeypatch, middle_thirds):
        # a slow reduction gives the worker time to run ahead as far as it may
        made = watch_draws(monkeypatch)
        take, exp, gathered, lead = np.take, np.exp, [], []

        def counted_take(*args, **kwargs):
            gathered.append(None)
            return take(*args, **kwargs)

        def slow_exp(*args, **kwargs):
            time.sleep(0.02)
            lead.append(len(made[0].calls) - len(gathered))  # draws begun, not gathered
            return exp(*args, **kwargs)

        monkeypatch.setattr(np, "take", counted_take)
        monkeypatch.setattr(np, "exp", slow_exp)
        monte_carlo_integral(middle_thirds, 2, 4 * _MC_CHUNK, seed=1)
        assert lead == [_MC_AHEAD] * 3 + [0]

    def test_one_chunk_starts_no_thread(self, monkeypatch, middle_thirds):
        started = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(runshift.cantor.threading, "Thread", Recorded)
        monte_carlo_integral(middle_thirds, 2, _MC_CHUNK, seed=1)
        assert started == []
        monte_carlo_integral(middle_thirds, 2, 3 * _MC_CHUNK, seed=1)
        assert len(started) == 1 and not started[0].is_alive()

    @pytest.mark.parametrize("fail_at", [1, 2, 3])  # the caller's draw, the worker's first, a later one
    def test_draw_error_reaches_caller(self, monkeypatch, middle_thirds, fail_at):
        before = set(threading.enumerate())
        made = watch_draws(monkeypatch, fail_at)
        with pytest.raises(RuntimeError, match=f"draw {fail_at} failed"):
            monte_carlo_integral(middle_thirds, 2, 4 * _MC_CHUNK, seed=1)
        assert len(made[0].calls) == fail_at  # nothing drawn after the failure
        assert set(threading.enumerate()) == before

    def test_caller_error_ends_worker(self, monkeypatch, middle_thirds):
        # an error while a chunk is reduced, with the next draw in flight
        before = set(threading.enumerate())
        exp = np.exp
        calls = []

        def failing_exp(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise FloatingPointError("reduction failed")
            return exp(*args, **kwargs)

        monkeypatch.setattr(np, "exp", failing_exp)
        with pytest.raises(FloatingPointError, match="reduction failed"):
            monte_carlo_integral(middle_thirds, 2, 4 * _MC_CHUNK, seed=1)
        assert set(threading.enumerate()) == before

    def test_concurrent_calls_under_fast_switching(self, monkeypatch):
        # small chunks make many hand-offs; four callers on two cores, switching
        # every microsecond, must each get the sequential loop's result
        monkeypatch.setattr(runshift.cantor, "_MC_CHUNK", 1000)
        monkeypatch.setattr(runshift.cantor, "_MC_DRAW", 256)
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

    def test_import_leaves_concurrent_futures_unloaded(self):
        # the worker is a plain threading.Thread; concurrent.futures costs an import
        src = os.path.dirname(os.path.dirname(runshift.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, runshift, runshift.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


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
