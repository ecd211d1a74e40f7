"""The blocked kernels of runshift.decay against plain references.

The loop below solves x_i = f_i - sum_{k=1}^{min(i, len p)} p[k-1] x_{i-k}
one lag per iteration, by one dot product each.  The kernel _lagged_solve
groups the same terms as a far history and a product by the near block's
inverse, so both carry the same a-priori rounding bound.  The first-n
convolution _causal_convolve is held against numpy's full convolution
within the rounding bound of an n-term sum.

Needs the optional test packages hypothesis and mpmath (the ``test``
extra); the module is skipped without them.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_renewal_reference import U, accumulated_error  # noqa: E402

import runshift.decay  # noqa: E402
import runshift.oracle  # noqa: E402
from runshift import build_chain, correlation, make_eta, renewal_series  # noqa: E402
from runshift.decay import _BLOCK, _causal_convolve, _lagged_solve  # noqa: E402


def lagged_loop(p, f):
    """The per-lag reference: one dot product per lag."""
    x = np.empty(f.size)
    for i in range(f.size):
        n = min(i, p.size)
        x[i] = f[i] - float(np.dot(p[:n], x[i - n : i][::-1]))
    return x


@st.composite
def lagged_problem(draw):
    """(p, f) with 0 <= p <= 1 and sum p <= 1, len p in 0..400 and len f in 0..300:
    len p below the block, below len f, and len f off the block grid all occur."""
    n = draw(st.integers(0, 300))
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), max_size=400)))
    total = draw(st.floats(0.0, 1.0))
    p = raw * (total / raw.sum()) if raw.sum() > 0 else raw
    f = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    return p, f


@settings(max_examples=150, derandomize=True, deadline=None)
@given(lagged_problem())
def test_blocked_matches_loop_within_accumulated_rounding(problem):
    p, f = problem
    got, want = _lagged_solve(p, f), lagged_loop(p, f)
    assert got.shape == want.shape
    if f.size == 0:
        return
    # each x_i is at most min(i, len p) + 2 rounded operations from its terms
    bound = accumulated_error(p if p.size else np.zeros(1), want, f, (f.size + 2) * U)
    assert np.all(np.abs(got - want) <= 2.0 * bound)


@pytest.mark.parametrize("m", [1, 5, _BLOCK - 1, _BLOCK, _BLOCK + 1, 100, 400])
def test_unit_coefficients_match_loop_exactly(m):
    # p = 1 ties every column's entries with its unit diagonal; partial pivoting
    # keeps the diagonal, so small-integer arithmetic stays exact bit for bit
    f = np.random.default_rng(m).integers(-5, 6, 300).astype(float)
    assert np.array_equal(_lagged_solve(np.ones(m), f), lagged_loop(np.ones(m), f))


@pytest.mark.parametrize("p", [np.full(64, 1.0 / 64),  # sum p = 1 exactly, both
                               2.0 ** -np.minimum(np.arange(1, 54), 52)])
def test_stochastic_coefficients_match_loop_within_accumulated_rounding(p):
    # sum p = 1 puts the inverse block's renewal terms at their bound |r_k| <= 1
    assert p.sum() == 1.0
    f = np.random.default_rng(p.size).standard_normal(50 * _BLOCK + 5)
    got, want = _lagged_solve(p, f), lagged_loop(p, f)
    bound = accumulated_error(p, want, f, (f.size + 2) * U)
    assert np.all(np.abs(got - want) <= 2.0 * bound)


@st.composite
def convolution_problem(draw):
    """(a, v, n) with signed entries, len a and len v in 0..200 apart from n in 0..300,
    so that both are cut and both are padded, on and off the block grid."""
    n = draw(st.integers(0, 300))
    entries = st.floats(-1e3, 1e3, allow_subnormal=False)
    a = np.array(draw(st.lists(entries, max_size=200)))
    v = np.array(draw(st.lists(entries, max_size=200)))
    return a, v, n


@settings(max_examples=150, derandomize=True, deadline=None)
@given(convolution_problem())
@example((np.array([3.0]), np.array([-2.0, 5.0]), 0))
@example((np.array([3.0, 1.0]), np.array([-2.0]), 1))
@example((np.arange(1.0, 70.0), -np.arange(1.0, 90.0), 3 * _BLOCK))
def test_causal_convolve_within_summation_rounding(problem):
    a, v, n = problem
    got = _causal_convolve(a, v, n)
    assert got.shape == (n,)
    if a.size == 0 or v.size == 0:
        assert np.array_equal(got, np.zeros(n))
        return
    want = np.concatenate((np.convolve(a, v), np.zeros(n)))[:n]
    # got and want each sum at most n products in their own order
    terms = np.concatenate((np.convolve(np.abs(a), np.abs(v)), np.zeros(n)))[:n]
    assert np.all(np.abs(got - want) <= 2.0 * (n + 2) * U * terms)


def test_readme_decay_example_matches_loop(monkeypatch):
    # runshift decay --family stretched:0.5 --qmax 10000 --oracle-trunc 100000:
    # |C| falls to about 3e-41 and |V| to about 1e-42, far past any absolute floor
    qmax, M = 10000, 100000
    eta = make_eta("stretched", {"theta": 0.5}, M + 1)
    chain = build_chain(eta, M)
    lags = np.arange(1, qmax + 1)
    c, v = correlation(chain, lags), renewal_series(eta, qmax)["V"]
    monkeypatch.setattr(runshift.oracle, "_lagged_solve", lagged_loop)
    monkeypatch.setattr(runshift.decay, "_lagged_solve", lagged_loop)
    c_ref, v_ref = correlation(chain, lags), renewal_series(eta, qmax)["V"]
    for got, want in ((c, c_ref), (v, v_ref)):
        rel = np.abs(got - want) / np.abs(want)
        assert rel.max() <= 1e-12, (int(np.argmax(rel)) + 1, rel.max())
