"""A high-precision reference for the chain oracle's tiny correlations.

Needs the optional test package mpmath (the ``test`` extra); the module is
skipped without it.
"""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from runshift import build_chain, correlation, make_eta  # noqa: E402


def difference_reference(chain, lags):
    """C(q) = sum_m d_q[m] / 2 in 40 digits, stepping the symbol difference
    d = u_0 - u_1 from the stationary law on symbol 0 with the chain's own
    float rows: d[m+1] <- c_m d[m], d[1] <- -sum_m s_m d[m]."""
    with mpmath.workdps(40):
        c = [mpmath.mpf(float(x)) for x in chain.continue_probs[:-1]]
        s = [mpmath.mpf(float(x)) for x in chain.switch_probs]
        d = [mpmath.mpf(float(x)) for x in chain.stationary]
        out = []
        for _ in range(lags):
            d = [-mpmath.fdot(s, d)] + [cm * dm for cm, dm in zip(c, d)]
            out.append(mpmath.fsum(d) / 2)
        return out


@pytest.mark.parametrize("family,key,param", [("stretched", "theta", 0.7),
                                              ("power", "gamma", 3.0)])
def test_relative_accuracy_of_tiny_correlations(family, key, param):
    # no absolute floor: stretched:0.7 reaches |C| ~ 3e-52 by lag 600
    chain = build_chain(make_eta(family, {key: param}, 1000), 200)
    lags = 600
    want = difference_reference(chain, lags)
    got = correlation(chain, np.arange(1, lags + 1))
    rel = [float(abs(mpmath.mpf(float(g)) - w) / abs(w)) for g, w in zip(got, want)]
    assert max(rel) <= 1e-12, (int(np.argmax(rel)) + 1, max(rel))
