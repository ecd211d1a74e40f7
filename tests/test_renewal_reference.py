"""A high-precision reference for the renewal recursions.

renewal_series solves only the deficit recursion for V and reports
A = 1/2 - V.  Here both recursions are solved independently in 40 digits
from the same float inputs eta_m / W and T(q)/W, and the float results
are held to the a-priori bound of their accumulated local rounding errors.

Needs the optional test package mpmath (the ``test`` extra); the module is
skipped without it.
"""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from runshift import make_eta, renewal_series  # noqa: E402

U = 2.0**-53  # unit roundoff of double precision


def reference(p, tw):
    """(A_q, V_q) for q = 1..len(p) in 40 digits, with p[m-1] = eta_m / W and
    tw[q-1] = T(q)/W as floats:

        A_q = sum_{m<q} p_m (1 - A_{q-m}) + T(q+1)/W,
        V_q = -sum_{m<q} p_m V_{q-m} + T(q)/(2W) - T(q+1)/W.
    """
    with mpmath.workdps(40):
        p = [mpmath.mpf(float(x)) for x in p]
        tw = [mpmath.mpf(float(x)) for x in tw]
        a, v = [], []
        for i in range(len(p)):  # lag q = i + 1; a[::-1] lists A_{q-m} for m = 1..i
            a.append(mpmath.fdot(p[:i], [1 - x for x in a[::-1]]) + tw[i + 1])
            v.append(tw[i] / 2 - tw[i + 1] - mpmath.fdot(p[:i], v[::-1]))
        return np.array([float(x) for x in a]), np.array([float(x) for x in v])


def accumulated_error(p, x, forcing, gamma):
    """cumsum of the local errors 2 gamma (|f_q| + sum_{m<q} p_m |x_{q-m}|) of
    x_q = f_q - sum_{m<q} p_m x_{q-m}: with sum p_m <= 1 the propagated error
    never exceeds the sum of the local ones."""
    conv = np.convolve(p, np.abs(x))[: x.size - 1]  # conv[q-2] = sum_{m<q} p_m |x_{q-m}|
    scale = np.abs(forcing).copy()
    scale[1:] += conv
    return np.cumsum(2.0 * gamma * scale)


@pytest.mark.parametrize("family,key,param", [("power", "gamma", 3.0),
                                              ("stretched", "theta", 0.5)])
def test_renewal_series_within_accumulated_rounding(family, key, param):
    qmax = 200
    eta = make_eta(family, {key: param}, 400)
    ser = renewal_series(eta, qmax)
    p = eta.values[:qmax] / eta.W()
    tw = eta.tail_grid()[: qmax + 1] / eta.W()  # rounded as renewal_series rounds them
    assert np.array_equal(0.5 * tw[:-1] - tw[1:], ser["K"])
    a_ref, v_ref = reference(p, tw)
    gamma = qmax * U
    jumped = np.concatenate(([0.0], np.cumsum(p[:-1])))
    a_bound = accumulated_error(p, a_ref, jumped + tw[1:], gamma)
    v_bound = accumulated_error(p, v_ref, 0.5 * tw[:-1] - tw[1:], gamma)
    assert np.all(np.abs(ser["V"] - v_ref) <= v_bound)
    assert np.all(np.abs(ser["A"] - a_ref) <= a_bound)
    assert np.array_equal(ser["A"], 0.5 - ser["V"])
