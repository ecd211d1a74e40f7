import math

import numpy as np
import pytest

from runshift import eigenfunction, inner_zeros, lead_zeros, make_eta, potential_value

ZETA3 = 1.2020569031595942
ZETA2 = 1.6449340668482264


@pytest.fixture(scope="session")
def power3():
    return make_eta("power", {"gamma": 3.0}, 12000)


@pytest.fixture(scope="session")
def stretched_half():
    return make_eta("stretched", {"theta": 0.5}, 40000)


@pytest.fixture(scope="session")
def geometric_half():
    return make_eta("geometric", {"ratio": 0.5}, 512)


def brute_double_tail(eta_at, q, terms=100000):
    """Independent double-sum oracle: sum_{m>q} (m-q) eta_m, truncated."""
    m = np.arange(q + 1, q + terms + 1, dtype=float)
    return float(np.sum(((m - q) * eta_at(m))[::-1]))


def transfer_ratio(eta, q, beta=1.0):
    """(L h)/h on the leading run 0^q 1..., for h the lam = 1 eigenfunction.

    The two preimages are 0^(q+1) 1... and 1 0^q 1..., whose leading run has
    length one; L sums exp(potential) * h over them.
    """
    def h(point):
        return eigenfunction(point, eta, beta=beta)

    preimages = (lead_zeros(q + 1), inner_zeros(q))
    lh = sum(math.exp(potential_value(p, eta, beta)) * h(p) for p in preimages)
    return lh / h(lead_zeros(q))
