"""Decay of correlations: renewal recursions against the chain oracle.

For the 0-cylinder indicator the correlation at lag q has predicted order
D(q), the double tail of the weights: polynomial q^(2-gamma) for power
weights, of order q e^(-sqrt q) for stretched weights, and identically
zero in the degenerate Bernoulli case.  The run-length chain computes the
true correlation independently of the renewal route.
"""

import numpy as np

from runshift import (
    build_chain,
    correlation,
    iterates_from_run,
    make_eta,
    occupation_sweep,
    renewal_series,
    sample_paths,
)

U = 2.0**-53  # unit roundoff of double precision


def main():
    print("== Bernoulli sanity: geometric(1/2) has zero correlations ==")
    geo = make_eta("geometric", {"ratio": 0.5}, 128)
    ser = renewal_series(geo, 32)
    chain = build_chain(geo, 64)
    c = correlation(chain, np.arange(1, 33))
    print(f"max |K_q| = {np.max(np.abs(ser.forcing)):.1e}, "
          f"max |V_q| = {np.max(np.abs(ser.deficits)):.1e}, "
          f"max |C(q)| = {np.max(np.abs(c)):.1e}")

    print("\n== power(3): renewal route vs chain oracle ==")
    eta = make_eta("power", {"gamma": 3.0}, 20_000)
    ser = renewal_series(eta, 64)
    chain = build_chain(eta, 10_000)
    qs = np.arange(1, 65)
    gap = np.max(np.abs(ser.iterates - occupation_sweep(chain, (0, 1), qs)))
    print(f"iterates A_q vs chain, q <= 64: max gap {gap:.2e}")
    b = iterates_from_run(eta, 4, 64)
    gap_b = np.max(np.abs(b - occupation_sweep(chain, (0, 4), qs)))
    print(f"iterates from run 4 vs chain:  max gap {gap_b:.2e}")

    print("\npolynomial order: |C(q)| ~ q^(2-gamma) = 1/q")
    lags = np.array([128, 256, 512, 1024])
    big_chain = build_chain(eta, 20_000)
    c = correlation(big_chain, lags)
    d = eta.double_tail_grid()[lags]
    for q, cq, dq in zip(lags, c, d):
        print(f"  q = {q:>4}: C(q) = {cq:+.3e}   D(q) = {dq:.3e}   C/D = {cq / dq:+.3f}")

    print("\nMonte Carlo path sampler agrees within four sigma:")
    out = sample_paths(chain, length=16, n_paths=100_000, seed=3)
    exact = correlation(chain, 16)
    est, err = out["estimate"][16], out["stderr"][16]
    print(f"  C(16): paths {est:+.5f} +- {err:.5f}, chain {exact:+.5f}")
    if not abs(est - exact) <= 4.0 * err:
        raise SystemExit("check failed: the path sampler's C(16) is more than 4 stderr off")

    print("\n== stretched(1/2): order q e^(-sqrt q), constant ~4 ==")
    st = make_eta("stretched", {"theta": 0.5}, 40_000)
    for q in (2500, 5000, 10_000):
        ratio = st.double_tail(q) / (q * np.exp(-np.sqrt(q)))
        print(f"  D({q:>5}) / (q e^-sqrt q) = {ratio:.4f}")
    print("tails T(m) inside the integral bracket of the tail model:")
    for m in (100, 1000, 10_000):
        t = st.tail(m)
        lo, hi = st.tail_model.sum_tail(m)
        # widened by the far bracket and the cumulative sum's rounding
        slack = st.tail_error() + 2.0 * (st.n_max + 2) * U * t
        print(f"  T({m:>5}) = {t:.4e}   in [{lo:.4e}, {hi:.4e}]")
        if not lo - slack <= t <= hi + slack:
            raise SystemExit(f"check failed: T({m}) leaves the tail model's bracket")


if __name__ == "__main__":
    main()
