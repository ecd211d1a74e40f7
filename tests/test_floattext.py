"""The vectorized float text is ``float.__repr__`` (and ``json.dumps``), byte for byte."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from runshift._floattext import WIDTH, _tables, float_text


def assert_repr(x, as_json=False):
    """Every value of x formats as repr (json.dumps with as_json) would write it."""
    x = np.asarray(x, dtype=float)
    text = float_text(x, json=as_json)
    assert text.shape == (*x.shape, WIDTH) and text.dtype == np.uint8
    lines = np.concatenate([text.reshape(-1, WIDTH), np.full((x.size, 1), 10, np.uint8)], axis=1)
    got = lines.tobytes().translate(None, b"\0").decode().split("\n")[:-1]
    want = list(map(json.dumps if as_json else repr, x.ravel().tolist()))
    if got != want:
        i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        bits = x.ravel()[i : i + 1].view(np.uint64)[0]
        pytest.fail(f"bits {bits:#x}: got {got[i]!r}, want {want[i]!r}")


def neighbours(x):
    """x with the doubles just below and just above each value, and all negated."""
    bits = np.asarray(x, dtype=float).view(np.uint64)
    near = np.concatenate([bits - np.uint64(1), bits, bits + np.uint64(1)]).view(np.float64)
    return np.concatenate([near, -near])


def test_random_bit_patterns():
    # every exponent, sign and mantissa pattern, nan payloads and subnormals among them;
    # repr itself takes most of the time here, about 3 us a value at extreme exponents
    bits = np.random.default_rng(20200513).integers(0, 2**64, 2**17, dtype=np.uint64)
    assert_repr(bits.view(np.float64))


def test_powers_of_two_and_ten():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    assert_repr(neighbours(np.concatenate([twos, tens])))


def test_small_subnormals():
    assert_repr(np.arange(5000, dtype=np.uint64).view(np.float64))  # 0.0, 5e-324, 1e-323, ...


def test_notation_switch_points():
    # repr writes 0.0001 but 1e-05, 1000000000000000.0 but 1e+16
    assert_repr(neighbours([1e-5, 1e-4, 1e15, 1e16, 9.999999999999999e15, 0.1, 0.5, 123.0]))


@pytest.mark.parametrize("as_json", [False, True], ids=["repr", "json"])
def test_zeros_and_nonfinite(as_json):
    # json.dumps spells NaN, Infinity and -Infinity
    x = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, -2.5, 5e-324])
    assert_repr(x, as_json)
    assert_repr(np.resize(x, (3, 7)), as_json)


def test_empty():
    assert float_text(np.array([])).shape == (0, WIDTH)


# -- the middle word of Schubfach's product -----------------------------------------
# The kernel forms each product g (c << sh) as three 64-bit words w2 w1 w0 and reads its
# sticky bit (w1 > 1), the carry of vbr and the borrow of vbl through the middle word w1.
# Random bits reach neither w1 = 1 nor all ones, so the doubles that do are searched for
# exactly, binade by binade, with Python ints.
_M, _W = 2**128, 2**64


def _first_in(a, m, lo, hi):
    """The least x >= 0 with lo <= a x mod m <= hi, for 0 <= lo <= hi < m, or None.

    Unless a multiple of a lies in [lo, hi], a x - m y lands there exactly when
    m y mod a lies in [-hi mod a, -lo mod a], so the search descends on (m mod a, a)
    as Euclid's algorithm does; the least such y gives the least x."""
    a %= m
    if lo == 0:
        return 0
    if a == 0:
        return None
    x = -(-lo // a)
    if a * x <= hi:
        return x
    y = _first_in(m % a, a, -hi % a, -lo % a)
    return None if y is None else -(-(lo + m * y) // a)


def _words(bits):
    """The words (w2, w1, w0) of the product g (c << sh) for a positive finite double."""
    rows = _tables()[0]
    bq, t = bits >> 52, bits & (2**52 - 1)
    col = bq + 2048 * (t == 0 and bq > 1)
    g = int(rows[3][col]) << 64 | int(rows[4][col])
    p = g * ((t | (bq > 0) << 52) << int(rows[2][col]))
    return p >> 128, p >> 64 & (_W - 1), p & (_W - 1)


def _doubles_with(window):
    """Bits of every positive finite double whose product g (c << sh), mod 2^128, lies
    in ``window(rows, column)``: a (lo, hi) pair of the kernel's table column, or None."""
    rows = [[int(v) for v in row] for row in _tables()[0]]
    found = []
    for col in range(4096):
        bq, closer = col % 2048, col >= 2048
        span = window(rows, col)
        if bq == 2047 or span is None or closer and bq < 2:
            continue
        a = ((rows[3][col] << 64 | rows[4][col]) << rows[2][col]) % _M
        # the significands of the column: a closer column serves t = 0 alone
        c, last = ((2**52, 2**52) if closer else (1, 2**52 - 1) if bq == 0 else
                   (2**52 + (bq > 1), 2**53 - 1))
        while c <= last:
            lo, hi = ((v - a * c) % _M for v in span)  # a (c + x) = a x + a c
            pieces = [(lo, hi)] if lo <= hi else [(lo, _M - 1), (0, hi)]
            x = [v for v in (_first_in(a, _M, *piece) for piece in pieces) if v is not None]
            if not x or c + min(x) > last:
                break
            found.append(bq << 52 | (c + min(x)) & (2**52 - 1))
            c += min(x) + 1
    return found


def test_window_search_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(2000):
        m = int(rng.integers(1, 300))
        a, lo = int(rng.integers(0, 3 * m)), int(rng.integers(0, m))
        hi = int(rng.integers(lo, m))
        want = next((x for x in range(m + 1) if lo <= a * x % m <= hi), None)
        assert _first_in(a, m, lo, hi) == want, (a, m, lo, hi)


def test_middle_product_words():
    # Over every finite double: w1 is never all ones, so no carry runs through it into
    # vbr's top word, and w1 equals d1 only without a borrow from w0, so none runs
    # through it into vbl's.  w1 is 1 for one double alone, whose top word is odd, so
    # the sticky bit is set whether it reads w1 > 1 or w1 > 0.  Each of these three
    # terms can therefore change without changing any text.
    def borrowing(rows, col):  # w1 = d1 and w0 < d0
        d1, d0 = rows[9][col], rows[10][col]
        return (d1 * _W, d1 * _W + d0 - 1) if d0 else None

    assert _doubles_with(lambda rows, col: (_M - _W, _M - 1)) == []
    assert _doubles_with(borrowing) == []
    one = _doubles_with(lambda rows, col: (_W, 2 * _W - 1))
    assert one == [0x4D63DE005BD620DF] and _words(one[0])[0] & 1
    assert_repr(neighbours(np.array(one, np.uint64).view(np.float64)))


def test_exact_middle_words():
    # products whose middle word is 0: exact ones near 1.0 and 1e38, and one of an
    # inexact g at 6.8e215
    exact = [0x3E68000000000000, 0x3FF8000000000000, 0x47F969368974C05B, 0x6CBF92BACB3CB40C]
    assert [_words(b)[1] for b in exact] == [0, 0, 0, 0]
    assert_repr(neighbours(np.array(exact, np.uint64).view(np.float64)))


def test_closer_binades():
    # From bq = 2 on, the gap below t = 0 is half the gap above.  Were the flag to start
    # at bq = 3, +-2^-1021 alone would take the wider interval v +- 2^-1074; no decimal of
    # 15 digits lies in it, so its text, the nearest one of 16 digits, stays the same.
    v = Fraction(1, 2**1021)
    below = math.floor(v * 10**322)  # the 15-digit decimals on either side, times 10^322
    assert all(abs(Fraction(d, 10**322) - v) > Fraction(1, 2**1074) for d in (below, below + 1))
    assert_repr(neighbours(np.array([1 << 52, 2 << 52, 3 << 52], np.uint64).view(np.float64)))
