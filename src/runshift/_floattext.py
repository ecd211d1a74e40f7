"""Exact ``float.__repr__`` text for a whole float64 array, with no per-value Python call.

The shortest nearest decimal ``s 10^k`` of each double comes from Schubfach
(R. Giulietti, *The Schubfach way to render doubles*, 2020), with every integer
step an operation on ``uint64`` arrays.  Unlike the Java reference it never
forces a second digit (no tiny-subnormal branch, no guard on the one-digit-
shorter candidate), so ``5e-324`` stays one digit as ``repr`` writes it.  The
digits are laid out by ``repr``'s rules into fixed slots of a NUL-padded
``uint8`` matrix; the caller strips the NULs.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 24  # slots per value: "-d.dddddddddddddddde-324" and "-0.000ddddddddddddddddd" fit

_U = np.uint64
_M32, _S32 = _U(0xFFFFFFFF), _U(32)
_EXP_AT = 19  # first slot of "e+XX"; a scientific mantissa uses at most slots 0..18
# the source bytes of a value past its 20 digits: '0', '.', '-', NUL, then "e+XX"
_ZERO, _DOT, _MINUS, _NUL, _EXP = 20, 21, 22, 23, 24
_INF = _U(0x7FF << 52)
_CONST = np.frombuffer(b"0.-\0", np.uint32)[0]


@functools.cache
def _tables():
    """Schubfach's constants for each exponent and the text lookup tables, built on
    first use.

    Column ``bq + 2048 closer`` of the first table serves the doubles of biased
    exponent bq, ``closer`` when the gap below them is half the gap above.  With
    ``q = max(bq, 1) - 1075`` and ``k`` the floor of log10 of 2^q (of 3/4 2^q when
    closer), its rows are k, the hidden bit, ``h + 2``, the 128-bit
    ``g = ceil(10^-k 2^(127 - floor(log2 10^-k)))`` in two words, and ``g 2^(h+1)``
    and ``g 2^(h+1-closer)`` in three words each.
    """
    g = []  # for e = -292..324
    for e in range(-292, 325):
        if e >= 0:
            shift = 127 - ((10**e).bit_length() - 1)
            g.append(10**e << shift if shift >= 0 else -(-(10**e) >> -shift))
        else:
            g.append(-(-(1 << (127 + (10**-e).bit_length())) // 10**-e))
    g = np.array([[v >> 64, v & (2**64 - 1)] for v in g], dtype=np.uint64)
    bq = np.tile(np.arange(2048, dtype=np.int64), 2)
    closer = np.repeat(np.arange(2, dtype=np.int64), 2048)
    q = np.maximum(bq, 1) - 1075
    k = (q * 661971961083 - closer * 274743187321) >> 41
    h = q + ((-k * 913124641741) >> 38) + 1  # 1..4
    g1, g0 = g[292 - k].T
    rows = [k.astype(np.uint64), (bq > 0).astype(np.uint64) << _U(52), (h + 2).astype(np.uint64),
            g1, g0]
    for sh in (h + 1, h + 1 - closer):
        sh = sh.astype(np.uint64)
        rows += [g1 >> (_U(64) - sh), g1 << sh | g0 >> (_U(64) - sh), g0 << sh]
    table = np.stack(rows)
    quads = np.frombuffer("".join(f"{i:04d}" for i in range(10000)).encode(), np.uint8)
    exps = np.array([f"e{e:+03d}".encode() for e in range(-324, 309)], dtype="S8")
    return table, quads.view(np.uint32), exps.view(np.uint32).reshape(-1, 2)


@functools.cache
def _specials(json: bool) -> np.ndarray:
    """Text of 0.0, -0.0, nan, inf and -inf, in that order (JSON spells the last three)."""
    words = ["0.0", "-0.0"] + (["NaN", "Infinity", "-Infinity"] if json else
                               ["nan", "inf", "-inf"])
    return np.array([w.encode() for w in words], dtype=f"S{WIDTH}").view(np.uint8).reshape(5, -1)


def _mul_hi_lo(a, b):
    """High and low 64 bits of each product a b, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _M32, a >> _S32, b & _M32, b >> _S32
    lo, m1, m2 = a0 * b0, a1 * b0, a0 * b1
    mid = (lo >> _S32) + (m1 & _M32) + (m2 & _M32)
    return a1 * b1 + (m1 >> _S32) + (m2 >> _S32) + (mid >> _S32), a * b


def _shortest(bits):
    """Schubfach on finite nonzero doubles: decimal significand and exponent k."""
    t = bits & _U(2**52 - 1)
    bq = (bits >> _U(52)).astype(np.intp)
    closer = (t == _U(0)) & (bq > 1)
    k, hidden, sh, g1, g0, u2, u1, u0, d2, d1, d0 = _tables()[0][:, bq + 2048 * closer]
    c = t | hidden
    cp = c << sh
    # v and the ends of its rounding interval, times 4 10^-k and rounded to odd: the top
    # word of g (4c, 4c + 2, 4c - 2 or 4c - 1) 2^h in three words, or-ed with 'middle > 1'
    x1, w0 = _mul_hi_lo(g0, cp)
    w2, w1 = _mul_hi_lo(g1, cp)
    w1 = w1 + x1
    w2 = w2 + (w1 < x1)
    vb = w2 | (w1 > _U(1))
    carry = w0 + u0 < u0
    m1 = w1 + u1 + carry
    vbr = (w2 + u2 + ((m1 < u1) | (m1 == u1) & carry)) | (m1 > _U(1))
    borrow = w0 < d0
    m1 = w1 - d1 - borrow
    vbl = (w2 - d2 - ((w1 < d1) | (w1 == d1) & borrow)) | (m1 > _U(1))
    odd = c & _U(1)  # the bounds of the rounding interval belong to it for even c
    lower, upper = vbl + odd, vbr - odd
    s = vb >> _U(2)
    sp = s // _U(10)
    shorter = (lower <= sp * _U(40)) != (sp * _U(40) + _U(40) <= upper)
    u_in, w_in = lower <= s << _U(2), (s << _U(2)) + _U(4) <= upper
    mid = (s << _U(2)) + _U(2)
    up = (vb > mid) | ((vb == mid) & (s & _U(1) == _U(1)))
    long = s + ((u_in != w_in) & w_in | (u_in == w_in) & up)
    # the shorter candidate is sp or sp + 1, whichever lies in the interval
    short = sp + (sp * _U(40) + _U(40) <= upper)
    return long + shorter * (short - long), k.view(np.int64) + shorter


def float_text(x: np.ndarray, json: bool = False) -> np.ndarray:
    """``repr`` of each value of a float64 array, NUL-padded to ``WIDTH`` ``uint8``
    slots along a new last axis; with ``json``, nan and the infinities are spelled
    as ``json.dumps`` spells them."""
    _, quads, exps = _tables()
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64).ravel()
    sign = (bits >> _U(63)).astype(np.int8)
    bits = bits & _U(2**63 - 1)
    special = (bits == _U(0)) | (bits >= _INF)
    digits, k = _shortest(bits + special * (_U(0x3FF << 52) - bits))  # 1.0 in their place
    # 32 source bytes a value: 20 zero-padded digits, '0', '.', '-', NUL, "e+XX" NUL-padded
    hi, lo = digits // _U(10**8), digits % _U(10**8)
    groups = np.stack([hi // _U(10**8), hi // _U(10**4) % _U(10**4), hi % _U(10**4),
                       lo // _U(10**4), lo % _U(10**4)], axis=1)
    src = np.empty((bits.size, 8), np.uint32)
    src[:, :5] = quads.take(groups.astype(np.intp))
    src[:, 5] = _CONST
    nonzero = src[:, :5].view(np.uint8) != 48
    first = nonzero.argmax(axis=1).astype(np.int8)
    n = 20 - first - nonzero[:, ::-1].argmax(axis=1).astype(np.int8)  # stripped digits
    decpt = k + 20 - first  # value = 0.d1d2... 10^decpt
    src[:, 6:] = exps.take(decpt + 323, axis=0)
    sci = (decpt < -3) | (decpt > 16)
    point = (decpt + sci * (1 - decpt)).astype(np.int8)  # 1 in scientific notation
    whole = np.maximum(point, 1)  # characters before the '.'
    frac = np.maximum(n - point, sci ^ True)  # digits after it: "d.0", but "de-05"
    body = whole + (frac > 0) + frac
    # slot col of a value holds its digit j, a padding '0', the '.', the sign, its
    # exponent or NUL; slots run down the rows of idx, values along them
    col = np.arange(WIDTH, dtype=np.int8)[:, None] - sign
    j = col - (whole - point) - (col > whole)
    idx = _ZERO + ((j >= 0) & (j < n)) * (first + j - _ZERO)
    idx += (col == whole) * (_DOT - idx)
    idx = _NUL + ((col >= 0) & (col < body)) * (idx - _NUL)
    idx[0] += sign * (_MINUS - idx[0])
    idx[_EXP_AT:] += sci * (np.arange(_EXP, _EXP + 5, dtype=np.int8)[:, None] - idx[_EXP_AT:])
    out = src.view(np.uint8).ravel().take(idx + np.arange(0, src.nbytes, 32)).T
    if special.any():
        zero = bits[special] == _U(0)
        kind = np.where(zero, sign[special], np.where(bits[special] > _INF, 2,
                                                     3 + sign[special]))
        out[special] = _specials(json)[kind]
    return out.reshape(*np.shape(x), WIDTH)
