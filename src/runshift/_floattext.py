"""Exact ``float.__repr__`` text for a whole float64 array, and ``str`` text for a
whole integer array, with no per-value Python call.

The shortest nearest decimal ``s 10^k`` of each double comes from Schubfach
(R. Giulietti, *The Schubfach way to render doubles*, 2020), with every integer
step an operation on ``uint64`` arrays.  Unlike the Java reference it never
forces a second digit (no tiny-subnormal branch, no guard on the one-digit-
shorter candidate), so ``5e-324`` stays one digit as ``repr`` writes it.

Each value's text is copied byte by byte from a 32-byte source row: 20 digit
bytes, then '0', '.', '-', NUL and the NUL-padded exponent "e+XX".  A float's
digits are left-aligned to 17 places, so its first digit is always source byte
3.  Which source byte fills each of the ``WIDTH`` output slots then depends only
on the sign, the digit count after trailing zeros are stripped and the notation
(scientific, or where the decimal point falls), so it is one row of a layout
table built once.  An integer's digits are right-aligned in the 20 digit bytes,
and its layout row depends on its sign and digit count alone.  Slots past the
text are NUL; the caller strips them.
"""

from __future__ import annotations

import collections
import functools

import numpy as np

WIDTH = 24  # slots per value: "-d.dddddddddddddddde-324" and "-0.000ddddddddddddddddd" fit

_U = np.uint64
_M32, _S32 = _U(0xFFFFFFFF), _U(32)
_FIRST = 3  # source byte of a float's first digit
# the source bytes of a value past its 20 digits: '0', '.', '-', NUL, then "e+XX"
_ZERO, _DOT, _MINUS, _NUL, _EXP = 20, 21, 22, 23, 24
_FIXED = range(-3, 17)  # decimal point positions repr writes without an exponent
_INF = _U(0x7FF << 52)
_CONST = np.frombuffer(b"0.-\0", np.uint32)[0]
_POW10 = np.array([10**e for e in range(20)], np.uint64)


# schubfach: 11 rows of 4096 uint64 entries; quads: the text "0000".."9999" of each
# 4-digit group as uint32 words; exps: "e-324".."e+308" as uint64 words and classes:
# the float layout's row offset, both by decimal point position + 323; layout and ints:
# rows of 24 source bytes for floats and integers; ends: (4, 10000), the place of the
# last nonzero digit of each 4-digit group of a float's digits 2..17
_Tables = collections.namedtuple("_Tables", "schubfach quads exps classes layout ints ends")


def _float_slots(sign: int, n: int, point: int | None) -> list[int]:
    """Source bytes of the text of a value 0.d1...dn 10^point, ``point`` None in
    scientific notation."""
    digits = list(range(_FIRST, _FIRST + n))
    if point is None:  # "d.ddde-05", but "de-05"
        body = digits[:1] + [_DOT] * (n > 1) + digits[1:] + list(range(_EXP, _EXP + 5))
    elif point <= 0:
        body = [_ZERO, _DOT] + [_ZERO] * -point + digits
    elif point < n:
        body = digits[:point] + [_DOT] + digits[point:]
    else:
        body = digits + [_ZERO] * (point - n) + [_DOT, _ZERO]
    return [_MINUS] * sign + body + [_NUL] * (WIDTH - sign - len(body))


@functools.cache
def _tables() -> _Tables:
    """Schubfach's constants for each exponent and the text lookup tables, built on
    first use.

    Entry ``bq + 2048 closer`` of each Schubfach row serves the doubles of biased
    exponent bq, ``closer`` when the gap below them is half the gap above.  With
    ``q = max(bq, 1) - 1075`` and ``k`` the floor of log10 of 2^q (of 3/4 2^q when
    closer), the rows are k, the hidden bit, ``h + 2``, the 128-bit
    ``g = ceil(10^-k 2^(127 - floor(log2 10^-k)))`` in two words, and ``g 2^(h+1)``
    and ``g 2^(h+1-closer)`` in three words each.

    Row ``36 c + 18 sign + n`` of the float layout serves the values of that sign
    with ``n`` digits after trailing zeros are stripped, in notation class ``c``: 0 for
    scientific, else the decimal point's position 0.d 10^point less ``_FIXED.start - 1``.
    Row ``21 sign + count`` of the integer layout serves ``count`` digits.
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
    rows = [k.view(np.uint64), (bq > 0).astype(np.uint64) << _U(52), (h + 2).astype(np.uint64),
            g1, g0]
    for sh in (h + 1, h + 1 - closer):
        sh = sh.astype(np.uint64)
        rows += [g1 >> (_U(64) - sh), g1 << sh | g0 >> (_U(64) - sh), g0 << sh]
    quads = np.frombuffer("".join(f"{i:04d}" for i in range(10000)).encode(), np.uint32)
    exps = np.array([f"e{e:+03d}".encode() for e in range(-324, 309)], dtype="S8")
    point = np.arange(-323, 310)
    fixed = (point >= _FIXED.start) & (point < _FIXED.stop)
    layout = [_float_slots(s, n, None if c == 0 else c - 1 + _FIXED.start)
              for c in range(len(_FIXED) + 1) for s in (0, 1) for n in range(18)]
    ints = [[_MINUS] * s + list(range(20 - d, 20)) + [_NUL] * (WIDTH - s - d)
            for s in (0, 1) for d in range(21)]
    last = np.array([len(f"{i:04d}".rstrip("0")) for i in range(10000)])
    ends = np.where(last > 0, last + np.arange(1, 17, 4)[:, None], 0).astype(np.uint8)
    return _Tables([np.ascontiguousarray(r) for r in rows], quads, exps.view(np.uint64),
                   np.where(fixed, point - _FIXED.start + 1, 0) * 36,
                   np.array(layout, np.intp), np.array(ints, np.intp), ends)


@functools.cache
def _specials(json: bool) -> np.ndarray:
    """Text of 0.0, -0.0, nan, inf and -inf, in that order (JSON spells the last three)."""
    words = ["0.0", "-0.0"] + (["NaN", "Infinity", "-Infinity"] if json else
                               ["nan", "inf", "-inf"])
    return np.array([w.encode() for w in words], dtype=f"S{WIDTH}").view(np.uint8).reshape(5, -1)


def _mul_hi_lo(a, b, b0, b1):
    """High and low 64 bits of each product a b, for b < 2^59 also given as its 32-bit
    limbs b0 and b1."""
    a0, a1 = a & _M32, a >> _S32
    lo, m1 = a0 * b0, a1 * b0
    mid = (lo >> _S32) + (m1 & _M32) + a0 * b1  # below 2^60, as b1 < 2^27
    return a1 * b1 + (m1 >> _S32) + (mid >> _S32), a * b


def _shortest(bits):
    """Schubfach on finite nonzero doubles: decimal significand and exponent k."""
    t = bits & _U(2**52 - 1)
    bq = (bits >> _U(52)).astype(np.intp)
    closer = (t == _U(0)) & (bq > 1)  # the flag matters from bq = 3 on; +-2^-1021 reads alike
    col = bq + 2048 * closer
    k, hidden, sh, g1, g0, u2, u1, u0, d2, d1, d0 = (row.take(col) for row in _tables().schubfach)
    c = t | hidden
    cp = c << sh
    limbs = cp & _M32, cp >> _S32
    # v and the ends of its rounding interval, times 4 10^-k and rounded to odd: the top
    # word of g (4c, 4c + 2, 4c - 2 or 4c - 1) 2^h in three words, or-ed with 'middle > 1'.
    # The bound 1 of the sticky bit, the carry of vbr and the borrow of vbl through the
    # middle word w1 change no double's text; test_floattext.py's exhaustive search of
    # the doubles whose w1 is 1, all ones or d1 shows so.
    x1, w0 = _mul_hi_lo(g0, cp, *limbs)
    w2, w1 = _mul_hi_lo(g1, cp, *limbs)
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
    s, s4 = vb >> _U(2), vb & ~_U(3)
    sp = s // _U(10)
    sp40 = sp * _U(40)
    short_up = sp40 + _U(40) <= upper  # the shorter candidate is sp + 1, else sp
    shorter = (lower <= sp40) != short_up
    u_in, w_in = lower <= s4, s4 + _U(4) <= upper
    # s + 1 when only it lies in the interval, or both do and vb's fraction past s is
    # above 1/2, or 1/2 with s odd: vb mod 8 is 3, 6 or 7
    long = s + np.where(u_in == w_in, (_U(0xC8) >> (vb & _U(7))) & _U(1), w_in)
    return np.where(shorter, sp + short_up, long), k.view(np.int64) + shorter


def _gather(src: np.ndarray, lay: np.ndarray) -> np.ndarray:
    """Byte ``lay[i, j]`` of source row ``src[i]`` in each slot j; ``lay`` is consumed."""
    lay += np.arange(0, src.nbytes, src.itemsize * src.shape[1])[:, None]
    return src.view(np.uint8).ravel().take(lay)


def _digit_words(src: np.ndarray, top, hi, lo) -> np.ndarray:
    """Write the 20 decimal digits of ``top 10^16 + hi 10^8 + lo``, zero-padded, into
    the first 5 words of each source row, and return their 4-digit groups; ``top`` <
    10^4 and ``hi``, ``lo`` < 10^8 are ``uint32``."""
    q = np.uint32(10**4)
    h, l = hi // q, lo // q  # numpy divides by a scalar fast, but takes remainders slowly
    groups = np.stack([top, h, hi - h * q, l, lo - l * q], dtype=np.intp)
    src[:, :5] = _tables().quads.take(groups).T
    return groups


def float_text(x: np.ndarray, json: bool = False) -> np.ndarray:
    """``repr`` of each value of a float64 array, NUL-padded to ``WIDTH`` ``uint8``
    slots along a new last axis; with ``json``, nan and the infinities are spelled
    as ``json.dumps`` spells them."""
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64).ravel()
    sign = (bits >> _U(63)).astype(np.intp)
    bits = bits & _U(2**63 - 1)
    special = (bits == _U(0)) | (bits >= _INF)
    some = special.any()
    # 1.0 in place of the special values
    digits, k = _shortest(np.where(special, _U(0x3FF << 52), bits) if some else bits)
    tables = _tables()
    count = _POW10.searchsorted(digits, "right")  # digits of each significand
    at = k + count + 323  # value = 0.d1d2... 10^(at - 323)
    # left-aligned to 17 digits, so the first is source byte _FIRST
    aligned = digits * _POW10.take(17 - count)
    hi = aligned // _U(10**8)
    lo = (aligned - hi * _U(10**8)).astype(np.uint32)
    hi = hi.astype(np.uint32)
    top = hi // np.uint32(10**8)
    src = np.empty((len(bits), 8), np.uint32)
    groups = _digit_words(src, top, hi - top * np.uint32(10**8), lo)
    src[:, 5] = _CONST
    src.view(np.uint64)[:, 3] = tables.exps.take(at)
    # digits after trailing zeros are stripped: the end of the last nonzero group
    n = np.maximum.reduce([end.take(g) for end, g in zip(tables.ends, groups[1:])], initial=1)
    out = _gather(src, tables.layout.take(tables.classes.take(at) + 18 * sign + n, axis=0))
    if some:
        zero = bits[special] == _U(0)
        kind = np.where(zero, sign[special], np.where(bits[special] > _INF, 2,
                                                     3 + sign[special]))
        out[special] = _specials(json)[kind]
    return out.reshape(*np.shape(x), WIDTH)


def int_text(x: np.ndarray) -> np.ndarray:
    """``str`` of each value of an integer array, NUL-padded to the longest of them
    along a new last axis."""
    x = np.asarray(x)
    flat = x.ravel()
    sign = (flat < 0).astype(np.intp)
    # magnitudes as uint64: signed values widen to int64 first, whose minimum wraps to 2^63
    mag = np.abs(flat.astype(np.int64 if flat.dtype.kind == "i" else np.uint64)).astype(np.uint64)
    count = np.maximum(_POW10.searchsorted(mag, "right"), 1)  # 0 has one digit
    top = mag // _U(10**16)
    rest = mag - top * _U(10**16)
    hi = rest // _U(10**8)
    lo = rest - hi * _U(10**8)
    src = np.empty((len(flat), 6), np.uint32)
    _digit_words(src, top.astype(np.uint32), hi.astype(np.uint32), lo.astype(np.uint32))
    src[:, 5] = _CONST
    width = (sign + count).max(initial=1)
    out = _gather(src, _tables().ints.take(21 * sign + count, axis=0)[:, :width])
    return out.reshape(*x.shape, width)
