"""The vectorized float text is ``float.__repr__`` (and ``json.dumps``), byte for byte."""

import json

import numpy as np
import pytest

from runshift._floattext import WIDTH, float_text


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
