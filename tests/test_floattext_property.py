"""Property test: the vectorized float text is ``repr`` and ``json.dumps`` of any double.

Needs the optional test package hypothesis (the ``test`` extra); without it the
module is skipped.
"""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from runshift._floattext import float_text  # noqa: E402


def texts(x, as_json):
    return [bytes(row).rstrip(b"\0").decode() for row in float_text(np.array(x), json=as_json)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64), st.booleans())
def test_matches_repr_and_json(values, as_json):
    # floats() draws nan, the infinities, signed zeros and subnormals among the rest
    want = [json.dumps(v) if as_json else repr(v) for v in values]
    assert texts(values, as_json) == want
