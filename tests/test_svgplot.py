"""Tick placement of the SVG writer over the whole finite float range."""

import math
import tempfile
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from quasilocal.svgplot import _ticks

# The example database is off below, but after collection the pytest plugin
# still caches the literals it mines from local source in its storage
# directory, by default ./.hypothesis; keep that cache out of the tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "quasilocal-hypothesis")

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_MAGNITUDE = st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1e300,
                              8.9e307, 1.7976931348623157e308])


@st.composite
def _ranges(draw):
    """(lo, hi) pairs: arbitrary, a few ulps apart, subnormal or near the maximum."""
    kind = draw(st.sampled_from(["any", "ulps", "scaled"]))
    if kind == "any":
        a, b = draw(_FINITE), draw(_FINITE)
    elif kind == "ulps":
        a = draw(st.one_of(_FINITE, _MAGNITUDE, _MAGNITUDE.map(lambda x: -x)))
        b = a
        for _ in range(draw(st.integers(0, 8))):
            b = math.nextafter(b, math.inf)
    else:
        scale = draw(_MAGNITUDE)
        a = scale * draw(st.floats(-1.0, 1.0))
        b = scale * draw(st.floats(-1.0, 1.0))
    return min(a, b), max(a, b)


@settings(database=None, deadline=None, max_examples=400)
@given(_ranges())
def test_ticks_finite_ascending_and_bounded(bounds):
    lo, hi = bounds
    assume(math.isfinite(hi - lo))
    ticks = _ticks(lo, hi)
    assert 1 <= len(ticks) <= 12
    assert all(math.isfinite(v) for v in ticks)
    assert all(a < b for a, b in zip(ticks, ticks[1:]))
