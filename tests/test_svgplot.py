"""Tick placement and point placement of the SVG writer over the finite float range."""

import math
import re

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasilocal.svgplot import _ticks, line_plot

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


_BOUNDED = _ranges().filter(lambda b: max(abs(b[0]), abs(b[1])) <= 1e300)


@settings(database=None, deadline=None, max_examples=400)
@given(_BOUNDED, _BOUNDED)
def test_two_point_series_lands_inside_the_plot(xs, ys):
    # a flat or few-ulps span is widened, so it is drawn mid-axis, not across it
    svg = line_plot(xs, [ys])
    (points,) = re.findall(r'<polyline points="([^"]*)"', svg)
    coords = [float(v) for pair in points.split() for v in pair.split(",")]
    assert len(coords) == 4
    assert all(math.isfinite(v) for v in coords)
    assert all(72.0 <= v <= 696.0 for v in coords[::2])
    assert all(40.0 <= v <= 424.0 for v in coords[1::2])
    if ys[1] - ys[0] <= 4.0 * math.ulp(max(abs(ys[0]), abs(ys[1]))):
        assert coords[1] == coords[3] == 232.0  # mid-height
