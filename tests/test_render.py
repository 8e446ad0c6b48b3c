"""SVG rendering: a graph's quantized path draws every edge within half a
quantum (0.005 px) of its float position, an attractor's `<use>` tree
draws every point of its cloud within one quantum, in order, and the
output is well-formed XML that two renders reproduce byte for byte."""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference import (FIXTURES, attractor_cloud, cloud_positions, decode_svg,
                       graph_positions)

from sdimlab import AffineMap2, IFSSpec, arrange, point, segment
from sdimlab.render import render_cloud_svg, render_svg

# Half a quantum, with room for the float error of scaling back to px.
TOLERANCE = 0.005 + 1e-9
# A cloud point: half a quantum for the rounded window offset, and room
# for the float error of composing the maps.
QUANTUM = 0.01 + 1e-9


def _near(got, want, tolerance=TOLERANCE) -> bool:
    return abs(got[0] - want[0]) <= tolerance and abs(
        got[1] - want[1]) <= tolerance


def _sheared() -> IFSSpec:
    """A shear and a rotation by about 37 degrees, both with b != c, so a
    transposed matrix moves their points; the gasket's maps are
    diagonal."""
    return IFSSpec((AffineMap2(0.5, 0.3, 0.0, 0.5, 0.0, 0.0),
                    AffineMap2(0.48, -0.36, 0.36, 0.48, 0.5, 0.25)),
                   "sheared")


@pytest.mark.parametrize("depth", [0, 4, 8, 10])
@pytest.mark.parametrize("name", ["sierpinski", "sheared"])
def test_cloud_draws_every_point_of_its_spec_within_one_quantum(name,
                                                                depth):
    spec = FIXTURES["sierpinski"]() if name == "sierpinski" else _sheared()
    got = decode_svg("".join(render_cloud_svg(spec, depth)))
    height, diameter, want, _ = cloud_positions(attractor_cloud(spec, depth))
    assert len(got.markers) == len(spec.maps) ** depth
    assert all(_near(a, b, QUANTUM) for a, b in zip(got.markers, want))
    assert abs(got.height - height) <= TOLERANCE
    assert abs(got.stroke - diameter) <= TOLERANCE


@st.composite
def specs(draw):
    """One to four maps, sheared and rotated ones included, with shifts
    from far below to far above the canvas.  Entries below 0.45 in size
    give a Frobenius norm, and so a ratio, of at most 0.9."""
    size = draw(st.sampled_from([1e-12, 1e-3, 1.0, 1e9, 1e200]))
    entry = st.floats(-0.45, 0.45)
    shift = st.floats(-1.0, 1.0).map(lambda v: v * size)
    return IFSSpec(tuple(draw(st.lists(
        st.builds(AffineMap2, entry, entry, entry, entry, shift, shift),
        min_size=1, max_size=4))))


@given(spec=specs(), depth=st.integers(0, 5))
def test_cloud_draws_every_point_within_one_quantum(spec, depth):
    text = "".join(render_cloud_svg(spec, depth))
    assert text == "".join(render_cloud_svg(spec, depth))
    cloud = attractor_cloud(spec, depth)
    got = decode_svg(text)
    height, diameter, want, scale = cloud_positions(cloud)
    # The drawing and the cloud reach each point by different float
    # operations, each with a rounding error of up to an ulp of the
    # largest coordinate in play: negligible unless the cloud's spread
    # is itself rounding error, as for identical maps far from 0.
    big = max(abs(v) for m in spec.maps for p in (*cloud, (m.e, m.f))
              for v in p)
    slack = 8 * (depth + 2) * sys.float_info.epsilon * big * scale
    assert got.segments == []
    assert len(got.markers) == len(cloud)
    assert all(_near(a, b, QUANTUM + slack) for a, b in zip(got.markers, want))
    assert abs(got.height - height) <= TOLERANCE
    assert abs(got.stroke - diameter) <= TOLERANCE


@st.composite
def arranged_hosts(draw):
    """A random polyline on the grid of sixteenths in [-2, 2]^2, made
    proper by `arrange`, so the window grows past [0,1] x [0,0.55]."""
    grid = st.integers(-32, 32)
    pts = draw(st.lists(st.tuples(grid, grid), min_size=2, max_size=5,
                        unique=True))
    return arrange([segment(point(Fraction(ax, 16), Fraction(ay, 16)),
                            point(Fraction(bx, 16), Fraction(by, 16)))
                    for (ax, ay), (bx, by) in zip(pts, pts[1:])])


@given(graph=arranged_hosts())
def test_graph_path_draws_every_edge_within_half_a_quantum(graph):
    text = "".join(render_svg(graph))
    assert text == "".join(render_svg(graph))
    got = decode_svg(text)
    height, stroke, want = graph_positions(graph)
    assert got.markers == []
    assert len(got.segments) == len(graph.edges)
    assert all(_near(a, c) and _near(b, d)
               for (a, b), (c, d) in zip(got.segments, want))
    assert abs(got.height - height) <= TOLERANCE
    assert abs(got.stroke - stroke) <= TOLERANCE
