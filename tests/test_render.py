"""SVG rendering: the quantized path draws every cloud point and graph edge
within half a quantum (0.005 px) of its float position, in order, and the
output is well-formed XML that two renders reproduce byte for byte."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st
from reference import cloud_positions, decode_svg, graph_positions

from sdimlab import arrange, point, segment
from sdimlab.render import render_cloud_svg, render_svg

# Half a quantum, with room for the float error of scaling back to px.
TOLERANCE = 0.005 + 1e-9


def _near(got, want) -> bool:
    return abs(got[0] - want[0]) <= TOLERANCE and abs(
        got[1] - want[1]) <= TOLERANCE


@st.composite
def clouds(draw):
    """Up to 40 points, repeats and single points included, at a size
    from far below to far above the canvas."""
    size = draw(st.sampled_from([1e-12, 1e-3, 1.0, 1e9, 1e200]))
    coord = st.floats(-1.0, 1.0).map(lambda v: v * size)
    return draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=40))


@given(cloud=clouds())
# Far from the origin the margin is below the coordinates' float spacing:
# added to them, it was lost, and the window came out 0 wide or 0 high.
@example(cloud=[(1e200, 0.0)])
@example(cloud=[(1e20, 0.0), (1e20, 1.0)])
@example(cloud=[(0.0, 1e20), (1.0, 1e20)])
def test_cloud_path_draws_every_point_within_half_a_quantum(cloud):
    text = "".join(render_cloud_svg(cloud))
    assert text == "".join(render_cloud_svg(cloud))
    got = decode_svg(text)
    height, diameter, want = cloud_positions(cloud)
    assert got.segments == []
    assert len(got.markers) == len(cloud)
    assert all(map(_near, got.markers, want))
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
