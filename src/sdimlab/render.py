"""Deterministic SVG pictures of plane graphs and point clouds.

Graphs render as one <line> element per edge, in edge order; clouds as one
<circle> per point, in cloud order.  Coordinates are printed with six
decimals, so rendering the same input twice yields byte-identical output.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import ParseError

if TYPE_CHECKING:
    from .geom import PLGraph

_WIDTH = 800.0
_STROKE = 0.0018


def _svg_head(height: float) -> Iterator[str]:
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'viewBox="0 0 {_WIDTH:.6f} {height:.6f}" '
           f'width="{_WIDTH:.0f}" height="{height:.0f}">\n')
    yield f'<rect width="{_WIDTH:.6f}" height="{height:.6f}" fill="white"/>\n'


def render_svg(graph: PLGraph) -> Iterator[str]:
    """Serialize the graph as a standalone SVG document, one line per
    item of the returned iterator.

    The viewport always contains [0,1] x [0,0.55], the natural window for
    shark-teeth truncations, and grows as needed for other inputs.  The y
    axis is flipped so the base line sits at the bottom.
    """
    xs = [float(v.x) for v in graph.vertices]
    ys = [float(v.y) for v in graph.vertices]
    x0, x1 = min(0.0, min(xs)), max(1.0, max(xs))
    y0, y1 = min(0.0, min(ys)), max(0.55, max(ys))
    pad = 0.02 * max(x1 - x0, y1 - y0)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    span_x, span_y = x1 - x0, y1 - y0
    height = _WIDTH * span_y / span_x
    scale = _WIDTH / span_x

    def sx(x: float) -> float:
        return (x - x0) * scale

    def sy(y: float) -> float:
        return (y1 - y) * scale

    yield from _svg_head(height)
    stroke = max(_STROKE * scale, 0.5)
    for e in range(len(graph.edges)):
        a, b = graph.edge_endpoints(e)
        yield (f'<line x1="{sx(float(a.x)):.6f}" y1="{sy(float(a.y)):.6f}" '
               f'x2="{sx(float(b.x)):.6f}" y2="{sy(float(b.y)):.6f}" '
               f'stroke="#20242c" stroke-width="{stroke:.6f}" '
               f'stroke-linecap="round"/>\n')
    yield "</svg>\n"


def render_cloud_svg(points: Sequence[Sequence[float]]) -> Iterator[str]:
    """Serialize a point cloud as a standalone SVG document, one line per
    item of the returned iterator.

    One circle marker per point, radius scaled to stay visible down to a
    few tens of thousands of points.  Degenerate clouds (a single point,
    or all points collinear) get a unit window around their extent.  The
    window is fixed, and a bad cloud refused, before the iterator is
    returned: an empty cloud is a `ValueError`, and a cloud whose window
    overflows the float range is a `ParseError`.
    """
    if not len(points):
        raise ValueError("nothing to draw")
    x0 = min(float(p[0]) for p in points)
    x1 = max(float(p[0]) for p in points)
    y0 = min(float(p[1]) for p in points)
    y1 = max(float(p[1]) for p in points)
    if x1 - x0 < 1e-9 and y1 - y0 < 1e-9:
        x0, x1, y0, y1 = x0 - 0.5, x1 + 0.5, y0 - 0.5, y1 + 0.5
    side = max(x1 - x0, y1 - y0)
    pad = 0.04 * side
    x0, x1 = x0 - pad, x1 + pad
    y0, y1 = y0 - pad, y1 + pad
    span_x, span_y = x1 - x0, max(y1 - y0, 1e-9 * side)
    height = _WIDTH * span_y / span_x
    scale = _WIDTH / span_x
    if not all(map(math.isfinite, (span_x, span_y, scale, height))):
        raise ParseError("cloud is too wide for floats: its drawing "
                         "window overflows")
    r = max(0.35 * _WIDTH / len(points) ** 0.5, 0.6)
    return _cloud_lines(points, x0, y1, scale, r, height)


def _cloud_lines(points: Sequence[Sequence[float]], x0: float, y1: float,
                 scale: float, r: float, height: float) -> Iterator[str]:
    yield from _svg_head(height)
    for p in points:
        yield (f'<circle cx="{(float(p[0]) - x0) * scale:.6f}" '
               f'cy="{(y1 - float(p[1])) * scale:.6f}" r="{r:.6f}" '
               f'fill="#20242c"/>\n')
    yield "</svg>\n"
