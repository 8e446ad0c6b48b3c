"""Deterministic SVG pictures of plane graphs and point clouds.

A picture is a white background and one round-capped `<path>`.  Its
viewBox is measured in integer quanta of 1/100 px, and every position is
rounded to the nearest quantum, so it sits within 0.005 px of the float
position.  The first point is an absolute `M`; every later one is a
relative move between quantized integers, so no rounding error builds up
along the path.  A graph edge is the subpath `m dx dy l dx dy`, in edge
order.  A cloud point is the zero-length subpath `m dx dy h0`, in cloud
order; SVG strokes a zero-length round-capped subpath as a disc of
diameter `stroke-width`.  The document is streamed one line per edge or
point, and rendering the same input twice yields byte-identical output.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import ParseError

if TYPE_CHECKING:
    from .geom import PLGraph

_WIDTH = 800.0
_QUANTUM = 100  # path units per px
_STROKE = 0.0018


def _window(what: str, x0: float, x1: float, y0: float, y1: float,
            pad: float) -> tuple[float, float, float]:
    """The drawing window of the extent [x0, x1] x [y0, y1], as (scale,
    margin, height): the point (x, y) is drawn at
    ((x - x0) * scale + margin, (y1 - y) * scale + margin) px, the y axis
    flipped, on a canvas `_WIDTH` px wide and `height` px high.

    The margin is `pad` times the longer side of the extent; an extent
    narrower than 1e-9 both ways (a single point, say) gets the margin of
    a unit square around it.  The margin is added after the subtraction,
    so a cloud far from the origin keeps it.  A window that overflows the
    float range is a `ParseError` naming `what`.
    """
    side = max(x1 - x0, y1 - y0)
    margin = pad * side if side >= 1e-9 else 0.5 + pad
    span_x, span_y = x1 - x0 + 2 * margin, y1 - y0 + 2 * margin
    height = _WIDTH * span_y / span_x
    scale = _WIDTH / span_x
    if not all(map(math.isfinite, (span_x, span_y, scale, height))):
        raise ParseError(f"{what} is too wide for floats: its drawing "
                         "window overflows")
    return scale, margin * scale, height


def _path_svg(height: float, stroke: float,
              runs: Iterable[Sequence[tuple[float, float]]]) -> Iterator[str]:
    """The document, one line per run: a polyline through the run's
    points, given in px, or a disc for a run of one point.  `stroke` is
    the line width, and the disc diameter, in px."""
    w, h = round(_WIDTH * _QUANTUM), round(height * _QUANTUM)
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
           f'width="{_WIDTH:.0f}" height="{height:.0f}">\n')
    yield f'<rect width="{w}" height="{h}" fill="white"/>\n'
    yield (f'<path fill="none" stroke="#20242c" '
           f'stroke-width="{round(stroke * _QUANTUM)}" '
           f'stroke-linecap="round" d="\n')
    # From the origin, the first relative move is the absolute position.
    cmd, at_x, at_y = "M", 0, 0
    for run in runs:
        line = ""
        for x, y in run:
            qx, qy = round(x * _QUANTUM), round(y * _QUANTUM)
            line += f"{cmd}{qx - at_x} {qy - at_y}"
            cmd, at_x, at_y = "l", qx, qy
        yield line + ("h0\n" if len(run) == 1 else "\n")
        cmd = "m"
    yield '"/>\n</svg>\n'


def render_svg(graph: PLGraph) -> Iterator[str]:
    """Serialize the graph as a standalone SVG document, one line per
    item of the returned iterator.

    The viewport always contains [0,1] x [0,0.55], the natural window for
    shark-teeth truncations, and grows as needed for other inputs.  The y
    axis is flipped so the base line sits at the bottom.  The window is
    fixed, and a graph whose coordinates or window overflow the float
    range refused with `ParseError`, before the iterator is returned.
    """
    try:
        xs = [float(v.x) for v in graph.vertices]
        ys = [float(v.y) for v in graph.vertices]
    except OverflowError as exc:
        raise ParseError("graph is too wide for floats: a vertex "
                         "coordinate overflows") from exc
    x0, y1 = min(0.0, *xs), max(0.55, *ys)
    scale, margin, height = _window("graph", x0, max(1.0, *xs),
                                    min(0.0, *ys), y1, 0.02)
    at = [((x - x0) * scale + margin, (y1 - y) * scale + margin)
          for x, y in zip(xs, ys)]
    return _path_svg(height, max(_STROKE * scale, 0.5),
                     ((at[i], at[j]) for i, j in graph.edges))


def render_cloud_svg(points: Sequence[Sequence[float]]) -> Iterator[str]:
    """Serialize a point cloud as a standalone SVG document, one line per
    item of the returned iterator.

    One disc marker per point, radius scaled to stay visible down to a
    few tens of thousands of points.  A cloud narrower than 1e-9 both ways
    (a single point, say) gets the window of a unit square around it.
    The window is fixed, and a bad cloud refused, before the iterator is
    returned: an empty cloud is a `ValueError`, and a cloud whose window
    overflows the float range is a `ParseError`.
    """
    if not len(points):
        raise ValueError("nothing to draw")
    x0 = min(float(p[0]) for p in points)
    x1 = max(float(p[0]) for p in points)
    y0 = min(float(p[1]) for p in points)
    y1 = max(float(p[1]) for p in points)
    scale, margin, height = _window("cloud", x0, x1, y0, y1, 0.04)
    r = max(0.35 * _WIDTH / len(points) ** 0.5, 0.6)
    return _path_svg(height, 2 * r, (
        (((float(p[0]) - x0) * scale + margin,
          (y1 - float(p[1])) * scale + margin),) for p in points))
