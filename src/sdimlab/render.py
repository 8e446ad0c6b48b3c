"""Deterministic SVG pictures of plane graphs and IFS attractors.

Both pictures are a white background on a viewBox measured in integer
quanta of 1/100 px, with the y axis flipped, and rendering the same input
twice yields byte-identical output.

A graph is one round-capped `<path>`.  Every position is rounded to the
nearest quantum, so it sits within 0.005 px of the float position.  The
first point is an absolute `M`; every later one is a relative move
between quantized integers, so no rounding error builds up along the
path.  An edge is the subpath `m dx dy l dx dy`, in edge order, and the
document is streamed one line per edge.

An attractor is the union of its own images, A = f_1(A) u ... u f_n(A)
(Hutchinson, *Fractals and self-similarity*, 1981), and its depth-k
cloud is drawn the same way, by composition, and never built: its window
is read off its hull.  Inside `<defs>`, the path `w0` is the zero-length
round-capped subpath `M0 0h0` at the seed, which SVG strokes as a disc of
diameter `stroke-width`; the group `w<k>` holds one `<use>` of `w<k-1>`
per map, under the map's `matrix(a c b d e f)`, SVG's order for
x' = a x + b y + e.  One group outside `<defs>` draws `w<depth>` under
the window transform.  So the document holds n * depth `<use>` elements,
not n^depth discs, and the viewer composes each position from the maps'
repr floats: the gasket at depth 8 takes 2,164 B.
The seed path has `vector-effect="non-scaling-stroke"` (SVG Tiny 1.2,
SVG 2), so the maps do not shrink its discs: the stroke width is in px.

Inside `<defs>` coordinates are relative to the seed s, the first map's
fixed point: map i is written as x -> A x + (f_i(s) - s).  Every number
then has the size of the cloud, not of its distance from the origin: a
cloud 1 wide at x = 2e20 would otherwise need a window offset that
cancels against 2e20, which no float composition resolves.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import ParseError

if TYPE_CHECKING:
    from .geom import PLGraph
    from .ifs import IFSSpec
    from .limits import Budget

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


def _header(height: float, namespaces: str = "") -> list[str]:
    """The `<svg>` start tag and the white background."""
    w, h = round(_WIDTH * _QUANTUM), round(height * _QUANTUM)
    return [f'<svg xmlns="http://www.w3.org/2000/svg"{namespaces} '
            f'viewBox="0 0 {w} {h}" width="{_WIDTH:.0f}" '
            f'height="{height:.0f}">\n',
            f'<rect width="{w}" height="{h}" fill="white"/>\n']


def _path_svg(height: float, stroke: float,
              runs: Iterable[Sequence[tuple[float, float]]]) -> Iterator[str]:
    """The document, one line per run: a polyline through the run's
    points, given in px.  `stroke` is the line width in px."""
    yield from _header(height)
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
        yield line + "\n"
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


def _num(v: float) -> str:
    """The shortest text that reads back as `v`."""
    return repr(v).removesuffix(".0")


def render_cloud_svg(spec: IFSSpec, depth: int,
                     budget: Budget | None = None) -> list[str]:
    """The depth-`depth` attractor cloud of `spec` as a standalone SVG
    document, one line per item, drawn by composition of the maps.

    The window is that of the cloud's extreme points, `attractor_hull`,
    so the work is n * depth hull images, not n^depth points; a cloud
    narrower than 1e-9 both ways (a single point, say) gets the window of
    a unit square around it.  One disc per point, radius scaled to stay
    visible down to a few tens of thousands of points.  A one-map cloud
    is its fixed point, the seed, drawn with no levels.  The depth budget
    is checked before any work, and a cloud with a non-finite point or a
    window that overflows the float range is a `ParseError`.
    """
    # Here, so that drawing a graph does not load the IFS layer.
    from .ifs import attractor_hull
    hull = attractor_hull(spec, depth, budget)
    sx, sy = spec.maps[0].fixed_point()
    x0, x1 = min(x for x, _ in hull), max(x for x, _ in hull)
    y0, y1 = min(y for _, y in hull), max(y for _, y in hull)
    scale, margin, height = _window("cloud", x0, x1, y0, y1, 0.04)
    r = max(0.35 * _WIDTH / (len(spec.maps) ** depth) ** 0.5, 0.6)
    s = scale * _QUANTUM
    # The window offset is rounded to a quantum, so a cloud point sits
    # within half a quantum, and the float error of composing, of its
    # float position.
    tx = round(((sx - x0) * scale + margin) * _QUANTUM)
    ty = round(((y1 - sy) * scale + margin) * _QUANTUM)
    # The cloud holds about s and f_i(s), as the words 0...0 and i0...0,
    # so a window that fits in floats bounds every shift f_i(s) - s.
    transforms = [
        f"matrix({_num(m.a)} {_num(m.c)} {_num(m.b)} {_num(m.d)} "
        f"{_num(ex - sx)} {_num(fy - sy)})"
        for m in spec.maps for ex, fy in m.apply(((sx, sy),))]
    levels = depth if len(spec.maps) > 1 else 0
    return [
        *_header(height, ' xmlns:xlink="http://www.w3.org/1999/xlink"'),
        "<defs>\n",
        '<path id="w0" d="M0 0h0" vector-effect="non-scaling-stroke"/>\n',
        *(f'<g id="w{k}">' + "".join(
            f'<use xlink:href="#w{k - 1}" transform="{t}"/>'
            for t in transforms) + "</g>\n" for k in range(1, levels + 1)),
        "</defs>\n",
        f'<g fill="none" stroke="#20242c" stroke-width="{2 * r:.2f}" '
        f'stroke-linecap="round" '
        f'transform="matrix({_num(s)} 0 0 {_num(-s)} {tx} {ty})">'
        f'<use xlink:href="#w{levels}"/></g>\n',
        "</svg>\n",
    ]
