"""Test-only references: the brute-force oracle, the delta-fragment clip,
and float word pieces and Hausdorff distances for IFS clouds.

None of them is on any library path.  `DeltaClip` is the clipped ball that
separation certificates used before the exact clip: every edge near the
ball is cut into fragments no longer than delta, and a fragment is kept
when its exact distance to the center is <= eps.  The kept union contains
the closed ball's trace on the graph, so its components are coarser than
the exact clip's, and a pair it separates the exact clip separates too.
`brute_force_oracle` brackets the connected-cover number of a tiny host
by exhaustive search, with `DeltaClip` deciding separation on its lower
side, so it shares no clip code with the library.

`word_maps` composes every length-k word of an IFS into one affine map,
so that tests can measure the word pieces that the library's dimension
bound counts; `hausdorff` measures how far two point clouds are apart.

`edge_point` and `dist2` locate and measure graph points in `Fraction`s,
apart from the library's integer kernel tuples; `points_diameter2` is the
exact diameter of a point set, for checks on cover elements.
`proper_violation` decides whether a graph's edges meet only at shared
vertices by orientation tests alone, apart from the library's `_cuts`.
`phi` and `phi_n` are the paper's tent maps, which the teeth follow.
`FIXTURES` holds three small IFS specs whose diameters are known by hand.

`decode_svg` reads back the markers and segments of a rendered SVG path;
`cloud_positions` and `graph_positions` give, in exact arithmetic, the
positions in px that the renderer rounds to its 1/100 px quanta.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from typing import NamedTuple

from sdimlab import exactcore as xc
from sdimlab.cover import _Work
from sdimlab.errors import SizeLimit
from sdimlab.geom import PLGraph, UnionFind
from sdimlab.geom import Point as GeomPoint
from sdimlab.ifs import AffineMap2, IFSSpec, Point
from sdimlab.limits import Budget

ORACLE_MAX_EDGES = 12
_ORACLE_SEARCH_CAP = 300_000


def edge_point(graph: PLGraph, e: int, t: Fraction) -> GeomPoint:
    """Point at parameter t in [0, 1] along edge e."""
    i, j = graph.edges[e]
    a, b = graph.vertices[i], graph.vertices[j]
    return GeomPoint(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


def dist2(p: GeomPoint, q: GeomPoint) -> Fraction:
    """Squared Euclidean distance."""
    return (p.x - q.x) ** 2 + (p.y - q.y) ** 2


def points_diameter2(points) -> Fraction:
    """Max pairwise squared distance of exact points; ValueError when
    there are none."""
    if not points:
        raise ValueError("diameter of the empty set")
    n, d = xc.max_pair_dist2([p.raw() for p in points])
    return Fraction(n, d)


def _turn(p: GeomPoint, q: GeomPoint, r: GeomPoint) -> int:
    """Sign of the turn p -> q -> r: 1 left, -1 right, 0 collinear."""
    d = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    return (d > 0) - (d < 0)


def _strictly_between(p: GeomPoint, a: GeomPoint, b: GeomPoint) -> bool:
    """For p on the line ab: p lies inside ab and is neither end."""
    return (p.x - a.x) * (p.x - b.x) + (p.y - a.y) * (p.y - b.y) < 0


def proper_violation(graph: PLGraph) -> tuple[int, int, bool] | None:
    """The first pair a < b of edges, in index order, that meet other than
    at a shared vertex, as (a, b, collinear); None on a proper graph.

    Collinear edges violate when an end of one lies strictly inside the
    other.  Other edges meet in at most one point, and a graph's vertices
    are distinct, so they violate exactly when they meet and share no
    vertex."""
    verts, edges = graph.vertices, graph.edges
    for a, (i, j) in enumerate(edges):
        p, q = verts[i], verts[j]
        for b in range(a + 1, len(edges)):
            u, v = edges[b]
            r, s = verts[u], verts[v]
            o1, o2 = _turn(p, q, r), _turn(p, q, s)
            if o1 == o2 == 0:
                if (_strictly_between(r, p, q) or _strictly_between(s, p, q)
                        or _strictly_between(p, r, s)
                        or _strictly_between(q, r, s)):
                    return a, b, True
            elif (o1 * o2 <= 0 and _turn(r, s, p) * _turn(r, s, q) <= 0
                  and not {i, j} & {u, v}):
                return a, b, False
    return None


def phi(t: Fraction) -> Fraction:
    """Distance from t to the nearest integer."""
    frac = t - math.floor(t)
    return min(frac, 1 - frac)


def phi_n(n: int, t: Fraction) -> Fraction:
    """Tent wave with 2^n teeth on [0,1]: dist(t, 2^-n Z)."""
    if n < 0:
        raise ValueError("level must be >= 0")
    return phi(t * 2 ** n) / 2 ** n


def frag_count(len2: Fraction, delta: Fraction) -> int:
    """Least n >= 1 with (edge length / n) <= delta."""
    r = len2 / (delta * delta)
    n = math.isqrt(r.numerator // r.denominator)
    while n * n < r:
        n += 1
    return max(n, 1)


class DeltaClip:
    """Components of the closed eps-ball around `center`, a point (edge, t)
    of the graph, coarsened to fragments no longer than delta.

    Kept fragments merge into runs per edge; runs that reach a common
    vertex (lo == 0 at an edge's first vertex, hi == 1 at its second) are
    joined.
    """

    def __init__(self, graph: PLGraph, center: tuple[int, Fraction],
                 eps2: Fraction, delta: Fraction, work: _Work):
        craw = edge_point(graph, *center).raw()
        en, ed = eps2.numerator, eps2.denominator
        self.runs: dict[int, list[tuple[Fraction, Fraction]]] = {}
        for e, (u, v) in enumerate(graph.edges):
            a, b = graph.vertices[u], graph.vertices[v]
            work.add(1)
            dn, dd = xc.point_seg_dist2(craw, a.raw(), b.raw())
            if dn * ed > en * dd:
                continue
            m = frag_count(dist2(a, b), delta)
            work.add(m)
            kept: list[list[int]] = []
            prev = a
            for j in range(1, m + 1):
                nxt = edge_point(graph, e, Fraction(j, m))
                dn, dd = xc.point_seg_dist2(craw, prev.raw(), nxt.raw())
                if dn * ed <= en * dd:
                    # A fragment next to the last kept one extends its run.
                    if kept and kept[-1][1] == j - 1:
                        kept[-1][1] = j
                    else:
                        kept.append([j - 1, j])
                prev = nxt
            if kept:
                self.runs[e] = [(Fraction(lo, m), Fraction(hi, m))
                                for lo, hi in kept]
        self._sets = UnionFind((e, i) for e, ivs in self.runs.items()
                               for i in range(len(ivs)))
        first_at: dict[int, tuple[int, int]] = {}
        for e, ivs in self.runs.items():
            a, b = graph.edges[e]
            for i, (lo, hi) in enumerate(ivs):
                for v, reaches in ((a, lo == 0), (b, hi == 1)):
                    if reaches:
                        self._sets.union(first_at.setdefault(v, (e, i)),
                                         (e, i))
        self.center_comp = self.component_at(center)

    def component_at(self, p: tuple[int, Fraction]) -> tuple[int, int] | None:
        """Root of the one kept run holding the point (edge, t) (runs are
        disjoint), or None when no kept run does."""
        e, t = p
        for i, (lo, hi) in enumerate(self.runs.get(e, ())):
            if lo <= t <= hi:
                return self._sets.find((e, i))
        return None

    def separates(self, p: tuple[int, Fraction]) -> bool:
        comp = self.component_at(p)
        return comp is None or comp != self.center_comp


# ---------------------------------------------------------------------------
# small-instance oracle


class _SearchCap(Exception):
    pass


def brute_force_oracle(graph: PLGraph, eps: Fraction,
                       budget: Budget | None = None) -> tuple[int, int]:
    """(lower, upper) bracket for tiny hosts, by exhaustion.

    The graph is chopped into fragments no longer than eps/4.
    Upper: exact branch-and-bound set cover over a family of maximal
    connected fragment unions of diameter < eps, grown from every seed.
    Lower: exact branch-and-bound maximum independent set over fragment
    endpoints under the pairwise-separation relation.  Both searches fall
    back to their greedy seeds when the node cap trips, which keeps the
    bracket valid either way; on the small hosts this is meant for, the
    searches run to completion and the bracket is tight at this scale.

    Both sides are independent of the library: the upper side builds its
    own fragment graph, and the lower side decides separation with
    `DeltaClip`, not with the exact clip of `lower_separation` and
    `check_separation`.
    """
    if len(graph.edges) > ORACLE_MAX_EDGES:
        raise SizeLimit(f"{len(graph.edges)} edges exceeds oracle limit "
                        f"{ORACLE_MAX_EDGES}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    work = _Work(budget or Budget())
    eps2 = eps * eps
    en, ed = eps2.numerator, eps2.denominator
    d_eff = eps / 4

    frag_of: list[tuple[int, int]] = []
    frag_pts: list[tuple] = []
    counts: list[int] = []
    index: dict[tuple[int, int], int] = {}
    for e, (a, b) in enumerate(graph.edges):
        m = frag_count(dist2(graph.vertices[a], graph.vertices[b]), d_eff)
        counts.append(m)
        for j in range(m):
            index[(e, j)] = len(frag_of)
            frag_of.append((e, j))
            frag_pts.append((edge_point(graph, e, Fraction(j, m)).raw(),
                             edge_point(graph, e, Fraction(j + 1, m)).raw()))
    nfrag = len(frag_of)
    adj: list[set[int]] = [set() for _ in range(nfrag)]
    touch: dict[int, list[int]] = {}
    for i, (e, j) in enumerate(frag_of):
        if j + 1 < counts[e]:
            k = index[(e, j + 1)]
            adj[i].add(k)
            adj[k].add(i)
        if j == 0:
            touch.setdefault(graph.edges[e][0], []).append(i)
        if j == counts[e] - 1:
            touch.setdefault(graph.edges[e][1], []).append(i)
    for nodes in touch.values():
        for i in nodes:
            for k in nodes:
                if i != k:
                    adj[i].add(k)

    upper = _oracle_upper(frag_pts, adj, en, ed, work)
    lower = _oracle_lower(graph, counts, eps, eps2, d_eff, work)
    return lower, upper


def _oracle_upper(frag_pts, adj, en, ed, work) -> int:
    nfrag = len(frag_pts)

    def grow(seed: int, reverse: bool) -> frozenset:
        chosen = {seed}
        pts = [frag_pts[seed][0], frag_pts[seed][1]]
        changed = True
        while changed:
            changed = False
            frontier = sorted({k for i in chosen for k in adj[i]} - chosen,
                              reverse=reverse)
            for k in frontier:
                qa, qb = frag_pts[k]
                work.add(2 * len(pts))
                if (xc.all_dist2_below(pts, qa, en, ed)
                        and xc.all_dist2_below(pts, qb, en, ed)):
                    chosen.add(k)
                    for q in (qa, qb):
                        if q not in pts:
                            pts.append(q)
                    changed = True
        return frozenset(chosen)

    family: list[frozenset] = []
    seen: set[frozenset] = set()
    for seed in range(nfrag):
        for rev in (False, True):
            s = grow(seed, rev)
            if s not in seen:
                seen.add(s)
                family.append(s)

    # Greedy cover seeds the branch-and-bound incumbent.
    uncovered = set(range(nfrag))
    greedy: list[int] = []
    while uncovered:
        si = max(range(len(family)), key=lambda i: len(family[i] & uncovered))
        greedy.append(si)
        uncovered -= family[si]
    best = [len(greedy)]
    maxsz = max(len(s) for s in family)
    containing: list[list[int]] = [[] for _ in range(nfrag)]
    for si, s in enumerate(family):
        for i in s:
            containing[i].append(si)
    iters = [0]

    def rec(uncov: frozenset, used: int) -> None:
        iters[0] += 1
        if iters[0] > _ORACLE_SEARCH_CAP:
            raise _SearchCap
        if not uncov:
            best[0] = min(best[0], used)
            return
        if used + (len(uncov) + maxsz - 1) // maxsz >= best[0]:
            return
        pivot = min(uncov, key=lambda i: len(containing[i]))
        for si in sorted(containing[pivot],
                         key=lambda si: -len(family[si] & uncov)):
            rec(uncov - family[si], used + 1)

    try:
        rec(frozenset(range(nfrag)), 0)
    except _SearchCap:
        pass
    return best[0]


def _oracle_lower(graph, counts, eps, eps2, d_eff, work) -> int:
    en, ed = eps2.numerator, eps2.denominator
    pts: list[tuple[int, Fraction]] = []
    raws: list = []
    seen: set = set()
    for e, m in enumerate(counts):
        for j in range(m + 1):
            t = Fraction(j, m)
            r = edge_point(graph, e, t).raw()
            if r not in seen:
                seen.add(r)
                pts.append((e, t))
                raws.append(r)
    n = len(pts)
    clips: list[DeltaClip | None] = [None] * n

    def clip(i: int) -> DeltaClip:
        if clips[i] is None:
            clips[i] = DeltaClip(graph, pts[i], eps2, d_eff, work)
        return clips[i]

    conflict: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            work.add(1)
            dn, dd = xc.dist2_q(raws[i], raws[j])
            if dn * ed >= en * dd:
                continue
            if clip(i).separates(pts[j]) or clip(j).separates(pts[i]):
                continue
            conflict[i].add(j)
            conflict[j].add(i)

    order = sorted(range(n), key=lambda i: len(conflict[i]))
    greedy: list[int] = []
    for i in order:
        if all(k not in conflict[i] for k in greedy):
            greedy.append(i)
    best = [len(greedy)]
    iters = [0]

    def rec(avail: list[int], cur: int) -> None:
        iters[0] += 1
        if iters[0] > _ORACLE_SEARCH_CAP:
            raise _SearchCap
        if cur + len(avail) <= best[0]:
            return
        if not avail:
            best[0] = max(best[0], cur)
            return
        v, rest = avail[0], avail[1:]
        rec([u for u in rest if u not in conflict[v]], cur + 1)
        rec(rest, cur)

    try:
        rec(sorted(range(n), key=lambda i: -len(conflict[i])), 0)
    except _SearchCap:
        pass
    return best[0]


def _toward(point: tuple[float, float], scale: float) -> AffineMap2:
    """Similarity contracting by `scale` with the given fixed point."""
    px, py = point
    return AffineMap2(scale, 0.0, 0.0, scale,
                      (1 - scale) * px, (1 - scale) * py)


def sierpinski() -> IFSSpec:
    """Three half-scale maps toward the corners of a unit-side triangle."""
    h = math.sqrt(3) / 2
    return IFSSpec((_toward((0, 0), 0.5), _toward((1, 0), 0.5),
                    _toward((0.5, h), 0.5)), "sierpinski", 1.0)


def cantor_dust() -> IFSSpec:
    """Four quarter-scale maps fixing the unit square's corners."""
    corners = ((0, 0), (1, 0), (0, 1), (1, 1))
    return IFSSpec(tuple(_toward(c, 0.25) for c in corners),
                   "cantor-dust", math.sqrt(2))


def segment_halves() -> IFSSpec:
    """Two half-scale maps whose attractor is the unit segment."""
    return IFSSpec((_toward((0, 0), 0.5), _toward((1, 0), 0.5)),
                   "segment", 1.0)


FIXTURES = {
    "sierpinski": sierpinski,
    "cantor-dust": cantor_dust,
    "segment": segment_halves,
}


def compose(outer: AffineMap2, inner: AffineMap2) -> AffineMap2:
    """outer after inner: x -> A (B x + s) + t."""
    a, b, c, d = outer.a, outer.b, outer.c, outer.d
    return AffineMap2(a * inner.a + b * inner.c, a * inner.b + b * inner.d,
                      c * inner.a + d * inner.c, c * inner.b + d * inner.d,
                      a * inner.e + b * inner.f + outer.e,
                      c * inner.e + d * inner.f + outer.f)


def word_maps(spec: IFSSpec, k: int) -> list[AffineMap2]:
    """The map of every length-k word, leftmost symbol applied last, in
    lexicographic word order: n^k maps from one compose per tree node."""
    level = [AffineMap2(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)]
    for _ in range(k):
        level = [compose(w, m) for w in level for m in spec.maps]
    return level


def hausdorff(a: list[Point], b: list[Point]) -> float:
    """Symmetric Hausdorff distance between two point clouds."""

    def directed(src: list[Point], dst: list[Point]) -> float:
        return max(min((qx - px) * (qx - px) + (qy - py) * (qy - py)
                       for qx, qy in dst)
                   for px, py in src)

    return math.sqrt(max(directed(a, b), directed(b, a)))


_SVG = "{http://www.w3.org/2000/svg}"
_PATH_TOKEN = re.compile(r"[MmLlHh]|-?[0-9]+")


class DecodedSvg(NamedTuple):
    """A rendered document read back, every length in px."""
    height: float
    stroke: float
    markers: list[Point]
    segments: list[tuple[Point, Point]]


def decode_svg(text: str) -> DecodedSvg:
    """Parse a rendered document with `xml.etree.ElementTree` and decode
    its one path.  The px size of a path unit is the viewBox width over
    the `width` attribute.  The path data must be integer moves, the first
    one `M` and every later one `m`, each followed by `h0` (a marker at
    the moved-to point) or by one `l` (a segment from it); anything else
    is an `AssertionError`."""
    root = ET.fromstring(text)
    assert root.tag == _SVG + "svg", root.tag
    vx, vy, vw, vh = map(int, root.get("viewBox").split())
    assert (vx, vy) == (0, 0)
    unit = float(root.get("width")) / vw
    (path,) = root.findall(_SVG + "path")
    assert path.get("stroke-linecap") == "round"
    assert path.get("fill") == "none"
    d = path.get("d")
    assert not _PATH_TOKEN.sub("", d).strip(), "undecoded path data"
    tokens = _PATH_TOKEN.findall(d)
    markers, segments = [], []
    x = y = i = 0
    while i < len(tokens):
        assert tokens[i] == ("M" if i == 0 else "m"), tokens[i]
        x, y = x + int(tokens[i + 1]), y + int(tokens[i + 2])
        start = (x * unit, y * unit)
        if tokens[i + 3] == "h":
            assert tokens[i + 4] == "0"
            markers.append(start)
            i += 5
        else:
            assert tokens[i + 3] == "l", tokens[i + 3]
            x, y = x + int(tokens[i + 4]), y + int(tokens[i + 5])
            segments.append((start, (x * unit, y * unit)))
            i += 6
    return DecodedSvg(vh * unit, int(path.get("stroke-width")) * unit,
                      markers, segments)


def _exact_window(xs, ys, pad: Fraction
                  ) -> tuple[list[Point], float, float]:
    """Positions, height and scale, in px, of points drawn in the window
    around them, in exact arithmetic: the margin is `pad` times the longer
    side of their extent, or 1/2 + `pad` host units when the extent is
    narrower than 1e-9 both ways; the y axis is flipped."""
    xs, ys = list(map(Fraction, xs)), list(map(Fraction, ys))
    x0, y1 = min(xs), max(ys)
    w, h = max(xs) - x0, y1 - min(ys)
    side = max(w, h)
    margin = pad * side if side >= Fraction(1e-9) else Fraction(1, 2) + pad
    scale = 800 / (w + 2 * margin)
    return ([(float((x - x0 + margin) * scale),
              float((y1 - y + margin) * scale)) for x, y in zip(xs, ys)],
            float((h + 2 * margin) * scale), float(scale))


def cloud_positions(points) -> tuple[float, float, list[Point]]:
    """Height, disc diameter and point positions of a rendered cloud, in
    px, unquantized."""
    at, height, _ = _exact_window([p[0] for p in points],
                                  [p[1] for p in points], Fraction(1, 25))
    return height, 2 * max(0.35 * 800.0 / len(points) ** 0.5, 0.6), at


def graph_positions(graph: PLGraph
                    ) -> tuple[float, float, list[tuple[Point, Point]]]:
    """Height, stroke width and edge end positions of a rendered graph,
    in px, unquantized.  The window always holds [0,1] x [0,0.55], and the
    stroke is 0.0018 host units wide and at least 0.5 px."""
    # The corners (0, 0) and (1, 11/20) hold the window open.
    at, height, scale = _exact_window(
        [v.x for v in graph.vertices] + [0, 1],
        [v.y for v in graph.vertices] + [0, Fraction(11, 20)],
        Fraction(1, 50))
    return height, max(0.0018 * scale, 0.5), [(at[i], at[j])
                                              for i, j in graph.edges]
