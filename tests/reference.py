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

`attractor_cloud` is the naive depth-k attractor cloud, all n^k points,
against which the library's level-by-level `attractor_hull` is checked.
`word_maps` composes every length-k word of an IFS into one affine map,
so that tests can measure the word pieces that the library's dimension
bound counts; `hausdorff` measures how far two point clouds are apart.

`edge_point` and `dist2` locate and measure graph points in `Fraction`s,
apart from the library's integer kernel tuples; `points_diameter2` is the
exact diameter of a point set, for checks on cover elements.
`proper_violation` decides whether a graph's edges meet only at shared
vertices by orientation tests alone, apart from the library's `_cuts`.
`phi` and `phi_n` are the paper's tent maps, which the teeth follow.
`v3_rows` expands an upper certificate's rows to the version 3 form,
every element id and every cut written, and `cover_v3_doc` writes it
as cover version 3 did; `cover_v4` rewrites a version 3 document as
version 4, with each new id left out, and `cover_v5` a version 4 one as
version 5, with each stretch of equally spaced cuts as one run.  The
library reads version 5 alone, so hand-written rows stay in the fuller
version 3 form and are read through both, and the golden digests of the
older versions are taken along this path: the version 3 and version 4
digests of a certificate pin its `v3_rows`, piece for piece, whatever version 5
writes.
`separation_v3_doc` writes a lower certificate as separation version 3
did, with the guard member that version carried, so the golden digests
of the older documents keep pinning the points.
`bare` is a host without its builder metadata, whose lower bound holds
for the truncation alone, and `s_bounds` is the certified bracket of a
host as given.
`measure_capped` times one call in a fresh interpreter under the
address-space cap of `tests/run_mutants.py`, for documents that name
far more than they hold: a regression that builds what they name fails
there with a MemoryError instead of growing in the test process.
`FIXTURES` holds three small IFS specs whose diameters are known by hand.

`decode_svg` draws a rendered SVG as a viewer would, expanding each
`<use>` chain and composing its matrices in float64, and reads back its
markers and segments; `cloud_positions` and `graph_positions` give, in
exact arithmetic, the positions in px that the renderer draws.
"""

from __future__ import annotations

import math
import os
import re
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import sdimlab
from sdimlab import exactcore as xc
from sdimlab.continuum import next_amplitude_bound, spec_from_meta
from sdimlab.cover import _Work, lower_separation, upper_cover
from sdimlab.errors import SizeLimit
from sdimlab.geom import PLGraph, UnionFind, format_rational
from sdimlab.geom import Point as GeomPoint
from sdimlab.ifs import AffineMap2, IFSSpec, Point
from sdimlab.limits import Budget

ORACLE_MAX_EDGES = 12
_ORACLE_SEARCH_CAP = 300_000
# The address-space cap of `tests/run_mutants.py`.
CHILD_MEMORY_B = 2 << 30


def edge_point(graph: PLGraph, e: int, t: Fraction) -> GeomPoint:
    """Point at parameter t in [0, 1] along edge e."""
    i, j = graph.edges[e]
    a, b = graph.vertices[i], graph.vertices[j]
    return GeomPoint(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


def dist2(p: GeomPoint, q: GeomPoint) -> Fraction:
    """Squared Euclidean distance."""
    return (p.x - q.x) ** 2 + (p.y - q.y) ** 2


def measure_capped(setup: str, call: str) -> tuple[str, str, float, int]:
    """Run `setup`, then evaluate the expression `call`, in a fresh
    interpreter that imports sdimlab from this tree, under an address
    space of `CHILD_MEMORY_B`.  Returns what the child printed, the repr
    of the call's value, and the call's seconds and `tracemalloc` peak in
    bytes; the setup's imports are not counted."""
    src = str(Path(sdimlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = (f"import time, tracemalloc\n{setup}\n"
            "tracemalloc.start()\n"
            "t0 = time.perf_counter()\n"
            f"value = {call}\n"
            "seconds = time.perf_counter() - t0\n"
            "peak = tracemalloc.get_traced_memory()[1]\n"
            "print(repr(value), seconds, peak)\n")

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS,
                           (CHILD_MEMORY_B, CHILD_MEMORY_B))

    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120,
                         preexec_fn=cap)
    assert res.returncode == 0, res.stderr[-2000:]
    *printed, last = res.stdout.splitlines()
    value, seconds, peak = last.rsplit(" ", 2)
    return "\n".join(printed), value, float(seconds), int(peak)


def v3_rows(cert) -> tuple[tuple, ...]:
    """`cert`'s rows as cover version 3 held them in memory, every id
    written and every run as its cuts: `(k0, c1, k1, ..., cm, km)`, with
    `Fraction` cuts."""
    count, rows = 0, []
    for row in cert.pieces:
        out, k, prev = [], None, Fraction(0)
        for x in row:
            if type(x) is int:
                k = x
                continue
            if type(x) is tuple:
                cuts = [prev + i * x[0] for i in range(1, x[1] + 1)]
            else:
                cuts = [x]
            for prev in cuts:
                if k is None:
                    k, count = count, count + 1
                out += (k, prev)
                k = None
        if k is None:
            k, count = count, count + 1
        rows.append((*out, k))
    return tuple(rows)


def cover_v3_doc(cert) -> dict:
    """The cover version 3 document of `cert`: its `v3_rows`, with the
    cuts as strings."""
    rows = [[str(x) if i % 2 else x for i, x in enumerate(row)]
            for row in v3_rows(cert)]
    return {**cert.to_json_dict(), "version": 3, "pieces": rows}


def cover_v4(doc: dict) -> dict:
    """A cover version 3 document as version 4: each id that equals the
    count of ids seen so far is left out, and every other item, valid or
    not, stays where it is."""
    count, rows = 0, []
    for row in doc["pieces"]:
        out = []
        for i, x in enumerate(row):
            if i % 2 == 0 and type(x) is int and x == count:
                count += 1
            else:
                out.append(x)
        rows.append(out)
    return {**doc, "version": 4, "pieces": rows}


def cover_v5(doc: dict) -> dict:
    """A cover version 4 document as version 5: left to right, each
    longest stretch of two or more cuts with equal steps and no id
    between them is one run [step, n], the step taken from the cut
    before the stretch, or 0.  Every other item, valid or not, stays
    where it is; an item that is not a rational string ends a stretch,
    and the steps after it are taken from the last cut that is one."""
    def cut(x):
        try:
            return Fraction(x) if type(x) is str else None
        except (ValueError, ZeroDivisionError):
            return None

    rows = []
    for row in doc["pieces"]:
        out, prev, i = [], Fraction(0), 0
        while i < len(row):
            c = cut(row[i])
            if c is None:
                out.append(row[i])
                i += 1
                continue
            j = i + 1
            while (j < len(row) and cut(row[j]) is not None
                   and cut(row[j]) - cut(row[j - 1]) == c - prev):
                j += 1
            out.append([str(c - prev), j - i] if j - i >= 2 else row[i])
            prev, i = cut(row[j - 1]), j
        rows.append(out)
    return {**doc, "version": 5, "pieces": rows}


def separation_v3_doc(cert, host: PLGraph, guarded: bool) -> dict:
    """The separation version 3 document of `cert`'s points as it was
    written on `host`: version 4's members, `host`'s graph id, and a guard
    member that holds the truncation index of `host`'s builder metadata,
    its amplitude bound and the threshold at `cert`'s scale when
    `guarded`, else null."""
    guard = None
    if guarded:
        spec = spec_from_meta(host.meta)
        bound = next_amplitude_bound(spec)
        guard = {"K": spec.K, "amplitude_bound": format_rational(bound),
                 "threshold": format_rational(bound + cert.epsilon)}
    return {**cert.to_json_dict(), "version": 3,
            "graph_id": host.graph_id(), "guard": guard}


def bare(graph: PLGraph) -> PLGraph:
    """`graph` without its metadata: a plain host, checked for
    properness, whose lower bound holds for the truncation alone."""
    return PLGraph(graph.vertices, graph.edges)


def s_bounds(graph: PLGraph, eps: Fraction) -> tuple[int, int]:
    """The certified bracket (lower, upper) of the greedy bounds on
    `graph` as given, lower guarded on a builder host."""
    low = len(lower_separation(graph, eps))
    up = upper_cover(graph, eps).count
    assert low <= up
    return low, up


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


def attractor_cloud(spec: IFSSpec, depth: int) -> list[Point]:
    """Every length-`depth` word applied to the first map's fixed point,
    n^depth points in lexicographic word order, leftmost symbol applied
    last: every image under map 0, then every image under map 1, and so
    on.  Each point is formed by `AffineMap2.apply`, as the library forms
    the points of `attractor_hull`; no budget, no finiteness check."""
    pts = [spec.maps[0].fixed_point()]
    for _ in range(depth):
        pts = [q for m in spec.maps for q in m.apply(pts)]
    return pts


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
_HREF = "{http://www.w3.org/1999/xlink}href"
_PATH_TOKEN = re.compile(r"[MmLlHh]|-?[0-9]+")
_MATRIX = re.compile(r"matrix\(([^()]*)\)")
_IDENTITY = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)


class DecodedSvg(NamedTuple):
    """A rendered document read back, every length in px."""
    height: float
    stroke: float
    markers: list[Point]
    segments: list[tuple[Point, Point]]


def _then(ctm: tuple, transform: str | None) -> tuple:
    """The current transformation matrix `ctm` followed by one
    `matrix(a b c d e f)`, which maps (x, y) to (a x + c y + e,
    b x + d y + f), composed in float64 as a viewer composes them."""
    if transform is None:
        return ctm
    m = _MATRIX.fullmatch(transform)
    assert m, transform
    a, b, c, d, e, f = map(float, m[1].split())
    p, q, r, s, t, u = ctm
    return (p * a + r * b, q * a + s * b, p * c + r * d, q * c + s * d,
            p * e + r * f + t, q * e + s * f + u)


def decode_svg(text: str) -> DecodedSvg:
    """Parse a rendered document with `xml.etree.ElementTree` and draw it
    as a viewer would: every `<path>` outside `<defs>`, and every `<use>`
    chain down to a `<path>` inside it, composing each element's
    `transform` into the current matrix.

    The px size of a viewBox unit is the viewBox width over the `width`
    attribute.  Path data must be integer moves, the first one `M` and
    every later one `m`, each followed by `h0` (a marker at the moved-to
    point) or by one `l` (a segment from it).  Every drawn path must be
    filled with none and round-capped, and all of them stroked alike.  A
    `vector-effect="non-scaling-stroke"` path's stroke width is in px;
    any other path's is in viewBox units and takes no transform.
    Anything else is an `AssertionError`."""
    root = ET.fromstring(text)
    assert root.tag == _SVG + "svg", root.tag
    vx, vy, vw, vh = map(int, root.get("viewBox").split())
    assert (vx, vy) == (0, 0)
    unit = float(root.get("width")) / vw
    defs = {el.get("id"): el for el in root.iter() if el.get("id")}
    markers, segments, strokes = [], [], set()

    def place(ctm: tuple, x: int, y: int) -> Point:
        a, b, c, d, e, f = ctm
        return ((a * x + c * y + e) * unit, (b * x + d * y + f) * unit)

    def draw(el, ctm: tuple, style: dict) -> None:
        style = {**style, **{k: v for k, v in el.attrib.items()
                             if k in ("fill", "stroke-width",
                                      "stroke-linecap")}}
        ctm = _then(ctm, el.get("transform"))
        if el.tag == _SVG + "g":
            for child in el:
                draw(child, ctm, style)
        elif el.tag == _SVG + "use":
            draw(defs[el.get(_HREF).removeprefix("#")], ctm, style)
        elif el.tag == _SVG + "path":
            assert style.get("stroke-linecap") == "round"
            assert style.get("fill") == "none"
            if el.get("vector-effect") == "non-scaling-stroke":
                strokes.add(float(style["stroke-width"]))
            else:
                assert ctm == _IDENTITY, ctm
                strokes.add(int(style["stroke-width"]) * unit)
            d = el.get("d")
            assert not _PATH_TOKEN.sub("", d).strip(), "undecoded path data"
            tokens = _PATH_TOKEN.findall(d)
            x = y = i = 0
            while i < len(tokens):
                assert tokens[i] == ("M" if i == 0 else "m"), tokens[i]
                x, y = x + int(tokens[i + 1]), y + int(tokens[i + 2])
                start = place(ctm, x, y)
                if tokens[i + 3] == "h":
                    assert tokens[i + 4] == "0"
                    markers.append(start)
                    i += 5
                else:
                    assert tokens[i + 3] == "l", tokens[i + 3]
                    x, y = x + int(tokens[i + 4]), y + int(tokens[i + 5])
                    segments.append((start, place(ctm, x, y)))
                    i += 6
        else:
            assert el.tag in (_SVG + "rect", _SVG + "defs"), el.tag

    for el in root:
        draw(el, _IDENTITY, {})
    (stroke,) = strokes
    return DecodedSvg(vh * unit, stroke, markers, segments)


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


def cloud_positions(points) -> tuple[float, float, list[Point], float]:
    """Height, disc diameter and point positions of a rendered cloud, in
    px, unquantized, and the scale in px per host unit."""
    at, height, scale = _exact_window([p[0] for p in points],
                                      [p[1] for p in points], Fraction(1, 25))
    return (height, 2 * max(0.35 * 800.0 / len(points) ** 0.5, 0.6), at,
            scale)


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
