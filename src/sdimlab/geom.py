"""Exact piecewise-linear plane geometry.

All coordinates are rationals (`fractions.Fraction`); nothing in this module
ever rounds.  Squared distances are used throughout so no square roots are
formed.  The central object is `PLGraph`, a plane graph produced by
`arrange`, which resolves all pairwise segment intersections into vertices.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Hashable, Iterable, NamedTuple, Sequence

from . import exactcore as xc
from .errors import DisconnectedInput, EmptySubset, OverlapError, ParseError
from .limits import Budget

# The interpreter's own SHA-256, as `random` takes its SHA-512: `hashlib`
# maps OpenSSL, which costs every command several MB and milliseconds.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

FORMAT_NAME = "sdimlab/plgraph"
FORMAT_VERSION = 1


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or integer 'p'. Decimal and float forms are rejected."""
    if not isinstance(text, str):
        raise ParseError(f"not a rational: {text!r}")
    s = text.strip()
    body = s[1:] if s[:1] in "+-" else s
    num, slash, den = body.partition("/")
    if not num.isdigit() or (slash and not den.isdigit()):
        raise ParseError(f"not a rational: {text!r}")
    try:
        value = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {text!r}") from exc
    return value


def parse_index(value) -> int:
    """A JSON integer, as an index or count is written.  Floats, bools and
    strings are rejected rather than converted."""
    if type(value) is not int:
        raise ParseError(f"not an integer: {value!r}")
    return value


def format_rational(q: Fraction) -> str:
    return str(q)


class Point(NamedTuple):
    x: Fraction
    y: Fraction

    def raw(self) -> tuple[int, int, int, int]:
        """Kernel representation (xn, xd, yn, yd)."""
        return (self.x.numerator, self.x.denominator,
                self.y.numerator, self.y.denominator)


def point(x, y) -> Point:
    return Point(Fraction(x), Fraction(y))


class Segment(NamedTuple):
    a: Point
    b: Point


def segment(a: Point, b: Point) -> Segment:
    if a == b:
        raise ValueError(f"degenerate segment at {a}")
    return Segment(a, b)


def dist2(p: Point, q: Point) -> Fraction:
    """Squared Euclidean distance."""
    n, d = xc.dist2_q(p.raw(), q.raw())
    return Fraction(n, d)


def points_diameter2(points: Sequence[Point]) -> Fraction:
    """Max pairwise squared distance; EmptySubset when no points."""
    if not points:
        raise EmptySubset("diameter of the empty set")
    n, d = xc.max_pair_dist2([p.raw() for p in points])
    return Fraction(n, d)


def merge_intervals(intervals: Iterable[tuple]) -> list[tuple]:
    """Union of closed intervals (lo, hi) as sorted disjoint intervals.

    Intervals that overlap or touch merge, and a point interval lo == hi
    is kept.
    """
    merged: list[tuple] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


class UnionFind:
    """Disjoint sets over hashable keys, with path halving."""

    def __init__(self, keys: Iterable[Hashable] = ()):
        self._parent = {k: k for k in keys}

    def add(self, k: Hashable) -> None:
        self._parent.setdefault(k, k)

    def find(self, k: Hashable) -> Hashable:
        parent = self._parent
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    def union(self, a: Hashable, b: Hashable) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb

    def count(self) -> int:
        """Number of disjoint sets."""
        return len({self.find(k) for k in self._parent})


class PLGraph:
    """Immutable plane graph: vertices, undirected edges as index pairs.

    Invariants: coordinates pairwise distinct, no duplicate edges, edges
    intersect only at shared endpoints (guaranteed by `arrange`), connected.
    """

    def __init__(self, vertices: Sequence[Point], edges: Sequence[tuple[int, int]],
                 meta: dict | None = None):
        self.vertices: tuple[Point, ...] = tuple(vertices)
        self.edges: tuple[tuple[int, int], ...] = tuple(
            (min(i, j), max(i, j)) for i, j in edges)
        self.meta: dict = dict(meta or {})
        self._validate_cheap()
        self._incident: list[list[tuple[int, int]]] | None = None
        self._id: str | None = None

    def _validate_cheap(self) -> None:
        seen: set[Point] = set()
        for v in self.vertices:
            if v in seen:
                raise ValueError(f"duplicate vertex {v}")
            seen.add(v)
        eset: set[tuple[int, int]] = set()
        n = len(self.vertices)
        for i, j in self.edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range")
            if i == j:
                raise ValueError(f"self-loop at {i}")
            if (i, j) in eset:
                raise ValueError(f"duplicate edge ({i},{j})")
            eset.add((i, j))

    # -- geometry ---------------------------------------------------------

    def edge_endpoints(self, e: int) -> tuple[Point, Point]:
        i, j = self.edges[e]
        return self.vertices[i], self.vertices[j]

    def edge_point(self, e: int, t: Fraction) -> Point:
        """Point at parameter t in [0, 1] along edge e."""
        a, b = self.edge_endpoints(e)
        return Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))

    def edge_length2(self, e: int) -> Fraction:
        a, b = self.edge_endpoints(e)
        return dist2(a, b)

    def incident(self, v: int) -> list[tuple[int, int]]:
        """Edges at vertex v as (edge id, endpoint param 0 or 1)."""
        if self._incident is None:
            inc: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
            for e, (i, j) in enumerate(self.edges):
                inc[i].append((e, 0))
                inc[j].append((e, 1))
            self._incident = inc
        return self._incident[v]

    def is_connected(self) -> bool:
        sets = UnionFind(range(len(self.vertices)))
        for i, j in self.edges:
            sets.union(i, j)
        return sets.count() <= 1

    def validate_proper(self) -> None:
        """Full O(E^2) check that edges meet only at shared endpoints."""
        pts = [(self.vertices[i], self.vertices[j]) for i, j in self.edges]
        m = len(pts)
        for a in range(m):
            pa, qa = pts[a]
            ra, rqa = pa.raw(), qa.raw()
            for b in range(a + 1, m):
                pb, qb = pts[b]
                hit = xc.seg_intersection(ra, rqa, pb.raw(), qb.raw())
                if hit[0] == 2:
                    # Lexicographic order is monotone along any fixed line,
                    # so interval overlap can be tested on the points.
                    lo_a, hi_a = sorted((pa, qa))
                    lo_b, hi_b = sorted((pb, qb))
                    if max(lo_a, lo_b) < min(hi_a, hi_b):
                        raise OverlapError(f"edges {a} and {b} overlap")
                elif hit[0] == 1:
                    tn, td, un, ud = hit[5], hit[6], hit[7], hit[8]
                    t_end = tn == 0 or tn == td
                    u_end = un == 0 or un == ud
                    if not (t_end and u_end):
                        raise ValueError(f"edges {a} and {b} cross improperly")

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "vertices": [[format_rational(v.x), format_rational(v.y)]
                         for v in self.vertices],
            "edges": [list(e) for e in self.edges],
            "meta": self.meta,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PLGraph":
        if not isinstance(data, dict) or data.get("format") != FORMAT_NAME:
            raise ParseError("not a plane-graph document")
        if data.get("version") != FORMAT_VERSION:
            raise ParseError(f"unsupported version {data.get('version')!r}")
        try:
            vertices = [Point(parse_rational(x), parse_rational(y))
                        for x, y in data["vertices"]]
            edges = [(parse_index(i), parse_index(j))
                     for i, j in data["edges"]]
            meta = data.get("meta", {})
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed graph document: {exc}") from exc
        if not isinstance(meta, dict):
            raise ParseError("graph meta is not a JSON object")
        # A cover element names points by edge, so a host needs an edge.
        if not edges:
            raise ParseError("host graph has no edges")
        try:
            graph = cls(vertices, edges, meta)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        # The bounds are about continua; a disconnected host is not one.
        if not graph.is_connected():
            raise DisconnectedInput("host graph is not connected")
        return graph

    def graph_id(self) -> str:
        """Stable content hash used to tie certificates to their host."""
        if self._id is None:
            blob = json.dumps(self.to_json_dict(), sort_keys=True,
                              separators=(",", ":")).encode()
            self._id = _sha256(blob).hexdigest()[:16]
        return self._id


def _primitive_direction(a: Point, b: Point) -> tuple[int, int]:
    """Integer direction vector in lowest terms with canonical sign."""
    dx, dy = b.x - a.x, b.y - a.y
    scale = dx.denominator * dy.denominator // math.gcd(dx.denominator,
                                                        dy.denominator)
    ix, iy = int(dx * scale), int(dy * scale)
    g = math.gcd(ix, iy)
    ix, iy = ix // g, iy // g
    if ix < 0 or (ix == 0 and iy < 0):
        ix, iy = -ix, -iy
    return ix, iy


def arrange(segments: Iterable[Segment], meta: dict | None = None,
            budget: Budget | None = None) -> PLGraph:
    """Resolve pairwise intersections of segments into a plane graph.

    Collinear inputs on a common line are merged through a per-line interval
    union, never rejected; every original endpoint and every cross-line
    intersection point becomes a vertex.  All-pairs testing keeps this exact
    and simple, which is the intended operating point (thousands of
    segments, not millions).
    """
    budget = budget or Budget()
    segs = [segment(s.a, s.b) for s in segments]
    if not segs:
        raise ValueError("no segments")

    # Group by supporting line: key = primitive direction + line offset.
    lines: dict[tuple[int, int, Fraction], dict] = {}
    for s in segs:
        ix, iy = _primitive_direction(s.a, s.b)
        offset = iy * s.a.x - ix * s.a.y
        key = (ix, iy, offset)
        entry = lines.setdefault(key, {"dir": (ix, iy), "spans": [],
                                       "marks": {}})

        def param(p: Point, d=(ix, iy)) -> Fraction:
            return d[0] * p.x + d[1] * p.y

        sa, sb = param(s.a), param(s.b)
        if sa > sb:
            sa, sb, s = sb, sa, Segment(s.b, s.a)
        entry["spans"].append((sa, sb))
        entry["marks"][sa] = s.a
        entry["marks"][sb] = s.b

    # Per line: merge the span union (collinear overlap handling).
    for entry in lines.values():
        entry["merged"] = merge_intervals(entry["spans"])

    # Maximal spans as concrete segments for the cross-line pass.
    line_list = list(lines.values())
    hull_segs: list[tuple[int, Point, Point]] = []
    for li, entry in enumerate(line_list):
        ix, iy = entry["dir"]
        for lo, hi in entry["merged"]:
            pa, pb = _line_point(entry, lo), _line_point(entry, hi)
            hull_segs.append((li, pa, pb))

    n = len(hull_segs)
    budget.check_pairs(n * (n - 1) // 2)
    for a in range(n):
        la, pa, qa = hull_segs[a]
        ra, rqa = pa.raw(), qa.raw()
        for b in range(a + 1, n):
            lb, pb, qb = hull_segs[b]
            if la == lb:
                continue
            hit = xc.seg_intersection(ra, rqa, pb.raw(), qb.raw())
            if hit[0] == 2:
                # Same line under distinct keys cannot happen; guard anyway.
                raise OverlapError("unmerged collinear overlap")
            if hit[0] == 1:
                p = Point(Fraction(hit[1], hit[2]), Fraction(hit[3], hit[4]))
                for li in (la, lb):
                    entry = line_list[li]
                    ix, iy = entry["dir"]
                    entry["marks"][ix * p.x + iy * p.y] = p

    # Emit edges: consecutive marks inside each covered interval.
    vertex_index: dict[Point, int] = {}
    vertices: list[Point] = []
    edge_set: set[tuple[int, int]] = set()

    def vid(p: Point) -> int:
        if p not in vertex_index:
            vertex_index[p] = len(vertices)
            vertices.append(p)
        return vertex_index[p]

    for entry in line_list:
        marks = sorted(entry["marks"])
        for lo, hi in entry["merged"]:
            inside = [m for m in marks if lo <= m <= hi]
            for s0, s1 in zip(inside, inside[1:]):
                i, j = vid(entry["marks"][s0]), vid(entry["marks"][s1])
                edge_set.add((min(i, j), max(i, j)))

    budget.check_edges(len(edge_set))
    order = sorted(range(len(vertices)), key=lambda k: vertices[k])
    rank = {old: new for new, old in enumerate(order)}
    vertices = [vertices[old] for old in order]
    edges = sorted((min(rank[i], rank[j]), max(rank[i], rank[j]))
                   for i, j in edge_set)
    graph = PLGraph(vertices, edges, meta)
    if not graph.is_connected():
        raise DisconnectedInput("input segments form a disconnected set")
    return graph


def _line_point(entry: dict, s: Fraction) -> Point:
    """Recover the concrete point for parameter s on a grouped line."""
    if s in entry["marks"]:
        return entry["marks"][s]
    # Derive from any marked point: moving 1 in parameter moves dir/|dir|^2.
    ix, iy = entry["dir"]
    s0, p0 = next(iter(entry["marks"].items()))
    norm = Fraction(ix * ix + iy * iy)
    t = (s - s0) / norm
    return Point(p0.x + t * ix, p0.y + t * iy)
