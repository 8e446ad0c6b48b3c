"""Exact piecewise-linear plane geometry.

All coordinates are rationals (`fractions.Fraction`); nothing in this module
ever rounds.  Squared distances are used throughout so no square roots are
formed.  The central object is `PLGraph`, a plane graph whose edges meet
only at shared vertices.  `arrange` makes one from any segment soup by
resolving every pairwise intersection into a vertex; the shark-teeth
builder writes its graphs out directly, and a host read from a file is
checked by `validate_proper` before a lower bound is claimed on it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Hashable, Iterable, NamedTuple, Sequence

from . import exactcore as xc
from .errors import DisconnectedInput, ParseError, expect_format
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
    # `isdigit` and `Fraction` both accept non-ASCII digits.
    if not body.isascii() or not num.isdigit() or (
            slash and not den.isdigit()):
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


def parse_pair(value) -> list:
    """A JSON array of two items, as a vertex or an edge is written.  A
    string, an object or any other iterable is rejected, not unpacked."""
    if type(value) is not list or len(value) != 2:
        raise ParseError(f"not a pair: {value!r}")
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


def _cuts(segs: Sequence[tuple[Point, Point]]):
    """Every pair a < b of segments where one holds a point of the other
    strictly inside it, as (a, b, collinear, points).

    The points are the crossing point, or, for collinear segments, the
    endpoints of each that lie strictly inside the other.  Segments that
    are apart, or meet at an endpoint of both, yield nothing.
    """
    ps = [p.raw() for p, _ in segs]
    qs = [q.raw() for _, q in segs]
    # Lexicographic order is monotone along any fixed line, so the
    # collinear tests compare points.
    spans = [(min(p, q), max(p, q)) for p, q in segs]
    for a in range(len(segs)):
        pa, qa = ps[a], qs[a]
        lo_a, hi_a = spans[a]
        for b in range(a + 1, len(segs)):
            hit = xc.seg_intersection(pa, qa, ps[b], qs[b])
            if hit[0] == 1:
                tn, td, un, ud = hit[5], hit[6], hit[7], hit[8]
                if not (tn in (0, td) and un in (0, ud)):
                    yield a, b, False, (Point(Fraction(hit[1], hit[2]),
                                              Fraction(hit[3], hit[4])),)
            elif hit[0] == 2:
                lo_b, hi_b = spans[b]
                points = ([p for p in spans[b] if lo_a < p < hi_a]
                          + [p for p in spans[a] if lo_b < p < hi_b])
                if points:
                    yield a, b, True, points


class UnionFind:
    """Disjoint sets over hashable keys, with path halving."""

    def __init__(self, keys: Iterable[Hashable]):
        self._parent = {k: k for k in keys}

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
    intersect only at shared endpoints, connected.  The constructor checks
    only the first two; `validate_proper` checks the third, which `arrange`
    and the shark-teeth builder guarantee by construction.
    """

    def __init__(self, vertices: Sequence[Point], edges: Sequence[tuple[int, int]],
                 meta: dict | None = None):
        self.vertices: tuple[Point, ...] = tuple(vertices)
        self.edges: tuple[tuple[int, int], ...] = tuple(
            (min(i, j), max(i, j)) for i, j in edges)
        self.meta: dict = dict(meta or {})
        self._validate_cheap()
        self._incident: list[list[tuple[int, int]]] | None = None
        self._raw: tuple[tuple[int, int, int, int], ...] | None = None
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

    def edge_raw(self, e: int, t: Fraction) -> tuple[int, int, int, int]:
        """Kernel tuple of the point at parameter t in [0, 1] along edge e,
        computed in integers: the point is (1 - t) a + t b, with t = tn/td,
        over the denominators of a and b.  It equals the test reference's
        `edge_point(graph, e, t).raw()`, which computes in `Fraction`s."""
        i, j = self.edges[e]
        verts = self.raw_vertices()
        a, b = verts[i], verts[j]
        tn, td = t.numerator, t.denominator
        xn, xd = xc.norm_q((td - tn) * a[0] * b[1] + tn * b[0] * a[1],
                           td * a[1] * b[1])
        yn, yd = xc.norm_q((td - tn) * a[2] * b[3] + tn * b[2] * a[3],
                           td * a[3] * b[3])
        return xn, xd, yn, yd

    def edge_length2(self, e: int) -> Fraction:
        i, j = self.edges[e]
        verts = self.raw_vertices()
        return Fraction(*xc.dist2_q(verts[i], verts[j]))

    def raw_vertices(self) -> tuple[tuple[int, int, int, int], ...]:
        """Every vertex in kernel representation, computed once."""
        if self._raw is None:
            self._raw = tuple(v.raw() for v in self.vertices)
        return self._raw

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
        verts = self.vertices
        for a, b, collinear, _ in _cuts([(verts[i], verts[j])
                                         for i, j in self.edges]):
            if collinear:
                raise ValueError(f"edges {a} and {b} overlap")
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
        expect_format(data, FORMAT_NAME, FORMAT_VERSION)
        try:
            vertices = [Point(*map(parse_rational, parse_pair(v)))
                        for v in data["vertices"]]
            edges = [tuple(map(parse_index, parse_pair(e)))
                     for e in data["edges"]]
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


def arrange(segments: Iterable[Segment], meta: dict | None = None,
            budget: Budget | None = None) -> PLGraph:
    """Resolve pairwise intersections of segments into a plane graph.

    Each segment is cut at its endpoints and at every point that `_cuts`
    finds inside it, so collinear overlaps merge, never rejected; its
    edges join consecutive cuts.  All-pairs testing keeps this exact and
    simple, which is the intended operating point (thousands of segments,
    not millions).
    """
    budget = budget or Budget()
    segs = [segment(s.a, s.b) for s in segments]
    if not segs:
        raise ValueError("no segments")
    n = len(segs)
    budget.check_pairs(n * (n - 1) // 2)
    cuts = [set(s) for s in segs]
    for a, b, _, points in _cuts(segs):
        cuts[a].update(points)
        cuts[b].update(points)
    vertices = sorted(set().union(*cuts))
    index = {p: k for k, p in enumerate(vertices)}
    edge_set: set[tuple[int, int]] = set()
    for c in cuts:
        ids = [index[p] for p in sorted(c)]
        edge_set.update(zip(ids, ids[1:]))
    budget.check_edges(len(edge_set))
    graph = PLGraph(vertices, sorted(edge_set), meta)
    if not graph.is_connected():
        raise DisconnectedInput("input segments form a disconnected set")
    return graph
