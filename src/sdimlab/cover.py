"""Certified bounds on connected-cover numbers of plane graphs.

For a compact set X and scale eps, the quantity of interest is the least
number of connected subsets of diameter strictly below eps that cover X.
Everything here brackets that number for a `PLGraph` host:

  * `upper_cover` produces a `CoverCertificate`, an explicit list of
    connected edge-fragment unions whose diameters are verified below eps
    and whose fragments cover every edge.  In a document each element is
    an array of `[edge, lo, hi]` fragments; a lone point, a vertex
    included, is a fragment with lo == hi.  A piece ends each stretch at
    its exact reach, rounded down onto a dyadic grid in integers.  The
    greedy covers a prefix and a suffix of each edge, so two ends per edge
    hold all that it has covered.
  * `lower_separation` produces a `SeparationCertificate`, a list of points
    no two of which any single admissible piece can contain.  The document
    is the points alone.  A pair at distance >= eps needs nothing more; for
    a pair closer than eps, the closed eps-ball around one of the two,
    clipped to the graph, must put the other outside its component.  The
    checker recomputes both in `_scan_apart`, the greedy's own loop.

The clip is exact: a closed ball is convex, so it meets each edge in one
closed interval or not at all, and on a proper host two such intervals
meet only at a shared vertex inside the ball.  Its components are then a
union-find over the edges that reach the ball, joined at those vertices
by `_joined_runs`, which joins the runs of a cover element too.

Certificates are self-contained and re-checkable; `check_cover` and
`check_separation` recompute every claim from scratch with exact rational
arithmetic.  A `TruncationGuard` extends a separation certificate from a
finite shark-teeth truncation to the full continuum: when every chosen
point sits at height >= (omitted amplitude bound) + eps, the omitted teeth
cannot enter any relevant open eps-ball, so the clips remain valid
ambiently.  `truncation_guard` is the one host check: it proves the host
proper, by rebuild or by `PLGraph.validate_proper`, and computes its
guard, for the CLI, the sweep and the checker alike.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from . import exactcore as xc
from .errors import (EmptySubset, HostMismatch, OverlapError, ParseError,
                     VerificationFailure)
from .geom import (PLGraph, UnionFind, format_rational, merge_intervals,
                   parse_index, parse_rational)
from .limits import Budget

COVER_FORMAT = "sdimlab/cover"
COVER_VERSION = 2
SEPARATION_FORMAT = "sdimlab/separation"
SEPARATION_VERSION = 3


class _Work:
    """Cumulative exact-arithmetic operation counter tied to a budget."""

    def __init__(self, budget: Budget):
        self.budget = budget
        self.total = 0

    def add(self, n: int) -> None:
        self.total += n
        self.budget.check_pairs(self.total)


# ---------------------------------------------------------------------------
# certificate data types


@dataclass(frozen=True, slots=True)
class EdgeFragment:
    """Closed piece of one edge, parameters 0 <= lo <= hi <= 1.

    lo == hi is allowed and denotes a single point of the edge, such as a
    vertex at one of its ends; the cover builder never emits these, but
    hand-written certificates may.
    """
    edge: int
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi <= 1):
            raise ValueError(f"bad fragment [{self.lo}, {self.hi}]")


@dataclass(frozen=True, slots=True)
class SubSet:
    """Union of edge fragments; one cover element.

    Every vertex of a loaded host is an edge end, so a fragment can name
    any point of the graph and no other kind of member is needed.
    """
    fragments: tuple[EdgeFragment, ...]

    def is_connected(self, graph: PLGraph) -> bool:
        """Set connectivity: fragments touch iff they share a point.

        Fragments of distinct edges can only meet at a graph vertex, so
        the merged runs per edge, joined at shared vertices, decide it.
        """
        if not self.fragments:
            raise EmptySubset("element has no fragments")
        runs: dict[int, list[tuple[Fraction, Fraction]]] = {}
        for f in self.fragments:
            runs.setdefault(f.edge, []).append((f.lo, f.hi))
        ends = {e: [(lo == 0, hi == 1) for lo, hi in merge_intervals(ivs)]
                for e, ivs in runs.items()}
        return _joined_runs(graph, ends).count() == 1


@dataclass(frozen=True)
class CoverCertificate:
    epsilon: Fraction
    elements: tuple[SubSet, ...]
    graph_id: str

    def __len__(self) -> int:
        return len(self.elements)

    def json_members(self) -> dict:
        """The document's members; `elements` is an iterator that
        serializes one element per step, for a streaming writer."""
        return {
            "format": COVER_FORMAT,
            "version": COVER_VERSION,
            "graph_id": self.graph_id,
            "epsilon": format_rational(self.epsilon),
            "elements": map(_subset_to_json, self.elements),
        }

    def to_json_dict(self) -> dict:
        doc = self.json_members()
        doc["elements"] = list(doc["elements"])
        return doc

    @classmethod
    def from_json_dict(cls, data) -> "CoverCertificate":
        """Read a decoded document, or its members as
        `certificate_from_json_dict` takes them."""
        return cls._from_fields(_read_fields(data))

    @classmethod
    def _from_fields(cls, fields: dict) -> "CoverCertificate":
        _expect_format(fields, COVER_FORMAT, COVER_VERSION)
        try:
            return cls(parse_rational(fields["epsilon"]), fields["elements"],
                       str(fields["graph_id"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed cover certificate: {exc}") from exc


def _subset_to_json(el: SubSet) -> list:
    return [[f.edge, format_rational(f.lo), format_rational(f.hi)]
            for f in sorted(el.fragments, key=lambda f: (f.edge, f.lo, f.hi))]


def _subset_from_json(el: list) -> SubSet:
    if not isinstance(el, list) or not all(isinstance(f, list) for f in el):
        raise TypeError("an element is an array of [edge, lo, hi] arrays")
    frags = [EdgeFragment(parse_index(e), parse_rational(lo),
                          parse_rational(hi))
             for e, lo, hi in el]
    frags.sort(key=lambda f: (f.edge, f.lo, f.hi))
    return SubSet(tuple(frags))


@dataclass(frozen=True, slots=True)
class GraphPoint:
    """Point on a plane graph: parameter t in [0, 1] along an edge."""
    edge: int
    t: Fraction

    def __post_init__(self):
        if not (0 <= self.t <= 1):
            raise ValueError(f"parameter {self.t} outside [0, 1]")


@dataclass(frozen=True)
class TruncationGuard:
    """Ambient validity marker for shark-teeth hosts.

    `k` is the number of teeth actually built; `amplitude_bound` dominates
    the peak height of every omitted tooth; `threshold` must be at least
    amplitude_bound + eps.  Points at height >= threshold are at distance
    >= eps from everything omitted, so omitted material never enters their
    open eps-balls and witnesses computed on the truncation hold ambiently.
    """
    k: int
    amplitude_bound: Fraction
    threshold: Fraction

    def at(self, eps: Fraction) -> "TruncationGuard":
        """The same truncation guarded at scale eps.  K and the amplitude
        bound do not depend on the scale; only the threshold does."""
        return replace(self, threshold=self.amplitude_bound + eps)

    def clears(self, raw) -> bool:
        """Whether the point with kernel tuple `raw` is at height >= the
        threshold."""
        thr = self.threshold
        return raw[2] * thr.denominator >= thr.numerator * raw[3]


@dataclass(frozen=True)
class SeparationCertificate:
    epsilon: Fraction
    points: tuple[GraphPoint, ...]
    guard: TruncationGuard | None
    graph_id: str

    def __len__(self) -> int:
        return len(self.points)

    @property
    def witnesses(self) -> tuple:
        """Always empty: a version 3 document lists no witnesses.  Its one
        reader is `perfbench/tracing.py`, which counts witnesses by kind;
        it goes with ROADMAP item 5, when the tracer reads a stats record.
        """
        return ()

    def json_members(self) -> dict:
        """The document's members; `points` is an iterator that serializes
        one point per step, for a streaming writer."""
        return {
            "format": SEPARATION_FORMAT,
            "version": SEPARATION_VERSION,
            "graph_id": self.graph_id,
            "epsilon": format_rational(self.epsilon),
            "points": map(_point_to_json, self.points),
            "guard": None if self.guard is None else {
                "K": self.guard.k,
                "amplitude_bound": format_rational(self.guard.amplitude_bound),
                "threshold": format_rational(self.guard.threshold),
            },
        }

    def to_json_dict(self) -> dict:
        doc = self.json_members()
        doc["points"] = list(doc["points"])
        return doc

    @classmethod
    def from_json_dict(cls, data) -> "SeparationCertificate":
        """Read a decoded document, or its members as
        `certificate_from_json_dict` takes them."""
        return cls._from_fields(_read_fields(data))

    @classmethod
    def _from_fields(cls, fields: dict) -> "SeparationCertificate":
        _expect_format(fields, SEPARATION_FORMAT, SEPARATION_VERSION)
        try:
            g = fields.get("guard")
            guard = None if g is None else TruncationGuard(
                parse_index(g["K"]),
                parse_rational(g["amplitude_bound"]),
                parse_rational(g["threshold"]))
            return cls(parse_rational(fields["epsilon"]), fields["points"],
                       guard, str(fields["graph_id"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(
                f"malformed separation certificate: {exc}") from exc


def _point_to_json(p: GraphPoint) -> list:
    return [p.edge, format_rational(p.t)]


def _point_from_json(item: list) -> GraphPoint:
    e, t = item
    return GraphPoint(parse_index(e), parse_rational(t))


# Array members and how one item of each is read.  An item is converted
# as soon as it is decoded, so a streamed document is never held whole.
_ITEM_READERS = {"elements": _subset_from_json,
                 "points": _point_from_json}
_SCALAR_KEYS = ("format", "version", "graph_id", "epsilon", "guard")


def _read_fields(data) -> dict:
    """The members a certificate reads, with array items converted.

    `data` is a decoded JSON object, or an iterator over its members as
    (key, value) pairs in document order, where an array value may be an
    iterator over its items.  A later duplicate key wins, as in `json`.
    """
    if isinstance(data, dict):
        data = iter(data.items())
    elif not isinstance(data, Iterator):
        raise ParseError("not a certificate document")
    fields: dict = {}
    for key, value in data:
        read = _ITEM_READERS.get(key)
        if read is not None:
            try:
                fields[key] = tuple(read(item) for item in value)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"malformed {key} in certificate: "
                                 f"{exc}") from exc
        elif key in _SCALAR_KEYS:
            fields[key] = list(value) if isinstance(value, Iterator) \
                else value
    return fields


def _expect_format(data: dict, name: str, version: int) -> None:
    if data.get("format") != name:
        raise ParseError(f"not a {name} document")
    if data.get("version") != version:
        raise ParseError(f"unsupported version {data.get('version')!r}")


def certificate_from_json_dict(data):
    """Read either certificate kind, dispatching on its format field.

    `data` is a decoded JSON object, or an iterator over its members as
    (key, value) pairs in document order, where an array value may be an
    iterator over its items: each item is converted before the next is
    drawn.  A document of the wrong shape is a `ParseError`; so is a
    malformed item of any of the arrays in `_ITEM_READERS`, even one
    that the document's format does not read.
    """
    fields = _read_fields(data)
    if fields.get("format") == COVER_FORMAT:
        return CoverCertificate._from_fields(fields)
    if fields.get("format") == SEPARATION_FORMAT:
        return SeparationCertificate._from_fields(fields)
    raise ParseError("not a certificate document")


# ---------------------------------------------------------------------------
# clipped-ball connectivity


def _joined_runs(graph: PLGraph,
                 ends: dict[int, list[tuple[bool, bool]]]) -> UnionFind:
    """Union-find over the runs (e, i), the disjoint pieces kept on edge e,
    joining every two runs that reach a common vertex; ends[e][i] tells
    whether run i reaches the edge's first vertex and its second."""
    sets = UnionFind()
    first_at: dict[int, tuple[int, int]] = {}
    for e, flags in ends.items():
        for i, reaches in enumerate(flags):
            sets.add((e, i))
            for v, r in zip(graph.edges[e], reaches):
                if r:
                    sets.union(first_at.setdefault(v, (e, i)), (e, i))
    return sets


class _ClipIndex:
    """Components of the closed eps-ball around `center`, on the graph.

    A closed ball is convex, so it meets each edge in one closed interval
    or not at all: an edge is kept when its exact distance to the center is
    <= eps.  On a proper host two kept intervals can share only a common
    vertex of their edges, and they do exactly when that vertex lies in the
    ball, so the components of (ball ∩ graph) are the kept edges joined at
    their vertices inside the ball.  One `point_seg_dist2` per edge and one
    `dist2_q` per vertex of a kept edge decide it; nothing is subdivided.

    A connected set of diameter < eps through the center lies in the open
    ball, hence in one component here, so a point outside the center's
    component is separated from it.  The truncation guard keeps this sound
    for the full continuum although the ball is closed: every admissible
    piece through the center lies in the open ball, and the omitted teeth,
    at distance >= eps from a point above the threshold, miss the open
    ball, so such a piece sees only material that is in the host.
    """

    def __init__(self, graph: PLGraph, center: GraphPoint, raw,
                 eps2: Fraction, work: _Work):
        self.raw = raw
        self.eps2 = eps2
        en, ed = eps2.numerator, eps2.denominator
        verts = graph.raw_vertices()
        inside: dict[int, bool] = {}
        ends: dict[int, list[tuple[bool, bool]]] = {}
        work.add(len(graph.edges))
        for e, (a, b) in enumerate(graph.edges):
            dn, dd = xc.point_seg_dist2(self.raw, verts[a], verts[b])
            if dn * ed > en * dd:
                continue
            for v in (a, b):
                if v not in inside:
                    work.add(1)
                    dn, dd = xc.dist2_q(self.raw, verts[v])
                    inside[v] = dn * ed <= en * dd
            ends[e] = [(inside[a], inside[b])]
        sets = _joined_runs(graph, ends)
        self._comp = {e: sets.find((e, 0)) for e in ends}
        self.center_comp = self._comp[center.edge]

    def separates(self, gp: GraphPoint, raw) -> bool:
        """Whether the point gp, with kernel coordinates `raw`, lies
        outside the center's component of the clipped ball."""
        comp = self._comp.get(gp.edge)
        if comp is None or comp != self.center_comp:
            return True
        dn, dd = xc.dist2_q(self.raw, raw)
        return dn * self.eps2.denominator > self.eps2.numerator * dd


def _scan_apart(graph: PLGraph, points: Iterable[tuple[GraphPoint, tuple]],
                eps2: Fraction, work: _Work) -> Iterator[int | None]:
    """The one separation rule: for each (point, kernel tuple) in turn,
    None when the point is apart from every point kept so far, which
    keeps it, else the index among the kept points of the first it is
    not apart from.  Two points are apart when their distance is >= eps,
    or the clip around the new point cuts the kept one off, or the kept
    point's clip cuts the new one off, tested in that order.  A point's
    clip is built at most once, when first needed.  Each distance test
    is charged to `work` before it is made."""
    en, ed = eps2.numerator, eps2.denominator
    kept: list[list] = []  # [point, kernel tuple, clip or None]

    def cuts(c: list, o: list) -> bool:
        if c[2] is None:
            c[2] = _ClipIndex(graph, c[0], c[1], eps2, work)
        return c[2].separates(o[0], o[1])

    for gp, rp in points:
        new = [gp, rp, None]
        for k, old in enumerate(kept):
            work.add(1)
            dn, dd = xc.dist2_q(rp, old[1])
            if not (dn * ed >= en * dd or cuts(new, old) or cuts(old, new)):
                yield k
                break
        else:
            kept.append(new)
            yield None


# ---------------------------------------------------------------------------
# verification


def check_cover(graph: PLGraph, cert: CoverCertificate,
                budget: Budget | None = None) -> int:
    """Recheck a cover certificate; returns the element count.

    Checks, in order: host identity, per-element well-formedness,
    connectivity, strict diameter < eps, and that the per-edge fragment
    unions cover every edge end to end.  Raises VerificationFailure with
    the first offending detail.
    """
    work = _Work(budget or Budget())
    work.budget.check_edges(len(graph.edges))
    if cert.graph_id != graph.graph_id():
        raise HostMismatch(f"certificate is for graph {cert.graph_id}, "
                           f"host is {graph.graph_id()}")
    if cert.epsilon <= 0:
        raise VerificationFailure("epsilon must be positive")
    eps2 = cert.epsilon * cert.epsilon
    ne = len(graph.edges)
    covered: list[list[tuple[Fraction, Fraction]]] = [[] for _ in range(ne)]
    for idx, el in enumerate(cert.elements):
        if not el.fragments:
            raise VerificationFailure(f"element {idx} is empty")
        for f in el.fragments:
            if not (0 <= f.edge < ne):
                raise VerificationFailure(
                    f"element {idx}: edge {f.edge} out of range")
            covered[f.edge].append((f.lo, f.hi))
        if not el.is_connected(graph):
            raise VerificationFailure(f"element {idx} is not connected")
        pts = [graph.edge_raw(f.edge, t)
               for f in el.fragments for t in (f.lo, f.hi)]
        work.add(len(pts) * len(pts))
        dn, dd = xc.max_pair_dist2(pts)
        if dn * eps2.denominator >= eps2.numerator * dd:
            raise VerificationFailure(
                f"element {idx} has diameter >= epsilon")
    for e in range(ne):
        if merge_intervals(covered[e]) != [(0, 1)]:
            raise VerificationFailure(f"edge {e} is not fully covered")
    return len(cert.elements)


def check_separation(graph: PLGraph, cert: SeparationCertificate,
                     budget: Budget | None = None) -> int:
    """Recheck a separation certificate; returns the point count.

    Every point, in order, must be kept by `_scan_apart`, the rule the
    greedy keeps points by: each pair is >= eps apart, recomputed
    exactly, or the clipped eps-ball around one of the two cuts the other
    off.  The host is checked as `truncation_guard` checks it, charged to
    this check's budget: the clip's argument needs a proper host.  A
    guard, when present, must be the host's guard at the certificate's
    scale, and every point must clear its threshold.  n(n-1)/2 pair tests
    over the budget are refused before the first.  Raises
    VerificationFailure with the first offending detail.
    """
    work = _Work(budget or Budget())
    work.budget.check_edges(len(graph.edges))
    if cert.graph_id != graph.graph_id():
        raise HostMismatch(f"certificate is for graph {cert.graph_id}, "
                           f"host is {graph.graph_id()}")
    if cert.epsilon <= 0:
        raise VerificationFailure("epsilon must be positive")
    ne = len(graph.edges)
    for k, gp in enumerate(cert.points):
        if not (0 <= gp.edge < ne):
            raise VerificationFailure(f"point {k}: edge out of range")
    raws = [graph.edge_raw(gp.edge, gp.t) for gp in cert.points]
    try:
        host = _host_guard(graph, cert.epsilon, work)
    except ParseError as exc:
        raise VerificationFailure(str(exc)) from exc
    if cert.guard is not None:
        if cert.guard != host:
            raise VerificationFailure(f"certificate guard {cert.guard} is "
                                      f"not the host's guard {host}")
        for k, r in enumerate(raws):
            if not host.clears(r):
                raise VerificationFailure(
                    f"point {k} lies below the guard threshold")

    n = len(cert.points)
    work.budget.check_pairs(work.total + n * (n - 1) // 2)
    scan = _scan_apart(graph, zip(cert.points, raws),
                       cert.epsilon * cert.epsilon, work)
    for j, i in enumerate(scan):
        if i is not None:
            raise VerificationFailure(
                f"pair ({i},{j}): neither clipped ball separates")
    return n


# ---------------------------------------------------------------------------
# upper bound: greedy connected cover


def _extend(graph: PLGraph, e: int, a: Fraction, b: Fraction, forward: bool,
            s_raw: Collection, en: int, ed: int, work: _Work) -> Fraction:
    """b if the point at b lies strictly within eps of every piece
    endpoint in `s_raw`, else the last point short of the reach on a
    dyadic grid that the reach fixes.

    Write x = c forward and x = -c backward.  Each endpoint keeps the
    point at x while A x^2 + 2B x + G < 0, with integers A, B, G over a
    common denominator of the edge and that endpoint; x(a) is kept by
    all, so the admissible x form an open interval whose upper end, the
    reach R, is the least of the roots (sqrt(B^2 - AG) - B)/A.  With m
    the least level at which x(a) + 2^-m < R (m >= 1, since b is not
    admissible and |b - a| <= 1), the answer is the last multiple of
    2^-(m+6) below R.  The grid is absolute, so denominators do not
    compound across pieces; `math.isqrt` places each root on it exactly.
    """
    def ok(c: Fraction) -> bool:
        work.add(len(s_raw))
        return xc.all_dist2_below(s_raw, graph.edge_raw(e, c), en, ed)

    if ok(b):
        return b
    sign = 1 if forward else -1
    p0, p1 = (graph.raw_vertices()[v] for v in graph.edges[e])
    d0 = math.lcm(p0[1], p0[3], p1[1], p1[3])
    x0, y0 = p0[0] * (d0 // p0[1]), p0[2] * (d0 // p0[3])
    vx0 = sign * (p1[0] * (d0 // p1[1]) - x0)
    vy0 = sign * (p1[2] * (d0 // p1[3]) - y0)
    p, q = (sign * a).numerator, a.denominator
    m, roots = 0, []
    for sxn, sxd, syn, syd in s_raw:
        den = math.lcm(d0, sxd, syd)
        f = den // d0
        vx, vy = vx0 * f, vy0 * f
        wx, wy = x0 * f - sxn * (den // sxd), y0 * f - syn * (den // syd)
        A = ed * (vx * vx + vy * vy)
        B = ed * (wx * vx + wy * vy)
        G = ed * (wx * wx + wy * wy) - en * den * den
        disc = B * B - A * G
        # The least m with 2^-m < root - x(a) is the bit length of
        # floor(1 / (root - x(a))) = floor((sqrt(disc) + B + A x(a)) /
        # -(A x(a)^2 + 2B x(a) + G)); with x(a) = p/q, both terms of the
        # quotient are taken times q^2.
        inv = (math.isqrt(disc * q ** 4) + q * (B * q + A * p)) \
            // -(A * p * p + 2 * B * p * q + G * q * q)
        m = max(m, inv.bit_length())
        roots.append((A, B, disc))
    s = m + 6
    # k / 2^s < root  iff  A k + B 2^s < sqrt(disc 4^s).
    k = min((math.isqrt((disc << 2 * s) - 1) - (B << s)) // A
            for A, B, disc in roots)
    c = Fraction(sign * k, 1 << s)
    if not ok(c):
        raise RuntimeError(f"edge {e}: grid point {c} short of the reach "
                           f"is not admissible")
    return c


def upper_cover(graph: PLGraph, eps: Fraction,
                budget: Budget | None = None) -> CoverCertificate:
    """Greedy connected cover by pieces of diameter strictly below eps.

    Pieces grow from the lexicographically first uncovered point, creeping
    along edges and fanning out at vertices, but only ever into territory
    no earlier piece has claimed; this keeps each piece's contribution
    maximal instead of re-treading covered ground.

    The covered part of edge e is always [0, lo] ∪ [hi, 1] for
    `ends[e] == [lo, hi]`, from [0, 1] at the start; the edge is done once
    lo >= hi.  A forward stretch starts only at lo: at the anchor, or at
    vertex 0 while lo is 0.  A backward one starts only at vertex 1 while
    hi is 1.  A stretch stops at or before the other end, and `_extend`
    returns a point strictly past its start, so each stretch moves one end.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    work = _Work(budget or Budget())
    work.budget.check_edges(len(graph.edges))
    eps2 = eps * eps
    en, ed = eps2.numerator, eps2.denominator
    ne = len(graph.edges)
    zero, one = Fraction(0), Fraction(1)
    ends = [[zero, one] for _ in range(ne)]
    elements: list[SubSet] = []
    e0 = 0  # every edge before e0 is covered end to end
    while True:
        while e0 < ne and ends[e0][0] >= ends[e0][1]:
            e0 += 1
        if e0 == ne:
            break
        s_raw: dict[tuple, None] = {}  # an ordered set of kernel tuples
        frags: dict[int, list[tuple[Fraction, Fraction]]] = {}
        piece_vertices: set[int] = set()
        queue: deque = deque([(e0, ends[e0][0], True)])

        def absorb(v: int) -> None:
            if v in piece_vertices:
                return
            piece_vertices.add(v)
            for e2, end in sorted(graph.incident(v)):
                queue.append((e2, Fraction(end), end == 0))

        while queue:
            e, a, forward = queue.popleft()
            lo_e, hi_e = ends[e]
            if lo_e >= hi_e or a != (lo_e if forward else hi_e):
                continue
            ra = graph.edge_raw(e, a)
            if s_raw and ra not in s_raw:
                work.add(len(s_raw))
                if not xc.all_dist2_below(s_raw, ra, en, ed):
                    continue
            s_raw[ra] = None
            c = _extend(graph, e, a, hi_e if forward else lo_e, forward,
                        s_raw, en, ed, work)
            s_raw[graph.edge_raw(e, c)] = None
            ends[e][0 if forward else 1] = c
            lo, hi = (a, c) if forward else (c, a)
            frags.setdefault(e, []).append((lo, hi))
            if lo == 0:
                absorb(graph.edges[e][0])
            if hi == 1:
                absorb(graph.edges[e][1])

        elements.append(SubSet(tuple(
            EdgeFragment(e, lo, hi) for e in sorted(frags)
            for lo, hi in merge_intervals(frags[e]))))
    return CoverCertificate(eps, tuple(elements), graph.graph_id())


# ---------------------------------------------------------------------------
# lower bound: greedy separated set


def _candidate_points(graph: PLGraph, eps: Fraction,
                      work: _Work) -> list[tuple[GraphPoint, tuple]]:
    """Default candidate pool for the separated-set greedy, each point with
    its kernel tuple: every vertex, plus, per edge, the densest uniform
    subdivision whose spacing is still >= eps (so same-edge neighbours
    separate by distance alone).  The vertices, and then each edge's
    points, are charged to `work` before they are made."""
    cands: dict[tuple, GraphPoint] = {}  # the first point at each tuple

    def push(e: int, t: Fraction) -> None:
        cands.setdefault(graph.edge_raw(e, t), GraphPoint(e, t))

    work.add(len(graph.vertices))
    for v in range(len(graph.vertices)):
        e, end = min(graph.incident(v))
        push(e, Fraction(end))
    eps2 = eps * eps
    for e in range(len(graph.edges)):
        r = graph.edge_length2(e) / eps2
        q = math.isqrt(r.numerator // r.denominator)
        work.add(max(q - 1, 0))
        for j in range(1, q):
            push(e, Fraction(j, q))
    return [(gp, r) for r, gp in cands.items()]


def lower_separation(graph: PLGraph, eps: Fraction,
                     guard: TruncationGuard | None = None,
                     candidates: Sequence[GraphPoint] | None = None,
                     budget: Budget | None = None) -> SeparationCertificate:
    """Greedy maximal family of pairwise-separated points.

    Candidates are scanned from the highest point down and kept by the
    checker's rule, `_scan_apart`, so no dropped candidate could be added
    to the certificate.  With a guard, candidates below the height
    threshold are discarded first, which is what makes the resulting
    certificate meaningful for the untruncated continuum.  `candidates`
    replaces the default pool of `_candidate_points`, for cross-checks on
    explicit point families.  The certificate holds for a proper host,
    which `check_separation` confirms.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    work = _Work(budget or Budget())
    work.budget.check_edges(len(graph.edges))
    pool = (_candidate_points(graph, eps, work) if candidates is None
            else [(gp, graph.edge_raw(gp.edge, gp.t)) for gp in candidates])
    if guard is not None:
        pool = [(gp, r) for gp, r in pool if guard.clears(r)]
    # Highest first, then leftmost: y descending, x ascending.
    pool.sort(key=lambda it: (Fraction(-it[1][2], it[1][3]),
                              Fraction(it[1][0], it[1][1]),
                              it[0].edge, it[0].t))

    scan = _scan_apart(graph, pool, eps * eps, work)
    kept = tuple(gp for (gp, _), hit in zip(pool, scan) if hit is None)
    return SeparationCertificate(eps, kept, guard, graph.graph_id())


def truncation_guard(graph: PLGraph, eps: Fraction,
                     budget: Budget | None = None) -> TruncationGuard | None:
    """The one host check for a lower bound: the host's guard at scale
    eps, or None.

    A separation certificate holds only on a proper host, and a guard only
    for the continuum that the host's builder metadata names.  A host
    whose metadata names the shark-teeth builder must be exactly the graph
    the builder makes from that spec, which proves it proper, and gets its
    guard; the counts are compared first, so the rebuild is never larger
    than the host.  Any other host must pass `PLGraph.validate_proper`,
    whose E(E-1)/2 segment tests are charged to the budget first, and gets
    None.  Anything else is a `ParseError`.  The amplitude bound is always
    recomputed here rather than accepted from the caller, so a guard can
    never quietly overstate what was built.
    """
    return _host_guard(graph, eps, _Work(budget or Budget()))


def _host_guard(graph: PLGraph, eps: Fraction,
                work: _Work) -> TruncationGuard | None:
    """`truncation_guard`, charged to `work`."""
    if graph.meta.get("builder") != "shark-teeth":
        ne = len(graph.edges)
        work.add(ne * (ne - 1) // 2)
        try:
            graph.validate_proper()
        except (OverlapError, ValueError) as exc:
            raise ParseError(f"host is not proper: {exc}") from exc
        return None
    from .continuum import (build_shark_teeth, next_amplitude_bound,
                            predicted_counts, spec_from_meta)
    spec = spec_from_meta(graph.meta)
    counts = (len(graph.vertices), len(graph.edges))
    want = predicted_counts(spec.level_list())
    if counts != want:
        raise ParseError(f"host has {counts[0]} vertices and {counts[1]} "
                         f"edges, its builder metadata {want[0]} and "
                         f"{want[1]}")
    rebuilt = build_shark_teeth(spec, Budget(max_edges=counts[1]))
    if rebuilt.graph_id() != graph.graph_id():
        raise ParseError("host geometry does not match its builder metadata")
    bound = next_amplitude_bound(spec)
    return TruncationGuard(spec.K, bound, bound + eps)


def s_bounds(graph: PLGraph, eps: Fraction,
             budget: Budget | None = None) -> tuple[int, int]:
    """Unguarded certified bracket (lower, upper) on the connected-cover
    number of the graph as given.

    Convenience over `lower_separation` and `upper_cover` for callers who
    want numbers rather than certificates.  lower <= upper always: both
    sides bracket the same quantity.  The host is checked as
    `truncation_guard` checks it, but its guard is not used.
    """
    truncation_guard(graph, eps, budget)
    low = lower_separation(graph, eps, budget=budget)
    up = upper_cover(graph, eps, budget=budget)
    assert len(low.points) <= len(up.elements)
    return len(low.points), len(up.elements)
