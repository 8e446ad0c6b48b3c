"""Certified bounds on connected-cover numbers of plane graphs.

For a compact set X and scale eps, the quantity of interest is the least
number of connected subsets of diameter strictly below eps that cover X.
Everything here brackets that number for a `PLGraph` host:

  * `upper_cover` produces a `CoverCertificate`, one row of cuts per
    edge that gives each piece of the edge to a cover element; the
    checker takes the elements from the rows and verifies each connected
    with diameter below eps.  A piece ends each stretch at its exact
    reach, rounded down onto a dyadic grid in integers.  A document is the
    rows, `[k0, "c1", k1, ..., "cm", km]`.
  * `lower_separation` produces a `SeparationCertificate`, a list of points
    no two of which any single admissible piece can contain.  A point is
    an `(edge, t)` pair, in memory as in the document, `[e, "t"]`, and the
    document is the points alone.  A pair at distance >= eps needs nothing
    more; for a pair closer than eps, the closed eps-ball around one of the
    two, clipped to the graph, must put the other outside its component.
    The checker recomputes both in `_scan_apart`, the greedy's own loop.

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
ambiently.  `truncation_guard` is the one host check, for the CLI, the
sweep and the checker alike, and it holds two proofs: a builder host is
its metadata rebuilt and compared by fingerprint, which also gives its
guard, and any other host passes `PLGraph.validate_proper`.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

from . import exactcore as xc
from .errors import (BudgetExceeded, HostMismatch, ParseError, SizeLimit,
                     VerificationFailure, expect_format)
from .geom import (PLGraph, UnionFind, format_rational, parse_index,
                   parse_pair, parse_rational)
from .limits import Budget

COVER_FORMAT = "sdimlab/cover"
COVER_VERSION = 3
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


_ZERO, _ONE = Fraction(0), Fraction(1)


@dataclass(frozen=True)
class CoverCertificate:
    """An upper certificate: one row per host edge, in edge order.

    A row `(k0, c1, k1, ..., cm, km)` cuts its edge at the `Fraction`s
    c1 < ... < cm inside (0, 1) and gives the piece [c_i, c_(i+1)] to
    element k_i, with c0 = 0 and c(m+1) = 1, so the pieces of a row cover
    its edge.  Element ids are numbered in order of first appearance,
    reading the rows in order and each row left to right, so no element
    is empty.  A row that breaks this layout is a ValueError.
    """
    epsilon: Fraction
    pieces: tuple[tuple, ...]
    graph_id: str
    _count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        count = 0
        for e, row in enumerate(self.pieces):
            if len(row) % 2 == 0:
                raise ValueError(f"row {e} is not [id, cut, id, ..., id]")
            for k in row[::2]:
                if k == count:
                    count += 1
                elif not 0 <= k < count:
                    raise ValueError(f"row {e}: element id {k} is not one of "
                                     f"the {count} seen or the next")
            cuts = row[1::2]
            for lo, c in zip((_ZERO, *cuts), cuts):
                if not lo < c < 1:
                    raise ValueError(f"row {e}: cut {format_rational(c)!r} "
                                     f"does not rise inside (0, 1)")
        object.__setattr__(self, "_count", count)

    def __len__(self) -> int:
        return self._count

    @property
    def elements(self) -> range:
        """The element ids.  Its one reader is `perfbench/tracing.py`,
        which counts them; it goes with ROADMAP item 8, when the tracer
        reads a stats record."""
        return range(self._count)

    def json_members(self) -> dict:
        """The document's members; `pieces` is an iterator that
        serializes one row per step, for a streaming writer."""
        return {
            "format": COVER_FORMAT,
            "version": COVER_VERSION,
            "graph_id": self.graph_id,
            "epsilon": format_rational(self.epsilon),
            "pieces": map(_row_to_json, self.pieces),
        }

    def to_json_dict(self) -> dict:
        doc = self.json_members()
        doc["pieces"] = list(doc["pieces"])
        return doc

    @classmethod
    def from_json_dict(cls, data) -> "CoverCertificate":
        expect_format(data, COVER_FORMAT, COVER_VERSION)
        try:
            return cls(parse_rational(data["epsilon"]),
                       tuple(map(_row_from_json, enumerate(data["pieces"]))),
                       str(data["graph_id"]))
        except (AttributeError, KeyError, TypeError) as exc:
            raise ParseError(f"malformed cover certificate: {exc}") from exc
        except ValueError as exc:  # the layout, from the constructor
            raise ParseError(str(exc)) from exc


def _row_to_json(row: tuple) -> list:
    out = list(row)
    out[1::2] = map(format_rational, row[1::2])
    return out


def _row_from_json(item: tuple[int, list]) -> tuple:
    """Row e of a document with its ids and cuts parsed; the layout is
    the constructor's to check."""
    e, row = item
    if type(row) is not list:
        raise ParseError(f"row {e} is not [id, cut, id, ..., id]")
    out = list(row)
    out[::2] = map(parse_index, row[::2])
    out[1::2] = map(parse_rational, row[1::2])
    return tuple(out)


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
    """A lower certificate: its points, each an `(edge, t)` pair, the
    point at the `Fraction` t in [0, 1] along that edge, as the document
    writes it.  A t outside [0, 1] is a ValueError; the edges are the
    checker's to check against the host."""
    epsilon: Fraction
    points: tuple[tuple[int, Fraction], ...]
    guard: TruncationGuard | None
    graph_id: str

    def __post_init__(self):
        for _, t in self.points:
            if not 0 <= t <= 1:
                raise ValueError(f"parameter {t} outside [0, 1]")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def witnesses(self) -> tuple:
        """Always empty: a version 3 document lists no witnesses.  Its one
        reader is `perfbench/tracing.py`, which counts witnesses by kind;
        it goes with ROADMAP item 8, when the tracer reads a stats record.
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
            "points": ([e, format_rational(t)] for e, t in self.points),
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
        expect_format(data, SEPARATION_FORMAT, SEPARATION_VERSION)
        try:
            g = data.get("guard")
            guard = None if g is None else TruncationGuard(
                parse_index(g["K"]),
                parse_rational(g["amplitude_bound"]),
                parse_rational(g["threshold"]))
            return cls(parse_rational(data["epsilon"]),
                       tuple((parse_index(e), parse_rational(t))
                             for e, t in map(parse_pair, data["points"])),
                       guard, str(data["graph_id"]))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(
                f"malformed separation certificate: {exc}") from exc


def certificate_from_json_dict(data):
    """Read either certificate kind from a decoded JSON document,
    dispatching on its format field.

    A document that is not an object, is of neither format, or holds a
    malformed member that its format reads is a `ParseError`.  Members
    that the format does not read are ignored.
    """
    if not isinstance(data, dict):
        raise ParseError("not a certificate document")
    if data.get("format") == COVER_FORMAT:
        return CoverCertificate.from_json_dict(data)
    if data.get("format") == SEPARATION_FORMAT:
        return SeparationCertificate.from_json_dict(data)
    raise ParseError("not a certificate document")


# ---------------------------------------------------------------------------
# clipped-ball connectivity


def _joined_runs(graph: PLGraph,
                 runs: Sequence[tuple[int, bool, bool]]) -> UnionFind:
    """Union-find over the indices of `runs`, disjoint pieces of edges,
    joining every two runs that reach a common vertex.  Run (e, r0, r1)
    lies on edge e and reaches its first vertex if r0, its second if r1."""
    sets = UnionFind(range(len(runs)))
    first_at: dict[int, int] = {}
    for j, (e, *reaches) in enumerate(runs):
        for v, r in zip(graph.edges[e], reaches):
            if r:
                sets.union(first_at.setdefault(v, j), j)
    return sets


class _ClipIndex:
    """Components of the closed eps-ball around the point on `edge` with
    kernel tuple `raw`, on the graph.

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

    def __init__(self, graph: PLGraph, edge: int, raw, eps2: Fraction,
                 work: _Work):
        self.raw = raw
        self.eps2 = eps2
        en, ed = eps2.numerator, eps2.denominator
        verts = graph.raw_vertices()
        inside: dict[int, bool] = {}
        runs: list[tuple[int, bool, bool]] = []
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
            runs.append((e, inside[a], inside[b]))
        sets = _joined_runs(graph, runs)
        self._comp = {e: sets.find(j) for j, (e, _, _) in enumerate(runs)}
        self.center_comp = self._comp[edge]

    def separates(self, edge: int, raw) -> bool:
        """Whether the point on `edge` with kernel tuple `raw` lies outside
        the center's component of the clipped ball."""
        comp = self._comp.get(edge)
        if comp is None or comp != self.center_comp:
            return True
        dn, dd = xc.dist2_q(self.raw, raw)
        return dn * self.eps2.denominator > self.eps2.numerator * dd


def _scan_apart(graph: PLGraph, points: Iterable[tuple[int, tuple]],
                eps2: Fraction, work: _Work) -> Iterator[int | None]:
    """The one separation rule: for each point (edge, kernel tuple) in turn,
    None when the point is apart from every point kept so far, which
    keeps it, else the index among the kept points of the first it is
    not apart from.  Two points are apart when their distance is >= eps,
    or the clip around the new point cuts the kept one off, or the kept
    point's clip cuts the new one off, tested in that order.  A point's
    clip is built at most once, when first needed.  Each distance test
    is charged to `work` before it is made."""
    en, ed = eps2.numerator, eps2.denominator
    kept: list[list] = []  # [edge, kernel tuple, clip or None]

    def cuts(c: list, o: list) -> bool:
        if c[2] is None:
            c[2] = _ClipIndex(graph, c[0], c[1], eps2, work)
        return c[2].separates(o[0], o[1])

    for e, rp in points:
        new = [e, rp, None]
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


def _checker_work(graph: PLGraph, cert, budget: Budget | None) -> _Work:
    """What both checkers check first: the host's edges against the
    budget, host identity and a positive eps.  Returns the work counter
    for the rest of the check."""
    work = _Work(budget or Budget())
    work.budget.check_edges(len(graph.edges))
    if cert.graph_id != graph.graph_id():
        raise HostMismatch(f"certificate is for graph {cert.graph_id}, "
                           f"host is {graph.graph_id()}")
    if cert.epsilon <= 0:
        raise VerificationFailure("epsilon must be positive")
    return work


def check_cover(graph: PLGraph, cert: CoverCertificate,
                budget: Budget | None = None) -> int:
    """Recheck a cover certificate; returns the element count.

    Each row covers its edge by the certificate's layout, so one row per
    host edge covers the host.  Each element's runs, its pieces with each
    merged into its left neighbour when that one is the element's too,
    must then be connected and of diameter strictly below eps, whose pair
    work is charged first.  Raises VerificationFailure with the first
    offending detail.
    """
    work = _checker_work(graph, cert, budget)
    if len(cert.pieces) != len(graph.edges):
        raise VerificationFailure(f"certificate has {len(cert.pieces)} "
                                  f"rows, host has {len(graph.edges)} edges")
    eps2 = cert.epsilon * cert.epsilon
    runs: list[list] = [[] for _ in range(len(cert))]  # e, lo, hi, e, ...
    for e, row in enumerate(cert.pieces):
        lo = _ZERO
        for i in range(0, len(row), 2):
            k = row[i]
            hi = row[i + 1] if i + 1 < len(row) else _ONE
            if i and row[i - 2] == k:
                runs[k][-1] = hi
            else:
                runs[k] += (e, lo, hi)
            lo = hi
    for k, el in enumerate(runs):
        at = range(0, len(el), 3)
        if _joined_runs(graph, [(el[j], el[j + 1] == 0, el[j + 2] == 1)
                                for j in at]).count() != 1:
            raise VerificationFailure(f"element {k} is not connected")
        pts = [graph.edge_raw(el[j], el[j + i]) for j in at for i in (1, 2)]
        work.add(len(pts) * len(pts))
        dn, dd = xc.max_pair_dist2(pts)
        if dn * eps2.denominator >= eps2.numerator * dd:
            raise VerificationFailure(f"element {k} has diameter >= epsilon")
    return len(cert)


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
    work = _checker_work(graph, cert, budget)
    ne = len(graph.edges)
    for k, (e, _) in enumerate(cert.points):
        if not (0 <= e < ne):
            raise VerificationFailure(f"point {k}: edge out of range")
    pts = [(e, graph.edge_raw(e, t)) for e, t in cert.points]
    try:
        host = _host_guard(graph, cert.epsilon, work)
    except ParseError as exc:
        raise VerificationFailure(str(exc)) from exc
    if cert.guard is not None:
        if cert.guard != host:
            raise VerificationFailure(f"certificate guard {cert.guard} is "
                                      f"not the host's guard {host}")
        for k, (_, r) in enumerate(pts):
            if not host.clears(r):
                raise VerificationFailure(
                    f"point {k} lies below the guard threshold")

    n = len(pts)
    work.budget.check_pairs(work.total + n * (n - 1) // 2)
    scan = _scan_apart(graph, pts, cert.epsilon * cert.epsilon, work)
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
    returns a point strictly past its start, so each stretch moves one end
    and the stretches cut each edge into consecutive pieces, its row.  No
    two neighbours in a row belong to one element: a piece makes at most
    one stretch each way on an edge, and one that starts at the far
    vertex of an earlier one needs that vertex strictly within eps of
    every endpoint so far.  The earlier stretch tested that vertex first,
    against fewer endpoints, so it ran to it and left nothing to cover.

    Elements are numbered as they are created, which is their order of
    first appearance in the rows.  Element k starts at ends[e0][0] on the
    first edge e0 not yet covered, so it has no piece before that point in
    reading order, while every earlier element started on an edge before
    e0, or on e0 left of that point, since its first stretch moved lo.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    work = _Work(budget or Budget())
    work.budget.check_edges(len(graph.edges))
    eps2 = eps * eps
    en, ed = eps2.numerator, eps2.denominator
    ne = len(graph.edges)
    ends = [[_ZERO, _ONE] for _ in range(ne)]
    starts: list[list[tuple[Fraction, int]]] = [[] for _ in range(ne)]
    count = 0
    e0 = 0  # every edge before e0 is covered end to end
    while True:
        while e0 < ne and ends[e0][0] >= ends[e0][1]:
            e0 += 1
        if e0 == ne:
            break
        s_raw: dict[tuple, None] = {}  # an ordered set of kernel tuples
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
            starts[e].append((lo, count))
            if lo == 0:
                absorb(graph.edges[e][0])
            if hi == 1:
                absorb(graph.edges[e][1])

        count += 1
    rows = []
    for pieces in starts:
        pieces.sort()
        row = [pieces[0][1]]
        for lo, k in pieces[1:]:
            row += (lo, k)
        rows.append(tuple(row))
    return CoverCertificate(eps, tuple(rows), graph.graph_id())


# ---------------------------------------------------------------------------
# lower bound: greedy separated set


def _candidate_points(graph: PLGraph, eps: Fraction, work: _Work
                      ) -> tuple[int, Iterator[tuple[int, Fraction, tuple]]]:
    """The default candidate pool for the separated-set greedy: its size,
    and an iterator that makes its points as (edge, t, kernel tuple).  The
    pool is every vertex, named at the end of its first incident edge, then,
    per edge, the densest uniform subdivision whose spacing is still >= eps
    (so same-edge neighbours separate by distance alone).  On a proper host
    no two of its points coincide.  The size is charged to `work` here,
    before any point is made."""
    eps2 = eps * eps
    qs = []
    for e in range(len(graph.edges)):
        r = graph.edge_length2(e) / eps2
        qs.append(math.isqrt(r.numerator // r.denominator))
    n = len(graph.vertices) + sum(max(q - 1, 0) for q in qs)
    work.add(n)

    def points() -> Iterator[tuple[int, Fraction, tuple]]:
        for v, raw in enumerate(graph.raw_vertices()):
            e, end = min(graph.incident(v))
            yield e, Fraction(end), raw
        for e, q in enumerate(qs):
            for j in range(1, q):
                t = Fraction(j, q)
                yield e, t, graph.edge_raw(e, t)

    return n, points()


def lower_separation(graph: PLGraph, eps: Fraction,
                     guard: TruncationGuard | None = None,
                     budget: Budget | None = None) -> SeparationCertificate:
    """Greedy maximal family of pairwise-separated points.

    The pool of `_candidate_points` is scanned from the highest point down
    and kept by the checker's rule, `_scan_apart`, so no dropped candidate
    could be added to the certificate.  With a guard, candidates below the
    height threshold are discarded first, which is what makes the
    resulting certificate meaningful for the untruncated continuum.  The
    greedy may test every pair of the pool, so n(n-1)/2 pair tests over
    the budget are refused before the first, as `check_separation` refuses
    them: without a guard, before the first point is made, and with one,
    as soon as the points that clear it are that many.  The certificate
    holds for a proper host, which `check_separation` confirms.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    work = _Work(budget or Budget())
    work.budget.check_edges(len(graph.edges))
    n, pool = _candidate_points(graph, eps, work)
    if guard is None:
        work.budget.check_pairs(work.total + n * (n - 1) // 2)
    else:
        cleared = []
        for p in pool:
            if guard.clears(p[2]):
                cleared.append(p)
                n = len(cleared)
                work.budget.check_pairs(work.total + n * (n - 1) // 2)
        pool = cleared
    # Highest first, then leftmost: y descending, x ascending.
    pool = sorted(pool, key=lambda p: (Fraction(-p[2][2], p[2][3]),
                                       Fraction(p[2][0], p[2][1]),
                                       p[0], p[1]))
    scan = _scan_apart(graph, ((e, r) for e, _, r in pool), eps * eps, work)
    kept = tuple((e, t) for (e, t, _), hit in zip(pool, scan) if hit is None)
    return SeparationCertificate(eps, kept, guard, graph.graph_id())


def truncation_guard(graph: PLGraph, eps: Fraction,
                     budget: Budget | None = None) -> TruncationGuard | None:
    """The one host check for a lower bound: the host's guard at scale
    eps, or None.

    A separation certificate holds only on a proper host, and a guard only
    for the continuum that the host's builder metadata names.  A host
    whose metadata names the shark-teeth builder must be exactly the graph
    the builder makes from that spec, which proves it proper, and gets its
    guard.  The spec is rebuilt under the host's edge count as its edge
    budget, which the builder charges with `predicted_counts` before it
    makes any point, so the rebuild is never larger than the host; a
    spec the builder refuses, for its size or that budget, fails here.
    Any other host must pass `PLGraph.validate_proper`, whose E(E-1)/2
    segment tests are charged to the budget first, and gets None.  A
    host that fails either proof is a `ParseError`.  The amplitude bound
    is always recomputed here rather than accepted from the caller, so a
    guard can never quietly overstate what was built.
    """
    return _host_guard(graph, eps, _Work(budget or Budget()))


def _host_guard(graph: PLGraph, eps: Fraction,
                work: _Work) -> TruncationGuard | None:
    """`truncation_guard`, charged to `work`: the rebuild compared by
    fingerprint for a builder host, `validate_proper` for any other."""
    if graph.meta.get("builder") != "shark-teeth":
        ne = len(graph.edges)
        work.add(ne * (ne - 1) // 2)
        try:
            graph.validate_proper()
        except ValueError as exc:
            raise ParseError(f"host is not proper: {exc}") from exc
        return None
    from .continuum import (build_shark_teeth, next_amplitude_bound,
                            spec_from_meta)
    spec = spec_from_meta(graph.meta)
    try:
        rebuilt = build_shark_teeth(spec, Budget(max_edges=len(graph.edges)))
    except (SizeLimit, BudgetExceeded) as exc:
        raise ParseError(f"builder metadata does not fit the host: "
                         f"{exc}") from exc
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
    assert len(low) <= len(up)
    return len(low), len(up)
