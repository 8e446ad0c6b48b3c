"""Certified bounds on connected-cover numbers of plane graphs.

For a compact set X and scale eps, the quantity of interest is the least
number of connected subsets of diameter strictly below eps that cover X.
Everything here brackets that number for a `PLGraph` host:

  * `upper_cover` produces a `CoverCertificate`, one row of cuts per
    edge that gives each piece of the edge to a cover element; the
    checker takes the elements from the rows and verifies each connected
    with diameter below eps.  A piece ends each stretch at its exact
    reach, rounded down onto a dyadic grid in integers.  A document is the
    rows, `[k0?, "c1", k1?, ..., "cm", km?]`; a left-out id is a new one,
    and a run `["s", n]` is the n cuts s, 2s, ..., ns past the cut before
    it, as the greedy cuts a straight edge off that grid; in memory as
    on disk.  `_groups` reads the rows, and the checker makes one length
    test per cut, run and row end: see `check_cover`.
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
by `_joined_runs`, which joins the stretches of a cover element too, and
`_clip` returns the edges of the center's component.  A connected set of
diameter < eps through the center lies in the open ball, so in that
component; a point closer than eps lies in the closed ball, so whether
its edge is in that set decides whether the point is in it.

Certificates are self-contained and re-checkable; `check_cover` and
`check_separation` recompute every claim from scratch with exact rational
arithmetic.  A lower bound on a shark-teeth host is guarded: every point
sits at height >= (omitted amplitude bound) + eps, the guard threshold,
so the omitted teeth cannot enter any relevant open eps-ball and the
clips hold for the full continuum.  The guard is the host's, not the
document's: `_host_threshold`, the one host check, which
`lower_separation` and `check_separation` each run on their own budget,
rebuilds a builder host from its metadata and compares fingerprints,
which gives the threshold, and any other host passes
`PLGraph.validate_proper` and has none.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict, deque
from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import exactcore as xc
from .errors import (BudgetExceeded, HostMismatch, ParseError, SizeLimit,
                     VerificationFailure, expect_format)
from .geom import (PLGraph, UnionFind, format_rational, parse_index,
                   parse_pair, parse_rational)
from .limits import Budget

COVER_FORMAT = "sdimlab/cover"
COVER_VERSION = 5
SEPARATION_FORMAT = "sdimlab/separation"
SEPARATION_VERSION = 4


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
    """An upper certificate: one row per host edge, in edge order, in
    memory as a document (version 5) writes it, with each cut a string
    there and each run `["s", n]`; versions 1 to 4 are refused.

    A row `(k0?, c1, k1?, ..., cm, km?)` cuts its edge at the `Fraction`s
    c1 < ... < cm inside (0, 1) and gives the piece [c_i, c_(i+1)] to
    element k_i, with c0 = 0 and c(m+1) = 1, so the pieces of a row cover
    its edge.  Element ids are numbered in order of first appearance,
    reading the rows in order and each row left to right, so a written id
    is one seen before and a piece with none is a new element.  An item
    `(s, n)` is a run: the n cuts s, 2s, ..., ns past the cut before it,
    or past 0, each piece between two of them a new element.  `count` is
    the element count, over `_groups`, the layout's one reader; a row
    that breaks the layout is a ValueError.
    """
    epsilon: Fraction
    pieces: tuple[tuple, ...]
    graph_id: str
    count: int = field(init=False, compare=False)

    def __post_init__(self):
        count = 0
        for _, _, _, n, k, new in _groups(self.pieces):
            count = new + n - (k is not None)
        object.__setattr__(self, "count", count)

    @property
    def elements(self) -> range:
        """The element ids.  Its one reader is `perfbench/tracing.py`,
        which counts them; it goes with ROADMAP item 11, when the tracer
        reads a stats record."""
        return range(self.count)

    def to_json_dict(self) -> dict:
        return {
            "format": COVER_FORMAT,
            "version": COVER_VERSION,
            "graph_id": self.graph_id,
            "epsilon": format_rational(self.epsilon),
            "pieces": [[format_rational(x) if type(x) is Fraction
                        else [format_rational(x[0]), x[1]]
                        if type(x) is tuple else x for x in row]
                       for row in self.pieces],
        }

    @classmethod
    def from_json_dict(cls, data) -> "CoverCertificate":
        expect_format(data, COVER_FORMAT, COVER_VERSION)
        try:
            return cls(parse_rational(data["epsilon"]),
                       tuple(_rows_from_json(data["pieces"])),
                       str(data["graph_id"]))
        except (AttributeError, KeyError, TypeError) as exc:
            raise ParseError(f"malformed cover certificate: {exc}") from exc
        except ValueError as exc:  # the layout, from the constructor
            raise ParseError(str(exc)) from exc


def _groups(pieces) -> Iterator[tuple]:
    """The one reader of the row layout: `(e, lo, step, n, k, new)` for
    each cut, run and row end in reading order, the n pieces of edge e,
    each `step` long, from lo.  The first is element k's when an id k is
    written before it, else k is None; the rest are new elements numbered
    from `new`.  A row that breaks the layout is a ValueError."""
    new = 0
    for e, row in enumerate(pieces):
        lo, k = _ZERO, None  # k: the id written for the piece from lo
        for x in row:
            if type(x) is int:
                if k is not None:
                    raise ValueError(f"row {e}: two ids with no cut "
                                     f"between them")
                if not 0 <= x < new:
                    raise ValueError(f"row {e}: element id {x} is not "
                                     f"one of the {new} seen")
                k = x
                continue
            if type(x) is tuple:
                step, n = x
                x = lo + n * step  # the run's last cut
                if not (step > 0 and n >= 2 and x < 1):
                    raise ValueError(
                        f"row {e}: run [{format_rational(step)!r}, {n}] "
                        f"is not [step > 0, n >= 2] ending below 1")
            elif lo < x < 1:
                step, n = x - lo, 1
            else:
                raise ValueError(f"row {e}: cut {format_rational(x)!r} "
                                 f"does not rise inside (0, 1)")
            yield e, lo, step, n, k, new
            new += n - (k is not None)
            lo, k = x, None
        yield e, lo, _ONE - lo, 1, k, new
        new += k is None


def _rows_from_json(rows) -> Iterator[tuple]:
    """The rows of a document, each cut a `Fraction` and each run a
    `(step, n)` pair; the layout is the constructor's to check."""
    for e, row in enumerate(rows):
        if type(row) is not list:
            raise ParseError(f"row {e} is not [id?, cut, id?, ..., id?]")
        out = []
        for x in row:
            if type(x) is str:
                out.append(parse_rational(x))
            elif type(x) is list:
                step, n = parse_pair(x)
                out.append((parse_rational(step), parse_index(n)))
            else:
                out.append(parse_index(x))
        yield tuple(out)


def _clears(raw, threshold: Fraction) -> bool:
    """Whether the point with kernel tuple `raw` is at height >= the
    guard threshold."""
    return raw[2] * threshold.denominator >= threshold.numerator * raw[3]


@dataclass(frozen=True)
class SeparationCertificate:
    """A lower certificate: its points, each an `(edge, t)` pair, the
    point at the `Fraction` t in [0, 1] along that edge, as the document
    writes it.  A t outside [0, 1] is a ValueError; the edges are the
    checker's to check against the host."""
    epsilon: Fraction
    points: tuple[tuple[int, Fraction], ...]
    graph_id: str

    def __post_init__(self):
        for _, t in self.points:
            if not 0 <= t <= 1:
                raise ValueError(f"parameter {t} outside [0, 1]")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def witnesses(self) -> tuple:
        """Always empty: a version 4 document lists no witnesses.  Its one
        reader is `perfbench/tracing.py`, which counts witnesses by kind;
        it goes with ROADMAP item 11, when the tracer reads a stats record.
        """
        return ()

    def to_json_dict(self) -> dict:
        return {
            "format": SEPARATION_FORMAT,
            "version": SEPARATION_VERSION,
            "graph_id": self.graph_id,
            "epsilon": format_rational(self.epsilon),
            "points": [[e, format_rational(t)] for e, t in self.points],
        }

    @classmethod
    def from_json_dict(cls, data) -> "SeparationCertificate":
        expect_format(data, SEPARATION_FORMAT, SEPARATION_VERSION)
        try:
            return cls(parse_rational(data["epsilon"]),
                       tuple((parse_index(e), parse_rational(t))
                             for e, t in map(parse_pair, data["points"])),
                       str(data["graph_id"]))
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


def _clip(graph: PLGraph, edge: int, raw, eps2: Fraction,
          work: _Work) -> set[int]:
    """The edges of the component of (closed eps-ball ∩ graph) that holds
    the point on `edge` with kernel tuple `raw`, by the module's clip
    argument: one `point_seg_dist2` per edge, one `dist2_q` per vertex of
    an edge that reaches the ball, each charged to `work`."""
    en, ed = eps2.numerator, eps2.denominator
    verts = graph.raw_vertices()
    inside: dict[int, bool] = {}
    runs: list[tuple[int, bool, bool]] = []
    work.add(len(graph.edges))
    for e, (a, b) in enumerate(graph.edges):
        dn, dd = xc.point_seg_dist2(raw, verts[a], verts[b])
        if dn * ed > en * dd:
            continue
        for v in (a, b):
            if v not in inside:
                work.add(1)
                dn, dd = xc.dist2_q(raw, verts[v])
                inside[v] = dn * ed <= en * dd
        runs.append((e, inside[a], inside[b]))
    sets = _joined_runs(graph, runs)
    comp = {e: sets.find(j) for j, (e, _, _) in enumerate(runs)}
    return {e for e, c in comp.items() if c == comp[edge]}


def _scan_apart(graph: PLGraph, points: Iterable[tuple[int, tuple]],
                eps2: Fraction, work: _Work) -> Iterator[int | None]:
    """The one separation rule: for each point (edge, kernel tuple) in turn,
    None when the point is apart from every point kept so far, which
    keeps it, else the index among the kept points of the first it is
    not apart from.  Two points are apart when their distance is >= eps,
    or the kept point's edge is not in the new point's `_clip`, or the
    new point's edge is not in the kept point's, tested in that order.  A
    point's clip is built at most once, when first needed.  Each distance
    test is charged to `work` before it is made."""
    en, ed = eps2.numerator, eps2.denominator
    kept: list[list] = []  # [edge, kernel tuple, clip edges or None]

    def cuts(c: list, o: list) -> bool:
        if c[2] is None:
            c[2] = _clip(graph, c[0], c[1], eps2, work)
        return o[0] not in c[2]

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
    host edge covers the host.  `_groups` walks the rows: a cut or a row
    end gives one piece of edge e, a run n, each of parameter length s.
    An element that holds such a piece is at least s|e| wide, and a new
    one that no written id names again is that piece alone: a straight
    segment, connected, of diameter s|e|.  So one test per group,
    s^2 |e|^2 < eps^2, charged as one pair, decides those elements and
    refuses no element that holds.  Each element that a written id names
    then takes the general path: its stretches, its pieces each merged
    into its left neighbour when that one is the element's too, must be
    connected and of diameter strictly below eps, its pair work charged
    first.  Time and memory are linear in the certificate's items,
    whatever count they name.  Raises VerificationFailure with the first
    offending detail.
    """
    work = _checker_work(graph, cert, budget)
    if len(cert.pieces) != len(graph.edges):
        raise VerificationFailure(f"certificate has {len(cert.pieces)} "
                                  f"rows, host has {len(graph.edges)} edges")
    eps2 = cert.epsilon * cert.epsilon
    length2 = [graph.edge_length2(e) for e in range(len(graph.edges))]
    named = sorted({x for row in cert.pieces for x in row if type(x) is int})
    stretches: defaultdict[int, list] = defaultdict(list)  # e, lo, hi, ...
    for e, lo, step, n, k, new in _groups(cert.pieces):
        work.add(1)
        if not step * step * length2[e] < eps2:
            raise VerificationFailure(f"element {new if k is None else k} "
                                      f"has diameter >= epsilon")
        if k is not None:  # the first piece is element k's
            el = stretches[k]
            if el[-3::2] == [e, lo]:  # it goes on from its last piece
                el[-1] = lo + step
            else:
                el += (e, lo, lo + step)
        # Piece i is element first + i; the new ones go on if named again.
        first = new - (k is not None)
        for j in named[bisect_left(named, new):
                       bisect_left(named, first + n)]:
            p = lo + (j - first) * step
            stretches[j] += (e, p, p + step)
    for k, el in stretches.items():  # in id order, as they were made
        at = range(0, len(el), 3)
        if _joined_runs(graph, [(el[j], el[j + 1] == 0, el[j + 2] == 1)
                                for j in at]).count() != 1:
            raise VerificationFailure(f"element {k} is not connected")
        pts = [graph.edge_raw(el[j], el[j + i]) for j in at for i in (1, 2)]
        work.add(len(pts) * len(pts))
        dn, dd = xc.max_pair_dist2(pts)
        if dn * eps2.denominator >= eps2.numerator * dd:
            raise VerificationFailure(f"element {k} has diameter >= epsilon")
    return cert.count


def check_separation(graph: PLGraph, cert: SeparationCertificate,
                     budget: Budget | None = None) -> int:
    """Recheck a separation certificate; returns the point count.

    Every point, in order, must be kept by `_scan_apart`, the rule the
    greedy keeps points by: each pair is >= eps apart, recomputed
    exactly, or the clipped eps-ball around one of the two cuts the other
    off.  The host is checked by `_host_threshold`, charged to this
    check's budget, as `lower_separation` checks it: the clip's argument
    needs a proper host.  On a builder host every point must clear the
    host's guard threshold at the certificate's scale.  n(n-1)/2 pair
    tests over the budget are refused before the first.  Raises
    VerificationFailure with the first offending detail.
    """
    work = _checker_work(graph, cert, budget)
    ne = len(graph.edges)
    for k, (e, _) in enumerate(cert.points):
        if not (0 <= e < ne):
            raise VerificationFailure(f"point {k}: edge out of range")
    pts = [(e, graph.edge_raw(e, t)) for e, t in cert.points]
    try:
        threshold = _host_threshold(graph, cert.epsilon, work)
    except ParseError as exc:
        raise VerificationFailure(str(exc)) from exc
    if threshold is not None:
        for k, (_, r) in enumerate(pts):
            if not _clears(r, threshold):
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
    A row leaves out each id that is the next new one and writes each
    longest stretch of two or more equal steps with no id as one run.
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
    rows, seen = [], 0
    for pieces in starts:
        pieces.sort()
        # `step` is the last cut's, or None once an id is written.
        row, prev, step = [], _ZERO, None
        for lo, k in pieces:
            if lo:
                d, prev = lo - prev, lo
                if d != step:
                    row.append(lo)
                    step = d
                else:
                    row[-1] = (d, row[-1][1] + 1 if type(row[-1]) is tuple
                               else 2)
            if k < seen:
                row.append(k)
                step = None
            else:
                seen += 1
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
                     budget: Budget | None = None) -> SeparationCertificate:
    """Greedy maximal family of pairwise-separated points.

    The host is checked first, by `_host_threshold` on this call's budget
    as `check_separation` checks it.  The pool of `_candidate_points` is
    scanned from the highest point down and kept by the checker's rule,
    `_scan_apart`, so no dropped candidate could be added to the
    certificate.  On a builder host, candidates below the guard threshold
    are discarded first, which makes the certificate hold for the
    untruncated continuum.  The greedy may test every pair of the pool, so
    n(n-1)/2 pair tests over the budget are refused before the first, as
    `check_separation` refuses them: on a plain host, before the first
    point is made, and on a builder host, as soon as the points that clear
    the threshold are that many.  Each test the checker makes is made and
    charged here too, so no budget that this call passes refuses its
    certificate.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    work = _Work(budget or Budget())
    work.budget.check_edges(len(graph.edges))
    threshold = _host_threshold(graph, eps, work)
    n, pool = _candidate_points(graph, eps, work)
    if threshold is None:
        work.budget.check_pairs(work.total + n * (n - 1) // 2)
    else:
        cleared = []
        for p in pool:
            if _clears(p[2], threshold):
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
    return SeparationCertificate(eps, kept, graph.graph_id())


def _host_threshold(graph: PLGraph, eps: Fraction,
                    work: _Work) -> Fraction | None:
    """The one host check for a lower bound, charged to `work`: the
    host's guard threshold at scale eps, or None.

    A separation certificate holds only on a proper host, and a guard only
    for the continuum that the host's builder metadata names.  A host
    whose metadata names the shark-teeth builder must be exactly the graph
    the builder makes from that spec, which proves it proper, and gets the
    threshold (omitted amplitude bound) + eps.  The spec is rebuilt under
    the host's edge count as its edge budget, which the builder charges
    with `predicted_counts` before it makes any point, so the rebuild is
    never larger than the host; a spec the builder refuses, for its size
    or that budget, fails here.  Any other host must pass
    `PLGraph.validate_proper`, whose E(E-1)/2 segment tests are charged
    first, and gets None.  A host that fails either proof is a
    `ParseError`.
    """
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
    return next_amplitude_bound(spec) + eps
