"""Certified bounds on connected-cover numbers of plane graphs.

For a compact set X and scale eps, the quantity of interest is the least
number of connected subsets of diameter strictly below eps that cover X.
Everything here brackets that number for a `PLGraph` host:

  * `upper_cover` produces a `CoverCertificate`, an explicit list of
    connected edge-fragment unions whose diameters are verified below eps
    and whose fragments cover every edge.  In a document each element is
    an array of `[edge, lo, hi]` fragments; a lone point, a vertex
    included, is a fragment with lo == hi.
  * `lower_separation` produces a `SeparationCertificate`, a list of points
    no two of which any single admissible piece can contain.  Only pairs
    closer than eps carry a witness: the eps-ball around one of them,
    clipped to the graph, falls apart into components separating the two.
    Every other pair is claimed to be at distance >= eps, which the
    checker recomputes from the two points alone.

Certificates are self-contained and re-checkable; `check_cover` and
`check_separation` recompute every claim from scratch with exact rational
arithmetic.  A `TruncationGuard` extends a separation certificate from a
finite shark-teeth truncation to the full continuum: when every chosen
point sits at height >= (omitted amplitude bound) + eps, the omitted teeth
cannot enter any relevant eps-ball, so the witnesses remain valid ambiently.
`truncation_guard` is the one place that decides whether a host gets a
guard and computes it, for the CLI, the sweep and the checker alike.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import exactcore as xc
from .errors import (EmptySubset, HostMismatch, ParseError, TooLarge,
                     VerificationFailure)
from .geom import (PLGraph, Point, UnionFind, format_rational,
                   merge_intervals, parse_index, parse_rational)
from .limits import Budget

COVER_FORMAT = "sdimlab/cover"
COVER_VERSION = 2
SEPARATION_FORMAT = "sdimlab/separation"
SEPARATION_VERSION = 2

ORACLE_MAX_EDGES = 12
_ORACLE_SEARCH_CAP = 300_000


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

    def endpoint_points(self, graph: PLGraph) -> list[Point]:
        if not self.fragments:
            raise EmptySubset("element has no fragments")
        pts = []
        for f in self.fragments:
            pts.append(graph.edge_point(f.edge, f.lo))
            pts.append(graph.edge_point(f.edge, f.hi))
        return pts

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
        runs = {e: merge_intervals(ivs) for e, ivs in runs.items()}
        return _joined_runs(graph, runs).count() == 1


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

    def locate(self, graph: PLGraph) -> Point:
        return graph.edge_point(self.edge, self.t)


@dataclass(frozen=True)
class DisconnectionWitness:
    """The clipped eps-ball around point `center` separates the pair.

    Verification recomputes the clip at fragment scale `delta`; the witness
    carries no geometry of its own.
    """
    center: int
    delta: Fraction
    kind: str = field(default="disconnection", init=False)


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


@dataclass(frozen=True)
class SeparationCertificate:
    epsilon: Fraction
    points: tuple[GraphPoint, ...]
    witnesses: tuple[tuple[int, int, DisconnectionWitness], ...]
    guard: TruncationGuard | None
    graph_id: str

    def __len__(self) -> int:
        return len(self.points)

    def json_members(self) -> dict:
        """The document's members; `points` and `witnesses` are iterators
        that serialize one item per step, for a streaming writer."""
        ws = sorted(self.witnesses, key=lambda t: (t[0], t[1]))
        return {
            "format": SEPARATION_FORMAT,
            "version": SEPARATION_VERSION,
            "graph_id": self.graph_id,
            "epsilon": format_rational(self.epsilon),
            "points": map(_point_to_json, self.points),
            "witnesses": map(_witness_to_json, ws),
            "guard": None if self.guard is None else {
                "K": self.guard.k,
                "amplitude_bound": format_rational(self.guard.amplitude_bound),
                "threshold": format_rational(self.guard.threshold),
            },
        }

    def to_json_dict(self) -> dict:
        doc = self.json_members()
        doc["points"] = list(doc["points"])
        doc["witnesses"] = list(doc["witnesses"])
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
                       fields["witnesses"], guard, str(fields["graph_id"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(
                f"malformed separation certificate: {exc}") from exc


def _point_to_json(p: GraphPoint) -> list:
    return [p.edge, format_rational(p.t)]


def _point_from_json(item: list) -> GraphPoint:
    e, t = item
    return GraphPoint(parse_index(e), parse_rational(t))


def _witness_to_json(w: tuple[int, int, DisconnectionWitness]) -> dict:
    i, j, d = w
    return {"i": i, "j": j, "center": d.center,
            "delta": format_rational(d.delta)}


def _witness_from_json(w: dict) -> tuple[int, int, DisconnectionWitness]:
    return (parse_index(w["i"]), parse_index(w["j"]),
            DisconnectionWitness(parse_index(w["center"]),
                                 parse_rational(w["delta"])))


# Array members and how one item of each is read.  An item is converted
# as soon as it is decoded, so a streamed document is never held whole.
_ITEM_READERS = {"elements": _subset_from_json,
                 "points": _point_from_json,
                 "witnesses": _witness_from_json}
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
                 runs: dict[int, list[tuple[Fraction, Fraction]]]) -> UnionFind:
    """Union-find over the runs (e, i), where runs[e] holds the disjoint
    closed parameter intervals kept on edge e, joining every two runs that
    reach a common vertex (lo == 0 at the edge's first vertex, hi == 1 at
    its second)."""
    sets = UnionFind()
    first_at: dict[int, tuple[int, int]] = {}
    for e, ivs in runs.items():
        a, b = graph.edges[e]
        for i, (lo, hi) in enumerate(ivs):
            sets.add((e, i))
            for v, reaches in ((a, lo == 0), (b, hi == 1)):
                if reaches:
                    sets.union(first_at.setdefault(v, (e, i)), (e, i))
    return sets


def _frag_count(len2: Fraction, delta: Fraction) -> int:
    """Least n >= 1 with (edge length / n) <= delta."""
    r = len2 / (delta * delta)
    n = math.isqrt(r.numerator // r.denominator)
    while n * n < r:
        n += 1
    return max(n, 1)


class _ClipIndex:
    """Components of the closed eps-ball around `center`, on the graph.

    Each edge within reach is split into fragments no longer than delta;
    a fragment is kept when its exact distance to the center is <= eps.
    Kept fragments merge into runs per edge, and runs that meet at a graph
    vertex are joined.  The kept union contains the open eps-ball
    intersected with the graph, so disjoint components here prove genuine
    separation there.
    """

    def __init__(self, graph: PLGraph, center: GraphPoint, eps2: Fraction,
                 delta: Fraction, work: _Work):
        craw = center.locate(graph).raw()
        en, ed = eps2.numerator, eps2.denominator
        self.runs: dict[int, list[tuple[Fraction, Fraction]]] = {}
        for e in range(len(graph.edges)):
            a, b = graph.edge_endpoints(e)
            work.add(1)
            dn, dd = xc.point_seg_dist2(craw, a.raw(), b.raw())
            if dn * ed > en * dd:
                continue
            m = _frag_count(graph.edge_length2(e), delta)
            work.add(m)
            kept = []
            prev = a
            for j in range(1, m + 1):
                nxt = graph.edge_point(e, Fraction(j, m))
                dn, dd = xc.point_seg_dist2(craw, prev.raw(), nxt.raw())
                if dn * ed <= en * dd:
                    kept.append((j - 1, j))
                prev = nxt
            if kept:
                self.runs[e] = [(Fraction(lo, m), Fraction(hi, m))
                                for lo, hi in merge_intervals(kept)]
        self._sets = _joined_runs(graph, self.runs)
        self.center_comp = self.components_at(center)

    def components_at(self, gp: GraphPoint) -> tuple[int, int] | None:
        """Root of the one kept run holding the point (runs are
        disjoint), or None when no kept run does."""
        for i, (lo, hi) in enumerate(self.runs.get(gp.edge, ())):
            if lo <= gp.t <= hi:
                return self._sets.find((gp.edge, i))
        return None

    def separates(self, gp: GraphPoint) -> bool:
        comp = self.components_at(gp)
        return comp is None or comp != self.center_comp


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
        pts = [p.raw() for p in el.endpoint_points(graph)]
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

    A pair listed with a disconnection witness must be separated by the
    clipped eps-ball around the witness center; every unlisted pair must
    be at distance >= eps, recomputed exactly.  When a guard is present,
    `truncation_guard` recomputes the truncation index and amplitude
    bound from the host's builder metadata, and every point must clear
    the height threshold.  Raises VerificationFailure with the first
    offending detail.
    """
    budget = budget or Budget()
    budget.check_edges(len(graph.edges))
    work = _Work(budget)
    if cert.graph_id != graph.graph_id():
        raise HostMismatch(f"certificate is for graph {cert.graph_id}, "
                           f"host is {graph.graph_id()}")
    if cert.epsilon <= 0:
        raise VerificationFailure("epsilon must be positive")
    eps2 = cert.epsilon * cert.epsilon
    en, ed = eps2.numerator, eps2.denominator
    ne = len(graph.edges)
    for k, gp in enumerate(cert.points):
        if not (0 <= gp.edge < ne):
            raise VerificationFailure(f"point {k}: edge out of range")
    located = [gp.locate(graph) for gp in cert.points]

    if cert.guard is not None:
        try:
            host = truncation_guard(graph, cert.epsilon)
        except ParseError as exc:
            raise VerificationFailure(
                f"host carries no usable truncation metadata: {exc}") from exc
        if host is None:
            raise VerificationFailure("host has no shark-teeth builder "
                                      "metadata to guard with")
        if cert.guard.k != host.k:
            raise VerificationFailure(
                f"guard claims truncation {cert.guard.k}, host has {host.k}")
        if cert.guard.amplitude_bound < host.amplitude_bound:
            raise VerificationFailure(
                "guard amplitude bound is below the recomputed bound")
        if cert.guard.threshold < cert.guard.amplitude_bound + cert.epsilon:
            raise VerificationFailure(
                "guard threshold is below amplitude bound + epsilon")
        for k, p in enumerate(located):
            if p.y < cert.guard.threshold:
                raise VerificationFailure(
                    f"point {k} lies below the guard threshold")

    n = len(cert.points)
    table = {}
    for i, j, w in cert.witnesses:
        if not (0 <= i < j < n):
            raise VerificationFailure(f"witness indexes ({i},{j}) invalid")
        table[(i, j)] = w
    clips: dict[tuple[int, Fraction], _ClipIndex] = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = table.get((i, j))
            if w is None:
                work.add(1)
                dn, dd = xc.dist2_q(located[i].raw(), located[j].raw())
                if dn * ed < en * dd:
                    raise VerificationFailure(
                        f"pair ({i},{j}): no witness and distance below "
                        f"epsilon")
                continue
            if w.center not in (i, j):
                raise VerificationFailure(
                    f"pair ({i},{j}): center must be one of the pair")
            if w.delta <= 0:
                raise VerificationFailure(
                    f"pair ({i},{j}): delta must be positive")
            c, o = (i, j) if w.center == i else (j, i)
            key = (c, w.delta)
            if key not in clips:
                clips[key] = _ClipIndex(graph, cert.points[c], eps2,
                                        w.delta, work)
            if not clips[key].separates(cert.points[o]):
                raise VerificationFailure(
                    f"pair ({i},{j}): clipped ball does not separate")
    return n


# ---------------------------------------------------------------------------
# upper bound: greedy connected cover


def _gap_right(covered: list[tuple[Fraction, Fraction]],
               a: Fraction) -> Fraction | None:
    """End of the uncovered stretch starting at a, or None if a is interior
    to covered territory (or at the edge end)."""
    if a >= 1:
        return None
    for lo, hi in covered:
        if lo <= a:
            if hi > a:
                return None
        else:
            return lo
    return Fraction(1)


def _gap_left(covered: list[tuple[Fraction, Fraction]],
              a: Fraction) -> Fraction | None:
    if a <= 0:
        return None
    out = Fraction(0)
    for lo, hi in covered:
        if hi >= a:
            if lo < a:
                return None
            break
        out = hi
    return out


def _extend(graph: PLGraph, e: int, a: Fraction, b: Fraction, forward: bool,
            s_raw: list, en: int, ed: int, work: _Work) -> Fraction | None:
    """Farthest parameter c strictly between a and b (or b itself) such
    that the point at c stays strictly within eps of every piece endpoint.

    Float search suggests a boundary; the returned value is snapped to a
    coarse absolute dyadic grid and re-checked exactly, so denominators do
    not compound across pieces.  Falls back to exact halving, which must
    succeed eventually because the constraint is open and holds at a.
    """
    def ok(c: Fraction) -> bool:
        work.add(len(s_raw))
        return xc.all_dist2_below(s_raw, graph.edge_point(e, c).raw(), en, ed)

    if ok(b):
        return b
    pa, pb = graph.edge_point(e, a), graph.edge_point(e, b)
    ax, ay = float(pa.x), float(pa.y)
    bx, by = float(pb.x), float(pb.y)
    sf = [(n0 / d0, n1 / d1) for n0, d0, n1, d1 in s_raw]
    lim = en / ed

    def okf(t: float) -> bool:
        x, y = ax + t * (bx - ax), ay + t * (by - ay)
        return all((x - px) ** 2 + (y - py) ** 2 < lim for px, py in sf)

    lo, hi = 0.0, 1.0
    for _ in range(44):
        mid = (lo + hi) / 2
        if okf(mid):
            lo = mid
        else:
            hi = mid
    cstar = float(a) + lo * (float(b) - float(a))
    span = abs(cstar - float(a))
    if span > 0:
        base = max(2, math.ceil(-math.log2(span)) + 6)
        for s in (base, base + 8, base + 16):
            if s > 200:
                break
            step = Fraction(1, 2 ** s)
            if forward:
                c = Fraction(math.floor(cstar * 2 ** s), 2 ** s)
                for _ in range(3):
                    if a < c < b and ok(c):
                        return c
                    c -= step
            else:
                c = Fraction(math.ceil(cstar * 2 ** s), 2 ** s)
                for _ in range(3):
                    if b < c < a and ok(c):
                        return c
                    c += step
    c = (a + b) / 2
    for _ in range(300):
        if ok(c):
            return c
        c = (a + c) / 2
    return None


def upper_cover(graph: PLGraph, eps: Fraction,
                budget: Budget | None = None) -> CoverCertificate:
    """Greedy connected cover by pieces of diameter strictly below eps.

    Pieces grow from the lexicographically first uncovered point, creeping
    along edges and fanning out at vertices, but only ever into territory
    no earlier piece has claimed; this keeps each piece's contribution
    maximal instead of re-treading covered ground.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    work = _Work(budget or Budget())
    work.budget.check_edges(len(graph.edges))
    eps2 = eps * eps
    en, ed = eps2.numerator, eps2.denominator
    ne = len(graph.edges)
    covered: list[list[tuple[Fraction, Fraction]]] = [[] for _ in range(ne)]

    def first_gap() -> tuple[int, Fraction] | None:
        for e, ivs in enumerate(covered):
            if not ivs or ivs[0][0] > 0:
                return e, Fraction(0)
            if ivs[0][1] < 1:
                return e, ivs[0][1]
        return None

    elements: list[SubSet] = []
    while True:
        anchor = first_gap()
        if anchor is None:
            break
        e0, a0 = anchor
        s_raw: list = []
        s_seen: set = set()
        frags: dict[int, list[tuple[Fraction, Fraction]]] = {}
        piece_vertices: set[int] = set()
        queue: deque = deque([(e0, a0, True)])

        def absorb(v: int) -> None:
            if v in piece_vertices:
                return
            piece_vertices.add(v)
            for e2, end in sorted(graph.incident(v)):
                queue.append((e2, Fraction(end), end == 0))

        while queue:
            e, a, forward = queue.popleft()
            b = (_gap_right if forward else _gap_left)(covered[e], a)
            if b is None:
                continue
            ra = graph.edge_point(e, a).raw()
            if s_raw and ra not in s_seen:
                work.add(len(s_raw))
                if not xc.all_dist2_below(s_raw, ra, en, ed):
                    continue
            if ra not in s_seen:
                s_seen.add(ra)
                s_raw.append(ra)
            c = _extend(graph, e, a, b, forward, s_raw, en, ed, work)
            if c is None:
                continue
            rc = graph.edge_point(e, c).raw()
            if rc not in s_seen:
                s_seen.add(rc)
                s_raw.append(rc)
            lo, hi = (a, c) if forward else (c, a)
            frags.setdefault(e, []).append((lo, hi))
            covered[e] = merge_intervals(covered[e] + [(lo, hi)])
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


def _candidate_points(graph: PLGraph, eps: Fraction) -> list[GraphPoint]:
    """Default candidate pool for the separated-set greedy: every vertex,
    plus, per edge, the densest uniform subdivision whose spacing is still
    >= eps (so same-edge neighbours separate by distance alone)."""
    cands: list[GraphPoint] = []
    seen: set[Point] = set()

    def push(gp: GraphPoint) -> None:
        p = gp.locate(graph)
        if p not in seen:
            seen.add(p)
            cands.append(gp)

    for v in range(len(graph.vertices)):
        e, end = min(graph.incident(v))
        push(GraphPoint(e, Fraction(end)))
    eps2 = eps * eps
    for e in range(len(graph.edges)):
        r = graph.edge_length2(e) / eps2
        q = math.isqrt(r.numerator // r.denominator)
        for j in range(1, q):
            push(GraphPoint(e, Fraction(j, q)))
    return cands


def lower_separation(graph: PLGraph, eps: Fraction,
                     guard: TruncationGuard | None = None,
                     candidates: Sequence[GraphPoint] | None = None,
                     delta: Fraction | None = None,
                     budget: Budget | None = None) -> SeparationCertificate:
    """Greedy maximal family of pairwise-separated points with witnesses.

    Candidates are scanned from the highest point down; each is kept when
    every already-kept point is either at distance >= eps or provably cut
    off by the candidate's clipped eps-ball.  Only the cut-off pairs get a
    witness in the certificate.  With a guard, candidates below the height
    threshold are discarded first, which is what makes the resulting
    certificate meaningful for the untruncated continuum.  `candidates`
    replaces the default pool of `_candidate_points`, and `delta` the
    default clip scale eps/8, for cross-checks on explicit point families.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    work = _Work(budget or Budget())
    work.budget.check_edges(len(graph.edges))
    eps2 = eps * eps
    en, ed = eps2.numerator, eps2.denominator
    delta = delta if delta is not None else eps / 8
    pool = (_candidate_points(graph, eps) if candidates is None
            else list(candidates))
    located = [(gp, gp.locate(graph)) for gp in pool]
    if guard is not None:
        located = [(gp, p) for gp, p in located if p.y >= guard.threshold]
    located.sort(key=lambda it: (-it[1].y, it[1].x, it[0].edge, it[0].t))

    kept: list[GraphPoint] = []
    kept_raw: list = []
    witnesses: list[tuple[int, int, DisconnectionWitness]] = []
    for gp, p in located:
        rp = p.raw()
        clip: _ClipIndex | None = None
        found: list[tuple[int, DisconnectionWitness]] = []
        ok = True
        for i, rk in enumerate(kept_raw):
            work.add(1)
            dn, dd = xc.dist2_q(rp, rk)
            if dn * ed >= en * dd:
                continue
            if clip is None:
                clip = _ClipIndex(graph, gp, eps2, delta, work)
            if clip.separates(kept[i]):
                found.append((i, DisconnectionWitness(center=len(kept),
                                                      delta=delta)))
            else:
                ok = False
                break
        if ok:
            j = len(kept)
            witnesses.extend((i, j, w) for i, w in found)
            kept.append(gp)
            kept_raw.append(rp)
    # Canonical witness order so the JSON round trip is the identity.
    witnesses.sort(key=lambda t: (t[0], t[1]))
    return SeparationCertificate(eps, tuple(kept), tuple(witnesses), guard,
                                 graph.graph_id())


def truncation_guard(graph: PLGraph, eps: Fraction) -> TruncationGuard | None:
    """Guard for a host at scale eps, from its builder metadata.

    A host whose metadata names the shark-teeth builder gets its guard;
    any other host gets None.  Metadata that names the builder but does
    not describe a valid spec is a `ParseError`.  The amplitude bound is
    always recomputed here rather than accepted from the caller, so a
    guard can never quietly overstate what was built.
    """
    if graph.meta.get("builder") != "shark-teeth":
        return None
    from .continuum import next_amplitude_bound, spec_from_meta
    spec = spec_from_meta(graph.meta)
    bound = next_amplitude_bound(spec)
    return TruncationGuard(spec.K, bound, bound + eps)


def s_bounds(graph: PLGraph, eps: Fraction,
             budget: Budget | None = None) -> tuple[int, int]:
    """Unguarded certified bracket (lower, upper) on the connected-cover
    number of the graph as given.

    Convenience over `lower_separation` and `upper_cover` for callers who
    want numbers rather than certificates.  lower <= upper always: both
    sides bracket the same quantity.
    """
    low = lower_separation(graph, eps, budget=budget)
    up = upper_cover(graph, eps, budget=budget)
    assert len(low.points) <= len(up.elements)
    return len(low.points), len(up.elements)


# ---------------------------------------------------------------------------
# small-instance oracle


class _SearchCap(Exception):
    pass


def brute_force_oracle(graph: PLGraph, eps: Fraction,
                       delta: Fraction | None = None,
                       budget: Budget | None = None) -> tuple[int, int]:
    """(lower, upper) bracket for tiny hosts, by exhaustion.

    The graph is chopped into fragments no longer than min(delta, eps/2).
    Upper: exact branch-and-bound set cover over a family of maximal
    connected fragment unions of diameter < eps, grown from every seed.
    Lower: exact branch-and-bound maximum independent set over fragment
    endpoints under the pairwise-separation relation.  Both searches fall
    back to their greedy seeds when the node cap trips, which keeps the
    bracket valid either way; on the small hosts this is meant for, the
    searches run to completion and the bracket is tight at this scale.

    The upper side is independent of `upper_cover`: it builds its own
    fragment graph.  The lower side decides separation with the same
    `_ClipIndex` as `lower_separation` and `check_separation`, so a
    defect in the clip test would not show up as a disagreement here.
    """
    if len(graph.edges) > ORACLE_MAX_EDGES:
        raise TooLarge(f"{len(graph.edges)} edges exceeds oracle limit "
                       f"{ORACLE_MAX_EDGES}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    work = _Work(budget or Budget())
    eps2 = eps * eps
    en, ed = eps2.numerator, eps2.denominator
    d_eff = min(delta if delta is not None else eps / 4, eps / 2)

    frag_of: list[tuple[int, int]] = []
    frag_pts: list[tuple] = []
    counts: list[int] = []
    index: dict[tuple[int, int], int] = {}
    for e in range(len(graph.edges)):
        m = _frag_count(graph.edge_length2(e), d_eff)
        counts.append(m)
        for j in range(m):
            index[(e, j)] = len(frag_of)
            frag_of.append((e, j))
            frag_pts.append((graph.edge_point(e, Fraction(j, m)).raw(),
                             graph.edge_point(e, Fraction(j + 1, m)).raw()))
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
    pts: list[GraphPoint] = []
    raws: list = []
    seen: set = set()
    for e, m in enumerate(counts):
        for j in range(m + 1):
            gp = GraphPoint(e, Fraction(j, m))
            r = gp.locate(graph).raw()
            if r not in seen:
                seen.add(r)
                pts.append(gp)
                raws.append(r)
    n = len(pts)
    clips: list[_ClipIndex | None] = [None] * n

    def clip(i: int) -> _ClipIndex:
        if clips[i] is None:
            clips[i] = _ClipIndex(graph, pts[i], eps2, d_eff, work)
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
