"""Certified bounds: greedy builders, verifiers, guards, tiny-host oracle.

Frozen counts were derived before being asserted here.  For the unit
segment at eps = 1/m the exact answer is m + 1: m pieces of length 1/m
fail the strict diameter bound, and m + 1 points at spacing 1/m pairwise
reach it.  The small-host brackets were cross-checked against
`reference.brute_force_oracle`, which shares no clip code with the
library: its lower side decides separation with the delta-fragment clip.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import (ORACLE_MAX_EDGES, DeltaClip, bare,
                       brute_force_oracle, cover_v3_doc, cover_v4, cover_v5,
                       dist2, edge_point, measure_capped, points_diameter2,
                       s_bounds, separation_v3_doc, v3_rows)

from sdimlab import (Budget, BudgetExceeded, CoverCertificate,
                     DisconnectedInput, HostMismatch, IFSSpec,
                     ParseError, PLGraph, SeparationCertificate,
                     ToothSequenceSpec, VerificationFailure, arrange,
                     certificate_from_json_dict, check_cover,
                     check_separation, lower_separation, point, segment,
                     upper_cover)
from sdimlab import exactcore as xc
from sdimlab.cli import _json_chunks
from sdimlab.cover import (_candidate_points, _clears, _clip,
                           _host_threshold, _Work, _extend)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
EIGHTH = Fraction(1, 8)


# ---------------------------------------------------------------------------
# cover rows


def _cover(g: PLGraph, eps, rows: list) -> CoverCertificate:
    """The certificate that a document with these rows, every id written
    and every cut as in version 3, reads as."""
    return certificate_from_json_dict(cover_v5(cover_v4({
        "format": "sdimlab/cover", "version": 3, "graph_id": g.graph_id(),
        "epsilon": str(eps), "pieces": rows})))


def _element_pieces(cert: CoverCertificate) -> list[list[tuple]]:
    """Each element's pieces (edge, lo, hi), read off the version 3
    rows."""
    out = [[] for _ in range(cert.count)]
    for e, row in enumerate(v3_rows(cert)):
        cuts = (Fraction(0), *row[1::2], Fraction(1))
        for i, k in enumerate(row[::2]):
            out[k].append((e, cuts[i], cuts[i + 1]))
    return out


def test_fragment_bounds_are_enforced(seg_graph):
    # A row's cuts rise strictly inside (0, 1), so each piece lies on its
    # edge and has positive length.
    gid = seg_graph.graph_id()
    assert CoverCertificate(HALF, ((HALF,),), gid).count == 2
    for row in [(-QUARTER,), (Fraction(5, 4),),
                (Fraction(2, 3), Fraction(1, 3))]:
        with pytest.raises(ValueError, match="does not rise inside"):
            CoverCertificate(HALF, (row,), gid)


def test_subset_connectivity_on_one_edge(seg_graph):
    # Element 0's two pieces meet at 1/2 and make one run; with element 1
    # between them, element 0 holds both ends of the edge but not its
    # middle.
    assert check_cover(seg_graph, _cover(seg_graph, 3, [[0, "1/2", 0]])) == 1
    gapped = _cover(seg_graph, 3, [[0, "1/4", 1, "1/2", 0]])
    with pytest.raises(VerificationFailure,
                       match="element 0 is not connected"):
        check_cover(seg_graph, gapped)


def test_subset_connects_through_shared_vertex(lshape_graph):
    # Both legs leave the origin; element 0 holds the half of each at it.
    assert [a for a, _ in lshape_graph.edges] == [0, 0]
    assert lshape_graph.vertices[0] == point(0, 0)
    cert = _cover(lshape_graph, 1, [[0, "1/2", 1], [0, "1/2", 2]])
    assert check_cover(lshape_graph, cert) == 3


def _vertices_of(graph, piece):
    e, lo, hi = piece
    a, b = graph.edges[e]
    return {v for v, at in ((a, lo == 0), (b, hi == 1)) if at}


def _connected_pairwise(graph, pieces) -> bool:
    """Reference: search over the pairs of pieces that share a point, on
    one edge by interval overlap, across edges by a common vertex."""
    def touch(f, g):
        if f[0] == g[0]:
            return max(f[1], g[1]) <= min(f[2], g[2])
        return bool(_vertices_of(graph, f) & _vertices_of(graph, g))

    reached, todo = {0}, [0]
    while todo:
        i = todo.pop()
        for j, g in enumerate(pieces):
            if j not in reached and touch(pieces[i], g):
                reached.add(j)
                todo.append(j)
    return len(reached) == len(pieces)


@pytest.mark.parametrize("host", ["lshape_graph", "cross_graph", "m2"])
@settings(deadline=None)
@given(data=st.data())
def test_subset_connectivity_matches_pairwise_reference(request, host, data):
    # These hosts lie in the unit square, so at eps = 2 no diameter fails:
    # the checker refuses the first element that the pairwise search
    # calls disconnected, and accepts when there is none.
    graph = request.getfixturevalue(host)
    cert = _cover(graph, 2, _free_rows(graph, data))
    split = [k for k, pieces in enumerate(_element_pieces(cert))
             if not _connected_pairwise(graph, pieces)]
    if not split:
        assert check_cover(graph, cert) == cert.count
        return
    with pytest.raises(VerificationFailure,
                       match=f"^element {split[0]} is not connected$"):
        check_cover(graph, cert)


# ---------------------------------------------------------------------------
# upper cover


@pytest.mark.parametrize("m", range(2, 11))
def test_interval_cover_needs_m_plus_one_pieces(seg_graph, m):
    cert = upper_cover(seg_graph, Fraction(1, m))
    assert cert.count == m + 1
    assert check_cover(seg_graph, cert) == m + 1


def test_cover_diameters_strictly_below_eps(cross_graph):
    eps = QUARTER
    cert = upper_cover(cross_graph, eps)
    for pieces in _element_pieces(cert):
        ends = [edge_point(cross_graph, e, t)
                for e, lo, hi in pieces for t in (lo, hi)]
        assert points_diameter2(ends) < eps * eps


def test_cover_verifies_on_all_fixtures(seg_graph, cross_graph, lshape_graph,
                                        m1, m2, m3):
    for g in (seg_graph, cross_graph, lshape_graph, m1, m2, m3):
        for eps in (HALF, QUARTER):
            cert = upper_cover(g, eps)
            assert check_cover(g, cert) == cert.count


def test_cover_respects_pair_budget(m3):
    with pytest.raises(BudgetExceeded):
        upper_cover(m3, EIGHTH, budget=Budget(max_pair_checks=10))


def test_cover_respects_edge_budget(m3):
    with pytest.raises(BudgetExceeded):
        upper_cover(m3, HALF, budget=Budget(max_edges=3))


def test_cover_rejects_nonpositive_eps(seg_graph):
    with pytest.raises(ValueError):
        upper_cover(seg_graph, Fraction(0))


def _reach_case(p0, p1, a, b, ends, eps):
    """`_extend` on the one edge p0-p1 from a toward b, with the piece
    endpoints `ends`, and a test of admissibility by its definition."""
    g = PLGraph([p0, p1], [(0, 1)])
    eps2 = eps * eps

    def admissible(c):
        x, y = p0.x + c * (p1.x - p0.x), p0.y + c * (p1.y - p0.y)
        return all((x - s.x) ** 2 + (y - s.y) ** 2 < eps2 for s in ends)

    c = _extend(g, 0, a, b, b > a, [s.raw() for s in ends],
                eps2.numerator, eps2.denominator, _Work(Budget()))
    return c, admissible


_small = st.fractions(min_value=-2, max_value=2, max_denominator=12)
_unit = st.fractions(min_value=-1, max_value=1, max_denominator=12)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_extend_returns_b_or_the_last_grid_point_short_of_the_reach(data):
    p0, p1 = point(data.draw(_small), data.draw(_small)), \
        point(data.draw(_small), data.draw(_small))
    assume(p0 != p1)
    a, b = data.draw(st.lists(st.fractions(0, 1, max_denominator=64),
                              min_size=2, max_size=2, unique=True))
    eps = data.draw(st.fractions(Fraction(1, 8), 2, max_denominator=12))
    pa = point(p0.x + a * (p1.x - p0.x), p0.y + a * (p1.y - p0.y))
    # Piece endpoints lie strictly within eps of the point at a, which is
    # itself one, as in `upper_cover`.
    offsets = data.draw(st.lists(st.tuples(_unit, _unit).filter(
        lambda u: u[0] ** 2 + u[1] ** 2 < 1), max_size=4))
    ends = [pa] + [point(pa.x + eps * u, pa.y + eps * v) for u, v in offsets]
    c, admissible = _reach_case(p0, p1, a, b, ends, eps)
    if c == b:
        assert admissible(b)
        return
    assert not admissible(b)
    sign = 1 if b > a else -1
    m = next(m for m in itertools.count()
             if admissible(a + sign * Fraction(1, 2 ** m)))
    step = Fraction(sign, 2 ** max(2, m + 6))
    assert (c / step).denominator == 1
    assert 0 < (c - a) * sign < (b - a) * sign
    assert admissible(c)
    assert not admissible(c + step)


@pytest.mark.parametrize("forward", [True, False])
def test_extend_finds_a_reach_far_below_the_first_level(forward):
    # The reach is 2^-70 from a: m = 71, so the grid is 2^-77.  Halving
    # from b answered 2^-71, which is off that grid.
    tiny = Fraction(1, 2 ** 70)
    if forward:
        a, b, far = Fraction(0), Fraction(1), point(-1 + tiny, 0)
    else:
        a, b, far = Fraction(1), Fraction(0), point(2 - tiny, 0)
    ends = [point(a, 0), far]
    c, admissible = _reach_case(point(0, 0), point(1, 0), a, b, ends,
                                Fraction(1))
    assert c == a + (b - a) * (tiny - Fraction(1, 2 ** 77))
    assert admissible(c)


# ---------------------------------------------------------------------------
# lower bounds


@pytest.mark.parametrize("m", range(2, 11))
def test_interval_separation_reaches_m_plus_one(seg_graph, m):
    cert = lower_separation(seg_graph, Fraction(1, m))
    assert len(cert.points) == m + 1
    assert check_separation(seg_graph, cert) == m + 1


def _separates(g, c, o, eps) -> bool:
    """Whether the exact clip at eps around the point c = (edge, t) cuts
    the point o off: o lies outside the closed eps-ball around c, or its
    edge is off the edges of c's component."""
    rc = g.edge_raw(*c)
    dn, dd = xc.dist2_q(rc, g.edge_raw(*o))
    return (Fraction(dn, dd) > eps * eps
            or o[0] not in _clip(g, c[0], rc, eps * eps, _Work(Budget())))


@pytest.mark.parametrize("host", ["m2", "m3", "w6"])
def test_every_close_pair_is_separated_by_a_clip(host, request):
    # The greedy keeps a point when, for every kept point closer than eps,
    # the clip around one of the two cuts the other off: the checker's
    # rule.  Some pairs need the earlier point's clip.
    g = bare(request.getfixturevalue(host))
    eps = Fraction(1, 64)
    cert = lower_separation(g, eps)
    located = [edge_point(g, *p) for p in cert.points]
    close = [(i, j) for i, j in itertools.combinations(range(len(located)), 2)
             if dist2(located[i], located[j]) < eps * eps]
    assert close
    earlier_only = 0
    for i, j in close:
        by_later = _separates(g, cert.points[j], cert.points[i], eps)
        by_earlier = _separates(g, cert.points[i], cert.points[j], eps)
        assert by_later or by_earlier, (i, j)
        earlier_only += not by_later
    assert earlier_only
    assert check_separation(g, cert) == len(cert.points)


def test_default_pool_is_charged_before_it_is_made(seg_graph, m3,
                                                  monkeypatch):
    # At eps = 1e-9 the unit segment's pool is a billion points, refused
    # on its own charge; at 1/100000 it is 100,001 points, whose
    # 5,000,050,000 pairs are refused.  Either way no point is made: the
    # one distance taken is the edge's squared length, which sets the
    # charge, no pool point is located and no pair is tested.
    dist2_q, edge_raw = xc.dist2_q, PLGraph.edge_raw
    for eps in (Fraction(1, 10 ** 9), Fraction(1, 100000)):
        calls, made = [], []

        def counted(a, b):
            calls.append((a, b))
            return dist2_q(a, b)

        def located(graph, e, t):
            made.append((e, t))
            return edge_raw(graph, e, t)

        monkeypatch.setattr(xc, "dist2_q", counted)
        monkeypatch.setattr(PLGraph, "edge_raw", located)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            lower_separation(seg_graph, eps)
        assert time.perf_counter() - start < 1
        assert (calls, made) == ([seg_graph.raw_vertices()], []), eps
    # On a builder host, each point that clears the guard is charged as
    # it is made.  On m3 at 1/10000 the pool is 45,859 points, of which
    # 23,374 clear the guard: the greedy is refused at the first cleared
    # point whose pairs pass the budget, and the rest of the pool is never
    # made.
    eps, n = Fraction(1, 10000), 45859
    threshold = _threshold(m3, eps)
    made = []  # `located` still records each point made
    with pytest.raises(BudgetExceeded) as info:
        lower_separation(m3, eps)
    monkeypatch.undo()
    k = sum(_clears(raw, threshold)
            for raw in [*m3.raw_vertices(),
                        *(m3.edge_raw(e, t) for e, t in made)])
    cap = Budget().max_pair_checks
    assert n + (k - 1) * (k - 2) // 2 <= cap
    assert str(info.value) == (f"pair checks {n + k * (k - 1) // 2} "
                               f"exceed budget {cap}")
    assert _clears(m3.edge_raw(*made[-1]), threshold)
    assert len(made) < n - len(m3.vertices)


def test_s_bounds_bracket_small_hosts(seg_graph, cross_graph, lshape_graph,
                                      m1, m2, m3):
    # Frozen brackets; each was cross-checked against the oracle.  m3 at
    # 1/4 rose from 9 to 11 with the exact clip (oracle bracket (10, 15)),
    # then to 13 when the greedy took the checker's either-clip rule, as
    # m2 rose from 4 to 5 at 1/2 (now exact) and from 9 to 11 at 1/4
    # (oracle upper 13).  The teeth hosts are bare, so each bracket is of
    # the truncation alone.
    frozen = {
        ("seg", HALF): (3, 3), ("seg", QUARTER): (5, 5),
        ("cross", HALF): (5, 6), ("cross", QUARTER): (9, 12),
        ("lsh", HALF): (5, 5), ("lsh", QUARTER): (9, 9),
        ("m1", HALF): (4, 4), ("m1", QUARTER): (8, 9),
        ("m2", HALF): (5, 5), ("m2", QUARTER): (11, 12),
        ("m3", HALF): (4, 5), ("m3", QUARTER): (13, 14),
    }
    hosts = {"seg": seg_graph, "cross": cross_graph, "lsh": lshape_graph,
             "m1": bare(m1), "m2": bare(m2), "m3": bare(m3)}
    for (name, eps), expected in frozen.items():
        assert s_bounds(hosts[name], eps) == expected


# ---------------------------------------------------------------------------
# clipped balls


def _pair_cert(g, a, b):
    """Two-point certificate at eps = 1/2."""
    return SeparationCertificate(HALF, (a, b), g.graph_id())


def test_peaks_of_adjacent_teeth_are_separated(m2):
    g = bare(m2)
    peak1 = (1, Fraction(1))  # (1/2, 1/2)
    peak2 = (0, Fraction(1))  # (1/2, 1/4)
    assert dist2(edge_point(g, *peak1), edge_point(g, *peak2)) < HALF * HALF
    for c, o in ((peak1, peak2), (peak2, peak1)):
        assert _separates(g, c, o, HALF)
        assert check_separation(g, _pair_cert(g, c, o)) == 2


def test_same_tooth_flanks_are_not_separated(m2):
    g = bare(m2)
    a = (1, Fraction(3, 4))
    b = (4, Fraction(1, 4))
    for c, o in ((a, b), (b, a)):
        assert not _separates(g, c, o, HALF)
        with pytest.raises(VerificationFailure,
                           match="neither clipped ball separates"):
            check_separation(g, _pair_cert(g, c, o))


def test_clip_separates_a_point_outside_the_ball(seg_graph):
    # Both points lie on the one edge of the clip around t = 0.  The
    # point at 3/4 is past eps, so the distance alone keeps it; the one
    # at 1/4 is in the closed ball, so its edge in the clip joins them.
    assert check_separation(seg_graph, _pair_cert(
        seg_graph, (0, Fraction(0)), (0, Fraction(3, 4)))) == 2
    with pytest.raises(VerificationFailure,
                       match="neither clipped ball separates"):
        check_separation(seg_graph, _pair_cert(
            seg_graph, (0, Fraction(0)), (0, QUARTER)))


@st.composite
def small_proper_hosts(draw):
    """A random polyline on the grid of sixteenths in the unit square,
    made proper by `arrange`: crossings become vertices, overlaps merge."""
    grid = st.integers(0, 16)
    pts = draw(st.lists(st.tuples(grid, grid), min_size=2, max_size=5,
                        unique=True))
    return arrange([segment(point(Fraction(ax, 16), Fraction(ay, 16)),
                            point(Fraction(bx, 16), Fraction(by, 16)))
                    for (ax, ay), (bx, by) in zip(pts, pts[1:])])


@settings(max_examples=60, deadline=None)
@given(g=small_proper_hosts(), data=st.data())
def test_exact_clip_separates_whatever_the_delta_clip_separates(g, data):
    # The delta clip keeps a superset of the closed ball's trace, so its
    # components are coarser: every pair it separates stays separated.
    def graph_point():
        e = data.draw(st.integers(0, len(g.edges) - 1))
        return e, Fraction(data.draw(st.integers(0, 8)), 8)

    eps = Fraction(data.draw(st.integers(1, 12)), 16)
    delta = eps / data.draw(st.integers(1, 8))
    c, o = graph_point(), graph_point()
    if DeltaClip(g, c, eps * eps, delta, _Work(Budget())).separates(o):
        assert _separates(g, c, o, eps)


def _assert_greedy_is_maximal(g, eps):
    """The greedy keeps a certificate its checker accepts, and no pool
    point it dropped can be appended to it."""
    cert = lower_separation(g, eps)
    assert check_separation(g, cert) == len(cert)
    kept = set(cert.points)
    for e, t, _ in _candidate_points(g, eps, _Work(Budget()))[1]:
        if (e, t) in kept:
            continue
        grown = SeparationCertificate(eps, cert.points + ((e, t),),
                                      g.graph_id())
        with pytest.raises(VerificationFailure,
                           match="neither clipped ball separates"):
            check_separation(g, grown)
    return cert


@settings(max_examples=40, deadline=None)
@given(g=small_proper_hosts(),
       eps=st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(3, 16),
                            Fraction(1, 8)]))
def test_greedy_lower_is_maximal_for_its_checker(g, eps):
    _assert_greedy_is_maximal(g, eps)


def test_greedy_lower_on_m2_at_half_is_maximal_and_exact(m2):
    # With the candidate's clip alone the greedy kept 4 points here and
    # dropped one that the checker accepts; the oracle bracket is (4, 5).
    assert len(_assert_greedy_is_maximal(bare(m2), HALF)) == 5
    assert s_bounds(bare(m2), HALF) == (5, 5)


# ---------------------------------------------------------------------------
# truncation guard


def _threshold(graph, eps, budget=None):
    return _host_threshold(graph, eps, _Work(budget or Budget()))


def test_guard_frozen_values(m3):
    # m3 omits tooth 4, whose amplitude is at most 1/16.
    assert _threshold(m3, EIGHTH) == Fraction(1, 16) + EIGHTH


def test_guarded_lower_keeps_only_tall_points(m3):
    # 10 of the 31 pool points clear the threshold 3/16; the greedy
    # discards the other 21 and keeps all ten.
    cert = lower_separation(m3, EIGHTH)
    n, pool = _candidate_points(m3, EIGHTH, _Work(Budget()))
    tall = {(e, t) for e, t, raw in pool if _clears(raw, Fraction(3, 16))}
    assert (n, len(tall)) == (31, 10)
    assert set(cert.points) == tall
    assert check_separation(m3, cert) == 10


def test_guard_requires_builder_metadata(seg_graph, m3):
    # A host without shark-teeth builder metadata gets no threshold.
    assert _threshold(seg_graph, EIGHTH) is None
    other = PLGraph(m3.vertices, m3.edges, {"builder": "hand"})
    assert _threshold(other, EIGHTH) is None


# Metadata that names the builder but describes no valid spec, or a spec
# whose graph is not the host's.
MALFORMED_BUILDER_META = [
    {"builder": "shark-teeth"},
    {"builder": "shark-teeth", "levels": [3, 1]},
    {"builder": "shark-teeth", "kind": "paper", "teeth": "x"},
    {"builder": "shark-teeth", "kind": "paper", "teeth": 3.0},
    {"builder": "shark-teeth", "kind": "paper", "teeth": 0},
    {"builder": "shark-teeth", "levels": [1, True]},
    {"builder": "shark-teeth", "levels": 3},
    {"builder": "shark-teeth", "levels": [1, 21]},
    {"builder": "shark-teeth", "kind": "paper", "teeth": 4097},
    {"builder": "shark-teeth", "kind": "explicit", "teeth": 6,
     "levels": [1, 2, 3, 4, 5, 6]},
]


@pytest.mark.parametrize("meta", MALFORMED_BUILDER_META)
def test_guard_refuses_malformed_builder_metadata(m3, meta):
    host = PLGraph(m3.vertices, m3.edges, meta)
    with pytest.raises(ParseError):
        lower_separation(host, EIGHTH)


def test_guard_rebuilds_no_larger_than_the_host(m3, monkeypatch):
    # Paper K = 4095 builds 63,436 edges, within the default budget but
    # not within m3's 10: the rebuild is refused before any tooth is made.
    import sdimlab.continuum as continuum
    made = []
    tooth = continuum.tooth_polyline

    def counted(*args):
        made.append(args)
        return tooth(*args)
    monkeypatch.setattr(continuum, "tooth_polyline", counted)
    host = PLGraph(m3.vertices, m3.edges, {"builder": "shark-teeth",
                                           "kind": "paper", "teeth": 4095})
    with pytest.raises(ParseError, match="does not fit the host"):
        lower_separation(host, EIGHTH)
    assert made == []


def _guarded_cert(m3):
    """The peaks (1/2, 1/2) and (1/2, 1/4) of m3, which clear its guard at
    1/8, highest first, each named at the end of its first edge."""
    peaks = ((3, Fraction(1)), (2, Fraction(1)))
    assert [edge_point(m3, *p) for p in peaks] == [point(HALF, HALF),
                                                    point(HALF, QUARTER)]
    return SeparationCertificate(EIGHTH, peaks, m3.graph_id())


def test_guard_thin_threshold_fails(m3):
    # The threshold is the amplitude bound plus eps, 1/16 + 1/8: the peak
    # of tooth 3 at (1/4, 1/12) is above every omitted tooth but closer
    # than eps to them, and is refused before any pair is tested.
    cert = _guarded_cert(m3)
    assert edge_point(m3, 0, Fraction(1)) == point(QUARTER, Fraction(1, 12))
    bad = SeparationCertificate(cert.epsilon,
                                cert.points + ((0, Fraction(1)),),
                                cert.graph_id)
    with pytest.raises(VerificationFailure,
                       match="point 2 lies below the guard threshold"):
        check_separation(m3, bad)
    assert check_separation(bare(m3), SeparationCertificate(
        bad.epsilon, bad.points, bare(m3).graph_id())) == 3


def test_guard_point_below_threshold_fails(m3):
    cert = _guarded_cert(m3)
    pts = cert.points + ((0, Fraction(0)),)
    bad = SeparationCertificate(cert.epsilon, pts, cert.graph_id)
    with pytest.raises(VerificationFailure,
                       match="lies below the guard threshold"):
        check_separation(m3, bad)


@pytest.mark.parametrize("meta", [{}, *MALFORMED_BUILDER_META])
def test_guard_against_host_without_usable_metadata_fails(m3, meta):
    # Same geometry, so every point still checks; only the threshold
    # cannot be recomputed from the host.  Without metadata the host is
    # checked for properness and the certificate bounds the truncation
    # alone; metadata that names the builder but does not rebuild the
    # host refuses it.
    cert = _guarded_cert(m3)
    host = PLGraph(m3.vertices, m3.edges, meta)
    relabeled = SeparationCertificate(cert.epsilon, cert.points,
                                      host.graph_id())
    if meta:
        with pytest.raises(VerificationFailure):
            check_separation(host, relabeled)
    else:
        assert check_separation(host, relabeled) == 2


def test_guard_refuses_a_host_its_builder_did_not_make(m3_moved_peak):
    with pytest.raises(ParseError, match="does not match"):
        lower_separation(m3_moved_peak, EIGHTH)


def test_guarded_certificate_on_a_moved_peak_fails(m3_moved_peak):
    # The points bound the moved truncation alone, and check there; the
    # builder metadata does not rebuild the host, so nothing on the host
    # itself is accepted.
    host, plain = m3_moved_peak, bare(m3_moved_peak)
    cert = lower_separation(plain, EIGHTH)
    assert check_separation(plain, cert) == len(cert) > 0
    relabeled = SeparationCertificate(cert.epsilon, cert.points,
                                      host.graph_id())
    with pytest.raises(VerificationFailure, match="does not match"):
        check_separation(host, relabeled)


def test_guard_on_wrong_host_fails(m3, w6):
    cert = _guarded_cert(m3)
    relabeled = SeparationCertificate(cert.epsilon, cert.points,
                                      w6.graph_id())
    with pytest.raises(VerificationFailure):
        check_separation(w6, relabeled)


# ---------------------------------------------------------------------------
# verification failure modes


def test_check_cover_rejects_gap(lshape_graph):
    # Each row covers its edge, so the rows cover the host when there is
    # one per edge: a missing row leaves an edge uncovered.
    rows = [[0, "1/2", 1], [2, "1/2", 3]]
    assert check_cover(lshape_graph, _cover(lshape_graph, 1, rows)) == 4
    for bad in (rows[:1], rows + [[4]]):
        with pytest.raises(VerificationFailure,
                           match=f"has {len(bad)} rows, host has 2 edges"):
            check_cover(lshape_graph, _cover(lshape_graph, 1, bad))


def test_check_cover_rejects_fat_element(seg_graph):
    with pytest.raises(VerificationFailure,
                       match="element 0 has diameter >= epsilon"):
        check_cover(seg_graph, _cover(seg_graph, HALF, [[0]]))


def test_check_cover_rejects_exact_diameter_tie(seg_graph):
    # diam == eps must fail: the bound is strict.
    with pytest.raises(VerificationFailure,
                       match="element 0 has diameter >= epsilon"):
        check_cover(seg_graph, _cover(seg_graph, HALF, [[0, "1/2", 1]]))


@pytest.mark.parametrize("row, element", [(["1/2"], 0), (["1/4", "3/4"], 1)],
                         ids=["whole-row", "mid-row"])
def test_check_cover_refuses_a_lone_cut_piece_eps_long(seg_graph, row,
                                                       element):
    # A new element that a cut makes and no id names again is its one
    # piece, so the one test that decides a run's elements decides it:
    # [0, 1/2], or [1/4, 3/4], is exactly eps long, and is refused by id.
    doc = {"format": "sdimlab/cover", "version": 5,
           "graph_id": seg_graph.graph_id(), "epsilon": "1/2",
           "pieces": [row]}
    with pytest.raises(VerificationFailure,
                       match=f"^element {element} has diameter >= epsilon$"):
        check_cover(seg_graph, certificate_from_json_dict(doc))


def test_check_cover_rejects_disconnected_element(seg_graph):
    # Element 0 holds [0, 1/8] and [1/4, 3/8], of diameter 3/8 < 1/2,
    # and every other element is one piece shorter than 1/2.
    cert = _cover(seg_graph, HALF,
                  [[0, "1/8", 1, "1/4", 0, "3/8", 2, "3/4", 3]])
    with pytest.raises(VerificationFailure,
                       match="element 0 is not connected"):
        check_cover(seg_graph, cert)


def test_check_cover_rejects_empty_element(seg_graph):
    # An id that skips one would leave element 1 empty; a certificate
    # cannot hold one.
    with pytest.raises(ValueError,
                       match="row 0: element id 2 is not one of the 1"):
        CoverCertificate(Fraction(3, 4), ((HALF, 2),), seg_graph.graph_id())


def test_check_cover_refuses_a_run_whose_pieces_are_eps_long(seg_graph):
    # A run's pieces are each s|e| long, so one exact test, s^2 |e|^2 <
    # eps^2, decides every element that the run alone holds: steps of 1/4
    # at eps = 1/4 are refused, though every piece past the run is short,
    # and steps of 63/256 pass.
    tie = _cover(seg_graph, QUARTER,
                 [[0, "1/4", 1, "1/2", 2, "3/4", 3, "7/8", 4]])
    assert tie.pieces == (((QUARTER, 3), Fraction(7, 8)),)
    with pytest.raises(VerificationFailure,
                       match="element 0 has diameter >= epsilon"):
        check_cover(seg_graph, tie)
    short = _cover(seg_graph, QUARTER,
                   [[0, "63/256", 1, "63/128", 2, "189/256", 3, "7/8", 4]])
    assert short.pieces == (((Fraction(63, 256), 3), Fraction(7, 8)),)
    assert check_cover(seg_graph, short) == 5


@pytest.mark.parametrize("host, eps, rows, failure", [
    ("lshape_graph", Fraction(3), [[0, "1/4", 1, "1/2", 2, "3/4", 3], [1]],
     "element 1 is not connected"),
    ("seg_graph", HALF, [[0, "1/8", 1, "1/4", 2, "3/8", 2, "3/4", 3]],
     "element 2 has diameter >= epsilon"),
    ("seg_graph", HALF, [[0, "1/8", 1, "1/4", 2, "3/8", 2, "5/8", 3]],
     None),
], ids=["on-another-edge", "too-wide", "accepted"])
def test_check_cover_takes_a_run_element_named_again_on_the_general_path(
        request, host, eps, rows, failure):
    # A run element whose id is written again holds more than its piece
    # of the run, so the one test does not decide it: its run piece and
    # its other pieces must be connected and of diameter below eps.  On
    # another edge element 1's piece [1/4, 1/2] of the run is cut off;
    # on its own edge element 2 goes on from the run's [1/4, 3/8] to 3/4.
    graph = request.getfixturevalue(host)
    cert = _cover(graph, eps, rows)
    assert type(cert.pieces[0][0]) is tuple
    if failure is None:
        assert check_cover(graph, cert) == cert.count == 4
        return
    with pytest.raises(VerificationFailure, match=f"^{failure}$"):
        check_cover(graph, cert)


def test_check_cover_rejects_wrong_host(seg_graph, m1):
    cert = upper_cover(seg_graph, HALF)
    with pytest.raises(HostMismatch):
        check_cover(m1, cert)


def test_check_separation_rejects_missing_witness(seg_graph):
    # Two points 1/4 apart on one edge: closer than eps, and neither
    # clipped ball can witness a separation, since the edge joins them.
    pts = ((0, Fraction(0)), (0, QUARTER))
    cert = SeparationCertificate(HALF, pts, seg_graph.graph_id())
    with pytest.raises(VerificationFailure):
        check_separation(seg_graph, cert)


def test_check_separation_accepts_distance_tie(seg_graph):
    # dist == eps is allowed for separation, unlike the cover side.
    pts = ((0, Fraction(0)), (0, HALF))
    cert = SeparationCertificate(HALF, pts, seg_graph.graph_id())
    assert check_separation(seg_graph, cert) == 2


def test_check_separation_tries_the_new_points_clip():
    # A V with its apex at (1/8, 3/8).  a = (13/32, 3/16) on one arm and
    # b = (9/32, 3/8) on the other are sqrt(52)/32 apart, under eps.  The
    # apex is within eps of b, so b's clip holds a; it is sqrt(117)/32
    # from a, so a's clip cuts b off.  With b kept first, only the new
    # point's clip separates the pair.
    g = arrange([segment(point(Fraction(3, 4), Fraction(3, 8)),
                         point(Fraction(1, 8), Fraction(3, 8))),
                 segment(point(Fraction(1, 8), Fraction(3, 8)),
                         point(Fraction(1, 2), Fraction(1, 8)))])
    a, b = (0, Fraction(3, 4)), (1, QUARTER)
    assert edge_point(g, *a) == point(Fraction(13, 32), Fraction(3, 16))
    assert edge_point(g, *b) == point(Fraction(9, 32), Fraction(3, 8))
    assert _separates(g, a, b, QUARTER)
    assert not _separates(g, b, a, QUARTER)
    cert = SeparationCertificate(QUARTER, (b, a), g.graph_id())
    assert check_separation(g, cert) == 2


def test_check_separation_rejects_false_disconnection(m2):
    g = bare(m2)
    a = (1, Fraction(3, 4))
    b = (4, Fraction(1, 4))
    cert = SeparationCertificate(HALF, (a, b), g.graph_id())
    with pytest.raises(VerificationFailure):
        check_separation(g, cert)


def test_check_separation_refuses_a_host_whose_edges_cross():
    # As a set the X is connected with diameter sqrt(2) < 3/2, so S_eps is
    # 1; as a graph its diagonals share no vertex, so each clip keeps them
    # apart and only the properness check stands between it and a false 2.
    host = PLGraph([point(0, 0), point(1, 1), point(0, 1), point(1, 0)],
                   [(0, 1), (2, 3)])
    eps = Fraction(3, 2)
    cert = SeparationCertificate(eps, ((0, Fraction(0)), (1, Fraction(0))),
                                 host.graph_id())
    assert _separates(host, *cert.points, eps)
    with pytest.raises(VerificationFailure, match="not proper"):
        check_separation(host, cert)


def test_check_separation_charges_the_properness_check(cross_graph):
    cert = lower_separation(cross_graph, HALF)
    ne = len(cross_graph.edges)
    with pytest.raises(BudgetExceeded):
        check_separation(cross_graph, cert,
                         Budget(max_pair_checks=ne * (ne - 1) // 2 - 1))
    assert check_separation(cross_graph, cert) == len(cert)


def test_lower_separation_is_refused_where_its_checker_would_be(plain4):
    # The producer runs the checker's host check on its own budget, and
    # its pool and scan hold every pair test the checker makes, so no
    # budget passes the producer that refuses its certificate.  At 7,198
    # pair checks the checker refuses the 54 points on this 76-edge host,
    # and the producer refuses to make them; at the producer's peak, the
    # least budget it passes, the checker accepts them.
    eps = Fraction(1, 16)
    with pytest.raises(BudgetExceeded):
        lower_separation(plain4, eps, Budget(max_pair_checks=7198))
    peaks = []

    class Recording(Budget):
        def check_pairs(self, n: int) -> None:
            peaks.append(n)
            super().check_pairs(n)

    cert = lower_separation(plain4, eps, Recording())
    peak = max(peaks)
    assert len(cert) == 54
    with pytest.raises(BudgetExceeded):
        check_separation(plain4, cert, Budget(max_pair_checks=7198))
    with pytest.raises(BudgetExceeded):
        lower_separation(plain4, eps, Budget(max_pair_checks=peak - 1))
    assert check_separation(plain4, cert, Budget(max_pair_checks=peak)) == 54


def test_check_separation_charges_its_pair_tests_before_the_first(
        seg_graph, monkeypatch):
    # 1,500 points make 1,124,250 pair tests, over a budget of 1,000,000:
    # the certificate is refused before any exact distance is taken.
    n = 1500
    cert = SeparationCertificate(
        Fraction(1, 2 * n), tuple((0, Fraction(j, n)) for j in range(n)),
        seg_graph.graph_id())
    calls = []
    monkeypatch.setattr(xc, "dist2_q", lambda *args: calls.append(args))
    with pytest.raises(BudgetExceeded):
        check_separation(seg_graph, cert,
                         Budget(max_pair_checks=1_000_000))
    assert calls == []


def test_producers_refuse_a_host_whose_edges_cross():
    # The X of the test above, whose S_eps is 1: unchecked, s_bounds gave
    # a lower bound of 2.
    host = PLGraph([point(0, 0), point(1, 1), point(0, 1), point(1, 0)],
                   [(0, 1), (2, 3)])
    eps = Fraction(3, 2)
    with pytest.raises(ParseError, match="host is not proper"):
        lower_separation(host, eps)


@pytest.mark.parametrize("edge", [-1, 1])
def test_check_separation_refuses_an_edge_off_the_host(seg_graph, edge):
    # Edge -1 would name the last edge if read as a Python index.
    cert = SeparationCertificate(HALF, ((edge, Fraction(0)),),
                                 seg_graph.graph_id())
    with pytest.raises(VerificationFailure,
                       match="point 0: edge out of range"):
        check_separation(seg_graph, cert)


def test_check_separation_refuses_an_improper_host(improper_graph):
    cert = SeparationCertificate(HALF, ((0, Fraction(0)),),
                                 improper_graph.graph_id())
    with pytest.raises(VerificationFailure, match="not proper"):
        check_separation(improper_graph, cert)


def test_truncation_guard_charges_the_properness_check(cross_graph):
    # The producer's host check is charged to its own budget, first.
    ne = len(cross_graph.edges)
    with pytest.raises(BudgetExceeded):
        lower_separation(cross_graph, HALF,
                         Budget(max_pair_checks=ne * (ne - 1) // 2 - 1))
    assert _threshold(cross_graph, HALF,
                      Budget(max_pair_checks=ne * (ne - 1) // 2)) is None


def test_truncation_guard_trusts_a_rebuilt_host_to_be_proper(w6,
                                                            monkeypatch):
    eps = Fraction(1, 32)
    want = _threshold(w6, eps)

    def refuse(self):
        raise AssertionError("validate_proper called on a rebuilt host")
    monkeypatch.setattr(PLGraph, "validate_proper", refuse)
    assert _threshold(w6, eps, Budget(max_pair_checks=0)) == want


def test_check_separation_trusts_a_rebuilt_host_to_be_proper(w6,
                                                            monkeypatch):
    # And so does the producer, which runs the same host check.
    def refuse(self):
        raise AssertionError("validate_proper called on a rebuilt host")
    monkeypatch.setattr(PLGraph, "validate_proper", refuse)
    for eps in (Fraction(1, 32), Fraction(1, 8)):
        cert = lower_separation(w6, eps)
        assert check_separation(w6, cert) == len(cert)


# ---------------------------------------------------------------------------
# serialization


def test_cover_certificate_round_trip(m2):
    cert = upper_cover(m2, HALF)
    doc = cert.to_json_dict()
    assert doc["version"] == 5
    assert len(doc["pieces"]) == len(m2.edges)
    # The version 3 rows less each id that is the next new one, and each
    # stretch of equally spaced cuts as one run.
    assert doc == cover_v5(cover_v4(cover_v3_doc(cert)))
    back = CoverCertificate.from_json_dict(doc)
    assert back == cert
    assert back.to_json_dict() == doc
    assert check_cover(m2, back) == cert.count


@settings(max_examples=40, deadline=None)
@given(g=small_proper_hosts(),
       eps=st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(3, 16),
                            Fraction(1, 8), Fraction(2, 7)]))
def test_cover_document_round_trips_on_small_hosts(g, eps):
    cert = upper_cover(g, eps)
    # The greedy never gives two neighbouring pieces to one element.
    assert all(a != b for row in v3_rows(cert)
               for a, b in zip(row[::2], row[2::2]))
    text = "".join(_json_chunks(cert.to_json_dict()))
    doc = json.loads(text)
    assert doc == cover_v5(cover_v4(cover_v3_doc(cert)))
    back = certificate_from_json_dict(doc)
    assert back == cert
    assert check_cover(g, back) == check_cover(g, cert) == cert.count


@pytest.mark.parametrize("host", ["lshape_graph", "cross_graph", "m2"])
@settings(deadline=None)
@given(data=st.data())
def test_cover_document_round_trips_rows_the_greedy_never_writes(
        request, host, data):
    # Any valid rows: neighbours of one element, an element again after
    # others, whole edges, equally spaced cuts with ids inside and around
    # them.  The rows read back as the version 3 rows, every left-out id
    # and every run's cuts put back, and the writer leaves out exactly the
    # ids that are the next new one.
    graph = request.getfixturevalue(host)
    rows = data.draw(st.sampled_from([_free_rows, _spaced_rows]))(graph, data)
    cert = _cover(graph, 2, rows)
    assert v3_rows(cert) == tuple(
        tuple(Fraction(x) if i % 2 else x for i, x in enumerate(row))
        for row in rows)
    doc = cert.to_json_dict()
    assert doc == cover_v5(cover_v4(cover_v3_doc(cert)))
    assert sum(type(x) is int for row in doc["pieces"] for x in row) \
        == sum(len(row) // 2 + 1 for row in rows) - cert.count
    assert certificate_from_json_dict(doc) == cert
    # Each run is a longest one: a cut or run that follows another with
    # no id written between them has a different step.
    for row in doc["pieces"]:
        prev, last = Fraction(0), None
        for x in row:
            if type(x) is int:
                last = None
                continue
            if type(x) is list:
                step = Fraction(x[0])
                assert step > 0 and x[1] >= 2
                prev += x[1] * step
            else:
                step, prev = Fraction(x) - prev, Fraction(x)
            assert step != last, row
            last = step


def test_cover_document_numbers_elements_by_first_appearance(lshape_graph):
    # Ids are numbered as they first appear, reading the rows in order;
    # a whole edge is a row with no cut.  The rows, in memory as in a
    # document, leave out each id that is new: here element 0 and 1 where
    # each begins, and element 1's id is written for its second piece.
    gid = lshape_graph.graph_id()
    with pytest.raises(ValueError, match="row 0: element id 1"):
        CoverCertificate(Fraction(3), ((1,), (HALF, 0)), gid)
    cert = CoverCertificate(Fraction(3), ((), (HALF, 1)), gid)
    assert v3_rows(cert) == ((0,), (1, HALF, 1))
    doc = cert.to_json_dict()
    assert doc["pieces"] == [[], ["1/2", 1]]
    assert CoverCertificate.from_json_dict(doc) == cert
    assert check_cover(lshape_graph, cert) == 2


@pytest.mark.parametrize("rows", [
    ((HALF, HALF), ()),
    ((HALF, QUARTER), ()),
    ((Fraction(1),), ()),
    ((), (2,)),
    ((), (-1,)),
    ((HALF, 0, 0), ()),
    ((), (1,)),
    (((Fraction(0), 2),), ()),
    (((QUARTER, 1),), ()),
    ((HALF, (QUARTER, 2)), ()),
], ids=["point", "overlap", "short", "empty-element", "negative-edge",
        "two-ids", "id-at-the-count", "zero-step", "run-of-1",
        "run-reaching-1"])
def test_cover_writer_refuses_fragments_that_do_not_cut_each_edge(
        lshape_graph, rows):
    # A certificate cuts each edge into pieces of positive length that
    # each belong to an element, one seen before when its id is written,
    # and a run is n >= 2 cuts that rise by a positive step and end
    # below 1; its constructor refuses rows that do not.
    with pytest.raises(ValueError):
        CoverCertificate(Fraction(3), rows, lshape_graph.graph_id())


def test_cover_reader_shares_each_cut_between_its_pieces(seg_graph):
    # Each cut is held once, in its row, though it bounds two pieces.
    # Here the two cuts are equally spaced, one run of two, which is one
    # item in memory as in the document.
    doc = upper_cover(seg_graph, HALF).to_json_dict()
    assert doc["pieces"] == [[["127/256", 2]]]
    back = CoverCertificate.from_json_dict(doc)
    assert back.pieces == (((Fraction(127, 256), 2),),)
    assert v3_rows(back) == (
        (0, Fraction(127, 256), 1, Fraction(127, 128), 2),)
    assert _element_pieces(back) == [
        [(0, 0, Fraction(127, 256))],
        [(0, Fraction(127, 256), Fraction(127, 128))],
        [(0, Fraction(127, 128), 1)]]


@pytest.mark.parametrize("row", [
    ["1/2", "1/2"],
    ["1/2", "1/4"],
    ["0", "1/2"],
    ["1/2", "1"],
    ["1/2", 2],
    [1, "1/2"],
    ["1/2", -1],
    [0],
    ["1/2", 1],
    ["1/2", 0, 0],
    ["1/4", 0, 0, "1/2"],
    ["1/2", True],
    ["1/2", 0.0],
    ["1/2", "0"],
    ["1/2", None],
    "1/2",
    [["1/4", 0]],
    [["1/4", 1]],
    [["1/4", -1]],
    [["1/4", True]],
    [["1/4", 2.0]],
    [["1/4", "2"]],
    [["0", 2]],
    [["-1/8", 2]],
    [[0.25, 2]],
    [["1/4", 2, 0]],
    [["1/4", 4]],
    ["1/2", ["1/4", 2]],
], ids=["repeated-cut", "falling-cut", "cut-at-0", "cut-at-1",
        "id-past-the-count", "first-id-not-0", "negative-id",
        "first-id-at-the-count", "id-at-the-count", "two-ids",
        "two-ids-mid-row", "bool-id", "float-id", "string-id", "null-id",
        "not-a-list", "run-of-0", "run-of-1", "run-of-minus-1",
        "bool-run-length", "float-run-length", "string-run-length",
        "zero-step", "negative-step", "number-step", "run-with-a-third-item",
        "run-reaching-1", "run-after-a-cut-reaching-1"])
def test_cover_reader_refuses_rows_that_break_the_layout(seg_graph, row):
    # A version 5 row: a written id must be below the count of ids seen
    # so far, at most one id stands before each cut or run and after the
    # last, a string is always a cut, and a run is a positive rational
    # string step and a JSON integer n >= 2 whose last cut is below 1.
    doc = upper_cover(seg_graph, HALF).to_json_dict()
    certificate_from_json_dict(doc)
    with pytest.raises(ParseError):
        certificate_from_json_dict({**doc, "pieces": [row]})


@pytest.mark.parametrize("row, pieces", [
    ([], (0,)),
    (["1/2"], (0, HALF, 1)),
    (["1/2", 0], (0, HALF, 0)),
    ([["1/4", 2], 0, "3/4"], (0, QUARTER, 1, HALF, 0, Fraction(3, 4), 2)),
    ([["1/4", 3]], (0, QUARTER, 1, HALF, 2, Fraction(3, 4), 3)),
    (["1/8", ["1/4", 2], "15/16"],
     (0, EIGHTH, 1, Fraction(3, 8), 2, Fraction(5, 8), 3, Fraction(15, 16),
      4)),
    (["1/2", 0, ["1/8", 2], 1],
     (0, HALF, 0, Fraction(5, 8), 1, Fraction(3, 4), 1)),
], ids=["empty-row", "one-cut", "an-id-seen-before", "ids-left-out-around",
        "one-run", "run-after-a-cut", "ids-around-a-run"])
def test_cover_reader_puts_back_each_left_out_id(seg_graph, row, pieces):
    # An empty row is one new element that covers the whole edge.  The
    # rows stay as written, and the version 3 rows put back each id.
    doc = upper_cover(seg_graph, HALF).to_json_dict()
    cert = certificate_from_json_dict({**doc, "pieces": [row]})
    assert v3_rows(cert) == (pieces,)
    assert cert.count == len(pieces) // 2 + 1 - sum(
        type(x) is int for x in row)
    assert cert.to_json_dict()["pieces"] == [row]


def _v2_elements(cert) -> list:
    return [[[e, str(lo), str(hi)] for e, lo, hi in pieces]
            for pieces in _element_pieces(cert)]


def test_cover_v1_document_is_refused(m2):
    cert = upper_cover(m2, HALF)
    doc = cert.to_json_dict()
    # Version 1 alone, on v3 rows, is refused by its version...
    with pytest.raises(ParseError, match="unsupported version 1"):
        certificate_from_json_dict({**doc, "version": 1})
    # ...and a whole v1 document by its elements, which are objects.
    del doc["pieces"]
    doc["version"] = 1
    doc["elements"] = [{"whole_edges": [], "partial_edges": el,
                        "anchor_vertices": []} for el in _v2_elements(cert)]
    with pytest.raises(ParseError):
        certificate_from_json_dict(doc)


def test_cover_v3_document_is_refused(m2):
    # Version 3 wrote every id, and its rows are no fallback.
    cert = upper_cover(m2, HALF)
    with pytest.raises(ParseError, match="unsupported version 3"):
        certificate_from_json_dict(cover_v3_doc(cert))
    with pytest.raises(ParseError, match="unsupported version 3"):
        certificate_from_json_dict({**cert.to_json_dict(), "version": 3})


def test_cover_v4_document_is_refused(m2):
    # Version 4 wrote every cut.  Its rows are valid version 5 rows, which
    # read as the same cover with no run, but the document is no fallback.
    cert = upper_cover(m2, HALF)
    doc = cover_v4(cover_v3_doc(cert))
    assert doc != cert.to_json_dict()
    with pytest.raises(ParseError, match="unsupported version 4"):
        certificate_from_json_dict(doc)
    back = certificate_from_json_dict({**doc, "version": 5})
    assert v3_rows(back) == v3_rows(cert)
    assert check_cover(m2, back) == check_cover(m2, cert) == cert.count


def test_cover_reader_and_checker_keep_a_billion_cut_run_as_one_item(
        seg_graph):
    # Under 200 B name a billion cuts in one run.  The certificate holds
    # the run as one item, and `check_cover` takes its elements with one
    # test, (1/10^9)^2 |e|^2 < (1/2)^2, so a billion and one elements are
    # checked in little time and memory.  The child runs under an address
    # space cap, so a reader or checker that makes the cuts fails there.
    doc = {"format": "sdimlab/cover", "version": 5,
           "graph_id": seg_graph.graph_id(), "epsilon": "1/2",
           "pieces": [[["1/1000000000", 999_999_999]]]}
    assert len(json.dumps(doc)) < 200
    setup = (
        "import json\n"
        "from sdimlab import PLGraph, certificate_from_json_dict, "
        "check_cover\n"
        f"graph = PLGraph.from_json_dict({seg_graph.to_json_dict()!r})\n"
        f"doc = {doc!r}\n"
        "def read_and_check(doc):\n"
        "    cert = certificate_from_json_dict(doc)\n"
        "    return cert.pieces, cert.count, check_cover(graph, cert)\n")
    _, value, seconds, peak = measure_capped(setup, "read_and_check(doc)")
    assert value == ("((((Fraction(1, 1000000000), 999999999),),), "
                     "1000000000, 1000000000)")
    assert seconds < 1.0, seconds
    assert peak < 1_000_000, peak


def test_cover_v2_document_is_refused(m2):
    # Version 2 listed each element's [edge, lo, hi] fragments.
    cert = upper_cover(m2, HALF)
    doc = cert.to_json_dict()
    with pytest.raises(ParseError, match="unsupported version 2"):
        certificate_from_json_dict({**doc, "version": 2})
    del doc["pieces"]
    doc["version"] = 2
    doc["elements"] = _v2_elements(cert)
    with pytest.raises(ParseError, match="unsupported version 2"):
        certificate_from_json_dict(doc)


def test_separation_certificate_round_trip(m2, m3):
    # A guarded document and a plain one have the same members.
    for g, eps in ((bare(m2), HALF), (m3, EIGHTH)):
        cert = lower_separation(g, eps)
        doc = cert.to_json_dict()
        assert doc["version"] == 4
        assert set(doc) == {"format", "version", "graph_id", "epsilon",
                            "points"}
        back = SeparationCertificate.from_json_dict(doc)
        assert back == cert
        assert back.to_json_dict() == doc
        assert check_separation(g, back) == len(cert.points)


def test_separation_v1_document_is_refused(m2):
    doc = lower_separation(bare(m2), HALF).to_json_dict()
    doc["version"] = 1
    doc["witnesses"] = [{"i": 0, "j": 1, "kind": "disconnection"}]
    with pytest.raises(ParseError):
        certificate_from_json_dict(doc)


def test_separation_v2_document_is_refused(m2):
    # Version 2 listed a clip center and fragment scale per close pair.
    doc = lower_separation(bare(m2), HALF).to_json_dict()
    doc["version"] = 2
    doc["witnesses"] = [{"i": 0, "j": 1, "center": 1, "delta": "1/16"}]
    with pytest.raises(ParseError, match="unsupported version 2"):
        certificate_from_json_dict(doc)


def test_separation_v3_document_is_refused(m3):
    # Version 3 wrote the guard, which version 4 leaves to the host.
    doc = separation_v3_doc(lower_separation(m3, EIGHTH), m3, True)
    assert doc["guard"] == {"K": 3, "amplitude_bound": "1/16",
                            "threshold": "3/16"}
    with pytest.raises(ParseError, match="unsupported version 3"):
        certificate_from_json_dict(doc)
    assert certificate_from_json_dict({**doc, "version": 4}) \
        == lower_separation(m3, EIGHTH)


def _with_item(doc, key, index, item):
    items = list(doc[key])
    items[index] = item
    return {**doc, key: items}


@pytest.mark.parametrize("edge", [0.7, 1.2, 1.0, "1", True, None])
def test_cover_reader_refuses_a_fragment_edge_that_is_not_an_integer(
        m2, edge):
    # A fragment's edge is its row's place; the integers in a row are the
    # element ids, read as strictly as an edge index was.
    doc = upper_cover(m2, HALF).to_json_dict()
    with pytest.raises(ParseError):
        certificate_from_json_dict(_with_item(doc, "pieces", 0, [edge]))


@pytest.mark.parametrize("mangle", [
    lambda doc: _with_item(doc, "points", 0, [1.0, "1"]),
    lambda doc: _with_item(doc, "points", 0, ["1", "1"]),
    lambda doc: _with_item(doc, "points", 0, [True, "1"]),
    lambda doc: _with_item(doc, "points", 0, "01"),
    lambda doc: _with_item(doc, "points", 0, [0]),
    lambda doc: _with_item(doc, "points", 0, [0, "1", 2]),
    lambda doc: _with_item(doc, "points", 0, {"0": "1"}),
    lambda doc: _with_item(doc, "points", 0, [0, "3/2"]),
], ids=["point-float", "point-string", "point-bool", "point-not-a-list",
        "point-short", "point-long", "point-object", "point-t-past-1"])
def test_separation_reader_refuses_indexes_that_are_not_integers(m2, mangle):
    # And points that are not an [edge, "t"] pair with t in [0, 1].
    doc = lower_separation(bare(m2), HALF).to_json_dict()
    certificate_from_json_dict(doc)
    with pytest.raises(ParseError):
        certificate_from_json_dict(mangle(doc))


def test_certificate_dispatch(m2):
    up = upper_cover(m2, HALF).to_json_dict()
    low = lower_separation(bare(m2), HALF).to_json_dict()
    assert isinstance(certificate_from_json_dict(up), CoverCertificate)
    assert isinstance(certificate_from_json_dict(low),
                      SeparationCertificate)
    with pytest.raises(ParseError):
        certificate_from_json_dict({"format": "mystery"})


@pytest.mark.parametrize("data", [[], "x", None, 3])
@pytest.mark.parametrize("read", [CoverCertificate.from_json_dict,
                                  SeparationCertificate.from_json_dict,
                                  certificate_from_json_dict],
                         ids=["cover", "separation", "either"])
def test_certificate_readers_refuse_a_document_that_is_not_an_object(
        read, data):
    with pytest.raises(ParseError):
        read(data)


_READERS = {"sdimlab/plgraph": PLGraph.from_json_dict,
            "sdimlab/tooth-spec": ToothSequenceSpec.from_json_dict,
            "sdimlab/ifs": IFSSpec.from_json_dict,
            "sdimlab/cover": CoverCertificate.from_json_dict,
            "sdimlab/separation": SeparationCertificate.from_json_dict}


@pytest.mark.parametrize("kind", sorted(_READERS))
@pytest.mark.parametrize("header", ["array", "other-format", "version-99"])
def test_every_reader_refuses_a_wrong_header(kind, header):
    data, message = {
        "array": ([], f"not a {kind} document"),
        "other-format": ({"format": "x"}, f"not a {kind} document"),
        "version-99": ({"format": kind, "version": 99},
                       "unsupported version 99"),
    }[header]
    with pytest.raises(ParseError, match=message):
        _READERS[kind](data)


def test_certificate_reader_ignores_a_member_its_format_does_not_read(m2):
    up = upper_cover(m2, HALF).to_json_dict()
    low = lower_separation(bare(m2), HALF).to_json_dict()
    for doc, key in ((up, "points"), (low, "pieces")):
        assert certificate_from_json_dict({**doc, key: [5]}) \
            == certificate_from_json_dict(doc)


# ---------------------------------------------------------------------------
# golden outputs


def _digest(doc: dict) -> str:
    text = "".join(_json_chunks(doc))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class _PeakBudget(Budget):
    """The default budget, remembering the largest pair count that it was
    asked about: a call's final charge."""

    def __init__(self):
        super().__init__()
        # A frozen dataclass refuses assignment only to its own fields.
        self.peak = 0

    def check_pairs(self, n: int) -> None:
        self.peak = max(self.peak, n)
        super().check_pairs(n)


def _check_upper(graph: PLGraph, cert: CoverCertificate) -> int:
    """`check_cover`'s count for `cert`, once its document reads back as
    `cert`."""
    assert certificate_from_json_dict(cert.to_json_dict()) == cert
    return check_cover(graph, cert)


@pytest.fixture(scope="module")
def golden_upper(request):
    """(host, eps) -> the host fixture named `host` and its upper
    certificate at eps, made once for the golden tests."""
    covers: dict[tuple[str, Fraction], CoverCertificate] = {}

    def get(host: str, eps: Fraction) -> tuple[PLGraph, CoverCertificate]:
        graph = request.getfixturevalue(host)
        if (host, eps) not in covers:
            covers[host, eps] = upper_cover(graph, eps)
        return graph, covers[host, eps]
    return get


def _upper_digests(cert) -> tuple[str, str, str]:
    """The digests of `cert` as cover version 3, as version 4 and as the
    writer writes it, version 5."""
    v3 = cover_v3_doc(cert)
    return (_digest(v3), _digest(cover_v4(v3)),
            _digest(cert.to_json_dict()))


def _lower_digests(cert, host, guarded) -> tuple[str, str]:
    """The digests of `cert` as separation version 3 on `host` and as
    version 4."""
    return (_digest(separation_v3_doc(cert, host, guarded)),
            _digest(cert.to_json_dict()))


# (host, eps, (guarded lower v3, v4), (unguarded lower v3, v4) or None,
# (upper v3, v4, v5)): the first 16 hex digits of the SHA-256 of each
# certificate as the CLI writes it.  The lower certificate on the host is
# guarded, and the unguarded one is made on the host without its builder
# metadata; each version 3 digest is of that document relabeled to the
# host and with the guard member version 3 wrote, so its points are the
# ones version 3 listed.  The guarded point lists are the ones version 2
# listed, while m3's unguarded list grew from 61 to 63 points with the
# exact clip, and to 67 when the greedy took the checker's either-clip
# rule.  The upper certificates' elements are the ones cover version 2
# listed, fragment for fragment: their version 3 digests have held since
# version 3, version 4 writes the same rows less each new id, and
# version 5 writes each stretch of equally spaced cuts as one run.
GOLDEN = [
    ("m3", Fraction(1, 16), ("76e004d03f32a4fc", "9323854f1404df68"),
     ("1cf8ff70aa3f5a57", "f4fff69453bd60fb"),
     ("435ee97da42ef4bc", "671424fcf87d226b",
      "ebbb2c7488dd949e")),
    ("w6", Fraction(1, 64), ("5d79cf9ee29ef67a", "6c8b1fb2cf96b180"), None,
     ("2719c5bd30f1c162", "978606c6738d8ad7",
      "4602cde6f6d61c37")),
    ("w6", Fraction(33, 2048), ("7607fe2599841d59", "717ffeb13d6fba8b"),
     None, ("f657802d37e6e5ad", "8a117cd03ec3c731",
            "2a8fdd5cf00ad931")),
    ("m15", Fraction(1, 16), ("d7ae7a1d4011d190", "e3f2e85d64fdfb9a"), None,
     ("5b999cdbb6c4b45c", "6d2f4f0d980c7037",
      "0749bc0783efca8e")),
]


@pytest.mark.parametrize("host, eps, guarded, unguarded, upper", GOLDEN,
                         ids=[f"{g[0]}-{g[1].numerator}_{g[1].denominator}"
                              for g in GOLDEN])
def test_certificates_match_golden_digests(request, golden_upper, host, eps,
                                           guarded, unguarded, upper):
    graph = request.getfixturevalue(host)
    low = lower_separation(graph, eps)
    assert _lower_digests(low, graph, True) == guarded
    assert check_separation(graph, low) == len(low)
    if unguarded is not None:
        plain = bare(graph)
        low = lower_separation(plain, eps)
        assert _lower_digests(low, graph, False) == unguarded
        assert check_separation(plain, low) == len(low)
    _, up = golden_upper(host, eps)
    assert _upper_digests(up) == upper
    assert _check_upper(graph, up) == up.count


# (host, eps, (upper v3, v4, v5), element count) at scales off the
# dyadic grid, where the reach of a piece is an irrational root.  The
# hosts past the shark-teeth pair are arranged ones, with slanted edges,
# crossings and T-junctions, which no builder makes.
GOLDEN_UPPER = [
    ("w6", Fraction(1033, 262144),
     ("d6b11a5a8da37e85", "89f23902cc79b33e",
      "8231cc707d990aa1"), 1926),
    ("m15", Fraction(1, 37),
     ("53939792b7a7ddaa", "7c6dfd7f95012154",
      "9e91ac3e85350677"), 590),
    ("cross_graph", Fraction(1, 3),
     ("e541e1993780fb79", "58bdc11a1ae4d2e9",
      "3f05ae612af4d28e"), 10),
    ("cross_graph", Fraction(2, 7),
     ("e45bacb5ce72a6fc", "4c43907ce5f016c9",
      "70d1dd0da9f8e6bf"), 10),
    ("lshape_graph", Fraction(1, 3),
     ("e2af0f71dd02a466", "5dc3e34f0d8cce09",
      "26caed62fa128d94"), 7),
    ("lshape_graph", Fraction(3, 10),
     ("2f12dd01035884e5", "1251f8f63876403b",
      "042b81ceedad7e8d"), 8),
    ("kite_graph", Fraction(1, 3),
     ("5ed7d707744640e4", "04b84c12520d8631",
      "edfcdbf6affa993c"), 50),
    ("kite_graph", Fraction(5, 17),
     ("64aff8a3ea6f9e0d", "21587860f7912e78",
      "7e70a62714551676"), 57),
    ("fork_graph", Fraction(1, 3),
     ("38f57c619a18a996", "137a94e64bdcfbd4",
      "2462060802832e54"), 37),
    ("fork_graph", Fraction(4, 11),
     ("1dd1e478c299cfa2", "65b820918878ad05",
      "747d5ca84796da09"), 33),
]


@pytest.mark.parametrize("host, eps, upper, count", GOLDEN_UPPER,
                         ids=[f"{g[0]}-{g[1].numerator}_{g[1].denominator}"
                              for g in GOLDEN_UPPER])
def test_upper_certificates_off_the_dyadic_grid_match_golden_digests(
        golden_upper, host, eps, upper, count):
    graph, up = golden_upper(host, eps)
    assert (_upper_digests(up), up.count) == (upper, count)
    assert _check_upper(graph, up) == count


@pytest.mark.parametrize("host, eps", [g[:2] for g in GOLDEN + GOLDEN_UPPER],
                         ids=[f"{g[0]}-{g[1].numerator}_{g[1].denominator}"
                              for g in GOLDEN + GOLDEN_UPPER])
def test_check_cover_agrees_with_expanded_golden_rows(
        golden_upper, host, eps):
    # Expanded to the version 3 rows, every element is connected and of
    # diameter below eps by the pairwise references, as `check_cover`
    # finds without expanding a run.  Its one test per cut, run or row end
    # replaces the 2 * 2 pairs of each new element that no id names
    # again, so it charges less than the general path on every element
    # would.
    graph, up = golden_upper(host, eps)
    everything = 0
    for pieces in _element_pieces(up):
        assert _connected_pairwise(graph, pieces)
        ends = [edge_point(graph, e, t) for e, lo, hi in pieces
                for t in (lo, hi)]
        assert points_diameter2(ends) < eps * eps
        everything += len(ends) ** 2
    checker = _PeakBudget()
    assert check_cover(graph, up, checker) == up.count
    assert checker.peak < everything


@pytest.mark.parametrize("host, eps", [g[:2] for g in GOLDEN + GOLDEN_UPPER],
                         ids=[f"{g[0]}-{g[1].numerator}_{g[1].denominator}"
                              for g in GOLDEN + GOLDEN_UPPER])
def test_check_cover_measures_only_the_elements_a_written_id_names(
        golden_upper, host, eps, monkeypatch):
    # Every other element is one piece, which the one test per group
    # decides, so the general path's diameter kernel runs once per
    # distinct written id.
    graph, up = golden_upper(host, eps)
    calls = []
    kernel = xc.max_pair_dist2
    monkeypatch.setattr(xc, "max_pair_dist2",
                        lambda pts: calls.append(pts) or kernel(pts))
    assert check_cover(graph, up) == up.count
    written = {x for row in up.pieces for x in row if type(x) is int}
    assert len(calls) == len(written) < up.count


# ---------------------------------------------------------------------------
# tiny-host oracle


def test_oracle_matches_interval_closed_form(seg_graph):
    assert brute_force_oracle(seg_graph, HALF) == (3, 3)


def test_oracle_brackets_library_bounds(seg_graph, cross_graph,
                                        lshape_graph, m1, m2, m3):
    for g in (seg_graph, cross_graph, lshape_graph,
              *map(bare, (m1, m2, m3))):
        for eps in (HALF, QUARTER):
            lo, up = s_bounds(g, eps)
            olo, oup = brute_force_oracle(g, eps)
            assert olo <= oup
            assert lo <= oup
            assert olo <= up


def _grid_point(i: int):
    return point(i % 4, i // 4)


# Segments between two distinct points of the grid {0, ..., 3}^2, drawn
# as an index and a nonzero offset; `arrange` makes the host proper.
_grid_segment = st.builds(
    lambda i, k: segment(_grid_point(i), _grid_point((i + k) % 16)),
    st.integers(0, 15), st.integers(1, 15))


@settings(max_examples=20, deadline=None)
@given(segs=st.lists(_grid_segment, min_size=2, max_size=4),
       eps=st.sampled_from([HALF, Fraction(1), Fraction(3, 2)]))
def test_oracle_brackets_library_bounds_on_random_hosts(segs, eps):
    try:
        g = arrange(segs)
    except DisconnectedInput:
        assume(False)
    assume(len(g.edges) <= 12)
    lo, up = s_bounds(g, eps)
    assert check_cover(g, upper_cover(g, eps)) == up
    olo, oup = brute_force_oracle(g, eps)
    assert lo <= oup
    assert olo <= up


def _free_family(g: PLGraph, data) -> list[tuple[int, Fraction]]:
    """Points drawn without the greedy: on each edge a run of sixteenths
    a/16, (a + s)/16, ... or none, then vertices named through a random
    edge at them, then maybe a twin of one: the same point again, a
    vertex through any edge at it."""
    def at_vertex(v: int) -> tuple[int, Fraction]:
        e, end = data.draw(st.sampled_from(g.incident(v)))
        return e, Fraction(end)

    pts = []
    for e in range(len(g.edges)):
        s = data.draw(st.integers(0, 16))
        if s:
            a = data.draw(st.integers(0, 16))
            pts += [(e, Fraction(j, 16)) for j in range(a, 17, s)]
    vertices = st.integers(0, len(g.vertices) - 1)
    pts += [at_vertex(v) for v in data.draw(st.lists(vertices, max_size=3))]
    assume(pts)
    if data.draw(st.booleans()):
        e, t = data.draw(st.sampled_from(pts))
        twin = at_vertex(g.edges[e][int(t)]) if t in (0, 1) else (e, t)
        pts.insert(data.draw(st.integers(0, len(pts))), twin)
    return pts


def _free_rows(g: PLGraph, data) -> list[list]:
    """Cover rows drawn without the greedy: on each edge cuts at eighths,
    a/8, (a + s)/8, ..., and more at random.  Either every piece goes to
    the element of the grid cell of side c/16 that holds its midpoint, or
    each to a new element, its left neighbour's or any seen so far."""
    side = data.draw(st.integers(0, 16))
    cells: dict[tuple[int, int], int] = {}
    rows, count = [], 0
    for e in range(len(g.edges)):
        s = data.draw(st.integers(1, 8))
        a = data.draw(st.integers(1, 8))
        cuts = sorted(set(range(a, 8, s))
                      | data.draw(st.sets(st.integers(1, 7))))
        ends = [0, *cuts, 8]
        row = []
        for i in range(len(ends) - 1):
            if side:
                xn, xd, yn, yd = g.edge_raw(
                    e, Fraction(ends[i] + ends[i + 1], 16))
                k = cells.setdefault((16 * xn // (side * xd),
                                      16 * yn // (side * yd)), count)
            else:
                how = data.draw(st.sampled_from(["new", "left", "any"]))
                if how == "left" and row:
                    k = row[-1]
                elif how == "any" and count:
                    k = data.draw(st.integers(0, count - 1))
                else:
                    k = count
            count = max(count, k + 1)
            row += [f"{ends[i]}/8", k] if i else [k]
        rows.append(row)
    return rows


def _spaced_rows(g: PLGraph, data) -> list[list]:
    """Cover rows drawn as a straight edge is cut: on each edge up to two
    stretches of cuts a/d, (a + s)/d, ... on a grid of 1/d, each piece
    most often a new element, else its left neighbour's or any seen so
    far, so that written ids fall inside and around the stretches."""
    rows, count = [], 0
    for e in range(len(g.edges)):
        d = data.draw(st.sampled_from([8, 12, 64, 4096]))
        cuts: set[int] = set()
        for _ in range(data.draw(st.integers(0, 2))):
            a = data.draw(st.integers(1, d - 1))
            s = data.draw(st.integers(1, max(1, (d - a) // 2)))
            cuts.update(range(a, d, s)[:data.draw(st.integers(1, 12))])
        ends = [0, *sorted(cuts), d]
        row = []
        for i in range(len(ends) - 1):
            how = data.draw(st.sampled_from(["new", "new", "left", "any"]))
            if how == "left" and row:
                k = row[-1]
            elif how == "any" and count:
                k = data.draw(st.integers(0, count - 1))
            else:
                k = count
            count = max(count, k + 1)
            row += [f"{ends[i]}/{d}", k] if i else [k]
        rows.append(row)
    return rows


@settings(max_examples=150, deadline=None)
@given(g=small_proper_hosts(), data=st.data())
def test_accepted_separation_is_within_the_oracle_upper(g, data):
    # A family the checker accepts shows S >= its size; the oracle's
    # upper side is a cover, so S <= that bound.
    assume(len(g.edges) <= ORACLE_MAX_EDGES)
    eps = Fraction(data.draw(st.integers(2, 12)), 16)
    cert = SeparationCertificate(eps, tuple(_free_family(g, data)),
                                 g.graph_id())
    try:
        n = check_separation(g, cert)
    except VerificationFailure:
        return
    assert n <= brute_force_oracle(g, eps)[1]


@settings(max_examples=150, deadline=None)
@given(g=small_proper_hosts(), data=st.data())
def test_check_separation_accepts_every_family_the_delta_clip_separates(
        g, data):
    # Completeness: a pair that is >= eps apart, or that the delta clip of
    # one of its points cuts apart, is apart for the checker too, since
    # the exact clip separates whatever the delta clip separates.  The
    # family keeps each drawn point at j/16 that is so apart from every
    # point kept before it.
    eps = Fraction(data.draw(st.integers(2, 12)), 16)
    eps2 = eps * eps
    delta = eps / data.draw(st.integers(1, 4))
    work = _Work(Budget())
    kept = []  # (point, its location, its delta clip)
    edges = st.integers(0, len(g.edges) - 1)
    for e, j in data.draw(st.lists(st.tuples(edges, st.integers(0, 16)),
                                   min_size=1, max_size=12)):
        gp = (e, Fraction(j, 16))
        p = edge_point(g, *gp)
        clip = DeltaClip(g, gp, eps2, delta, work)
        if all(dist2(p, q) >= eps2 or clip.separates(o) or c.separates(gp)
               for o, q, c in kept):
            kept.append((gp, p, clip))
    # The rule is symmetric, so the family passes in any order.
    order = data.draw(st.permutations([gp for gp, _, _ in kept]))
    cert = SeparationCertificate(eps, tuple(order), g.graph_id())
    assert check_separation(g, cert) == len(kept)


@settings(max_examples=150, deadline=None)
@given(g=small_proper_hosts(), data=st.data())
def test_accepted_cover_is_above_the_oracle_lower(g, data):
    # A cover the checker accepts shows S <= its size; the oracle's lower
    # side is a separated family, so S >= that bound.
    assume(len(g.edges) <= ORACLE_MAX_EDGES)
    eps = Fraction(data.draw(st.integers(2, 12)), 16)
    cert = _cover(g, eps, _free_rows(g, data))
    try:
        n = check_cover(g, cert)
    except VerificationFailure:
        return
    assert n >= brute_force_oracle(g, eps)[0]


def test_check_cover_refuses_a_disconnected_element():
    # Two arms of a V whose open ends are 1/4 apart: their outer halves
    # make one set of diameter < 5/8 that is not connected.  Two such
    # sets would claim fewer elements than the oracle's lower bound.
    g = PLGraph([point(Fraction(1, 16), EIGHTH),
                 point(Fraction(1, 16), Fraction(3, 8)),
                 point(Fraction(13, 16), Fraction(1, 16))], [(0, 2), (1, 2)])
    eps = Fraction(5, 8)
    cert = _cover(g, eps, [[0, "1/2", 1], [0, "1/2", 1]])
    with pytest.raises(VerificationFailure,
                       match="element 0 is not connected"):
        check_cover(g, cert)
    assert brute_force_oracle(g, eps)[0] == 3


def test_oracle_refuses_large_hosts(m15):
    from sdimlab import SizeLimit
    with pytest.raises(SizeLimit):
        brute_force_oracle(m15, HALF)
