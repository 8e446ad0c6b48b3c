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
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import DeltaClip, brute_force_oracle

from sdimlab import (Budget, BudgetExceeded, CoverCertificate,
                     DisconnectedInput, EdgeFragment, EmptySubset, GraphPoint,
                     HostMismatch, ParseError, PLGraph,
                     SeparationCertificate, SubSet, TruncationGuard,
                     VerificationFailure, arrange, certificate_from_json_dict,
                     check_cover, check_separation, dist2, lower_separation,
                     point, points_diameter2, s_bounds, segment,
                     truncation_guard, upper_cover)
from sdimlab import exactcore as xc
from sdimlab.cli import _json_chunks
from sdimlab.cover import _candidate_points, _ClipIndex, _Work, _extend

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
EIGHTH = Fraction(1, 8)


# ---------------------------------------------------------------------------
# fragments and elements


def test_fragment_bounds_are_enforced():
    EdgeFragment(0, Fraction(0), Fraction(1))
    EdgeFragment(0, HALF, HALF)
    with pytest.raises(ValueError):
        EdgeFragment(0, Fraction(2, 3), Fraction(1, 3))
    with pytest.raises(ValueError):
        EdgeFragment(0, Fraction(-1, 4), HALF)
    with pytest.raises(ValueError):
        EdgeFragment(0, HALF, Fraction(5, 4))


def test_subset_connectivity_on_one_edge(seg_graph):
    joined = SubSet((EdgeFragment(0, Fraction(0), HALF),
                     EdgeFragment(0, HALF, Fraction(1))))
    assert joined.is_connected(seg_graph)
    gapped = SubSet((EdgeFragment(0, Fraction(0), QUARTER),
                     EdgeFragment(0, HALF, Fraction(1))))
    assert not gapped.is_connected(seg_graph)


def test_subset_connects_through_shared_vertex(lshape_graph):
    # Both legs leave the origin; fragments touching it join up.
    origin = lshape_graph.vertices.index(
        min(lshape_graph.vertices))
    frags = []
    for e, (i, j) in enumerate(lshape_graph.edges):
        if i == origin:
            frags.append(EdgeFragment(e, Fraction(0), HALF))
        elif j == origin:
            frags.append(EdgeFragment(e, HALF, Fraction(1)))
    assert len(frags) == 2
    assert SubSet(tuple(frags)).is_connected(lshape_graph)


def test_subset_isolated_anchor_vertex_disconnects(seg_graph):
    # A lone vertex is the degenerate fragment at its edge end.
    s = SubSet((EdgeFragment(0, Fraction(0), QUARTER),
                EdgeFragment(0, Fraction(1), Fraction(1))))
    assert not s.is_connected(seg_graph)


def _vertices_of(graph, f):
    a, b = graph.edges[f.edge]
    return {v for v, at in ((a, f.lo == 0), (b, f.hi == 1)) if at}


def _connected_pairwise(graph, frags) -> bool:
    """Reference: search over the pairs of fragments that share a point,
    on one edge by interval overlap, across edges by a common vertex."""
    def touch(f, g):
        if f.edge == g.edge:
            return max(f.lo, g.lo) <= min(f.hi, g.hi)
        return bool(_vertices_of(graph, f) & _vertices_of(graph, g))

    reached, todo = {0}, [0]
    while todo:
        i = todo.pop()
        for j, g in enumerate(frags):
            if j not in reached and touch(frags[i], g):
                reached.add(j)
                todo.append(j)
    return len(reached) == len(frags)


@pytest.mark.parametrize("host", ["lshape_graph", "cross_graph", "m2"])
@given(data=st.data())
def test_subset_connectivity_matches_pairwise_reference(request, host, data):
    graph = request.getfixturevalue(host)
    frags = []
    for _ in range(data.draw(st.integers(1, 6))):
        e = data.draw(st.integers(0, len(graph.edges) - 1))
        lo = data.draw(st.integers(0, 8))
        hi = data.draw(st.integers(lo, 8))
        frags.append(EdgeFragment(e, Fraction(lo, 8), Fraction(hi, 8)))
    assert SubSet(tuple(frags)).is_connected(graph) == \
        _connected_pairwise(graph, frags)


def test_empty_subset_raises(seg_graph):
    with pytest.raises(EmptySubset):
        SubSet(()).is_connected(seg_graph)


# ---------------------------------------------------------------------------
# upper cover


@pytest.mark.parametrize("m", range(2, 11))
def test_interval_cover_needs_m_plus_one_pieces(seg_graph, m):
    cert = upper_cover(seg_graph, Fraction(1, m))
    assert len(cert.elements) == m + 1
    assert check_cover(seg_graph, cert) == m + 1


def test_cover_diameters_strictly_below_eps(cross_graph):
    eps = QUARTER
    cert = upper_cover(cross_graph, eps)
    for el in cert.elements:
        ends = [cross_graph.edge_point(f.edge, t)
                for f in el.fragments for t in (f.lo, f.hi)]
        assert points_diameter2(ends) < eps * eps


def test_cover_verifies_on_all_fixtures(seg_graph, cross_graph, lshape_graph,
                                        m1, m2, m3):
    for g in (seg_graph, cross_graph, lshape_graph, m1, m2, m3):
        for eps in (HALF, QUARTER):
            cert = upper_cover(g, eps)
            assert check_cover(g, cert) == len(cert.elements)


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


def _clip(g, gp, eps):
    return _ClipIndex(g, gp, g.edge_raw(gp.edge, gp.t), eps * eps,
                      _Work(Budget()))


@pytest.mark.parametrize("host", ["m2", "m3", "w6"])
def test_every_close_pair_is_separated_by_a_clip(host, request):
    # The greedy keeps a point when, for every kept point closer than eps,
    # the clip around one of the two cuts the other off: the checker's
    # rule.  Some pairs need the earlier point's clip.
    g = request.getfixturevalue(host)
    eps = Fraction(1, 64)
    cert = lower_separation(g, eps)
    located = [g.edge_point(gp.edge, gp.t) for gp in cert.points]
    close = [(i, j) for i, j in itertools.combinations(range(len(located)), 2)
             if dist2(located[i], located[j]) < eps * eps]
    assert close
    earlier_only = 0
    for i, j in close:
        by_later = _clip(g, cert.points[j], eps).separates(
            cert.points[i], located[i].raw())
        by_earlier = _clip(g, cert.points[i], eps).separates(
            cert.points[j], located[j].raw())
        assert by_later or by_earlier, (i, j)
        earlier_only += not by_later
    assert earlier_only
    assert check_separation(g, cert) == len(cert.points)


def _vertex_pool(g):
    """Every vertex of g, named at the end of its first incident edge."""
    return [GraphPoint(e, Fraction(end))
            for e, end in (min(g.incident(v)) for v in range(len(g.vertices)))]


def test_default_pool_is_charged_before_it_is_made(seg_graph, monkeypatch):
    # At eps = 1e-9 the unit segment's pool is a billion points; it is
    # refused on its charge, before one is made.  The one distance taken
    # is the edge's squared length, which sets the charge; no pair is
    # tested.
    calls = []
    dist2_q = xc.dist2_q

    def counted(a, b):
        calls.append((a, b))
        return dist2_q(a, b)

    monkeypatch.setattr(xc, "dist2_q", counted)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        lower_separation(seg_graph, Fraction(1, 10 ** 9))
    assert time.perf_counter() - start < 1
    assert calls == [seg_graph.raw_vertices()]


def test_explicit_candidate_pool(seg_graph):
    pool = [GraphPoint(0, Fraction(i, 4)) for i in range(5)]
    cert = lower_separation(seg_graph, QUARTER, candidates=pool)
    assert len(cert.points) == 5


def test_s_bounds_bracket_small_hosts(seg_graph, cross_graph, lshape_graph,
                                      m1, m2, m3):
    # Frozen brackets; each was cross-checked against the oracle.  m3 at
    # 1/4 rose from 9 to 11 with the exact clip (oracle bracket (10, 15)),
    # then to 13 when the greedy took the checker's either-clip rule, as
    # m2 rose from 4 to 5 at 1/2 (now exact) and from 9 to 11 at 1/4
    # (oracle upper 13).
    frozen = {
        ("seg", HALF): (3, 3), ("seg", QUARTER): (5, 5),
        ("cross", HALF): (5, 6), ("cross", QUARTER): (9, 12),
        ("lsh", HALF): (5, 5), ("lsh", QUARTER): (9, 9),
        ("m1", HALF): (4, 4), ("m1", QUARTER): (8, 9),
        ("m2", HALF): (5, 5), ("m2", QUARTER): (11, 12),
        ("m3", HALF): (4, 5), ("m3", QUARTER): (13, 14),
    }
    hosts = {"seg": seg_graph, "cross": cross_graph, "lsh": lshape_graph,
             "m1": m1, "m2": m2, "m3": m3}
    for (name, eps), expected in frozen.items():
        assert s_bounds(hosts[name], eps) == expected


# ---------------------------------------------------------------------------
# clipped balls


def _pair_cert(g, a, b):
    """Two-point certificate at eps = 1/2."""
    return SeparationCertificate(HALF, (a, b), None, g.graph_id())


def test_peaks_of_adjacent_teeth_are_separated(m2):
    peak1 = GraphPoint(1, Fraction(1))  # (1/2, 1/2)
    peak2 = GraphPoint(0, Fraction(1))  # (1/2, 1/4)
    assert dist2(m2.edge_point(1, Fraction(1)),
                 m2.edge_point(0, Fraction(1))) < HALF * HALF
    for c, o in ((peak1, peak2), (peak2, peak1)):
        assert _clip(m2, c, HALF).separates(o, m2.edge_raw(o.edge, o.t))
        assert check_separation(m2, _pair_cert(m2, c, o)) == 2


def test_same_tooth_flanks_are_not_separated(m2):
    a = GraphPoint(1, Fraction(3, 4))
    b = GraphPoint(4, Fraction(1, 4))
    for c, o in ((a, b), (b, a)):
        assert not _clip(m2, c, HALF).separates(o,
                                                m2.edge_raw(o.edge, o.t))
        with pytest.raises(VerificationFailure,
                           match="neither clipped ball separates"):
            check_separation(m2, _pair_cert(m2, c, o))


def test_clip_separates_a_point_outside_the_ball(seg_graph):
    # Same edge, same component, but at distance > eps: not in the ball.
    c, o = GraphPoint(0, Fraction(0)), GraphPoint(0, Fraction(3, 4))
    assert _clip(seg_graph, c, HALF).separates(
        o, seg_graph.edge_raw(o.edge, o.t))
    assert not _clip(seg_graph, c, HALF).separates(
        GraphPoint(0, HALF), seg_graph.edge_raw(0, HALF))


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
        return GraphPoint(e, Fraction(data.draw(st.integers(0, 8)), 8))

    eps = Fraction(data.draw(st.integers(1, 12)), 16)
    delta = eps / data.draw(st.integers(1, 8))
    c, o = graph_point(), graph_point()
    if DeltaClip(g, c, eps * eps, delta, _Work(Budget())).separates(o):
        assert _clip(g, c, eps).separates(o, g.edge_raw(o.edge, o.t))


def _assert_greedy_is_maximal(g, eps):
    """The greedy keeps a certificate its checker accepts, and no pool
    point it dropped can be appended to it."""
    cert = lower_separation(g, eps)
    assert check_separation(g, cert) == len(cert)
    kept = set(cert.points)
    for gp, _ in _candidate_points(g, eps, _Work(Budget())):
        if gp in kept:
            continue
        grown = SeparationCertificate(eps, cert.points + (gp,), None,
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
    assert len(_assert_greedy_is_maximal(m2, HALF)) == 5
    assert s_bounds(m2, HALF) == (5, 5)


# ---------------------------------------------------------------------------
# truncation guard


def test_guard_frozen_values(m3):
    g = truncation_guard(m3, EIGHTH)
    assert g == TruncationGuard(k=3, amplitude_bound=Fraction(1, 16),
                                threshold=Fraction(3, 16))


def test_guarded_lower_keeps_only_tall_points(m3):
    g = truncation_guard(m3, EIGHTH)
    cert = lower_separation(m3, EIGHTH, guard=g, candidates=_vertex_pool(m3))
    located = sorted(m3.edge_point(p.edge, p.t) for p in cert.points)
    assert [(p.x, p.y) for p in located] == [
        (HALF, QUARTER), (HALF, HALF)]
    assert check_separation(m3, cert) == 2


def test_guard_requires_builder_metadata(seg_graph, m3):
    # A host without shark-teeth builder metadata gets no guard.
    assert truncation_guard(seg_graph, EIGHTH) is None
    other = PLGraph(m3.vertices, m3.edges, {"builder": "hand"})
    assert truncation_guard(other, EIGHTH) is None


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
        truncation_guard(host, EIGHTH)


def _guarded_cert(m3):
    g = truncation_guard(m3, EIGHTH)
    return lower_separation(m3, EIGHTH, guard=g, candidates=_vertex_pool(m3))


def test_guard_k_mismatch_fails(m3):
    cert = _guarded_cert(m3)
    bad = SeparationCertificate(
        cert.epsilon, cert.points,
        TruncationGuard(4, cert.guard.amplitude_bound, cert.guard.threshold),
        cert.graph_id)
    with pytest.raises(VerificationFailure):
        check_separation(m3, bad)


def test_guard_understated_amplitude_fails(m3):
    cert = _guarded_cert(m3)
    bad = SeparationCertificate(
        cert.epsilon, cert.points,
        TruncationGuard(3, Fraction(1, 32), cert.guard.threshold),
        cert.graph_id)
    with pytest.raises(VerificationFailure):
        check_separation(m3, bad)


def test_guard_thin_threshold_fails(m3):
    # threshold must be >= amplitude + eps = 1/16 + 1/8.
    cert = _guarded_cert(m3)
    bad = SeparationCertificate(
        cert.epsilon, cert.points,
        TruncationGuard(3, Fraction(1, 16), Fraction(5, 32)),
        cert.graph_id)
    with pytest.raises(VerificationFailure):
        check_separation(m3, bad)


def test_guard_overstated_threshold_fails(m3):
    # Every point clears the raised bar, but no command writes this guard:
    # a certificate's guard must be exactly the one the host gets.
    cert = _guarded_cert(m3)
    taller = SeparationCertificate(
        cert.epsilon, cert.points,
        TruncationGuard(3, Fraction(1, 16), QUARTER), cert.graph_id)
    assert all(taller.guard.clears(m3.edge_raw(p.edge, p.t))
               for p in cert.points)
    with pytest.raises(VerificationFailure, match="not the host's guard"):
        check_separation(m3, taller)


def test_guard_point_below_threshold_fails(m3):
    cert = _guarded_cert(m3)
    base_point = GraphPoint(0, Fraction(0))
    pts = cert.points + (base_point,)
    bad = SeparationCertificate(cert.epsilon, pts, cert.guard, cert.graph_id)
    with pytest.raises(VerificationFailure):
        check_separation(m3, bad)


@pytest.mark.parametrize("meta", [{}, *MALFORMED_BUILDER_META])
def test_guard_against_host_without_usable_metadata_fails(m3, meta):
    # Same geometry, so every point still checks; only the guard cannot
    # be recomputed from the host.  Without metadata the host is checked
    # for properness and takes the unguarded certificate; metadata that
    # names the builder but does not rebuild the host refuses both.
    cert = _guarded_cert(m3)
    host = PLGraph(m3.vertices, m3.edges, meta)
    relabeled = SeparationCertificate(cert.epsilon, cert.points, cert.guard,
                                      host.graph_id())
    unguarded = SeparationCertificate(cert.epsilon, cert.points, None,
                                      host.graph_id())
    if meta:
        with pytest.raises(VerificationFailure):
            check_separation(host, unguarded)
    else:
        assert check_separation(host, unguarded) == 2
    with pytest.raises(VerificationFailure):
        check_separation(host, relabeled)


def test_guard_refuses_a_host_its_builder_did_not_make(m3_moved_peak):
    with pytest.raises(ParseError, match="does not match"):
        truncation_guard(m3_moved_peak, EIGHTH)


def test_guarded_certificate_on_a_moved_peak_fails(m3, m3_moved_peak):
    # Every point checks on the moved geometry; only the guard, which
    # holds for m3's continuum, does not hold for this one.  Its builder
    # metadata does not rebuild the host, so nothing on it is accepted,
    # guarded or not.
    host = m3_moved_peak
    cert = lower_separation(host, EIGHTH, guard=truncation_guard(m3, EIGHTH),
                            candidates=_vertex_pool(host))
    bare = PLGraph(host.vertices, host.edges)
    assert check_separation(bare, SeparationCertificate(
        cert.epsilon, cert.points, None, bare.graph_id())) == len(cert) > 0
    unguarded = SeparationCertificate(cert.epsilon, cert.points, None,
                                      cert.graph_id)
    for c in (unguarded, cert):
        with pytest.raises(VerificationFailure, match="does not match"):
            check_separation(host, c)


def test_guard_on_wrong_host_fails(m3, w6):
    cert = _guarded_cert(m3)
    relabeled = SeparationCertificate(cert.epsilon, cert.points, cert.guard,
                                      w6.graph_id())
    with pytest.raises(VerificationFailure):
        check_separation(w6, relabeled)


# ---------------------------------------------------------------------------
# verification failure modes


def test_check_cover_rejects_gap(seg_graph):
    cert = CoverCertificate(
        HALF,
        (SubSet((EdgeFragment(0, Fraction(0), QUARTER),)),
         SubSet((EdgeFragment(0, HALF, Fraction(1)),))),
        seg_graph.graph_id())
    with pytest.raises(VerificationFailure):
        check_cover(seg_graph, cert)


def test_check_cover_rejects_fat_element(seg_graph):
    cert = CoverCertificate(
        HALF,
        (SubSet((EdgeFragment(0, Fraction(0), Fraction(1)),)),),
        seg_graph.graph_id())
    with pytest.raises(VerificationFailure):
        check_cover(seg_graph, cert)


def test_check_cover_rejects_exact_diameter_tie(seg_graph):
    # diam == eps must fail: the bound is strict.
    cert = CoverCertificate(
        HALF,
        (SubSet((EdgeFragment(0, Fraction(0), HALF),)),
         SubSet((EdgeFragment(0, HALF, Fraction(1)),))),
        seg_graph.graph_id())
    with pytest.raises(VerificationFailure):
        check_cover(seg_graph, cert)


def test_check_cover_rejects_disconnected_element(seg_graph):
    cert = CoverCertificate(
        HALF,
        (SubSet((EdgeFragment(0, Fraction(0), Fraction(1, 8)),
                 EdgeFragment(0, QUARTER, Fraction(3, 8)),)),
         SubSet((EdgeFragment(0, Fraction(1, 8), Fraction(1)),))),
        seg_graph.graph_id())
    with pytest.raises(VerificationFailure):
        check_cover(seg_graph, cert)


def test_check_cover_rejects_empty_element(seg_graph):
    # Valid apart from the empty element, which must fail, not raise
    # EmptySubset.
    cert = CoverCertificate(
        Fraction(3, 4),
        (SubSet((EdgeFragment(0, Fraction(0), HALF),)),
         SubSet(()),
         SubSet((EdgeFragment(0, HALF, Fraction(1)),))),
        seg_graph.graph_id())
    with pytest.raises(VerificationFailure, match="element 1 is empty"):
        check_cover(seg_graph, cert)


def test_check_cover_rejects_wrong_host(seg_graph, m1):
    cert = upper_cover(seg_graph, HALF)
    with pytest.raises(HostMismatch):
        check_cover(m1, cert)


def test_check_separation_rejects_missing_witness(seg_graph):
    # Two points 1/4 apart on one edge: closer than eps, and neither
    # clipped ball can witness a separation, since the edge joins them.
    pts = (GraphPoint(0, Fraction(0)), GraphPoint(0, QUARTER))
    cert = SeparationCertificate(HALF, pts, None, seg_graph.graph_id())
    with pytest.raises(VerificationFailure):
        check_separation(seg_graph, cert)


def test_check_separation_accepts_distance_tie(seg_graph):
    # dist == eps is allowed for separation, unlike the cover side.
    pts = (GraphPoint(0, Fraction(0)), GraphPoint(0, HALF))
    cert = SeparationCertificate(HALF, pts, None, seg_graph.graph_id())
    assert check_separation(seg_graph, cert) == 2


def test_check_separation_rejects_false_disconnection(m2):
    a = GraphPoint(1, Fraction(3, 4))
    b = GraphPoint(4, Fraction(1, 4))
    cert = SeparationCertificate(HALF, (a, b), None, m2.graph_id())
    with pytest.raises(VerificationFailure):
        check_separation(m2, cert)


def test_check_separation_refuses_a_host_whose_edges_cross():
    # As a set the X is connected with diameter sqrt(2) < 3/2, so S_eps is
    # 1; as a graph its diagonals share no vertex, so each clip keeps them
    # apart and only the properness check stands between it and a false 2.
    host = PLGraph([point(0, 0), point(1, 1), point(0, 1), point(1, 0)],
                   [(0, 1), (2, 3)])
    eps = Fraction(3, 2)
    cert = SeparationCertificate(eps, (GraphPoint(0, Fraction(0)),
                                       GraphPoint(1, Fraction(0))),
                                 None, host.graph_id())
    assert _clip(host, cert.points[0], eps).separates(
        cert.points[1], host.edge_raw(1, Fraction(0)))
    with pytest.raises(VerificationFailure, match="not proper"):
        check_separation(host, cert)


def test_check_separation_charges_the_properness_check(cross_graph):
    cert = lower_separation(cross_graph, HALF)
    ne = len(cross_graph.edges)
    with pytest.raises(BudgetExceeded):
        check_separation(cross_graph, cert,
                         Budget(max_pair_checks=ne * (ne - 1) // 2 - 1))
    assert check_separation(cross_graph, cert) == len(cert)


def test_check_separation_charges_its_pair_tests_before_the_first(
        seg_graph, monkeypatch):
    # 1,500 points make 1,124,250 pair tests, over a budget of 1,000,000:
    # the certificate is refused before any exact distance is taken.
    n = 1500
    cert = SeparationCertificate(
        Fraction(1, 2 * n), tuple(GraphPoint(0, Fraction(j, n))
                                  for j in range(n)),
        None, seg_graph.graph_id())
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
        truncation_guard(host, eps)
    with pytest.raises(ParseError, match="host is not proper"):
        s_bounds(host, eps)


def test_check_separation_refuses_an_improper_host(improper_graph):
    cert = SeparationCertificate(HALF, (GraphPoint(0, Fraction(0)),), None,
                                 improper_graph.graph_id())
    with pytest.raises(VerificationFailure, match="not proper"):
        check_separation(improper_graph, cert)


def test_truncation_guard_charges_the_properness_check(cross_graph):
    ne = len(cross_graph.edges)
    with pytest.raises(BudgetExceeded):
        truncation_guard(cross_graph, HALF,
                         Budget(max_pair_checks=ne * (ne - 1) // 2 - 1))
    assert truncation_guard(cross_graph, HALF,
                            Budget(max_pair_checks=ne * (ne - 1) // 2)) \
        is None


def test_truncation_guard_trusts_a_rebuilt_host_to_be_proper(w6,
                                                            monkeypatch):
    eps = Fraction(1, 32)
    want = truncation_guard(w6, eps)

    def refuse(self):
        raise AssertionError("validate_proper called on a rebuilt host")
    monkeypatch.setattr(PLGraph, "validate_proper", refuse)
    assert truncation_guard(w6, eps, Budget(max_pair_checks=0)) == want


def test_check_separation_trusts_a_rebuilt_host_to_be_proper(w6,
                                                            monkeypatch):
    cert = lower_separation(w6, Fraction(1, 32),
                            guard=truncation_guard(w6, Fraction(1, 32)))

    def refuse(self):
        raise AssertionError("validate_proper called on a rebuilt host")
    monkeypatch.setattr(PLGraph, "validate_proper", refuse)
    assert check_separation(w6, cert) == len(cert)
    bare = lower_separation(w6, Fraction(1, 8))
    assert check_separation(w6, bare) == len(bare)


# ---------------------------------------------------------------------------
# serialization


def test_cover_certificate_round_trip(m2):
    cert = upper_cover(m2, HALF)
    doc = cert.to_json_dict()
    assert doc["version"] == 2
    assert all(isinstance(el, list) and el
               and all(isinstance(f, list) and len(f) == 3 for f in el)
               for el in doc["elements"])
    back = CoverCertificate.from_json_dict(doc)
    assert back == cert
    assert back.to_json_dict() == doc
    assert check_cover(m2, back) == len(cert.elements)


def test_cover_round_trip_keeps_whole_edges_and_points(lshape_graph):
    # The origin is the first end of both legs; [1, 0, 0] names it as a
    # degenerate fragment, which is how a lone vertex is written.
    assert [i for i, _ in lshape_graph.edges] == [0, 0]
    one, zero = Fraction(1), Fraction(0)
    cert = CoverCertificate(
        Fraction(3),
        (SubSet((EdgeFragment(0, zero, one), EdgeFragment(1, zero, zero))),
         SubSet((EdgeFragment(1, zero, HALF), EdgeFragment(1, HALF, one)))),
        lshape_graph.graph_id())
    doc = cert.to_json_dict()
    assert doc["elements"] == [[[0, "0", "1"], [1, "0", "0"]],
                               [[1, "0", "1/2"], [1, "1/2", "1"]]]
    back = CoverCertificate.from_json_dict(doc)
    assert back == cert
    assert check_cover(lshape_graph, back) == 2


def test_cover_reader_sorts_fragments(seg_graph):
    doc = upper_cover(seg_graph, HALF).to_json_dict()
    doc["elements"] = [[[0, "1/2", "1"], [0, "0", "1/2"]]]
    back = CoverCertificate.from_json_dict(doc)
    assert [(f.lo, f.hi) for f in back.elements[0].fragments] \
        == [(0, HALF), (HALF, 1)]


def test_cover_v1_document_is_refused(m2):
    doc = upper_cover(m2, HALF).to_json_dict()
    # Version 1 alone, on v2 elements, is refused by its version...
    doc["version"] = 1
    with pytest.raises(ParseError, match="unsupported version"):
        certificate_from_json_dict(doc)
    # ...and a whole v1 document by its elements, which are objects.
    doc["elements"] = [{"whole_edges": [], "partial_edges": el,
                        "anchor_vertices": []} for el in doc["elements"]]
    with pytest.raises(ParseError):
        certificate_from_json_dict(doc)


def test_separation_certificate_round_trip(m2, m3):
    plain = lower_separation(m2, HALF)
    guarded = lower_separation(m3, EIGHTH, guard=truncation_guard(m3, EIGHTH),
                               candidates=_vertex_pool(m3))
    for g, cert in ((m2, plain), (m3, guarded)):
        doc = cert.to_json_dict()
        assert doc["version"] == 3
        assert set(doc) == {"format", "version", "graph_id", "epsilon",
                            "points", "guard"}
        back = SeparationCertificate.from_json_dict(doc)
        assert back == cert
        assert back.to_json_dict() == doc
        assert check_separation(g, back) == len(cert.points)


def test_separation_v1_document_is_refused(m2):
    doc = lower_separation(m2, HALF).to_json_dict()
    doc["version"] = 1
    doc["witnesses"] = [{"i": 0, "j": 1, "kind": "disconnection"}]
    with pytest.raises(ParseError):
        certificate_from_json_dict(doc)


def test_separation_v2_document_is_refused(m2):
    # Version 2 listed a clip center and fragment scale per close pair.
    doc = lower_separation(m2, HALF).to_json_dict()
    doc["version"] = 2
    doc["witnesses"] = [{"i": 0, "j": 1, "center": 1, "delta": "1/16"}]
    with pytest.raises(ParseError, match="unsupported version 2"):
        certificate_from_json_dict(doc)


def test_guard_serialized_under_uppercase_k(m3):
    cert = lower_separation(m3, EIGHTH, guard=truncation_guard(m3, EIGHTH))
    doc = cert.to_json_dict()
    assert doc["guard"]["K"] == 3


def _with_item(doc, key, index, item):
    items = list(doc[key])
    items[index] = item
    return {**doc, key: items}


@pytest.mark.parametrize("edge", [0.7, 1.2, 1.0, "1", True, None])
def test_cover_reader_refuses_a_fragment_edge_that_is_not_an_integer(
        m2, edge):
    doc = upper_cover(m2, HALF).to_json_dict()
    with pytest.raises(ParseError):
        certificate_from_json_dict(
            _with_item(doc, "elements", 0, [[edge, "0", "1"]]))


@pytest.mark.parametrize("mangle", [
    lambda doc: _with_item(doc, "points", 0, [1.0, "1"]),
    lambda doc: _with_item(doc, "points", 0, ["1", "1"]),
    lambda doc: _with_item(doc, "points", 0, [True, "1"]),
    lambda doc: {**doc, "guard": {"K": 2.0, "amplitude_bound": "1/24",
                                  "threshold": "13/24"}},
    lambda doc: {**doc, "guard": {"K": "2", "amplitude_bound": "1/24",
                                  "threshold": "13/24"}},
], ids=["point-float", "point-string", "point-bool", "guard-k-float",
        "guard-k-string"])
def test_separation_reader_refuses_indexes_that_are_not_integers(m2, mangle):
    doc = lower_separation(m2, HALF).to_json_dict()
    certificate_from_json_dict(doc)
    with pytest.raises(ParseError):
        certificate_from_json_dict(mangle(doc))


def test_certificate_dispatch(m2):
    up = upper_cover(m2, HALF).to_json_dict()
    low = lower_separation(m2, HALF).to_json_dict()
    assert isinstance(certificate_from_json_dict(up), CoverCertificate)
    assert isinstance(certificate_from_json_dict(low),
                      SeparationCertificate)
    with pytest.raises(ParseError):
        certificate_from_json_dict({"format": "mystery"})


# ---------------------------------------------------------------------------
# golden outputs


def _digest(cert) -> str:
    text = "".join(_json_chunks(cert.json_members()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# (host, eps, guarded lower, unguarded lower or None, upper): the first 16
# hex digits of the SHA-256 of each certificate as the CLI writes it.  The
# lower digests are of separation version 3; the guarded point lists are
# the ones version 2 listed, while m3's unguarded list grew from 61 to 63
# points with the exact clip, and to 67 when the greedy took the checker's
# either-clip rule.
GOLDEN = [
    ("m3", Fraction(1, 16), "76e004d03f32a4fc", "1cf8ff70aa3f5a57",
     "304670f9ec4f46f0"),
    ("w6", Fraction(1, 64), "5d79cf9ee29ef67a", None, "da1ae3593d56dc9d"),
    ("w6", Fraction(33, 2048), "7607fe2599841d59", None, "8cc059ab86f2e691"),
    ("m15", Fraction(1, 16), "d7ae7a1d4011d190", None, "8a5985af5fe3b8e8"),
]


@pytest.mark.parametrize("host, eps, guarded, unguarded, upper", GOLDEN,
                         ids=[f"{g[0]}-{g[1].numerator}_{g[1].denominator}"
                              for g in GOLDEN])
def test_certificates_match_golden_digests(request, host, eps, guarded,
                                           unguarded, upper):
    graph = request.getfixturevalue(host)
    low = lower_separation(graph, eps, guard=truncation_guard(graph, eps))
    assert _digest(low) == guarded
    assert check_separation(graph, low) == len(low)
    if unguarded is not None:
        bare = lower_separation(graph, eps)
        assert _digest(bare) == unguarded
        assert check_separation(graph, bare) == len(bare)
    up = upper_cover(graph, eps)
    assert _digest(up) == upper
    assert check_cover(graph, up) == len(up)


# (host, eps, upper, element count) at scales off the dyadic grid, where
# the reach of a piece is an irrational root.  The hosts past the
# shark-teeth pair are arranged ones, with slanted edges, crossings and
# T-junctions, which no builder makes.
GOLDEN_UPPER = [
    ("w6", Fraction(1033, 262144), "662f9fb196d16140", 1926),
    ("m15", Fraction(1, 37), "047076a47b20a57a", 590),
    ("cross_graph", Fraction(1, 3), "752037f6b010b770", 10),
    ("cross_graph", Fraction(2, 7), "3557d4798b25c8ca", 10),
    ("lshape_graph", Fraction(1, 3), "5ddcfabcb6765c0d", 7),
    ("lshape_graph", Fraction(3, 10), "143df32c69bc9d81", 8),
    ("kite_graph", Fraction(1, 3), "f1297eacd77f7597", 50),
    ("kite_graph", Fraction(5, 17), "c081d5538c519a04", 57),
    ("fork_graph", Fraction(1, 3), "4f315a4e708383df", 37),
    ("fork_graph", Fraction(4, 11), "c53115b4c0f1a9fa", 33),
]


@pytest.mark.parametrize("host, eps, upper, count", GOLDEN_UPPER,
                         ids=[f"{g[0]}-{g[1].numerator}_{g[1].denominator}"
                              for g in GOLDEN_UPPER])
def test_upper_certificates_off_the_dyadic_grid_match_golden_digests(
        request, host, eps, upper, count):
    graph = request.getfixturevalue(host)
    up = upper_cover(graph, eps)
    assert (_digest(up), len(up)) == (upper, count)
    assert check_cover(graph, up) == count


# ---------------------------------------------------------------------------
# tiny-host oracle


def test_oracle_matches_interval_closed_form(seg_graph):
    assert brute_force_oracle(seg_graph, HALF) == (3, 3)


def test_oracle_brackets_library_bounds(seg_graph, cross_graph,
                                        lshape_graph, m1, m2, m3):
    for g in (seg_graph, cross_graph, lshape_graph, m1, m2, m3):
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


def test_oracle_refuses_large_hosts(m15):
    from sdimlab import SizeLimit
    with pytest.raises(SizeLimit):
        brute_force_oracle(m15, HALF)
