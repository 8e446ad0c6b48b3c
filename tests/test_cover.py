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
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import (ORACLE_MAX_EDGES, DeltaClip, brute_force_oracle,
                       dist2, edge_point, points_diameter2)

from sdimlab import (Budget, BudgetExceeded, CoverCertificate,
                     DisconnectedInput, HostMismatch, IFSSpec,
                     ParseError, PLGraph, SeparationCertificate,
                     ToothSequenceSpec, TruncationGuard, VerificationFailure,
                     arrange, certificate_from_json_dict, check_cover,
                     check_separation, lower_separation, point, s_bounds,
                     segment, truncation_guard, upper_cover)
from sdimlab import exactcore as xc
from sdimlab.cli import _json_chunks
from sdimlab.cover import _candidate_points, _ClipIndex, _Work, _extend

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
EIGHTH = Fraction(1, 8)


# ---------------------------------------------------------------------------
# cover rows


def _cover(g: PLGraph, eps, rows: list) -> CoverCertificate:
    """The certificate that a document with these rows reads as."""
    return certificate_from_json_dict({
        "format": "sdimlab/cover", "version": 3, "graph_id": g.graph_id(),
        "epsilon": str(eps), "pieces": rows})


def _element_pieces(cert: CoverCertificate) -> list[list[tuple]]:
    """Each element's pieces (edge, lo, hi), read off the rows."""
    out = [[] for _ in range(len(cert))]
    for e, row in enumerate(cert.pieces):
        cuts = (Fraction(0), *row[1::2], Fraction(1))
        for i, k in enumerate(row[::2]):
            out[k].append((e, cuts[i], cuts[i + 1]))
    return out


def test_fragment_bounds_are_enforced(seg_graph):
    # A row's cuts rise strictly inside (0, 1), so each piece lies on its
    # edge and has positive length.
    gid = seg_graph.graph_id()
    assert len(CoverCertificate(HALF, ((0, HALF, 1),), gid)) == 2
    for row in [(0, -QUARTER, 1), (0, Fraction(5, 4), 1),
                (0, Fraction(2, 3), 1, Fraction(1, 3), 2)]:
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
        assert check_cover(graph, cert) == len(cert)
        return
    with pytest.raises(VerificationFailure,
                       match=f"^element {split[0]} is not connected$"):
        check_cover(graph, cert)


# ---------------------------------------------------------------------------
# upper cover


@pytest.mark.parametrize("m", range(2, 11))
def test_interval_cover_needs_m_plus_one_pieces(seg_graph, m):
    cert = upper_cover(seg_graph, Fraction(1, m))
    assert len(cert) == m + 1
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
            assert check_cover(g, cert) == len(cert)


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
    the point o off."""
    clip = _ClipIndex(g, c[0], g.edge_raw(*c), eps * eps, _Work(Budget()))
    return clip.separates(o[0], g.edge_raw(*o))


@pytest.mark.parametrize("host", ["m2", "m3", "w6"])
def test_every_close_pair_is_separated_by_a_clip(host, request):
    # The greedy keeps a point when, for every kept point closer than eps,
    # the clip around one of the two cuts the other off: the checker's
    # rule.  Some pairs need the earlier point's clip.
    g = request.getfixturevalue(host)
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
    # With a guard, each point that clears it is charged as it is made.
    # On m3 at 1/10000 the pool is 45,859 points, of which 23,374 clear
    # the guard: the greedy is refused at the first cleared point whose
    # pairs pass the budget, and the rest of the pool is never made.
    eps, n = Fraction(1, 10000), 45859
    guard = truncation_guard(m3, eps)
    made = []  # `located` still records each point made
    with pytest.raises(BudgetExceeded) as info:
        lower_separation(m3, eps, guard)
    monkeypatch.undo()
    k = sum(map(guard.clears, [*m3.raw_vertices(),
                               *(m3.edge_raw(e, t) for e, t in made)]))
    cap = Budget().max_pair_checks
    assert n + (k - 1) * (k - 2) // 2 <= cap
    assert str(info.value) == (f"pair checks {n + k * (k - 1) // 2} "
                               f"exceed budget {cap}")
    assert guard.clears(m3.edge_raw(*made[-1]))
    assert len(made) < n - len(m3.vertices)


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
    peak1 = (1, Fraction(1))  # (1/2, 1/2)
    peak2 = (0, Fraction(1))  # (1/2, 1/4)
    assert dist2(edge_point(m2, *peak1), edge_point(m2, *peak2)) < HALF * HALF
    for c, o in ((peak1, peak2), (peak2, peak1)):
        assert _separates(m2, c, o, HALF)
        assert check_separation(m2, _pair_cert(m2, c, o)) == 2


def test_same_tooth_flanks_are_not_separated(m2):
    a = (1, Fraction(3, 4))
    b = (4, Fraction(1, 4))
    for c, o in ((a, b), (b, a)):
        assert not _separates(m2, c, o, HALF)
        with pytest.raises(VerificationFailure,
                           match="neither clipped ball separates"):
            check_separation(m2, _pair_cert(m2, c, o))


def test_clip_separates_a_point_outside_the_ball(seg_graph):
    # Same edge, same component, but at distance > eps: not in the ball.
    c, o = (0, Fraction(0)), (0, Fraction(3, 4))
    assert _separates(seg_graph, c, o, HALF)
    assert not _separates(seg_graph, c, (0, HALF), HALF)


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
        grown = SeparationCertificate(eps, cert.points + ((e, t),), None,
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
    # 10 of the 31 pool points clear the threshold 3/16; the greedy
    # discards the other 21 and keeps all ten.
    g = truncation_guard(m3, EIGHTH)
    cert = lower_separation(m3, EIGHTH, guard=g)
    n, pool = _candidate_points(m3, EIGHTH, _Work(Budget()))
    tall = {(e, t) for e, t, raw in pool if g.clears(raw)}
    assert (n, len(tall)) == (31, 10)
    assert set(cert.points) == tall
    assert check_separation(m3, cert) == 10


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
        truncation_guard(host, EIGHTH)
    assert made == []


def _guarded_cert(m3):
    """The peaks (1/2, 1/2) and (1/2, 1/4) of m3, which clear its guard at
    1/8, highest first, each named at the end of its first edge."""
    peaks = ((3, Fraction(1)), (2, Fraction(1)))
    assert [edge_point(m3, *p) for p in peaks] == [point(HALF, HALF),
                                                    point(HALF, QUARTER)]
    return SeparationCertificate(EIGHTH, peaks, truncation_guard(m3, EIGHTH),
                                 m3.graph_id())


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
    assert all(taller.guard.clears(m3.edge_raw(*p)) for p in cert.points)
    with pytest.raises(VerificationFailure, match="not the host's guard"):
        check_separation(m3, taller)


def test_guard_point_below_threshold_fails(m3):
    cert = _guarded_cert(m3)
    pts = cert.points + ((0, Fraction(0)),)
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
    cert = lower_separation(host, EIGHTH, guard=truncation_guard(m3, EIGHTH))
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


def test_check_cover_rejects_disconnected_element(seg_graph):
    # Element 0 holds [0, 1/8] and [1/4, 3/8], of diameter 3/8 < 1/2.
    cert = _cover(seg_graph, HALF, [[0, "1/8", 1, "1/4", 0, "3/8", 1]])
    with pytest.raises(VerificationFailure,
                       match="element 0 is not connected"):
        check_cover(seg_graph, cert)


def test_check_cover_rejects_empty_element(seg_graph):
    # An id that skips one would leave element 1 empty; a certificate
    # cannot hold one.
    with pytest.raises(ValueError,
                       match="row 0: element id 2 is not one of the 1"):
        CoverCertificate(Fraction(3, 4), ((0, HALF, 2),),
                         seg_graph.graph_id())


def test_check_cover_rejects_wrong_host(seg_graph, m1):
    cert = upper_cover(seg_graph, HALF)
    with pytest.raises(HostMismatch):
        check_cover(m1, cert)


def test_check_separation_rejects_missing_witness(seg_graph):
    # Two points 1/4 apart on one edge: closer than eps, and neither
    # clipped ball can witness a separation, since the edge joins them.
    pts = ((0, Fraction(0)), (0, QUARTER))
    cert = SeparationCertificate(HALF, pts, None, seg_graph.graph_id())
    with pytest.raises(VerificationFailure):
        check_separation(seg_graph, cert)


def test_check_separation_accepts_distance_tie(seg_graph):
    # dist == eps is allowed for separation, unlike the cover side.
    pts = ((0, Fraction(0)), (0, HALF))
    cert = SeparationCertificate(HALF, pts, None, seg_graph.graph_id())
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
    cert = SeparationCertificate(QUARTER, (b, a), None, g.graph_id())
    assert check_separation(g, cert) == 2


def test_check_separation_rejects_false_disconnection(m2):
    a = (1, Fraction(3, 4))
    b = (4, Fraction(1, 4))
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
    cert = SeparationCertificate(eps, ((0, Fraction(0)), (1, Fraction(0))),
                                 None, host.graph_id())
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


def test_check_separation_charges_its_pair_tests_before_the_first(
        seg_graph, monkeypatch):
    # 1,500 points make 1,124,250 pair tests, over a budget of 1,000,000:
    # the certificate is refused before any exact distance is taken.
    n = 1500
    cert = SeparationCertificate(
        Fraction(1, 2 * n), tuple((0, Fraction(j, n)) for j in range(n)),
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


@pytest.mark.parametrize("edge", [-1, 1])
def test_check_separation_refuses_an_edge_off_the_host(seg_graph, edge):
    # Edge -1 would name the last edge if read as a Python index.
    cert = SeparationCertificate(HALF, ((edge, Fraction(0)),), None,
                                 seg_graph.graph_id())
    with pytest.raises(VerificationFailure,
                       match="point 0: edge out of range"):
        check_separation(seg_graph, cert)


def test_check_separation_refuses_an_improper_host(improper_graph):
    cert = SeparationCertificate(HALF, ((0, Fraction(0)),), None,
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
    assert doc["version"] == 3
    assert len(doc["pieces"]) == len(m2.edges)
    assert all(type(row) is list and len(row) % 2 == 1
               and all(type(k) is int for k in row[::2])
               and all(type(c) is str for c in row[1::2])
               for row in doc["pieces"])
    back = CoverCertificate.from_json_dict(doc)
    assert back == cert
    assert back.to_json_dict() == doc
    assert check_cover(m2, back) == len(cert)


@settings(max_examples=40, deadline=None)
@given(g=small_proper_hosts(),
       eps=st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(3, 16),
                            Fraction(1, 8), Fraction(2, 7)]))
def test_cover_document_round_trips_on_small_hosts(g, eps):
    cert = upper_cover(g, eps)
    # The greedy never gives two neighbouring pieces to one element.
    assert all(a != b for row in cert.pieces
               for a, b in zip(row[::2], row[2::2]))
    text = "".join(_json_chunks(cert.json_members()))
    assert "".join(_json_chunks(cert.json_members())) == text
    back = CoverCertificate.from_json_dict(json.loads(text))
    assert back == cert
    assert check_cover(g, back) == check_cover(g, cert) == len(cert)


def test_cover_document_numbers_elements_by_first_appearance(lshape_graph):
    # Ids are numbered as they first appear, reading the rows in order;
    # a whole edge is a row with one id and no cut.
    gid = lshape_graph.graph_id()
    with pytest.raises(ValueError, match="row 0: element id 1"):
        CoverCertificate(Fraction(3), ((1,), (0, HALF, 0)), gid)
    cert = CoverCertificate(Fraction(3), ((0,), (1, HALF, 1)), gid)
    doc = cert.to_json_dict()
    assert doc["pieces"] == [[0], [1, "1/2", 1]]
    assert CoverCertificate.from_json_dict(doc) == cert
    assert check_cover(lshape_graph, cert) == 2


@pytest.mark.parametrize("rows", [
    ((0, HALF, 1, HALF, 2), (0,)),
    ((0, HALF, 1, QUARTER, 2), (0,)),
    ((0, HALF), (1,)),
    ((0, Fraction(1), 1), (0,)),
    ((0,), ()),
    ((0,), (2,)),
    ((0,), (-1,)),
], ids=["point", "overlap", "gap", "short", "missing-edge", "empty-element",
        "negative-edge"])
def test_cover_writer_refuses_fragments_that_do_not_cut_each_edge(
        lshape_graph, rows):
    # A certificate cuts each edge into pieces of positive length that
    # each belong to an element; its constructor refuses rows that do not.
    with pytest.raises(ValueError):
        CoverCertificate(Fraction(3), rows, lshape_graph.graph_id())


def test_cover_reader_shares_each_cut_between_its_pieces(seg_graph):
    # Each cut is held once, in its row, though it bounds two pieces.
    doc = upper_cover(seg_graph, HALF).to_json_dict()
    assert doc["pieces"] == [[0, "127/256", 1, "127/128", 2]]
    back = CoverCertificate.from_json_dict(doc)
    assert back.pieces == ((0, Fraction(127, 256), 1, Fraction(127, 128), 2),)
    assert _element_pieces(back) == [
        [(0, 0, Fraction(127, 256))],
        [(0, Fraction(127, 256), Fraction(127, 128))],
        [(0, Fraction(127, 128), 1)]]


@pytest.mark.parametrize("row", [
    [0, "1/2", 1, "1/2", 2],
    [0, "1/2", 1, "1/4", 2],
    [0, "0", 1, "1/2", 2],
    [0, "1/2", 1, "1", 2],
    [0, "1/2", 2],
    [1, "1/2", 0],
    [0, "1/2", -1],
    [0, "1/2"],
    [],
], ids=["repeated-cut", "falling-cut", "cut-at-0", "cut-at-1",
        "id-past-the-count", "first-id-not-0", "negative-id", "even-length",
        "empty-row"])
def test_cover_reader_refuses_rows_that_break_the_layout(seg_graph, row):
    doc = upper_cover(seg_graph, HALF).to_json_dict()
    certificate_from_json_dict(doc)
    with pytest.raises(ParseError):
        certificate_from_json_dict({**doc, "pieces": [row]})


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
    plain = lower_separation(m2, HALF)
    guarded = lower_separation(m3, EIGHTH, guard=truncation_guard(m3, EIGHTH))
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
    # A fragment's edge is its row's place; the integers in a row are the
    # element ids, read as strictly as an edge index was.
    doc = upper_cover(m2, HALF).to_json_dict()
    with pytest.raises(ParseError):
        certificate_from_json_dict(_with_item(doc, "pieces", 0, [edge]))


@pytest.mark.parametrize("mangle", [
    lambda doc: _with_item(doc, "points", 0, [1.0, "1"]),
    lambda doc: _with_item(doc, "points", 0, ["1", "1"]),
    lambda doc: _with_item(doc, "points", 0, [True, "1"]),
    lambda doc: {**doc, "guard": {"K": 2.0, "amplitude_bound": "1/24",
                                  "threshold": "13/24"}},
    lambda doc: {**doc, "guard": {"K": "2", "amplitude_bound": "1/24",
                                  "threshold": "13/24"}},
    lambda doc: _with_item(doc, "points", 0, "01"),
    lambda doc: _with_item(doc, "points", 0, [0]),
    lambda doc: _with_item(doc, "points", 0, [0, "1", 2]),
    lambda doc: _with_item(doc, "points", 0, {"0": "1"}),
    lambda doc: _with_item(doc, "points", 0, [0, "3/2"]),
], ids=["point-float", "point-string", "point-bool", "guard-k-float",
        "guard-k-string", "point-not-a-list", "point-short", "point-long",
        "point-object", "point-t-past-1"])
def test_separation_reader_refuses_indexes_that_are_not_integers(m2, mangle):
    # And points that are not an [edge, "t"] pair with t in [0, 1].
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
    low = lower_separation(m2, HALF).to_json_dict()
    for doc, key in ((up, "points"), (low, "pieces")):
        assert certificate_from_json_dict({**doc, key: [5]}) \
            == certificate_from_json_dict(doc)


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
# either-clip rule.  The upper digests are of cover version 3, whose
# elements are the ones version 2 listed, fragment for fragment.
GOLDEN = [
    ("m3", Fraction(1, 16), "76e004d03f32a4fc", "1cf8ff70aa3f5a57",
     "435ee97da42ef4bc"),
    ("w6", Fraction(1, 64), "5d79cf9ee29ef67a", None, "2719c5bd30f1c162"),
    ("w6", Fraction(33, 2048), "7607fe2599841d59", None, "f657802d37e6e5ad"),
    ("m15", Fraction(1, 16), "d7ae7a1d4011d190", None, "5b999cdbb6c4b45c"),
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
    ("w6", Fraction(1033, 262144), "d6b11a5a8da37e85", 1926),
    ("m15", Fraction(1, 37), "53939792b7a7ddaa", 590),
    ("cross_graph", Fraction(1, 3), "e541e1993780fb79", 10),
    ("cross_graph", Fraction(2, 7), "e45bacb5ce72a6fc", 10),
    ("lshape_graph", Fraction(1, 3), "e2af0f71dd02a466", 7),
    ("lshape_graph", Fraction(3, 10), "2f12dd01035884e5", 8),
    ("kite_graph", Fraction(1, 3), "5ed7d707744640e4", 50),
    ("kite_graph", Fraction(5, 17), "64aff8a3ea6f9e0d", 57),
    ("fork_graph", Fraction(1, 3), "38f57c619a18a996", 37),
    ("fork_graph", Fraction(4, 11), "1dd1e478c299cfa2", 33),
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


@settings(max_examples=150, deadline=None)
@given(g=small_proper_hosts(), data=st.data())
def test_accepted_separation_is_within_the_oracle_upper(g, data):
    # A family the checker accepts shows S >= its size; the oracle's
    # upper side is a cover, so S <= that bound.
    assume(len(g.edges) <= ORACLE_MAX_EDGES)
    eps = Fraction(data.draw(st.integers(2, 12)), 16)
    cert = SeparationCertificate(eps, tuple(_free_family(g, data)), None,
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
    cert = SeparationCertificate(eps, tuple(order), None, g.graph_id())
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
