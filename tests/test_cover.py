"""Certified bounds: greedy builders, verifiers, guards, tiny-host oracle.

Frozen counts were derived before being asserted here.  For the unit
segment at eps = 1/m the exact answer is m + 1: m pieces of length 1/m
fail the strict diameter bound, and m + 1 points at spacing 1/m pairwise
reach it.  The small-host brackets were cross-checked against
`brute_force_oracle`.  Its upper side is independent of the greedy cover,
but its lower side runs the same clipped-ball test (`_ClipIndex`) as
`lower_separation` and `check_separation`, so a defect in that test would
not show up as a disagreement with the oracle.
"""

from __future__ import annotations

import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdimlab import (Budget, BudgetExceeded, CoverCertificate,
                     DisconnectionWitness, EdgeFragment, EmptySubset,
                     GraphPoint, HostMismatch, ParseError, PLGraph,
                     SeparationCertificate, SubSet, TruncationGuard,
                     VerificationFailure, brute_force_oracle,
                     certificate_from_json_dict, check_cover,
                     check_separation, dist2, lower_separation,
                     points_diameter2, s_bounds, truncation_guard,
                     upper_cover)
from sdimlab.cli import _json_chunks

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
    with pytest.raises(EmptySubset):
        SubSet(()).endpoint_points(seg_graph)


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
        assert points_diameter2(el.endpoint_points(cross_graph)) < eps * eps


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


# ---------------------------------------------------------------------------
# lower bounds


@pytest.mark.parametrize("m", range(2, 11))
def test_interval_separation_reaches_m_plus_one(seg_graph, m):
    cert = lower_separation(seg_graph, Fraction(1, m))
    assert len(cert.points) == m + 1
    assert check_separation(seg_graph, cert) == m + 1


@pytest.mark.parametrize("host", ["m2", "m3", "w6"])
def test_separation_witnesses_exactly_the_close_pairs(host, request):
    # Listed pairs are closer than eps; every unlisted pair is eps apart.
    g = request.getfixturevalue(host)
    eps = Fraction(1, 64)
    cert = lower_separation(g, eps)
    located = [gp.locate(g) for gp in cert.points]
    listed = {(i, j) for i, j, _ in cert.witnesses}
    assert listed
    for i, j in itertools.combinations(range(len(located)), 2):
        close = dist2(located[i], located[j]) < eps * eps
        assert ((i, j) in listed) == close, (i, j)
    assert check_separation(g, cert) == len(cert.points)


def _vertex_pool(g):
    """Every vertex of g, named at the end of its first incident edge."""
    return [GraphPoint(e, Fraction(end))
            for e, end in (min(g.incident(v)) for v in range(len(g.vertices)))]


def test_explicit_candidate_pool(seg_graph):
    pool = [GraphPoint(0, Fraction(i, 4)) for i in range(5)]
    cert = lower_separation(seg_graph, QUARTER, candidates=pool)
    assert len(cert.points) == 5


def test_s_bounds_bracket_small_hosts(seg_graph, cross_graph, lshape_graph,
                                      m1, m2, m3):
    # Frozen brackets; each was cross-checked against the oracle.
    frozen = {
        ("seg", HALF): (3, 3), ("seg", QUARTER): (5, 5),
        ("cross", HALF): (5, 6), ("cross", QUARTER): (9, 12),
        ("lsh", HALF): (5, 5), ("lsh", QUARTER): (9, 9),
        ("m1", HALF): (4, 4), ("m1", QUARTER): (8, 9),
        ("m2", HALF): (4, 5), ("m2", QUARTER): (9, 12),
        ("m3", HALF): (4, 5), ("m3", QUARTER): (9, 14),
    }
    hosts = {"seg": seg_graph, "cross": cross_graph, "lsh": lshape_graph,
             "m1": m1, "m2": m2, "m3": m3}
    for (name, eps), expected in frozen.items():
        assert s_bounds(hosts[name], eps) == expected


# ---------------------------------------------------------------------------
# disconnection witnesses


def _pair_cert(g, a, b, center, delta):
    """Two-point certificate whose one witness is the clipped ball around
    point `center` (0 or 1) at fragment scale `delta`."""
    return SeparationCertificate(
        HALF, (a, b), ((0, 1, DisconnectionWitness(center, delta)),), None,
        g.graph_id())


def test_peaks_of_adjacent_teeth_are_separated(m2):
    peak1 = GraphPoint(1, Fraction(1))  # (1/2, 1/2)
    peak2 = GraphPoint(0, Fraction(1))  # (1/2, 1/4)
    assert dist2(peak1.locate(m2), peak2.locate(m2)) < HALF * HALF
    for center in (0, 1):
        cert = _pair_cert(m2, peak1, peak2, center, HALF / 8)
        assert check_separation(m2, cert) == 2


def test_same_tooth_flanks_are_not_separated(m2):
    a = GraphPoint(1, Fraction(3, 4))
    b = GraphPoint(4, Fraction(1, 4))
    for center in (0, 1):
        with pytest.raises(VerificationFailure, match="does not separate"):
            check_separation(m2, _pair_cert(m2, a, b, center, HALF / 8))


def test_witness_survives_delta_refinement(m2):
    # Refining delta only removes fragments, never reconnects them.
    peak1 = GraphPoint(1, Fraction(1))
    peak2 = GraphPoint(0, Fraction(1))
    for div in (8, 16, 32):
        cert = _pair_cert(m2, peak1, peak2, 0, HALF / div)
        assert check_separation(m2, cert) == 2


# ---------------------------------------------------------------------------
# truncation guard


def test_guard_frozen_values(m3):
    g = truncation_guard(m3, EIGHTH)
    assert g == TruncationGuard(k=3, amplitude_bound=Fraction(1, 16),
                                threshold=Fraction(3, 16))


def test_guarded_lower_keeps_only_tall_points(m3):
    g = truncation_guard(m3, EIGHTH)
    cert = lower_separation(m3, EIGHTH, guard=g, candidates=_vertex_pool(m3))
    located = sorted(p.locate(m3) for p in cert.points)
    assert [(p.x, p.y) for p in located] == [
        (HALF, QUARTER), (HALF, HALF)]
    assert check_separation(m3, cert) == 2


def test_guard_requires_builder_metadata(seg_graph, m3):
    # A host without shark-teeth builder metadata gets no guard.
    assert truncation_guard(seg_graph, EIGHTH) is None
    other = PLGraph(m3.vertices, m3.edges, {"builder": "hand"})
    assert truncation_guard(other, EIGHTH) is None


# Metadata that names the builder but describes no valid spec.
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
        cert.epsilon, cert.points, cert.witnesses,
        TruncationGuard(4, cert.guard.amplitude_bound, cert.guard.threshold),
        cert.graph_id)
    with pytest.raises(VerificationFailure):
        check_separation(m3, bad)


def test_guard_understated_amplitude_fails(m3):
    cert = _guarded_cert(m3)
    bad = SeparationCertificate(
        cert.epsilon, cert.points, cert.witnesses,
        TruncationGuard(3, Fraction(1, 32), cert.guard.threshold),
        cert.graph_id)
    with pytest.raises(VerificationFailure):
        check_separation(m3, bad)


def test_guard_thin_threshold_fails(m3):
    # threshold must be >= amplitude + eps = 1/16 + 1/8.
    cert = _guarded_cert(m3)
    bad = SeparationCertificate(
        cert.epsilon, cert.points, cert.witnesses,
        TruncationGuard(3, Fraction(1, 16), Fraction(5, 32)),
        cert.graph_id)
    with pytest.raises(VerificationFailure):
        check_separation(m3, bad)


def test_guard_overstated_threshold_is_fine(m3):
    # Raising the threshold only strengthens the claim; the certificate
    # stays valid as long as all its points clear the higher bar.
    cert = _guarded_cert(m3)
    taller = SeparationCertificate(
        cert.epsilon, cert.points, cert.witnesses,
        TruncationGuard(3, Fraction(1, 16), QUARTER),
        cert.graph_id)
    assert check_separation(m3, taller) == 2


def test_guard_point_below_threshold_fails(m3):
    cert = _guarded_cert(m3)
    base_point = GraphPoint(0, Fraction(0))
    pts = cert.points + (base_point,)
    bad = SeparationCertificate(cert.epsilon, pts, cert.witnesses,
                                cert.guard, cert.graph_id)
    with pytest.raises(VerificationFailure):
        check_separation(m3, bad)


@pytest.mark.parametrize("meta", [{}, *MALFORMED_BUILDER_META])
def test_guard_against_host_without_usable_metadata_fails(m3, meta):
    # Same geometry, so every point and witness still checks; only the
    # guard cannot be recomputed from the host.
    cert = _guarded_cert(m3)
    host = PLGraph(m3.vertices, m3.edges, meta)
    relabeled = SeparationCertificate(cert.epsilon, cert.points,
                                      cert.witnesses, cert.guard,
                                      host.graph_id())
    unguarded = SeparationCertificate(cert.epsilon, cert.points,
                                      cert.witnesses, None, host.graph_id())
    assert check_separation(host, unguarded) == 2
    with pytest.raises(VerificationFailure):
        check_separation(host, relabeled)


def test_guard_on_wrong_host_fails(m3, w6):
    cert = _guarded_cert(m3)
    relabeled = SeparationCertificate(cert.epsilon, cert.points,
                                      cert.witnesses, cert.guard,
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
    # An unlisted pair claims distance >= eps; these two are 1/4 apart.
    pts = (GraphPoint(0, Fraction(0)), GraphPoint(0, QUARTER))
    cert = SeparationCertificate(HALF, pts, (), None,
                                 seg_graph.graph_id())
    with pytest.raises(VerificationFailure):
        check_separation(seg_graph, cert)


def test_check_separation_accepts_distance_tie(seg_graph):
    # dist == eps is allowed for separation, unlike the cover side.
    pts = (GraphPoint(0, Fraction(0)), GraphPoint(0, HALF))
    cert = SeparationCertificate(HALF, pts, (), None, seg_graph.graph_id())
    assert check_separation(seg_graph, cert) == 2


def test_check_separation_rejects_false_disconnection(m2):
    a = GraphPoint(1, Fraction(3, 4))
    b = GraphPoint(4, Fraction(1, 4))
    cert = SeparationCertificate(
        HALF, (a, b),
        ((0, 1, DisconnectionWitness(center=0, delta=Fraction(1, 16))),),
        None, m2.graph_id())
    with pytest.raises(VerificationFailure):
        check_separation(m2, cert)


def test_check_separation_rejects_foreign_center(m2):
    peak1 = GraphPoint(1, Fraction(1))
    peak2 = GraphPoint(0, Fraction(1))
    cert = SeparationCertificate(
        HALF, (peak1, peak2),
        ((0, 1, DisconnectionWitness(center=2, delta=Fraction(1, 16))),),
        None, m2.graph_id())
    with pytest.raises(VerificationFailure):
        check_separation(m2, cert)


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
        assert doc["version"] == 2
        assert all(set(w) == {"i", "j", "center", "delta"}
                   for w in doc["witnesses"])
        back = SeparationCertificate.from_json_dict(doc)
        assert back == cert
        assert back.to_json_dict() == doc
        assert check_separation(g, back) == len(cert.points)


def test_separation_v1_document_is_refused(m2):
    doc = lower_separation(m2, HALF).to_json_dict()
    doc["version"] = 1
    doc["witnesses"] = [{**w, "kind": "disconnection"}
                        for w in doc["witnesses"]]
    with pytest.raises(ParseError):
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
    lambda doc: _with_item(doc, "witnesses", 0, {**doc["witnesses"][0],
                                                 "i": 0.0}),
    lambda doc: _with_item(doc, "witnesses", 0, {**doc["witnesses"][0],
                                                 "j": "1"}),
    lambda doc: _with_item(doc, "witnesses", 0, {**doc["witnesses"][0],
                                                 "center": True}),
    lambda doc: {**doc, "guard": {"K": 2.0, "amplitude_bound": "1/24",
                                  "threshold": "13/24"}},
    lambda doc: {**doc, "guard": {"K": "2", "amplitude_bound": "1/24",
                                  "threshold": "13/24"}},
], ids=["point-float", "point-string", "point-bool", "witness-i-float",
        "witness-j-string", "witness-center-bool", "guard-k-float",
        "guard-k-string"])
def test_separation_reader_refuses_indexes_that_are_not_integers(m2, mangle):
    doc = lower_separation(m2, HALF).to_json_dict()
    assert doc["witnesses"]
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
# hex digits of the SHA-256 of each certificate as the CLI writes it.
GOLDEN = [
    ("m3", Fraction(1, 16), "036edd2bccef3551", "340eb1ee60e2ad8b",
     "304670f9ec4f46f0"),
    ("w6", Fraction(1, 64), "dab7de5abb0ad150", None, "da1ae3593d56dc9d"),
    ("w6", Fraction(33, 2048), "b6f636ca8504f047", None, "8cc059ab86f2e691"),
    ("m15", Fraction(1, 16), "c47859c4183c30d4", None, "8a5985af5fe3b8e8"),
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


def test_oracle_refuses_large_hosts(m15):
    from sdimlab import TooLarge
    with pytest.raises(TooLarge):
        brute_force_oracle(m15, HALF)
