"""Plane-graph layer: arrangement, exact queries, serialization."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import dist2, edge_point, points_diameter2, proper_violation

from sdimlab import (DisconnectedInput, ParseError, PLGraph,
                     Point, arrange, parse_rational, point, segment)
from sdimlab.geom import parse_index
from sdimlab.limits import Budget


# ---------------------------------------------------------------------------
# rational parsing


def test_parse_rational_accepts_integers_and_ratios():
    assert parse_rational("3") == 3
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational(" 1/8 ") == Fraction(1, 8)


@pytest.mark.parametrize("bad", ["0.5", "1e-3", "", "1/", "/2", "1/0",
                                 "a/b", "1 / 2", "0x10", "nan",
                                 "\u0661/\u0668", "\uff11/2",
                                 1.5, 2, None])
def test_parse_rational_rejects_everything_else(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


@given(st.fractions(max_denominator=10 ** 6))
def test_parse_rational_round_trips(q):
    assert parse_rational(str(q)) == q


def test_parse_index_accepts_json_integers():
    assert parse_index(0) == 0
    assert parse_index(-3) == -3
    assert parse_index(10 ** 30) == 10 ** 30


@pytest.mark.parametrize("bad", [0.0, 1.9, "1", True, False, None, [1]])
def test_parse_index_rejects_everything_else(bad):
    with pytest.raises(ParseError):
        parse_index(bad)


# ---------------------------------------------------------------------------
# exact point queries


def test_dist2_is_exact():
    assert dist2(point(0, 0), point(1, 1)) == 2
    assert dist2(point(Fraction(1, 3), 0), point(1, 0)) == Fraction(4, 9)


def test_points_diameter2_empty_raises():
    with pytest.raises(ValueError):
        points_diameter2([])


def test_points_diameter2_single_point_is_zero():
    assert points_diameter2([point(2, 3)]) == 0


def test_degenerate_segment_rejected():
    with pytest.raises(ValueError):
        segment(point(1, 1), point(1, 1))


# ---------------------------------------------------------------------------
# arrangement


def test_arrange_splits_a_crossing(cross_graph):
    # Two diagonals meet at (1/2, 1/2): 5 vertices, 4 edges.
    assert len(cross_graph.vertices) == 5
    assert len(cross_graph.edges) == 4
    assert Point(Fraction(1, 2), Fraction(1, 2)) in cross_graph.vertices
    cross_graph.validate_proper()


def _soup(*pairs):
    """Segments between points given as (x, y) pairs."""
    return [segment(point(*a), point(*b)) for a, b in pairs]


H = Fraction(1, 2)


# Soups on one line, each with the vertices and edges `arrange` makes of
# it, or the error it raises: spans that touch or overlap merge into one
# run cut at every end, and spans apart are disconnected.
@pytest.mark.parametrize("segs, vertices, edges", [
    (_soup(((2, 0), (3, 0)), ((0, 0), (1, 0))), DisconnectedInput, None),
    (_soup(((H, 0), (1, 0)), ((0, 0), (H, 0))),
     [(0, 0), (H, 0), (1, 0)], [(0, 1), (1, 2)]),
    (_soup(((0, 0), (2, 0)), ((1, 0), (3, 0))),
     [(0, 0), (1, 0), (2, 0), (3, 0)], [(0, 1), (1, 2), (2, 3)]),
    (_soup(((0, 0), (4, 0)), ((1, 0), (2, 0))),
     [(0, 0), (1, 0), (2, 0), (4, 0)], [(0, 1), (1, 2), (2, 3)]),
    # On the falling line y = -x, so cuts run in (x, y) order there too.
    (_soup(((3, -3), (5, -5)), ((2, -2), (0, 0)), ((1, -1), (4, -4))),
     [(0, 0), (1, -1), (2, -2), (3, -3), (4, -4), (5, -5)],
     [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
    (_soup(((0, 0), (1, 0)), ((0, 0), (1, 0))), [(0, 0), (1, 0)], [(0, 1)]),
    (_soup(((0, 0), (1, 0)), ((1, 0), (0, 0))), [(0, 0), (1, 0)], [(0, 1)]),
], ids=["unsorted-disjoint", "touching", "overlap", "nested", "chain",
        "duplicate", "reversed-duplicate"])
def test_arrange_merges_collinear_overlap(segs, vertices, edges):
    if vertices is DisconnectedInput:
        with pytest.raises(DisconnectedInput):
            arrange(segs)
        return
    g = arrange(segs)
    assert g.vertices == tuple(point(*v) for v in vertices)
    assert g.edges == tuple(edges)
    g.validate_proper()


def test_arrange_keeps_touching_endpoint_as_vertex(lshape_graph):
    assert len(lshape_graph.vertices) == 3
    assert len(lshape_graph.edges) == 2
    lshape_graph.validate_proper()


def test_arrange_rejects_disconnected_input():
    with pytest.raises(DisconnectedInput):
        arrange([
            segment(point(0, 0), point(1, 0)),
            segment(point(0, 2), point(1, 2)),
        ])


def test_arrange_rejects_empty_input():
    with pytest.raises(ValueError):
        arrange([])


def test_arrange_respects_edge_budget():
    from sdimlab import BudgetExceeded
    tiny = Budget(max_edges=1)
    with pytest.raises(BudgetExceeded):
        arrange([segment(point(0, 0), point(1, 0)),
                 segment(point(1, 0), point(1, 1))], budget=tiny)


def test_arrange_is_deterministic():
    segs = [segment(point(0, 0), point(1, 1)),
            segment(point(0, 1), point(1, 0)),
            segment(point(0, 0), point(1, 0))]
    a = arrange(segs)
    b = arrange(list(reversed(segs)))
    assert a.vertices == b.vertices
    assert a.edges == b.edges
    assert a.graph_id() == b.graph_id()


_quarter = st.integers(0, 8).map(lambda k: Fraction(k, 4))


@st.composite
def connected_soups(draw):
    """Segments on the grid of quarters in [0, 2]^2, each new one from an
    end of an earlier one, so the soup is connected; the coarse grid makes
    crossings, T-junctions and collinear overlaps common."""
    ends = [point(draw(_quarter), draw(_quarter))]
    segs = []
    for _ in range(draw(st.integers(1, 6))):
        a = draw(st.sampled_from(ends))
        b = point(draw(_quarter), draw(_quarter))
        assume(a != b)
        segs.append(segment(a, b))
        ends.append(b)
    return segs


@settings(max_examples=150, deadline=None)
@given(segs=connected_soups())
def test_arrangements_are_proper_and_keep_every_end(segs):
    g = arrange(segs)
    assert proper_violation(g) is None
    assert {p for s in segs for p in s} <= set(g.vertices)


# ---------------------------------------------------------------------------
# graph invariants and queries


def test_graph_rejects_duplicate_vertices():
    with pytest.raises(ValueError):
        PLGraph([point(0, 0), point(0, 0)], [(0, 1)])


def test_graph_rejects_duplicate_and_loop_edges():
    vs = [point(0, 0), point(1, 0)]
    with pytest.raises(ValueError):
        PLGraph(vs, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        PLGraph(vs, [(0, 0)])


def test_edge_point_interpolates_exactly(seg_graph):
    p = edge_point(seg_graph, 0, Fraction(1, 3))
    assert p == Point(Fraction(1, 3), Fraction(0))


_coord = st.fractions(min_value=-4, max_value=4, max_denominator=50)


@given(a=st.tuples(_coord, _coord), b=st.tuples(_coord, _coord),
       t=st.fractions(min_value=0, max_value=1, max_denominator=1000))
def test_edge_raw_is_the_kernel_tuple_of_edge_point(a, b, t):
    pa, pb = point(*a), point(*b)
    assume(pa != pb)
    g = PLGraph([pa, pb], [(0, 1)])
    assert g.edge_raw(0, t) == edge_point(g, 0, t).raw()


def test_incident_lists_both_endpoints(lshape_graph):
    origin = lshape_graph.vertices.index(Point(Fraction(0), Fraction(0)))
    inc = lshape_graph.incident(origin)
    assert len(inc) == 2


def test_validate_proper_catches_a_planted_crossing():
    # Bypass arrange: two edges crossing at an interior point.
    g = PLGraph([point(0, 0), point(1, 1), point(0, 1), point(1, 0)],
                [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        g.validate_proper()


@pytest.mark.parametrize("improper_graph, error, detail", [
    ("overlap", ValueError, "overlap"),
    ("t-junction", ValueError, "cross improperly"),
], indirect=["improper_graph"])
def test_validate_proper_catches_an_overlap_and_a_t_junction(
        improper_graph, error, detail):
    assert improper_graph.is_connected()
    with pytest.raises(error, match=f"edges 0 and 1 {detail}"):
        improper_graph.validate_proper()


@st.composite
def small_graphs(draw):
    """Up to six distinct vertices on the grid of halves in [0, 2]^2, half
    of the time all on the x-axis, and a few distinct edges among them."""
    halves = st.integers(0, 4).map(lambda k: Fraction(k, 2))
    ys = st.just(Fraction(0)) if draw(st.booleans()) else halves
    verts = draw(st.lists(st.builds(point, halves, ys), min_size=2,
                          max_size=6, unique=True))
    pairs = st.tuples(*[st.integers(0, len(verts) - 1)] * 2).filter(
        lambda e: e[0] < e[1])
    return PLGraph(verts, draw(st.lists(pairs, min_size=1, max_size=7,
                                        unique=True)))


@settings(max_examples=300, deadline=None)
@given(g=small_graphs())
def test_validate_proper_refuses_exactly_the_reference_violation(g):
    found = proper_violation(g)
    if found is None:
        g.validate_proper()
        return
    a, b, collinear = found
    detail = "overlap" if collinear else "cross improperly"
    with pytest.raises(ValueError,
                       match=f"^edges {a} and {b} {detail}$") as info:
        g.validate_proper()
    assert type(info.value) is ValueError


def test_is_connected_detects_the_obvious(seg_graph, m3):
    assert seg_graph.is_connected()
    assert m3.is_connected()


# ---------------------------------------------------------------------------
# serialization


def test_graph_json_round_trip_is_exact(m3):
    doc = m3.to_json_dict()
    back = PLGraph.from_json_dict(doc)
    assert back.vertices == m3.vertices
    assert back.edges == m3.edges
    assert back.meta == m3.meta
    assert back.graph_id() == m3.graph_id()


@pytest.mark.parametrize("vertices,edges", [
    # Two unit segments a unit apart.
    ([["0", "0"], ["1", "0"], ["2", "0"], ["3", "0"]], [[0, 1], [2, 3]]),
    # A segment and an isolated vertex.
    ([["0", "0"], ["1", "0"], ["0", "1"]], [[0, 1]]),
])
def test_graph_from_json_refuses_a_disconnected_host(seg_graph, vertices,
                                                    edges):
    doc = {**seg_graph.to_json_dict(), "vertices": vertices, "edges": edges}
    with pytest.raises(DisconnectedInput):
        PLGraph.from_json_dict(doc)


@pytest.mark.parametrize("vertices", [[["0", "0"]], []])
def test_graph_from_json_refuses_a_host_with_no_edges(seg_graph, vertices):
    doc = {**seg_graph.to_json_dict(), "vertices": vertices, "edges": []}
    with pytest.raises(ParseError, match="no edges"):
        PLGraph.from_json_dict(doc)


def test_graph_id_depends_on_content(seg_graph, m3):
    assert seg_graph.graph_id() != m3.graph_id()


def test_graph_id_is_sha256_of_the_canonical_document(m3, m15, w6):
    # The digest comes from the interpreter's own SHA-256 module, not from
    # hashlib; both must give the ids that certificates already carry.
    for graph, known in ((m3, "fdc9129980ad1c6e"), (m15, "af065ab654622ff5"),
                         (w6, "ebbda60d0e371a92")):
        blob = json.dumps(graph.to_json_dict(), sort_keys=True,
                          separators=(",", ":")).encode()
        assert graph.graph_id() == hashlib.sha256(blob).hexdigest()[:16] \
            == known


@pytest.mark.parametrize("mangle", [
    lambda d: {**d, "format": "something-else"},
    lambda d: {**d, "version": 99},
    lambda d: {**d, "vertices": [["0.5", "0"]]},
    lambda d: {k: v for k, v in d.items() if k != "edges"},
    lambda d: {**d, "vertices": [[0, 0], [1, 0]]},
    lambda d: {**d, "edges": [[0.0, 1.0]]},
    lambda d: {**d, "edges": [["0", 1]]},
    lambda d: {**d, "edges": [[False, True]]},
    lambda d: {**d, "meta": 5},
    lambda d: {**d, "meta": [1]},
    lambda d: {**d, "meta": "ab"},
    lambda d: {**d, "meta": None},
    lambda d: {**d, "vertices": ["00", "10"]},
    lambda d: {**d, "vertices": [{"0": 0, "1": 0}, {"1": 0, "0": 0}]},
    lambda d: {**d, "vertices": [["0", "0", "0"], ["1", "0"]]},
    lambda d: {**d, "edges": [[0, 1, 1]]},
])
def test_graph_from_json_rejects_malformed(seg_graph, mangle):
    with pytest.raises(ParseError):
        PLGraph.from_json_dict(mangle(seg_graph.to_json_dict()))
