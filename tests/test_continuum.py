"""Shark-teeth construction: tent maps, tooth schedule, exact counts.

The direct builder is checked against `arrange` over the same tooth
segments and against digests of the graphs the arrangement made.

Frozen values in this file were derived by hand from the closed forms:
n_k is the unique m with 2^(2^m) <= k+1 < 2^(2^(m+1)), a truncation with
tooth levels m_1..m_K on top of a base subdivided to max(m_k)+1 has
2^maxlevel + 1 + sum(2^m_k) vertices and 2^maxlevel + sum(2^(m_k+1))
edges.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import phi, phi_n

from sdimlab import (Budget, BudgetExceeded, ParseError, Point, SizeLimit,
                     ToothSequenceSpec, arrange, build_shark_teeth, n_k,
                     next_amplitude_bound, point, predicted_counts, segment,
                     tooth_height, tooth_polyline)
from sdimlab import continuum
from sdimlab.continuum import MAX_TOOTH_COUNT
from tests.conftest import paper_truncation


# ---------------------------------------------------------------------------
# tent maps


def test_phi_is_distance_to_integers():
    assert phi(Fraction(0)) == 0
    assert phi(Fraction(1, 2)) == Fraction(1, 2)
    assert phi(Fraction(3, 4)) == Fraction(1, 4)
    assert phi(Fraction(7, 3)) == Fraction(1, 3)


@given(st.fractions(min_value=Fraction(-4), max_value=Fraction(4),
                    max_denominator=256))
def test_phi_period_one_and_symmetric(t):
    assert phi(t + 1) == phi(t)
    assert phi(-t) == phi(t)
    assert 0 <= phi(t) <= Fraction(1, 2)


def test_phi_n_compresses_by_powers_of_two():
    # phi_n(t) = dist(t, 2^-n Z): peaks of height 2^-(n+1) at odd multiples.
    assert phi_n(0, Fraction(1, 2)) == Fraction(1, 2)
    assert phi_n(1, Fraction(1, 4)) == Fraction(1, 4)
    assert phi_n(1, Fraction(1, 2)) == 0
    assert phi_n(2, Fraction(1, 8)) == Fraction(1, 8)
    assert phi_n(2, Fraction(1, 4)) == 0


@given(st.integers(min_value=0, max_value=8),
       st.fractions(min_value=0, max_value=1, max_denominator=512))
def test_phi_n_scaling_identity(n, t):
    assert phi_n(n, t) == phi(2 ** n * t) / 2 ** n


# ---------------------------------------------------------------------------
# tooth schedule


FROZEN_N_K = [(1, 0), (2, 0), (3, 1), (14, 1), (15, 2), (254, 2), (255, 3),
              (256, 3), (65534, 3), (65535, 4)]


@pytest.mark.parametrize("k,expected", FROZEN_N_K)
def test_n_k_frozen_values(k, expected):
    assert n_k(k) == expected


@given(st.integers(min_value=1, max_value=10 ** 9))
def test_n_k_satisfies_its_tower_inequality(k):
    m = n_k(k)
    assert 2 ** (2 ** m) <= k + 1
    assert k + 1 < 2 ** (2 ** (m + 1))


def test_n_k_rejects_nonpositive():
    with pytest.raises(ValueError):
        n_k(0)


def test_tooth_height_closed_form():
    assert tooth_height(1, 0) == Fraction(1, 2)
    assert tooth_height(3, 1) == Fraction(1, 12)
    assert tooth_height(16, 2) == Fraction(1, 128)


def test_tooth_polyline_shape():
    tp = tooth_polyline(3, 1)
    assert tp.k == 3 and tp.level == 1
    # Level 1: breakpoints at multiples of 1/4, heights 0 at even ones.
    assert tp.breakpoints[0] == Point(Fraction(0), Fraction(0))
    assert tp.breakpoints[-1] == Point(Fraction(1), Fraction(0))
    assert tp.breakpoints[1] == Point(Fraction(1, 4), Fraction(1, 12))
    assert tp.breakpoints[2] == Point(Fraction(1, 2), Fraction(0))
    assert len(tp.breakpoints) == 5
    hs = [p.y for p in tp.breakpoints]
    assert max(hs) == tooth_height(3, 1)


@given(st.integers(min_value=1, max_value=300),
       st.integers(min_value=0, max_value=6))
def test_tooth_polyline_is_the_scaled_tent_map(k, level):
    # Tooth k at level n is t -> phi_n(t) / k, and phi_n is linear between
    # the multiples of 2^-(n+1), where the breakpoints sit.
    tp = tooth_polyline(k, level)
    assert len(tp.breakpoints) == 2 ** (level + 1) + 1
    for p in tp.breakpoints:
        assert p.y == phi_n(level, p.x) / k


# ---------------------------------------------------------------------------
# spec object


def test_paper_spec_fills_levels_lazily():
    spec = ToothSequenceSpec(kind="paper", K=4)
    assert spec.level_list() == [n_k(k) for k in range(1, 5)]


def test_explicit_spec_infers_count():
    spec = ToothSequenceSpec(kind="explicit", levels=(1, 1, 2))
    assert spec.K == 3


@pytest.mark.parametrize("bad", [
    dict(kind="paper", K=0),
    dict(kind="explicit", levels=()),
    dict(kind="explicit", levels=(2, 1)),
    dict(kind="explicit", levels=(-1,)),
    dict(kind="explicit", levels=(1, 2), K=5),
    dict(kind="unheard-of", K=1),
])
def test_spec_validation(bad):
    with pytest.raises(ValueError):
        ToothSequenceSpec(**bad)


def test_spec_json_round_trip():
    for spec in (ToothSequenceSpec(kind="paper", K=7),
                 ToothSequenceSpec(kind="explicit", levels=(0, 1, 1, 3))):
        assert ToothSequenceSpec.from_json_dict(spec.to_json_dict()) == spec


def test_spec_json_rejects_malformed():
    good = ToothSequenceSpec(kind="paper", K=2).to_json_dict()
    for mangle in (lambda d: {**d, "format": "nope"},
                   lambda d: {**d, "version": 0},
                   lambda d: {**d, "kind": "mystery"},
                   lambda d: {k: v for k, v in d.items() if k != "K"},
                   lambda d: {**d, "K": 2.0},
                   lambda d: {**d, "K": "2"},
                   lambda d: {**d, "K": True},
                   lambda d: {**d, "kind": "explicit", "K": 2.0,
                              "levels": [1, 2]},
                   lambda d: {**d, "kind": "explicit", "levels": [1, "2"]},
                   lambda d: {**d, "kind": "explicit", "levels": [True, 1]}):
        with pytest.raises(ParseError):
            ToothSequenceSpec.from_json_dict(mangle(good))


# ---------------------------------------------------------------------------
# construction: exact counts and intersection discipline


FROZEN_COUNTS = [(1, 3, 3), (2, 4, 5), (3, 7, 10), (15, 35, 64)]


@pytest.mark.parametrize("k,nv,ne", FROZEN_COUNTS)
def test_paper_truncation_counts(k, nv, ne):
    g = paper_truncation(k)
    assert (len(g.vertices), len(g.edges)) == (nv, ne)


def test_predicted_counts_match_direct_formula():
    for levels in [(0,), (0, 0, 1), (1, 2, 3), (2, 2, 2, 5)]:
        maxlevel = max(levels)
        nv = 2 ** maxlevel + 1 + sum(2 ** m for m in levels)
        ne = 2 ** maxlevel + sum(2 ** (m + 1) for m in levels)
        assert predicted_counts(levels) == (nv, ne)


def test_teeth_meet_only_on_the_base(m3):
    # Any vertex shared by two teeth (or tooth and base) sits at y == 0.
    by_height = {}
    for v in m3.vertices:
        by_height.setdefault(v.y, []).append(v)
    degree = {i: 0 for i in range(len(m3.vertices))}
    for i, j in m3.edges:
        degree[i] += 1
        degree[j] += 1
    for i, v in enumerate(m3.vertices):
        if degree[i] > 2:
            assert v.y == 0
    m3.validate_proper()


def test_truncations_validate_proper(m1, m2, w6):
    m1.validate_proper()
    m2.validate_proper()
    w6.validate_proper()


def test_builder_meta_records_the_schedule(m3, w6):
    assert m3.meta["builder"] == "shark-teeth"
    assert m3.meta["kind"] == "paper"
    assert m3.meta["teeth"] == 3
    assert w6.meta["kind"] == "explicit"
    assert w6.meta["levels"] == [1, 2, 3, 4, 5, 6]


def test_build_round_trip_through_json(m2):
    from sdimlab import PLGraph
    back = PLGraph.from_json_dict(m2.to_json_dict())
    assert back.vertices == m2.vertices
    assert back.edges == m2.edges
    assert back.graph_id() == m2.graph_id()


def test_build_rejects_oversized_requests(monkeypatch):
    with pytest.raises(SizeLimit):
        build_shark_teeth(ToothSequenceSpec(kind="explicit", levels=(25,)))
    with pytest.raises(SizeLimit):
        build_shark_teeth(ToothSequenceSpec(kind="paper", K=5000))
    # The tooth count is refused before any level is computed: expanding
    # the schedule first took time linear in K.
    def no_levels(k):
        raise AssertionError("level computed for an oversized spec")
    monkeypatch.setattr(continuum, "n_k", no_levels)
    with pytest.raises(SizeLimit):
        build_shark_teeth(ToothSequenceSpec(kind="paper", K=10 ** 12))


# ---------------------------------------------------------------------------
# the direct builder against the arrangement of its segments


def _arranged(spec):
    """The truncation as `arrange` makes it from the base and every tooth
    segment: the reference the direct builder must reproduce."""
    levels = spec.level_list()
    segments = [segment(point(0, 0), point(1, 0))]
    for k, m in enumerate(levels, start=1):
        pts = tooth_polyline(k, m).breakpoints
        segments.extend(segment(a, b) for a, b in zip(pts, pts[1:]))
    meta = {"builder": "shark-teeth", "kind": spec.kind,
            "teeth": len(levels), "levels": levels}
    return arrange(segments, meta=meta)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                max_size=6).map(sorted))
def test_builder_matches_arrangement_on_explicit_levels(levels):
    spec = ToothSequenceSpec(kind="explicit", levels=tuple(levels))
    assert build_shark_teeth(spec).to_json_dict() == \
        _arranged(spec).to_json_dict()


# The schedule's level steps up after K = 2 and K = 14.
@pytest.mark.parametrize("K", [1, 2, 3, 14, 15, 16, 63])
def test_builder_matches_arrangement_on_paper_schedule(K):
    spec = ToothSequenceSpec(kind="paper", K=K)
    assert build_shark_teeth(spec).to_json_dict() == \
        _arranged(spec).to_json_dict()


# SHA-256 of each graph's canonical document (the bytes `graph_id`
# hashes), computed with the arrangement-based builder this one replaced.
GOLDEN_GRAPHS = [
    (dict(kind="paper", K=1),
     "1d16ecdcd4f00b984537ed82cfe8d9e9bf10afb8c20037f1e45f4846e5fb1aa4"),
    (dict(kind="paper", K=3),
     "fdc9129980ad1c6ec46605a30a2bfe5ede7bdb12a0eedad54bd2b48cae156483"),
    (dict(kind="paper", K=15),
     "af065ab654622ff50109cf7de0a42a41bc41866a17090ee463bbfb1231ab8671"),
    (dict(kind="paper", K=63),
     "58b89512b049f24cb150b625962306ce6a24c3cc01294096ace1136d3af36305"),
    (dict(kind="paper", K=127),
     "435ecfd5bb1b9ead4a65c4f4d494f7c7f298e3d23fc82e0d08a4ecafd29a6b88"),
    (dict(kind="paper", K=255),
     "a3eac0d4ecd0852704b26516ddf9e665878f0ac82860ec416d11fbf90b5c4631"),
    (dict(kind="explicit", levels=(1, 2, 3, 4, 5, 6)),
     "ebbda60d0e371a923168e45a1db718d91f856e74c56cbc923482d708e408a1d9"),
]


@pytest.mark.parametrize("spec, digest", GOLDEN_GRAPHS,
                         ids=["K1", "K3", "K15", "K63", "K127", "K255", "w6"])
def test_built_graphs_match_golden_digests(spec, digest):
    graph = build_shark_teeth(ToothSequenceSpec(**spec))
    blob = json.dumps(graph.to_json_dict(), sort_keys=True,
                      separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == digest
    assert graph.graph_id() == digest[:16]


def test_build_charges_the_predicted_edge_count():
    # Paper K = 127 has 960 edges.
    spec = ToothSequenceSpec(kind="paper", K=127)
    with pytest.raises(BudgetExceeded):
        build_shark_teeth(spec, Budget(max_edges=959))
    assert len(build_shark_teeth(spec, Budget(max_edges=960)).edges) == 960


def test_largest_paper_truncation_builds_within_the_default_budget():
    spec = ToothSequenceSpec(kind="paper", K=MAX_TOOTH_COUNT - 1)
    graph = build_shark_teeth(spec)
    assert (len(graph.vertices), len(graph.edges)) == \
        predicted_counts(spec.level_list()) == (31723, 63436)


# ---------------------------------------------------------------------------
# amplitude of the next tooth


def test_next_amplitude_bound_paper():
    # After M_3 the next tooth is k=4 at level n_4 = 1: height 1/(4*4).
    spec = ToothSequenceSpec(kind="paper", K=3)
    assert next_amplitude_bound(spec) == Fraction(1, 16)


def test_next_amplitude_bound_explicit_uses_last_level():
    spec = ToothSequenceSpec(kind="explicit", levels=(1, 2))
    # Omitted tooth 3 at level >= 2: height at most 1/(3 * 8).
    assert next_amplitude_bound(spec) == Fraction(1, 24)
