"""Shark-teeth construction: tent maps, tooth schedule, exact counts.

Frozen values in this file were derived by hand from the closed forms:
n_k is the unique m with 2^(2^m) <= k+1 < 2^(2^(m+1)), a truncation with
tooth levels m_1..m_K on top of a base subdivided to max(m_k)+1 has
2^maxlevel + 1 + sum(2^m_k) vertices and 2^maxlevel + sum(2^(m_k+1))
edges.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdimlab import (ParseError, Point, ToothSequenceSpec, build_shark_teeth,
                     limit_check, n_k, next_amplitude_bound, phi, phi_n,
                     predicted_counts, tooth_height, tooth_polyline)
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


def test_build_rejects_oversized_requests():
    from sdimlab import SizeLimit
    with pytest.raises(SizeLimit):
        build_shark_teeth(ToothSequenceSpec(kind="explicit", levels=(25,)))
    with pytest.raises(SizeLimit):
        build_shark_teeth(ToothSequenceSpec(kind="paper", K=5000))


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


# ---------------------------------------------------------------------------
# height-to-index ratio table


def test_limit_check_frozen_row():
    lc = limit_check(ToothSequenceSpec(kind="paper", K=1), 1, 300)
    table = dict(lc.rows)
    assert table[255] == Fraction(8, 255)
    assert table[1] == Fraction(1)
    assert table[2] == Fraction(1, 2)
    assert table[3] == Fraction(2, 3)


def test_limit_check_values_are_exact_rationals():
    lc = limit_check(ToothSequenceSpec(kind="paper", K=1), 1, 64)
    for k, value in lc.rows:
        assert isinstance(value, Fraction)
        assert value == Fraction(2 ** n_k(k), k)


def test_limit_check_alpha_one_drops_below_start():
    lc = limit_check(ToothSequenceSpec(kind="paper", K=1), 1, 10 ** 4)
    assert lc.below_initial
    assert lc.rows[-1][1] < lc.rows[0][1]


def test_limit_check_alpha_zero_does_not_drop():
    # 2^(n_k) alone never falls below its initial value 1.
    lc = limit_check(ToothSequenceSpec(kind="paper", K=1), 0, 10 ** 3)
    assert not lc.below_initial
