"""Contractive affine systems: Lipschitz ratios, clouds, word covers.

Numeric assertions use a relative tolerance of 1e-9 except where a value
is exact in floating point (powers of two, coordinates of fixed points).
The Lipschitz oracle is numpy's SVD, which shares nothing with the
closed-form 2x2 computation under test; the hull-based cloud diameter is
checked against a brute-force maximum over all pairs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdimlab import (AffineMap2, Budget, BudgetExceeded, IFSSpec, ParseError,
                     VerificationFailure, attractor_cloud, cloud_diameter,
                     find_k0, hausdorff, ifs_dimension_bound, lip_affine,
                     s_upper_ifs, word_cover)
from sdimlab.ifs import FIXTURES, _extreme_points

REL = 1e-9


@pytest.fixture(scope="module")
def sier():
    return FIXTURES["sierpinski"]()


@pytest.fixture(scope="module")
def dust():
    return FIXTURES["cantor-dust"]()


@pytest.fixture(scope="module")
def halves():
    return FIXTURES["segment"]()


# ---------------------------------------------------------------------------
# affine maps


def test_lip_affine_known_values():
    assert lip_affine(AffineMap2(0.5, 0, 0, 0.5, 1, 2)) == pytest.approx(0.5)
    assert lip_affine(AffineMap2(0, -0.9, 0.9, 0, 0, 0)) \
        == pytest.approx(0.9)
    assert lip_affine(AffineMap2(0.3, 0, 0, 0.6, 0, 0)) == pytest.approx(0.6)


coef = st.floats(min_value=-2, max_value=2, allow_nan=False,
                 allow_infinity=False)


@given(a=coef, b=coef, c=coef, d=coef)
def test_lip_affine_matches_svd_oracle(a, b, c, d):
    m = AffineMap2(a, b, c, d, 0.0, 0.0)
    sigma = float(np.linalg.svd(np.array([[a, b], [c, d]]),
                                compute_uv=False)[0])
    assert lip_affine(m) == pytest.approx(sigma, rel=1e-9, abs=1e-12)


def test_fixed_point_is_fixed(sier):
    for m in sier.maps:
        fp = m.fixed_point()
        assert np.allclose(m.apply(fp[None, :])[0], fp, rtol=0, atol=1e-12)


def test_compose_matches_sequential_application(sier):
    m1, m2 = sier.maps[0], sier.maps[1]
    pts = np.array([[0.2, 0.7], [1.0, -1.0]])
    assert np.allclose(m1.compose(m2).apply(pts), m1.apply(m2.apply(pts)),
                       rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# spec validation and serialization


def test_spec_requires_contraction():
    expanding = AffineMap2(1.0, 0, 0, 1.0, 0, 0)
    with pytest.raises(ValueError):
        IFSSpec((expanding, AffineMap2(0.5, 0, 0, 0.5, 0.5, 0)))


def test_spec_requires_at_least_one_map():
    with pytest.raises(ValueError):
        IFSSpec(())


def test_spec_json_round_trip(sier, dust):
    for spec in (sier, dust):
        back = IFSSpec.from_json_dict(spec.to_json_dict())
        assert back == spec


def test_spec_json_rejects_malformed(sier):
    good = sier.to_json_dict()
    for mangle in (lambda d: {**d, "format": "nope"},
                   lambda d: {**d, "version": 2},
                   lambda d: {**d, "maps": [{"matrix": [["1", "0"]]}]}):
        with pytest.raises(ParseError):
            IFSSpec.from_json_dict(mangle(good))


@pytest.mark.parametrize("hint", [-1.0, math.nan, math.inf, -math.inf])
def test_spec_rejects_impossible_diameter_hint(sier, hint):
    with pytest.raises(ValueError):
        IFSSpec(sier.maps, "bad", hint)
    doc = sier.to_json_dict()
    doc["diameter_hint"] = repr(hint)
    with pytest.raises(ParseError):
        IFSSpec.from_json_dict(doc)


def test_hint_below_cloud_diameter_is_refused(sier):
    # 0.01 would make s_upper_ifs(0.1) return 1 instead of 81.
    small = IFSSpec(sier.maps, "small", 0.01)
    with pytest.raises(ParseError):
        s_upper_ifs(small, 0.1)
    with pytest.raises(ParseError):
        find_k0(small, 0.1)
    assert s_upper_ifs(sier, 0.1) == 81


def test_json_rejects_expanding_system(sier):
    doc = sier.to_json_dict()
    doc["maps"][0]["matrix"] = [["1.0", "0.0"], ["0.0", "1.0"]]
    with pytest.raises(ParseError):
        IFSSpec.from_json_dict(doc)


# ---------------------------------------------------------------------------
# dimension bound


def test_dimension_bounds_of_fixtures(sier, dust, halves):
    assert ifs_dimension_bound(sier) == pytest.approx(math.log2(3), rel=REL)
    assert ifs_dimension_bound(dust) == pytest.approx(1.0, rel=REL)
    assert ifs_dimension_bound(halves) == pytest.approx(1.0, rel=REL)


def test_dimension_bound_single_map_is_zero():
    solo = IFSSpec((AffineMap2(0.5, 0, 0, 0.5, 0, 0),))
    assert ifs_dimension_bound(solo) == 0.0


# ---------------------------------------------------------------------------
# attractor clouds


def test_cloud_sizes_are_powers(sier):
    assert attractor_cloud(sier, 0).shape == (1, 2)
    assert attractor_cloud(sier, 3).shape == (27, 2)


def test_cloud_depth_zero_is_the_seed(sier):
    seed = np.array([0.25, 0.3])
    cloud = attractor_cloud(sier, 0, seed=seed)
    assert np.allclose(cloud, seed[None, :], rtol=0, atol=0)


def test_cloud_default_seed_is_a_fixed_point(sier):
    cloud = attractor_cloud(sier, 0)
    assert np.allclose(cloud[0], sier.maps[0].fixed_point(), rtol=0, atol=0)


def test_cloud_respects_word_budget(sier):
    with pytest.raises(BudgetExceeded):
        attractor_cloud(sier, 5, budget=Budget(max_words=100))


def test_cloud_converges_in_hausdorff_distance(sier):
    # Residuals contract by the ratio per depth step.
    clouds = [attractor_cloud(sier, d) for d in range(3, 8)]
    res = [hausdorff(a, b) for a, b in zip(clouds, clouds[1:])]
    for r0, r1 in zip(res, res[1:]):
        assert r1 < r0
    assert res[-1] == pytest.approx(res[0] * 0.5 ** 3, rel=1e-6)


def test_cloud_diameter_of_known_cloud():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
    assert cloud_diameter(pts) == pytest.approx(5.0, rel=0)


def test_hausdorff_of_known_clouds():
    a = np.array([[0.0, 0.0]])
    b = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert hausdorff(a, b) == 5.0
    assert hausdorff(b, a) == 5.0
    assert hausdorff(b, b[::-1]) == 0.0


def test_extreme_points_of_degenerate_clouds():
    line = np.array([[2.0, 2.0], [0.0, 0.0], [1.0, 1.0], [3.0, 3.0],
                     [1.0, 1.0]])
    assert sorted(_extreme_points(line).tolist()) == [[0.0, 0.0], [3.0, 3.0]]
    same = np.full((5, 2), 0.75)
    assert _extreme_points(same).tolist() == [[0.75, 0.75]]
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0], [1.0, 1.0],
                       [0.0, 1.0], [0.5, 0.5]])
    assert sorted(_extreme_points(square).tolist()) == \
        [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]


def _brute_diameter(pts: np.ndarray) -> float:
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=2)).max())


@st.composite
def gaussian_clouds(draw):
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    return rng.normal(size=(n, 2)) * scale


# A 9 x 9 grid: 60 draws repeat points and fill rows, columns and
# diagonals.
grid_clouds = st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                       min_size=1, max_size=60)


@st.composite
def collinear_clouds(draw):
    ox, oy, dx, dy = (draw(st.integers(-50, 50)) for _ in range(4))
    ts = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=40))
    return [(ox + t * dx, oy + t * dy) for t in ts]


@st.composite
def one_point_clouds(draw):
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    return [(draw(finite), draw(finite))] * draw(st.integers(1, 10))


@given(st.one_of(gaussian_clouds(), grid_clouds, collinear_clouds(),
                 one_point_clouds()))
def test_cloud_diameter_matches_all_pairs(cloud):
    pts = np.asarray(cloud, dtype=float)
    assert cloud_diameter(pts) == pytest.approx(_brute_diameter(pts),
                                                rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# word covers


def test_word_cover_piece_count_and_bound(sier):
    wc = word_cover(sier, 3)
    assert wc.k == 3
    assert len(wc.pieces) == 27
    assert len(set(wc.words)) == 27
    assert all(len(w) == 3 for w in wc.words)
    assert wc.bound == pytest.approx(0.5 ** 3 * wc.diameter, rel=REL)
    assert wc.diameters.max() <= wc.bound * (1 + REL)


@pytest.mark.parametrize("name", sorted(FIXTURES))
@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_word_cover_bound_holds_on_fixtures(name, k):
    spec = FIXTURES[name]()
    wc = word_cover(spec, k)
    assert len(wc.pieces) == len(spec.maps) ** k
    assert wc.diameters.max() <= spec.ratio() ** k * wc.diameter * (1 + REL)


def test_word_cover_respects_word_budget(sier):
    with pytest.raises(BudgetExceeded):
        word_cover(sier, 3, budget=Budget(max_words=10))


def test_word_cover_k_zero_is_one_piece(sier):
    wc = word_cover(sier, 0)
    assert len(wc.pieces) == 1
    assert wc.words == ((),)
    assert wc.bound == pytest.approx(wc.diameter, rel=0)


def test_word_cover_rejects_negative_k(sier):
    with pytest.raises(ValueError):
        word_cover(sier, -1)


# ---------------------------------------------------------------------------
# scale selection


def test_s_upper_ifs_frozen_values(sier, halves):
    assert s_upper_ifs(sier, 0.2) == 27
    assert s_upper_ifs(halves, 1.0) == 2
    assert s_upper_ifs(halves, 2 ** -10 + 1e-15) == 1024


def test_s_upper_ifs_monotone_in_eps(sier):
    counts = [s_upper_ifs(sier, eps) for eps in (0.5, 0.1, 0.02, 0.004)]
    assert counts == sorted(counts)


def test_find_k0_sierpinski_frozen(sier):
    k0, eps0 = find_k0(sier, 0.1)
    assert k0 == 17
    assert eps0 == 2.0 ** -16


def test_find_k0_dust_frozen(dust):
    k0, eps0 = find_k0(dust, 0.1)
    assert k0 == 14
    assert eps0 == pytest.approx(math.sqrt(2) * 0.25 ** 13, rel=REL)


def test_find_k0_ratio_below_bound_after_k0(sier):
    k0, _ = find_k0(sier, 0.1)
    bound = ifs_dimension_bound(sier)
    d = 1.0
    for k in range(k0, 31):
        eps_k = 0.5 ** (k - 1) * d
        ratio = k * math.log(3) / -math.log(eps_k)
        assert ratio < bound + 0.1 - 1e-12


def test_find_k0_needs_positive_delta(sier):
    with pytest.raises(ValueError):
        find_k0(sier, 0.0)


def test_find_k0_rejects_nan_delta(sier):
    with pytest.raises(ValueError):
        find_k0(sier, math.nan)


def test_find_k0_rejects_point_attractor():
    twin = IFSSpec((AffineMap2(0.5, 0, 0, 0.5, 0, 0),
                    AffineMap2(0.25, 0, 0, 0.25, 0, 0)))
    with pytest.raises(ParseError):
        find_k0(twin, 0.1)


def test_word_cover_matches_s_upper_at_its_own_scale(sier):
    # At eps just above the bound of a k-word cover, s_upper_ifs agrees.
    for k in (2, 3, 4):
        wc = word_cover(sier, k)
        eps = wc.bound * (1 + 1e-12)
        assert s_upper_ifs(sier, eps, diameter=wc.diameter) == 3 ** k
