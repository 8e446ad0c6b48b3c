"""Contractive affine systems: Lipschitz ratios, clouds, word covers.

Numeric assertions use a relative tolerance of 1e-9 except where a value
is exact in floating point (powers of two, coordinates of fixed points).
The Lipschitz oracle is numpy's SVD, which shares nothing with the
closed-form 2x2 computation under test; the hull-based cloud diameter is
checked against a brute-force maximum over all pairs.  numpy is a test
dependency only: it also serves as the vectorised reference for attractor
clouds, and the tests that need it skip when it is missing.
"""

from __future__ import annotations

import math
import random
import time

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from sdimlab import (AffineMap2, Budget, BudgetExceeded, IFSSpec, ParseError,
                     VerificationFailure, attractor_cloud, cloud_diameter,
                     find_k0, hausdorff, ifs_dimension_bound, lip_affine,
                     s_upper_ifs, word_cover)
from sdimlab.ifs import FIXTURES, _extreme_points
from sdimlab.render import render_cloud_svg

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
    np = pytest.importorskip("numpy")
    m = AffineMap2(a, b, c, d, 0.0, 0.0)
    sigma = float(np.linalg.svd(np.array([[a, b], [c, d]]),
                                compute_uv=False)[0])
    assert lip_affine(m) == pytest.approx(sigma, rel=1e-9, abs=1e-12)


def _all_close(pts, ref, atol):
    assert len(pts) == len(ref)
    for p, q in zip(pts, ref):
        assert len(p) == len(q) == 2
        assert all(math.isclose(u, v, rel_tol=0, abs_tol=atol)
                   for u, v in zip(p, q)), (p, q)


def test_fixed_point_is_fixed(sier):
    for m in sier.maps:
        fp = m.fixed_point()
        _all_close(m.apply([fp]), [fp], atol=1e-12)


def test_compose_matches_sequential_application(sier):
    m1, m2 = sier.maps[0], sier.maps[1]
    pts = [(0.2, 0.7), (1.0, -1.0)]
    _all_close(m1.compose(m2).apply(pts), m1.apply(m2.apply(pts)),
               atol=1e-12)


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


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("entry", ["matrix", "shift"])
def test_spec_rejects_non_finite_entries(sier, entry, value):
    m = sier.maps[1]
    bad = (AffineMap2(m.a, value, m.c, m.d, m.e, m.f) if entry == "matrix"
           else AffineMap2(m.a, m.b, m.c, m.d, m.e, value))
    with pytest.raises(ValueError, match="finite"):
        IFSSpec((sier.maps[0], bad))
    doc = sier.to_json_dict()
    if entry == "matrix":
        doc["maps"][1]["matrix"][0][1] = repr(value)
    else:
        doc["maps"][1]["shift"][1] = repr(value)
    with pytest.raises(ParseError, match="finite"):
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
    for depth, size in ((0, 1), (3, 27)):
        cloud = attractor_cloud(sier, depth)
        assert len(cloud) == size
        assert all(len(p) == 2 for p in cloud)


def test_cloud_depth_zero_is_the_seed(sier):
    seed = (0.25, 0.3)
    assert attractor_cloud(sier, 0, seed=seed) == [seed]


def test_cloud_default_seed_is_a_fixed_point(sier):
    cloud = attractor_cloud(sier, 0)
    assert cloud[0] == sier.maps[0].fixed_point()


def test_cloud_respects_word_budget(sier):
    with pytest.raises(BudgetExceeded):
        attractor_cloud(sier, 5, budget=Budget(max_words=100))


def test_cloud_refuses_overflowing_coordinates(sier):
    # Finite entries whose images leave the float range.  On the first
    # map the shift 1e308 overflows the seed, its fixed point 2e308; on
    # the second, the depth-k image x = 1e308 * (2 - 2**(1 - k)) of the
    # seed passes the largest float at k = 4.
    huge = AffineMap2(0.5, 0, 0, 0.5, 1e308, 0.0)
    first = IFSSpec((huge,) + sier.maps[1:])
    with pytest.raises(ParseError, match="non-finite"):
        attractor_cloud(first, 0)
    second = IFSSpec((sier.maps[0], huge, sier.maps[2]))
    assert len(attractor_cloud(second, 3)) == 27
    with pytest.raises(ParseError, match="non-finite"):
        attractor_cloud(second, 4)


@pytest.mark.parametrize("depth", [10_000, 30_000_000])
def test_word_budget_refuses_huge_depth_promptly(sier, depth):
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded) as info:
        attractor_cloud(sier, depth)
    with pytest.raises(BudgetExceeded):
        word_cover(sier, depth)
    assert time.perf_counter() - t0 < 5.0
    assert str(info.value) == (f"word count 3^{depth} exceeds budget "
                               f"{Budget().max_words}")


def test_one_map_depth_is_bounded_by_the_word_budget(sier):
    solo = IFSSpec(sier.maps[:1])
    budget = Budget(max_words=5)
    assert len(attractor_cloud(solo, 5, budget=budget)) == 1
    assert len(word_cover(solo, 5, base_cloud=[(0.0, 0.0), (1.0, 0.0)],
                          budget=budget).pieces) == 1
    with pytest.raises(BudgetExceeded, match="depth 6 exceeds"):
        attractor_cloud(solo, 6, budget=budget)
    with pytest.raises(BudgetExceeded, match="depth 6 exceeds"):
        word_cover(solo, 6, base_cloud=[(0.0, 0.0)], budget=budget)
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        attractor_cloud(solo, 30_000_000)
    assert time.perf_counter() - t0 < 1.0


def _naive_orbit(m, p, depth):
    for _ in range(depth):
        p = m.apply([p])[0]
    return p


_entry = st.floats(-0.7, 0.7)


@given(a=_entry, b=_entry, c=_entry, d=_entry,
       e=st.floats(-4, 4), f=st.floats(-4, 4),
       seed=st.none() | st.tuples(st.floats(-4, 4), st.floats(-4, 4)),
       depth=st.integers(0, 3000))
def test_one_map_cloud_is_the_orbit_point(a, b, c, d, e, f, seed, depth):
    m = AffineMap2(a, b, c, d, e, f)
    assume(lip_affine(m) < 1)
    solo = IFSSpec((m,))
    start = m.fixed_point() if seed is None else seed
    want = [_naive_orbit(m, start, depth)]
    # repr tells 0.0 from -0.0, which the orbit must keep apart.
    assert repr(attractor_cloud(solo, depth, seed=seed)) == repr(want)


def test_one_map_orbit_keeps_signed_zeros_apart():
    # From (1, 0), x -> -x/2 - 0.0*y - 0.0 reaches 0.0 at step 1075 and
    # then alternates between -0.0 and 0.0: a 2-cycle that equality alone
    # would take for a fixed point.
    solo = IFSSpec((AffineMap2(-0.5, -0.0, 0.0, 0.5, -0.0, 0.0),))
    for depth in (1100, 1101, 5000, 5001):
        got = attractor_cloud(solo, depth, seed=(1.0, 0.0))
        assert repr(got) == repr([_naive_orbit(solo.maps[0], (1.0, 0.0),
                                               depth)])


def test_word_budget_matches_the_power():
    for max_words in (0, 1, 2, 26, 27, 28, 1000, 3 ** 12):
        budget = Budget(max_words=max_words)
        for n in (1, 2, 3, 4):
            for depth in range(14):
                if n ** depth > max_words:
                    with pytest.raises(BudgetExceeded):
                        budget.check_words(n, depth)
                else:
                    budget.check_words(n, depth)


def test_cloud_converges_in_hausdorff_distance(sier):
    # Residuals contract by the ratio per depth step.
    clouds = [attractor_cloud(sier, d) for d in range(3, 8)]
    res = [hausdorff(a, b) for a, b in zip(clouds, clouds[1:])]
    for r0, r1 in zip(res, res[1:]):
        assert r1 < r0
    assert res[-1] == pytest.approx(res[0] * 0.5 ** 3, rel=1e-6)


def test_cloud_diameter_of_known_cloud():
    pts = [(0.0, 0.0), (3.0, 4.0), (1.0, 1.0)]
    assert cloud_diameter(pts) == pytest.approx(5.0, rel=0)


@pytest.mark.parametrize("half_width", [1e200, 1.6e308])
def test_cloud_too_wide_for_floats_is_refused(half_width):
    # Every coordinate is finite; the squared width, or the width itself,
    # is not.
    pts = [(-half_width, 0.0), (0.0, 1.0), (half_width, 0.0)]
    with pytest.raises(ParseError, match="too wide"):
        cloud_diameter(pts)


def test_render_refuses_a_window_wider_than_floats():
    assert "".join(render_cloud_svg([(-1e200, 0.0), (1e200, 0.0)])).count(
        "<circle") == 2
    with pytest.raises(ParseError, match="too wide"):
        render_cloud_svg([(-1.6e308, 0.0), (1.6e308, 0.0)])
    with pytest.raises(ParseError, match="too wide"):
        render_cloud_svg([(0.0, -1.6e308), (1e300, 1.6e308)])


def test_hausdorff_of_known_clouds():
    a = [(0.0, 0.0)]
    b = [(0.0, 0.0), (3.0, 4.0)]
    assert hausdorff(a, b) == 5.0
    assert hausdorff(b, a) == 5.0
    assert hausdorff(b, b[::-1]) == 0.0


def test_extreme_points_of_degenerate_clouds():
    line = [(2.0, 2.0), (0.0, 0.0), (1.0, 1.0), (3.0, 3.0), (1.0, 1.0)]
    assert sorted(_extreme_points(line)) == [(0.0, 0.0), (3.0, 3.0)]
    same = [(0.75, 0.75)] * 5
    assert _extreme_points(same) == [(0.75, 0.75)]
    square = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.0), (1.0, 1.0), (0.0, 1.0),
              (0.5, 0.5)]
    assert sorted(_extreme_points(square)) == \
        [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


def _brute_diameter(pts: list[tuple[float, float]]) -> float:
    return max(math.dist(p, q) for p in pts for q in pts)


@st.composite
def gaussian_clouds(draw):
    n = draw(st.integers(1, 200))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    return [(rng.gauss(0, 1) * scale, rng.gauss(0, 1) * scale)
            for _ in range(n)]


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
    pts = [(float(x), float(y)) for x, y in cloud]
    assert cloud_diameter(pts) == pytest.approx(_brute_diameter(pts),
                                                rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# numpy reference: the vectorised cloud x -> x A^T + t, one map at a time


def _numpy_cloud(np, spec, depth):
    m = spec.maps[0]
    seed = np.linalg.solve(np.eye(2) - [[m.a, m.b], [m.c, m.d]], [m.e, m.f])
    pts = seed.reshape(1, 2)
    for _ in range(depth):
        pts = np.concatenate([pts @ np.array([[m.a, m.b], [m.c, m.d]]).T
                              + np.array([m.e, m.f]) for m in spec.maps])
    return pts


def _gasket_bench_spec() -> IFSSpec:
    # The spec the benchmark's gasket workload writes, read back from JSON.
    h = math.sqrt(3) / 2
    return IFSSpec.from_json_dict({
        "format": "sdimlab/ifs", "version": 1, "name": "sierpinski",
        "diameter_hint": "1.0",
        "maps": [{"matrix": [["0.5", "0.0"], ["0.0", "0.5"]],
                  "shift": [repr(0.5 * x), repr(0.5 * y)]}
                 for x, y in ((0.0, 0.0), (1.0, 0.0), (0.5, h))]})


@pytest.mark.parametrize("name", sorted(FIXTURES) + ["gasket-bench"])
def test_cloud_is_bit_identical_to_numpy_reference(name):
    np = pytest.importorskip("numpy")
    spec = _gasket_bench_spec() if name == "gasket-bench" else \
        FIXTURES[name]()
    for depth in range(9):
        cloud = attractor_cloud(spec, depth)
        ref = _numpy_cloud(np, spec, depth)
        assert np.array(cloud, dtype=float).tobytes() == ref.tobytes()
        if depth <= 6:
            diff = ref[:, None, :] - ref[None, :, :]
            assert cloud_diameter(cloud) == \
                float(np.sqrt((diff ** 2).sum(axis=2)).max())


small = st.floats(-0.45, 0.45, allow_nan=False, allow_infinity=False)
shift = st.floats(-1, 1, allow_nan=False, allow_infinity=False)
contractions = st.builds(AffineMap2, small, small, small, small, shift, shift)


@given(maps=st.lists(contractions, min_size=1, max_size=3),
       depth=st.integers(0, 5))
def test_cloud_matches_numpy_reference_on_random_maps(maps, depth):
    # Entries below 0.45 in size give a Frobenius norm, and so a ratio,
    # of at most 0.9.  The seed solve and fused multiply-adds may differ
    # in the last bits, hence a tolerance relative to the cloud's size.
    np = pytest.importorskip("numpy")
    spec = IFSSpec(tuple(maps))
    cloud = np.array(attractor_cloud(spec, depth), dtype=float)
    ref = _numpy_cloud(np, spec, depth)
    assert cloud.shape == ref.shape
    scale = max(1.0, float(np.abs(ref).max()))
    assert np.allclose(cloud, ref, rtol=1e-12, atol=1e-12 * scale)


# ---------------------------------------------------------------------------
# word covers


def test_word_cover_piece_count_and_bound(sier):
    wc = word_cover(sier, 3)
    assert wc.k == 3
    assert len(wc.pieces) == 27
    assert len(set(wc.words)) == 27
    assert all(len(w) == 3 for w in wc.words)
    assert wc.bound == pytest.approx(0.5 ** 3 * wc.diameter, rel=REL)
    assert max(wc.diameters) <= wc.bound * (1 + REL)


@pytest.mark.parametrize("name", sorted(FIXTURES))
@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_word_cover_bound_holds_on_fixtures(name, k):
    spec = FIXTURES[name]()
    wc = word_cover(spec, k)
    assert len(wc.pieces) == len(spec.maps) ** k
    assert max(wc.diameters) <= spec.ratio() ** k * wc.diameter * (1 + REL)


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


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_word_cover_composes_each_word_in_tree_order(name):
    # Words come in lexicographic order, and each word's map is its
    # parent's map composed with the last symbol's, so every diameter is
    # the same float as the tree walk gives.
    spec = FIXTURES[name]()
    level = [((), AffineMap2(1.0, 0.0, 0.0, 1.0, 0.0, 0.0))]
    for _ in range(4):
        level = [(w + (s,), comp.compose(m)) for w, comp in level
                 for s, m in enumerate(spec.maps)]
    cloud = attractor_cloud(spec, 4)
    wc = word_cover(spec, 4, base_cloud=cloud)
    assert wc.words == tuple(w for w, _ in level)
    ext = _extreme_points(cloud)
    assert [p.points for p in wc.pieces] \
        == [tuple(comp.apply(ext)) for _, comp in level]


def test_one_map_word_cover_is_linear_in_depth():
    # Copying the word prefix at every level made depth 40,000 take 3 s.
    solo = IFSSpec((AffineMap2(0.5, 0.0, 0.0, 0.5, 0.25, 0.0),), "solo")
    t0 = time.perf_counter()
    wc = word_cover(solo, 100_000, base_cloud=[(0.0, 0.0), (1.0, 0.0)])
    assert time.perf_counter() - t0 < 5.0
    assert wc.words == ((0,) * 100_000,)


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
