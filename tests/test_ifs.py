"""Contractive affine systems: Lipschitz ratios, clouds, scale selection.

Numeric assertions use a relative tolerance of 1e-9 except where a value
is exact in floating point (powers of two, coordinates of fixed points).
The Lipschitz oracle is numpy's SVD, which shares nothing with the
closed-form 2x2 computation under test; the hull-based cloud diameter is
checked against a brute-force maximum over all pairs, and the
level-by-level attractor hull against the naive n^depth cloud of
`reference.attractor_cloud`.  numpy is a test dependency only: it also
serves as the vectorised reference for attractor clouds, and the tests
that need it skip when it is missing.  It is imported once per module,
so that no Hypothesis example pays for the import inside its deadline.
"""

from __future__ import annotations

import math
import random
import sys
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import (FIXTURES, attractor_cloud, compose, decode_svg,
                       hausdorff)

from sdimlab import (AffineMap2, Budget, BudgetExceeded, IFSSpec, ParseError,
                     VerificationFailure, attractor_hull, cloud_diameter,
                     find_k0, ifs_bound_report, ifs_dimension_bound,
                     lip_affine)
from sdimlab.ifs import K0_WINDOW, _extreme_points
from sdimlab.render import render_cloud_svg

REL = 1e-9


@pytest.fixture(scope="module")
def np():
    return pytest.importorskip("numpy")


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
def test_lip_affine_matches_svd_oracle(np, a, b, c, d):
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
    _all_close(compose(m1, m2).apply(pts), m1.apply(m2.apply(pts)),
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


def test_spec_json_round_trip():
    for make in FIXTURES.values():
        spec = make()
        assert IFSSpec.from_json_dict(spec.to_json_dict()) == spec


def _first_map(doc, **members):
    """`doc` with members of its first map replaced."""
    return {**doc, "maps": [{**doc["maps"][0], **members}, *doc["maps"][1:]]}


def test_spec_json_rejects_malformed(sier):
    good = sier.to_json_dict()
    for mangle in (lambda d: {**d, "format": "nope"},
                   lambda d: {**d, "version": 2},
                   lambda d: {**d, "maps": [{"matrix": [["1", "0"]]}]},
                   lambda d: _first_map(d, matrix=["00", "00"], shift="00"),
                   lambda d: _first_map(d, matrix=["00", ["0", "0"]]),
                   lambda d: _first_map(d, matrix={"00": 0, "01": 0}),
                   lambda d: _first_map(d, shift="00"),
                   lambda d: _first_map(d, shift={"0": 0, "1": 0}),
                   lambda d: _first_map(d, shift=[0, 0, 0])):
        with pytest.raises(ParseError):
            IFSSpec.from_json_dict(mangle(good))


def _set_entry(doc, where, value):
    if where == "matrix":
        doc["maps"][0]["matrix"][0][0] = value
    elif where == "shift":
        doc["maps"][1]["shift"][0] = value
    else:
        doc["diameter_hint"] = value


# A bare `float()` reads the strings as 0.5 or 10.0 and the bools as 0.0
# and 1.0.  A null hint is how a spec says it has none.
_PROBES = ("\u0660.\u0665", " 0.5 ", "0.5\n", "1_0", False, True, None,
           ["0.5"])


@pytest.mark.parametrize("where,value", [
    (where, value) for where in ("matrix", "shift", "diameter_hint")
    for value in _PROBES if not (where == "diameter_hint" and value is None)])
def test_spec_refuses_entries_no_writer_writes(sier, where, value):
    doc = sier.to_json_dict()
    _set_entry(doc, where, value)
    with pytest.raises(ParseError, match="not a number"):
        IFSSpec.from_json_dict(doc)


@pytest.mark.parametrize("value", [0.5, "0.5", "5e-1", ".5", "+0.50"])
@pytest.mark.parametrize("where", ["matrix", "shift", "diameter_hint"])
def test_spec_reads_json_numbers_and_plain_numerals(sier, where, value):
    doc = sier.to_json_dict()
    _set_entry(doc, where, value)
    want = sier.to_json_dict()
    _set_entry(want, where, "0.5")
    assert IFSSpec.from_json_dict(doc) == IFSSpec.from_json_dict(want)


@pytest.mark.parametrize("name", [["x"], 7, None, True])
def test_spec_name_must_be_a_string(sier, name):
    doc = {**sier.to_json_dict(), "name": name}
    with pytest.raises(ParseError, match="name must be a string"):
        IFSSpec.from_json_dict(doc)


@pytest.mark.parametrize("hint", [-1.0, math.nan, math.inf, -math.inf])
def test_spec_rejects_impossible_diameter_hint(sier, hint):
    with pytest.raises(ValueError):
        IFSSpec(sier.maps, "bad", hint)
    doc = sier.to_json_dict()
    doc["diameter_hint"] = repr(hint)
    with pytest.raises(ParseError):
        IFSSpec.from_json_dict(doc)


def test_hint_below_cloud_diameter_is_refused(sier):
    small = IFSSpec(sier.maps, "small", 0.01)
    with pytest.raises(ParseError, match="below the diameter"):
        find_k0(small, 0.1)
    assert find_k0(sier, 0.1)[0][:2] == (17, 2.0 ** -16)


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
    # The reference cloud has n^depth points, the hull a few of them.
    for depth, size in ((0, 1), (3, 27)):
        cloud = attractor_cloud(sier, depth)
        assert len(cloud) == size
        assert all(len(p) == 2 for p in cloud)
        hull = attractor_hull(sier, depth)
        assert set(hull) <= set(cloud)
        assert cloud_diameter(hull) == cloud_diameter(cloud)


def test_cloud_depth_zero_is_the_seed(sier):
    for spec in (sier, IFSSpec(sier.maps[1:2])):
        assert attractor_hull(spec, 0) == attractor_cloud(spec, 0) == \
            [spec.maps[0].fixed_point()]


def test_cloud_default_seed_is_a_fixed_point(sier):
    (seed,) = attractor_hull(sier, 0)
    _all_close(sier.maps[0].apply([seed]), [seed], atol=1e-12)


def test_cloud_respects_word_budget(sier):
    with pytest.raises(BudgetExceeded):
        attractor_hull(sier, 5, budget=Budget(max_words=100))
    assert len(attractor_hull(sier, 4, budget=Budget(max_words=81))) == 3


def test_cloud_refuses_overflowing_coordinates(sier):
    # Finite entries whose images leave the float range.  On the first
    # map the shift 1e308 overflows the seed, its fixed point 2e308; on
    # the second, the depth-k image x = 1e308 * (2 - 2**(1 - k)) of the
    # seed passes the largest float at k = 4.  The hull refuses each at
    # the depth where the reference cloud first holds a non-finite point.
    huge = AffineMap2(0.5, 0, 0, 0.5, 1e308, 0.0)
    first = IFSSpec((huge,) + sier.maps[1:])
    second = IFSSpec((sier.maps[0], huge, sier.maps[2]))
    cloud = attractor_cloud(second, 3)
    assert all(map(math.isfinite, (v for p in cloud for v in p)))
    assert max(x for x, _ in attractor_hull(second, 3)) == \
        max(x for x, _ in cloud) == 1.75e308
    for spec, depth in ((first, 0), (second, 4)):
        assert not all(map(math.isfinite, (v for p in attractor_cloud(
            spec, depth) for v in p)))
        with pytest.raises(ParseError, match="non-finite"):
            attractor_hull(spec, depth)
    with pytest.raises(ParseError, match="non-finite"):
        attractor_hull(IFSSpec((huge,)), 0)


@pytest.mark.parametrize("depth", [10_000, 30_000_000])
def test_word_budget_refuses_huge_depth_promptly(sier, depth):
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded) as info:
        attractor_hull(sier, depth)
    assert time.perf_counter() - t0 < 5.0
    assert str(info.value) == (f"word count 3^{depth} exceeds budget "
                               f"{Budget().max_words}")


def test_one_map_depth_is_bounded_by_the_word_budget(sier):
    solo = IFSSpec(sier.maps[:1])
    budget = Budget(max_words=5)
    assert len(attractor_hull(solo, 5, budget=budget)) == 1
    with pytest.raises(BudgetExceeded, match="depth 6 exceeds"):
        attractor_hull(solo, 6, budget=budget)
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        attractor_hull(solo, 30_000_000)
    assert time.perf_counter() - t0 < 1.0


_entry = st.floats(-0.7, 0.7)


@given(a=_entry, b=_entry, c=_entry, d=_entry,
       e=st.floats(-4, 4), f=st.floats(-4, 4))
def test_one_map_hull_is_its_fixed_point(a, b, c, d, e, f):
    # The attractor of one map is that map's fixed point, at every depth.
    m = AffineMap2(a, b, c, d, e, f)
    assume(lip_affine(m) < 1)
    solo = IFSSpec((m,))
    for depth in (0, 1, 10 ** 6):
        # repr tells 0.0 from -0.0.
        assert repr(attractor_hull(solo, depth)) == repr([m.fixed_point()])


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


@pytest.mark.parametrize("half_width", [1.6e308])
def test_cloud_too_wide_for_floats_is_refused(half_width):
    # Every coordinate is finite; the width is not.
    pts = [(-half_width, 0.0), (0.0, 1.0), (half_width, 0.0)]
    with pytest.raises(ParseError, match="too wide"):
        cloud_diameter(pts)


def test_cloud_wider_than_the_turn_range_is_measured():
    # The squared width 4e400 overflows; the width does not.
    pts = [(-1e200, 0.0), (0.0, 1.0), (1e200, 0.0)]
    assert cloud_diameter(pts) == 2e200


def test_cloud_narrower_than_the_turn_range_is_measured():
    # Two half-scale maps 1e-200 apart: the squares of the depth-4 width
    # 1.875e-200 underflow to 0.
    tiny = IFSSpec((AffineMap2(0.5, 0.0, 0.0, 0.5, 0.0, 0.0),
                    AffineMap2(0.5, 0.0, 0.0, 0.5, 1e-200, 0.0)))
    assert cloud_diameter(attractor_hull(tiny, 4)) == \
        pytest.approx(1.875e-200, rel=REL, abs=0)


def _constants(*points) -> IFSSpec:
    """Maps onto the given points, whose depth-1 cloud is the points."""
    return IFSSpec(tuple(AffineMap2(0.0, 0.0, 0.0, 0.0, x, y)
                         for x, y in points))


def test_render_refuses_a_window_wider_than_floats():
    assert len(decode_svg("".join(render_cloud_svg(
        _constants((-1e200, 0.0), (1e200, 0.0)), 1))).markers) == 2
    with pytest.raises(ParseError, match="too wide"):
        render_cloud_svg(_constants((-1.6e308, 0.0), (1.6e308, 0.0)), 1)
    with pytest.raises(ParseError, match="too wide"):
        render_cloud_svg(_constants((0.0, -1.6e308), (1e300, 1.6e308)), 1)


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


@pytest.mark.parametrize("size", [1e-200, 1e200])
def test_extreme_points_far_from_unit_size(size):
    # The turn test's products underflowed to 0 - 0, or overflowed to
    # inf - inf: the lower chain dropped its middle vertex.
    tri = [(0.0, 0.0), (size, size), (2 * size, 2.1 * size)]
    assert sorted(_extreme_points(tri)) == tri
    edges = [(size, 1.05 * size), (1.5 * size, 1.5 * size)]
    assert sorted(_extreme_points(tri + edges)) == \
        [(0.0, 0.0), (1.5 * size, 1.5 * size), (2 * size, 2.1 * size)]


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
def test_cloud_is_bit_identical_to_numpy_reference(np, name):
    # Every hull point is, bit for bit, a point of numpy's cloud, and the
    # hull's diameter is numpy's all-pairs maximum, exactly.
    spec = _gasket_bench_spec() if name == "gasket-bench" else \
        FIXTURES[name]()
    for depth in range(9):
        hull = attractor_hull(spec, depth)
        ref = _numpy_cloud(np, spec, depth)
        rows = {row.tobytes() for row in ref}
        assert all(np.array(p, dtype=float).tobytes() in rows for p in hull)
        if depth <= 6:
            diff = ref[:, None, :] - ref[None, :, :]
            assert cloud_diameter(hull) == \
                float(np.sqrt((diff ** 2).sum(axis=2)).max())


small = st.floats(-0.45, 0.45, allow_nan=False, allow_infinity=False)
shift = st.floats(-1, 1, allow_nan=False, allow_infinity=False)
contractions = st.builds(AffineMap2, small, small, small, small, shift, shift)


@given(maps=st.lists(contractions, min_size=1, max_size=3),
       depth=st.integers(0, 5))
def test_cloud_matches_numpy_reference_on_random_maps(np, maps, depth):
    # Entries below 0.45 in size give a Frobenius norm, and so a ratio,
    # of at most 0.9.  The seed solve and fused multiply-adds may differ
    # in the last bits, hence a tolerance relative to the cloud's size.
    spec = IFSSpec(tuple(maps))
    cloud = np.array(attractor_cloud(spec, depth), dtype=float)
    ref = _numpy_cloud(np, spec, depth)
    assert cloud.shape == ref.shape
    scale = max(1.0, float(np.abs(ref).max()))
    assert np.allclose(cloud, ref, rtol=1e-12, atol=1e-12 * scale)


@given(maps=st.lists(contractions, min_size=1, max_size=4),
       depth=st.integers(0, 6))
def test_hull_extent_is_the_cloud_extent(maps, depth):
    # In exact arithmetic the hull of an affine image is the image of the
    # hull.  In floats each hull point is still a cloud point, computed by
    # the same operations, but a cloud point within rounding of a hull
    # edge can fall outside the float hull: a zero map beside one with a
    # shift of 7e-103 loses that shift, against offsets of 0.25, in the
    # turn test.  The extents then differ by rounding of the largest
    # coordinate, made once per level.  One map's attractor is its fixed
    # point, which the naive orbit reaches only up to rounding.
    spec = IFSSpec(tuple(maps))
    cloud = ([maps[0].fixed_point()] if len(maps) == 1
             else attractor_cloud(spec, depth))
    hull = attractor_hull(spec, depth)
    assert set(hull) <= set(cloud)
    big = max(abs(v) for p in cloud for v in p)
    tolerance = 8 * (depth + 1) * sys.float_info.epsilon * big
    for axis in (0, 1):
        for edge in (min, max):
            assert abs(edge(p[axis] for p in hull)
                       - edge(p[axis] for p in cloud)) <= tolerance


# ---------------------------------------------------------------------------
# scale selection


def test_find_k0_sierpinski_frozen(sier):
    k0, eps0, _ = find_k0(sier, 0.1)[0]
    assert k0 == 17
    assert eps0 == 2.0 ** -16


def test_find_k0_dust_frozen(dust):
    k0, eps0, _ = find_k0(dust, 0.1)[0]
    assert k0 == 14
    assert eps0 == pytest.approx(math.sqrt(2) * 0.25 ** 13, rel=REL)


def test_find_k0_ratio_below_bound_after_k0(sier):
    k0, _, _ = find_k0(sier, 0.1)[0]
    bound = ifs_dimension_bound(sier)
    d = 1.0
    for k in range(k0, 31):
        eps_k = 0.5 ** (k - 1) * d
        ratio = k * math.log(3) / -math.log(eps_k)
        assert ratio < bound + 0.1 - 1e-12


def test_find_k0_needs_the_ratio_strictly_below_bound_plus_delta(sier):
    # The gasket's ratio at k = 17 is 17 ln 3 / (16 ln 2).  Sterbenz's
    # lemma makes delta = ratio - bound exact, so bound + delta is that
    # ratio to the bit: k = 17 ties the limit and k0 is 18.
    bound = ifs_dimension_bound(sier)
    tie = 17 * math.log(3) / -math.log(2.0 ** -16)
    rows = find_k0(sier, tie - bound)
    assert bound + (tie - bound) == tie
    assert [k for k, _, _ in rows] == list(range(18, 18 + K0_WINDOW + 1))


@settings(max_examples=60, deadline=None)
@given(maps=st.lists(contractions, min_size=2, max_size=4),
       delta=st.sampled_from((0.01, 0.1, 0.5, 1.0)))
def test_report_prints_the_rows_find_k0_checked(maps, delta):
    spec = IFSSpec(tuple(maps))
    try:
        rows = find_k0(spec, delta)
    except (ParseError, VerificationFailure):
        # A point attractor anchors no scale; constant maps run out of
        # scales; neither has a table to print.
        assume(False)
    lam, limit = spec.ratio(), ifs_dimension_bound(spec) + delta
    printed = [ln for ln in ifs_bound_report(spec, delta).splitlines()
               if ln.startswith("  k=")]
    assert printed == [f"  k={k} eps={eps:.6g} count=n^{k} "
                       f"ratio={ratio:.4f} ok" for k, eps, ratio in rows]
    k0 = rows[0][0]
    assert [k for k, _, _ in rows] == list(range(k0, k0 + K0_WINDOW + 1))
    for _, eps, ratio in rows:
        assert sys.float_info.min <= eps < 1
        assert ratio < limit
    for (_, eps, _), (_, finer, _) in zip(rows, rows[1:]):
        assert finer == eps * lam


def test_find_k0_needs_positive_delta(sier):
    with pytest.raises(ValueError):
        find_k0(sier, 0.0)


def test_find_k0_rejects_nan_delta(sier):
    with pytest.raises(ValueError):
        find_k0(sier, math.nan)


def test_find_k0_rejects_point_attractor():
    twin = IFSSpec((AffineMap2(0.5, 0, 0, 0.5, 0, 0),
                    AffineMap2(0.25, 0, 0, 0.25, 0, 0)))
    with pytest.raises(ParseError, match="diameter 0.0 is not positive"):
        find_k0(twin, 0.1)

