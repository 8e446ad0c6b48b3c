"""Kernel tests: every exported function against a Fraction oracle.

The reference answers here are computed with fractions.Fraction directly,
sharing no code with the kernels.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdimlab import exactcore as xc

# The kernel class stays parametrized, so its test ids name the backend.
BACKENDS = [xc]


def oracle_dist2(a, b) -> Fraction:
    ax, ay = Fraction(a[0], a[1]), Fraction(a[2], a[3])
    bx, by = Fraction(b[0], b[1]), Fraction(b[2], b[3])
    return (ax - bx) ** 2 + (ay - by) ** 2


def oracle_seg_dist2(p, a, b) -> Fraction:
    px, py = Fraction(p[0], p[1]), Fraction(p[2], p[3])
    ax, ay = Fraction(a[0], a[1]), Fraction(a[2], a[3])
    bx, by = Fraction(b[0], b[1]), Fraction(b[2], b[3])
    vx, vy = bx - ax, by - ay
    wx, wy = px - ax, py - ay
    vv = vx * vx + vy * vy
    t = (wx * vx + wy * vy) / vv
    t = min(max(t, Fraction(0)), Fraction(1))
    fx, fy = ax + t * vx, ay + t * vy
    return (px - fx) ** 2 + (py - fy) ** 2


rational = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=64)


def raw(x: Fraction, y: Fraction):
    return (x.numerator, x.denominator, y.numerator, y.denominator)


raw_point = st.tuples(rational, rational).map(lambda t: raw(*t))


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
class TestKernels:

    def test_norm_q_canonical(self, impl):
        assert impl.norm_q(2, 4) == (1, 2)
        assert impl.norm_q(-2, -4) == (1, 2)
        assert impl.norm_q(3, -6) == (-1, 2)
        assert impl.norm_q(0, -7) == (0, 1)

    @given(a=raw_point, b=raw_point)
    def test_dist2_q_matches_oracle(self, impl, a, b):
        n, d = impl.dist2_q(a, b)
        assert Fraction(n, d) == oracle_dist2(a, b)
        assert impl.dist2_q(b, a) == (n, d)

    @given(pts=st.lists(raw_point, max_size=6))
    def test_max_pair_dist2_matches_oracle(self, impl, pts):
        n, d = impl.max_pair_dist2(pts)
        expected = max(
            (oracle_dist2(pts[i], pts[j])
             for i in range(len(pts)) for j in range(i + 1, len(pts))),
            default=Fraction(0))
        assert Fraction(n, d) == expected

    @given(pts=st.lists(raw_point, max_size=6), p=raw_point, lim=rational)
    def test_all_dist2_below_is_strict(self, impl, pts, p, lim):
        ln, ld = lim.numerator, lim.denominator
        if ld < 0:
            ln, ld = -ln, -ld
        got = impl.all_dist2_below(pts, p, ln, ld)
        assert got == all(oracle_dist2(a, p) < lim for a in pts)

    @settings(max_examples=200)
    @given(p=raw_point, a=raw_point, b=raw_point)
    def test_point_seg_dist2_matches_oracle(self, impl, p, a, b):
        if a == b:
            with pytest.raises(ValueError):
                impl.point_seg_dist2(p, a, b)
            return
        n, d = impl.point_seg_dist2(p, a, b)
        assert Fraction(n, d) == oracle_seg_dist2(p, a, b)

    def test_point_seg_dist2_endpoint_cases(self, impl):
        a, b = raw(Fraction(0), Fraction(0)), raw(Fraction(1), Fraction(0))
        # Foot beyond each endpoint, and the interior foot.
        assert impl.point_seg_dist2(raw(Fraction(-1), Fraction(0)), a, b) \
            == (1, 1)
        assert impl.point_seg_dist2(raw(Fraction(2), Fraction(0)), a, b) \
            == (1, 1)
        assert impl.point_seg_dist2(
            raw(Fraction(1, 2), Fraction(1, 3)), a, b) == (1, 9)

    def test_seg_intersection_crossing(self, impl):
        a = raw(Fraction(0), Fraction(0))
        b = raw(Fraction(1), Fraction(1))
        c = raw(Fraction(0), Fraction(1))
        d = raw(Fraction(1), Fraction(0))
        hit = impl.seg_intersection(a, b, c, d)
        assert hit[0] == 1
        assert (hit[1], hit[2], hit[3], hit[4]) == (1, 2, 1, 2)
        assert (hit[5], hit[6], hit[7], hit[8]) == (1, 2, 1, 2)

    def test_seg_intersection_disjoint_and_collinear(self, impl):
        a = raw(Fraction(0), Fraction(0))
        b = raw(Fraction(1), Fraction(0))
        c = raw(Fraction(0), Fraction(1))
        d = raw(Fraction(1), Fraction(1))
        assert impl.seg_intersection(a, b, c, d) == (0,)
        e = raw(Fraction(1, 2), Fraction(0))
        f = raw(Fraction(2), Fraction(0))
        assert impl.seg_intersection(a, b, e, f) == (2,)

    def test_seg_intersection_touching_endpoint(self, impl):
        a = raw(Fraction(0), Fraction(0))
        b = raw(Fraction(1), Fraction(0))
        c = raw(Fraction(1), Fraction(0))
        d = raw(Fraction(1), Fraction(1))
        hit = impl.seg_intersection(a, b, c, d)
        assert hit[0] == 1
        assert (hit[5], hit[6]) == (1, 1)
        assert (hit[7], hit[8]) == (0, 1)


def test_selector_reports_live_backend():
    assert xc.BACKEND == "python"


def test_kernels_do_not_call_each_other_through_the_module(monkeypatch):
    # Wrapping a kernel on the module counts only outside calls: with the
    # foot beyond b, point_seg_dist2 forms |p - b|^2 itself.
    calls = []
    monkeypatch.setattr(xc, "dist2_q", lambda *a: calls.append(a))
    a, b = raw(Fraction(0), Fraction(0)), raw(Fraction(1), Fraction(1, 3))
    p = raw(Fraction(5, 2), Fraction(-1, 7))
    got = xc.point_seg_dist2(p, a, b)
    assert Fraction(*got) == oracle_seg_dist2(p, a, b) \
        == oracle_dist2(p, b)
    assert calls == []
