"""Exact rational kernels in pure Python.

Points travel through these functions as flat 4-tuples of Python ints
``(xn, xd, yn, yd)`` with positive denominators.  All comparisons are done
by cross-multiplication so no gcd is taken inside loops; results returned
to callers are normalized.

Callers reach every kernel as ``exactcore.<name>``, so one module
attribute is the place where a kernel can be wrapped or counted.  No
kernel calls another through that attribute, so wrapping one counts only
outside calls.  `BACKEND` names the implementation; there is one.
"""

from __future__ import annotations

from math import gcd

BACKEND = "python"


def norm_q(n, d):
    """Normalized fraction pair: positive denominator, lowest terms."""
    if d < 0:
        n, d = -n, -d
    if n == 0:
        return 0, 1
    g = gcd(n, d)
    return n // g, d // g


def dist2_q(a, b):
    """Squared Euclidean distance of two rational points, normalized pair."""
    dxn = a[0] * b[1] - b[0] * a[1]
    dxd = a[1] * b[1]
    dyn = a[2] * b[3] - b[2] * a[3]
    dyd = a[3] * b[3]
    num = dxn * dxn * dyd * dyd + dyn * dyn * dxd * dxd
    den = dxd * dyd
    return norm_q(num, den * den)


def max_pair_dist2(pts):
    """Max squared distance over all point pairs; (0, 1) for fewer than 2."""
    best_n, best_d = 0, 1
    m = len(pts)
    for i in range(m):
        a = pts[i]
        for j in range(i + 1, m):
            b = pts[j]
            dxn = a[0] * b[1] - b[0] * a[1]
            dxd = a[1] * b[1]
            dyn = a[2] * b[3] - b[2] * a[3]
            dyd = a[3] * b[3]
            num = dxn * dxn * dyd * dyd + dyn * dyn * dxd * dxd
            den = dxd * dxd * dyd * dyd
            if num * best_d > best_n * den:
                best_n, best_d = num, den
    return norm_q(best_n, best_d)


def all_dist2_below(pts, p, lim_n, lim_d):
    """True iff dist2(p, a) < lim strictly for every a in pts."""
    for a in pts:
        dxn = a[0] * p[1] - p[0] * a[1]
        dxd = a[1] * p[1]
        dyn = a[2] * p[3] - p[2] * a[3]
        dyd = a[3] * p[3]
        num = dxn * dxn * dyd * dyd + dyn * dyn * dxd * dxd
        den = dxd * dxd * dyd * dyd
        if num * lim_d >= lim_n * den:
            return False
    return True


def point_seg_dist2(p, a, b):
    """Min squared distance from p to the closed segment ab, normalized.

    Uses the clamped projection parameter; exact throughout, so the answer
    is the true rational minimum (no square roots are ever formed).
    """
    # w = p - a, v = b - a, each as per-coordinate fraction pairs.
    wxn = p[0] * a[1] - a[0] * p[1]
    wxd = p[1] * a[1]
    wyn = p[2] * a[3] - a[2] * p[3]
    wyd = p[3] * a[3]
    vxn = b[0] * a[1] - a[0] * b[1]
    vxd = b[1] * a[1]
    vyn = b[2] * a[3] - a[2] * b[3]
    vyd = b[3] * a[3]
    # wv = w . v, vv = v . v, ww = w . w as fraction pairs.
    wv_n = wxn * vxn * wyd * vyd + wyn * vyn * wxd * vxd
    wv_d = wxd * vxd * wyd * vyd
    vv_n = vxn * vxn * vyd * vyd + vyn * vyn * vxd * vxd
    vv_d = vxd * vxd * vyd * vyd
    ww_n = wxn * wxn * wyd * wyd + wyn * wyn * wxd * wxd
    ww_d = wxd * wxd * wyd * wyd
    if vv_n == 0:
        raise ValueError("degenerate segment")
    # t* = wv / vv clamped to [0, 1]; wv_d, vv_d, vv_n all positive.
    if wv_n <= 0:
        return norm_q(ww_n, ww_d)
    if wv_n * vv_d >= vv_n * wv_d:
        # |p - b|^2 = ww - 2 wv + vv, over ww_d * vv_d == wv_d^2.
        return norm_q(ww_n * vv_d - 2 * wv_n * wv_d + vv_n * ww_d,
                      ww_d * vv_d)
    # interior foot: d2 = ww - wv^2 / vv
    num = ww_n * wv_d * wv_d * vv_n - wv_n * wv_n * ww_d * vv_d
    den = ww_d * wv_d * wv_d * vv_n
    return norm_q(num, den)


def seg_intersection(p1, p2, p3, p4):
    """Intersection of closed segments p1p2 and p3p4.

    Returns (0,) when disjoint, (2,) when the segments lie on one line,
    whether or not they overlap, and otherwise (1, xn, xd, yn, yd, tn, td,
    un, ud) with the intersection point and the two segment parameters,
    all normalized.  `arrange` merges collinear spans before it asks, so
    (2,) there is an internal error; `PLGraph.validate_proper` asks on a
    host's raw edges and decides a (2,) pair by the overlap of the two
    spans on their line.
    """
    # Scale the four points onto a common integer grid.
    d1, d2, d3, d4 = p1[1], p1[3], p2[1], p2[3]
    d5, d6, d7, d8 = p3[1], p3[3], p4[1], p4[3]
    scale = d1
    for d in (d2, d3, d4, d5, d6, d7, d8):
        scale = scale // gcd(scale, d) * d
    ax = p1[0] * (scale // p1[1])
    ay = p1[2] * (scale // p1[3])
    bx = p2[0] * (scale // p2[1])
    by = p2[2] * (scale // p2[3])
    cx = p3[0] * (scale // p3[1])
    cy = p3[2] * (scale // p3[3])
    dx = p4[0] * (scale // p4[1])
    dy = p4[2] * (scale // p4[3])
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    denom = rx * sy - ry * sx
    acx, acy = cx - ax, cy - ay
    if denom == 0:
        if acx * ry - acy * rx == 0:
            return (2,)
        return (0,)
    t_n = acx * sy - acy * sx
    u_n = acx * ry - acy * rx
    if denom < 0:
        denom, t_n, u_n = -denom, -t_n, -u_n
    if t_n < 0 or t_n > denom or u_n < 0 or u_n > denom:
        return (0,)
    xn, xd = norm_q(ax * denom + t_n * rx, denom * scale)
    yn, yd = norm_q(ay * denom + t_n * ry, denom * scale)
    tn, td = norm_q(t_n, denom)
    un, ud = norm_q(u_n, denom)
    return (1, xn, xd, yn, yd, tn, td, un, ud)
