# cython: language_level=3, boundscheck=False, wraparound=False
"""Exact rational kernels, compiled twin of `_exactcore`.

Semantics must match the pure module exactly: same inputs, same normalized
outputs.  Coordinates are arbitrary-precision Python ints, so arithmetic
stays on PyObject integers; the win over the pure path is loop and call
dispatch, which dominates these kernels at desk scale.
"""

from math import gcd

BACKEND = "cython"


cpdef tuple norm_q(n, d):
    if d < 0:
        n, d = -n, -d
    if n == 0:
        return 0, 1
    g = gcd(n, d)
    return n // g, d // g




cpdef tuple dist2_q(tuple a, tuple b):
    dxn = a[0] * b[1] - b[0] * a[1]
    dxd = a[1] * b[1]
    dyn = a[2] * b[3] - b[2] * a[3]
    dyd = a[3] * b[3]
    num = dxn * dxn * dyd * dyd + dyn * dyn * dxd * dxd
    den = dxd * dyd
    return norm_q(num, den * den)


cpdef tuple max_pair_dist2(list pts):
    cdef Py_ssize_t i, j, m
    cdef tuple a, b
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




cpdef bint all_dist2_below(list pts, tuple p, lim_n, lim_d):
    cdef tuple a
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




cpdef tuple point_seg_dist2(tuple p, tuple a, tuple b):
    wxn = p[0] * a[1] - a[0] * p[1]
    wxd = p[1] * a[1]
    wyn = p[2] * a[3] - a[2] * p[3]
    wyd = p[3] * a[3]
    vxn = b[0] * a[1] - a[0] * b[1]
    vxd = b[1] * a[1]
    vyn = b[2] * a[3] - a[2] * b[3]
    vyd = b[3] * a[3]
    wv_n = wxn * vxn * wyd * vyd + wyn * vyn * wxd * vxd
    wv_d = wxd * vxd * wyd * vyd
    vv_n = vxn * vxn * vyd * vyd + vyn * vyn * vxd * vxd
    vv_d = vxd * vxd * vyd * vyd
    ww_n = wxn * wxn * wyd * wyd + wyn * wyn * wxd * wxd
    ww_d = wxd * wxd * wyd * wyd
    if vv_n == 0:
        raise ValueError("degenerate segment")
    if wv_n <= 0:
        return norm_q(ww_n, ww_d)
    if wv_n * vv_d >= vv_n * wv_d:
        return dist2_q(p, b)
    num = ww_n * wv_d * wv_d * vv_n - wv_n * wv_n * ww_d * vv_d
    den = ww_d * wv_d * wv_d * vv_n
    return norm_q(num, den)


cpdef tuple seg_intersection(tuple p1, tuple p2, tuple p3, tuple p4):
    scale = p1[1]
    for d in (p1[3], p2[1], p2[3], p3[1], p3[3], p4[1], p4[3]):
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
