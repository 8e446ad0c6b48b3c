"""Acceptance gate: one check per release criterion.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line
per criterion, two for criterion 3.  Every check enforces its stated
numeric tolerance and its wall-clock budget, so a pass certifies the math
and the runtime together.

The criteria, in order:

1. exact interval oracle        s_bounds on [0,1] hits floor(1/eps)+1
2. brute-force brackets         library and oracle bounds never cross
3. certificate fuzzing          100 invalidating mutations, 0 accepts;
                                on mutated hosts, accepts agree with the oracle
4. scale selection              k0/eps0 for the gasket, ratio inequality
5. word-cover contraction       piece diameters obey ratio^k * D
6. shark-teeth structure        closed-form counts, teeth meet at y = 0
7. growth witness               guarded lower bounds grow with 1/eps
8. cross-scale consistency      coarse lower <= fine upper, all pairs
9. limit condition              2^{n_k}/k from n_k, exact, tail below start
"""

from __future__ import annotations

import copy
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from reference import (FIXTURES, attractor_cloud, bare, brute_force_oracle,
                       cover_v3_doc, cover_v4, cover_v5, dist2, edge_point,
                       s_bounds, word_maps)

from sdimlab.continuum import ToothSequenceSpec, build_shark_teeth, n_k
from sdimlab.cover import (certificate_from_json_dict, check_cover,
                           check_separation, lower_separation, upper_cover)
from sdimlab.dimension import sweep
from sdimlab.errors import SdimlabError
from sdimlab.geom import PLGraph
from sdimlab.ifs import (attractor_hull, cloud_diameter, find_k0,
                         ifs_dimension_bound)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
EIGHTH = Fraction(1, 8)


def _expired(t0: float, budget: float) -> str | None:
    spent = time.perf_counter() - t0
    if spent >= budget:
        return f"took {spent:.2f}s, budget {budget}s"
    return None


@pytest.fixture(scope="module")
def w6_profile(w6):
    scales = [Fraction(1, 2 ** j) for j in range(2, 9)]
    t0 = time.perf_counter()
    profile = sweep(w6, scales)
    return profile, time.perf_counter() - t0


@pytest.fixture(scope="module")
def seg_profile(seg_graph):
    scales = [Fraction(1, m) for m in range(2, 11)]
    return sweep(seg_graph, scales)


# ---------------------------------------------------------------------------
# 1. Interval oracle: the segment is the one host with a closed form.


def test_criterion_1_interval_oracle(seg_graph):
    t0 = time.perf_counter()
    for m in range(2, 11):
        low, up = s_bounds(seg_graph, Fraction(1, m))
        assert low == m + 1 and up == m + 1, \
            f"eps=1/{m}: got ({low}, {up}), want ({m + 1}, {m + 1})"
    assert not _expired(t0, 1.0), _expired(t0, 1.0)


# ---------------------------------------------------------------------------
# 2. Library brackets and exhaustive-search brackets must be consistent.


def test_criterion_2_brute_force_brackets(seg_graph, cross_graph,
                                          lshape_graph, m1, m2, m3):
    # The teeth hosts are bare: the oracle brackets the truncation alone.
    fixtures = {"segment": seg_graph, "cross": cross_graph,
                "lshape": lshape_graph, "m1": bare(m1), "m2": bare(m2),
                "m3": bare(m3)}
    assert len(fixtures) >= 5
    assert all(len(g.edges) <= 12 for g in fixtures.values())
    t0 = time.perf_counter()
    for name, g in fixtures.items():
        for eps in (HALF, QUARTER, EIGHTH):
            lib_low, lib_up = s_bounds(g, eps)
            orc_low, orc_up = brute_force_oracle(g, eps)
            assert lib_low <= orc_up, \
                f"{name} eps={eps}: library lower {lib_low} above " \
                f"oracle upper {orc_up}"
            assert orc_low <= lib_up, \
                f"{name} eps={eps}: oracle lower {orc_low} above " \
                f"library upper {lib_up}"
    assert not _expired(t0, 120.0), _expired(t0, 120.0)


# ---------------------------------------------------------------------------
# 3. Certificate fuzzing.  Every mutation below is built to invalidate the
# certificate it touches, with the invalidating fact asserted in exact
# arithmetic inside the mutation itself.  A checker that accepts any of
# them has a soundness hole.  A cover mutation edits the version 3 rows,
# where every id and every cut is written, and the reader gets them as
# version 5.


def _doc_elements(doc):
    """Each element's (edge, lo, hi) fragments, from a version 3 cover
    document's rows."""
    elements = {}
    for e, row in enumerate(doc["pieces"]):
        cuts = [Fraction(0), *map(Fraction, row[1::2]), Fraction(1)]
        for i, k in enumerate(row[::2]):
            elements.setdefault(k, []).append((e, cuts[i], cuts[i + 1]))
    return list(elements.values())


def _element_points(graph, element):
    pts = []
    for e, lo, hi in element:
        pts.append(edge_point(graph, e, Fraction(lo)))
        pts.append(edge_point(graph, e, Fraction(hi)))
    return pts


def _max_diam2(pts):
    return max((dist2(p, q) for p, q in itertools.combinations(pts, 2)),
               default=Fraction(0))


def _flip_id(doc):
    old = doc["graph_id"]
    new = old[::-1]
    if new == old:
        new = ("0" if old[0] != "0" else "f") + old[1:]
    assert new != old
    doc["graph_id"] = new


def mut_cover_tiny_eps(doc, graph, rng):
    worst = max(_max_diam2(_element_points(graph, el))
                for el in _doc_elements(doc))
    assert worst >= Fraction(1, 10 ** 12)
    doc["epsilon"] = "1/1000000"
    return doc


def mut_cover_drop_edge(doc, graph, rng):
    # Without its row, the last edge is not covered.
    assert len(doc["pieces"]) == len(graph.edges)
    doc["pieces"].pop()
    return doc


def mut_cover_wrong_host(doc, graph, rng):
    _flip_id(doc)
    return doc


def mut_cover_merge_all(doc, graph, rng):
    merged = [f for el in _doc_elements(doc) for f in el]
    eps = Fraction(doc["epsilon"])
    assert _max_diam2(_element_points(graph, merged)) >= eps * eps
    for row in doc["pieces"]:
        row[::2] = [0] * len(row[::2])
    return doc


def mut_cover_repeated_cut(doc, graph, rng):
    # A cut written twice: the piece between the copies has no length.
    row = rng.choice([row for row in doc["pieces"] if len(row) > 1])
    i = rng.randrange(1, len(row), 2)
    row[i:i] = [row[i], row[i - 1]]
    assert not Fraction(row[i]) < Fraction(row[i + 2])
    return doc


def mut_cover_cut_at_an_end(doc, graph, rng):
    # A cut at 0 or 1: a piece of no length at an end of the edge.
    row = rng.choice(doc["pieces"])
    if rng.random() < 0.5:
        row[:0] = [row[0], "0"]
        assert Fraction(row[1]) == 0
    else:
        row += ["1", row[-1]]
        assert Fraction(row[-2]) == 1
    return doc


def mut_cover_id_past_the_count(doc, graph, rng):
    # An id beyond every id of the document skips at least one id.
    rows = doc["pieces"]
    n = len({k for row in rows for k in row[::2]})
    e = rng.randrange(len(rows))
    i = rng.randrange(0, len(rows[e]), 2)
    rows[e][i] = n + 1
    seen = {k for row in rows[:e] for k in row[::2]} | set(rows[e][:i:2])
    assert rows[e][i] > len(seen)
    return doc


def _sep_point(graph, entry):
    return edge_point(graph, entry[0], Fraction(entry[1]))


def _nudge(graph, e, t, toward, eps):
    """Parameter on edge e, moved from t toward the end `toward` (0 or 1)
    by the largest step 2^-k (k >= 1) that stays within eps/2."""
    p = edge_point(graph, e, t)
    h = Fraction(1, 2)
    while True:
        u = t + h if toward == 1 else t - h
        if 0 <= u <= 1 and 4 * dist2(p, edge_point(graph, e, u)) < eps * eps:
            return u
        h /= 2


def _edge_neighbour(doc, graph, rng):
    """A point index i, a vertex v at an end of its edge within eps/2 of
    it, and another edge at v: (i, v, edge, end of that edge at v), or
    None when no point has one."""
    eps = Fraction(doc["epsilon"])
    options = []
    for i, (e, t) in enumerate(doc["points"]):
        p = _sep_point(graph, [e, t])
        for v in graph.edges[e]:
            if 4 * dist2(p, graph.vertices[v]) >= eps * eps:
                continue
            options.extend((i, v, e2, end) for e2, end in graph.incident(v)
                           if e2 != e)
    return rng.choice(options) if options else None


def _replace_other(doc, i, item, rng):
    """Put `item` in place of a point other than i; returns its index."""
    others = [k for k in range(len(doc["points"])) if k != i]
    j = rng.choice(others)
    doc["points"][j] = item
    return j


def mut_sep_same_edge_pair(doc, graph, rng):
    # A second point on point i's edge, closer than eps: the stretch of
    # edge between the two is connected with diameter below eps.
    i = rng.randrange(len(doc["points"]))
    e, t = doc["points"][i][0], Fraction(doc["points"][i][1])
    eps = Fraction(doc["epsilon"])
    u = _nudge(graph, e, t, 1 if t < 1 else 0, eps)
    j = _replace_other(doc, i, [e, str(u)], rng)
    pts = [_sep_point(graph, doc["points"][k]) for k in (i, j)]
    assert _max_diam2(pts) < eps * eps
    return doc


def mut_sep_across_a_vertex(doc, graph, rng):
    # A point moved onto another edge at a vertex v near point i: the path
    # from point i to v to the moved point is connected, and its diameter
    # is that of its three corners, below eps.
    i, v, e2, end = _edge_neighbour(doc, graph, rng)
    eps = Fraction(doc["epsilon"])
    u = _nudge(graph, e2, Fraction(end), 1 - end, eps)
    j = _replace_other(doc, i, [e2, str(u)], rng)
    pts = [_sep_point(graph, doc["points"][i]), graph.vertices[v],
           _sep_point(graph, doc["points"][j])]
    assert pts[1] in (edge_point(graph, e2, Fraction(0)),
                      edge_point(graph, e2, Fraction(1)))
    assert _max_diam2(pts) < eps * eps
    return doc


def mut_sep_dup_point(doc, graph, rng):
    # Two copies of one point: a single point is an admissible piece.
    doc["points"].append(copy.deepcopy(doc["points"][0]))
    assert _sep_point(graph, doc["points"][0]) == \
        _sep_point(graph, doc["points"][-1])
    return doc


def mut_sep_eps_above_diameter(doc, graph, rng):
    # The host is connected; with eps above its diameter it is one
    # admissible piece, so no two points are separated.
    assert len(doc["points"]) >= 2
    xs = [v.x for v in graph.vertices]
    ys = [v.y for v in graph.vertices]
    box2 = (max(xs) - min(xs)) ** 2 + (max(ys) - min(ys)) ** 2
    eps = Fraction(math.isqrt(math.ceil(box2)) + 1)
    assert _max_diam2(list(graph.vertices)) <= box2 < eps * eps
    doc["epsilon"] = str(eps)
    return doc


def mut_sep_point_on_the_base(doc, graph, rng):
    # t = 0 of a tooth edge is on the base line, at height 0, below the
    # guard threshold of any builder host.
    assert graph.meta["builder"] == "shark-teeth"
    teeth = [e for e, (a, b) in enumerate(graph.edges)
             if graph.vertices[a].y == 0 < graph.vertices[b].y]
    doc["points"][rng.randrange(len(doc["points"]))] = [rng.choice(teeth),
                                                        "0"]
    return doc


def mut_sep_wrong_host(doc, graph, rng):
    _flip_id(doc)
    return doc


def test_criterion_3_certificate_fuzzing(seg_graph, m2, m3):
    t0 = time.perf_counter()
    cover_ops = [mut_cover_tiny_eps, mut_cover_drop_edge,
                 mut_cover_wrong_host, mut_cover_merge_all,
                 mut_cover_repeated_cut, mut_cover_cut_at_an_end,
                 mut_cover_id_past_the_count]
    bases = []
    for g, eps in ((seg_graph, HALF), (m2, HALF), (m3, QUARTER)):
        bases.append(("cover", g, cover_v3_doc(upper_cover(g, eps)),
                      cover_ops))
    for g, eps in ((seg_graph, HALF), (bare(m2), HALF), (m3, EIGHTH)):
        doc = lower_separation(g, eps).to_json_dict()
        assert len(doc["points"]) >= 2
        ops = [mut_sep_dup_point, mut_sep_wrong_host, mut_sep_same_edge_pair,
               mut_sep_eps_above_diameter]
        if _edge_neighbour(doc, g, random.Random(0)) is not None:
            ops.append(mut_sep_across_a_vertex)
        if g.meta:
            ops.append(mut_sep_point_on_the_base)
        bases.append(("separation", g, doc, ops))

    rng = random.Random(20260822)
    accepted = []
    drawn = set()
    for trial in range(100):
        # Each base's ops are drawn in turn, so every op runs on every base
        # at least twice whatever the bases hold; the seed drives only the
        # mutations' own choices.
        kind, graph, doc, ops = bases[trial % len(bases)]
        op = ops[(trial // len(bases)) % len(ops)]
        drawn.add(op.__name__)
        mutated = op(copy.deepcopy(doc), graph, rng)
        if kind == "cover":
            mutated = cover_v5(cover_v4(mutated))
        try:
            cert = certificate_from_json_dict(mutated)
            if kind == "cover":
                check_cover(graph, cert)
            else:
                check_separation(graph, cert)
        except SdimlabError:
            # Any refusal counts; a false accept is a normal return.
            continue
        accepted.append((trial, kind, op.__name__))
    assert not accepted, f"false accepts: {accepted}"
    never = {op.__name__ for *_, ops in bases for op in ops} - drawn
    assert not never, f"mutations never drawn: {sorted(never)}"
    assert not _expired(t0, 60.0), _expired(t0, 60.0)


# Host mutations: the certificate is left as it was made and pinned to a
# mutated host.  A checker may accept it there, but then its count must
# hold on the mutated host: a separated family no larger than the
# oracle's upper bound, a cover no smaller than its lower bound.


def host_move_vertex(doc, rng):
    # One vertex moved by up to 1/4 on the grid of sixteenths.
    v = rng.randrange(len(doc["vertices"]))
    dx = dy = 0
    while dx == dy == 0:
        dx, dy = rng.randint(-4, 4), rng.randint(-4, 4)
    x, y = map(Fraction, doc["vertices"][v])
    doc["vertices"][v] = [str(x + Fraction(dx, 16)), str(y + Fraction(dy, 16))]
    return doc


def host_plant_crossing(doc, rng):
    # A new edge (p, q) crosses edge (a, b) at its midpoint, off every
    # vertex; a second new edge hangs p from a, so the host stays
    # connected.
    ia, ib = rng.choice(doc["edges"])
    (ax, ay), (bx, by) = (map(Fraction, doc["vertices"][i]) for i in (ia, ib))
    mx, my, nx, ny = (ax + bx) / 2, (ay + by) / 2, (ay - by) / 2, (bx - ax) / 2
    n = len(doc["vertices"])
    doc["vertices"] += [[str(mx + nx), str(my + ny)],
                        [str(mx - nx), str(my - ny)]]
    doc["edges"] += [[ia, n], [n, n + 1]]
    return doc


def host_drop_edge(doc, rng):
    doc["edges"].pop(rng.randrange(len(doc["edges"])))
    return doc


def test_criterion_3_host_mutations(seg_graph, lshape_graph, m2, m3):
    t0 = time.perf_counter()
    # m2 without its builder metadata is a plain host with cycles, so a
    # dropped edge can leave it connected and a lower bound unguarded.
    plain_m2 = bare(m2)
    bases = []
    for g, eps in ((seg_graph, HALF), (lshape_graph, HALF), (plain_m2, HALF),
                   (m3, QUARTER)):
        bases.append(("cover", g, eps, upper_cover(g, eps).to_json_dict()))
    for g, eps in ((seg_graph, HALF), (lshape_graph, HALF), (plain_m2, HALF),
                   (m3, EIGHTH)):
        cert = lower_separation(g, eps)
        bases.append(("separation", g, eps, cert.to_json_dict()))
    assert all(len(g.edges) <= 12 for _, g, _, _ in bases)

    rng = random.Random(20261019)
    accepted = set()
    for op in (host_move_vertex, host_plant_crossing, host_drop_edge):
        for kind, g, eps, doc in bases:
            for _ in range(4):
                try:
                    host = PLGraph.from_json_dict(op(g.to_json_dict(), rng))
                    cert = certificate_from_json_dict(
                        {**doc, "graph_id": host.graph_id()})
                    if kind == "cover":
                        n = check_cover(host, cert)
                    else:
                        n = check_separation(host, cert)
                except SdimlabError:
                    # Any refusal counts; anything else is a traceback.
                    continue
                accepted.add(kind)
                lower, upper = brute_force_oracle(host, eps)
                if kind == "cover":
                    assert n >= lower, (op.__name__, host.vertices, n, lower)
                else:
                    assert n <= upper, (op.__name__, host.vertices, n, upper)
    # Some mutated hosts must reach the oracle, or the check shows nothing.
    assert accepted == {"cover", "separation"}
    assert not _expired(t0, 60.0), _expired(t0, 60.0)


# ---------------------------------------------------------------------------
# 4. Scale selection on the gasket: the constructive cover bound beats
# ln(n)/-ln(lambda) + delta from k0 on.


def test_criterion_4_gasket_scale_selection():
    t0 = time.perf_counter()
    spec = FIXTURES["sierpinski"]()
    bound = ifs_dimension_bound(spec)
    assert abs(bound - math.log2(3)) < 1e-12
    k0, eps0, _ = find_k0(spec, 0.1)[0]
    assert k0 == 17
    assert eps0 == 2.0 ** -16
    for k in range(17, 31):
        eps_k = 0.5 ** (k - 1) * 1.0
        ratio = (k * math.log(3)) / -math.log(eps_k)
        assert ratio < bound + 0.1 - 1e-9, \
            f"k={k}: ratio {ratio} not under {bound + 0.1}"
    assert not _expired(t0, 1.0), _expired(t0, 1.0)


# ---------------------------------------------------------------------------
# 5. Word covers contract as promised on every bundled fixture: each
# length-k word maps a fixed-point cloud of diameter D to a piece of
# diameter <= ratio^k * D, with the ratio from `lip_affine`.


def test_criterion_5_word_cover_contraction():
    t0 = time.perf_counter()
    for name, make in FIXTURES.items():
        spec = make()
        lam = spec.ratio()
        # An affine image of a cloud has its hull at the image of the
        # cloud's hull, so the pieces are measured on the hull alone.
        ext = attractor_hull(spec, 6)
        d = cloud_diameter(ext)
        assert d == cloud_diameter(attractor_cloud(spec, 6))
        for k in range(9):
            pieces = [cloud_diameter(w.apply(ext))
                      for w in word_maps(spec, k)]
            limit = lam ** k * d * (1 + 1e-9)
            assert len(pieces) == len(spec.maps) ** k
            assert max(pieces) <= limit, \
                f"{name} k={k}: piece diameter above {limit}"
    assert not _expired(t0, 30.0), _expired(t0, 30.0)


# ---------------------------------------------------------------------------
# 6. Shark-teeth builds match the closed-form counts and teeth only meet
# on the base line.


def _levels_by_tower(K):
    # n_k = m exactly when 2^(2^m) <= k+1 < 2^(2^(m+1)).
    out = []
    for k in range(1, K + 1):
        m = 0
        while 2 ** (2 ** (m + 1)) <= k + 1:
            m += 1
        out.append(m)
    return out


def _counts_by_formula(levels):
    top = max(levels)
    v = 2 ** top + 1 + sum(2 ** m for m in levels)
    e = 2 ** top + sum(2 ** (m + 1) for m in levels)
    return v, e


def test_criterion_6_shark_teeth_structure():
    t0 = time.perf_counter()
    frozen = {1: (3, 3), 2: (4, 5), 3: (7, 10)}
    for K in (1, 2, 3, 15):
        g = build_shark_teeth(ToothSequenceSpec(kind="paper", K=K))
        want = frozen.get(K) or _counts_by_formula(_levels_by_tower(K))
        got = (len(g.vertices), len(g.edges))
        assert got == want, f"K={K}: counts {got}, want {want}"

        # Tag each edge by its peak height; distinct tags at one vertex
        # mean two different teeth meet there.
        tags = []
        for a, b in g.edges:
            ya, yb = g.vertices[a].y, g.vertices[b].y
            assert ya == 0 or yb == 0
            tags.append(max(ya, yb) or None)
        meetings = 0
        for v in range(len(g.vertices)):
            seen = {tags[e] for e, _ in g.incident(v)} - {None}
            if len(seen) > 1:
                meetings += 1
                assert g.vertices[v].y == 0, \
                    f"K={K}: teeth cross at {g.vertices[v]}"
        if K > 1:
            assert meetings > 0
    assert not _expired(t0, 10.0), _expired(t0, 10.0)


# ---------------------------------------------------------------------------
# 7. Growth witness on W with levels 1..6.  The ambient S-dimension being
# infinite is not a desk-scale number; what is checkable is that guarded
# lower bounds keep climbing as the scale halves.


def test_criterion_7_growth_witness(w6_profile):
    profile, elapsed = w6_profile
    assert len(profile.rows) == 7
    lowers = [r.lower for r in profile.rows]
    ratios = [r.ratio_lower for r in profile.rows]
    assert ratios[-1] > ratios[0], \
        f"ratio_lower did not grow: {ratios[0]} -> {ratios[-1]}"
    streak = best = 0
    for a, b in zip(lowers, lowers[1:]):
        streak = streak + 1 if b > a else 0
        best = max(best, streak)
    assert best >= 3, f"longest strict growth run {best} in {lowers}"
    assert elapsed < 300.0, f"sweep took {elapsed:.2f}s, budget 300s"


# ---------------------------------------------------------------------------
# 8. Cross-scale consistency on the emitted profiles: a coarse lower
# bound may never exceed a fine upper bound.


def test_criterion_8_cross_scale_consistency(seg_profile, w6_profile):
    for profile in (seg_profile, w6_profile[0]):
        rows = profile.rows
        for i, coarse in enumerate(rows):
            for fine in rows[i + 1:]:
                assert fine.epsilon < coarse.epsilon
                assert coarse.lower <= fine.upper, \
                    f"lower {coarse.lower} at {coarse.epsilon} above " \
                    f"upper {fine.upper} at {fine.epsilon}"


# ---------------------------------------------------------------------------
# 9. The peak-count ratio 2^{n_k}/k, tabulated from n_k, drops below its
# start: the desk-scale shadow of the vanishing limit condition.


def test_criterion_9_limit_condition():
    t0 = time.perf_counter()
    rows = [(k, Fraction(2 ** n_k(k), k)) for k in range(1, 10 ** 4 + 1)]
    assert all(isinstance(val, Fraction) for _, val in rows)
    assert rows[254] == (255, Fraction(8, 255))
    assert rows[-1][1] < rows[0][1]
    assert not _expired(t0, 5.0), _expired(t0, 5.0)
