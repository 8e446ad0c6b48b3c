"""Shared hosts for the test suite.

Graph fixtures are built once per session; everything downstream treats
them as immutable, which PLGraph enforces anyway.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from sdimlab import (PLGraph, ToothSequenceSpec, arrange, build_shark_teeth,
                     point, segment)


def paper_truncation(k: int):
    return build_shark_teeth(ToothSequenceSpec(kind="paper", K=k))


@pytest.fixture(scope="session")
def seg_graph():
    """Unit segment on the x axis."""
    return arrange([segment(point(0, 0), point(1, 0))])


@pytest.fixture(scope="session")
def m1():
    return paper_truncation(1)


@pytest.fixture(scope="session")
def m2():
    return paper_truncation(2)


@pytest.fixture(scope="session")
def m3():
    return paper_truncation(3)


@pytest.fixture(scope="session")
def m3_moved_peak(m3):
    """m3 with tooth 1's peak raised from (1/2, 1/2) to (1/2, 1): m3's
    counts, vertex order and metadata, but not the builder's geometry."""
    vertices = list(m3.vertices)
    half = Fraction(1, 2)
    vertices[vertices.index(point(half, half))] = point(half, 1)
    return PLGraph(vertices, m3.edges, m3.meta)


@pytest.fixture(scope="session", params=["overlap", "t-junction"])
def improper_graph(request):
    """A connected host, written directly, in which edge 0 meets edge 1
    away from a shared vertex: collinear along [1, 2] x {0}, or with
    edge 1 ending at (1, 0) inside edge 0.  A detour joins the two."""
    if request.param == "overlap":
        return PLGraph([point(0, 0), point(2, 0), point(1, 0), point(3, 0),
                        point(0, 1), point(3, 1)],
                       [(0, 1), (2, 3), (0, 4), (4, 5), (5, 3)])
    return PLGraph([point(0, 0), point(2, 0), point(1, 0), point(1, 1),
                    point(2, 1)],
                   [(0, 1), (2, 3), (3, 4), (4, 1)])


@pytest.fixture(scope="session")
def m15():
    return paper_truncation(15)


@pytest.fixture(scope="session")
def w6():
    """Fast-growing tooth schedule: tooth k at level k, six teeth."""
    return build_shark_teeth(
        ToothSequenceSpec(kind="explicit", levels=(1, 2, 3, 4, 5, 6)))


@pytest.fixture(scope="session")
def plain4():
    """The explicit schedule with levels 1..4 without its builder
    metadata: a plain host of 76 edges, checked for properness."""
    g = build_shark_teeth(
        ToothSequenceSpec(kind="explicit", levels=(1, 2, 3, 4)))
    return PLGraph(g.vertices, g.edges)


@pytest.fixture(scope="session")
def cross_graph():
    """Two crossing diagonals; arrange splits them at the center."""
    return arrange([
        segment(point(0, 0), point(1, 1)),
        segment(point(0, 1), point(1, 0)),
    ])


@pytest.fixture(scope="session")
def lshape_graph():
    """Two unit legs meeting at the origin."""
    return arrange([
        segment(point(0, 0), point(1, 0)),
        segment(point(0, 0), point(0, 1)),
    ])


@pytest.fixture(scope="session")
def kite_graph():
    """Two crossing diagonals of the box [0, 4] x [0, 3], its floor, and a
    post x = 1 that crosses both diagonals and stands on the floor in a
    T-junction at (1, 0)."""
    return arrange([
        segment(point(0, 0), point(4, 3)),
        segment(point(0, 3), point(4, 0)),
        segment(point(1, 0), point(1, 3)),
        segment(point(0, 0), point(4, 0)),
    ])


@pytest.fixture(scope="session")
def fork_graph():
    """A slope y = 2x/5 crossed at x = 35/19 by a second segment, and a
    post from (4, 0) ending in a T-junction on the slope at (4, 8/5)."""
    return arrange([
        segment(point(0, 0), point(5, 2)),
        segment(point(1, 2), point(3, -1)),
        segment(point(4, 0), point(4, Fraction(8, 5))),
        segment(point(3, -1), point(4, 0)),
    ])


HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
EIGHTH = Fraction(1, 8)
