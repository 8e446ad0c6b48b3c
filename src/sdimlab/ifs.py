"""Plane iterated function systems: specs, attractor hulls, scale selection.

This is the floating-point half of the package: attractors of contracting
affine systems live at machine precision, with a relative tolerance of 1e-9
on every claimed inequality.  The useful contrast with the shark-teeth side
is that n^k word pieces of diameter ratio^k * D keep the cover-count ratio
near ln(n)/-ln(ratio).  Nothing here is a certificate: D is the spec's
hint, checked against a fixed-point cloud, or a cloud's float diameter.

A point is an `(x, y)` tuple of floats, so the module needs nothing beyond
the standard library.  Every extent and diameter is read off a cloud's
hull, `attractor_hull`; the n^k points are never built.  Coordinates are
formed as `a*x + b*y + e` and distances as `sqrt(dx*dx + dy*dy)`, one
rounding per operation in that order, so a result does not depend on the
machine's summation order or fused multiply-add.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .errors import ParseError, VerificationFailure, expect_format
from .limits import Budget

IFS_FORMAT = "sdimlab/ifs"
FORMAT_VERSION = 1
REL_TOL = 1e-9
# Word lengths past k0 that `find_k0` checks and returns.
K0_WINDOW = 8

Point = tuple[float, float]


@dataclass(frozen=True)
class AffineMap2:
    """x -> A x + t with A = [[a, b], [c, d]], t = (e, f)."""
    a: float
    b: float
    c: float
    d: float
    e: float
    f: float

    def apply(self, pts: Iterable[Point]) -> list[Point]:
        a, b, c, d, e, f = self.a, self.b, self.c, self.d, self.e, self.f
        return [(a * x + b * y + e, c * x + d * y + f) for x, y in pts]

    def fixed_point(self) -> Point:
        """Solve (I - A) x = t by Cramer's rule.

        det(I - A) is the product of 1 - lambda over the eigenvalues of A,
        so it is nonzero for a contraction.
        """
        p, q = 1 - self.a, 1 - self.d
        det = p * q - self.b * self.c
        return ((self.e * q + self.b * self.f) / det,
                (p * self.f + self.c * self.e) / det)


def lip_affine(m: AffineMap2) -> float:
    """Largest singular value of the linear part, in closed form.

    For M = A^T A with p = a^2 + c^2, q = b^2 + d^2, r = ab + cd the top
    eigenvalue is (p+q)/2 + sqrt(((p-q)/2)^2 + r^2).
    """
    p = m.a * m.a + m.c * m.c
    q = m.b * m.b + m.d * m.d
    r = m.a * m.b + m.c * m.d
    half = (p - q) / 2
    return math.sqrt((p + q) / 2 + math.sqrt(half * half + r * r))


@dataclass(frozen=True)
class IFSSpec:
    """A finite list of contracting affine maps.

    `diameter_hint`, when the exact attractor diameter is known by hand
    (as for the test fixtures), replaces the hull-based measurement.
    It must be finite and >= 0, and a hint below the diameter of a
    fixed-point cloud is refused when it is used.  Every matrix and shift
    entry must be finite.
    """
    maps: tuple[AffineMap2, ...]
    name: str = ""
    diameter_hint: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        if type(self.name) is not str:
            raise TypeError(f"name must be a string, got {self.name!r}")
        if not self.maps:
            raise ValueError("need at least one map")
        for m in self.maps:
            if not all(map(math.isfinite, (m.a, m.b, m.c, m.d, m.e, m.f))):
                raise ValueError(f"map entries must be finite, got {m}")
        worst = max(lip_affine(m) for m in self.maps)
        if not worst < 1:
            raise ValueError(f"maps must contract; worst ratio {worst}")
        hint = self.diameter_hint
        if hint is not None and not (math.isfinite(hint) and hint >= 0):
            raise ValueError(f"diameter_hint must be finite and >= 0, "
                             f"got {hint!r}")

    def ratio(self) -> float:
        """Largest contraction ratio over the maps."""
        return max(lip_affine(m) for m in self.maps)

    def to_json_dict(self) -> dict:
        return {
            "format": IFS_FORMAT,
            "version": FORMAT_VERSION,
            "name": self.name,
            "diameter_hint": (None if self.diameter_hint is None
                              else repr(self.diameter_hint)),
            "maps": [
                {"matrix": [[repr(m.a), repr(m.b)], [repr(m.c), repr(m.d)]],
                 "shift": [repr(m.e), repr(m.f)]}
                for m in self.maps
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "IFSSpec":
        expect_format(data, IFS_FORMAT, FORMAT_VERSION)
        try:
            maps = []
            for m in data["maps"]:
                (a, b), (c, d) = map(_pair, _pair(m["matrix"]))
                e, f = _pair(m["shift"])
                maps.append(AffineMap2(*map(_number, (a, b, c, d, e, f))))
            hint = data.get("diameter_hint")
            return cls(maps, data.get("name", ""),
                       None if hint is None else _number(hint))
        except (LookupError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"malformed IFS document: {exc}") from exc


def _number(value) -> float:
    """A JSON number but not a bool, or an ASCII numeral with no space or _."""
    if not (type(value) in (int, float) or type(value) is str and
            re.fullmatch(r"[0-9A-Za-z.+-]+", value)):
        raise ValueError(f"not a number: {value!r}")
    return float(value)


def _pair(value) -> list:
    """A JSON array of two items; a string or an object is not unpacked.
    `geom.parse_pair` is the same check, but importing `geom` would load
    the exact layer into the float commands."""
    if type(value) is not list or len(value) != 2:
        raise ValueError(f"not a pair: {value!r}")
    return value


def ifs_dimension_bound(spec: IFSSpec) -> float:
    """ln(n) / -ln(ratio), the cover-count dimension bound; 0, its limit,
    for constant maps, whose attractor is at most n points."""
    lam = spec.ratio()
    return math.log(len(spec.maps)) / -math.log(lam) if lam else 0.0


def attractor_hull(spec: IFSSpec, depth: int,
                   budget: Budget | None = None) -> list[Point]:
    """The extreme points of the depth-`depth` cloud, the first map's
    fixed point under every length-`depth` word, found level by level in
    n * depth * h float work for hulls of h points, not n^depth.

    The hull of an affine image is the image of the hull, so level k's
    hull is that of the maps' images of level k - 1's hull.  Each hull
    point is a cloud point; a cloud point within rounding of a hull edge
    may fall outside.  One map's attractor, and hull, is its fixed point.
    The budgets are checked before any work, and a non-finite point, from
    entries that overflow it, is a `ParseError` at any level.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    budget = budget or Budget()
    budget.check_words(len(spec.maps), depth)
    budget.check_depth(depth)
    hull = _finite(spec, depth, [spec.maps[0].fixed_point()])
    if len(spec.maps) == 1:
        return hull
    for _ in range(depth):
        # `_extreme_points` needs finite points to sort.
        hull = _extreme_points(_finite(spec, depth, [
            q for m in spec.maps for q in m.apply(hull)]))
    return hull


def _finite(spec: IFSSpec, depth: int, pts: list[Point]) -> list[Point]:
    """`pts`, points of one level of the depth-`depth` cloud, once checked
    to be finite."""
    if not all(map(math.isfinite, chain.from_iterable(pts))):
        raise ParseError(f"IFS {spec.name or '(unnamed)'} overflows: its "
                         f"depth-{depth} cloud has non-finite coordinates")
    return pts


def _chain(pts: list[Point]) -> list[Point]:
    """One monotone chain: pop until the last two points and p turn left."""
    out: list[Point] = []
    for p in pts:
        while len(out) >= 2:
            (ox, oy), (ax, ay) = out[-2], out[-1]
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) > 0:
                break
            out.pop()
        out.append(p)
    return out


# Nonzero coordinates within this range keep every nonzero difference of
# two within [2^-510, 2^511], so the products of the turn test, and the
# squares of a distance, neither underflow nor overflow.
_TURN_RANGE = (2.0 ** -458, 2.0 ** 510)


def _in_turn_range(pts: Sequence[Point]) -> bool:
    """Whether every nonzero coordinate of `pts` lies within `_TURN_RANGE`."""
    sizes = [abs(v) for v in chain.from_iterable(pts) if v]
    return _TURN_RANGE[0] <= min(sizes, default=1.0) and \
        max(sizes, default=1.0) <= _TURN_RANGE[1]


def _extreme_points(pts: Sequence[Point]) -> list[Point]:
    """Hull vertices in counter-clockwise order, by Andrew's monotone chain
    (A. M. Andrew, *Another efficient algorithm for convex hulls in two
    dimensions*, Inf. Process. Lett., 1979): sort the points by (x, y),
    then build the lower and upper chains.

    Points on a hull edge are dropped, so a collinear cloud yields its two
    end points and a cloud of copies of one point yields that point.  The
    points must be finite: `sorted` has no defined order on NaN.  Points
    with a coordinate outside `_TURN_RANGE` turn in exact rationals.
    """
    srt = sorted(pts)
    if _in_turn_range(srt):
        return _hull(srt)
    # Imported for this rare case alone.
    from fractions import Fraction
    return [(float(x), float(y)) for x, y in
            _hull([(Fraction(x), Fraction(y)) for x, y in srt])]


def _hull(srt: list) -> list:
    """The hull vertices of points sorted by (x, y)."""
    if len(srt) < 2:
        return srt
    hull = _chain(srt)[:-1] + _chain(srt[::-1])[:-1]
    if len(hull) == 2 and hull[0] == hull[1]:
        hull = hull[:1]
    return hull


def _norm(dx: float, dy: float) -> float:
    return math.sqrt(dx * dx + dy * dy)


def cloud_diameter(pts: Sequence[Point]) -> float:
    """Max pairwise distance, attained on the extreme points.

    Past `_TURN_RANGE`, where squares underflow or overflow, distances
    are `math.hypot`.  A cloud whose diameter overflows the float range,
    though each of its coordinates is finite, is a `ParseError`.
    """
    ext = _extreme_points(pts)
    norm = _norm if _in_turn_range(ext) else math.hypot
    diameter = max(norm(px - qx, py - qy)
                   for i, (px, py) in enumerate(ext) for qx, qy in ext[i:])
    if not math.isfinite(diameter):
        raise ParseError(f"cloud is too wide for floats: its diameter "
                         f"measures {diameter}")
    return diameter


def _measured_diameter(spec: IFSSpec, budget: Budget) -> float:
    depth = _cloud_depth(len(spec.maps))
    measured = cloud_diameter(attractor_hull(spec, depth, budget))
    hint = spec.diameter_hint
    if hint is None:
        return measured
    # The fixed-point cloud lies on the attractor, so its diameter is a
    # lower bound on the true one.
    if hint < measured * (1 - REL_TOL):
        raise ParseError(f"diameter_hint {hint!r} is below the diameter "
                         f"{measured!r} of a depth-{depth} attractor cloud")
    return hint


def _cloud_depth(n: int) -> int:
    # Cap covers n == 1, where the point count never grows with depth.
    depth = 1
    while depth < 12 and n ** (depth + 1) <= 4096:
        depth += 1
    return depth


def find_k0(spec: IFSSpec, delta: float, diameter: float | None = None,
            budget: Budget | None = None) -> list[tuple[int, float, float]]:
    """The scale table: rows (k, eps_k, ratio_k) for k0 .. k0 + `K0_WINDOW`.

    At eps_k = ratio^(k-1) * D the word-cover count is n^k, giving the
    ratio k ln(n) / -ln(eps_k), which decreases toward the dimension bound
    as k grows.  One walk from eps_1 = D, times the ratio per step, finds
    k0, the first k with eps_k < 1 and a ratio below bound + delta, and
    checks the rows after it.  A later row above bound + delta, no k0 by
    k = 10000, or a scale that is not a normal float (too few bits for its
    ratio) is a `VerificationFailure`.  D is `diameter`, else the hint,
    checked against the hull of about 4096 cloud points.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    budget = budget or Budget()
    d = _measured_diameter(spec, budget) if diameter is None else diameter
    if not d > 0:
        raise ParseError(f"attractor diameter {d!r} is not positive; there "
                         f"is no scale sequence to anchor")
    log_n = math.log(len(spec.maps))
    lam = spec.ratio()
    limit = ifs_dimension_bound(spec) + delta
    rows: list[tuple[int, float, float]] = []
    k, eps = 1, d
    while len(rows) <= K0_WINDOW:
        if eps < sys.float_info.min:  # subnormal or 0: too few bits
            raise VerificationFailure(f"no admissible word length before "
                                      f"the scale underflows at {k}")
        ratio = k * log_n / -math.log(eps) if eps < 1 else math.inf
        if ratio < limit:
            rows.append((k, eps, ratio))
        elif rows:
            raise VerificationFailure(
                f"ratio at word length {k} regressed above bound + delta")
        elif k == 10_000:
            raise VerificationFailure(
                "no admissible word length below 10000")
        k += 1
        eps *= lam
    return rows
