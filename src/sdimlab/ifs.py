"""Plane iterated function systems and word covers of their attractors.

This is the floating-point half of the package: attractors of contracting
affine systems live at machine precision, with a relative tolerance of 1e-9
on every claimed inequality.  The useful contrast with the shark-teeth side
is that here the cover counts n^k at scale ratio^k * D give a dimension
bound that the covers themselves attain up to any slack, at an explicitly
computable scale.

A point is an `(x, y)` tuple of floats and a cloud is a list of points,
so the module needs nothing beyond the standard library.  Coordinates are
formed as `a*x + b*y + e` and distances as `sqrt(dx*dx + dy*dy)`, one
rounding per operation in that order, so a result does not depend on the
machine's summation order or fused multiply-add.

Diameters are measured on convex-hull vertices, found by Andrew's
monotone chain (A. M. Andrew, *Another efficient algorithm for convex
hulls in two dimensions*, Inf. Process. Lett., 1979): sort the points by
(x, y), then build the lower and upper chains, dropping every point that
does not make a strict left turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, product
from typing import Iterable, Sequence

from .errors import ParseError, VerificationFailure
from .limits import Budget

IFS_FORMAT = "sdimlab/ifs"
FORMAT_VERSION = 1
REL_TOL = 1e-9
# Word lengths past k0 that `find_k0` re-checks and the report tabulates.
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

    def compose(self, other: "AffineMap2") -> "AffineMap2":
        """self after other: x -> A (B x + s) + t."""
        a, b, c, d = self.a, self.b, self.c, self.d
        return AffineMap2(a * other.a + b * other.c, a * other.b + b * other.d,
                          c * other.a + d * other.c, c * other.b + d * other.d,
                          a * other.e + b * other.f + self.e,
                          c * other.e + d * other.f + self.f)

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
    (as for the bundled fixtures), replaces the cloud-based measurement.
    It must be finite and >= 0, and a hint below the diameter of a
    fixed-point cloud is refused when it is used.  Every matrix and shift
    entry must be finite.
    """
    maps: tuple[AffineMap2, ...]
    name: str = ""
    diameter_hint: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
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
        if not isinstance(data, dict) or data.get("format") != IFS_FORMAT:
            raise ParseError("not an IFS document")
        if data.get("version") != FORMAT_VERSION:
            raise ParseError(f"unsupported version {data.get('version')!r}")
        try:
            maps = tuple(
                AffineMap2(float(m["matrix"][0][0]), float(m["matrix"][0][1]),
                           float(m["matrix"][1][0]), float(m["matrix"][1][1]),
                           float(m["shift"][0]), float(m["shift"][1]))
                for m in data["maps"]
            )
            hint = data.get("diameter_hint")
            return cls(maps, str(data.get("name", "")),
                       None if hint is None else float(hint))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed IFS document: {exc}") from exc


def _toward(point: tuple[float, float], scale: float) -> AffineMap2:
    """Similarity contracting by `scale` with the given fixed point."""
    px, py = point
    return AffineMap2(scale, 0.0, 0.0, scale,
                      (1 - scale) * px, (1 - scale) * py)


def sierpinski() -> IFSSpec:
    """Three half-scale maps toward the corners of a unit-side triangle."""
    h = math.sqrt(3) / 2
    return IFSSpec((_toward((0, 0), 0.5), _toward((1, 0), 0.5),
                    _toward((0.5, h), 0.5)), "sierpinski", 1.0)


def cantor_dust() -> IFSSpec:
    """Four quarter-scale maps fixing the unit square's corners."""
    corners = ((0, 0), (1, 0), (0, 1), (1, 1))
    return IFSSpec(tuple(_toward(c, 0.25) for c in corners),
                   "cantor-dust", math.sqrt(2))


def segment_halves() -> IFSSpec:
    """Two half-scale maps whose attractor is the unit segment."""
    return IFSSpec((_toward((0, 0), 0.5), _toward((1, 0), 0.5)),
                   "segment", 1.0)


FIXTURES = {
    "sierpinski": sierpinski,
    "cantor-dust": cantor_dust,
    "segment": segment_halves,
}


def ifs_dimension_bound(spec: IFSSpec) -> float:
    """ln(n) / -ln(ratio): the cover-count dimension bound for the system."""
    lam = spec.ratio()
    return math.log(len(spec.maps)) / -math.log(lam)


def attractor_cloud(spec: IFSSpec, depth: int,
                    seed: Sequence[float] | None = None,
                    budget: Budget | None = None) -> list[Point]:
    """All length-`depth` words applied to the seed point, as a list of
    `(x, y)` tuples.

    The seed defaults to the first map's fixed point, which lies on the
    attractor, making the cloud a subset of it.  Points come out in
    lexicographic word order, leftmost symbol applied last: every image
    under map 0, then every image under map 1, and so on, so the list is
    reproducible run to run.  A cloud with a coordinate that is not
    finite, because the spec's entries overflow it, is a `ParseError`.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    budget = budget or Budget()
    budget.check_words(len(spec.maps), depth)
    budget.check_depth(depth)
    if seed is None:
        pts = [spec.maps[0].fixed_point()]
    else:
        x, y = seed
        pts = [(float(x), float(y))]
    if len(spec.maps) == 1:
        pts = [_orbit_point(spec.maps[0], pts[0], depth)]
    else:
        for _ in range(depth):
            pts = [p for m in spec.maps for p in m.apply(pts)]
    # A non-finite point has only non-finite images, so checking the last
    # level catches an overflow at any depth.
    if not all(map(math.isfinite, chain.from_iterable(pts))):
        raise ParseError(f"IFS {spec.name or '(unnamed)'} overflows: its "
                         f"depth-{depth} cloud has non-finite coordinates")
    return pts


def _orbit_point(m: AffineMap2, p: Point, depth: int) -> Point:
    """`m` applied `depth` times to `p`, computed as `apply` computes it.

    A point's orbit under `m` takes finitely many float values, so it
    ends in a cycle, often within a few hundred steps and not always at a
    fixed point.  Brent's cycle finding (R. P. Brent, *An improved Monte
    Carlo factorization algorithm*, BIT, 1980) stops at the first repeat
    it sees and reads the point at `depth` off the cycle, in constant
    memory: the orbit before its cycle can be long for a map that
    contracts slowly.  Points repeat only when their bits agree, so the
    two zeros count as different values.
    """
    def step(q: Point) -> Point:
        return m.apply((q,))[0]

    def same(q: Point, r: Point) -> bool:
        # Equal floats differ in their bits only as 0.0 and -0.0.
        return q == r and all(math.copysign(1.0, a) == math.copysign(1.0, b)
                              for a, b in zip(q, r))

    if depth == 0:
        return p
    # Invariant: hare is the point at `level`, tortoise the one at
    # level - lam.
    tortoise, hare, level = p, step(p), 1
    power = lam = 1
    while level < depth and not same(tortoise, hare):
        if power == lam:
            tortoise, power, lam = hare, 2 * power, 0
        hare, level, lam = step(hare), level + 1, lam + 1
    # The orbit repeats with period lam from level - lam on.
    for _ in range((depth - level) % lam):
        hare = step(hare)
    return hare


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


def _extreme_points(pts: Sequence[Point]) -> list[Point]:
    """Hull vertices in counter-clockwise order, by Andrew's monotone chain.

    Points on a hull edge are dropped, so a collinear cloud yields its two
    end points and a cloud of copies of one point yields that point.  The
    points must be finite: `sorted` has no defined order on NaN.
    """
    srt = sorted(pts)
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

    A cloud whose diameter overflows the float range, though each of its
    coordinates is finite, is a `ParseError`.
    """
    ext = _extreme_points(pts)
    diameter = max(_norm(px - qx, py - qy)
                   for i, (px, py) in enumerate(ext) for qx, qy in ext[i:])
    if not math.isfinite(diameter):
        raise ParseError(f"cloud is too wide for floats: its diameter "
                         f"measures {diameter}")
    return diameter


def hausdorff(a: Sequence[Point], b: Sequence[Point]) -> float:
    """Symmetric Hausdorff distance between two point clouds."""

    def directed(src: Sequence[Point], dst: Sequence[Point]) -> float:
        return max(min((qx - px) * (qx - px) + (qy - py) * (qy - py)
                       for qx, qy in dst)
                   for px, py in src)

    return math.sqrt(max(directed(a, b), directed(b, a)))


def _measured_diameter(spec: IFSSpec, budget: Budget,
                       override: float | None = None) -> float:
    if override is not None:
        return override
    depth = _cloud_depth(len(spec.maps))
    measured = cloud_diameter(attractor_cloud(spec, depth, budget=budget))
    hint = spec.diameter_hint
    if hint is None:
        return measured
    # The fixed-point cloud lies on the attractor, so its diameter is a
    # lower bound on the true one.
    if hint < measured * (1 - REL_TOL):
        raise ParseError(f"diameter_hint {hint!r} is below the diameter "
                         f"{measured!r} of a depth-{depth} attractor cloud")
    return hint


@dataclass(frozen=True)
class WordPiece:
    """One piece of a word cover: the word, the image of the attractor's
    extreme points under it as a tuple of `(x, y)` points, and the piece
    diameter measured on them."""
    word: tuple[int, ...]
    points: tuple[Point, ...]
    diameter: float


@dataclass(frozen=True)
class WordCover:
    """The word pieces w(A) over all words of one length.

    `diameter` is the ambient attractor diameter D the bound is relative
    to; `bound` is ratio^k * D, which every piece diameter must respect.
    The piece count n^k is the cover count this scale certifies.
    """
    k: int
    pieces: tuple[WordPiece, ...]
    diameter: float
    bound: float

    @property
    def words(self) -> tuple[tuple[int, ...], ...]:
        return tuple(p.word for p in self.pieces)

    @property
    def diameters(self) -> tuple[float, ...]:
        return tuple(p.diameter for p in self.pieces)


def word_cover(spec: IFSSpec, k: int,
               base_cloud: Sequence[Point] | None = None,
               budget: Budget | None = None) -> WordCover:
    """Measure every length-k piece and check it against ratio^k * D.

    Piece diameters are evaluated on the base cloud's extreme points: the
    image of a compact set under an affine map has its diameter on hull
    pairs, so pushing the pairwise difference vectors through the word's
    composed linear part is exact up to roundoff.  The base cloud defaults
    to a fixed-point cloud at a size-capped depth.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    budget = budget or Budget()
    n = len(spec.maps)
    budget.check_words(n, k)
    budget.check_depth(k)
    if base_cloud is None:
        base_cloud = attractor_cloud(spec, _cloud_depth(n), budget=budget)
    ext = _extreme_points(base_cloud)
    diffs = [(px - qx, py - qy)
             for i, (px, py) in enumerate(ext) for qx, qy in ext[i + 1:]]
    diffs = diffs or [(0.0, 0.0)]
    dhat = max(_norm(dx, dy) for dx, dy in diffs)
    lam = spec.ratio()
    bound = lam ** k * dhat
    # One compose per tree node instead of k per word.  Each level lists
    # its maps in the lexicographic order of their words, which `product`
    # then builds once each, at the last level only.
    level = [AffineMap2(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)]
    for _ in range(k):
        level = [comp.compose(m) for comp in level for m in spec.maps]
    pieces = []
    for word, comp in zip(product(range(n), repeat=k), level):
        a, b, c, d = comp.a, comp.b, comp.c, comp.d
        diam = max(_norm(a * dx + b * dy, c * dx + d * dy)
                   for dx, dy in diffs)
        pieces.append(WordPiece(word, tuple(comp.apply(ext)), diam))
    worst = max(pieces, key=lambda p: p.diameter, default=None)
    if worst is not None and worst.diameter > bound * (1 + REL_TOL):
        raise VerificationFailure(
            f"word {worst.word} has diameter {worst.diameter} above "
            f"the contraction bound {bound}")
    return WordCover(k, tuple(pieces), dhat, bound)


def _cloud_depth(n: int) -> int:
    # Cap covers n == 1, where the point count never grows with depth.
    depth = 1
    while depth < 12 and n ** (depth + 1) <= 4096:
        depth += 1
    return depth


def s_upper_ifs(spec: IFSSpec, eps: float,
                diameter: float | None = None,
                budget: Budget | None = None) -> int:
    """Certified cover count at scale eps: n^k for the first k that works.

    k is the least exponent with ratio^k * D < eps; the n^k length-k word
    pieces cover the attractor at diameter <= ratio^k * D < eps.  Each
    piece is an affine image of the whole attractor, so when the attractor
    is connected the pieces are admissible connected cover elements; for a
    disconnected attractor the count bounds the unrestricted cover number.
    Nothing is materialized, so the count may be astronomically large.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    budget = budget or Budget()
    d = _measured_diameter(spec, budget, diameter)
    lam = spec.ratio()
    k = 0
    while lam ** k * d >= eps:
        k += 1
    return len(spec.maps) ** k


def find_k0(spec: IFSSpec, delta: float, diameter: float | None = None,
            budget: Budget | None = None) -> tuple[int, float]:
    """Smallest word length whose cover ratio sits within delta of the bound.

    At eps_k = ratio^(k-1) * D the certified count is n^k, giving the
    ratio k ln(n) / -ln(eps_k).  This decreases toward the dimension bound
    as k grows; the returned k0 is the first index where it is below
    bound + delta (with eps_k already below 1), re-checked over the
    `K0_WINDOW` further indices.  Returns (k0, eps_k0).
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    budget = budget or Budget()
    d = _measured_diameter(spec, budget, diameter)
    if not d > 0:
        raise ParseError("attractor is a single point; there is no scale "
                         "sequence to anchor")
    n = len(spec.maps)
    lam = spec.ratio()
    bound = ifs_dimension_bound(spec)

    def eps_at(k: int) -> float:
        return lam ** (k - 1) * d

    def ratio_at(k: int) -> float:
        return k * math.log(n) / -math.log(eps_at(k))

    k = 1
    while not (eps_at(k) < 1 and ratio_at(k) < bound + delta):
        k += 1
        if k > 10_000:
            raise VerificationFailure(
                "no admissible word length below 10000")
    for kk in range(k, k + K0_WINDOW + 1):
        if not ratio_at(kk) < bound + delta:
            raise VerificationFailure(
                f"ratio at word length {kk} regressed above bound + delta")
    return k, eps_at(k)
