"""Shark-teeth continua: a base interval with tent-shaped teeth.

The space is [0,1] x {0} together with teeth t -> (1/k) * phi_{n_k}(t) for
k = 1..K, where phi_n(t) = dist(t, 2^-n Z) and the level sequence n_k is
nondecreasing.  Every tooth is a zigzag polyline with 2^{n_k} peaks of
height 1/(k * 2^{n_k + 1}); teeth with distinct amplitudes meet only on the
base line, so the union is a plane graph without crossings.  Each finite
truncation is built exactly here; the ambient continuum is their closure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import CrossingAssertionFailure, ParseError, SizeLimit
from .geom import PLGraph, Point, Segment, arrange, parse_index
from .limits import Budget

TOOTH_SPEC_FORMAT = "sdimlab/tooth-spec"
FORMAT_VERSION = 1

MAX_TOOTH_COUNT = 4096
MAX_LEVEL = 20


def phi(t: Fraction) -> Fraction:
    """Distance from t to the nearest integer."""
    frac = t - math.floor(t)
    return min(frac, 1 - frac)


def phi_n(n: int, t: Fraction) -> Fraction:
    """Tent wave with 2^n teeth on [0,1]: dist(t, 2^-n Z)."""
    if n < 0:
        raise ValueError("level must be >= 0")
    return phi(t * 2 ** n) / 2 ** n


def n_k(k: int) -> int:
    """Level of tooth k under the doubly logarithmic schedule.

    n_k = floor(log2 log2 (k+1)), evaluated by exact integer comparison:
    n_k = m iff 2^(2^m) <= k+1 < 2^(2^(m+1)).
    """
    if k < 1:
        raise ValueError("teeth are numbered from 1")
    m = 0
    while 2 ** (2 ** (m + 1)) <= k + 1:
        m += 1
    if 2 ** (2 ** m) > k + 1:
        raise ValueError(f"no level for k={k}")
    return m


def tooth_height(k: int, level: int) -> Fraction:
    """Peak height of tooth k at the given level."""
    return Fraction(1, k * 2 ** (level + 1))


class ToothPolyline(NamedTuple):
    """One tooth as an ordered breakpoint chain from (0,0) to (1,0)."""
    k: int
    level: int
    breakpoints: tuple[Point, ...]


def tooth_polyline(k: int, level: int) -> ToothPolyline:
    """Tooth k at the given level: alternating base and peak points.

    Breakpoints sit at t = j / 2^(level+1); even j on the base line, odd j
    at the peak height.
    """
    steps = 2 ** (level + 1)
    h = tooth_height(k, level)
    pts = tuple(Point(Fraction(j, steps), h if j % 2 else Fraction(0))
                for j in range(steps + 1))
    return ToothPolyline(k, level, pts)


@dataclass(frozen=True)
class ToothSequenceSpec:
    """Which teeth to build: the log-log schedule or explicit levels.

    kind "paper" uses n_k = floor(log2 log2 (k+1)) for k = 1..K.  kind
    "explicit" takes the level list as given; it must be nondecreasing,
    since that is what guarantees later teeth stay below earlier ones.
    K always equals the number of teeth; for explicit specs it is derived
    from the level list.
    """
    kind: str = "paper"
    K: int = 0
    levels: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if self.kind not in ("paper", "explicit"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "paper":
            if self.levels:
                raise ValueError("paper spec derives its own levels")
            if self.K < 1:
                raise ValueError("K must be >= 1")
        else:
            if not self.levels:
                raise ValueError("explicit spec needs levels")
            if any(m < 0 for m in self.levels):
                raise ValueError("levels must be >= 0")
            if any(b < a for a, b in zip(self.levels, self.levels[1:])):
                raise ValueError("levels must be nondecreasing")
            if self.K and self.K != len(self.levels):
                raise ValueError("K disagrees with the level list")
            object.__setattr__(self, "K", len(self.levels))

    def level_list(self) -> list[int]:
        if self.kind == "paper":
            return [n_k(k) for k in range(1, self.K + 1)]
        return list(self.levels)

    def to_json_dict(self) -> dict:
        doc = {
            "format": TOOTH_SPEC_FORMAT,
            "version": FORMAT_VERSION,
            "kind": self.kind,
            "K": self.K,
        }
        if self.kind == "explicit":
            doc["levels"] = list(self.levels)
        return doc

    @classmethod
    def from_json_dict(cls, data: dict) -> "ToothSequenceSpec":
        if not isinstance(data, dict) or data.get("format") != TOOTH_SPEC_FORMAT:
            raise ParseError(f"not a {TOOTH_SPEC_FORMAT} document")
        if data.get("version") != FORMAT_VERSION:
            raise ParseError(f"unsupported version {data.get('version')!r}")
        try:
            kind = str(data["kind"])
            if kind == "paper":
                return cls("paper", K=parse_index(data["K"]))
            return cls(kind, K=parse_index(data.get("K", 0)),
                       levels=tuple(map(parse_index, data["levels"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed tooth spec: {exc}") from exc


def spec_from_meta(meta: dict) -> ToothSequenceSpec:
    """Rebuild the tooth spec recorded in graph metadata by the builder.

    Metadata that does not name the shark-teeth builder, or that does not
    describe a valid spec, is a `ParseError`; so is a spec the builder
    would refuse for its size, more than MAX_TOOTH_COUNT teeth or a level
    above MAX_LEVEL.
    """
    if not isinstance(meta, dict) or meta.get("builder") != "shark-teeth":
        raise ParseError("graph was not built by the shark-teeth builder")
    try:
        if meta.get("kind") == "paper":
            spec = ToothSequenceSpec("paper", K=parse_index(meta["teeth"]))
        else:
            spec = ToothSequenceSpec(
                "explicit", levels=tuple(map(parse_index, meta["levels"])))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed builder metadata: {exc}") from exc
    if spec.K > MAX_TOOTH_COUNT:
        raise ParseError(f"builder metadata claims {spec.K} teeth, "
                         f"more than {MAX_TOOTH_COUNT}")
    # Levels are nondecreasing, so the last is the largest.
    if spec.levels and spec.levels[-1] > MAX_LEVEL:
        raise ParseError(f"builder metadata claims level "
                         f"{spec.levels[-1]}, above {MAX_LEVEL}")
    return spec


def predicted_counts(levels: Sequence[int]) -> tuple[int, int]:
    """Closed-form (vertices, edges) for a truncation with these levels.

    The base contributes 2^max(levels) + 1 vertices; tooth k adds its
    2^{m_k} peaks.  Edges: base 2^max(levels) plus 2^{m_k + 1} per tooth.
    """
    if not levels:
        raise ValueError("no teeth")
    top = max(levels)
    v = 2 ** top + 1 + sum(2 ** m for m in levels)
    e = 2 ** top + sum(2 ** (m + 1) for m in levels)
    return v, e


def next_amplitude_bound(spec: ToothSequenceSpec) -> Fraction:
    """Upper bound on the peak height of the first omitted tooth.

    Used by truncation guards: every point of the ambient space missing
    from the truncation lies at or below this height.  For the paper
    schedule the omitted level is known exactly; for explicit levels only
    monotonicity is available, so the last built level stands in.
    """
    k_next = spec.K + 1
    if spec.kind == "paper":
        return tooth_height(k_next, n_k(k_next))
    return tooth_height(k_next, spec.levels[-1])


def build_shark_teeth(spec: ToothSequenceSpec,
                      budget: Budget | None = None) -> PLGraph:
    """Exact plane graph of a shark-teeth truncation.

    Raises CrossingAssertionFailure if any produced vertex of positive
    height lies on a tooth it does not belong to; for nondecreasing levels
    this cannot happen, so a failure means the construction is wrong, not
    the input.
    """
    levels = spec.level_list()
    if len(levels) > MAX_TOOTH_COUNT:
        raise SizeLimit(f"{len(levels)} teeth exceeds {MAX_TOOTH_COUNT}")
    if max(levels) > MAX_LEVEL:
        raise SizeLimit(f"level {max(levels)} exceeds {MAX_LEVEL}")

    segments: list[Segment] = []
    segments.append(Segment(Point(Fraction(0), Fraction(0)),
                            Point(Fraction(1), Fraction(0))))
    for k, m in enumerate(levels, start=1):
        pts = tooth_polyline(k, m).breakpoints
        segments.extend(Segment(a, b) for a, b in zip(pts, pts[1:]))

    meta = {
        "builder": "shark-teeth",
        "kind": spec.kind,
        "teeth": len(levels),
        "levels": levels,
    }
    graph = arrange(segments, meta=meta, budget=budget)
    _assert_no_tooth_crossings(graph, levels)

    want_v, want_e = predicted_counts(levels)
    got_v, got_e = len(graph.vertices), len(graph.edges)
    if (got_v, got_e) != (want_v, want_e):
        raise CrossingAssertionFailure(
            f"expected {want_v} vertices / {want_e} edges, "
            f"got {got_v} / {got_e}")
    return graph


def _assert_no_tooth_crossings(graph: PLGraph, levels: Sequence[int]) -> None:
    """Every positive-height vertex lies on exactly one tooth."""
    for v in graph.vertices:
        if v.y == 0:
            continue
        on = sum(1 for k, m in enumerate(levels, start=1)
                 if v.y == phi_n(m, v.x) / k)
        if on != 1:
            raise CrossingAssertionFailure(f"vertex {v} lies on {on} teeth")


class LimitCheck(NamedTuple):
    """Scaled peak counts 2^{n_k} / k^alpha for k = 1..k_max."""
    alpha: int
    rows: tuple[tuple[int, Fraction], ...]
    below_initial: bool


def limit_check(spec: ToothSequenceSpec, alpha: int, k_max: int) -> LimitCheck:
    """Tabulate 2^{n_k} / k^alpha exactly along the paper schedule.

    The peak count 2^{n_k} grows like log(k), so for alpha >= 1 the ratio
    drifts toward zero despite jumping up whenever the level increments.
    below_initial records whether the value at k_max sits strictly below
    the value at k=1, by exact rational comparison.
    """
    if spec.kind != "paper":
        raise ValueError("limit_check applies to the paper schedule")
    if not isinstance(alpha, int) or alpha < 0:
        raise ValueError("alpha must be a nonnegative integer")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    rows = tuple((k, Fraction(2 ** n_k(k), k ** alpha))
                 for k in range(1, k_max + 1))
    return LimitCheck(alpha, rows, rows[-1][1] < rows[0][1])
