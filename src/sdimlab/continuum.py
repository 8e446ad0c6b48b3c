"""Shark-teeth continua: a base interval with tent-shaped teeth.

The space is [0,1] x {0} together with teeth t -> (1/k) * phi_{n_k}(t) for
k = 1..K, where phi_n(t) = dist(t, 2^-n Z) and the level sequence n_k is
nondecreasing.  Every tooth is a zigzag polyline with 2^{n_k} peaks of
height 1/(k * 2^{n_k + 1}); teeth with distinct amplitudes meet only on the
base line, so the union is a plane graph without crossings.  Each finite
truncation is built exactly here; the ambient continuum is their closure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import ParseError, SizeLimit, expect_format
# `arrange` is not called here; perfbench/tracing.py wraps this name.
from .geom import PLGraph, Point, arrange, parse_index  # noqa: F401
from .limits import Budget

TOOTH_SPEC_FORMAT = "sdimlab/tooth-spec"
FORMAT_VERSION = 1

MAX_TOOTH_COUNT = 4096
MAX_LEVEL = 20


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
    return m


def tooth_height(k: int, level: int) -> Fraction:
    """Peak height of tooth k at the given level."""
    return Fraction(1, k * 2 ** (level + 1))


def tooth_polyline(k: int, level: int) -> tuple[Point, ...]:
    """Tooth k at the given level as its breakpoint chain from (0,0) to
    (1,0), alternating base and peak points.

    Breakpoints sit at t = j / 2^(level+1); even j on the base line, odd j
    at the peak height.
    """
    steps = 2 ** (level + 1)
    h = tooth_height(k, level)
    return tuple(Point(Fraction(j, steps), h if j % 2 else Fraction(0))
                 for j in range(steps + 1))


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
        expect_format(data, TOOTH_SPEC_FORMAT, FORMAT_VERSION)
        try:
            kind = str(data["kind"])
            if kind == "paper":
                return cls("paper", K=parse_index(data["K"]))
            return cls(kind, K=parse_index(data.get("K", 0)),
                       levels=tuple(map(parse_index, data["levels"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed tooth spec: {exc}") from exc


def spec_from_meta(meta: dict) -> ToothSequenceSpec:
    """The tooth spec that the builder recorded in graph metadata.

    A parser and nothing more: metadata that does not describe a valid
    spec is a `ParseError`.  Whether the builder accepts the spec's size,
    and whether it makes the graph the metadata came with, is for the
    caller to find out by rebuilding, as `cover.truncation_guard` does.
    """
    try:
        if meta.get("kind") == "paper":
            return ToothSequenceSpec("paper", K=parse_index(meta["teeth"]))
        return ToothSequenceSpec(
            "explicit", levels=tuple(map(parse_index, meta["levels"])))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed builder metadata: {exc}") from exc


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
    """Exact plane graph of a shark-teeth truncation, written out directly.

    The graph is a union of chains: the base line subdivided at the
    dyadics i / 2^max(levels), and each tooth's breakpoints.  Tooth k has
    slope +-1/k and, as levels are nondecreasing, lies below every earlier
    tooth except on the base, so two chains meet only at shared base
    dyadics and no intersection is left to resolve.  Vertices are the
    chains' points in lexicographic order and edges their consecutive
    pairs, sorted: the graph `arrange` makes of the same segments, in the
    same order.  The edge budget is charged with `predicted_counts` before
    any point is made.
    """
    if spec.K > MAX_TOOTH_COUNT:
        raise SizeLimit(f"{spec.K} teeth exceeds {MAX_TOOTH_COUNT}")
    levels = spec.level_list()
    top = max(levels)
    if top > MAX_LEVEL:
        raise SizeLimit(f"level {top} exceeds {MAX_LEVEL}")
    (budget or Budget()).check_edges(predicted_counts(levels)[1])

    base = 2 ** top
    chains = [[Point(Fraction(i, base), Fraction(0)) for i in range(base + 1)]]
    chains.extend(tooth_polyline(k, m) for k, m in enumerate(levels, start=1))
    vertices = sorted({p for chain in chains for p in chain})
    rank = {p: i for i, p in enumerate(vertices)}
    # Chains run left to right, so each pair is already (lower, higher).
    edges = []
    for chain in chains:
        ids = [rank[p] for p in chain]
        edges.extend(zip(ids, ids[1:]))
    meta = {
        "builder": "shark-teeth",
        "kind": spec.kind,
        "teeth": len(levels),
        "levels": levels,
    }
    return PLGraph(vertices, sorted(edges), meta)

