"""Cover counts across scales and the dimension quantities they certify.

A `DimensionProfile` is a table of certified brackets lower <= S_eps <=
upper over a strictly decreasing scale schedule, together with the ratios
ln(count) / -ln(eps) whose limsup is the relevant dimension.  A host with
shark-teeth builder metadata gets its lower bounds with the guard of
`truncation_guard`, so they hold for the ambient continuum, not just the
finite truncation in memory; any other host gets unguarded bounds.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cover import lower_separation, truncation_guard, upper_cover
from .errors import TooFewScales, VerificationFailure
from .geom import PLGraph
from .ifs import K0_WINDOW, IFSSpec, find_k0, ifs_dimension_bound
from .limits import Budget

CSV_HEADER = ("epsilon_num", "epsilon_den", "lower", "upper",
              "ratio_lower", "ratio_upper")


def scale_ratio(count: int, eps: Fraction) -> float:
    """ln(count) / -ln(eps); zero when the count carries no information."""
    if count <= 1:
        return 0.0
    denom = -math.log(float(eps))
    if denom <= 0:
        return 0.0
    return math.log(count) / denom


@dataclass(frozen=True)
class ScaleRow:
    epsilon: Fraction
    lower: int
    upper: int
    ratio_lower: float
    ratio_upper: float


def make_row(eps: Fraction, lower: int, upper: int) -> ScaleRow:
    return ScaleRow(eps, lower, upper,
                    scale_ratio(lower, eps), scale_ratio(upper, eps))


@dataclass(frozen=True)
class DimensionProfile:
    """Scale table with the bracket sanity conditions enforced.

    Scales strictly decrease; each row has lower <= upper; and any coarser
    lower bound stays below any finer upper bound, since cover numbers
    only grow as the scale shrinks.  `source` labels where the rows came
    from; `truncation` records the tooth count when the lower bounds were
    guarded, making them statements about the ambient continuum.
    """
    rows: tuple[ScaleRow, ...]
    source: str = ""
    truncation: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        for a, b in zip(self.rows, self.rows[1:]):
            if not b.epsilon < a.epsilon:
                raise VerificationFailure(
                    f"scales must strictly decrease: {a.epsilon} then "
                    f"{b.epsilon}")
        for r in self.rows:
            if r.epsilon <= 0:
                raise VerificationFailure("scales must be positive")
            if r.lower > r.upper:
                raise VerificationFailure(
                    f"bracket inverted at {r.epsilon}: "
                    f"{r.lower} > {r.upper}")
        # Coarser scales need no more pieces, so a coarse lower bound can
        # never exceed a fine upper bound.
        for i, coarse in enumerate(self.rows):
            for fine in self.rows[i + 1:]:
                if coarse.lower > fine.upper:
                    raise VerificationFailure(
                        f"lower bound {coarse.lower} at {coarse.epsilon} "
                        f"exceeds upper bound {fine.upper} at "
                        f"{fine.epsilon}")

    def __len__(self) -> int:
        return len(self.rows)


def sweep(graph: PLGraph, epsilons: Sequence[Fraction],
          budget: Budget | None = None) -> DimensionProfile:
    """Certified bracket at each scale of a strictly decreasing schedule.

    The lower bound at each scale is guarded as `truncation_guard`
    decides.  Guarded rows may report lower = 0 at coarse scales where no
    point clears the height threshold; that is the honest guarded answer,
    and `scale_ratio` maps it to 0.0.
    """
    rows = []
    truncation = None
    for eps in epsilons:
        g = truncation_guard(graph, eps)
        if g is not None:
            truncation = g.k
        low = lower_separation(graph, eps, guard=g, budget=budget)
        up = upper_cover(graph, eps, budget=budget)
        rows.append(make_row(eps, len(low.points), len(up.elements)))
    return DimensionProfile(tuple(rows), source=graph.graph_id(),
                            truncation=truncation)


def sdim_estimate(profile: DimensionProfile) -> tuple[float, float]:
    """Certified ratio bracket over the finest third of the schedule.

    Returns (low, high): the best lower-bound ratio and the best
    upper-bound ratio among the finest scales.  The dimension is a limit
    superior over eps -> 0, so only the finest rows carry signal; this is
    a desk-scale proxy for it, never a converged value.
    """
    n = len(profile.rows)
    if n < 3:
        raise TooFewScales(f"need at least 3 scales, have {n}")
    tail = profile.rows[n - (n + 2) // 3:]
    return (max(r.ratio_lower for r in tail),
            max(r.ratio_upper for r in tail))


def write_profile_csv(profile: DimensionProfile, stream: io.TextIOBase) -> None:
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for r in profile.rows:
        # repr round-trips floats exactly; fixed-width would lose bits.
        w.writerow([r.epsilon.numerator, r.epsilon.denominator,
                    r.lower, r.upper,
                    repr(r.ratio_lower), repr(r.ratio_upper)])


def read_profile_csv(stream: io.TextIOBase) -> DimensionProfile:
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None or tuple(header) != CSV_HEADER:
        raise VerificationFailure("unrecognized profile CSV header")
    rows = []
    for rec in reader:
        if not rec:
            continue
        num, den, lower, upper, rl, ru = rec
        rows.append(ScaleRow(Fraction(int(num), int(den)), int(lower),
                             int(upper), float(rl), float(ru)))
    return DimensionProfile(tuple(rows))


def ifs_bound_report(spec: IFSSpec, delta: float = 0.1,
                     diameter: float | None = None,
                     budget: Budget | None = None) -> str:
    """Human-readable account of the IFS dimension bound and its scale.

    Shows the bound ln(n)/-ln(ratio), the first word length k0 whose cover
    ratio sits within delta of it, the scale eps0 this happens at, and a
    pass/fail line for eps0 and each of the `K0_WINDOW` finer scales.  Counts are reported as
    powers because they overflow anything sensible to print.
    """
    budget = budget or Budget()
    n = len(spec.maps)
    lam = spec.ratio()
    bound = ifs_dimension_bound(spec)
    head = (f"ifs {spec.name or '(unnamed)'}: n={n} ratio={lam:.6g} "
            f"bound={bound:.4f}")
    if n == 1:
        return (head +
                "\n  single map: every scale is covered by one piece\n")
    k0, eps0 = find_k0(spec, delta, diameter=diameter, budget=budget)
    lines = [
        head,
        f"target slack delta={delta:.4f}: k0={k0} eps0={eps0:.6g}",
    ]
    d = eps0 / lam ** (k0 - 1)
    for k in range(k0, k0 + K0_WINDOW + 1):
        eps_k = lam ** (k - 1) * d
        ratio = k * math.log(n) / -math.log(eps_k)
        verdict = "ok" if ratio < bound + delta else "FAIL"
        lines.append(f"  k={k} eps={eps_k:.6g} count=n^{k} "
                     f"ratio={ratio:.4f} {verdict}")
    return "\n".join(lines) + "\n"
