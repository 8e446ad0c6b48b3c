"""Cover counts across scales and the dimension quantities they certify.

A `DimensionProfile` is a table of certified brackets lower <= S_eps <=
upper over a strictly decreasing scale schedule, together with the ratios
ln(count) / -ln(eps) whose limsup is the relevant dimension.  The lower
bounds are `lower_separation`'s: on a host with shark-teeth builder
metadata they are guarded, so they hold for the ambient continuum, not
just the finite truncation in memory, and any other host must be proper.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from . import _lazy
from .errors import TooFewScales, VerificationFailure

if TYPE_CHECKING:
    from .geom import PLGraph
    from .ifs import IFSSpec
    from .limits import Budget

# Bound here, not imported, so that a sweep never loads `ifs` and an IFS
# report never loads `cover`; a tracer wraps them in this namespace.
find_k0 = _lazy("ifs", "find_k0")
ifs_dimension_bound = _lazy("ifs", "ifs_dimension_bound")
lower_separation = _lazy("cover", "lower_separation")
upper_cover = _lazy("cover", "upper_cover")

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
    only grow as the scale shrinks.
    """
    rows: tuple[ScaleRow, ...]

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
        # never exceed a fine upper bound: each row is tested against the
        # largest lower bound above it.
        coarse = None
        for fine in self.rows:
            if coarse is not None and coarse.lower > fine.upper:
                raise VerificationFailure(
                    f"lower bound {coarse.lower} at {coarse.epsilon} "
                    f"exceeds upper bound {fine.upper} at {fine.epsilon}")
            if coarse is None or fine.lower > coarse.lower:
                coarse = fine


def sweep(graph: PLGraph, epsilons: Iterable[Fraction],
          budget: Budget | None = None) -> DimensionProfile:
    """Certified bracket at each scale of a strictly decreasing schedule.

    The schedule may be any iterable, a generator included; each scale is
    drawn only when the one before it is done.  `lower_separation` checks
    the host at each scale, so a builder host is rebuilt once per scale.
    Guarded rows may report lower = 0 at coarse scales where no point
    clears the height threshold; that is the honest guarded answer, and
    `scale_ratio` maps it to 0.0.
    """
    rows = []
    for eps in epsilons:
        low = lower_separation(graph, eps, budget=budget)
        up = upper_cover(graph, eps, budget=budget)
        rows.append(make_row(eps, len(low.points), up.count))
    return DimensionProfile(tuple(rows))


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


def _ascii_int(text: str) -> int:
    # `int` also takes "1_0", " 1", "+1" and non-ASCII digits.
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a whole number: {text!r}")
    return int(text)


def read_profile_csv(stream: io.TextIOBase) -> DimensionProfile:
    """Read what `write_profile_csv` writes.  The ratios are recomputed
    from the counts, and a row whose written ratios are not the ones the
    writer would write for them is refused, as is any other malformed
    row."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None or tuple(header) != CSV_HEADER:
        raise VerificationFailure("unrecognized profile CSV header")
    rows = []
    for rec in reader:
        if not rec:
            continue
        try:
            num, den, lower, upper, rl, ru = rec
            row = make_row(Fraction(_ascii_int(num), _ascii_int(den)),
                           _ascii_int(lower), _ascii_int(upper))
            if [rl, ru] != [repr(row.ratio_lower), repr(row.ratio_upper)]:
                raise ValueError(
                    f"ratios {rl}, {ru} are not those of the counts, "
                    f"{row.ratio_lower!r}, {row.ratio_upper!r}")
        except (ValueError, ZeroDivisionError) as exc:
            raise VerificationFailure(
                f"malformed profile CSV row {reader.line_num} {rec}: "
                f"{exc}") from exc
        rows.append(row)
    return DimensionProfile(tuple(rows))


def ifs_bound_report(spec: IFSSpec, delta: float = 0.1,
                     diameter: float | None = None,
                     budget: Budget | None = None) -> str:
    """Human-readable account of the IFS dimension bound and its scale.

    Shows the bound ln(n)/-ln(ratio), the first word length k0 whose cover
    ratio sits within delta of it, the scale eps0 this happens at, and the
    rows `find_k0` checked from eps0 on, each ending in "ok".  Counts are
    reported as powers because they overflow anything sensible to print.
    """
    n = len(spec.maps)
    head = (f"ifs {spec.name or '(unnamed)'}: n={n} ratio={spec.ratio():.6g} "
            f"bound={ifs_dimension_bound(spec):.4f}")
    if n == 1:
        return head + "\n  single map: every scale is covered by one piece\n"
    rows = find_k0(spec, delta, diameter=diameter, budget=budget)
    k0, eps0, _ = rows[0]
    lines = [head,
             f"target slack delta={delta:.4f}: k0={k0} eps0={eps0:.6g}"]
    lines += [f"  k={k} eps={eps:.6g} count=n^{k} ratio={ratio:.4f} ok"
              for k, eps, ratio in rows]
    return "\n".join(lines) + "\n"
