"""Scale profiles: sweeps, invariants, CSV, and the ratio proxy."""

from __future__ import annotations

import io
import math
import time
from fractions import Fraction

import pytest
from reference import FIXTURES

from sdimlab import (DimensionProfile, ScaleRow, TooFewScales,
                     VerificationFailure, ifs_bound_report, make_row,
                     read_profile_csv, scale_ratio, sdim_estimate, sweep,
                     write_profile_csv)
from sdimlab.dimension import CSV_HEADER

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# ratios


def test_scale_ratio_formula():
    assert scale_ratio(9, Fraction(1, 8)) \
        == pytest.approx(math.log(9) / math.log(8), rel=1e-12)


def test_scale_ratio_degenerate_inputs_give_zero():
    assert scale_ratio(0, Fraction(1, 8)) == 0.0
    assert scale_ratio(1, Fraction(1, 8)) == 0.0
    assert scale_ratio(5, Fraction(1)) == 0.0
    assert scale_ratio(5, Fraction(3, 2)) == 0.0


def test_make_row_fills_both_ratios():
    r = make_row(Fraction(1, 4), 5, 7)
    assert r.ratio_lower == scale_ratio(5, Fraction(1, 4))
    assert r.ratio_upper == scale_ratio(7, Fraction(1, 4))


# ---------------------------------------------------------------------------
# profile invariants


def rows_for(*triples):
    return tuple(make_row(e, lo, up) for e, lo, up in triples)


def test_profile_accepts_consistent_rows():
    DimensionProfile(rows_for((HALF, 3, 3), (Fraction(1, 4), 5, 5)))


def test_profile_rejects_nondecreasing_scales():
    with pytest.raises(VerificationFailure):
        DimensionProfile(rows_for((Fraction(1, 4), 3, 3), (HALF, 5, 5)))
    with pytest.raises(VerificationFailure):
        DimensionProfile(rows_for((HALF, 3, 3), (HALF, 5, 5)))


def test_profile_rejects_inverted_bracket():
    with pytest.raises(VerificationFailure):
        DimensionProfile(rows_for((HALF, 7, 3)))


def test_profile_rejects_cross_scale_violation():
    # A coarse lower bound above a fine upper bound is impossible.
    with pytest.raises(VerificationFailure):
        DimensionProfile(rows_for((HALF, 6, 8), (Fraction(1, 4), 5, 5)))


def _long_rows(n):
    """n consistent rows at eps = 1/(j+2), lower j and upper j + 1."""
    return [make_row(Fraction(1, j + 2), j, j + 1) for j in range(n)]


def test_long_profile_builds_in_linear_time():
    rows = _long_rows(50_000)
    start = time.perf_counter()
    DimensionProfile(rows)
    assert time.perf_counter() - start < 1


def test_cross_scale_violation_in_the_last_row_is_refused():
    # The last row's upper bound, 997, is below the lower bound 998 of the
    # row before it; the message names both rows.
    rows = _long_rows(1000)
    rows[-1] = make_row(Fraction(1, 1001), 990, 997)
    with pytest.raises(VerificationFailure,
                       match=r"lower bound 998 at 1/1000 exceeds upper bound "
                             r"997 at 1/1001"):
        DimensionProfile(rows)


def test_profile_rejects_nonpositive_scale():
    with pytest.raises(VerificationFailure):
        DimensionProfile(rows_for((Fraction(0), 1, 1)))


# ---------------------------------------------------------------------------
# sweeps


@pytest.fixture(scope="module")
def seg_profile(request):
    seg = request.getfixturevalue("seg_graph")
    return sweep(seg, [Fraction(1, 2 ** j) for j in range(1, 4)])


def test_interval_sweep_frozen_counts(seg_profile):
    assert [(r.lower, r.upper) for r in seg_profile.rows] \
        == [(3, 3), (5, 5), (9, 9)]


def test_interval_sweep_ratios(seg_profile):
    assert seg_profile.rows[0].ratio_upper \
        == pytest.approx(math.log2(3), rel=1e-12)
    assert seg_profile.rows[2].ratio_upper \
        == pytest.approx(math.log(9) / math.log(8), rel=1e-12)


def test_sweep_rebuilds_the_host_once(w6, monkeypatch):
    # Each scale takes the one guard at its own threshold; the profile is
    # the one a fresh `truncation_guard` per scale gives.
    import sdimlab.continuum as continuum
    from sdimlab.cover import lower_separation, truncation_guard, upper_cover
    scales = [Fraction(1, 2 ** j) for j in range(2, 7)]
    want = [(len(lower_separation(w6, eps,
                                  guard=truncation_guard(w6, eps))),
             len(upper_cover(w6, eps))) for eps in scales]
    builds = []
    build = continuum.build_shark_teeth

    def counted(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)
    monkeypatch.setattr(continuum, "build_shark_teeth", counted)
    prof = sweep(w6, scales)
    assert [(r.lower, r.upper) for r in prof.rows] == want
    assert want[-1][0] > 0
    assert len(builds) == 1


def test_sdim_estimate_interval(seg_profile):
    low, high = sdim_estimate(seg_profile)
    assert low == high == pytest.approx(math.log(9) / math.log(8), rel=1e-12)


def test_sdim_estimate_needs_three_scales():
    with pytest.raises(TooFewScales):
        sdim_estimate(DimensionProfile(rows_for((HALF, 3, 3))))


def test_sdim_estimate_uses_only_the_finest_third():
    rows = rows_for(
        (HALF, 40, 40),            # coarse: enormous ratio, must be ignored
        (Fraction(1, 4), 40, 40),
        (Fraction(1, 8), 40, 40),
        (Fraction(1, 16), 41, 41),
        (Fraction(1, 32), 42, 42),
        (Fraction(1, 64), 43, 43),
    )
    low, high = sdim_estimate(DimensionProfile(rows))
    # Tail of 6 rows is the last 2; the 1/32 row carries the larger ratio.
    assert low == high == pytest.approx(math.log(42) / math.log(32),
                                        rel=1e-12)
    assert low < scale_ratio(40, HALF)


# ---------------------------------------------------------------------------
# CSV


def test_profile_csv_round_trip_is_exact(seg_profile):
    buf = io.StringIO()
    write_profile_csv(seg_profile, buf)
    back = read_profile_csv(io.StringIO(buf.getvalue()))
    assert back.rows == seg_profile.rows


def test_w6_profile_csv_round_trip_is_exact(w6):
    # The reader recomputes the ratios; they must be the ones written.
    prof = sweep(w6, [Fraction(1, 2 ** j) for j in range(2, 7)])
    buf = io.StringIO()
    write_profile_csv(prof, buf)
    assert read_profile_csv(io.StringIO(buf.getvalue())).rows == prof.rows


def test_profile_csv_header():
    buf = io.StringIO()
    write_profile_csv(DimensionProfile(rows_for((HALF, 3, 3))), buf)
    assert buf.getvalue().splitlines()[0] \
        == "epsilon_num,epsilon_den,lower,upper,ratio_lower,ratio_upper"


def test_profile_csv_rejects_foreign_header():
    with pytest.raises(VerificationFailure):
        read_profile_csv(io.StringIO("a,b,c\n1,2,3\n"))


@pytest.mark.parametrize("row", ["1,0,1,2,0.0,0.0", "1,2,1",
                                 "x,2,1,2,0.0,0.0", "1,2,1,2,a,0.0",
                                 # Rows no writer makes, each valid
                                 # but for the one defect.
                                 "1,4,1,2,5.0,0.5", "1,4,1,2,nan,inf",
                                 "1_0,40,1,2,0.0,0.5",
                                 "\u0661,4,1,2,0.0,0.5"])
def test_profile_csv_refuses_a_malformed_row(row):
    text = f"{','.join(CSV_HEADER)}\n1,2,1,1,0.0,0.0\n{row}\n"
    with pytest.raises(VerificationFailure, match="row 3"):
        read_profile_csv(io.StringIO(text))


# ---------------------------------------------------------------------------
# IFS report


def test_ifs_report_sierpinski_tokens():
    report = ifs_bound_report(FIXTURES["sierpinski"]())
    assert "bound=1.5850" in report
    assert "k0=17" in report
    assert "FAIL" not in report


def test_ifs_report_single_map():
    from sdimlab import AffineMap2, IFSSpec
    solo = IFSSpec((AffineMap2(0.5, 0, 0, 0.5, 0, 0),), "solo")
    report = ifs_bound_report(solo)
    assert "bound=0.0000" in report
    assert "single map" in report


def test_ifs_report_all_scales_pass():
    for name in FIXTURES:
        report = ifs_bound_report(FIXTURES[name]())
        rows = [ln for ln in report.splitlines() if ln.startswith("  k=")]
        assert rows, report
        assert all(ln.endswith(" ok") for ln in rows)
