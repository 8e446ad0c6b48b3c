"""Mutants of the separation and properness code: small edits that some
test must catch.

Each row names a mutant, the file under `src/sdimlab/` that it edits, the
exact text it replaces, the replacement, and the ids of tests that fail
on it.  To apply one, replace its old text in a copy of `src/` and run
its tests against that copy.  `test_package` checks that every old text
still occurs exactly once in `src/`, so a refactor that moves checked
code has to carry its mutants along.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    kills: tuple[str, ...]


_COVER = "tests/test_cover.py::"
_CLI = "tests/test_cli.py::"
_ACCEPT = "tests/test_acceptance.py::"
_GEOM = "tests/test_geom.py::"
_BUILD = "tests/test_continuum.py::"
_OFF_GRID = _COVER + "test_upper_certificates_off_the_dyadic_grid_match_golden_"
_MERGES = _GEOM + "test_arrange_merges_collinear_overlap"

MUTANTS = (
    Mutant("scan-distance-at-half-eps", "cover.py",
           "dn * ed >= en * dd or cuts(new, old)",
           "4 * dn * ed >= en * dd or cuts(new, old)",
           (_COVER + "test_every_close_pair_is_separated_by_a_clip[w6]",
            _COVER + "test_s_bounds_bracket_small_hosts",
            _COVER + "test_same_tooth_flanks_are_not_separated",
            _COVER + "test_check_separation_rejects_missing_witness",
            _COVER + "test_check_separation_rejects_false_disconnection",
            _COVER + "test_oracle_brackets_library_bounds",
            _ACCEPT + "test_criterion_2_brute_force_brackets",
            _ACCEPT + "test_criterion_3_host_mutations")),
    Mutant("clip-separates-at-half-eps", "cover.py",
           "return dn * self.eps2.denominator > self.eps2.numerator * dd",
           "return 4 * dn * self.eps2.denominator > self.eps2.numerator * dd",
           (_COVER + "test_s_bounds_bracket_small_hosts",
            _COVER + "test_clip_separates_a_point_outside_the_ball",
            _COVER + "test_check_separation_tries_the_new_points_clip",
            _COVER + "test_oracle_brackets_library_bounds",
            _ACCEPT + "test_criterion_2_brute_force_brackets",
            _ACCEPT + "test_criterion_3_host_mutations")),
    Mutant("scan-without-the-new-points-clip", "cover.py",
           "or cuts(new, old) or cuts(old, new)",
           "or cuts(old, new)",
           (_COVER + "test_check_separation_tries_the_new_points_clip",)),
    Mutant("scan-without-the-kept-points-clip", "cover.py",
           "or cuts(new, old) or cuts(old, new)",
           "or cuts(new, old)",
           (_COVER + "test_every_close_pair_is_separated_by_a_clip[m2]",
            _COVER + "test_every_close_pair_is_separated_by_a_clip[m3]",
            _COVER + "test_every_close_pair_is_separated_by_a_clip[w6]",
            _COVER + "test_s_bounds_bracket_small_hosts",
            _COVER + "test_greedy_lower_on_m2_at_half_is_maximal_and_exact",
            _COVER + "test_certificates_match_golden_digests[m3-1_16]")),
    Mutant("scan-kept-points-clip-always-cuts", "cover.py",
           "or cuts(new, old) or cuts(old, new)",
           "or cuts(new, old) or True",
           (_COVER + "test_every_close_pair_is_separated_by_a_clip[w6]",
            _COVER + "test_s_bounds_bracket_small_hosts",
            _COVER + "test_same_tooth_flanks_are_not_separated",
            _COVER + "test_check_separation_rejects_missing_witness",
            _COVER + "test_check_separation_rejects_false_disconnection",
            _COVER + "test_oracle_brackets_library_bounds",
            _ACCEPT + "test_criterion_2_brute_force_brackets",
            _ACCEPT + "test_criterion_3_certificate_fuzzing",
            _ACCEPT + "test_criterion_3_host_mutations")),
    Mutant("check-separation-without-its-pair-charge", "cover.py",
           "    n = len(pts)\n"
           "    work.budget.check_pairs(work.total + n * (n - 1) // 2)\n",
           "    n = len(pts)\n",
           (_COVER + "test_check_separation_charges_its_pair_tests_before_"
            "the_first",)),
    Mutant("lower-separation-without-its-pair-charge", "cover.py",
           "    if guard is None:\n"
           "        work.budget.check_pairs(work.total + n * (n - 1) // 2)\n",
           "    if guard is None:\n"
           "        pass\n",
           (_COVER + "test_default_pool_is_charged_before_it_is_made",
            _CLI + "test_cover_refuses_an_over_budget_lower_pool_before_its_"
            "pair_tests")),
    Mutant("lower-separation-guard-without-its-pair-charge", "cover.py",
           "                n = len(cleared)\n"
           "                work.budget.check_pairs(work.total + n * (n - 1) // 2)\n",
           "                n = len(cleared)\n",
           (_COVER + "test_default_pool_is_charged_before_it_is_made",)),
    Mutant("point-parameter-unchecked", "cover.py",
           "if not 0 <= t <= 1:",
           "if False:",
           (_COVER + "test_separation_reader_refuses_indexes_that_are_not_"
            "integers[point-t-past-1]",
            _CLI + "test_verify_refuses_a_point_that_is_not_an_edge_and_a_"
            "parameter[t-past-1]")),
    Mutant("point-edge-unchecked", "cover.py",
           "if not (0 <= e < ne):",
           "if False:",
           (_COVER + "test_check_separation_refuses_an_edge_off_the_host[-1]",
            _COVER + "test_check_separation_refuses_an_edge_off_the_host[1]")),
    Mutant("cuts-endpoint-rule-with-or", "geom.py",
           "if not (tn in (0, td) and un in (0, ud)):",
           "if not (tn in (0, td) or un in (0, ud)):",
           (_GEOM + "test_validate_proper_catches_an_overlap_and_a_t_junction"
            "[t-junction-ValueError-cross improperly]",
            _COVER + "test_check_separation_refuses_an_improper_host"
            "[t-junction]",
            _CLI + "test_cover_refuses_a_lower_bound_on_an_improper_host"
            "[t-junction]",
            *(_BUILD + f"test_builder_matches_arrangement_on_paper_schedule"
              f"[{k}]" for k in (3, 14, 15, 16, 63)),
            *(_OFF_GRID + f"digests[{host}]" for host in (
                "kite_graph-1_3", "kite_graph-5_17", "fork_graph-1_3",
                "fork_graph-4_11")))),
    Mutant("cuts-collinear-test-not-strict", "geom.py",
           "[p for p in spans[b] if lo_a < p < hi_a]",
           "[p for p in spans[b] if lo_a <= p <= hi_a]",
           (_GEOM + "test_arrange_splits_a_crossing",
            *(_MERGES + f"[{case}]"
              for case in ("touching", "overlap", "nested", "chain")),
            _BUILD + "test_teeth_meet_only_on_the_base",
            _BUILD + "test_truncations_validate_proper",
            _COVER + "test_s_bounds_bracket_small_hosts",
            _COVER + "test_oracle_brackets_library_bounds",
            _COVER + "test_guard_requires_builder_metadata",
            _COVER + "test_guard_against_host_without_usable_metadata_"
            "fails[meta0]",
            _COVER + "test_guarded_certificate_on_a_moved_peak_fails",
            _COVER + "test_check_separation_charges_the_properness_check",
            _COVER + "test_truncation_guard_charges_the_properness_check",
            _ACCEPT + "test_criterion_2_brute_force_brackets")),
    Mutant("cuts-without-the-ends-of-b-inside-a", "geom.py",
           "points = ([p for p in spans[b] if lo_a < p < hi_a]\n"
           "                          + [p",
           "points = ([p",
           (_MERGES + "[overlap]", _MERGES + "[nested]",
            _MERGES + "[chain]")),
    Mutant("cuts-without-the-ends-of-a-inside-b", "geom.py",
           "\n                          + [p for p in spans[a] if lo_b < p < hi_b])",
           ")",
           (_MERGES + "[overlap]", _MERGES + "[chain]")),
    Mutant("arrange-cuts-only-the-first-segment", "geom.py",
           "        cuts[b].update(points)\n",
           "",
           (_MERGES + "[overlap]", _MERGES + "[chain]",
            _GEOM + "test_arrange_is_deterministic",
            *(_OFF_GRID + f"digests[{host}]" for host in (
                "cross_graph-1_3", "cross_graph-2_7", "kite_graph-1_3",
                "kite_graph-5_17", "fork_graph-1_3", "fork_graph-4_11")))),
)
