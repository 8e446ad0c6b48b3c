"""Mutants of the checkers, the host check, the properness code, the
attractor hull, the IFS scale table and the cloud renderer: small edits
that some test must catch.

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
_RENDER = "tests/test_render.py::"
_MERGES = _GEOM + "test_arrange_merges_collinear_overlap"
_CONNECTED = _COVER + "test_subset_connectivity_matches_pairwise_reference"
_WRITER = _COVER + ("test_cover_writer_refuses_fragments_that_do_not_cut_"
                     "each_edge")
_LAYOUT = _COVER + "test_cover_reader_refuses_rows_that_break_the_layout"
_SHEARED = _RENDER + ("test_cloud_draws_every_point_of_its_spec_within_one_"
                      "quantum[sheared-")
_IFS = "tests/test_ifs.py::"
_NUMPY = _IFS + "test_cloud_is_bit_identical_to_numpy_reference"
_OVERFLOW = _CLI + "test_non_finite_or_overflowing_shift_exits_two"
_WIDE = _CLI + "test_ifs_wide_cloud_has_no_scale_in_floats"

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
    # The guarded refusal names a total that counts the pool's size.
    Mutant("candidate-pool-without-its-size-charge", "cover.py",
           "    work.add(n)\n",
           "",
           (_COVER + "test_default_pool_is_charged_before_it_is_made",)),
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
    # Every malformed metadata is still refused under the default budget,
    # K = 4095 only after a full rebuild; the test counts the teeth made.
    Mutant("host-rebuild-under-the-default-budget", "cover.py",
           "build_shark_teeth(spec, Budget(max_edges=len(graph.edges)))",
           "build_shark_teeth(spec, Budget())",
           (_COVER + "test_guard_rebuilds_no_larger_than_the_host",)),
    Mutant("host-without-its-graph-id-comparison", "cover.py",
           "    if rebuilt.graph_id() != graph.graph_id():\n",
           "    if False:\n",
           (_COVER + "test_guard_refuses_a_host_its_builder_did_not_make",
            _COVER + "test_guarded_certificate_on_a_moved_peak_fails",
            _CLI + "test_cover_refuses_a_host_its_builder_did_not_make"
            "[moved-peak]",
            _CLI + "test_sweep_refuses_a_host_its_builder_did_not_make"
            "[moved-peak]",
            _CLI + "test_verify_refuses_a_guard_on_a_host_its_builder_did_"
            "not_make[moved-peak]",
            _CLI + "test_verify_refuses_an_unguarded_certificate_on_a_"
            "mismatched_host[moved-peak]")),
    Mutant("guard-clears-strictly-above-its-threshold", "cover.py",
           "return raw[2] * thr.denominator >= thr.numerator * raw[3]",
           "return raw[2] * thr.denominator > thr.numerator * raw[3]",
           (_COVER + "test_guarded_lower_keeps_only_tall_points",
            _COVER + "test_guard_overstated_threshold_fails",
            _COVER + "test_certificates_match_golden_digests[m3-1_16]")),
    Mutant("amplitude-bound-of-the-last-built-tooth", "continuum.py",
           "    k_next = spec.K + 1\n",
           "    k_next = spec.K\n",
           (_BUILD + "test_next_amplitude_bound_paper",
            _BUILD + "test_next_amplitude_bound_explicit_uses_last_level",
            _COVER + "test_guard_frozen_values",
            _COVER + "test_guarded_lower_keeps_only_tall_points",
            *(_COVER + f"test_certificates_match_golden_digests[{case}]"
              for case in ("m3-1_16", "w6-1_64", "w6-33_2048", "m15-1_16")))),
    Mutant("validate-proper-passes-a-collinear-pair", "geom.py",
           '                raise ValueError(f"edges {a} and {b} overlap")\n',
           "                return\n",
           (_GEOM + "test_validate_proper_catches_an_overlap_and_a_t_junction"
            "[overlap-ValueError-overlap]",
            _GEOM + "test_validate_proper_refuses_exactly_the_reference_"
            "violation",
            _COVER + "test_check_separation_refuses_an_improper_host"
            "[overlap]",
            _CLI + "test_cover_refuses_a_lower_bound_on_an_improper_host"
            "[overlap]")),
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
    Mutant("check-cover-without-its-connectivity-test", "cover.py",
           "for j in at]).count() != 1:",
           "for j in at]).count() != 1 and False:",
           (_COVER + "test_subset_connectivity_on_one_edge",
            _CONNECTED + "[cross_graph]", _CONNECTED + "[m2]",
            _COVER + "test_check_cover_rejects_disconnected_element",
            _COVER + "test_check_cover_refuses_a_disconnected_element")),
    Mutant("check-cover-without-its-row-count", "cover.py",
           "    if len(cert.pieces) != len(graph.edges):\n",
           "    if False:\n",
           (_COVER + "test_check_cover_rejects_gap",
            _CLI + "test_verify_tampered_certificate_exits_one",
            _CLI + "test_verify_refuses_rows_that_do_not_match_the_edges"
            "[fewer]",
            _CLI + "test_verify_refuses_rows_that_do_not_match_the_edges"
            "[more]",
            _ACCEPT + "test_criterion_3_certificate_fuzzing",
            _ACCEPT + "test_criterion_3_host_mutations")),
    Mutant("check-cover-without-its-run-merge", "cover.py",
           "            if i and row[i - 2] == k:\n",
           "            if False:\n",
           (_COVER + "test_subset_connectivity_on_one_edge",
            _CONNECTED + "[lshape_graph]", _CONNECTED + "[cross_graph]",
            _CONNECTED + "[m2]",
            _COVER + "test_cover_document_numbers_elements_by_first_"
            "appearance")),
    Mutant("cover-rows-without-their-id-check", "cover.py",
           "                elif not 0 <= k < count:\n",
           "                elif False:\n",
           (_COVER + "test_check_cover_rejects_empty_element",
            _COVER + "test_cover_document_numbers_elements_by_first_"
            "appearance",
            _WRITER + "[empty-element]", _WRITER + "[negative-edge]",
            _LAYOUT + "[id-past-the-count]", _LAYOUT + "[first-id-not-0]",
            _LAYOUT + "[negative-id]",
            _CLI + "test_verify_refuses_an_element_id_past_the_count",
            _ACCEPT + "test_criterion_3_certificate_fuzzing")),
    Mutant("cover-rows-without-their-cut-check", "cover.py",
           "                if not lo < c < 1:\n",
           "                if False:\n",
           (_COVER + "test_fragment_bounds_are_enforced",
            _WRITER + "[point]", _WRITER + "[overlap]", _WRITER + "[short]",
            _LAYOUT + "[repeated-cut]", _LAYOUT + "[falling-cut]",
            _LAYOUT + "[cut-at-0]", _LAYOUT + "[cut-at-1]",
            _ACCEPT + "test_criterion_3_certificate_fuzzing")),
    # Maps whose b and c differ are the only ones a transposed matrix
    # moves: the gasket's are diagonal, so depth 0 and the gasket pass.
    Mutant("render-matrix-in-row-order", "render.py",
           'f"matrix({_num(m.a)} {_num(m.c)} {_num(m.b)} {_num(m.d)} "',
           'f"matrix({_num(m.a)} {_num(m.b)} {_num(m.c)} {_num(m.d)} "',
           (_SHEARED + "4]", _SHEARED + "8]", _SHEARED + "10]",
            _RENDER + "test_cloud_draws_every_point_within_one_quantum")),
    Mutant("hull-images-under-the-first-map-only", "ifs.py",
           "q for m in spec.maps for q in m.apply(hull)]))",
           "q for m in spec.maps[:1] for q in m.apply(hull)]))",
           (_IFS + "test_cloud_sizes_are_powers",
            _IFS + "test_hull_extent_is_the_cloud_extent",
            _NUMPY + "[sierpinski]", _NUMPY + "[gasket-bench]",
            _IFS + "test_hint_below_cloud_diameter_is_refused",
            _CLI + "test_ifs_depth_overrides_diameter",
            _SHEARED + "4]",
            _ACCEPT + "test_criterion_5_word_cover_contraction")),
    # Without the check, an overflowed point reaches `_extreme_points`,
    # whose exact fallback raises OverflowError on it.
    Mutant("hull-without-its-per-level-finite-check", "ifs.py",
           "hull = _extreme_points(_finite(spec, depth, [",
           "hull = _extreme_points(list([",
           (_IFS + "test_cloud_refuses_overflowing_coordinates",
            _OVERFLOW + "[ifs-1e308]", _OVERFLOW + "[render-1e308]")),
    Mutant("diameter-hint-never-checked", "ifs.py",
           "if hint < measured * (1 - REL_TOL):",
           "if False:",
           (_IFS + "test_hint_below_cloud_diameter_is_refused",
            _CLI + "test_ifs_rejects_false_diameter_hint[0.01]")),
    # No spec ties its ratio to bound + delta by chance; the tie test
    # makes one with an exact delta.
    Mutant("scale-table-ratio-limit-not-strict", "ifs.py",
           "if ratio < limit:",
           "if ratio <= limit:",
           (_IFS + "test_find_k0_needs_the_ratio_strictly_below_bound_plus_"
            "delta",)),
    # The test for a normal float written as a test for 0: a subnormal
    # scale is walked on until it is 0.  Constant maps reach 0 in one
    # step, so their test does not see it.
    Mutant("scale-table-normal-test-as-nonzero", "ifs.py",
           "if eps < sys.float_info.min:",
           "if not eps:",
           (_WIDE,)),
    # The step written as the power it replaces: the power underflows
    # before it is multiplied by D.
    Mutant("scale-table-step-as-a-power", "ifs.py",
           "        eps *= lam\n",
           "        eps = lam ** (k - 1) * d\n",
           (_WIDE, _CLI + "test_ifs_wide_cloud_finds_its_scale_past_the_"
            "power_underflow",
            _IFS + "test_report_prints_the_rows_find_k0_checked")),
    Mutant("cloud-diameter-without-hypot", "ifs.py",
           "norm = _norm if _in_turn_range(ext) else math.hypot",
           "norm = _norm",
           (_IFS + "test_cloud_wider_than_the_turn_range_is_measured",
            _IFS + "test_cloud_narrower_than_the_turn_range_is_measured",
            _CLI + "test_ifs_measures_a_cloud_narrower_than_squares_reach")),
)
