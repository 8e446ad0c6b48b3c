"""Mutants of the checkers, the clip, the cover row layout, the host
check, the exact kernels, the builder's level schedule, the properness
code, the attractor hull, the IFS scale table and the cloud renderer:
small edits that some test must catch.

Each row names a mutant, the file under `src/sdimlab/` that it edits, the
exact text it replaces, the replacement, the ids of tests that fail on
it, and, for a mutant that no test can kill, the reason it survives.
`tests/run_mutants.py` applies each one to a copy of the checkout and
runs its tests there.  `test_package` checks that every old text still
occurs exactly once in `src/`, so a refactor that moves checked code has
to carry its mutants along.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    kills: tuple[str, ...]
    survives: str = ""


_COVER = "tests/test_cover.py::"
_CLI = "tests/test_cli.py::"
_ACCEPT = "tests/test_acceptance.py::"
_GEOM = "tests/test_geom.py::"
_BUILD = "tests/test_continuum.py::"
_XC = "tests/test_exactcore.py::"
_OFF_GRID = _COVER + "test_upper_certificates_off_the_dyadic_grid_match_golden_"
_RENDER = "tests/test_render.py::"
_MERGES = _GEOM + "test_arrange_merges_collinear_overlap"
_CONNECTED = _COVER + "test_subset_connectivity_matches_pairwise_reference"
_WRITER = _COVER + ("test_cover_writer_refuses_fragments_that_do_not_cut_"
                     "each_edge")
_LAYOUT = _COVER + "test_cover_reader_refuses_rows_that_break_the_layout"
_LEFT_OUT = _COVER + "test_cover_reader_puts_back_each_left_out_id"
_NAMED = _COVER + ("test_check_cover_takes_a_run_element_named_again_on_the_"
                   "general_path")
_LONE = _COVER + "test_check_cover_refuses_a_lone_cut_piece_eps_long"
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
    # A clip joins two kept edges at a shared vertex only when the vertex
    # lies in the closed ball; joined at every vertex, it cuts too little
    # off.
    Mutant("clip-joins-at-every-vertex", "cover.py",
           "inside[v] = dn * ed <= en * dd",
           "inside[v] = True",
           (_COVER + "test_every_close_pair_is_separated_by_a_clip[m2]",
            _COVER + "test_every_close_pair_is_separated_by_a_clip[m3]",
            _COVER + "test_s_bounds_bracket_small_hosts",
            _COVER + "test_peaks_of_adjacent_teeth_are_separated",
            _COVER + "test_check_separation_tries_the_new_points_clip",
            _COVER + "test_greedy_lower_on_m2_at_half_is_maximal_and_exact",
            _COVER + "test_certificates_match_golden_digests[m3-1_16]",
            _COVER + "test_check_separation_accepts_every_family_the_delta_"
            "clip_separates")),
    # Joined at no vertex, a clip is its center's edge alone.
    Mutant("clip-joins-at-no-vertex", "cover.py",
           "runs.append((e, inside[a], inside[b]))",
           "runs.append((e, False, False))",
           (_COVER + "test_s_bounds_bracket_small_hosts",
            _COVER + "test_same_tooth_flanks_are_not_separated",
            _COVER + "test_check_separation_tries_the_new_points_clip",
            _COVER + "test_check_separation_rejects_false_disconnection",
            _COVER + "test_oracle_brackets_library_bounds",
            _ACCEPT + "test_criterion_2_brute_force_brackets")),
    # The one join for a clip and for a cover element alike.
    Mutant("joined-runs-without-the-second-vertex", "cover.py",
           "zip(graph.edges[e], reaches)",
           "zip(graph.edges[e][:1], reaches)",
           (_CONNECTED + "[cross_graph]", _CONNECTED + "[m2]",
            _COVER + "test_cover_verifies_on_all_fixtures",
            _COVER + "test_same_tooth_flanks_are_not_separated",
            _COVER + "test_check_separation_rejects_false_disconnection",
            _ACCEPT + "test_criterion_3_certificate_fuzzing")),
    Mutant("check-separation-without-its-pair-charge", "cover.py",
           "    n = len(pts)\n"
           "    work.budget.check_pairs(work.total + n * (n - 1) // 2)\n",
           "    n = len(pts)\n",
           (_COVER + "test_check_separation_charges_its_pair_tests_before_"
            "the_first",)),
    Mutant("lower-separation-without-its-pair-charge", "cover.py",
           "    if threshold is None:\n"
           "        work.budget.check_pairs(work.total + n * (n - 1) // 2)\n",
           "    if threshold is None:\n"
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
    Mutant("lower-separation-without-its-host-check", "cover.py",
           "    threshold = _host_threshold(graph, eps, work)\n",
           "    threshold = None\n",
           (_COVER + "test_guarded_lower_keeps_only_tall_points",
            _COVER + "test_guard_refuses_a_host_its_builder_did_not_make",
            _COVER + "test_producers_refuse_a_host_whose_edges_cross",
            _COVER + "test_lower_separation_is_refused_where_its_checker_"
            "would_be",
            _COVER + "test_certificates_match_golden_digests[m3-1_16]",
            _CLI + "test_cover_refuses_a_lower_bound_its_checker_would_"
            "refuse",
            _CLI + "test_cover_refuses_a_lower_bound_on_a_crossing_host"
            "[lower]")),
    # The clip's argument needs a proper host, and a guard the host that
    # its builder metadata names.
    Mutant("check-separation-without-its-host-check", "cover.py",
           "        threshold = _host_threshold(graph, cert.epsilon, work)\n",
           "        threshold = None\n",
           (_COVER + "test_check_separation_refuses_a_host_whose_edges_cross",
            _COVER + "test_check_separation_refuses_an_improper_host",
            _COVER + "test_guard_point_below_threshold_fails",
            _COVER + "test_guarded_certificate_on_a_moved_peak_fails",
            _CLI + "test_verify_refuses_a_lower_certificate_on_a_crossing_"
            "host",
            _CLI + "test_verify_refuses_a_guard_on_a_host_its_builder_did_"
            "not_make",
            _ACCEPT + "test_criterion_3_certificate_fuzzing")),
    Mutant("check-separation-without-its-threshold-refusal", "cover.py",
           "            if not _clears(r, threshold):\n",
           "            if False:\n",
           (_COVER + "test_guard_thin_threshold_fails",
            _COVER + "test_guard_point_below_threshold_fails",
            _ACCEPT + "test_criterion_3_certificate_fuzzing")),
    Mutant("guard-clears-strictly-above-its-threshold", "cover.py",
           "return raw[2] * threshold.denominator >= threshold.numerator",
           "return raw[2] * threshold.denominator > threshold.numerator",
           (_COVER + "test_guarded_lower_keeps_only_tall_points",
            _COVER + "test_certificates_match_golden_digests[m3-1_16]")),
    # The rebuild proof trusts the level schedule: K = 3 is the first
    # tooth at level 1.
    Mutant("n-k-tower-bound-strict", "continuum.py",
           "while 2 ** (2 ** (m + 1)) <= k + 1:",
           "while 2 ** (2 ** (m + 1)) < k + 1:",
           (_BUILD + "test_n_k_frozen_values[3-1]",
            _BUILD + "test_n_k_frozen_values[15-2]",
            _BUILD + "test_paper_truncation_counts[3-7-10]",
            _COVER + "test_guard_on_wrong_host_fails",
            _ACCEPT + "test_criterion_6_shark_teeth_structure")),
    # Past the far end b, the nearest point is b; measured to a, the
    # clip drops edges that reach the ball, even its center's own when
    # the center is b.
    Mutant("point-seg-dist2-to-a-past-the-far-end", "exactcore.py",
           "        return norm_q(ww_n * vv_d - 2 * wv_n * wv_d + vv_n * ww_d,\n"
           "                      ww_d * vv_d)\n",
           "        return norm_q(ww_n, ww_d)\n",
           (_XC + "TestKernels::test_point_seg_dist2_matches_oracle[python]",
            _XC + "TestKernels::test_point_seg_dist2_endpoint_cases[python]",
            _XC + "test_kernels_do_not_call_each_other_through_the_module",
            _COVER + "test_peaks_of_adjacent_teeth_are_separated",
            _COVER + "test_s_bounds_bracket_small_hosts")),
    # An element whose widest pair is two neighbours in its point list
    # would pass the diameter test.
    Mutant("max-pair-dist2-skips-each-next-point", "exactcore.py",
           "for j in range(i + 1, m):",
           "for j in range(i + 2, m):",
           (_XC + "TestKernels::test_max_pair_dist2_matches_oracle[python]",
            _NAMED + "[too-wide]",
            _COVER + "test_accepted_cover_is_above_the_oracle_lower",
            _ACCEPT + "test_criterion_3_certificate_fuzzing")),
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
           "            if el[-3::2] == [e, lo]:  # it goes on from its "
           "last piece\n",
           "            if False:\n",
           (_COVER + "test_subset_connectivity_on_one_edge",
            _CONNECTED + "[lshape_graph]", _CONNECTED + "[cross_graph]",
            _CONNECTED + "[m2]",
            _COVER + "test_cover_document_numbers_elements_by_first_"
            "appearance")),
    # A group's pieces are each s|e| long, and an element no longer than
    # eps is refused: its diameter must be strictly below.
    Mutant("check-cover-run-test-at-eps", "cover.py",
           "if not step * step * length2[e] < eps2:",
           "if not step * step * length2[e] <= eps2:",
           (_COVER + "test_check_cover_refuses_a_run_whose_pieces_are_eps_"
            "long",
            _LONE + "[whole-row]", _LONE + "[mid-row]")),
    # A new element that a cut or a row end makes, and no id names again,
    # is then never checked: the one test is for every group.
    Mutant("check-cover-one-test-for-runs-only", "cover.py",
           "        if not step * step * length2[e] < eps2:",
           "        if n > 1 and not step * step * length2[e] < eps2:",
           (_LONE + "[whole-row]", _LONE + "[mid-row]",
            _COVER + "test_check_cover_rejects_fat_element",
            _COVER + "test_check_cover_rejects_exact_diameter_tie")),
    # Every new element then takes the one test alone, though one named
    # again holds more than its piece.
    Mutant("check-cover-without-the-named-again-pass", "cover.py",
           "named[bisect_left(named, new):\n"
           "                       bisect_left(named, first + n)]",
           "()",
           (_NAMED + "[on-another-edge]", _NAMED + "[too-wide]",
            _CLI + "test_verify_refuses_a_run_element_named_again_off_its_"
            "run")),
    # Every run element on the general path is the expansion that the
    # one test replaces: a billion cuts are made, past the child's cap.
    Mutant("check-cover-expands-every-run", "cover.py",
           "for j in named[bisect_left(named, new):\n"
           "                       bisect_left(named, first + n)]:",
           "for j in range(new, first + n):",
           (_COVER + "test_cover_reader_and_checker_keep_a_billion_cut_run_"
            "as_one_item",
            _CLI + "test_verify_accepts_a_billion_cut_run_in_little_time_"
            "and_memory",
            _CLI + "test_verify_prints_the_exact_count_of_a_run_past_sys_"
            "maxsize")),
    # The run's last element is the one that the too-wide element is.
    Mutant("check-cover-named-again-pass-skips-a-runs-last-element",
           "cover.py",
           "bisect_left(named, first + n)]",
           "bisect_left(named, first + n - 1)]",
           (_NAMED + "[too-wide]",)),
    # A run's cuts count from the cut before it, so the piece after a run
    # that follows a cut starts at that cut plus n s, not at n s.
    Mutant("check-cover-ends-a-run-from-0", "cover.py",
           "            lo, k = x, None\n",
           "            lo, k = (x - lo if n > 1 else x), None\n",
           (_CONNECTED + "[m2]", _COVER + "test_cover_verifies_on_all_fixtures",
            _COVER + "test_certificates_match_golden_digests[m3-1_16]",
            _COVER + "test_check_cover_agrees_with_expanded_golden_rows"
            "[w6-1_64]",
            _CLI + "test_verify_reads_a_large_upper_certificate")),
    # Without it a written id could be negative, or name an element that
    # no piece has begun, which would then be empty.
    Mutant("cover-rows-without-their-id-check", "cover.py",
           "                if not 0 <= x < new:\n",
           "                if False:\n",
           (_COVER + "test_check_cover_rejects_empty_element",
            _COVER + "test_cover_document_numbers_elements_by_first_"
            "appearance",
            _WRITER + "[empty-element]", _WRITER + "[negative-edge]",
            _LAYOUT + "[negative-id]", _LAYOUT + "[id-past-the-count]",
            _CLI + "test_verify_refuses_an_element_id_past_the_count",
            _ACCEPT + "test_criterion_3_certificate_fuzzing")),
    # A written id equal to the count would name the element that the
    # next piece begins, so a new id could name itself before it exists.
    Mutant("cover-reader-takes-a-written-id-at-the-count", "cover.py",
           "0 <= x < new:",
           "0 <= x <= new:",
           (_WRITER + "[id-at-the-count]", _LAYOUT + "[first-id-at-the-count]",
            _LAYOUT + "[id-at-the-count]")),
    Mutant("cover-reader-takes-two-ids-for-one-piece", "cover.py",
           "                if k is not None:\n",
           "                if False:\n",
           (_WRITER + "[two-ids]", _LAYOUT + "[two-ids]",
            _LAYOUT + "[two-ids-mid-row]")),
    # A string in a document's row is a cut, so a string id is one too.
    Mutant("cover-rows-without-their-cut-check", "cover.py",
           "            elif lo < x < 1:\n",
           "            elif True:\n",
           (_COVER + "test_fragment_bounds_are_enforced",
            _WRITER + "[point]", _WRITER + "[overlap]", _WRITER + "[short]",
            _LAYOUT + "[repeated-cut]", _LAYOUT + "[falling-cut]",
            _LAYOUT + "[cut-at-0]", _LAYOUT + "[cut-at-1]",
            _LAYOUT + "[string-id]",
            _COVER + "test_cover_reader_refuses_a_fragment_edge_that_is_"
            "not_an_integer[1]",
            _CLI + "test_verify_refuses_fragment_edges_that_are_not_"
            "integers[string-edge]",
            _ACCEPT + "test_criterion_3_certificate_fuzzing")),
    # A run's last cut is prev + n s, which only a run after a cut in its
    # row tells apart from n s.
    Mutant("cover-run-from-0", "cover.py",
           "and x < 1):",
           "and n * step < 1):",
           (_WRITER + "[run-reaching-1]",
            _LAYOUT + "[run-after-a-cut-reaching-1]")),
    # A run one cut short would start one element fewer.
    Mutant("cover-run-one-cut-short", "cover.py",
           "                step, n = x\n",
           "                step, n = x[0], x[1] - 1\n",
           (_COVER + "test_interval_cover_needs_m_plus_one_pieces",
            _CLI + "test_verify_round_trip",
            _CLI + "test_verify_accepts_a_billion_cut_run_in_little_time_"
            "and_memory")),
    # The piece from a row's last cut to 1 is then no element's: the
    # count falls short and a named element loses its last piece.
    Mutant("cover-groups-skip-the-row-end", "cover.py",
           "        yield e, lo, _ONE - lo, 1, k, new\n",
           "",
           (_COVER + "test_interval_cover_needs_m_plus_one_pieces",
            _COVER + "test_check_cover_rejects_fat_element",
            _COVER + "test_cover_verifies_on_all_fixtures",
            _CLI + "test_verify_round_trip")),
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
