"""Command-line contract: output lines, file formats, exit codes.

Exit codes under test: 0 success, 1 verification failure, 2 parse error,
4 budget or size limit, 5 too few scales; there is no other.  Error text
must start with the machine tag.  A host with shark-teeth builder
metadata that its builder would not make from that metadata is a parse
error for `cover` and `sweep` and a verification failure for any lower
certificate.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest
from reference import (FIXTURES, bare, cover_v4, cover_v5, decode_svg,
                       edge_point, measure_capped, separation_v3_doc)

import sdimlab
from sdimlab import (PLGraph, ToothSequenceSpec, build_shark_teeth, point,
                     read_profile_csv)
from sdimlab.cli import _atomic_write, _write_json, main
from sdimlab.cover import (SeparationCertificate, lower_separation,
                           upper_cover)
from sdimlab.render import render_svg


class Result(NamedTuple):
    exit_code: int
    output: str  # stdout
    stderr: str


def invoke(*args, env=None) -> Result:
    """Run one command line through `main` in this process, with `env`
    applied to `os.environ` for the call, and capture what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env or {}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args], prog_name="sdimlab",
                    standalone_mode=False)
    return Result(code, out.getvalue(), err.getvalue())


@pytest.fixture()
def paper3_spec(tmp_path):
    path = tmp_path / "m3.spec.json"
    path.write_text(json.dumps({"format": "sdimlab/tooth-spec",
                                "version": 1, "kind": "paper", "K": 3}))
    return path


@pytest.fixture()
def m3_graph(tmp_path, paper3_spec):
    path = tmp_path / "m3.graph.json"
    res = invoke("build", "--spec", paper3_spec, "--out", path)
    assert res.exit_code == 0
    return path


@pytest.fixture()
def seg_graph_file(tmp_path, seg_graph):
    path = tmp_path / "seg.graph.json"
    path.write_text(json.dumps(seg_graph.to_json_dict()))
    return path


@pytest.fixture()
def sier_spec(tmp_path):
    path = tmp_path / "sier.ifs.json"
    path.write_text(json.dumps(FIXTURES["sierpinski"]().to_json_dict()))
    return path


# ---------------------------------------------------------------------------
# build


def test_build_paper_truncation(tmp_path, paper3_spec):
    out = tmp_path / "g.json"
    res = invoke("build", "--spec", paper3_spec, "--out", out)
    assert res.exit_code == 0
    assert res.output.strip() == "7 vertices, 10 edges"
    g = PLGraph.from_json_dict(json.loads(out.read_text()))
    assert (len(g.vertices), len(g.edges)) == (7, 10)


def test_build_explicit_single_level(tmp_path):
    spec = tmp_path / "e.spec.json"
    spec.write_text(json.dumps({"format": "sdimlab/tooth-spec",
                                "version": 1, "kind": "explicit",
                                "levels": [0]}))
    res = invoke("build", "--spec", spec, "--out", tmp_path / "g.json")
    assert res.exit_code == 0
    assert res.output.strip() == "3 vertices, 3 edges"


def test_build_round_trips_exactly(tmp_path, paper3_spec):
    out = tmp_path / "g.json"
    invoke("build", "--spec", paper3_spec, "--out", out)
    doc = json.loads(out.read_text())
    g = PLGraph.from_json_dict(doc)
    assert g.to_json_dict() == doc


def test_build_rejects_bad_spec(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = invoke("build", "--spec", bad, "--out", tmp_path / "g.json")
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")


@pytest.mark.parametrize("value", ["inf", "-inf", "1e400", "nan"])
def test_build_refuses_a_budget_that_is_not_finite(tmp_path, paper3_spec,
                                                   value):
    # int(float("inf")) raised OverflowError: a traceback and exit 1.
    res = invoke("build", "--spec", paper3_spec, "--out", tmp_path / "g.json",
                 env={"SDIMLAB_BUDGET": f"pairs={value}"})
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("setting", ["edges=-1", "pairs=0.5", "words=-2e3",
                                     "pairs=1e-3", "edges=x"])
def test_build_refuses_a_budget_that_is_not_a_whole_number(
        tmp_path, paper3_spec, setting):
    # edges=-1 was a budget failure (exit 4), pairs=0.5 a budget of 0.
    res = invoke("build", "--spec", paper3_spec, "--out", tmp_path / "g.json",
                 env={"SDIMLAB_BUDGET": setting})
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")
    assert f"for {setting.partition('=')[0]}" in res.stderr
    assert not (tmp_path / "g.json").exists()


def test_build_takes_whole_budgets_in_float_notation(tmp_path, paper3_spec):
    res = invoke("build", "--spec", paper3_spec, "--out", tmp_path / "g.json",
                 env={"SDIMLAB_BUDGET": "edges=1e1,pairs=0"})
    assert res.exit_code == 0
    res = invoke("build", "--spec", paper3_spec, "--out", tmp_path / "g.json",
                 env={"SDIMLAB_BUDGET": "edges=9.0"})
    assert res.exit_code == 4
    assert res.stderr.startswith("BUDGET: edge count 10 exceeds budget 9")


@pytest.mark.parametrize("broken", ["huge-integer", "deep-array"])
def test_build_refuses_a_spec_that_json_load_cannot_hold(tmp_path,
                                                         paper3_spec, broken):
    # These escaped as ValueError and RecursionError, a traceback (exit 1).
    paper3_spec.write_text(_BROKEN_TEXT[broken](paper3_spec.read_text()))
    res = invoke("build", "--spec", paper3_spec, "--out", tmp_path / "g.json")
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")
    assert not (tmp_path / "g.json").exists()


def test_build_rejects_missing_file(tmp_path):
    res = invoke("build", "--spec", tmp_path / "absent.json",
                 "--out", tmp_path / "g.json")
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")


def test_build_refuses_to_clobber_its_input(paper3_spec):
    res = invoke("build", "--spec", paper3_spec, "--out", paper3_spec)
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")


def test_build_output_gets_the_umask_mode(tmp_path, paper3_spec):
    out = tmp_path / "g.json"
    old = os.umask(0o022)
    try:
        res = invoke("build", "--spec", paper3_spec, "--out", out)
    finally:
        os.umask(old)
    assert res.exit_code == 0
    assert out.stat().st_mode & 0o777 == 0o644


# ---------------------------------------------------------------------------
# JSON layout


def _assert_one_item_per_line(text: str, doc: dict) -> None:
    """Sorted keys, no indentation, each top-level array item on a line."""
    lines = text.splitlines()
    assert lines[0] == "{" and lines[-1] == "}"
    assert not any(line[:1].isspace() for line in lines)
    keys = [line.partition(":")[0] for line in lines if line[:1] == '"']
    assert keys == [json.dumps(k) for k in sorted(doc)]
    for key, value in doc.items():
        if isinstance(value, list) and value:
            start = lines.index(f"{json.dumps(key)}:[") + 1
            items = lines[start:start + len(value)]
            assert [json.loads(line.removesuffix(",")) for line in items] \
                == value
            assert lines[start + len(value)] in ("]", "],")


def _assert_written_layout(path: Path, doc: dict) -> None:
    text = path.read_text()
    assert json.loads(text) == doc
    # Re-indented, the file is what the indented writer used to produce.
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) \
        == json.dumps(doc, indent=2, sort_keys=True)
    _assert_one_item_per_line(text, doc)


def test_build_and_cover_write_their_documents(tmp_path, paper3_spec, m3):
    graph = tmp_path / "m3.json"
    invoke("build", "--spec", paper3_spec, "--out", graph)
    _assert_written_layout(graph, m3.to_json_dict())
    eps = Fraction(1, 8)
    res = invoke("cover", "--graph", graph, "--epsilon", "1/8",
                 "--mode", "both", "--out", tmp_path / "c.json")
    assert res.exit_code == 0
    low = lower_separation(m3, eps)
    _assert_written_layout(tmp_path / "c.lower.json", low.to_json_dict())
    _assert_written_layout(tmp_path / "c.upper.json",
                           upper_cover(m3, eps).to_json_dict())


def test_json_writer_round_trips_edge_values(tmp_path):
    doc = {"empty": [], "guard": None, "one": [{"b": [], "a": None}],
           "meta": {"spec": {"levels": [1, [2, 3]], "kind": "explicit"},
                    "note": "caf\u00e9 \"q\"\n"},
           "nested": [[], [[1]], {}], "version": 2}
    out = tmp_path / "doc.json"
    _write_json(str(out), doc)
    _assert_written_layout(out, doc)
    assert '"empty":[],' in out.read_text()


def _teeth(top: int) -> PLGraph:
    """The explicit host with one tooth at each level 1..top."""
    return build_shark_teeth(
        ToothSequenceSpec(kind="explicit", levels=tuple(range(1, top + 1))))


def test_json_writer_holds_no_copy_of_the_text(tmp_path):
    # The indented writer allocated about six times the file size at
    # peak; the line-at-a-time one holds a line and a few I/O buffers,
    # about 44 KB here, for a 254 KB file.  Cover version 5 writes a run
    # of equally spaced cuts once, so the file takes a host of 10,236
    # edges, where m3 at 1/4096 now writes 544 B.
    doc = upper_cover(_teeth(11), Fraction(1, 2048)).to_json_dict()
    out = tmp_path / "up.json"
    tracemalloc.start()
    try:
        _write_json(str(out), doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size >= 100_000
    assert peak < size / 4


# ---------------------------------------------------------------------------
# cover


def test_cover_both_modes_on_interval(tmp_path, seg_graph_file):
    out = tmp_path / "seg.cert.json"
    res = invoke("cover", "--graph", seg_graph_file, "--epsilon", "1/2",
                 "--mode", "both", "--out", out)
    assert res.exit_code == 0
    assert res.output.strip() == "lower=3 upper=3"
    assert (tmp_path / "seg.cert.lower.json").exists()
    assert (tmp_path / "seg.cert.upper.json").exists()


def test_cover_single_mode_output(tmp_path, seg_graph_file):
    out = tmp_path / "up.json"
    res = invoke("cover", "--graph", seg_graph_file, "--epsilon", "1/2",
                 "--mode", "upper", "--out", out)
    assert res.exit_code == 0
    assert res.output.strip() == "upper=3"
    assert json.loads(out.read_text())["format"].endswith("cover")


def test_cover_applies_guard_on_built_hosts(tmp_path, m3_graph, m3):
    # The guard is the host's: every point clears m3's threshold at 1/8,
    # 1/16 + 1/8, and the document does not write it.
    out = tmp_path / "low.json"
    res = invoke("cover", "--graph", m3_graph, "--epsilon", "1/8",
                 "--mode", "lower", "--out", out)
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["version"] == 4 and "guard" not in doc
    assert len(doc["points"]) == 10
    for e, t in doc["points"]:
        assert edge_point(m3, e, Fraction(t)).y >= Fraction(3, 16)


def test_cover_refuses_a_lower_bound_its_checker_would_refuse(tmp_path,
                                                              plain4):
    # On the plain host the host check's 2,850 segment tests are charged
    # to the producer's budget as to the checker's: at 7,198 pair checks
    # the checker refuses the 54 points, and so does `cover`.
    graph = tmp_path / "plain4.graph.json"
    _write_json(str(graph), plain4.to_json_dict())
    res = invoke("cover", "--graph", graph, "--epsilon", "1/16",
                 "--mode", "lower", "--out", tmp_path / "low.json",
                 env={"SDIMLAB_BUDGET": "pairs=7198"})
    assert res.exit_code == 4
    assert res.stderr.startswith("BUDGET:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain4.graph.json"]


def test_cover_both_refuses_an_output_path_that_is_its_graph(tmp_path,
                                                             seg_graph):
    # `--out h.json` writes h.lower.json first and h.upper.json next, so
    # the upper path is the graph's: nothing is written.
    graph = tmp_path / "h.upper.json"
    _write_json(str(graph), seg_graph.to_json_dict())
    res = invoke("cover", "--graph", graph, "--epsilon", "1/2",
                 "--mode", "both", "--out", tmp_path / "h.json")
    assert res.exit_code == 2
    assert res.stderr == (f"PARSE: output path {str(graph)!r} equals an "
                          f"input path\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.upper.json"]


@pytest.mark.parametrize("eps", ["0.5", "1e-3", "0/1", "-1/2", "half"])
def test_cover_rejects_non_rational_scales(tmp_path, seg_graph_file, eps):
    res = invoke("cover", "--graph", seg_graph_file, "--epsilon", eps,
                 "--mode", "both", "--out", tmp_path / "c.json")
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")


def test_cover_refuses_an_over_budget_lower_pool_before_its_pair_tests(
        tmp_path, seg_graph_file):
    # At 1/100000 the unit segment's pool is 100,001 points, whose
    # 5,000,050,000 pairs are over the default budget: the pool is
    # refused on its size, before any of its points is made.
    start = time.perf_counter()
    res = invoke("cover", "--graph", seg_graph_file, "--epsilon", "1/100000",
                 "--mode", "lower", "--out", tmp_path / "c.json")
    assert res.exit_code == 4
    assert res.stderr.startswith("BUDGET: pair checks 5000")
    assert time.perf_counter() - start < 3
    assert not (tmp_path / "c.json").exists()


def test_cover_budget_env_is_honored(tmp_path, m3_graph):
    res = invoke("cover", "--graph", m3_graph, "--epsilon", "1/4",
                 "--mode", "upper", "--out", tmp_path / "c.json",
                 env={"SDIMLAB_BUDGET": "edges=2"})
    assert res.exit_code == 4
    assert res.stderr.startswith("BUDGET:")
    assert not (tmp_path / "c.json").exists()


# ---------------------------------------------------------------------------
# verify


def test_verify_round_trip(tmp_path, seg_graph_file):
    invoke("cover", "--graph", seg_graph_file, "--epsilon", "1/2",
           "--mode", "both", "--out", tmp_path / "c.json")
    up = invoke("verify", "--graph", seg_graph_file,
                "--cert", tmp_path / "c.upper.json")
    assert up.exit_code == 0 and up.output.strip() == "upper=3"
    low = invoke("verify", "--graph", seg_graph_file,
                 "--cert", tmp_path / "c.lower.json")
    assert low.exit_code == 0 and low.output.strip() == "lower=3"


def test_verify_wrong_host_exits_one(tmp_path, seg_graph_file, m3_graph):
    invoke("cover", "--graph", seg_graph_file, "--epsilon", "1/2",
           "--mode", "upper", "--out", tmp_path / "c.json")
    res = invoke("verify", "--graph", m3_graph,
                 "--cert", tmp_path / "c.json")
    assert res.exit_code == 1
    assert res.stderr.startswith("HOSTMISMATCH:")


def test_verify_tampered_certificate_exits_one(tmp_path, seg_graph_file):
    cert = tmp_path / "c.json"
    invoke("cover", "--graph", seg_graph_file, "--epsilon", "1/2",
           "--mode", "upper", "--out", cert)
    doc = json.loads(cert.read_text())
    del doc["pieces"][0]
    cert.write_text(json.dumps(doc))
    res = invoke("verify", "--graph", seg_graph_file, "--cert", cert)
    assert res.exit_code == 1
    assert res.stderr.startswith("VERIFY:")


@pytest.mark.parametrize("rows", [[], [[0, "1/2", 1], [2]]],
                         ids=["fewer", "more"])
def test_verify_refuses_rows_that_do_not_match_the_edges(
        tmp_path, seg_graph_file, rows):
    cert = tmp_path / "c.json"
    invoke("cover", "--graph", seg_graph_file, "--epsilon", "1/2",
           "--mode", "upper", "--out", cert)
    doc = json.loads(cert.read_text())
    cert.write_text(json.dumps(cover_v5(cover_v4({**doc, "pieces": rows}))))
    res = invoke("verify", "--graph", seg_graph_file, "--cert", cert)
    assert res.exit_code == 1
    assert res.stderr.startswith(
        f"VERIFY: certificate has {len(rows)} rows, host has 1 edges")


def test_verify_refuses_an_element_id_past_the_count(tmp_path,
                                                     seg_graph_file):
    # An id that skips one would leave an element empty, so a document
    # cannot name one.
    cert = tmp_path / "c.json"
    invoke("cover", "--graph", seg_graph_file, "--epsilon", "1/2",
           "--mode", "upper", "--out", cert)
    doc = json.loads(cert.read_text())
    assert doc["pieces"] == [[["127/256", 2]]]
    doc = cover_v5(cover_v4(
        {**doc, "pieces": [[0, "127/256", 2, "127/128", 1]]}))
    assert doc["pieces"] == [["127/256", 2, "127/128"]]
    cert.write_text(json.dumps(doc))
    res = invoke("verify", "--graph", seg_graph_file, "--cert", cert)
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE: row 0: element id 2")


def test_verify_refuses_v1_separation_document(tmp_path, m3_graph):
    cert = tmp_path / "low.json"
    invoke("cover", "--graph", m3_graph, "--epsilon", "1/8",
           "--mode", "lower", "--out", cert)
    doc = json.loads(cert.read_text())
    doc["version"] = 1
    cert.write_text(json.dumps(doc))
    res = invoke("verify", "--graph", m3_graph, "--cert", cert)
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")


def test_verify_refuses_v2_separation_document(tmp_path, m3_graph):
    cert = tmp_path / "low.json"
    invoke("cover", "--graph", m3_graph, "--epsilon", "1/16",
           "--mode", "lower", "--out", cert)
    doc = json.loads(cert.read_text())
    assert doc["version"] == 4 and "witnesses" not in doc
    doc["version"] = 2
    doc["witnesses"] = [{"i": 0, "j": 1, "center": 1, "delta": "1/128"}]
    cert.write_text(json.dumps(doc))
    res = invoke("verify", "--graph", m3_graph, "--cert", cert)
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE: unsupported version 2")


@pytest.mark.parametrize("item", ["01", [0], [0, "1", 2], {"0": "1"},
                                  [0, "3/2"]],
                         ids=["not-a-list", "short", "long", "object",
                              "t-past-1"])
def test_verify_refuses_a_point_that_is_not_an_edge_and_a_parameter(
        tmp_path, seg_graph_file, item):
    # A point is [edge, "t"] with t in [0, 1]; anything else is a parse
    # error, exit 2.
    cert = tmp_path / "low.json"
    invoke("cover", "--graph", seg_graph_file, "--epsilon", "1/2",
           "--mode", "lower", "--out", cert)
    doc = json.loads(cert.read_text())
    assert doc["points"][0] == [0, "0"]
    doc["points"][0] = item
    cert.write_text(json.dumps(doc))
    res = invoke("verify", "--graph", seg_graph_file, "--cert", cert)
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")


@pytest.fixture()
def crossing_host(tmp_path):
    """Diagonals of the unit square that cross at (1/2, 1/2) with no vertex
    there; a detour through (1,3) and (0,3) connects them as a graph.
    (0,0) and (1,0) lie 1 apart, and the path through the crossing joins
    them within diameter 1 < 3/2, so no lower certificate at 3/2 may list
    both, though each clip, blind to the crossing, keeps them apart.
    (host, path of its graph file)."""
    host = PLGraph([point(0, 0), point(1, 1), point(0, 1), point(1, 0),
                    point(1, 3), point(0, 3)],
                   [(0, 1), (2, 3), (1, 4), (4, 5), (2, 5)])
    path = tmp_path / "x.graph.json"
    _write_json(str(path), host.to_json_dict())
    return host, path


def test_verify_refuses_a_lower_certificate_on_a_crossing_host(
        tmp_path, crossing_host):
    host, graph = crossing_host
    cert = tmp_path / "x.lower.json"
    _write_json(str(cert), {
        "format": "sdimlab/separation", "version": 4,
        "graph_id": host.graph_id(), "epsilon": "3/2",
        "points": [[0, "0"], [1, "1"]]})
    res = invoke("verify", "--graph", graph, "--cert", cert)
    assert res.exit_code == 1
    assert res.stderr.startswith("VERIFY: host is not proper")


@pytest.mark.parametrize("mode", ["lower", "both"])
def test_cover_refuses_a_lower_bound_on_a_crossing_host(tmp_path,
                                                        crossing_host, mode):
    # Unchecked, `cover` printed lower=3 here and `verify` refused it.
    res = invoke("cover", "--graph", crossing_host[1], "--epsilon", "3/2",
                 "--mode", mode, "--out", tmp_path / "c.json")
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE: host is not proper")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.graph.json"]


def test_cover_upper_needs_no_proper_host(tmp_path, crossing_host):
    # Each cover element is connected in the graph, so in the set too.
    res = invoke("cover", "--graph", crossing_host[1], "--epsilon", "3/2",
                 "--mode", "upper", "--out", tmp_path / "c.json")
    assert res.exit_code == 0
    assert res.output.startswith("upper=")


def test_cover_refuses_a_lower_bound_on_an_improper_host(tmp_path,
                                                         improper_graph):
    host = tmp_path / "h.graph.json"
    _write_json(str(host), improper_graph.to_json_dict())
    res = invoke("cover", "--graph", host, "--epsilon", "1/2",
                 "--mode", "lower", "--out", tmp_path / "c.json")
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE: host is not proper")
    assert not (tmp_path / "c.json").exists()


def test_sweep_refuses_a_crossing_host(tmp_path, crossing_host):
    # Unchecked, `sweep` wrote lower bounds 3, 8 and 19 here.
    res = invoke("sweep", "--graph", crossing_host[1],
                 "--eps-start", "3/2", "--eps-factor", "1/2", "--steps", "3",
                 "--out", tmp_path / "p.csv")
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE: host is not proper")
    assert not (tmp_path / "p.csv").exists()


def test_verify_refuses_v1_cover_document(tmp_path, seg_graph_file):
    cert = tmp_path / "c.json"
    invoke("cover", "--graph", seg_graph_file, "--epsilon", "1/2",
           "--mode", "upper", "--out", cert)
    doc = json.loads(cert.read_text())
    del doc["pieces"]
    doc["version"] = 1
    doc["elements"] = [{"anchor_vertices": [], "whole_edges": [],
                        "partial_edges": [[0, "0", "1/2"]]},
                       {"anchor_vertices": [], "whole_edges": [],
                        "partial_edges": [[0, "1/2", "1"]]}]
    cert.write_text(json.dumps(doc))
    res = invoke("verify", "--graph", seg_graph_file, "--cert", cert)
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")


def test_verify_refuses_v3_cover_document(tmp_path, seg_graph_file):
    # Version 3 wrote every id; this one is a valid cover of the unit
    # segment at 1/2 in that layout.
    cert = tmp_path / "c.json"
    invoke("cover", "--graph", seg_graph_file, "--epsilon", "1/2",
           "--mode", "upper", "--out", cert)
    doc = json.loads(cert.read_text())
    assert doc["version"] == 5
    doc["version"] = 3
    doc["pieces"] = [[0, "127/256", 1, "127/128", 2]]
    cert.write_text(json.dumps(doc))
    res = invoke("verify", "--graph", seg_graph_file, "--cert", cert)
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE: unsupported version 3")


def test_verify_refuses_v4_cover_document(tmp_path, seg_graph_file):
    # Version 4 wrote every cut; this one is `cover`'s certificate of the
    # unit segment at 1/2 in that layout.
    cert = tmp_path / "c.json"
    invoke("cover", "--graph", seg_graph_file, "--epsilon", "1/2",
           "--mode", "upper", "--out", cert)
    doc = json.loads(cert.read_text())
    assert doc["pieces"] == [[["127/256", 2]]]
    doc["version"] = 4
    doc["pieces"] = [["127/256", "127/128"]]
    cert.write_text(json.dumps(doc))
    res = invoke("verify", "--graph", seg_graph_file, "--cert", cert)
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE: unsupported version 4")


def _verify_capped(graph_file, cert_file) -> tuple[str, str, float, int]:
    """`verify` run through `main` in a child under an address-space cap:
    what it printed, its exit code, and its seconds and peak traced
    memory, with the layers it loads imported first."""
    return measure_capped(
        "import sdimlab.cover\nfrom sdimlab.cli import main",
        f"main(['verify', '--graph', {str(graph_file)!r}, '--cert', "
        f"{str(cert_file)!r}], prog_name='sdimlab', standalone_mode=False)")


def test_verify_accepts_a_billion_cut_run_in_little_time_and_memory(
        tmp_path, seg_graph, seg_graph_file):
    # Under 200 B name a billion cuts in one run.  `verify` makes none of
    # them: the run's pieces are each 1/10^9 of the unit segment, so one
    # test at eps = 1/2, charged as one pair, takes the billion elements
    # that it starts, and the element past it is 1/10^9 long too.
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps({
        "format": "sdimlab/cover", "version": 5,
        "graph_id": seg_graph.graph_id(), "epsilon": "1/2",
        "pieces": [[["1/1000000000", 999_999_999]]]}))
    assert cert.stat().st_size < 200
    printed, code, seconds, peak = _verify_capped(seg_graph_file, cert)
    assert (printed, code) == ("upper=1000000000", "0")
    assert seconds < 1.0, seconds
    assert peak < 1_000_000, peak


def test_verify_prints_the_exact_count_of_a_run_past_sys_maxsize(
        tmp_path, seg_graph, seg_graph_file):
    # 10^30 cuts 1/10^31 apart end at 1/10, and the piece past them is
    # one more element: 10^30 + 1, more than any length a sequence can
    # report, read and printed as an exact integer.
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps({
        "format": "sdimlab/cover", "version": 5,
        "graph_id": seg_graph.graph_id(), "epsilon": "1",
        "pieces": [[[f"1/{10 ** 31}", 10 ** 30]]]}))
    assert 10 ** 30 > sys.maxsize
    printed, code, seconds, peak = _verify_capped(seg_graph_file, cert)
    assert (printed, code) == (f"upper={10 ** 30 + 1}", "0")
    assert seconds < 1.0, seconds
    assert peak < 1_000_000, peak


def test_verify_refuses_a_run_element_named_again_off_its_run(
        tmp_path, lshape_graph):
    # Element 1 is the second piece of the run on edge 0 and, named
    # again, all of edge 1: the two do not meet.
    graph, cert = tmp_path / "l.graph.json", tmp_path / "c.json"
    graph.write_text(json.dumps(lshape_graph.to_json_dict()))
    cert.write_text(json.dumps({
        "format": "sdimlab/cover", "version": 5,
        "graph_id": lshape_graph.graph_id(), "epsilon": "3",
        "pieces": [[["1/4", 3]], [1]]}))
    res = invoke("verify", "--graph", graph, "--cert", cert)
    assert res.exit_code == 1
    assert res.stderr == "VERIFY: element 1 is not connected\n"


def test_verify_refuses_v3_separation_document(tmp_path, m3_graph, m3):
    # Version 3 wrote the guard; this one is `cover`'s certificate of m3
    # at 1/8 with the guard that version wrote for it.
    cert = tmp_path / "c.json"
    invoke("cover", "--graph", m3_graph, "--epsilon", "1/8",
           "--mode", "lower", "--out", cert)
    low = SeparationCertificate.from_json_dict(json.loads(cert.read_text()))
    _write_json(str(cert), separation_v3_doc(low, m3, True))
    res = invoke("verify", "--graph", m3_graph, "--cert", cert)
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE: unsupported version 3")


def test_verify_refuses_v2_cover_document(tmp_path, seg_graph_file):
    # Version 2 listed each element's [edge, lo, hi] fragments; this one
    # is a valid cover of the unit segment at 1/2.
    cert = tmp_path / "c.json"
    invoke("cover", "--graph", seg_graph_file, "--epsilon", "1/2",
           "--mode", "upper", "--out", cert)
    doc = json.loads(cert.read_text())
    del doc["pieces"]
    doc["version"] = 2
    doc["elements"] = [[[0, "0", "1/4"]], [[0, "1/4", "5/8"]],
                       [[0, "5/8", "1"]]]
    cert.write_text(json.dumps(doc))
    res = invoke("verify", "--graph", seg_graph_file, "--cert", cert)
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE: unsupported version 2")


@pytest.fixture()
def point_host(tmp_path):
    """A host with one vertex and no edges, and its graph_id."""
    graph = PLGraph([point(0, 0)], [])
    path = tmp_path / "point.graph.json"
    path.write_text(json.dumps(graph.to_json_dict()))
    return path, graph.graph_id()


def test_verify_refuses_a_host_with_no_edges(tmp_path, point_host):
    # S_eps of a point is 1, so an empty cover of it must not pass as
    # upper=0.
    host, graph_id = point_host
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps(cover_v5(cover_v4({
        "format": "sdimlab/cover", "version": 3, "graph_id": graph_id,
        "epsilon": "1/2", "pieces": []}))))
    res = invoke("verify", "--graph", host, "--cert", cert)
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")


def test_cover_refuses_a_host_with_no_edges(tmp_path, point_host):
    host, _ = point_host
    res = invoke("cover", "--graph", host, "--epsilon", "1/2",
                 "--mode", "both", "--out", tmp_path / "c.json")
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")
    assert not list(tmp_path.glob("c.*"))


@pytest.fixture(params=[
    {"builder": "shark-teeth"},
    {"builder": "shark-teeth", "levels": [3, 1]},
    {"builder": "shark-teeth", "kind": "paper", "teeth": "x"},
    {"builder": "shark-teeth", "levels": [1, 21]},
    {"builder": "shark-teeth", "kind": "paper", "teeth": 4097},
], ids=["no-levels", "decreasing-levels", "string-teeth", "level-21",
        "4097-teeth"])
def malformed_builder_host(request, tmp_path, m3):
    """The m3 geometry under builder metadata that does not parse."""
    path = tmp_path / "bad-meta.graph.json"
    path.write_text(json.dumps(
        PLGraph(m3.vertices, m3.edges, request.param).to_json_dict()))
    return path


def test_cover_refuses_malformed_builder_metadata(tmp_path,
                                                  malformed_builder_host):
    res = invoke("cover", "--graph", malformed_builder_host,
                 "--epsilon", "1/8", "--mode", "lower",
                 "--out", tmp_path / "low.json")
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")
    assert not (tmp_path / "low.json").exists()


def test_sweep_refuses_malformed_builder_metadata(tmp_path,
                                                  malformed_builder_host):
    res = invoke("sweep", "--graph", malformed_builder_host,
                 "--eps-start", "1/2", "--eps-factor", "1/2", "--steps", "3",
                 "--out", tmp_path / "p.csv")
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")
    assert not (tmp_path / "p.csv").exists()


@pytest.fixture(params=["moved-peak", "w6-meta"])
def mismatched_host(request, tmp_path, m3, w6, m3_moved_peak):
    """A host whose builder metadata parses but does not describe its
    geometry, and two lower certificates relabeled to it: m3's guarded
    one, and the one made on the host without its metadata, which bounds
    that truncation alone: (host path, guarded path, unguarded path).
    The unguarded one keeps only its points that clear m3's guard
    threshold at 1/8, 3/16, so that only the rebuild's fingerprint
    comparison can refuse it on the moved peak."""
    host = (m3_moved_peak if request.param == "moved-peak"
            else PLGraph(m3.vertices, m3.edges, w6.meta))
    eps = Fraction(1, 8)
    paths = (tmp_path / "host.graph.json", tmp_path / "guarded.json",
             tmp_path / "unguarded.json")
    _write_json(paths[0], host.to_json_dict())
    guarded = lower_separation(m3, eps).points
    unguarded = [(e, t) for e, t in lower_separation(bare(host), eps).points
                 if edge_point(host, e, t).y >= Fraction(3, 16)]
    assert unguarded
    for path, points in zip(paths[1:], (guarded, unguarded)):
        _write_json(path, SeparationCertificate(eps, points, host.graph_id())
                    .to_json_dict())
    return paths


def test_cover_refuses_a_host_its_builder_did_not_make(tmp_path,
                                                       mismatched_host):
    res = invoke("cover", "--graph", mismatched_host[0], "--epsilon", "1/8",
                 "--mode", "lower", "--out", tmp_path / "low.json")
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")
    assert not (tmp_path / "low.json").exists()


def test_sweep_refuses_a_host_its_builder_did_not_make(tmp_path,
                                                       mismatched_host):
    res = invoke("sweep", "--graph", mismatched_host[0],
                 "--eps-start", "1/2", "--eps-factor", "1/2", "--steps", "3",
                 "--out", tmp_path / "p.csv")
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")
    assert not (tmp_path / "p.csv").exists()


def test_verify_refuses_a_guard_on_a_host_its_builder_did_not_make(
        mismatched_host):
    res = invoke("verify", "--graph", mismatched_host[0],
                 "--cert", mismatched_host[1])
    assert res.exit_code == 1
    assert res.stderr.startswith("VERIFY:")


def test_verify_refuses_an_unguarded_certificate_on_a_mismatched_host(
        mismatched_host):
    res = invoke("verify", "--graph", mismatched_host[0],
                 "--cert", mismatched_host[2])
    assert res.exit_code == 1
    assert res.stderr.startswith("VERIFY:")


@pytest.mark.parametrize("pieces", [
    [[0.7], [0.2]],
    [[0], ["0"]],
    [[0], [False]],
], ids=["float-edges", "string-edge", "bool-edge"])
def test_verify_refuses_fragment_edges_that_are_not_integers(
        tmp_path, lshape_graph, pieces):
    # A fragment's edge is its row's place; the integers in a row are the
    # element ids.  Read through int(), each of these verified as upper=1.
    # Since version 4 a string is a cut, and "0" is not inside (0, 1).
    host = tmp_path / "l.graph.json"
    host.write_text(json.dumps(lshape_graph.to_json_dict()))
    cert = tmp_path / "c.json"
    doc = {"format": "sdimlab/cover", "version": 3,
           "graph_id": lshape_graph.graph_id(), "epsilon": "3",
           "pieces": [[0], [0]]}
    cert.write_text(json.dumps(cover_v5(cover_v4(doc))))
    res = invoke("verify", "--graph", host, "--cert", cert)
    assert res.exit_code == 0 and res.output.strip() == "upper=1"
    cert.write_text(json.dumps(cover_v5(cover_v4({**doc, "pieces": pieces}))))
    res = invoke("verify", "--graph", host, "--cert", cert)
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")


def test_cover_refuses_graph_edges_that_are_not_integers(tmp_path):
    # Read through int(), these edges loaded as (0, 1), (1, 2).
    host = tmp_path / "g.json"
    host.write_text(json.dumps({
        "format": "sdimlab/plgraph", "version": 1,
        "vertices": [["0", "0"], ["1", "0"], ["2", "0"]],
        "edges": [[0.0, 1.9], [1, 2]]}))
    res = invoke("cover", "--graph", host, "--epsilon", "1/2",
                 "--mode", "upper", "--out", tmp_path / "c.json")
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")


def _spoil_utf8(path: Path) -> None:
    """Write the key "format" as Latin-1 "form\u00e9t", which is not
    UTF-8."""
    data = path.read_bytes()
    assert b'"format"' in data
    path.write_bytes(data.replace(b'"format"', b'"form\xe9t"', 1))


def test_build_refuses_a_spec_that_is_not_utf8(tmp_path, paper3_spec):
    _spoil_utf8(paper3_spec)
    res = invoke("build", "--spec", paper3_spec, "--out", tmp_path / "g.json")
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")


@pytest.mark.parametrize("spoiled", ["graph", "cert"])
def test_verify_refuses_input_that_is_not_utf8(tmp_path, seg_graph_file,
                                               spoiled):
    cert = tmp_path / "c.json"
    invoke("cover", "--graph", seg_graph_file, "--epsilon", "1/2",
           "--mode", "upper", "--out", cert)
    _spoil_utf8(seg_graph_file if spoiled == "graph" else cert)
    res = invoke("verify", "--graph", seg_graph_file, "--cert", cert)
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")


def test_verify_refuses_a_disconnected_host(tmp_path, seg_graph_file):
    cert = tmp_path / "c.json"
    invoke("cover", "--graph", seg_graph_file, "--epsilon", "1/2",
           "--mode", "upper", "--out", cert)
    # The unit segment plus a second one a unit away from it.
    doc = json.loads(seg_graph_file.read_text())
    doc["vertices"] += [["2", "0"], ["3", "0"]]
    doc["edges"].append([2, 3])
    host = tmp_path / "two.json"
    host.write_text(json.dumps(doc))
    res = invoke("verify", "--graph", host, "--cert", cert)
    assert res.exit_code == 2
    assert res.stderr.startswith("DISCONNECTED:")


def test_verify_refuses_a_host_whose_meta_is_not_an_object(tmp_path,
                                                          seg_graph_file):
    # Handed to dict() unchecked, "meta": 5 escaped as TypeError (exit 1).
    cert = tmp_path / "c.json"
    invoke("cover", "--graph", seg_graph_file, "--epsilon", "1/2",
           "--mode", "upper", "--out", cert)
    doc = json.loads(seg_graph_file.read_text())
    doc["meta"] = 5
    seg_graph_file.write_text(json.dumps(doc))
    res = invoke("verify", "--graph", seg_graph_file, "--cert", cert)
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")


def test_verify_refuses_a_host_whose_vertices_are_strings(tmp_path,
                                                          seg_graph_file):
    # "00" unpacked into "0", "0" read as the canonical host, graph_id and
    # all, so the certificate was accepted.
    cert = tmp_path / "c.json"
    invoke("cover", "--graph", seg_graph_file, "--epsilon", "1/2",
           "--mode", "upper", "--out", cert)
    doc = json.loads(seg_graph_file.read_text())
    assert doc["vertices"] == [["0", "0"], ["1", "0"]]
    doc["vertices"] = ["00", "10"]
    seg_graph_file.write_text(json.dumps(doc))
    res = invoke("verify", "--graph", seg_graph_file, "--cert", cert)
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")


def test_verify_rejects_non_certificate(tmp_path, seg_graph_file):
    junk = tmp_path / "junk.json"
    junk.write_text(json.dumps({"format": "sdimlab/etc"}))
    res = invoke("verify", "--graph", seg_graph_file, "--cert", junk)
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")


def _reordered(value):
    """`value` with the keys of every object in reverse order."""
    if isinstance(value, dict):
        return {k: _reordered(value[k]) for k in reversed(list(value))}
    if isinstance(value, list):
        return [_reordered(v) for v in value]
    return value


@pytest.mark.parametrize("layout", [
    lambda doc: json.dumps(doc, indent=2),
    lambda doc: json.dumps(doc),
    lambda doc: json.dumps(_reordered(doc), separators=(",", ":")),
    lambda doc: " \n" + json.dumps(_reordered(doc), indent="\t") + "\r\n",
    lambda doc: json.dumps({"notes": [{"a": [1]}, "b"], **doc, "x": []}),
], ids=["indented", "one-line", "reordered", "tabs-reordered",
        "unknown-members"])
def test_verify_accepts_any_json_layout(tmp_path, m3_graph, layout):
    res = invoke("cover", "--graph", m3_graph, "--epsilon", "1/8",
                 "--mode", "both", "--out", tmp_path / "c.json")
    assert res.exit_code == 0
    for kind in ("lower", "upper"):
        cert = tmp_path / f"c.{kind}.json"
        want = invoke("verify", "--graph", m3_graph, "--cert", cert)
        assert want.exit_code == 0
        cert.write_text(layout(json.loads(cert.read_text())))
        got = invoke("verify", "--graph", m3_graph, "--cert", cert)
        assert got.exit_code == 0
        assert got.output == want.output


_BROKEN_TEXT = {
    "truncated-array": lambda t: t[:t.index("\n", t.index("[") + 40)],
    "truncated-after-bracket": lambda t: t[:t.index("[") + 1],
    "array-trailing-comma": lambda t: t.replace("\n]", ",\n]", 1),
    "object-trailing-comma": lambda t: t.replace("\n}", ",\n}", 1),
    "missing-colon": lambda t: t.replace('"epsilon":', '"epsilon" ', 1),
    "trailing-garbage": lambda t: t + "x",
    "second-document": lambda t: t + t,
    "empty": lambda t: "",
    "bom": lambda t: "\ufeff" + t,
    "array": lambda t: "[" + t + "]",
    "string": lambda t: json.dumps(t),
    "number": lambda t: "3",
    "null": lambda t: "null",
    # Past the 4,300-digit limit of int(), json.load raises ValueError.
    "huge-integer": lambda t: t.replace("{", '{"big": ' + "9" * 5000 + ",", 1),
    # Past the interpreter's recursion limit it raises RecursionError.
    "deep-array": lambda t: t.replace(
        "{", '{"deep": ' + "[" * 100_000 + "]" * 100_000 + ",", 1),
}


@pytest.mark.parametrize("kind", ["lower", "upper"])
@pytest.mark.parametrize("broken", sorted(_BROKEN_TEXT))
def test_verify_refuses_broken_json_with_exit_two(tmp_path, m3_graph, kind,
                                                  broken):
    invoke("cover", "--graph", m3_graph, "--epsilon", "1/8",
           "--mode", "both", "--out", tmp_path / "c.json")
    cert = tmp_path / f"c.{kind}.json"
    cert.write_text(_BROKEN_TEXT[broken](cert.read_text()))
    res = invoke("verify", "--graph", m3_graph, "--cert", cert)
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")


@pytest.mark.parametrize("mangle", [
    lambda doc: {**doc, "pieces": [5] + doc["pieces"]},
    lambda doc: {**doc, "pieces": [["whole_edges"]]},
    lambda doc: {**doc, "epsilon": 5},
    lambda doc: {**doc, "pieces": [[0, 1, 1]]},
    lambda doc: {**doc, "pieces": [{"0": [0, "1/2", 1]}]},
    lambda doc: {**doc, "pieces": ["0"]},
], ids=["int-element", "list-element", "int-epsilon", "int-parameters",
        "object-element", "string-fragment"])
def test_verify_refuses_wrongly_typed_items_with_exit_two(
        tmp_path, m3_graph, mangle):
    # These used to escape as AttributeError from `dict.get` or `str.strip`.
    cert = tmp_path / "c.json"
    invoke("cover", "--graph", m3_graph, "--epsilon", "1/8",
           "--mode", "upper", "--out", cert)
    cert.write_text(json.dumps(mangle(json.loads(cert.read_text()))))
    res = invoke("verify", "--graph", m3_graph, "--cert", cert)
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")


def test_verify_reads_a_large_upper_certificate(tmp_path):
    # Over 100 KB, one row per edge of 11,126 elements.  Cover version 5
    # writes a run of equally spaced cuts once, so the file takes a host
    # of 5,116 edges, where w6 at 1/1280 now writes 15 KB.
    host = _teeth(10)
    cert = tmp_path / "up.json"
    _write_json(str(cert), upper_cover(host, Fraction(1, 1024)).to_json_dict())
    assert cert.stat().st_size >= 100_000
    graph = tmp_path / "w10.json"
    _write_json(str(graph), host.to_json_dict())
    res = invoke("verify", "--graph", graph, "--cert", cert)
    assert res.exit_code == 0 and res.output.strip() == "upper=11126"


# ---------------------------------------------------------------------------
# sweep


def test_sweep_interval_profile(tmp_path, seg_graph_file):
    out = tmp_path / "p.csv"
    res = invoke("sweep", "--graph", seg_graph_file, "--eps-start", "1/2",
                 "--eps-factor", "1/2", "--steps", "3", "--out", out)
    assert res.exit_code == 0
    assert res.output.startswith("sdim proxy [")
    with open(out) as f:
        prof = read_profile_csv(f)
    assert [(r.lower, r.upper) for r in prof.rows] \
        == [(3, 3), (5, 5), (9, 9)]


def test_sweep_too_short_writes_csv_then_exits_five(tmp_path,
                                                    seg_graph_file):
    out = tmp_path / "p.csv"
    res = invoke("sweep", "--graph", seg_graph_file, "--eps-start", "1/2",
                 "--eps-factor", "1/2", "--steps", "1", "--out", out)
    assert res.exit_code == 5
    assert res.stderr.startswith("SCALES:")
    with open(out) as f:
        prof = read_profile_csv(f)
    assert len(prof.rows) == 1


@pytest.mark.parametrize("factor", ["1/1", "3/2", "0/1", "0.5"])
def test_sweep_rejects_bad_factor(tmp_path, seg_graph_file, factor):
    res = invoke("sweep", "--graph", seg_graph_file, "--eps-start", "1/2",
                 "--eps-factor", factor, "--steps", "3",
                 "--out", tmp_path / "p.csv")
    assert res.exit_code == 2


def test_sweep_draws_scales_only_as_it_reaches_them(tmp_path, m3_graph):
    # A schedule built up front was quadratic in --steps; drawn lazily, the
    # sweep meets the budget at a fine scale after a few steps.
    start = time.perf_counter()
    res = invoke("sweep", "--graph", m3_graph, "--eps-start", "1/2",
                 "--eps-factor", "1/2", "--steps", "10000000",
                 "--out", tmp_path / "p.csv",
                 env={"SDIMLAB_BUDGET": "pairs=20000"})
    assert res.exit_code == 4
    assert res.stderr.startswith("BUDGET:")
    assert time.perf_counter() - start < 5


def test_sweep_rejects_zero_steps(tmp_path, seg_graph_file):
    res = invoke("sweep", "--graph", seg_graph_file, "--eps-start", "1/2",
                 "--eps-factor", "1/2", "--steps", "0",
                 "--out", tmp_path / "p.csv")
    assert res.exit_code == 2


# ---------------------------------------------------------------------------
# ifs


def test_ifs_report_tokens(tmp_path, sier_spec):
    out = tmp_path / "report.txt"
    res = invoke("ifs", "--spec", sier_spec, "--out", out)
    assert res.exit_code == 0
    assert "bound=1.5850" in res.output
    assert "k0=17" in res.output
    assert out.read_text() == res.output


def test_ifs_single_map_bound_zero(tmp_path):
    spec = tmp_path / "solo.json"
    doc = FIXTURES["sierpinski"]().to_json_dict()
    doc["maps"] = doc["maps"][:1]
    doc["name"] = "solo"
    doc["diameter_hint"] = None
    spec.write_text(json.dumps(doc))
    res = invoke("ifs", "--spec", spec, "--out", tmp_path / "r.txt")
    assert res.exit_code == 0
    assert "bound=0.0000" in res.output


def test_ifs_single_map_report_is_the_same_at_any_depth(tmp_path):
    # A one-map cloud is a single point at every depth; its zero diameter
    # anchors no scale, and the one-map report needs none.
    spec = tmp_path / "solo.json"
    doc = FIXTURES["sierpinski"]().to_json_dict()
    doc["maps"] = doc["maps"][:1]
    spec.write_text(json.dumps(doc))
    plain = invoke("ifs", "--spec", spec, "--out", tmp_path / "a.txt")
    deep = invoke("ifs", "--spec", spec, "--depth", "3",
                  "--out", tmp_path / "b.txt")
    assert plain.exit_code == deep.exit_code == 0
    assert "single map" in plain.output
    assert deep.output == plain.output
    assert (tmp_path / "b.txt").read_text() == plain.output


def test_ifs_depth_zero_cloud_anchors_no_scale(tmp_path, sier_spec):
    out = tmp_path / "r.txt"
    res = invoke("ifs", "--spec", sier_spec, "--depth", "0", "--out", out)
    assert res.exit_code == 2
    assert res.stderr.startswith(
        "PARSE: attractor diameter 0.0 is not positive")
    assert not out.exists()


def test_ifs_rejects_expanding_maps(tmp_path):
    spec = tmp_path / "fat.json"
    doc = FIXTURES["sierpinski"]().to_json_dict()
    doc["maps"][0]["matrix"] = [["1.0", "0.0"], ["0.0", "1.0"]]
    spec.write_text(json.dumps(doc))
    res = invoke("ifs", "--spec", spec, "--out", tmp_path / "r.txt")
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")


def test_ifs_rejects_bad_delta(tmp_path, sier_spec):
    res = invoke("ifs", "--spec", sier_spec, "--delta", "-0.5",
                 "--out", tmp_path / "r.txt")
    assert res.exit_code == 2


@pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
def test_ifs_rejects_non_finite_delta(tmp_path, sier_spec, delta):
    res = invoke("ifs", "--spec", sier_spec, "--delta", delta,
                 "--out", tmp_path / "r.txt")
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")


@pytest.mark.parametrize("hint", ["0.01", "-1", "nan", "inf"])
def test_ifs_rejects_false_diameter_hint(tmp_path, hint):
    doc = FIXTURES["sierpinski"]().to_json_dict()
    doc["diameter_hint"] = hint
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps(doc))
    res = invoke("ifs", "--spec", spec, "--out", tmp_path / "r.txt")
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")


def test_ifs_depth_overrides_diameter(tmp_path, sier_spec):
    res = invoke("ifs", "--spec", sier_spec, "--depth", "7",
                 "--out", tmp_path / "r.txt")
    assert res.exit_code == 0
    # Depth-7 cloud measures slightly under the true diameter 1.
    assert "k0=17" in res.output


@pytest.mark.parametrize("depth", ["10000", "30000000"])
@pytest.mark.parametrize("command", ["ifs", "render"])
def test_huge_depth_exits_four_promptly(tmp_path, sier_spec, command, depth):
    out = tmp_path / "out"
    t0 = time.perf_counter()
    res = invoke(command, "--spec", sier_spec, "--depth", depth,
                 "--out", out)
    assert time.perf_counter() - t0 < 5.0
    assert res.exit_code == 4
    assert res.stderr.startswith(f"BUDGET: word count 3^{depth} exceeds ")
    assert len(res.stderr) < 80
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan", "1e308"])
@pytest.mark.parametrize("command", ["ifs", "render"])
def test_non_finite_or_overflowing_shift_exits_two(tmp_path, command,
                                                    value):
    # An overflowing finite shift passes the spec check and fails on the
    # cloud that both commands build.
    doc = FIXTURES["sierpinski"]().to_json_dict()
    doc["maps"][1]["shift"][0] = value
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "out"
    res = invoke(command, "--spec", spec, "--out", out)
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")
    assert ("non-finite" if value == "1e308" else "finite") in res.stderr
    assert not out.exists()


def _pair_spec(tmp_path, scale: str, shifts) -> Path:
    """One map x -> scale * x + (shift, 0) per shift, with no diameter
    hint."""
    doc = FIXTURES["sierpinski"]().to_json_dict()
    doc["diameter_hint"] = None
    doc["maps"] = [{"matrix": [[scale, "0"], ["0", scale]],
                    "shift": [shift, "0"]} for shift in shifts]
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps(doc))
    return spec


@pytest.mark.parametrize("command,scale,shift", [
    ("ifs", "0.1", "1.6e308"),  # finite cloud, widths overflow
    ("render", "0.1", "1.6e308"),
])
def test_cloud_too_wide_for_floats_exits_two(tmp_path, command, scale,
                                             shift):
    spec = _pair_spec(tmp_path, scale, ("-" + shift, "+" + shift))
    out = tmp_path / "out"
    res = invoke(command, "--spec", spec, "--out", out)
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE: cloud is too wide for floats")
    assert not out.exists()


def test_ifs_wide_cloud_has_no_scale_in_floats(tmp_path):
    # The cloud is about 4e200 wide, whose squared width overflows but
    # whose width does not.  Its ratio needs a word length past 7000 to
    # come within delta, where the scale has long left the normal floats:
    # 2^-1689 * 4e200 is below 2^-1022.
    spec = _pair_spec(tmp_path, "0.5", ("-1e200", "1e200"))
    out = tmp_path / "out"
    res = invoke("ifs", "--spec", spec, "--out", out)
    assert res.exit_code == 1
    assert res.stderr == ("VERIFY: no admissible word length before the "
                          "scale underflows at 1690\n")
    assert not out.exists()


def test_ifs_wide_cloud_finds_its_scale_past_the_power_underflow(tmp_path):
    # At delta 1 the same cloud's ratio comes within delta at k = 1335,
    # where 0.5^1334 alone is below the smallest float but the scale,
    # 0.5^1334 * 4e200, is a normal float.
    spec = _pair_spec(tmp_path, "0.5", ("-1e200", "1e200"))
    res = invoke("ifs", "--spec", spec, "--delta", "1",
                 "--out", tmp_path / "out")
    assert res.exit_code == 0, res.stderr
    assert "target slack delta=1.0000: k0=1335 eps0=1.06645e-201\n" in \
        res.output


def test_ifs_constant_maps_have_no_scale(tmp_path):
    # Ratio 0: the bound is 0, eps_1 = D = 1 is not below 1, and
    # eps_2 = 0 has left the floats.
    spec = _pair_spec(tmp_path, "0", ("0", "1"))
    out = tmp_path / "out"
    res = invoke("ifs", "--spec", spec, "--out", out)
    assert res.exit_code == 1
    assert res.stderr == ("VERIFY: no admissible word length before the "
                          "scale underflows at 2\n")
    assert not out.exists()


def test_ifs_one_constant_map_reports_bound_zero(tmp_path):
    spec = _pair_spec(tmp_path, "0", ("1",))
    res = invoke("ifs", "--spec", spec, "--out", tmp_path / "out")
    assert res.exit_code == 0, res.stderr
    assert res.output == ("ifs sierpinski: n=1 ratio=0 bound=0.0000\n"
                          "  single map: every scale is covered by one "
                          "piece\n")


def test_ifs_measures_a_cloud_narrower_than_squares_reach(tmp_path):
    # The depth-4 cloud is 1.875e-200 wide; the squares of its width
    # underflow to 0, which measured it as a point.
    spec = _pair_spec(tmp_path, "0.5", ("0", "1e-200"))
    out = tmp_path / "out"
    res = invoke("ifs", "--spec", spec, "--depth", "4", "--out", out)
    assert res.exit_code == 0, res.stderr
    assert "target slack delta=0.1000: k0=1 eps0=1.875e-200\n" in \
        out.read_text()


def test_render_draws_a_cloud_far_from_the_origin(tmp_path):
    # The cloud is 8 points on a segment of length 1 at x = 2e20, where
    # the float spacing is 16384: its window was 0 px wide.
    maps = [{"matrix": [["0.5", "0"], ["0", "0.5"]], "shift": ["1e20", y]}
            for y in ("0", "0.5")]
    spec = tmp_path / "far.json"
    spec.write_text(json.dumps({"format": "sdimlab/ifs", "version": 1,
                                "name": "far", "maps": maps}))
    out = tmp_path / "far.svg"
    res = invoke("render", "--spec", spec, "--depth", "3", "--out", out)
    assert res.exit_code == 0
    markers = decode_svg(out.read_text()).markers
    assert len(markers) == 8
    assert {x for x, _ in markers} == {400.0}


def test_one_map_deep_render_exits_four_promptly(tmp_path):
    doc = FIXTURES["sierpinski"]().to_json_dict()
    doc["maps"] = doc["maps"][:1]
    doc["diameter_hint"] = None
    spec = tmp_path / "solo.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "out.svg"
    t0 = time.perf_counter()
    res = invoke("render", "--spec", spec, "--depth", "30000000",
                 "--out", out)
    assert time.perf_counter() - t0 < 5.0
    assert res.exit_code == 4
    assert res.stderr.startswith("BUDGET: depth 30000000 exceeds ")
    assert not out.exists()


def test_one_map_deep_render_is_prompt(tmp_path):
    # A one-map cloud is the seed's orbit; here the seed is the map's fixed
    # point, so it repeats at once.  Walking all 10^6 levels took 2 s.
    doc = FIXTURES["sierpinski"]().to_json_dict()
    doc["maps"] = doc["maps"][1:2]
    doc["diameter_hint"] = None
    spec = tmp_path / "solo.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "out.svg"
    t0 = time.perf_counter()
    res = invoke("render", "--spec", spec, "--depth", "1000000",
                 "--out", out)
    assert time.perf_counter() - t0 < 2.0
    assert res.exit_code == 0
    assert len(decode_svg(out.read_text()).markers) == 1


# ---------------------------------------------------------------------------
# render


def test_render_graph_line_count(tmp_path, m3_graph):
    out = tmp_path / "m3.svg"
    res = invoke("render", "--graph", m3_graph, "--out", out)
    assert res.exit_code == 0
    assert len(decode_svg(out.read_text()).segments) == 10


@pytest.mark.parametrize("vertices,detail", [
    # float() of this coordinate overflows.
    ([["0", "0"], ["1" + "0" * 320, "0"]], "a vertex coordinate overflows"),
    # Every coordinate is a float; the window's height is not.
    ([["0", "-1" + "0" * 307], ["0", "1" + "0" * 307]],
     "its drawing window overflows"),
])
def test_graph_too_wide_for_floats_exits_two(tmp_path, vertices, detail):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"format": "sdimlab/plgraph", "version": 1,
                                 "vertices": vertices, "edges": [[0, 1]]}))
    out = tmp_path / "g.svg"
    res = invoke("render", "--graph", graph, "--out", out)
    assert res.exit_code == 2
    assert res.stderr == f"PARSE: graph is too wide for floats: {detail}\n"
    assert not out.exists()


def test_render_cloud_marker_count(tmp_path, sier_spec):
    out = tmp_path / "cloud.svg"
    res = invoke("render", "--spec", sier_spec, "--depth", "0",
                 "--out", out)
    assert res.exit_code == 0
    assert len(decode_svg(out.read_text()).markers) == 1
    res = invoke("render", "--spec", sier_spec, "--depth", "4",
                 "--out", out)
    assert len(decode_svg(out.read_text()).markers) == 81


def test_render_writer_holds_no_copy_of_the_text(tmp_path):
    # Building the document as one string took about five times the file
    # size at peak; the streamed writer holds a line at a time.  A graph
    # is the document that grows with its input: one line per edge, here
    # a zigzag of 40,000 edges across the window.
    n = 40_000
    graph = PLGraph([point(Fraction(i, n), Fraction(i % 2, 2))
                     for i in range(n + 1)], [(i, i + 1) for i in range(n)])
    lines = render_svg(graph)
    out = tmp_path / "g.svg"
    tracemalloc.start()
    try:
        _atomic_write(str(out), lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert len(decode_svg(out.read_text()).segments) == n
    assert size >= 400_000
    assert peak < size / 4


def test_render_requires_exactly_one_input(tmp_path, m3_graph, sier_spec):
    res = invoke("render", "--graph", m3_graph, "--spec", sier_spec,
                 "--out", tmp_path / "x.svg")
    assert res.exit_code == 2
    res = invoke("render", "--out", tmp_path / "x.svg")
    assert res.exit_code == 2


# ---------------------------------------------------------------------------
# usage

COMMANDS = ["build", "cover", "verify", "sweep", "ifs", "render"]


@pytest.mark.parametrize("args", [
    ["cover", "--graph", "{graph}", "--mode", "upper", "--out", "{out}"],
    ["bogus", "--graph", "{graph}"],
    ["cover", "--graph", "{graph}", "--epsilon", "1/2", "--mode", "bogus",
     "--out", "{out}"],
    ["sweep", "--graph", "{graph}", "--eps-start", "1/2", "--eps-factor",
     "1/2", "--steps", "abc", "--out", "{out}"],
    # Accepted as --epsilon, this line would run and exit 0.
    ["cover", "--graph", "{graph}", "--eps", "1/2", "--mode", "upper",
     "--out", "{out}"],
], ids=["missing-option", "unknown-command", "bad-choice", "bad-integer",
        "abbreviation"])
def test_usage_error_is_one_tagged_line(tmp_path, seg_graph_file, args):
    out = tmp_path / "out"
    res = invoke(*(a.format(graph=seg_graph_file, out=out) for a in args))
    assert res.exit_code == 2
    assert res.output == ""
    assert res.stderr.startswith("PARSE: ")
    assert res.stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("args, detail", [
    (["cover", "--graph", "{graph}", "--epsilon", "-1/2", "--out", "{out}"],
     "epsilon must be positive"),
    (["ifs", "--spec", "{spec}", "--delta", "-inf", "--out", "{out}"],
     "delta must be finite"),
])
def test_an_option_takes_a_value_that_starts_with_a_dash(
        tmp_path, seg_graph_file, sier_spec, args, detail):
    # The value reaches the command's own check; it is not an option.
    res = invoke(*(a.format(graph=seg_graph_file, spec=sier_spec,
                            out=tmp_path / "out") for a in args))
    assert res.exit_code == 2
    assert res.stderr.startswith(f"PARSE: {detail}")


def test_help_returns_zero_without_exiting(capsys):
    assert main(["--help"], prog_name="sdimlab", standalone_mode=False) == 0
    out = capsys.readouterr().out
    assert out.startswith("Usage: sdimlab ")
    for command in COMMANDS:
        assert f"    {command}" in out


def test_main_exits_with_the_code_in_standalone_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cover"], prog_name="sdimlab")
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("PARSE: ")


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_names_every_option_the_command_takes(command):
    res = invoke(command, "--help")
    assert res.exit_code == 0
    assert res.output.startswith(f"Usage: sdimlab {command} ")
    run = getattr(sdimlab.cli, f"cmd_{command}")
    params = inspect.signature(run).parameters
    assert params
    for name in params:
        option = "--" + name.removesuffix("_path").replace("_", "-")
        assert f"  {option} " in res.output, (option, res.output)


# ---------------------------------------------------------------------------
# import boundary


def _run_python(code: str, *args: str) -> str:
    """stdout of a fresh interpreter that imports sdimlab from this tree."""
    src = str(Path(sdimlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("module", ["scipy", "numpy", "_hashlib", "hashlib"])
def test_cli_import_does_not_load(module):
    # Every call, `--help` included, pays for what `sdimlab.cli` imports.
    probe = f"import sys, sdimlab.cli; print({module!r} in sys.modules)"
    assert _run_python(probe).strip() == "False"


# `import sdimlab.cli` and `main(["--help"])`, then print the modules they
# added.
_ADDED_BY_HELP = """
import contextlib, io, json, sys
before = set(sys.modules)
import sdimlab.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = sdimlab.cli.main(["--help"], prog_name="sdimlab",
                            standalone_mode=False)
assert code == 0, code
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_help_loads_only_the_standard_library_and_sdimlab():
    added = json.loads(_run_python(_ADDED_BY_HELP))
    assert "sdimlab.cli" in added
    foreign = [m for m in added if m.partition(".")[0] != "sdimlab"
               and m.partition(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


# Run one command as `python -m sdimlab.cli` does, then print, as the last
# line, the sdimlab modules it loaded.
_LOADED_BY = """
import json, runpy, sys
sys.argv[1:] = json.loads(sys.argv[1])
try:
    runpy.run_module("sdimlab.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
print(json.dumps(sorted(m for m in sys.modules if m.startswith("sdimlab."))))
"""

LAYERS = {"geom", "exactcore", "limits", "continuum", "cover", "dimension",
          "ifs", "render"}


@pytest.mark.parametrize("command, used, unused", [
    ("--help", set(), LAYERS),
    ("build", {"continuum"}, {"cover", "dimension", "ifs", "render"}),
    ("ifs", {"dimension", "ifs"}, {"cover", "continuum"}),
    ("render", {"render", "ifs"}, {"cover", "continuum"}),
])
def test_each_command_loads_only_its_layers(tmp_path, paper3_spec, command,
                                            used, unused):
    spec = tmp_path / "segment.ifs.json"
    spec.write_text(json.dumps(FIXTURES["segment"]().to_json_dict()))
    args = {
        "--help": [],
        "build": ["--spec", str(paper3_spec), "--out", str(tmp_path / "g")],
        "ifs": ["--spec", str(spec), "--out", str(tmp_path / "r.txt")],
        "render": ["--spec", str(spec), "--out", str(tmp_path / "s.svg")],
    }[command]
    out = _run_python(_LOADED_BY, json.dumps([command, *args]))
    loaded = {m.removeprefix("sdimlab.")
              for m in json.loads(out.splitlines()[-1])}
    if command == "--help":
        assert loaded == {"errors"}
    assert used <= loaded
    assert not unused & loaded


_WITHOUT_NUMPY = """
import json, sys

class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"{name} is blocked")

sys.meta_path.insert(0, NoNumpy())
from sdimlab.cli import main
for args in json.loads(sys.argv[1]):
    assert main(args, prog_name="sdimlab", standalone_mode=False) == 0
print("numpy" in sys.modules)
"""


def test_every_command_runs_without_numpy(tmp_path, paper3_spec, sier_spec):
    graph, cert = str(tmp_path / "g.json"), str(tmp_path / "c.json")
    commands = [
        ["build", "--spec", str(paper3_spec), "--out", graph],
        ["cover", "--graph", graph, "--epsilon", "1/8", "--mode", "both",
         "--out", cert],
        ["verify", "--graph", graph, "--cert",
         str(tmp_path / "c.lower.json")],
        ["sweep", "--graph", graph, "--eps-start", "1/4", "--eps-factor",
         "1/2", "--steps", "3", "--out", str(tmp_path / "p.csv")],
        ["ifs", "--spec", str(sier_spec), "--depth", "4",
         "--out", str(tmp_path / "r.txt")],
        ["render", "--spec", str(sier_spec), "--depth", "4",
         "--out", str(tmp_path / "s.svg")],
    ]
    out = _run_python(_WITHOUT_NUMPY, json.dumps(commands))
    assert out.splitlines()[-1] == "False"
    assert len(decode_svg((tmp_path / "s.svg").read_text()).markers) == 81
