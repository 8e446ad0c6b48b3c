"""Command-line contract: output lines, file formats, exit codes.

Exit codes under test: 0 success, 1 verification failure, 2 parse error,
4 budget, 5 too few scales.  Error text must start with the machine tag.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import sdimlab
from sdimlab import PLGraph, point, read_profile_csv
from sdimlab.cli import _atomic_write, _read_members, _write_json, main
from sdimlab.cover import (certificate_from_json_dict, lower_separation,
                           truncation_guard, upper_cover)
from sdimlab.ifs import FIXTURES, attractor_cloud
from sdimlab.render import render_cloud_svg

runner = CliRunner()


def invoke(*args, env=None):
    return runner.invoke(main, [str(a) for a in args], env=env,
                         catch_exceptions=False)


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
    low = lower_separation(m3, eps, guard=truncation_guard(m3, eps))
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


def test_json_writer_holds_no_copy_of_the_text(tmp_path, m3):
    # The indented writer allocated about six times the file size at
    # peak; the streamed one holds a few I/O buffers whatever the size.
    doc = upper_cover(m3, Fraction(1, 1024)).to_json_dict()
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


def test_cover_applies_guard_on_built_hosts(tmp_path, m3_graph):
    out = tmp_path / "low.json"
    res = invoke("cover", "--graph", m3_graph, "--epsilon", "1/8",
                 "--mode", "lower", "--out", out)
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["guard"] is not None
    assert doc["guard"]["K"] == 3
    assert len(doc["points"]) >= 2


@pytest.mark.parametrize("eps", ["0.5", "1e-3", "0/1", "-1/2", "half"])
def test_cover_rejects_non_rational_scales(tmp_path, seg_graph_file, eps):
    res = invoke("cover", "--graph", seg_graph_file, "--epsilon", eps,
                 "--mode", "both", "--out", tmp_path / "c.json")
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")


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
    del doc["elements"][0]
    cert.write_text(json.dumps(doc))
    res = invoke("verify", "--graph", seg_graph_file, "--cert", cert)
    assert res.exit_code == 1
    assert res.stderr.startswith("VERIFY:")


def test_verify_empty_element_exits_one(tmp_path, seg_graph_file):
    cert = tmp_path / "c.json"
    invoke("cover", "--graph", seg_graph_file, "--epsilon", "1/2",
           "--mode", "upper", "--out", cert)
    doc = json.loads(cert.read_text())
    doc["elements"].append([])
    cert.write_text(json.dumps(doc))
    res = invoke("verify", "--graph", seg_graph_file, "--cert", cert)
    assert res.exit_code == 1
    assert res.stderr.startswith("VERIFY:")


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


def test_verify_refuses_v1_cover_document(tmp_path, seg_graph_file):
    cert = tmp_path / "c.json"
    invoke("cover", "--graph", seg_graph_file, "--epsilon", "1/2",
           "--mode", "upper", "--out", cert)
    doc = json.loads(cert.read_text())
    doc["version"] = 1
    doc["elements"] = [{"anchor_vertices": [], "partial_edges": el,
                        "whole_edges": []} for el in doc["elements"]]
    cert.write_text(json.dumps(doc))
    res = invoke("verify", "--graph", seg_graph_file, "--cert", cert)
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")


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
    cert.write_text(json.dumps({"format": "sdimlab/cover", "version": 2,
                                "graph_id": graph_id, "epsilon": "1/2",
                                "elements": []}))
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


@pytest.mark.parametrize("element", [
    [[0.7, "0", "1"], [1.2, "0", "1"]],
    [[0, "0", "1"], ["1", "0", "1"]],
    [[0, "0", "1"], [True, "0", "1"]],
], ids=["float-edges", "string-edge", "bool-edge"])
def test_verify_refuses_fragment_edges_that_are_not_integers(
        tmp_path, lshape_graph, element):
    # Read through int(), the first element verified as upper=1.
    host = tmp_path / "l.graph.json"
    host.write_text(json.dumps(lshape_graph.to_json_dict()))
    cert = tmp_path / "c.json"
    doc = {"format": "sdimlab/cover", "version": 2,
           "graph_id": lshape_graph.graph_id(), "epsilon": "3",
           "elements": [[[0, "0", "1"], [1, "0", "1"]]]}
    cert.write_text(json.dumps(doc))
    res = invoke("verify", "--graph", host, "--cert", cert)
    assert res.exit_code == 0 and res.output.strip() == "upper=1"
    cert.write_text(json.dumps({**doc, "elements": [element]}))
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
    lambda doc: {**doc, "elements": [5] + doc["elements"]},
    lambda doc: {**doc, "elements": [["whole_edges"]]},
    lambda doc: {**doc, "epsilon": 5},
    lambda doc: {**doc, "elements": [[[0, 0, 1]]]},
    lambda doc: {**doc, "elements": [{"partial_edges": [[0, "0", "1"]]}]},
    lambda doc: {**doc, "elements": [["101"]]},
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


def test_verify_reader_holds_no_decoded_copy(tmp_path, w6):
    # `json.load` held the decoded tree of the whole document while the
    # certificate was built from it, about seven times the file size
    # beyond the certificate; the streamed reader holds the text and one
    # item.
    eps = Fraction(1, 512)
    cert = tmp_path / "up.json"
    _write_json(str(cert), upper_cover(w6, eps).json_members())
    size = cert.stat().st_size
    tracemalloc.start()
    try:
        back = certificate_from_json_dict(_read_members(str(cert)))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size >= 100_000
    assert len(back.elements) == 3958
    assert peak - kept < 2 * size
    graph = tmp_path / "w6.json"
    _write_json(str(graph), w6.to_json_dict())
    res = invoke("verify", "--graph", graph, "--cert", cert)
    assert res.exit_code == 0 and res.output.strip() == "upper=3958"


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


@pytest.mark.parametrize("command,scale,shift", [
    ("ifs", "0.5", "1e200"),    # finite cloud, squared widths overflow
    ("ifs", "0.1", "1.6e308"),  # finite cloud, widths overflow
    ("render", "0.1", "1.6e308"),
])
def test_cloud_too_wide_for_floats_exits_two(tmp_path, command, scale,
                                             shift):
    doc = FIXTURES["sierpinski"]().to_json_dict()
    doc["diameter_hint"] = None
    doc["maps"] = [{"matrix": [[scale, "0"], ["0", scale]],
                    "shift": [sign + shift, "0"]} for sign in "-+"]
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "out"
    res = invoke(command, "--spec", spec, "--out", out)
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE: cloud is too wide for floats")
    assert not out.exists()


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
    assert out.read_text().count("<circle") == 1


# ---------------------------------------------------------------------------
# render


def test_render_graph_line_count(tmp_path, m3_graph):
    out = tmp_path / "m3.svg"
    res = invoke("render", "--graph", m3_graph, "--out", out)
    assert res.exit_code == 0
    assert out.read_text().count("<line") == 10


def test_render_cloud_marker_count(tmp_path, sier_spec):
    out = tmp_path / "cloud.svg"
    res = invoke("render", "--spec", sier_spec, "--depth", "0",
                 "--out", out)
    assert res.exit_code == 0
    assert out.read_text().count("<circle") == 1
    res = invoke("render", "--spec", sier_spec, "--depth", "4",
                 "--out", out)
    assert out.read_text().count("<circle") == 81


def test_render_writer_holds_no_copy_of_the_text(tmp_path):
    # Building the document as one string took about five times the file
    # size at peak; the streamed writer holds a line at a time.
    cloud = attractor_cloud(FIXTURES["sierpinski"](), 8)
    out = tmp_path / "g.svg"
    tracemalloc.start()
    try:
        _atomic_write(str(out), render_cloud_svg(cloud))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert out.read_text().count("<circle") == 3 ** 8
    assert size >= 400_000
    assert peak < size / 4


def test_render_requires_exactly_one_input(tmp_path, m3_graph, sier_spec):
    res = invoke("render", "--graph", m3_graph, "--spec", sier_spec,
                 "--out", tmp_path / "x.svg")
    assert res.exit_code == 2
    res = invoke("render", "--out", tmp_path / "x.svg")
    assert res.exit_code == 2


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


_WITHOUT_NUMPY = """
import json, sys

class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"{name} is blocked")

sys.meta_path.insert(0, NoNumpy())
from sdimlab.cli import main
for args in json.loads(sys.argv[1]):
    main.main(args=args, prog_name="sdimlab", standalone_mode=False)
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
    assert (tmp_path / "s.svg").read_text().count("<circle") == 81
