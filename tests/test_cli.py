"""Command-line contract: output lines, file formats, exit codes.

Exit codes under test: 0 success, 1 verification failure, 2 parse error,
4 budget, 5 too few scales.  Error text must start with the machine tag.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import sdimlab
from sdimlab import PLGraph, read_profile_csv
from sdimlab.cli import main
from sdimlab.ifs import FIXTURES

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
    doc["elements"].append({"whole_edges": [], "partial_edges": [],
                            "anchor_vertices": []})
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


def test_verify_rejects_non_certificate(tmp_path, seg_graph_file):
    junk = tmp_path / "junk.json"
    junk.write_text(json.dumps({"format": "sdimlab/etc"}))
    res = invoke("verify", "--graph", seg_graph_file, "--cert", junk)
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE:")


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


def test_render_requires_exactly_one_input(tmp_path, m3_graph, sier_spec):
    res = invoke("render", "--graph", m3_graph, "--spec", sier_spec,
                 "--out", tmp_path / "x.svg")
    assert res.exit_code == 2
    res = invoke("render", "--out", tmp_path / "x.svg")
    assert res.exit_code == 2


# ---------------------------------------------------------------------------
# import boundary


def test_cli_import_does_not_load_scipy():
    # Every call, `--help` included, pays for what `sdimlab.cli` imports.
    src = str(Path(sdimlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    probe = "import sys, sdimlab.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
