"""The package's exports and the forwarders that load each layer on first use.

`sdimlab` imports its submodules only when one of their names is first
asked for, and `cli` and `dimension` bind the functions they call to
forwarders made by `sdimlab._lazy`.  These tests pin what the package
exports and check that every forwarder reaches the function it names,
and that every mutant of `tests/mutants.py` still edits one place.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mutants import MUTANTS
from reference import FIXTURES

import sdimlab
from sdimlab import cli, dimension

SUBMODULES = ("continuum", "cover", "dimension", "errors", "exactcore",
              "geom", "ifs", "limits", "render")

EXPORTS = (
    "AffineMap2", "Budget", "BudgetExceeded", "CoverCertificate",
    "DimensionProfile", "DisconnectedInput", "HostMismatch", "IFSSpec",
    "PLGraph", "ParseError", "Point", "ScaleRow", "SdimlabError", "Segment",
    "SeparationCertificate", "SizeLimit", "TooFewScales", "ToothSequenceSpec",
    "TruncationGuard", "VerificationFailure",
    "arrange", "attractor_hull", "build_shark_teeth",
    "certificate_from_json_dict", "check_cover", "check_separation",
    "cloud_diameter", "continuum", "cover", "dimension", "errors",
    "exactcore", "find_k0", "format_rational", "geom", "ifs",
    "ifs_bound_report", "ifs_dimension_bound", "limits", "lip_affine",
    "lower_separation", "make_row", "n_k", "next_amplitude_bound",
    "parse_rational", "point", "predicted_counts", "read_profile_csv",
    "render", "render_cloud_svg", "render_svg", "s_bounds", "scale_ratio",
    "sdim_estimate", "segment", "spec_from_meta", "sweep", "tooth_height",
    "tooth_polyline", "truncation_guard", "upper_cover", "write_profile_csv",
)


def test_all_is_pinned():
    assert len(EXPORTS) == 62
    assert sdimlab.__all__ == sorted(EXPORTS)


def test_every_export_resolves_and_is_listed():
    listed = dir(sdimlab)
    for name in EXPORTS:
        value = getattr(sdimlab, name)
        assert name in listed
        if name in SUBMODULES:
            assert value is importlib.import_module(f"sdimlab.{name}")
        else:
            assert not inspect.ismodule(value)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        sdimlab.nothing  # noqa: B018
    with pytest.raises(ImportError):
        exec("from sdimlab import nothing", {})


# A fresh interpreter: `import sdimlab` loads no submodule, and a star
# import binds every export.
_STAR = """
import json, sys
import sdimlab
before = sorted(m for m in sys.modules if m.startswith("sdimlab."))
namespace = {}
exec("from sdimlab import *", namespace)
print(json.dumps([before, sorted(n for n in namespace
                                 if not n.startswith("__"))]))
"""


def test_star_import_binds_every_export_from_cold():
    src = str(Path(sdimlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", _STAR], env=env,
                         capture_output=True, text=True, check=True)
    before, bound = json.loads(out.stdout)
    assert before == []
    assert bound == sorted(EXPORTS)


def _forwarders(module) -> dict[str, tuple[str, str]]:
    """Every forwarder bound in `module`: name -> (module path, target)."""
    code = sdimlab._lazy("limits", "from_env").__code__
    found = {}
    for name, value in vars(module).items():
        if getattr(value, "__code__", None) is code:
            free = inspect.getclosurevars(value).nonlocals
            found[name] = (free["path"], free["name"])
    return found


# The one forwarder bound under another name: the benchmark's tracer
# wraps `cli.attractor_cloud`, the hull's name before it replaced the
# cloud, until its stats record replaces the wrapping (ROADMAP item 8).
_RENAMED = {"attractor_cloud": "attractor_hull"}


@pytest.mark.parametrize("module", [cli, dimension],
                         ids=["cli", "dimension"])
def test_every_forwarder_calls_the_function_it_names(module, monkeypatch):
    forwarders = _forwarders(module)
    assert forwarders
    for name, (path, target) in forwarders.items():
        assert _RENAMED.get(name, name) == target == \
            module.__dict__[name].__name__
        calls = []

        def stand_in(*args, **kwargs):
            calls.append((args, kwargs))
            return calls
        monkeypatch.setattr(importlib.import_module(path), target, stand_in)
        assert getattr(module, name)(1, two=2) is calls
        assert calls == [((1,), {"two": 2})]


def test_forwarders_give_what_their_functions_give(m3):
    from sdimlab import cover, ifs

    eps = Fraction(1, 8)
    assert (cli.lower_separation(m3, eps, guard=cli.truncation_guard(m3, eps))
            == cover.lower_separation(m3, eps,
                                      guard=cover.truncation_guard(m3, eps)))
    assert cli.upper_cover(m3, eps) == cover.upper_cover(m3, eps)
    assert dimension.upper_cover(m3, eps) == cover.upper_cover(m3, eps)
    assert cli.sweep(m3, [Fraction(1, 4), eps]) == dimension.sweep(
        m3, [Fraction(1, 4), eps])
    spec = FIXTURES["segment"]()
    assert cli.attractor_cloud(spec, 3) == ifs.attractor_hull(spec, 3)
    assert dimension.find_k0(spec, 0.1) == ifs.find_k0(spec, 0.1)
    assert cli.parse_rational("3/6") == Fraction(1, 2)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_every_mutant_edits_one_place_in_src(mutant):
    # Each old text occurs once in `src/`, in the mutant's file, and each
    # test that kills it is defined where its id says.
    src = Path(sdimlab.__file__).resolve().parent
    counts = {f.name: f.read_text().count(mutant.old)
              for f in src.glob("*.py")}
    assert {name: n for name, n in counts.items() if n} == {mutant.file: 1}
    assert mutant.kills
    root = src.parents[1]
    for test_id in mutant.kills:
        path, _, name = test_id.partition("::")
        assert f"def {name.split('[')[0]}(" in (root / path).read_text()
