"""The names `perfbench/tracing.py` patches must exist where it looks them up.

The tracer wraps each function in the namespace its caller reads it from
and restores `owner.__dict__[attr]` afterwards, so a renamed or dropped
name breaks the benchmark's traced run.  The module is read, not
imported, so no bytecode is written next to it.
"""

from __future__ import annotations

import importlib
import types
from fractions import Fraction
from pathlib import Path

import pytest

from sdimlab.cover import lower_separation

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


tracing = _tracing()


@pytest.mark.parametrize("module, attr, span", tracing.SPANS,
                         ids=[f"{m}.{a}" for m, a, _ in tracing.SPANS])
def test_every_span_target_is_bound_in_its_module(module, attr, span):
    assert attr in vars(importlib.import_module(module))


@pytest.mark.parametrize("module, cls, meth, span", tracing.METHOD_SPANS,
                         ids=[f"{c}.{m}" for _, c, m, _ in
                              tracing.METHOD_SPANS])
def test_every_method_span_target_is_defined_on_its_class(module, cls, meth,
                                                          span):
    assert meth in vars(getattr(importlib.import_module(module), cls))


@pytest.mark.parametrize("kernel", tracing.KERNELS)
def test_every_counted_kernel_is_bound_in_exactcore(kernel):
    assert kernel in vars(importlib.import_module("sdimlab.exactcore"))


def test_lower_separation_result_has_what_the_tracer_reads(m3):
    # The tracer counts the points and iterates the witnesses, of which a
    # separation certificate has none.
    result = lower_separation(m3, Fraction(1, 8))
    assert len(result.points) > 0
    assert list(iter(result.witnesses)) == []
    tracer = tracing.Tracer()
    tracer._observe("cover.lower_separation", result)
    counts = tracer.layer_counts()
    assert counts["cover.points"] == len(result.points)
    assert counts["cover.witnesses.disconnection"] == 0
