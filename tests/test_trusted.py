"""The trusted base of `verify`: every function of `src/` it runs.

`tests/trusted.txt` lists them, one `module.qualname` a line.  A change
that makes `verify` reach a function it did not reach, or no longer reach
one it did, fails here until the list is edited with it, so the code a
certificate's claim rests on stays listed and in view.

The names come from the source, not from `co_qualname`, which Python
3.10 lacks: each module is compiled again and its code objects are named
by where they nest, so every version prints the same list.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import pkgutil
import sys
import types
from fractions import Fraction
from pathlib import Path

import sdimlab
from sdimlab import (PLGraph, cli, lower_separation, truncation_guard,
                     upper_cover)

TRUSTED = Path(__file__).resolve().parent / "trusted.txt"


def _nested(code: types.CodeType, prefix: str):
    """(code, qualname) for each code object defined inside `code`."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            name = prefix + const.co_name
            yield const, name
            # A class body is not an optimized frame; its functions are
            # methods, not locals.
            local = const.co_flags & inspect.CO_OPTIMIZED
            yield from _nested(const, name + (".<locals>." if local else "."))


def _qualnames() -> dict[types.CodeType, str]:
    """Code object -> `module.qualname` for every function in `sdimlab`,
    lambdas, comprehensions and module bodies left out.  Importing every
    module first keeps import-time calls out of the trace."""
    names = {}
    modules = ["sdimlab"] + [f"sdimlab.{m.name}" for m in
                             pkgutil.iter_modules(sdimlab.__path__)]
    for module in modules:
        path = importlib.import_module(module).__file__
        # A recompiled code object compares equal to the imported one, so
        # it keys the lookup; this file's future flags must not leak in.
        code = compile(Path(path).read_bytes(), path, "exec",
                       dont_inherit=True)
        for c, name in _nested(code, ""):
            if not c.co_name.startswith("<"):
                names[c] = f"{module}.{name}"
    return names


def _verify_reaches(runs: list[tuple[Path, Path]]) -> set[str]:
    names = _qualnames()
    reached = set()

    def on_call(frame, event, arg):
        name = names.get(frame.f_code)
        if name is not None:
            reached.add(name)

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        for graph, cert in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["verify", "--graph", str(graph),
                                 "--cert", str(cert)], prog_name="sdimlab",
                                standalone_mode=False)
            assert code == 0
    finally:
        sys.settrace(previous)
    return reached


def test_verify_runs_exactly_the_listed_trusted_base(m3, tmp_path):
    eps = Fraction(1, 16)
    plain = PLGraph(m3.vertices, m3.edges)
    docs = {
        "m3.graph.json": m3.to_json_dict(),
        "plain.graph.json": plain.to_json_dict(),
        "guarded.json": lower_separation(
            m3, eps, guard=truncation_guard(m3, eps)).json_members(),
        "unguarded.json": lower_separation(plain, eps).json_members(),
        "upper.json": upper_cover(m3, eps).json_members(),
    }
    for name, doc in docs.items():
        cli._write_json(tmp_path / name, doc)
    reached = _verify_reaches([
        (tmp_path / "m3.graph.json", tmp_path / "guarded.json"),
        (tmp_path / "plain.graph.json", tmp_path / "unguarded.json"),
        (tmp_path / "m3.graph.json", tmp_path / "upper.json"),
    ])
    listed = {line for line in TRUSTED.read_text().splitlines()
              if line and not line.startswith("#")}
    assert sorted(reached - listed) == [], "reached but not listed"
    assert sorted(listed - reached) == [], "listed but not reached"
