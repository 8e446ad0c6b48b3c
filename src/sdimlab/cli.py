"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 parse or usage error,
3 crossing assertion, 4 budget or size limit, 5 too few scales for the
dimension proxy.  Errors land on stderr as "TAG: detail" with a stable
machine-matchable tag.  Scale parameters cross this boundary only as
exact "p/q" strings; decimals are rejected so no binary-decimal drift can
leak into certificates.  All output files are written atomically, with
the mode the umask gives a new file.  JSON outputs are streamed: sorted
top-level keys, one line per item of a top-level array.  Certificates
are streamed both ways: written one item at a time, and read one
top-level array item at a time.
"""

from __future__ import annotations

import functools
import io
import json
import math
import os
import re
import sys
import tempfile
from collections.abc import Iterator
from fractions import Fraction
from json import JSONDecoder
from typing import Iterable, NoReturn

import click

from .continuum import ToothSequenceSpec, build_shark_teeth
from .cover import (CoverCertificate, SeparationCertificate,
                    certificate_from_json_dict, check_cover,
                    check_separation, lower_separation, truncation_guard,
                    upper_cover)
from .dimension import ifs_bound_report, sdim_estimate, sweep, \
    write_profile_csv
from .errors import (BudgetExceeded, CrossingAssertionFailure, HostMismatch,
                     ParseError, SdimlabError, SizeLimit, TooFewScales,
                     TooLarge, VerificationFailure)
from .geom import PLGraph, parse_rational
from .ifs import IFSSpec, attractor_cloud, cloud_diameter
from .limits import from_env
from .render import render_cloud_svg, render_svg

_EXIT_FOR = {
    VerificationFailure: 1,
    HostMismatch: 1,
    ParseError: 2,
    CrossingAssertionFailure: 3,
    BudgetExceeded: 4,
    SizeLimit: 4,
    TooLarge: 4,
    TooFewScales: 5,
}


def _cli_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SdimlabError as exc:
            click.echo(f"{exc.tag}: {exc}", err=True)
            sys.exit(_EXIT_FOR.get(type(exc), 2))
    return wrapper


def _positive_rational(text: str, what: str) -> Fraction:
    value = parse_rational(text)
    if value <= 0:
        raise ParseError(f"{what} must be positive, got {text!r}")
    return value


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


_WHITESPACE = re.compile(r"[ \t\n\r]*")
_raw_decode = JSONDecoder().raw_decode


def _read_members(path: str) -> Iterator[tuple[str, object]]:
    """The members of the JSON object in `path`, in document order, for
    `certificate_from_json_dict`.

    The value of a member that is an array comes as an iterator that
    decodes one item per step, so the document is never held decoded
    whole.  Its items must be drawn before the next member; any left
    undrawn are skipped.  Any JSON layout is accepted, and a document
    that `json.load` would refuse, or that is not an object, is a
    `ParseError`.
    """
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    i = 0

    def fail(what: str) -> NoReturn:
        raise ParseError(f"{path} is not valid JSON: {what}: char {i}")

    def skip(chars: str) -> str:
        """Skip whitespace, then one of `chars`, which is returned."""
        nonlocal i
        i = _WHITESPACE.match(text, i).end()
        c = text[i:i + 1]
        if not c or c not in chars:
            fail("Expecting " + " or ".join(map(repr, chars)))
        i += 1
        return c

    def value():
        nonlocal i
        i = _WHITESPACE.match(text, i).end()
        try:
            v, i = _raw_decode(text, i)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path} is not valid JSON: {exc}") from exc
        return v

    def items() -> Iterator:
        nonlocal i
        i = _WHITESPACE.match(text, i).end()
        if text.startswith("]", i):
            i += 1
            return
        while True:
            yield value()
            if skip(",]") == "]":
                return

    skip("{")
    i = _WHITESPACE.match(text, i).end()
    if text.startswith("}", i):
        i += 1
    else:
        while True:
            i = _WHITESPACE.match(text, i).end()
            if not text.startswith('"', i):
                fail("Expecting property name enclosed in double quotes")
            key = value()
            skip(":")
            i = _WHITESPACE.match(text, i).end()
            if text.startswith("[", i):
                i += 1
                rest = items()
                yield key, rest
                for _ in rest:
                    pass
            else:
                yield key, value()
            if skip(",}") == "}":
                break
    if _WHITESPACE.match(text, i).end() != len(text):
        fail("Extra data")


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks to a temp file beside `path`, then rename it over
    `path`.  The file gets the mode a plain `open` would give it."""
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target),
                               prefix="." + os.path.basename(target) + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            # mkstemp creates 0600; reading the umask means setting it.
            mask = os.umask(0)
            os.umask(mask)
            os.fchmod(f.fileno(), 0o666 & ~mask)
            f.writelines(chunks)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _json_chunks(doc: dict) -> Iterator[str]:
    """`doc` as JSON text, in chunks: top-level keys sorted, one line per
    key and per item of a top-level array, every value compact.  A
    top-level array may be given as an iterator, which is drawn one item
    per chunk."""
    def dumps(value) -> str:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))

    yield "{"
    sep = "\n"
    for key in sorted(doc):
        value = doc[key]
        yield sep + dumps(key) + ":"
        sep = ",\n"
        if isinstance(value, (list, Iterator)):
            head = "[\n"
            for item in value:
                yield head + dumps(item)
                head = ",\n"
            yield "[]" if head == "[\n" else "\n]"
        else:
            yield dumps(value)
    yield "\n}\n"


def _write_json(path: str, doc: dict) -> None:
    _atomic_write(path, _json_chunks(doc))


def _check_distinct(out: str, *ins: str) -> None:
    for inp in ins:
        if inp and os.path.abspath(inp) == os.path.abspath(out):
            raise ParseError(f"output path {out!r} equals an input path")


def _load_graph(path: str) -> PLGraph:
    return PLGraph.from_json_dict(_read_json(path))


@click.group()
def main() -> None:
    """Certified connected-cover bounds for plane continua and IFS
    attractors."""


@main.command("build")
@click.option("--spec", "spec_path", required=True, metavar="FILE",
              help="Tooth sequence spec (JSON).")
@click.option("--out", "out_path", required=True, metavar="FILE",
              help="Graph file to write.")
@_cli_errors
def cmd_build(spec_path: str, out_path: str) -> None:
    """Build a shark-teeth truncation as an exact plane graph."""
    _check_distinct(out_path, spec_path)
    spec = ToothSequenceSpec.from_json_dict(_read_json(spec_path))
    graph = build_shark_teeth(spec, budget=from_env())
    _write_json(out_path, graph.to_json_dict())
    click.echo(f"{len(graph.vertices)} vertices, {len(graph.edges)} edges")


def _cover_out_paths(out_path: str, mode: str) -> dict[str, str]:
    if mode != "both":
        return {mode: out_path}
    stem, ext = os.path.splitext(out_path)
    if not ext:
        ext = ".json"
    return {"lower": f"{stem}.lower{ext}", "upper": f"{stem}.upper{ext}"}


@main.command("cover")
@click.option("--graph", "graph_path", required=True, metavar="FILE")
@click.option("--epsilon", required=True, metavar="P/Q",
              help="Scale as an exact rational.")
@click.option("--mode", type=click.Choice(["upper", "lower", "both"]),
              default="both", show_default=True)
@click.option("--out", "out_path", required=True, metavar="FILE",
              help="Certificate file; mode=both derives .lower/.upper names.")
@_cli_errors
def cmd_cover(graph_path: str, epsilon: str, mode: str, out_path: str) -> None:
    """Compute certified bounds at one scale and write the certificates.

    On hosts built by the shark-teeth builder the lower bound is guarded
    (see `truncation_guard`): its points clear the omitted-amplitude
    threshold, so the certificate holds for the ambient continuum, not
    just the truncation.
    """
    _check_distinct(out_path, graph_path)
    eps = _positive_rational(epsilon, "epsilon")
    graph = _load_graph(graph_path)
    budget = from_env()
    paths = _cover_out_paths(out_path, mode)
    shown = []
    if "lower" in paths:
        low = lower_separation(graph, eps, guard=truncation_guard(graph, eps),
                               budget=budget)
        _check_distinct(paths["lower"], graph_path)
        _write_json(paths["lower"], low.json_members())
        shown.append(f"lower={len(low.points)}")
    if "upper" in paths:
        up = upper_cover(graph, eps, budget=budget)
        _check_distinct(paths["upper"], graph_path)
        _write_json(paths["upper"], up.json_members())
        shown.append(f"upper={len(up.elements)}")
    click.echo(" ".join(shown))


@main.command("verify")
@click.option("--graph", "graph_path", required=True, metavar="FILE")
@click.option("--cert", "cert_path", required=True, metavar="FILE")
@_cli_errors
def cmd_verify(graph_path: str, cert_path: str) -> None:
    """Recheck a certificate against its host graph from scratch."""
    graph = _load_graph(graph_path)
    cert = certificate_from_json_dict(_read_members(cert_path))
    budget = from_env()
    if isinstance(cert, CoverCertificate):
        click.echo(f"upper={check_cover(graph, cert, budget)}")
    else:
        assert isinstance(cert, SeparationCertificate)
        click.echo(f"lower={check_separation(graph, cert, budget)}")


@main.command("sweep")
@click.option("--graph", "graph_path", required=True, metavar="FILE")
@click.option("--eps-start", required=True, metavar="P/Q")
@click.option("--eps-factor", required=True, metavar="P/Q",
              help="Geometric step, strictly between 0 and 1.")
@click.option("--steps", required=True, type=int)
@click.option("--out", "out_path", required=True, metavar="FILE",
              help="Profile CSV to write.")
@_cli_errors
def cmd_sweep(graph_path: str, eps_start: str, eps_factor: str, steps: int,
              out_path: str) -> None:
    """Sweep a geometric scale schedule and write the profile CSV.

    The CSV lands on disk even when the schedule is too short for the
    dimension proxy; the proxy failure is then reported as exit code 5.
    """
    _check_distinct(out_path, graph_path)
    start = _positive_rational(eps_start, "eps-start")
    factor = _positive_rational(eps_factor, "eps-factor")
    if not factor < 1:
        raise ParseError(f"eps-factor must be below 1, got {eps_factor!r}")
    if steps < 1:
        raise ParseError(f"steps must be >= 1, got {steps}")
    graph = _load_graph(graph_path)
    schedule = [start * factor ** i for i in range(steps)]
    profile = sweep(graph, schedule, budget=from_env())
    buf = io.StringIO()
    write_profile_csv(profile, buf)
    _atomic_write(out_path, [buf.getvalue()])
    low, high = sdim_estimate(profile)
    click.echo(f"sdim proxy [{low:.6f}, {high:.6f}]")


@main.command("ifs")
@click.option("--spec", "spec_path", required=True, metavar="FILE",
              help="IFS spec (JSON).")
@click.option("--delta", type=float, default=0.1, show_default=True,
              help="Slack over the dimension bound.")
@click.option("--depth", type=int, default=None,
              help="Cloud depth for the diameter measurement "
                   "(default: fixture hint or a size-capped cloud).")
@click.option("--out", "out_path", required=True, metavar="FILE",
              help="Report file to write.")
@_cli_errors
def cmd_ifs(spec_path: str, delta: float, depth: int | None,
            out_path: str) -> None:
    """Dimension-bound report for an IFS: bound, k0, eps0, per-scale table."""
    _check_distinct(out_path, spec_path)
    spec = IFSSpec.from_json_dict(_read_json(spec_path))
    if not math.isfinite(delta) or delta <= 0:
        raise ParseError(f"delta must be finite and positive, got {delta}")
    budget = from_env()
    diameter = None
    if depth is not None:
        if depth < 0:
            raise ParseError(f"depth must be >= 0, got {depth}")
        diameter = cloud_diameter(attractor_cloud(spec, depth, budget=budget))
        if diameter <= 0:
            raise ParseError(
                f"depth {depth} cloud is a single point; cannot measure "
                f"a diameter from it")
    report = ifs_bound_report(spec, delta, diameter=diameter, budget=budget)
    _atomic_write(out_path, [report])
    click.echo(report, nl=False)


@main.command("render")
@click.option("--graph", "graph_path", default=None, metavar="FILE")
@click.option("--spec", "spec_path", default=None, metavar="FILE",
              help="IFS spec; rendered as a point cloud.")
@click.option("--depth", type=int, default=6, show_default=True,
              help="Cloud depth for IFS rendering.")
@click.option("--out", "out_path", required=True, metavar="FILE",
              help="SVG file to write.")
@_cli_errors
def cmd_render(graph_path: str | None, spec_path: str | None, depth: int,
               out_path: str) -> None:
    """Draw a graph (lines) or an IFS attractor cloud (markers) as SVG."""
    if (graph_path is None) == (spec_path is None):
        raise ParseError("pass exactly one of --graph and --spec")
    _check_distinct(out_path, graph_path or "", spec_path or "")
    if graph_path is not None:
        lines = render_svg(_load_graph(graph_path))
    else:
        spec = IFSSpec.from_json_dict(_read_json(spec_path))
        if depth < 0:
            raise ParseError(f"depth must be >= 0, got {depth}")
        lines = render_cloud_svg(attractor_cloud(spec, depth,
                                                 budget=from_env()))
    _atomic_write(out_path, lines)


if __name__ == "__main__":
    main()
