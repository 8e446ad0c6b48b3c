"""Command-line front end: one stdlib `argparse` parser, six subcommands.

Exit codes: 0 success, 1 verification failure, 2 parse or usage error,
4 budget or size limit, 5 too few scales for the dimension proxy.  Errors
land on stderr as one "TAG: detail" line with a stable machine-matchable
tag; a usage error (a missing or unknown option, a bad choice or
integer) is "PARSE: ..." with exit code 2.  `main` maps every error to
its line and exit code in one place.  Options must be spelled out in
full, and a value-taking option takes the next argument as its value
even when that argument starts with "-".

Scale parameters cross this boundary only as exact "p/q" strings;
decimals are rejected so no binary-decimal drift can leak into
certificates.  All output files are written atomically, with
the mode the umask gives a new file.  JSON outputs have sorted top-level
keys and one line per item of a top-level array.  Every JSON input, a
certificate included, is read with `json.load`.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import tempfile
from typing import TYPE_CHECKING, Iterable, Iterator, NoReturn

from . import _lazy
from .errors import (BudgetExceeded, HostMismatch, ParseError, SdimlabError,
                     SizeLimit, TooFewScales, VerificationFailure)

if TYPE_CHECKING:
    from fractions import Fraction

    from .geom import PLGraph

# Each layer is imported when a command first calls into it, so `--help`
# loads the standard library and `errors` only.  The names stay bound
# here because a tracer wraps them where this module looks them up.
build_shark_teeth = _lazy("continuum", "build_shark_teeth")
certificate_from_json_dict = _lazy("cover", "certificate_from_json_dict")
check_cover = _lazy("cover", "check_cover")
check_separation = _lazy("cover", "check_separation")
lower_separation = _lazy("cover", "lower_separation")
upper_cover = _lazy("cover", "upper_cover")
ifs_bound_report = _lazy("dimension", "ifs_bound_report")
sdim_estimate = _lazy("dimension", "sdim_estimate")
sweep = _lazy("dimension", "sweep")
write_profile_csv = _lazy("dimension", "write_profile_csv")
parse_rational = _lazy("geom", "parse_rational")
# The tracer wraps the hull under its old name until ROADMAP item 11.
attractor_cloud = _lazy("ifs", "attractor_hull")
cloud_diameter = _lazy("ifs", "cloud_diameter")
from_env = _lazy("limits", "from_env")
render_cloud_svg = _lazy("render", "render_cloud_svg")
render_svg = _lazy("render", "render_svg")

_EXIT_FOR = {
    VerificationFailure: 1,
    HostMismatch: 1,
    ParseError: 2,
    BudgetExceeded: 4,
    SizeLimit: 4,
    TooFewScales: 5,
}


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
    except (ValueError, RecursionError) as exc:  # JSONDecodeError too
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


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
    """`doc` as JSON text, a line at a time: top-level keys sorted, one
    line per key and per item of a top-level array, every value
    compact."""
    def dumps(value) -> str:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))

    yield "{"
    sep = "\n"
    for key in sorted(doc):
        value = doc[key]
        yield sep + dumps(key) + ":"
        sep = ",\n"
        if isinstance(value, list):
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
    from .geom import PLGraph
    return PLGraph.from_json_dict(_read_json(path))


def cmd_build(spec_path: str, out_path: str) -> None:
    """Build a shark-teeth truncation as an exact plane graph."""
    from .continuum import ToothSequenceSpec
    _check_distinct(out_path, spec_path)
    spec = ToothSequenceSpec.from_json_dict(_read_json(spec_path))
    graph = build_shark_teeth(spec, budget=from_env())
    _write_json(out_path, graph.to_json_dict())
    print(f"{len(graph.vertices)} vertices, {len(graph.edges)} edges")


def _cover_out_paths(out_path: str, mode: str) -> dict[str, str]:
    if mode != "both":
        return {mode: out_path}
    stem, ext = os.path.splitext(out_path)
    if not ext:
        ext = ".json"
    return {"lower": f"{stem}.lower{ext}", "upper": f"{stem}.upper{ext}"}


def cmd_cover(graph_path: str, epsilon: str, mode: str, out_path: str) -> None:
    """Compute certified bounds at one scale and write the certificates.

    A lower bound is made only on a host that passes the checker's host
    check.  On hosts built by the shark-teeth builder it is guarded: its
    points clear the omitted-amplitude threshold, so the certificate holds
    for the ambient continuum, not just the truncation.  Any other host
    must be proper.  No file is written when an output path is the graph's.
    """
    eps = _positive_rational(epsilon, "epsilon")
    paths = _cover_out_paths(out_path, mode)
    for path in paths.values():
        _check_distinct(path, graph_path)
    graph = _load_graph(graph_path)
    budget = from_env()
    shown = []
    if "lower" in paths:
        low = lower_separation(graph, eps, budget=budget)
        _write_json(paths["lower"], low.to_json_dict())
        shown.append(f"lower={len(low.points)}")
    if "upper" in paths:
        up = upper_cover(graph, eps, budget=budget)
        _write_json(paths["upper"], up.to_json_dict())
        shown.append(f"upper={up.count}")
    print(" ".join(shown))


def cmd_verify(graph_path: str, cert_path: str) -> None:
    """Recheck a certificate against its host graph from scratch."""
    from .cover import CoverCertificate, SeparationCertificate
    graph = _load_graph(graph_path)
    budget = from_env()
    cert = certificate_from_json_dict(_read_json(cert_path))
    if isinstance(cert, CoverCertificate):
        print(f"upper={check_cover(graph, cert, budget)}")
    else:
        assert isinstance(cert, SeparationCertificate)
        print(f"lower={check_separation(graph, cert, budget)}")


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
    schedule = (start * factor ** i for i in range(steps))
    profile = sweep(graph, schedule, budget=from_env())
    buf = io.StringIO()
    write_profile_csv(profile, buf)
    _atomic_write(out_path, [buf.getvalue()])
    low, high = sdim_estimate(profile)
    print(f"sdim proxy [{low:.6f}, {high:.6f}]")


def cmd_ifs(spec_path: str, delta: float, depth: int | None,
            out_path: str) -> None:
    """Dimension-bound report for an IFS: bound, k0, eps0, per-scale table."""
    from .ifs import IFSSpec
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
    report = ifs_bound_report(spec, delta, diameter=diameter, budget=budget)
    _atomic_write(out_path, [report])
    print(report, end="")


def cmd_render(graph_path: str | None, spec_path: str | None, depth: int,
               out_path: str) -> None:
    """Draw a graph (segments) or an IFS attractor cloud (discs) as SVG.

    A graph is one path on a 1/100 px grid, one line per edge; a cloud is
    one `<use>` per map and level.  A graph or cloud too wide for floats
    is a parse error."""
    if (graph_path is None) == (spec_path is None):
        raise ParseError("pass exactly one of --graph and --spec")
    _check_distinct(out_path, graph_path or "", spec_path or "")
    if graph_path is not None:
        lines = render_svg(_load_graph(graph_path))
    else:
        from .ifs import IFSSpec
        spec = IFSSpec.from_json_dict(_read_json(spec_path))
        if depth < 0:
            raise ParseError(f"depth must be >= 0, got {depth}")
        lines = render_cloud_svg(spec, depth, from_env())
    _atomic_write(out_path, lines)


class _HelpFormatter(argparse.HelpFormatter):
    """The usage line reads "Usage: ..."; a description keeps its
    paragraphs."""

    def add_usage(self, usage, actions, groups, prefix=None):
        # A subcommand's `prog` is formatted with prefix "", kept as is.
        super().add_usage(usage, actions, groups,
                          "Usage: " if prefix is None else prefix)

    def _fill_text(self, text, width, indent):
        fill = super()._fill_text
        return "\n\n".join(fill(par, width, indent)
                           for par in text.split("\n\n"))


class _Parser(argparse.ArgumentParser):
    """`--help` but no `-h`, no abbreviated options, a usage error raised
    as `ParseError`, and a value-taking option that takes the next
    argument even when it starts with "-"."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False,
                         formatter_class=_HelpFormatter, **kwargs)
        self.takes_value: set[str] = set()
        self.add_argument("--help", action="help",
                          help="Show this message and exit.")

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.nargs != 0:
            self.takes_value.update(action.option_strings)
        return action

    def parse_known_args(self, args=None, namespace=None):
        # "--epsilon -1/2" would be an option with no value to argparse;
        # "--epsilon=-1/2" is the same option with its value.
        joined, rest = [], list(sys.argv[1:] if args is None else args)
        while rest:
            arg = rest.pop(0)
            if arg in self.takes_value and rest:
                arg = f"{arg}={rest.pop(0)}"
            joined.append(arg)
        return super().parse_known_args(joined, namespace)

    def error(self, message: str) -> NoReturn:
        raise ParseError(message)


def _parser(prog: str | None) -> _Parser:
    parser = _Parser(prog=prog, description=(
        "Certified connected-cover bounds for plane continua and IFS "
        "attractors."))
    commands = parser.add_subparsers(title="commands", metavar="COMMAND",
                                     required=True)

    def command(fn) -> _Parser:
        sub = commands.add_parser(fn.__name__.removeprefix("cmd_"),
                                  help=fn.__doc__.split("\n\n")[0],
                                  description=fn.__doc__)
        sub.set_defaults(run=fn)
        return sub

    p = command(cmd_build)
    p.add_argument("--spec", dest="spec_path", required=True, metavar="FILE",
                   help="Tooth sequence spec (JSON).")
    p.add_argument("--out", dest="out_path", required=True, metavar="FILE",
                   help="Graph file to write.")

    p = command(cmd_cover)
    p.add_argument("--graph", dest="graph_path", required=True,
                   metavar="FILE")
    p.add_argument("--epsilon", required=True, metavar="P/Q",
                   help="Scale as an exact rational.")
    p.add_argument("--mode", choices=["upper", "lower", "both"],
                   default="both", help="[default: %(default)s]")
    p.add_argument("--out", dest="out_path", required=True, metavar="FILE",
                   help="Certificate file; mode=both derives .lower/.upper "
                        "names.")

    p = command(cmd_verify)
    p.add_argument("--graph", dest="graph_path", required=True,
                   metavar="FILE")
    p.add_argument("--cert", dest="cert_path", required=True, metavar="FILE")

    p = command(cmd_sweep)
    p.add_argument("--graph", dest="graph_path", required=True,
                   metavar="FILE")
    p.add_argument("--eps-start", required=True, metavar="P/Q")
    p.add_argument("--eps-factor", required=True, metavar="P/Q",
                   help="Geometric step, strictly between 0 and 1.")
    p.add_argument("--steps", required=True, type=int, metavar="INTEGER")
    p.add_argument("--out", dest="out_path", required=True, metavar="FILE",
                   help="Profile CSV to write.")

    p = command(cmd_ifs)
    p.add_argument("--spec", dest="spec_path", required=True, metavar="FILE",
                   help="IFS spec (JSON).")
    p.add_argument("--delta", type=float, default=0.1, metavar="FLOAT",
                   help="Slack over the dimension bound. "
                        "[default: %(default)s]")
    p.add_argument("--depth", type=int, default=None, metavar="INTEGER",
                   help="Cloud depth for the diameter measurement "
                        "(default: fixture hint or a size-capped cloud).")
    p.add_argument("--out", dest="out_path", required=True, metavar="FILE",
                   help="Report file to write.")

    p = command(cmd_render)
    p.add_argument("--graph", dest="graph_path", default=None, metavar="FILE")
    p.add_argument("--spec", dest="spec_path", default=None, metavar="FILE",
                   help="IFS spec; rendered as a point cloud.")
    p.add_argument("--depth", type=int, default=6, metavar="INTEGER",
                   help="Cloud depth for IFS rendering. "
                        "[default: %(default)s]")
    p.add_argument("--out", dest="out_path", required=True, metavar="FILE",
                   help="SVG file to write.")
    return parser


def _run(args: list[str] | None, prog_name: str | None) -> int:
    try:
        try:
            options = vars(_parser(prog_name).parse_args(args))
        except SystemExit as exc:  # `--help` has printed its text
            return exc.code
        options.pop("run")(**options)
    except SdimlabError as exc:
        print(f"{exc.tag}: {exc}", file=sys.stderr)
        return _EXIT_FOR.get(type(exc), 2)
    return 0


def main(args: list[str] | None = None, prog_name: str | None = None,
         standalone_mode: bool = True) -> int:
    """Run one command line (default: `sys.argv[1:]`) and exit with its
    code, or, with `standalone_mode=False`, return the code."""
    code = _run(args, prog_name)
    if standalone_mode:
        sys.exit(code)
    return code


# perfbench/run.py's in-process runner calls
# `main.main(args=..., prog_name="sdimlab", standalone_mode=False)`.
main.main = main


if __name__ == "__main__":
    main(prog_name="python -m sdimlab.cli")
