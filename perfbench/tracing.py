"""In-process tracing of the sdimlab layers, from outside the package.

`traced()` patches spans and counters onto the public functions of each
module for the duration of a `with` block and restores every original on
exit.  Nothing inside `src/` is edited: spans wrap a function where its
caller looks it up, so a function that the CLI and `dimension` import by
name is wrapped in the `sdimlab.cli` and `sdimlab.dimension` namespaces,
while the exact kernels, which `geom` and `cover` call as `xc.<kernel>`,
are counted on the `sdimlab.exactcore` module itself.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import Counter
from contextlib import contextmanager

# Kernels counted per call.  Calls are too frequent for a span each.
KERNELS = ("seg_intersection", "dist2_q", "point_seg_dist2",
           "max_pair_dist2", "all_dist2_below")

# (module, attribute, span name): functions wrapped where they are looked up.
SPANS = (
    ("sdimlab.cli", "build_shark_teeth", "continuum.build"),
    ("sdimlab.continuum", "arrange", "geom.arrange"),
    ("sdimlab.cli", "lower_separation", "cover.lower_separation"),
    ("sdimlab.dimension", "lower_separation", "cover.lower_separation"),
    ("sdimlab.cli", "upper_cover", "cover.upper_cover"),
    ("sdimlab.dimension", "upper_cover", "cover.upper_cover"),
    ("sdimlab.cli", "check_separation", "cover.check_separation"),
    ("sdimlab.cli", "check_cover", "cover.check_cover"),
    ("sdimlab.cli", "certificate_from_json_dict", "cover.cert_load"),
    ("sdimlab.cli", "sweep", "dimension.sweep"),
    ("sdimlab.cli", "ifs_bound_report", "dimension.ifs_report"),
    ("sdimlab.dimension", "find_k0", "ifs.find_k0"),
    ("sdimlab.cli", "attractor_cloud", "ifs.attractor_cloud"),
    ("sdimlab.cli", "cloud_diameter", "ifs.cloud_diameter"),
    ("sdimlab.cli", "render_cloud_svg", "render.cloud_svg"),
)

# (module, class, method, span name): serialization methods.
METHOD_SPANS = (
    ("sdimlab.geom", "PLGraph", "to_json_dict", "geom.graph_dump"),
    ("sdimlab.geom", "PLGraph", "from_json_dict", "geom.graph_load"),
    ("sdimlab.cover", "CoverCertificate", "to_json_dict", "cover.cert_dump"),
    ("sdimlab.cover", "SeparationCertificate", "to_json_dict",
     "cover.cert_dump"),
)

# Spans whose calls charge a budget; the recording budget is read around
# them to get each call's peak pair-check count.
BUDGETED = frozenset({"cover.lower_separation", "cover.upper_cover",
                      "cover.check_separation", "cover.check_cover"})

# Every layer metric the trace reports, with its unit.  Times are summed
# over one repetition; `.s` is inclusive time, `.self_s` excludes child
# spans.  Layers a workload never reaches read 0.
SPAN_NAMES = sorted({name for _, _, name in SPANS}
                    | {name for *_, name in METHOD_SPANS}
                    | {"io.json_dump", "io.json_load"})
COUNT_NAMES = (
    [f"exactcore.{k}.calls" for k in KERNELS]
    + ["cover.points", "cover.elements", "cover.witnesses.distance",
       "cover.witnesses.disconnection", "cover.pair_checks",
       "ifs.cloud_points"])


class Span:
    __slots__ = ("id", "parent", "trace", "name", "start", "end")

    def __init__(self, id, parent, trace, name, start):
        self.id, self.parent, self.trace = id, parent, trace
        self.name, self.start, self.end = name, start, None

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "trace": self.trace,
                "name": self.name, "start": self.start, "end": self.end}


class Tracer:
    """Spans and counters of one traced repetition.

    Spans of one CLI step share a trace id; `root()` opens that step's
    span.  Spans stay in memory until the caller writes them out.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.headroom = 0.0
        self.budget = None
        self._stack: list[Span] = []
        self._trace = 0

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self._trace, name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        self._trace += 1
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            budget = self.budget if name in BUDGETED else None
            if budget is not None:
                budget.peak = 0
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if budget is not None:
                self.counts["cover.pair_checks"] += budget.peak
                self.headroom = max(self.headroom,
                                    budget.peak / budget.max_pair_checks)
            self._observe(name, result)
            return result
        return spanned

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _observe(self, name: str, result) -> None:
        c = self.counts
        if name == "cover.lower_separation":
            c["cover.points"] += len(result.points)
            for *_, w in result.witnesses:
                c[f"cover.witnesses.{w.kind}"] += 1
        elif name == "cover.upper_cover":
            c["cover.elements"] += len(result.elements)
        elif name == "ifs.attractor_cloud":
            c["ifs.cloud_points"] += len(result)

    def layer_times(self) -> dict[str, float]:
        """`<span>.s` and `<span>.self_s` summed over all spans."""
        total: Counter = Counter()
        child: Counter = Counter()
        for s in self.spans:
            total[s.name] += s.end - s.start
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out = {}
        for name in SPAN_NAMES + sorted({s.name for s in self.spans
                                         if s.parent is None}):
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = sum(
                s.end - s.start - child[s.id]
                for s in self.spans if s.name == name)
        return out

    def layer_counts(self) -> dict[str, float]:
        out = {name: self.counts[name] for name in COUNT_NAMES}
        out["limits.pair_headroom"] = self.headroom
        return out

    def span_dicts(self) -> list[dict]:
        return [s.to_dict() for s in self.spans]


def _recording_budget_class():
    from sdimlab.limits import Budget

    class RecordingBudget(Budget):
        """Budget that remembers the largest pair count it was asked about.

        `_Work.add` checks its running total after every charge, so the
        peak is the call's final `_Work.total`.
        """

        def __init__(self, base: Budget):
            super().__init__(base.max_edges, base.max_pair_checks,
                             base.max_words)
            # A frozen dataclass refuses assignment only to its own fields
            # on a subclass instance, and `peak` is not one of them.
            self.peak = 0

        def check_pairs(self, n: int) -> None:
            if n > self.peak:
                self.peak = n
            super().check_pairs(n)

    return RecordingBudget


@contextmanager
def traced(tracer: Tracer):
    """Patch spans and counters in; restore the originals on exit."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    mod = importlib.import_module
    try:
        xc = mod("sdimlab.exactcore")
        for k in KERNELS:
            patch(xc, k, tracer.count(f"exactcore.{k}.calls", getattr(xc, k)))
        for module, attr, name in SPANS:
            m = mod(module)
            patch(m, attr, tracer.wrap(name, getattr(m, attr)))
        for module, cls_name, meth, name in METHOD_SPANS:
            cls = getattr(mod(module), cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                patch(cls, meth, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                patch(cls, meth, tracer.wrap(name, raw))

        cli = mod("sdimlab.cli")
        patch(cli, "json", types.SimpleNamespace(
            dumps=tracer.wrap("io.json_dump", json.dumps),
            load=tracer.wrap("io.json_load", json.load),
            JSONDecodeError=json.JSONDecodeError))
        recording = _recording_budget_class()
        from_env = cli.from_env

        def recording_from_env(*args, **kwargs):
            tracer.budget = recording(from_env(*args, **kwargs))
            return tracer.budget
        patch(cli, "from_env", recording_from_env)
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
