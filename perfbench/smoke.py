#!/usr/bin/env python3
"""Fast self-test of the benchmark on a tiny host (about 30 s).

Run from the root of a source checkout:

    python3 perfbench/smoke.py

It runs the hidden `smoke` workload of `run.py` (paper K = 3 at
eps = 1/8, a 3-scale sweep, and the gasket at depth 2) once untraced and
once traced.  It checks that both runs exit 0 with no failed operation,
that the last JSON line carries exactly the metrics and units that
BENCHMARK.json declares, and that every named end-to-end and per-layer
metric is printed with a unit.  Exit code 0 means all checks passed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

PRINTED_END_TO_END = ("setup_s", "pipeline_s", "produce_s", "verify_s",
                      "peak_rss_mb", "output_bytes", "cert_bytes",
                      "lower_total", "upper_total", "failed_ops_ratio")
PRINTED_LAYERS = (
    "cli.import.sdimlab_s", "cli.import.numpy_scipy_s", "cli.self_s",
    "geom.arrange.s", "continuum.build.self_s", "geom.graph_load.s",
    "geom.graph_dump.s", "cover.upper_cover.s", "cover.lower_separation.s",
    "cover.cert_dump.s", "cover.cert_load.s", "cover.check_separation.s",
    "cover.check_cover.s", "dimension.sweep.self_s", "ifs.attractor_cloud.s",
    "ifs.cloud_diameter.s", "ifs.find_k0.s", "render.cloud_svg.s",
    "io.json_dump.s", "io.json_load.s",
    "exactcore.seg_intersection.calls", "exactcore.dist2_q.calls",
    "exactcore.point_seg_dist2.calls", "exactcore.max_pair_dist2.calls",
    "exactcore.all_dist2_below.calls", "cover.elements", "cover.points",
    "cover.witnesses.distance", "cover.witnesses.disconnection",
    "cover.pair_checks", "limits.pair_headroom", "ifs.cloud_points",
    "failed_ops_ratio")


def check_run(trace: int, declared: list[dict], printed: tuple[str, ...]
              ) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    where = f"trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: failed operations in {result}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: JSON metrics {got} != declared {want}")
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            problems.append(f"{where}: {k} value {v['value']!r}")
    for name in printed:
        pattern = rf"^\w+ {re.escape(name)} = \S+ \S+"
        if not any(re.match(pattern, line) for line in lines):
            problems.append(f"{where}: {name} not printed with a unit")
    return problems


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = (check_run(0, bench["end_to_end"], PRINTED_END_TO_END)
                + check_run(1, bench["per_layer"], PRINTED_LAYERS))
    for p in problems:
        print("FAIL", p)
    print("smoke ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
