"""Apply each mutant of `tests/mutants.py` and run the tests that kill it.

    python tests/run_mutants.py [NAME ...]

For each row (or each named one), the checkout is copied to a temporary
directory, the row's one replacement is made in the copy's `src/`, and
only the row's kill tests run there, with `-p no:cacheprovider
--hypothesis-seed=0`, so a run does not depend on an example database or
on luck.  A mutant survives when every one of its tests passes.

Every survivor is printed, with its reason when the table expects it to
survive.  The exit code is 1 when a survivor is not expected, when an
expected survivor is killed, or when a row cannot be run: its old text
does not occur exactly once, or pytest fails to collect or run its tests.
Kill tests that pass on their mutant are printed too, as stale ids.

This is not a tier-1 test: it runs pytest once per row.
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS, Mutant  # noqa: E402

_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                               ".pytest_cache", ".perfbench", "*.egg-info")
# A summary line is "FAILED <id> - <message>"; an id may hold a space.
_FAILED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", re.M)
TIMEOUT_S = 900
# A mutant of a budget check can make its test build what the check
# refuses, such as the billion cuts of a 60 B cover document; the address
# space limit turns that into a MemoryError in the test.
MEMORY_B = 2 << 30


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_B, MEMORY_B))


def run(mutant: Mutant) -> tuple[str, str]:
    """(outcome, detail) for one row: outcome is "killed", "survived" or
    "broken"."""
    with tempfile.TemporaryDirectory(prefix="sdimlab-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        path = copy / "src" / "sdimlab" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "broken", (f"old text occurs {text.count(mutant.old)} "
                              f"times in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new))
        cmd = [sys.executable, "-m", "pytest", "-q", "-rfE",
               "-p", "no:cacheprovider", "--hypothesis-seed=0",
               *mutant.kills]
        # The copy's `src/` goes first, ahead of any installed sdimlab.
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        try:
            res = subprocess.run(cmd, cwd=copy, env=env, capture_output=True,
                                 text=True, timeout=TIMEOUT_S,
                                 preexec_fn=_limit_memory)
        except subprocess.TimeoutExpired:
            return "killed", f"its tests ran past {TIMEOUT_S} s"
    if res.returncode == 0:
        return "survived", f"all {len(mutant.kills)} tests pass"
    if res.returncode != 1:
        tail = "\n".join(res.stdout.splitlines()[-5:] + [res.stderr])
        return "broken", f"pytest exit code {res.returncode}:\n{tail}"
    failed = set(_FAILED.findall(res.stdout))
    stale = [t for t in mutant.kills
             if t not in failed and not any(f.startswith(t + "[")
                                            for f in failed)]
    detail = f"{len(mutant.kills) - len(stale)}/{len(mutant.kills)} tests"
    if stale:
        detail += "; these pass on it: " + ", ".join(stale)
    return "killed", detail


def main(names: list[str]) -> int:
    rows = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in rows}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}")
        return 1
    bad = 0
    t0 = time.perf_counter()
    for mutant in rows:
        outcome, detail = run(mutant)
        line = f"{outcome:8} {mutant.name}: {detail}"
        if outcome == "survived" and mutant.survives:
            line += f"\n         expected: {mutant.survives}"
        elif outcome == "killed" and mutant.survives:
            line += "\n         the table expects it to survive"
            bad += 1
        elif outcome != "killed":
            bad += 1
        print(line, flush=True)
    print(f"{len(rows)} mutants, {bad} unexpected outcomes, "
          f"{time.perf_counter() - t0:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
