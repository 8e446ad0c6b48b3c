"""Time the exact-arithmetic kernels, pure Python against the extension.

Usage: python3 benchmarks/bench_exactcore.py [--points 400] [--repeats 5]

Inputs are deterministic pseudo-random rationals with small denominators,
the same regime the arrangement and cover code produces.  Each kernel is
timed as the best of --repeats runs; the compiled column is skipped when
the extension is not built.
"""

from __future__ import annotations

import argparse
import random
import time

from sdimlab import _exactcore as pure

try:
    from sdimlab import _exactcore_cy as compiled
except ImportError:
    compiled = None


def make_inputs(n_points, seed=20260822):
    rng = random.Random(seed)

    def q():
        return rng.randint(-64, 64), rng.randint(1, 16)

    pts = [(*q(), *q()) for _ in range(n_points)]
    segs = []
    while len(segs) < n_points:
        a, b = (*q(), *q()), (*q(), *q())
        if a != b:
            segs.append((a, b))
    return pts, segs


def workloads(backend, pts, segs):
    probe = pts[0]
    return [
        ("max_pair_dist2", lambda: backend.max_pair_dist2(pts)),
        ("point_seg_dist2", lambda: [
            backend.point_seg_dist2(probe, a, b) for a, b in segs]),
        ("seg_intersection", lambda: [
            backend.seg_intersection(*segs[i], *segs[i + 1])
            for i in range(len(segs) - 1)]),
    ]


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--points", type=int, default=400)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    pts, segs = make_inputs(args.points)
    pure_work = workloads(pure, pts, segs)
    comp_work = workloads(compiled, pts, segs) if compiled else None

    print(f"{args.points} points, best of {args.repeats}")
    print(f"{'kernel':<18} {'pure (s)':>10} {'compiled (s)':>13} "
          f"{'speedup':>8}")
    for i, (name, pure_fn) in enumerate(pure_work):
        t_pure = best_of(pure_fn, args.repeats)
        if comp_work is None:
            print(f"{name:<18} {t_pure:>10.4f} {'not built':>13}")
            continue
        t_comp = best_of(comp_work[i][1], args.repeats)
        print(f"{name:<18} {t_pure:>10.4f} {t_comp:>13.4f} "
              f"{t_pure / t_comp:>7.1f}x")
    if compiled is None:
        print("extension sdimlab._exactcore_cy not importable; "
              "reinstall with a C compiler to compare")


if __name__ == "__main__":
    main()
