"""Kernel backend selection.

Prefers the compiled extension, falls back to the pure-Python twin when the
extension is missing or ``SDIMLAB_PURE`` is set to a nonempty value.  Both
backends are semantically identical; `BACKEND` reports which one is live.
"""

from __future__ import annotations

import os

if os.environ.get("SDIMLAB_PURE"):
    from . import _exactcore as _impl
else:
    try:
        from . import _exactcore_cy as _impl  # type: ignore[no-redef]
    except ImportError:
        from . import _exactcore as _impl  # type: ignore[no-redef]

BACKEND = _impl.BACKEND

norm_q = _impl.norm_q
dist2_q = _impl.dist2_q
max_pair_dist2 = _impl.max_pair_dist2
all_dist2_below = _impl.all_dist2_below
point_seg_dist2 = _impl.point_seg_dist2
seg_intersection = _impl.seg_intersection
