"""The exact rational kernels, re-exported from `_exactcore`.

Callers reach every kernel as ``exactcore.<name>``, so one module
attribute is the place where a kernel can be wrapped or counted.
`BACKEND` names the implementation; there is one, in pure Python.
"""

from __future__ import annotations

from . import _exactcore as _impl

BACKEND = _impl.BACKEND

norm_q = _impl.norm_q
dist2_q = _impl.dist2_q
max_pair_dist2 = _impl.max_pair_dist2
all_dist2_below = _impl.all_dist2_below
point_seg_dist2 = _impl.point_seg_dist2
seg_intersection = _impl.seg_intersection
