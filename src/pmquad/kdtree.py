"""2-d trees (alternating vertical/horizontal splits): node-free cost and profile.

The query line is always vertical; the flavor of the partial-match cost is
set by the root split axis: ``cost_parallel`` for a vertical root (split
parallel to the line) and ``cost_perp`` for a horizontal root.  Those, the
linked-tree builder ``build_kd`` and the one-level decomposition identities
are oracles in ``geom``, re-exported here.  ``line_cost`` and ``profile_xy``
are the quadtree's kernels under the 2-d tree split rule.
"""

from __future__ import annotations

from .geom import (HORIZONTAL, VERTICAL, StepProfile, _check_query, build_kd, cost_parallel,
                   cost_perp, decomposition_check, vertical_decomposition_check)
from .quadtree import _profile_xy, _rule, _slice_cost

__all__ = [
    "VERTICAL",
    "HORIZONTAL",
    "build_kd",
    "cost_parallel",
    "cost_perp",
    "profile_xy",
    "decomposition_check",
    "vertical_decomposition_check",
    "line_cost",
]


def line_cost(xs, ys, s: float, root_axis: str = VERTICAL) -> int:
    """cost of the 2-d tree on the point sequence at x = s, without nodes.

    The quadtree's crossing-slice kernel under the 2-d tree rule: a vertical
    split narrows the slice's x-extent, a horizontal split divides it in y.
    Coordinates are checked, the root cell taken, and points screened in
    blocks after the first ``HEAD``, as in ``quadtree.line_cost``.
    """
    _check_query(s)
    return _slice_cost(xs, ys, s, _rule(root_axis))


def profile_xy(xs, ys, root_axis: str = VERTICAL) -> StepProfile:
    """quadtree.profile(build_kd(points, root_axis)) of the points (xs, ys),
    without building nodes: the quadtree's level-wise kernel under the 2-d
    tree rule."""
    return _profile_xy(xs, ys, _rule(root_axis))
