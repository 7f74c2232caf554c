"""2-d trees (alternating vertical/horizontal splits) and both cost flavors.

The query line is always vertical; the flavor of the partial-match cost is
set by the root split axis: ``cost_parallel`` for a vertical root (split
parallel to the line) and ``cost_perp`` for a horizontal root.  The trees
are made of ``quadtree.Node``s, the one linked node type of both oracle
trees, here with a split axis that alternates with depth.  One tree type
serves both flavors, which keeps the one-level decomposition identities
directly checkable on real trees.
"""

from __future__ import annotations

from .errors import AxisMismatchError
from .geom import StepProfile
from .quadtree import (
    Tree,
    _build,
    _check_query,
    _profile_xy,
    _rule,
    _search,
    _slice_cost,
)

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

VERTICAL = "v"  # splits x: the segment through the point is vertical
HORIZONTAL = "h"


def build_kd(points, root_axis: str = VERTICAL) -> Tree:
    """Insert points in index order; the split axis alternates with depth."""
    if root_axis not in (VERTICAL, HORIZONTAL):
        raise ValueError(f"root_axis must be 'v' or 'h', got {root_axis!r}")
    return _build(points, root_axis == VERTICAL, root_axis == HORIZONTAL, root_axis)


def cost_parallel(tree: Tree, s: float) -> int:
    """Partial-match cost when the root split is parallel to the query line."""
    _check_query(s)
    if tree.root_axis != VERTICAL:
        raise AxisMismatchError("cost_parallel needs a vertical root axis")
    return _search(tree.root, s)


def cost_perp(tree: Tree, s: float) -> int:
    """Partial-match cost when the root split is perpendicular to the query line."""
    _check_query(s)
    if tree.root_axis != HORIZONTAL:
        raise AxisMismatchError("cost_perp needs a horizontal root axis")
    return _search(tree.root, s)


def decomposition_check(tree: Tree, s: float) -> bool:
    """One-level identity at a horizontal root: the perpendicular cost equals
    1 + the parallel costs of the two strip subtrees (their own cells)."""
    if tree.root is None:
        raise ValueError("decomposition_check needs a nonempty tree")
    if tree.root_axis != HORIZONTAL:
        raise AxisMismatchError("decomposition_check needs a horizontal root axis")
    total = cost_perp(tree, s)
    return total == 1 + sum(_search(child, s) for child in tree.root.children)


def vertical_decomposition_check(tree: Tree, s: float) -> bool:
    """One-level identity at a vertical root: only the side containing the
    line is searched, and that subtree has a perpendicular (horizontal) root."""
    if tree.root is None:
        raise ValueError("vertical_decomposition_check needs a nonempty tree")
    if tree.root_axis != VERTICAL:
        raise AxisMismatchError("vertical_decomposition_check needs a vertical root axis")
    side = tree.root.children[2 if s >= tree.root.point.x else 0]
    return cost_parallel(tree, s) == 1 + _search(side, s)


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
