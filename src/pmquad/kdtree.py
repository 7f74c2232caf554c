"""2-d trees (alternating vertical/horizontal splits) and both cost flavors.

The query line is always vertical; the flavor of the partial-match cost is
set by the root split axis: ``cost_parallel`` for a vertical root (split
parallel to the line) and ``cost_perp`` for a horizontal root.  One tree
type with an axis flag serves both, which keeps the one-level decomposition
identities directly checkable on real trees.
"""

from __future__ import annotations

from .errors import AxisMismatchError
from .geom import Cell, Point2, StepProfile
from .quadtree import (
    _KD_H,
    _KD_V,
    _check_general_position,
    _check_query,
    _profile_xy,
    _slice_cost,
    profile,
)

__all__ = [
    "VERTICAL",
    "HORIZONTAL",
    "KdNode",
    "KdTree",
    "build_kd",
    "cost_parallel",
    "cost_perp",
    "kd_profile",
    "kd_supremum",
    "profile_xy",
    "decomposition_check",
    "vertical_decomposition_check",
    "line_cost",
]

VERTICAL = "v"  # splits x: the segment through the point is vertical
HORIZONTAL = "h"

_OTHER = {VERTICAL: HORIZONTAL, HORIZONTAL: VERTICAL}


class KdNode:
    __slots__ = ("point", "cell", "axis", "low", "high")

    def __init__(self, point: Point2, cell: Cell, axis: str):
        self.point = point
        self.cell = cell
        self.axis = axis
        self.low = None
        self.high = None

    def goes_low(self, x: float, y: float) -> bool:
        if self.axis == VERTICAL:
            return x < self.point.x
        return y < self.point.y

    def child_cell(self, low: bool) -> Cell:
        c = self.cell
        if self.axis == VERTICAL:
            px = self.point.x
            return Cell(c.x0, px, c.y0, c.y1) if low else Cell(px, c.x1, c.y0, c.y1)
        py = self.point.y
        return Cell(c.x0, c.x1, c.y0, py) if low else Cell(c.x0, c.x1, py, c.y1)


class KdTree:
    __slots__ = ("root", "size", "root_axis")

    def __init__(self, root, size: int, root_axis: str):
        self.root = root
        self.size = size
        self.root_axis = root_axis

    def nodes(self):
        stack = [self.root] if self.root is not None else []
        while stack:
            node = stack.pop()
            yield node
            if node.low is not None:
                stack.append(node.low)
            if node.high is not None:
                stack.append(node.high)


def build_kd(points, root_axis: str = VERTICAL) -> KdTree:
    """Insert points in index order; the split axis alternates with depth."""
    if root_axis not in (VERTICAL, HORIZONTAL):
        raise ValueError(f"root_axis must be 'v' or 'h', got {root_axis!r}")
    points = list(points)
    _check_general_position(points)
    root = None
    for p in points:
        if root is None:
            root = KdNode(p, Cell(0.0, 1.0, 0.0, 1.0), root_axis)
            continue
        node = root
        while True:
            low = node.goes_low(p.x, p.y)
            child = node.low if low else node.high
            if child is None:
                new = KdNode(p, node.child_cell(low), _OTHER[node.axis])
                if low:
                    node.low = new
                else:
                    node.high = new
                break
            node = child
    return KdTree(root, len(points), root_axis)


def _search_count(node, s: float) -> int:
    """Nodes visited below (and including) ``node`` by the search at x = s."""
    if node is None:
        return 0
    count = 0
    stack = [node]
    while stack:
        cur = stack.pop()
        count += 1
        if cur.axis == VERTICAL:
            nxt = cur.low if s < cur.point.x else cur.high
            if nxt is not None:
                stack.append(nxt)
        else:
            if cur.low is not None:
                stack.append(cur.low)
            if cur.high is not None:
                stack.append(cur.high)
    return count


def cost_parallel(tree: KdTree, s: float) -> int:
    """Partial-match cost when the root split is parallel to the query line."""
    _check_query(s)
    if tree.root_axis != VERTICAL:
        raise AxisMismatchError("cost_parallel needs a vertical root axis")
    return _search_count(tree.root, s)


def cost_perp(tree: KdTree, s: float) -> int:
    """Partial-match cost when the root split is perpendicular to the query line."""
    _check_query(s)
    if tree.root_axis != HORIZONTAL:
        raise AxisMismatchError("cost_perp needs a horizontal root axis")
    return _search_count(tree.root, s)


def kd_profile(tree: KdTree) -> StepProfile:
    """Exact step function of the cost; breakpoints only at vertical split x's."""
    return profile(tree)


def kd_supremum(tree: KdTree):
    return kd_profile(tree).max_segment()


def decomposition_check(tree: KdTree, s: float) -> bool:
    """One-level identity at a horizontal root: the perpendicular cost equals
    1 + the parallel costs of the two strip subtrees (their own cells)."""
    if tree.root is None:
        raise ValueError("decomposition_check needs a nonempty tree")
    if tree.root_axis != HORIZONTAL:
        raise AxisMismatchError("decomposition_check needs a horizontal root axis")
    total = cost_perp(tree, s)
    return total == 1 + _search_count(tree.root.low, s) + _search_count(tree.root.high, s)


def vertical_decomposition_check(tree: KdTree, s: float) -> bool:
    """One-level identity at a vertical root: only the side containing the
    line is searched, and that subtree has a perpendicular (horizontal) root."""
    if tree.root is None:
        raise ValueError("vertical_decomposition_check needs a nonempty tree")
    if tree.root_axis != VERTICAL:
        raise AxisMismatchError("vertical_decomposition_check needs a vertical root axis")
    side = tree.root.low if s < tree.root.point.x else tree.root.high
    return cost_parallel(tree, s) == 1 + _search_count(side, s)


def _rule(root_axis: str) -> int:
    if root_axis not in (VERTICAL, HORIZONTAL):
        raise ValueError(f"root_axis must be 'v' or 'h', got {root_axis!r}")
    return _KD_V if root_axis == VERTICAL else _KD_H


def line_cost(xs, ys, s: float, root_axis: str = VERTICAL) -> int:
    """cost of the 2-d tree on the point sequence at x = s, without nodes.

    The quadtree's crossing-slice kernel under the 2-d tree rule: a vertical
    split narrows the slice's x-extent, a horizontal split divides it in y.
    Coordinates are checked as in ``quadtree.line_cost``.
    """
    _check_query(s)
    return _slice_cost(xs, ys, s, 0.0, 1.0, _rule(root_axis))


def profile_xy(xs, ys, root_axis: str = VERTICAL) -> StepProfile:
    """kd_profile(build_kd(points, root_axis)) of the points (xs, ys), without
    building nodes: the quadtree's level-wise kernel under the 2-d tree rule."""
    return _profile_xy(xs, ys, _rule(root_axis))
