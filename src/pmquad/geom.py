"""Points, cells, step-function profiles, and every linked-tree oracle.

The array kernels of ``quadtree``, ``kdtree`` and ``limitproc`` are checked
against the reference trees here: linked ``Node``s inserted one point at a
time, one tree type with split-axis flags serving the quadtree (``build``,
whose nodes split both axes) and the 2-d tree (``build_kd``, whose nodes
split one axis, their children the other), searched by ``cost`` and the
2-d tree flavors, and enumerated by ``horizontal_crossings``, ``profile``
and ``fill_up_level``.  So that they share no code with what they check,
this module imports nothing from the package but ``errors``; the kernel
modules import the input checks from here and re-export the oracles.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import AxisMismatchError, DuplicateCoordinateError

__all__ = ["Point2", "Cell", "StepProfile", "Node", "Tree", "VERTICAL", "HORIZONTAL", "build",
           "build_kd", "cost", "cost_parallel", "cost_perp", "horizontal_crossings", "profile",
           "supremum", "subtree_sizes", "decomposition_check", "vertical_decomposition_check",
           "fill_up_level"]


@dataclass(frozen=True)
class Point2:
    """A data point in the unit square with its insertion rank."""

    x: float
    y: float
    index: int = 0

    def __post_init__(self):
        if not (0.0 <= self.x <= 1.0 and 0.0 <= self.y <= 1.0):
            raise ValueError(f"point ({self.x}, {self.y}) outside the unit square")


@dataclass(frozen=True)
class Cell:
    """An axis-aligned rectangle; the x-extent is [x0, x1), closed at x1 = 1.

    The half-open convention makes the cost profile right-continuous: the
    query line at a split coordinate belongs to the right-hand cells.
    """

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError("degenerate cell")

    def crosses_line(self, s: float) -> bool:
        """Whether the vertical line x = s meets this cell's x-extent."""
        return self.x0 <= s < self.x1 or (s == self.x1 == 1.0)

    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)


class StepProfile:
    """Canonical cadlag step function: value v_i on [b_i, b_{i+1}), closed at 1.

    Breakpoints start at 0 and are strictly increasing; adjacent values
    always differ (merged form).
    """

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints, values):
        b = np.asarray(breakpoints, dtype=float)
        v = np.asarray(values)
        if b.ndim != 1 or b.shape != v.shape or not b.size:
            raise ValueError("breakpoints and values must be equal-length, nonempty")
        if b[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if not np.all(b[:-1] < b[1:]):
            raise ValueError("breakpoints must be strictly increasing")
        if b[-1] > 1.0:
            raise ValueError("breakpoints must lie in [0, 1]")
        if np.any(v[:-1] == v[1:]):
            raise ValueError("profile not canonical: adjacent values equal")
        self.breakpoints = b.tolist()
        self.values = v.tolist()

    @classmethod
    def from_extents(cls, x0, x1):
        """The count of cells [x0[i], x1[i]) meeting each position: +1 at every
        x0 and -1 at every x1, so ``x0`` and ``x1`` may differ in length.

        Positions at or beyond 1.0 are dropped (cells touching the right edge
        are closed there, so nothing ends before s = 1); jumps at equal
        positions merge, and merged jumps of zero vanish.
        """
        x0 = np.asarray(x0, dtype=float)
        x1 = np.asarray(x1, dtype=float)
        x0 = x0[~(x0 >= 1.0)]
        x1 = x1[~(x1 >= 1.0)]
        pos, at = np.unique(np.concatenate([x0, x1]), return_inverse=True)
        jump = np.bincount(at[: x0.size], minlength=pos.size)
        jump -= np.bincount(at[x0.size :], minlength=pos.size)
        zero = pos == 0.0
        step = ~zero & (jump != 0)
        values = np.cumsum(np.concatenate([[jump[zero].sum()], jump[step]]))
        return cls(np.concatenate([[0.0], pos[step]]), values)

    def eval(self, s: float) -> int:
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"profile defined on [0, 1], got {s!r}")
        return self.values[bisect_right(self.breakpoints, s) - 1]

    def max_segment(self):
        """(value, (lo, hi)) for the first segment attaining the maximum."""
        best = max(self.values)
        i = self.values.index(best)
        hi = self.breakpoints[i + 1] if i + 1 < len(self.breakpoints) else 1.0
        return best, (self.breakpoints[i], hi)

    def __eq__(self, other):
        return (
            isinstance(other, StepProfile)
            and self.breakpoints == other.breakpoints
            and self.values == other.values
        )

    def __repr__(self):
        return f"StepProfile({self.breakpoints!r}, {self.values!r})"


def _check_query(s) -> float | np.ndarray:
    """``s``, one query position or an array of them, if every position lies
    in [0, 1]: a float (``np.float64`` included) as it is, anything else as a
    float array."""
    if isinstance(s, float):  # the common scalar call, without an array
        if 0.0 <= s <= 1.0:
            return s
        bad = s
    else:
        s = np.asarray(s, dtype=float)
        ok = (s >= 0.0) & (s <= 1.0)
        if ok.all():
            return s
        bad = s[~ok][0]
    raise ValueError(f"query position must lie in [0, 1], got {float(bad)!r}")


def _check_general_position(points) -> None:
    xs, ys = set(), set()
    for p in points:
        if p.x in xs or p.y in ys:
            raise DuplicateCoordinateError(
                f"point {p.index} repeats a coordinate; inputs must be in general position"
            )
        xs.add(p.x)
        ys.add(p.y)


def _points(xs, ys) -> list:
    """Point2s of the coordinate arrays xs, ys, indexed in arrival order."""
    return list(map(Point2, xs.tolist(), ys.tolist(), range(len(xs))))


class Node:
    """A stored point, its cell, the axes it splits and four child slots: a
    point goes to slot 2 (x >= px) + (y >= py), taken over the split axes, so
    a quadtree's slots are bottom-left, top-left, bottom-right, top-right."""

    __slots__ = ("point", "cell", "split_x", "split_y", "children")

    def __init__(self, point: Point2, cell: Cell, split_x: bool, split_y: bool):
        self.point = point
        self.cell = cell
        self.split_x = split_x
        self.split_y = split_y
        self.children = [None, None, None, None]

    def child_cell(self, idx: int) -> Cell:
        """The cell a child at slot idx occupies (whether or not it exists)."""
        px, py = self.point.x, self.point.y
        x0, x1, y0, y1 = self.cell.x0, self.cell.x1, self.cell.y0, self.cell.y1
        if self.split_x:
            x0, x1 = (x0, px) if idx < 2 else (px, x1)
        if self.split_y:
            y0, y1 = (y0, py) if idx % 2 == 0 else (py, y1)
        return Cell(x0, x1, y0, y1)


class Tree:
    """Immutable-after-build tree; ``root`` is None for the empty tree and
    ``root_axis`` None for a quadtree ('v' or 'h' for a 2-d tree)."""

    __slots__ = ("root", "size", "root_axis")

    def __init__(self, root, size: int, root_axis=None):
        self.root = root
        self.size = size
        self.root_axis = root_axis

    def nodes(self):
        """All nodes, level by level from the root."""
        return (node for node, _ in self.nodes_with_depth())

    def nodes_with_depth(self):
        level, d = [self.root] if self.root is not None else [], 0
        while level:
            for node in level:
                yield node, d
            level = [child for node in level for child in node.children if child is not None]
            d += 1


VERTICAL = "v"  # splits x: the segment through the point is vertical
HORIZONTAL = "h"


def _build(points, split_x: bool, split_y: bool, root_axis) -> Tree:
    """Insert points in index order from the unit-square root, which splits
    the given axes; a child splits its parent's axes swapped, which alternates
    a 2-d tree's axis and leaves a quadtree's unchanged."""
    points = list(points)
    _check_general_position(points)
    root = Node(points[0], Cell(0.0, 1.0, 0.0, 1.0), split_x, split_y) if points else None
    for p in points[1:]:
        node = root
        while True:
            q = node.point
            idx = (2 if node.split_x and p.x >= q.x else 0) + (node.split_y and p.y >= q.y)
            child = node.children[idx]
            if child is None:
                node.children[idx] = Node(p, node.child_cell(idx), node.split_y, node.split_x)
                break
            node = child
    return Tree(root, len(points), root_axis)


def build(points) -> Tree:
    """The quadtree: insert points in index order, every node splitting both axes."""
    return _build(points, True, True, None)


def build_kd(points, root_axis: str = VERTICAL) -> Tree:
    """Insert points in index order; the split axis alternates with depth."""
    if root_axis not in (VERTICAL, HORIZONTAL):
        raise ValueError(f"root_axis must be 'v' or 'h', got {root_axis!r}")
    return _build(points, root_axis == VERTICAL, root_axis == HORIZONTAL, root_axis)


def _search(node, s: float) -> int:
    """Nodes visited below (and including) ``node`` by the search at x = s.

    At a node that splits x it enters only the children on the line's side
    (slots 0 and 1 left of the split, 2 and 3 right of it), and a line at the
    split goes right; any other node keeps every child in slots 0 and 1.
    """
    count = 0
    stack = [node] if node is not None else []
    while stack:
        node = stack.pop()
        count += 1
        children = node.children
        i = 2 if node.split_x and s >= node.point.x else 0
        if children[i] is not None:
            stack.append(children[i])
        if children[i + 1] is not None:
            stack.append(children[i + 1])
    return count


def cost(tree: Tree, s: float) -> int:
    """Nodes visited by the partial-match search at x = s."""
    _check_query(s)
    return _search(tree.root, s)


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


def horizontal_crossings(tree: Tree, s: float) -> int:
    """Nodes whose cell meets x = s: in a quadtree, those whose horizontal
    split segment crosses the line.

    This is a whole-tree enumeration, an independent oracle for ``cost`` and
    for the 2-d tree costs.
    """
    _check_query(s)
    return sum(1 for node in tree.nodes() if node.cell.crosses_line(s))


def profile(tree: Tree) -> StepProfile:
    """The exact step function s -> cost(tree, s) of a quadtree or a 2-d
    tree, from the node objects."""
    cells = [node.cell for node in tree.nodes()]
    return StepProfile.from_extents([c.x0 for c in cells], [c.x1 for c in cells])


def supremum(tree: Tree):
    """(max cost, first maximizing interval [lo, hi)) over all query positions."""
    return profile(tree).max_segment()


def subtree_sizes(tree: Tree):
    """Node counts of the four root subtrees (BL, TL, BR, TR); they sum to n - 1."""
    if tree.root is None:
        raise ValueError("subtree_sizes needs a nonempty tree")
    return tuple(sum(1 for _ in Tree(child, None).nodes()) for child in tree.root.children)


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


def fill_up_level(tree: Tree) -> int:
    """Largest n such that every potential node above depth n exists."""
    counts = Counter(depth for _, depth in tree.nodes_with_depth())
    level = 0
    while counts[level] == 4**level:
        level += 1
    return level
