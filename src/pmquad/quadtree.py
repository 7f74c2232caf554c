"""Point quadtrees over the unit square and exact partial-match query costs.

The cost of a partial match at the vertical line x = s equals the number of
tree nodes whose cell meets the line, which is also the number of nodes
visited by the recursive search and the number of horizontal split segments
crossing the line (the latter two are independent oracles in ``geom``).
``line_cost`` computes the same count straight from a point sequence without
materializing nodes, which is what makes desk-scale Monte Carlo cheap.  It
shares one kernel with ``kdtree.line_cost``; a vectorized block filter lets
the exact per-point update skip the many points that cannot cross.  Sampled
replications count many trees per numpy call instead (``_sampled_costs``),
with ``_batch_line_costs``, which works level by level and keeps only the
cells that meet the line: a tree of up to ``_BATCH_MAX`` points goes to it
whole, and a larger one after ``_screen``, which gives the first ``HEAD``
points the exact update and passes on only the later points inside the
slices they leave, each slice a small tree of its own.  All give the same
counts and take no root box, as the count depends only on the points and
their order.

The whole profile s -> cost comes from every node's cell x-extent.
``profile_xy`` (and ``kdtree.profile_xy``) get those extents from one
level-wise kernel on arrays, which partitions the pending points a depth at a
time instead of inserting them one by one.  It works on x-ranks, so each
extent is a pair of ranks; +1 at every left rank and -1 at every right rank,
counted in sorted-x order and summed, is the step function, with no sort of
the extents.

The level-wise kernels here and ``limitproc._fill_up_levels`` share one
step, ``_runs``: at every level each cell's pending points are a run in a
sorted cell array, and one gather from a table of run ranks indexed by cell
numbers the points by run, at about a quarter of the cost per element of a
cumulative sum over the run heads.

The reference (oracle) trees, ``Node``, ``Tree``, ``build``, ``cost``,
``horizontal_crossings``, ``profile``, ``supremum`` and ``subtree_sizes``,
live in ``geom``, which imports no kernel; they are re-exported here."""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache

import numpy as np

from .errors import CapExceededError
from .geom import (Node, StepProfile, Tree, _check_general_position, _check_query, _points,
                   build, cost, horizontal_crossings, profile, subtree_sizes, supremum)

__all__ = [
    "Node",
    "Tree",
    "build",
    "sample_uniform_points",
    "sample_uniform_xy",
    "cost",
    "horizontal_crossings",
    "profile",
    "profile_xy",
    "supremum",
    "subtree_sizes",
    "sample_poisson_xy",
    "line_cost",
    "coupled_extension_cost",
    "sample_extension_xy",
]

# Points per sampled tree.  profile_xy peaks at about 98 B/point on top of
# the inputs' 16 (traced at 1e6 and 4e6 points): about 2 GB at the cap.
_MAX_POINTS = 1 << 24


def sample_uniform_xy(n: int, rng) -> tuple:
    """n i.i.d. uniform coordinates as (xs, ys) arrays; cheap form of sampling.
    Raises CapExceededError above ``_MAX_POINTS``, before allocating."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > _MAX_POINTS:
        raise CapExceededError(f"{n} points exceed the cap of {_MAX_POINTS} per tree")
    return rng.random(n), rng.random(n)


def sample_uniform_points(n: int, rng):
    """n i.i.d. uniform points of the unit square, in insertion order."""
    return _points(*sample_uniform_xy(n, rng))


def _check_finite(name: str, v: float) -> None:
    """Refuses a negative, NaN or infinite ``v`` as ``name``."""
    if not 0.0 <= v < math.inf:
        raise ValueError(f"{name} must be {'>= 0' if v < 0.0 else 'finite'}, got {v}")


def _check_budget(t: float, name: str = "intensity budget t") -> None:
    """Refuses a Poisson budget, called ``name``, before any draw: a negative
    or non-finite one, and one above 2**62, which numpy's Poisson cannot draw
    (its limit is just below 2**63) and whose trees would be far above
    ``_MAX_POINTS``."""
    _check_finite(name, t)
    if t > 2.0**62:
        raise CapExceededError(f"{name} = {t} exceeds 2**62; trees are capped "
                               f"at {_MAX_POINTS} points")


def sample_poisson_xy(t: float, rng) -> tuple:
    """A Poisson(t) number of uniform points as (xs, ys), in arrival order."""
    _check_budget(t)
    n = int(rng.poisson(t))
    return sample_uniform_xy(n, rng)


# A crossing slice carries the rule of its next split: quad narrows the
# slice's x-extent and splits it in y; a 2-d tree does one, then the other.
_QUAD, _KD_V, _KD_H = 0, 1, 2
_AFTER = (_QUAD, _KD_H, _KD_V)  # a slice's rule once it has been crossed
HEAD = 128  # points updated one by one before the blocks


def _rule(root_axis: str) -> int:
    if root_axis not in ("v", "h"):
        raise ValueError(f"root_axis must be 'v' or 'h', got {root_axis!r}")
    return _KD_V if root_axis == "v" else _KD_H


def _coords(xs, ys) -> tuple:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValueError(f"coordinates must be 1-d of equal length, got {xs.shape}, {ys.shape}")
    return xs, ys


@lru_cache(maxsize=None)
def _cell_edges(g: int) -> np.ndarray:
    """The read-only edges arange(g + 1) / g of the hull's g cells."""
    edges = np.arange(g + 1) / g
    edges.flags.writeable = False
    return edges


def _root_slices(rule: int) -> tuple:
    """(yb, lo, hi, rules) of the one slice of an empty tree: slice i spans
    [yb[i], yb[i+1]) in y, the last one up to 1, and [lo[i], hi[i]) in x, and
    its next split follows rules[i].  The root slice is (-inf, 1.0], closed at
    1.0 so that a point there still counts."""
    return [0.0], [-math.inf], [1.0], [rule]


def _split_slices(px, py, s: float, yb, lo, hi, rules) -> int:
    """The exact per-point update: each point (px, py lists, in arrival
    order) inside a slice is a crossing node and splits that slice in place.
    Returns the number of crossing nodes."""
    count = 0
    for x, y in zip(px, py):
        i = bisect_right(yb, y) - 1
        b = hi[i]
        if lo[i] <= x and (x < b or x == b == 1.0):
            count += 1
            r = rules[i]
            nxt = rules[i] = _AFTER[r]
            if r != _KD_H:
                if s < x:
                    hi[i] = x
                else:
                    lo[i] = x
            if r != _KD_V:
                yb.insert(i + 1, y)
                lo.insert(i + 1, lo[i])
                hi.insert(i + 1, hi[i])
                rules.insert(i + 1, nxt)
    return count


def _hull_keep(yb_a, lo_a, hi_a, bx, by) -> np.ndarray:
    """Which points (bx, by) may lie inside a slice (yb_a, lo_a, hi_a as
    arrays): a mask that passes every point inside one, and x == hi == 1.0.

    The hull has g cells of [0, 1] (g a power of two, so y is in cell
    floor(y g) exactly), each with the closed x-hull of the slices
    first[j] .. first[j + 1] meeting it."""
    g = 2 << yb_a.size.bit_length()
    first = yb_a.searchsorted(_cell_edges(g), side="right") - 1
    lo_g = np.minimum(np.minimum.reduceat(lo_a, first[:-1]), lo_a[first[1:]])
    hi_g = np.maximum(np.maximum.reduceat(hi_a, first[:-1]), hi_a[first[1:]])
    cell = (by * g).astype(np.intp)  # y == 1 gives g, clipped to the top cell
    return (lo_g.take(cell, mode="clip") <= bx) & (bx <= hi_g.take(cell, mode="clip"))


def _slice_cost(xs, ys, s: float, rule: int) -> int:
    """Crossings of x = s by the tree on the points (xs, ys) in arrival order.

    Keeps the leaf cells crossing the line as slices that tile [0, 1] in y,
    each with its x-extent and next split rule (see ``_root_slices``); a
    point inside a slice is a crossing node and splits it.  The first
    ``HEAD`` points each get that exact update.  After them slices only
    shrink as points arrive, so each block [m, 4m) is first tested in one
    pass against a hull of the slices as they stood at m, rebuilt once per
    block from one array of the slices.  That test passes every crossing,
    and only the points that pass get the exact update.
    """
    xs, ys = _coords(xs, ys)
    n = xs.size
    # min and max return NaN if any element is NaN, and NaN fails every test
    if n and not (0.0 <= ys.min() and ys.max() <= 1.0 and xs.max() <= 1.0):
        raise ValueError("coordinates must have y in [0, 1], x <= 1 and no NaN")
    slices = _root_slices(rule)
    stop = min(n, HEAD)
    count = _split_slices(xs[:stop].tolist(), ys[:stop].tolist(), s, *slices)
    while stop < n:
        start, stop = stop, min(n, 4 * stop)
        bx, by = xs[start:stop], ys[start:stop]
        keep = _hull_keep(*np.array(slices[:3], dtype=float), bx, by)
        count += _split_slices(bx[keep].tolist(), by[keep].tolist(), s, *slices)
    return count


def _screen(xs, ys, s: float, rule: int) -> tuple:
    """(count, groups): the crossings among the first ``HEAD`` points of the
    tree on (xs, ys) queried at s, and the later points that can cross,
    grouped for ``_batch_line_costs``.

    A later crossing node lies inside one of the slices the head leaves, and
    the points inside a slice build a subtree of their own: it is rooted at
    that crossing leaf cell, so its first point is a crossing node, and it
    splits by the slice's rule.  So the tree's cost is ``count`` plus the
    costs of those subtrees.  The later points are screened once: by the
    hull, then exactly by slice.  Each group is (rule, x, y, sizes): the
    survivors of the slices with that rule, slice after slice in y order and
    in arrival order within one, and the number in each of those slices
    (0 included).  Inputs are trusted, as for ``_batch_line_costs``.
    """
    slices = _root_slices(rule)
    stop = min(xs.size, HEAD)
    count = _split_slices(xs[:stop].tolist(), ys[:stop].tolist(), s, *slices)
    if stop == xs.size:
        return count, ()
    bx, by = xs[stop:], ys[stop:]
    yb, lo, hi = np.array(slices[:3], dtype=float)
    pick = _hull_keep(yb, lo, hi, bx, by).nonzero()[0]
    x = bx.take(pick)
    i = yb.searchsorted(by.take(pick), side="right") - 1
    hi[hi == 1.0] = math.inf  # the hull passed only x <= 1: x == hi == 1.0 is inside
    inside = (lo.take(i) <= x) & (x < hi.take(i))
    i, m = i[inside].astype(np.int16), yb.size  # m <= HEAD + 1 slices
    if rule != _QUAD:  # the slices with the kd-h rule follow all the others
        i += (np.array(slices[3]) == _KD_H).take(i) * np.int16(m)
    pick = pick[inside].take(i.argsort(kind="stable"))
    x, y, sizes = bx.take(pick), by.take(pick), np.bincount(i, minlength=2 * m)
    if rule == _QUAD:
        return count, ((_QUAD, x, y, sizes[:m]),)
    cut = int(sizes[:m].sum())
    return count, ((_KD_V, x[:cut], y[:cut], sizes[:m]), (_KD_H, x[cut:], y[cut:], sizes[m:]))


def line_cost(xs, ys, s: float) -> int:
    """cost(build(points), s) computed without building nodes.

    Coordinates must be 1-d and of equal length, with y in [0, 1], x <= 1
    and no NaN, or ValueError is raised.  x's below 0 are inside the root
    cell, so the same count serves the extended-box coupling.  The
    first ``HEAD`` points get one exact update each; blocks [m, 4m) after
    them are screened by a hull first (see ``_slice_cost``), with the same
    count.
    """
    _check_query(s)
    return _slice_cost(xs, ys, s, _QUAD)


def _runs(cell) -> tuple:
    """(at, run) of a sorted, non-empty cell array: the start of each run of
    equal cells, and the run of each element.  A table indexed by cell holds
    each run's rank, so one gather numbers the elements, not a cumsum."""
    head = np.empty(cell.size, dtype=bool)
    head[0] = True
    np.not_equal(cell[1:], cell[:-1], out=head[1:])
    at = head.nonzero()[0]
    rank = np.empty(cell[-1] + 1, dtype=np.intp)
    rank[cell[at]] = np.arange(at.size)
    return at, rank.take(cell)


def _batch_line_costs(xs, ys, sizes, s, rule: int) -> np.ndarray:
    """The line costs of many small trees at once: tree j holds the next
    sizes[j] points of (xs, ys) in arrival order and is queried at s[j].

    Works a level at a time on the crossing cells only, with no x-extents:
    each cell's pending points are a run in arrival order, starting with the
    trees, numbered by ``_runs``.  The first point of a run is a crossing
    node; under an x-split, the rest stay only on the query's side (x >= node
    x iff s >= node x, so a line on the split goes right), and under a
    y-split they go to the bottom or top child by a stable partition, top
    runs after all bottom ones, as in ``_node_extents``.  A point is visited about 2.5 (quad) to
    5 (2-d tree) times, each visit an element of a numpy pass over the whole
    batch, which is cheaper than ``_slice_cost``'s one Python update per
    point up to about 2000 points per tree (``_screen``'s slices hold tens
    of points).  Inputs are trusted: x's at
    most 1, y's in [0, 1], s in [0, 1] and general position, where the
    counts equal ``_slice_cost``'s; like it, this needs no root box.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    s = np.asarray(s, dtype=float)
    x, y = xs, ys
    cell = np.repeat(np.arange(sizes.size), sizes)
    tree = np.arange(sizes.size)  # the tree of each cell
    found = [tree[:0]]  # the tree of each crossing node, a level per array
    while x.size:
        at, run = _runs(cell)
        tree = tree[cell[at]]
        found.append(tree)
        if rule != _KD_H:
            hx = x[at]
            keep = (x >= hx[run]) == (s[tree] >= hx)[run]
        else:
            keep = np.ones(x.size, dtype=bool)
        keep[at] = False
        if rule != _KD_V:
            top = y >= y[at][run]
            order = np.concatenate(((keep & ~top).nonzero()[0], (keep & top).nonzero()[0]))
            cell = (run + at.size * top)[order]
            tree = np.concatenate((tree, tree))
        else:
            order = keep.nonzero()[0]
            cell = run[order]
        x, y, rule = x[order], y[order], _AFTER[rule]
    return np.bincount(np.concatenate(found), minlength=sizes.size)


_BATCH_MAX = 1024
_BATCH_POINTS = 1 << 14


def _sampled_costs(trees, root_axis=None) -> np.ndarray:
    """The line costs of the (xs, ys, s) ``trees`` in order, each on (xs, ys)
    at x = s: quadtrees, or with ``root_axis`` 2-d trees.  The inputs are
    trusted: y's in [0, 1], x's at most 1, general position.

    They are counted together in calls of ``_batch_line_costs`` of at most
    ``_BATCH_POINTS`` points (or one tree's), which keeps a 256-tree block's
    tracemalloc peak near 2 MiB.  A tree of up to ``_BATCH_MAX`` points goes
    in whole, in a fifth (n = 64) to half (n = 1000) of ``line_cost``'s time.
    A larger one is screened first (``_screen``): its head is counted at
    once, and only the later points inside the head's crossing slices wait,
    each a tree of its own under its own rule; at n = 2000 to 8000 that takes
    0.6 (quadtree) and 0.8 (2-d tree) of ``line_cost``'s time per tree."""
    rule = _QUAD if root_axis is None else _rule(root_axis)
    # counts: each waiting tree's count so far, indexed by k; small and slices:
    # (k, xs, ys, s) and {rule: [(k, xs, ys, sizes, s)]}; held: points waiting
    done, counts, small, slices, held = [], [], [], {}, 0

    def flush():
        nonlocal counts, small, slices, held
        out = np.array(counts, dtype=np.int64)
        if small:
            ks, xs, ys, qs = zip(*small)
            out[list(ks)] = _batch_line_costs(np.concatenate(xs), np.concatenate(ys),
                                              [a.size for a in xs], qs, rule)
        for r, parts in slices.items():
            ks, xs, ys, sizes, qs = zip(*parts)
            m = [a.size for a in sizes]
            costs = _batch_line_costs(np.concatenate(xs), np.concatenate(ys),
                                      np.concatenate(sizes), np.repeat(qs, m), r)
            out[list(ks)] += np.add.reduceat(costs, np.cumsum(m) - m)
        done.append(out)
        counts, small, slices, held = [], [], {}, 0

    for xs, ys, s in trees:
        if xs.size <= _BATCH_MAX:
            if held + xs.size > _BATCH_POINTS and held:
                flush()
            small.append((len(counts), xs, ys, s))
            counts.append(0)
            held += xs.size
            continue
        count, groups = _screen(xs, ys, s, rule)
        size = sum(g[1].size for g in groups)
        if held + size > _BATCH_POINTS and held:
            flush()
        for r, x, y, sizes in groups:
            if x.size:
                slices.setdefault(r, []).append((len(counts), x, y, sizes, s))
        counts.append(count)
        held += size
    flush()
    return np.concatenate(done)


def _check_tree_xy(xs, ys, sx, sy) -> None:
    """Refuses the points (xs, ys), with sx and sy their coordinates sorted,
    as ``build`` does: names the first point outside the square, else the
    first that repeats a coordinate."""
    if xs.size and not (0.0 <= sx[0] and sx[-1] <= 1.0 and 0.0 <= sy[0] and sy[-1] <= 1.0) or any(
        np.any(a[1:] == a[:-1]) for a in (sx, sy)
    ):
        _check_general_position(_points(xs, ys))


def _node_extents(xs, ys, rule: int) -> tuple:
    """(x0, x1, pos, counts) of the tree the points (xs, ys) build in arrival
    order from the unit-square root under ``rule``: ``pos`` is 0.0, the sorted
    x's and 1.0, node i's cell x-extent is [pos[x0[i]], pos[x1[i]]), and
    counts[d] is the number of nodes at depth d.  Checks input as ``build`` does.

    Works a level at a time on x-ranks (x >= node x iff rank >= node rank, as
    no x repeats).  Each cell's pending points are a run in arrival order: the
    first is the cell's node, the rest go to its children (right at x >= node
    x, top at y >= node y), numbered child-major for a radix sort by digit."""
    xs, ys = _coords(xs, ys)
    n, order = xs.size, np.argsort(xs)
    pos = np.concatenate(([0.0], xs[order], [1.0]))
    _check_tree_xy(xs, ys, pos[1:-1], np.sort(ys))
    r, y, cell = np.empty(n, dtype=np.intp), ys, np.zeros(n, dtype=np.intp)
    r[order] = np.arange(1, n + 1)
    lo, hi = np.zeros(1, dtype=np.intp), np.full(1, n + 1, dtype=np.intp)  # x-ranks by cell
    x0, x1, counts = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp), []
    while r.size:
        at, run = _runs(cell)  # run: the cell run of each pending point
        k = np.intp(at.size)  # a Python int k would keep k * digit uint8, which wraps
        lo, hi, hr, hy = lo[cell[at]], hi[cell[at]], r[at], y[at]  # hr, hy: the nodes'
        x0[r.size - k : r.size], x1[r.size - k : r.size] = lo, hi  # deepest level first
        counts.append(int(k))
        digit = 0
        if rule != _KD_H:  # split at the node's x: the right children follow the left ones
            digit = (r >= hr[run]).view(np.uint8)
            lo, hi = np.concatenate((lo, hr)), np.concatenate((hr, hi))
        if rule != _KD_V:  # split at its y: the top children follow all the bottom ones
            digit = digit + (y >= hy[run]).view(np.uint8) * np.uint8(lo.size // k)
            lo, hi = np.concatenate((lo, lo)), np.concatenate((hi, hi))
        digit[at], rule = 4, _AFTER[rule]  # the nodes sort last and drop out
        order = digit.argsort(kind="stable")[: r.size - k]
        cell, r, y = (run + k * digit)[order], r[order], y[order]
    return x0, x1, pos, counts


def _profile_xy(xs, ys, rule: int) -> StepProfile:
    """The tree's profile from +1 at each node's x0 rank and -1 at its x1 rank:
    the jumps come in sorted-x order and merge as in ``StepProfile.from_extents``."""
    x0, x1, pos, _ = _node_extents(xs, ys, rule)
    jump = np.bincount(x0, minlength=pos.size) - np.bincount(x1, minlength=pos.size)
    zero = pos == 0.0  # the root's left edge, and a point at 0.0 or -0.0
    step = ~zero & (pos < 1.0) & (jump != 0)
    values = np.cumsum(np.concatenate(([jump[zero].sum()], jump[step])))
    return StepProfile(np.concatenate(([0.0], pos[step])), values)


def profile_xy(xs, ys) -> StepProfile:
    """profile(build(points)) of the points (xs, ys), without building nodes."""
    return _profile_xy(xs, ys, _QUAD)


def sample_extension_xy(t: float, eps: float, rng) -> tuple:
    """Unit-intensity Poisson sample on [-eps, 1] x [0, 1] run for time t.

    The count is Poisson(t (1 + eps)); arrival order is the generation order.
    """
    _check_finite("eps", eps)
    _check_finite("intensity budget t", t)
    _check_budget(t * (1.0 + eps), "intensity budget t (1 + eps)")
    xs, ys = sample_uniform_xy(int(rng.poisson(t * (1.0 + eps))), rng)
    return xs * (1.0 + eps) - eps, ys


def coupled_extension_cost(xs, ys, eps: float, s: float):
    """(base cost, extended cost) at x = s from one shared point sample.

    The extended tree, on the box [-eps, 1] x [0, 1], holds all points; the
    base tree, on the unit square, the points with x >= 0, in the same
    arrival order.  ``line_cost`` counts both: its root cell is open to the
    left, and the cost depends only on the points.  Both counts are
    horizontal-line crossings of x = s, and the base count never exceeds the
    extended one pathwise.
    """
    _check_finite("eps", eps)
    xs, ys = _coords(xs, ys)
    extended = line_cost(xs, ys, s)
    keep = xs >= 0.0
    base = line_cost(xs[keep], ys[keep], s)
    return base, extended
