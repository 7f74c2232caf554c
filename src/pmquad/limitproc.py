"""Martingale approximants of the limit cost process and geometric diagnostics.

The level-n approximant starts from the profile function h at every node of
the infinite quaternary tree and applies the four-branch recursion operator
n times.  Evaluated at a query position s, only the boxes crossing the line
matter: there are exactly 2^n of them at level n, and

    Z_n(s) = sum over crossing boxes  Leb(Q)^beta * h((s - l)/(r - l)),

with [l, r) the box's x-projection.  Labels (U_v, V_v, W_v) attached to tree
addresses come from a keyed counter hash of (seed, address), so an
environment is one 64-bit seed (ints are taken mod 2^64), any address yields
the same labels on every access without storing 4^n values, and evaluation
is vectorizable across boxes and across independent environments.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import _check_count
from .geom import _check_query, fill_up_level
from .specfun import beta_exponent

__all__ = [
    "env_seed",
    "labels_at",
    "g_apply",
    "simulate_path",
    "simulate_many",
    "crossing_boxes",
    "diagnostics",
    "diagnostics_many",
    "fill_up_level",
    "fill_up_level_xy",
]

_MAX_POINTWISE_DEPTH = 24
_MAX_ENUM_DEPTH = 12
_MAX_PATH_GRID = 10_000

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

_GOLDEN3 = (3 * _GOLDEN) & _M64  # label counter stride: 3 families per address
_TWO_GOLDEN3 = (2 * _GOLDEN3) & _M64  # right-hand children: code digit + 2

_BOX_BUDGET = 1 << 16  # crossing boxes one expansion batch holds at a time


def _mix64_int(x: int) -> int:
    """splitmix64 finalizer on Python ints (reference for the array version)."""
    x &= _M64
    x ^= x >> 30
    x = (x * _MIX_A) & _M64
    x ^= x >> 27
    x = (x * _MIX_B) & _M64
    x ^= x >> 31
    return x


def _mix64_arr(x: np.ndarray, t=None) -> np.ndarray:
    """splitmix64 finalizer of a uint64 array, in place; ``t`` is scratch of
    x's shape, allocated when not given."""
    t = np.right_shift(x, np.uint64(30), out=t)
    x ^= t
    x *= np.uint64(_MIX_A)
    x ^= np.right_shift(x, np.uint64(27), out=t)
    x *= np.uint64(_MIX_B)
    x ^= np.right_shift(x, np.uint64(31), out=t)
    return x


def env_seed(master_seed: int, index: int) -> int:
    """Deterministic per-replication environment seed from a master seed."""
    base = _mix64_int((master_seed & _M64) ^ _GOLDEN)
    return _mix64_int(base + index * _GOLDEN)


def _env_seeds(master_seed: int, start: int, reps: int) -> np.ndarray:
    """env_seed(master_seed, i) for i in start .. start+reps-1, as uint64;
    indices wrap mod 2^64 as in ``env_seed``, so any int ``start`` works."""
    if reps < 0:
        raise ValueError(f"reps must be >= 0, got {reps}")
    base = _mix64_int((master_seed & _M64) ^ _GOLDEN)
    idx = np.uint64(start & _M64) + np.arange(reps, dtype=np.uint64)
    return _mix64_arr(np.uint64(base) + idx * np.uint64(_GOLDEN))


def labels_at(seed: int, address=()):
    """(U, V, W) at a tree address, a tuple over {1, 2, 3, 4}, in the
    environment of ``seed``.  The same (seed, address) always yields the same
    triple, so pointwise and path evaluation agree bit for bit."""
    seed &= _M64
    state = (seed + _GOLDEN3) & _M64
    for d in address:
        if d not in (1, 2, 3, 4):
            raise ValueError(f"address digits must be in 1..4, got {d!r}")
        state = (4 * state - 3 * seed + (d - 1) * _GOLDEN3) & _M64
    state = np.array([state], dtype=np.uint64)
    return tuple(float(_label_uniforms(state, i)[0]) for i in range(3))


def g_apply(x: float, y: float, f1, f2, f3, f4, s: float) -> float:
    """The four-branch recursion operator applied to functions f1..f4 at s.

    For s < x the two left boxes contribute with areas (xy) and x(1-y) and
    rescaled argument s/x; otherwise the right boxes contribute with areas
    (1-x)y and (1-x)(1-y) and argument (s-x)/(1-x).
    """
    if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
        raise ValueError("labels must lie in the open unit interval")
    _check_query(s)
    b = beta_exponent()
    if s < x:
        u = s / x
        return (x * y) ** b * f1(u) + (x * (1.0 - y)) ** b * f2(u)
    u = (s - x) / (1.0 - x)
    return ((1.0 - x) * y) ** b * f3(u) + ((1.0 - x) * (1.0 - y)) ** b * f4(u)


def _label_uniforms(state: np.ndarray, family: int, z=None, t=None, out=None):
    """Uniform in (0, 1) from the splitmix64 finalizer of a box's counter state.

    The root's state is seed + G3, and child j (0..3) of a box with state x
    has state 4 x - 3 seed + j G3 (mod 2^64): that is c G3 + seed, for c the
    box's base-4 heap code (root 1, children of c are 4c + j).  Family f
    hashes state + f GOLDEN = (3 c + f) GOLDEN + seed; the counter 3 c + f is
    injective over (address, family) pairs, so no two labels in a run ever
    share a generator state.  The hash runs in place in the uint64 scratch
    arrays ``z`` and ``t`` of state's shape, and the uniforms go to the
    float64 array ``out``; each is allocated when not given.
    """
    z = _mix64_arr(np.add(state, np.uint64((family * _GOLDEN) & _M64), out=z), t)
    # 53-bit mantissa offset by half a step: values stay in the open interval
    z >>= np.uint64(11)
    out = np.add(z.view(np.int64), 0.5, out=out)  # < 2^53: exact either way
    out *= 2.0**-53
    return out


class _Workspace:
    """Grow-only flat buffers, one per role, handed out as shaped views.

    One expansion call makes one workspace, and every level and batch of the
    call writes into it, so the call touches its memory once.  Fresh
    temporaries at every level would be paged in anew each time, since the
    allocator hands large freed blocks back to the system.  A role's buffer
    holds ``reserve`` elements, or the first larger request; a request
    larger still replaces it.
    """

    def __init__(self, reserve: int):
        self._reserve = reserve
        self._flat = {}

    def take(self, role, shape, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self._flat.get(role)
        if buf is None or buf.size < size:
            buf = self._flat[role] = np.empty(max(size, self._reserve), dtype)
        return buf[:size].reshape(shape)


# Layout of the crossing-box expansion.  A box computes only the branch the
# line takes, left or right of its label U; its two children there split at V
# (2-d variant: V on the left, W on the right, the one label hashed).  The
# boxes of one level are an (m, D, H) array of m independent rows in halves
# order: the bottom and top children of the box in column c sit in columns c
# and c + D*H of the next level, so a row's leaves are its paths with the
# first split in the lowest bit.  Siblings share their relative position u,
# which is stored once, shaped (m, 1, H).  Folding a row by halves adds
# sibling subtrees exactly as the pairwise fold of the breadth-first order
# does, so every sum has the same bits.  The rows are environments or query
# positions: a whole chunk at the top levels, and a slice of its rows at the
# bottom levels, which continue from those rows' boxes as if they had been
# expanded alone.  Past the split level of a deep expansion each row is one
# subtree root instead.
#
# Every box array below the roots lives in a _Workspace.  A level's outputs
# go to the buffers of one slot and its parent's sit in another, so the
# levels of a descent alternate two slots.  The bottom batches slice the top
# levels' last one, which keeps its slot while they run.


def _children(state, log_area, u, two_d: bool, ws: _Workspace, slot):
    """Split each box at its labels: the children's log-areas (m, 2, D*H),
    their relative position (m, 1, D*H) and the left-branch mask (m, D, H).

    A box computes only the branch the line takes, r = 1 right (u >= U) or 0
    left: width |r - U|, position (u - r U) / width, and in the 2-d variant
    one horizontal label, of family 2 - left (V on the left, W on the right).

    The results are views of ``ws``: the two outputs in the buffers of
    ``slot``, the mask and the scratch in buffers that every call overwrites.
    Each element takes the operations it would take in fresh arrays, so
    where it is written changes no bit."""
    m, d, w = shape = state.shape
    z = ws.take("z", shape, np.uint64)
    t = ws.take("t", shape, np.uint64)
    U = _label_uniforms(state, 0, z, t, ws.take("U", shape))
    left = np.less(u, U, out=ws.take("left", shape, np.bool_))
    r = np.logical_not(left, out=ws.take("r", shape))
    if two_d:
        state = np.subtract(state, np.multiply(left, np.uint64(_GOLDEN), out=z), out=z)
    h_bottom = _label_uniforms(state, 1 + two_d, z, t, ws.take("h", shape))
    # the hash scratch is free now: r U reuses its memory
    u_next = np.subtract(u, np.multiply(r, U, out=t.view(np.float64)),
                         out=ws.take(("u", slot), shape))
    width = np.abs(np.subtract(r, U, out=r), out=r)
    u_next /= width
    la = ws.take(("la", slot), (m, 2, d, w))
    np.multiply(width, h_bottom, out=la[:, 0])
    np.subtract(1.0, h_bottom, out=la[:, 1])
    la[:, 1] *= width
    np.log(la, out=la)
    la += log_area[:, None]
    return la.reshape(m, 2, d * w), u_next.reshape(m, 1, d * w), left


def _descend(state, log_area, u, seed_off, levels: int, two_d: bool, ws: _Workspace, slots):
    """The boxes ``levels`` levels further down, level i written to the
    workspace slot slots[i % 2].  ``seed_off`` (m, 1) is 2 G3 - 3 seed mod
    2^64, so a bottom child's counter state is 4 state + seed_off - 2 G3 left."""
    for level in range(levels):
        m = state.shape[0]
        slot = slots[level % 2]
        log_area, u_next, left = _children(state, log_area, u, two_d, ws, slot)
        nxt = ws.take(("state", slot), log_area.shape, np.uint64)
        bottom = np.multiply(state.reshape(m, -1), np.uint64(4), out=nxt[:, 0])
        bottom += seed_off
        bottom -= np.multiply(left.reshape(m, -1), np.uint64(_TWO_GOLDEN3),
                              out=ws.take("z", bottom.shape, np.uint64))
        np.add(bottom, np.uint64(_GOLDEN3), out=nxt[:, 1])
        state, u = nxt, u_next
    return state, log_area, u


def _leaves(state, log_area, u, seed_off, levels: int, two_d: bool, ws: _Workspace, slots):
    """(log-area, relative position) of the boxes ``levels`` levels down."""
    if levels == 0:
        return log_area, u
    state, log_area, u = _descend(state, log_area, u, seed_off, levels - 1, two_d, ws, slots)
    return _children(state, log_area, u, two_d, ws, slots[(levels - 1) % 2])[:2]


def _roots(s, seeds: np.ndarray):
    """Root boxes of a batch: one per row, with query position s[r] in the
    environment of seed seeds[r]."""
    seeds = seeds.astype(np.uint64).reshape(-1, 1, 1)
    m = seeds.shape[0]
    return (seeds + np.uint64(_GOLDEN3), np.zeros((m, 1, 1)),
            np.array(s, dtype=float).reshape(m, 1, 1),
            seeds.reshape(m, 1) * np.uint64(_M64 - 2) + np.uint64(_TWO_GOLDEN3))


def _pairwise_fold(a: np.ndarray) -> np.ndarray:
    """Sum along the last axis by repeated halving: order-fixed, shape-stable.

    Column j meets column j + half, which in halves order is its sibling.
    The sums overwrite a's first half, level by level."""
    while a.shape[-1] > 1:
        half = a.shape[-1] // 2
        a = np.add(a[..., :half], a[..., half:], out=a[..., :half])
    return a[..., 0]


def _box_sums(log_area, u, ws: _Workspace) -> np.ndarray:
    """Per row, the fold of area^beta * h(u) over the row's boxes, computed
    in place in log_area; h(u) goes to the workspace's hash scratch."""
    b = beta_exponent()
    m = log_area.shape[0]
    g = np.subtract(1.0, u, out=ws.take("z", u.shape, np.uint64).view(np.float64))
    g *= u
    np.power(g, b / 2.0, out=g)
    log_area *= b
    terms = np.exp(log_area, out=log_area)
    terms *= g
    return _pairwise_fold(terms.reshape(m, -1))


def _check_depth_query(n: int, s) -> float | np.ndarray:
    s = _check_query(s)
    _check_count("depth", n, _MAX_POINTWISE_DEPTH)
    return s


def _crossing_sums(n: int, s, seeds: np.ndarray, two_d: bool) -> np.ndarray:
    """Z_n(s[r]) in the environment of seed seeds[r], for every row r.

    ``s`` is one position or one per row.  The work runs in three steps:

    - Top levels per chunk: a chunk of rows is expanded together down to a
      top level t, where the chunk's boxes fill one _BOX_BUDGET (256 rows to
      level 8 at the default budget), so no level runs on a narrow array
      once per small batch.
    - Bottom levels per row batch: at depth n <= log2(_BOX_BUDGET), each
      slice of _BOX_BUDGET >> n rows of the top level is finished down to
      level n in the rows' own (m, D, H) layout and folded per row.
    - Split path for deeper n: a chunk is one row, t is the split level
      where one subtree holds _BOX_BUDGET boxes, and each subtree rooted
      there is finished and folded on its own; the row's 2^t partial sums
      are then folded again.

    The labels depend only on (seed, address) and each row's boxes keep
    their halves order, so the order of the work changes no bit of the
    result.  Every box array and temporary is a view of one _Workspace per
    call, whose buffers hold at most _BOX_BUDGET elements each (a split
    level that outgrows the budget, under a small budget, grows them), so
    the levels and batches reuse the same memory.
    """
    s = np.broadcast_to(_check_depth_query(n, s), seeds.shape)
    log_budget = _BOX_BUDGET.bit_length() - 1
    if n > log_budget:  # one row at a time, split where a subtree fills the budget
        top, chunk = n - log_budget, 1
    else:
        # a chunk fills the budget at level t; with t half the budget's levels,
        # top and bottom arrays alike hold about sqrt(_BOX_BUDGET) boxes or more
        top = min(n, log_budget // 2)
        chunk = _BOX_BUDGET >> top
    batch = max(1, _BOX_BUDGET >> n)
    # the top levels alternate slots 0 and 1 and end in slot (top - 1) % 2;
    # the bottom levels take the top's other slot at their last, largest level
    bottom_slots = (top % 2, 2) if (n - top) % 2 else (2, top % 2)
    ws = _Workspace(min(_BOX_BUDGET, seeds.shape[0] << n))
    out = np.empty(seeds.shape[0])
    for lo in range(0, seeds.shape[0], chunk):
        state, log_area, u, seed_off = _roots(s[lo:lo + chunk], seeds[lo:lo + chunk])
        m = state.shape[0]
        state, log_area, u = _descend(state, log_area, u, seed_off, top, two_d, ws, (0, 1))
        if n > log_budget:  # every box at the split level roots one subtree
            r = state.size
            u = np.broadcast_to(u, state.shape).reshape(r, 1, 1)
            state = state.reshape(r, 1, 1)
            log_area = log_area.reshape(r, 1, 1)
            seed_off = np.broadcast_to(seed_off, (m, r // m)).reshape(r, 1)
        sums = np.empty(state.shape[0])
        for j in range(0, state.shape[0], batch):
            k = slice(j, j + batch)
            leaves = _leaves(state[k], log_area[k], u[k], seed_off[k], n - top, two_d,
                             ws, bottom_slots)
            sums[k] = _box_sums(*leaves, ws)
        out[lo:lo + m] = _pairwise_fold(sums.reshape(m, -1))
    return out


def crossing_boxes(n: int, s: float, seed: int, two_d: bool = False):
    """(areas, relative positions) of the level-n boxes meeting x = s.

    Introspection view of the same expansion the simulators run, in
    breadth-first order (the children of box j are boxes 2j and 2j+1):
    exactly 2^n boxes, areas multiplicative along each branch, and
    sum(areas^beta * h(u)) reproduces the simulated value.
    """
    s = _check_depth_query(n, s)
    seeds = np.array([seed & _M64], dtype=np.uint64)
    log_area, u = _leaves(*_roots(s, seeds), n, two_d, _Workspace(1 << n), (0, 1))
    u = np.broadcast_to(u, log_area.shape)
    # halves order to breadth-first order: reverse the n path bits
    order = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        order = np.concatenate((2 * order, 2 * order + 1))
    return np.exp(log_area.reshape(-1)[order]), u.reshape(-1)[order]


def simulate_path(n: int, grid, seed: int, two_d: bool = False):
    """Z_n on a grid of query positions in the environment of ``seed``; ``two_d``
    gives the 2-d tree variant (independent vertical labels per side).  The
    grid points run as the rows of one batched expansion, and a one-point
    grid gives the same value at that point, bit for bit."""
    grid = np.asarray(grid, dtype=float).reshape(-1)
    _check_count("grid size", grid.size, _MAX_PATH_GRID)
    seeds = np.full(grid.size, seed & _M64, dtype=np.uint64)
    return _crossing_sums(n, grid, seeds, two_d)


def simulate_many(n: int, s: float, master_seed: int, reps: int,
                  two_d: bool = False, start: int = 0) -> np.ndarray:
    """Z_n(s) across ``reps`` independent environments with indices
    start .. start+reps-1.

    Entry r equals simulate_path(n, [s], env_seed(master_seed, start + r),
    two_d)[0] exactly.
    """
    return _crossing_sums(n, s, _env_seeds(master_seed, start, reps), two_d)


def _diagnostics(n: int, seeds: np.ndarray):
    """(W_n, L_n) arrays with one entry per environment seed: the largest cell
    x-width at level n and the smallest gap between distinct vertical
    boundaries (0, 1 and the splits of every box above level n).

    Every box splits into its four children a level at a time, in batches of
    rows that hold at most _BOX_BUDGET level-n cells (one row when a row alone
    has more).  Level n itself is not built: its widths are the two parts of
    each level n-1 box.
    """
    _check_count("depth", n, _MAX_ENUM_DEPTH)
    wn = np.ones(seeds.shape[0])
    ln = np.empty(seeds.shape[0])
    rows = max(1, _BOX_BUDGET >> 2 * n)
    digits = np.arange(4, dtype=np.uint64).reshape(4, 1) * np.uint64(_GOLDEN3)
    for lo in range(0, seeds.shape[0], rows):
        seed = seeds[lo:lo + rows].reshape(-1, 1)
        m = seed.shape[0]
        state, seed_off = seed + np.uint64(_GOLDEN3), seed * np.uint64(_M64 - 2)
        left = np.zeros((m, 1))  # the boxes' left edges
        width = np.ones((m, 1))
        bounds = np.empty((m, 2 + (4**n - 1) // 3))
        bounds[:, :2] = (0.0, 1.0)
        for level in range(n):
            if level:  # the children in digit-major order: block j holds digit j
                state = ((4 * state + seed_off)[:, None] + digits).reshape(m, -1)
                left = np.concatenate((left, left, split, split), axis=1)
                width = np.concatenate((w_left, w_left, w_right, w_right), axis=1)
            w_left = width * _label_uniforms(state, 0)
            split = left + w_left
            w_right = width - w_left
            first = 2 + (4**level - 1) // 3
            bounds[:, first:first + 4**level] = split
        if n:
            wn[lo:lo + m] = np.maximum(w_left.max(axis=1), w_right.max(axis=1))
        bounds.sort(axis=1)
        gaps = np.diff(bounds, axis=1)
        ln[lo:lo + m] = np.min(gaps, axis=1, where=gaps > 0.0, initial=np.inf)
    return wn, ln


def diagnostics(n: int, seed: int):
    """(W_n, L_n) in the environment of ``seed``: max cell x-width at level n
    and min gap between distinct vertical-boundary x-coordinates, over the
    full 4^n-cell enumeration."""
    wn, ln = _diagnostics(n, np.array([seed & _M64], dtype=np.uint64))
    return float(wn[0]), float(ln[0])


def diagnostics_many(n: int, master_seed: int, reps: int, start: int = 0):
    """(W_n, L_n) arrays across independent environments with indices
    start .. start+reps-1."""
    return _diagnostics(n, _env_seeds(master_seed, start, reps))


def fill_up_level_xy(xs, ys) -> int:
    """fill_up_level(build(points)) of the points (xs, ys), refused as
    ``build`` refuses them: the one-tree case of ``_fill_up_levels``."""
    from .quadtree import _check_tree_xy, _coords
    xs, ys = _coords(xs, ys)
    _check_tree_xy(xs, ys, np.sort(xs), np.sort(ys))
    return int(_fill_up_levels([(xs, ys)])[0])


def _fill_up_levels(trees) -> np.ndarray:
    """The fill-up levels of the quadtrees on the (xs, ys) ``trees``, whose
    points are trusted: in the unit square and in general position.

    They are counted together in calls of ``_fill_up_batch`` of at most
    ``quadtree._BATCH_POINTS`` points, or one larger tree's."""
    from . import quadtree
    levels, xs, ys, held = [np.zeros(0, dtype=np.intp)], [], [], 0
    for x, y in trees:
        if held + x.size > quadtree._BATCH_POINTS and xs:
            levels.append(_fill_up_batch(xs, ys))
            xs, ys, held = [], [], 0
        xs.append(x)
        ys.append(y)
        held += x.size
    if xs:
        levels.append(_fill_up_batch(xs, ys))
    return np.concatenate(levels)


def _runs(cell) -> tuple:
    """``quadtree._runs``, loaded only when fill-up levels are counted."""
    from .quadtree import _runs
    return _runs(cell)


def _fill_up_batch(xs, ys) -> np.ndarray:
    """The fill-up levels of the quadtrees on the point arrays xs[j], ys[j].

    Partitions the pending points a level at a time, as ``_node_extents``
    does one tree's, on coordinates instead of x-ranks.  Each cell's pending
    points are a run, starting with the trees: the first is the cell's node,
    the rest go to its children, numbered child-major for a radix sort by
    digit.  A tree's level d is full when it has 4^d runs there; a tree whose
    level is not full drops out with all its points, so no tree is
    partitioned below its first level that is not full."""
    sizes = [a.size for a in xs]
    x, y = np.concatenate(xs), np.concatenate(ys)
    levels = np.zeros(len(sizes), dtype=np.intp)
    cell = np.repeat(np.arange(len(sizes)), sizes)
    tree = np.arange(len(sizes))  # the tree of each cell
    full = 1  # nodes at a full level: 4^d at depth d
    while x.size:
        at, run = _runs(cell)
        k = np.intp(at.size)  # a Python int k would keep k * digit uint8, which wraps
        tree = tree.take(cell.take(at))  # the tree of each node
        grown = np.bincount(tree, minlength=len(sizes)) == full
        if not grown.any():
            break
        levels += grown
        digit = (x >= x.take(at).take(run)).view(np.uint8)  # right: x >= node x
        digit += (y >= y.take(at).take(run)).view(np.uint8) * np.uint8(2)  # top: y >= node y
        digit[at] = 4  # the nodes sort last and drop out, with the trees that did not grow
        digit[~grown.take(tree).take(run)] = 4
        order = digit.argsort(kind="stable")[: x.size - np.count_nonzero(digit == 4)]
        cell, x, y = (run + k * digit).take(order), x.take(order), y.take(order)
        tree, full = np.tile(tree, 4), 4 * full
    return levels
