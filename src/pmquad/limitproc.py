"""Martingale approximants of the limit cost process and geometric diagnostics.

The level-n approximant starts from the profile function h at every node of
the infinite quaternary tree and applies the four-branch recursion operator
n times.  Evaluated at a query position s, only the boxes crossing the line
matter: there are exactly 2^n of them at level n, and

    Z_n(s) = sum over crossing boxes  Leb(Q)^beta * h((s - l)/(r - l)),

with [l, r) the box's x-projection.  Labels (U_v, V_v, W_v) attached to tree
addresses come from a keyed counter hash, so any address yields the same
labels on every access without storing 4^n values, and evaluation is
vectorizable across boxes and across independent environments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError
from .quadtree import _QUAD, QuadTree, _node_extents
from .specfun import beta_exponent

__all__ = [
    "LimitEnvironment",
    "env_seed",
    "g_apply",
    "simulate_pointwise",
    "simulate_pointwise_2d",
    "simulate_path",
    "simulate_many",
    "diagnostics",
    "diagnostics_many",
    "fill_up_level",
    "fill_up_level_xy",
]

_MAX_POINTWISE_DEPTH = 24
_MAX_ENUM_DEPTH = 12
_MAX_GRID = 10_000

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

_ROOT_CODE = 1  # heap numbering base 4: children of code c are 4c+0 .. 4c+3
_GOLDEN3 = (3 * _GOLDEN) & _M64  # label counter stride: 3 families per address


def _mix64_int(x: int) -> int:
    """splitmix64 finalizer on Python ints (reference for the array version)."""
    x &= _M64
    x ^= x >> 30
    x = (x * _MIX_A) & _M64
    x ^= x >> 27
    x = (x * _MIX_B) & _M64
    x ^= x >> 31
    return x


def _mix64_arr(x):
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX_A)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX_B)
    x ^= x >> np.uint64(31)
    return x


def env_seed(master_seed: int, index: int) -> int:
    """Deterministic per-replication environment seed from a master seed."""
    base = _mix64_int((master_seed & _M64) ^ _GOLDEN)
    return _mix64_int(base + index * _GOLDEN)


def _env_seeds_arr(master_seed: int, indices) -> np.ndarray:
    base = _mix64_int((master_seed & _M64) ^ _GOLDEN)
    idx = np.asarray(indices, dtype=np.uint64)
    return _mix64_arr(np.uint64(base) + idx * np.uint64(_GOLDEN))


def _to_unit(z: np.ndarray) -> np.ndarray:
    # 53-bit mantissa offset by half a step: values stay in the open interval
    return ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


@dataclass(frozen=True)
class LimitEnvironment:
    """Random labels on the infinite quaternary tree, keyed by (seed, address).

    Addresses are words over {1, 2, 3, 4}; the same address always yields the
    same label triple, so pointwise and path evaluation of one environment
    agree bit for bit.
    """

    seed: int

    def _labels_from_codes(self, codes, salt_index: int):
        seeds_col = np.array([[self.seed & _M64]], dtype=np.uint64)
        state = codes.reshape(1, -1) * np.uint64(_GOLDEN3) + seeds_col
        return _label_uniforms(state, salt_index)[0]

    def labels_at(self, address=()):
        """(U, V, W) at a tree address given as a tuple over {1, 2, 3, 4}."""
        code = _ROOT_CODE
        for d in address:
            if d not in (1, 2, 3, 4):
                raise ValueError(f"address digits must be in 1..4, got {d!r}")
            code = 4 * code + (d - 1)
        codes = np.array([code], dtype=np.uint64)
        return tuple(float(self._labels_from_codes(codes, i)[0]) for i in range(3))


def g_apply(x: float, y: float, f1, f2, f3, f4, s: float) -> float:
    """The four-branch recursion operator applied to functions f1..f4 at s.

    For s < x the two left boxes contribute with areas (xy) and x(1-y) and
    rescaled argument s/x; otherwise the right boxes contribute with areas
    (1-x)y and (1-x)(1-y) and argument (s-x)/(1-x).
    """
    if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
        raise ValueError("labels must lie in the open unit interval")
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"query position must lie in [0, 1], got {s!r}")
    b = beta_exponent()
    if s < x:
        u = s / x
        return (x * y) ** b * f1(u) + (x * (1.0 - y)) ** b * f2(u)
    u = (s - x) / (1.0 - x)
    return ((1.0 - x) * y) ** b * f3(u) + ((1.0 - x) * (1.0 - y)) ** b * f4(u)


def _pairwise_fold(a: np.ndarray) -> np.ndarray:
    """Sum along the last axis by repeated halving: order-fixed, shape-stable."""
    while a.shape[-1] > 1:
        a = a[..., 0::2] + a[..., 1::2]
    return a[..., 0]


def _label_uniforms(state: np.ndarray, family: int):
    """Uniform in (0, 1) from the splitmix64 finalizer of the label counter.

    state = (3 code + family) * GOLDEN + seed: the counter 3 code + family is
    injective over (address, family) pairs, so no two labels in a run ever
    share a generator state.
    """
    return _to_unit(_mix64_arr(state + np.uint64((family * _GOLDEN) & _M64)))


def _expand_crossing(n: int, s: float, seeds: np.ndarray, two_d: bool,
                     return_boxes: bool = False):
    """Z_n(s) for a batch of environments given as a (R,) array of seeds."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"query position must lie in [0, 1], got {s!r}")
    if n < 0:
        raise ValueError(f"depth must be >= 0, got {n}")
    if n > _MAX_POINTWISE_DEPTH:
        raise CapExceededError(f"depth {n} exceeds cap {_MAX_POINTWISE_DEPTH}")
    b = beta_exponent()
    reps = seeds.shape[0]
    seeds_col = seeds.reshape(reps, 1).astype(np.uint64)
    codes = np.full((reps, 1), _ROOT_CODE, dtype=np.uint64)
    log_area = np.zeros((reps, 1))
    u = np.full((reps, 1), float(s))
    for _ in range(n):
        state = codes * np.uint64(_GOLDEN3) + seeds_col
        U = _label_uniforms(state, 0)
        V = _label_uniforms(state, 1)
        left = u < U
        width = np.where(left, U, 1.0 - U)
        if two_d:
            W = _label_uniforms(state, 2)
            h_bottom = np.where(left, V, W)
        else:
            h_bottom = V
        u_next = np.where(left, u / U, (u - U) / (1.0 - U))
        base = codes * np.uint64(4) + np.where(left, 0, 2).astype(np.uint64)
        m = u.shape[1]
        # children of box j sit at columns 2j (bottom) and 2j+1 (top)
        codes_next = np.empty((reps, 2 * m), dtype=np.uint64)
        codes_next[:, 0::2] = base
        codes_next[:, 1::2] = base + np.uint64(1)
        la_next = np.empty((reps, 2 * m))
        la_next[:, 0::2] = log_area + np.log(width * h_bottom)
        la_next[:, 1::2] = log_area + np.log(width * (1.0 - h_bottom))
        u2 = np.empty((reps, 2 * m))
        u2[:, 0::2] = u_next
        u2[:, 1::2] = u_next
        codes, log_area, u = codes_next, la_next, u2
    if return_boxes:
        return log_area, u
    terms = np.exp(b * log_area) * (u * (1.0 - u)) ** (b / 2.0)
    return _pairwise_fold(terms)


def simulate_pointwise(n: int, s: float, env: LimitEnvironment) -> float:
    """Z_n(s) for one environment (quadtree branching: shared vertical label)."""
    seeds = np.array([env.seed & _M64], dtype=np.uint64)
    return float(_expand_crossing(n, s, seeds, two_d=False)[0])


def crossing_boxes(n: int, s: float, env: LimitEnvironment, two_d: bool = False):
    """(areas, relative positions) of the level-n boxes meeting x = s.

    Introspection view of the same expansion the simulators run: exactly 2^n
    boxes, areas multiplicative along each branch, and
    sum(areas^beta * h(u)) reproduces the simulated value.
    """
    seeds = np.array([env.seed & _M64], dtype=np.uint64)
    log_area, u = _expand_crossing(n, s, seeds, two_d=two_d, return_boxes=True)
    return np.exp(log_area[0]), u[0]


def simulate_pointwise_2d(n: int, s: float, env: LimitEnvironment) -> float:
    """Z_n(s) for the 2-d tree variant: independent vertical labels per side."""
    seeds = np.array([env.seed & _M64], dtype=np.uint64)
    return float(_expand_crossing(n, s, seeds, two_d=True)[0])


def simulate_path(n: int, grid, env: LimitEnvironment, two_d: bool = False):
    """Z_n on a grid of query positions from one environment.

    Pointwise equal (bit for bit) to the single-point evaluators with the
    same environment.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size > _MAX_GRID:
        raise CapExceededError(f"grid size {grid.size} exceeds cap {_MAX_GRID}")
    fn = simulate_pointwise_2d if two_d else simulate_pointwise
    return np.array([fn(n, float(s), env) for s in grid])


def simulate_many(n: int, s: float, master_seed: int, reps: int,
                  two_d: bool = False, chunk: int = 256, start: int = 0) -> np.ndarray:
    """Z_n(s) across ``reps`` independent environments with indices
    start .. start+reps-1.

    Entry r equals simulate_pointwise(n, s, LimitEnvironment(env_seed(seed,
    start + r))) exactly; environments are processed in index order in
    fixed-size chunks.
    """
    if reps < 0:
        raise ValueError(f"reps must be >= 0, got {reps}")
    out = np.empty(reps)
    for lo in range(0, reps, chunk):
        hi = min(lo + chunk, reps)
        seeds = _env_seeds_arr(
            master_seed, np.arange(start + lo, start + hi, dtype=np.uint64)
        )
        out[lo:hi] = _expand_crossing(n, s, seeds, two_d=two_d)
    return out


def diagnostics(n: int, env: LimitEnvironment):
    """(W_n, L_n): max cell x-width at level n and min gap between distinct
    vertical-boundary x-coordinates, over the full 4^n-cell enumeration."""
    if n < 0:
        raise ValueError(f"depth must be >= 0, got {n}")
    if n > _MAX_ENUM_DEPTH:
        raise CapExceededError(f"depth {n} exceeds cap {_MAX_ENUM_DEPTH}")
    codes = np.array([_ROOT_CODE], dtype=np.uint64)
    x_lo = np.array([0.0])
    width = np.array([1.0])
    boundaries = [np.array([0.0, 1.0])]
    for _ in range(n):
        U = env._labels_from_codes(codes, 0)
        split = x_lo + width * U
        boundaries.append(split)
        m = codes.shape[0]
        codes_next = np.empty(4 * m, dtype=np.uint64)
        base = codes * np.uint64(4)
        for j in range(4):
            codes_next[j::4] = base + np.uint64(j)
        x_next = np.empty(4 * m)
        w_next = np.empty(4 * m)
        w_left = width * U
        x_next[0::4] = x_lo
        x_next[1::4] = x_lo
        x_next[2::4] = split
        x_next[3::4] = split
        w_next[0::4] = w_left
        w_next[1::4] = w_left
        w_next[2::4] = width - w_left
        w_next[3::4] = width - w_left
        codes, x_lo, width = codes_next, x_next, w_next
    wn = float(np.max(width))
    all_b = np.unique(np.concatenate(boundaries))
    ln = float(np.min(np.diff(all_b))) if all_b.size > 1 else 1.0
    return wn, ln


def diagnostics_many(n: int, master_seed: int, reps: int):
    """(W_n, L_n) arrays across independent environments."""
    wn = np.empty(reps)
    ln = np.empty(reps)
    for r in range(reps):
        wn[r], ln[r] = diagnostics(n, LimitEnvironment(env_seed(master_seed, r)))
    return wn, ln


def fill_up_level(tree: QuadTree) -> int:
    """Largest n such that every potential node above depth n exists."""
    counts = {}
    for _, depth in tree.nodes_with_depth():
        counts[depth] = counts.get(depth, 0) + 1
    return _full_levels([counts[d] for d in range(len(counts))])


def fill_up_level_xy(xs, ys) -> int:
    """fill_up_level(build(points)) of the points (xs, ys), from the node
    counts per depth of the level-wise kernel."""
    return _full_levels(_node_extents(xs, ys, _QUAD)[2])


def _full_levels(counts) -> int:
    """Leading depths d whose node count is 4^d."""
    level = 0
    while level < len(counts) and counts[level] == 4**level:
        level += 1
    return level
