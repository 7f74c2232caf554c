"""Moment recursions of the limit marginals and the second-moment operator K.

``psi_moments`` iterates the quadratic recursion for the moments c_m of the
normalized one-dimensional marginal (the limit of Z(s)/h(s), independent of
s); ``xi_perp_moments`` maps those to the perpendicular-root 2-d tree
marginal.  ``apply_K`` applies the second-moment integral operator

    (Kf)(s) = 2/(2b+1) [ int_s^1 x^{2b} f(s/x) dx
                         + int_0^s (1-x)^{2b} f((1-s)/(1-x)) dx ]
              + 2 B(b+1, b+1) h(s)^2 / (b+1)

to a grid function, and ``second_moment_iterates`` produces K^n(h^2), which
equals the exact second moment of the level-n limit approximant pointwise.
K is a sup-norm contraction with factor 4/(2b+1)^2, so the iterates converge
geometrically to the fixed point c2 h^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapExceededError, GridTooCoarseError, _check_count
from .specfun import beta_exponent, beta_fn

__all__ = [
    "MomentTable",
    "GridFunction",
    "psi_moments",
    "xi_perp_moments",
    "make_grid",
    "apply_K",
    "second_moment_iterates",
]

_MAX_ORDER = 60
_LOG_SPACE_FROM = 31  # direct summation is safe below; binomials in log space above
_MIN_GRID = 64
_MAX_ITER = 30
_K_BLOCK = 1 << 16  # breakpoints per block of apply_K rows (cache-sized)
# Grid points apply_K accepts: a row has up to G <= _K_BLOCK breakpoints; work
# grows as G^2 (about 4-7 s, 56 MiB RSS and 12k page faults per call at the
# cap, 2-vCPU Xeon).
_MAX_GRID = 1 << 14
# Bytes of one grid's geometry blocks kept (see _kept_geometry): 16 full blocks
# at 20 B per breakpoint, about 21 MB, which holds every block of a grid of up
# to about 1000 points.
_K_CACHE_BYTES = 16 * 20 * _K_BLOCK


@dataclass(frozen=True)
class MomentTable:
    """Moments c_1..c_max_order of a mean-one nonnegative marginal."""

    values: tuple
    max_order: int

    def __post_init__(self):
        if len(self.values) != self.max_order:
            raise ValueError("values length must equal max_order")

    def c(self, m: int) -> float:
        """The m-th moment, 1-based."""
        if not 1 <= m <= self.max_order:
            raise ValueError(f"moment order {m} outside 1..{self.max_order}")
        return self.values[m - 1]


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _binomial_beta_sum(m: int, ls, c, logc, pref: float, log_pref: float):
    """(value, log value) of pref * sum_{l in ls} C(m,l) B(b l + 1, b (m-l) + 1) c[l] c[m-l].

    Below _LOG_SPACE_FROM the sum is direct; from there on it runs in log
    space on logc[l] = log c[l] and log_pref, where the terms would overflow.
    """
    b = beta_exponent()
    if m < _LOG_SPACE_FROM:
        total = 0.0
        for l in ls:
            total += math.comb(m, l) * beta_fn(b * l + 1.0, b * (m - l) + 1.0) * c[l] * c[m - l]
        value = pref * total
        return value, math.log(value)
    terms = [
        math.lgamma(m + 1) - math.lgamma(l + 1) - math.lgamma(m - l + 1)
        + _log_beta(b * l + 1.0, b * (m - l) + 1.0)
        + logc[l]
        + logc[m - l]
        for l in ls
    ]
    peak = max(terms)
    logsum = peak + math.log(sum(math.exp(t - peak) for t in terms))
    log_value = log_pref + logsum
    return math.exp(log_value), log_value


def psi_moments(max_order: int) -> MomentTable:
    """Moments of the normalized marginal: c_1 = 1 and, for m >= 2,

    c_m = (b m + 1) / ((m-1)(m+1 - 1.5 b m))
          * sum_{l=1}^{m-1} C(m,l) B(b l + 1, b (m-l) + 1) c_l c_{m-l}.
    """
    _check_count("max_order", max_order, _MAX_ORDER, least=1)
    b = beta_exponent()
    c = [1.0, 1.0]  # c[l] = c_l with c_0 = 1
    logc = [0.0, 0.0]
    for m in range(2, max_order + 1):
        pref = (b * m + 1.0) / ((m - 1) * (m + 1.0 - 1.5 * b * m))
        cm, logcm = _binomial_beta_sum(m, range(1, m), c, logc, pref, math.log(pref))
        c.append(cm)
        logc.append(logcm)
    return MomentTable(values=tuple(c[1:]), max_order=max_order)


def xi_perp_moments(max_order: int) -> MomentTable:
    """Moments of the perpendicular-root marginal factor:

    E[Xi_perp^m] = ((b+1)/2)^m sum_{l=0}^m C(m,l) B(b l + 1, b (m-l) + 1) c_l c_{m-l}

    with c_0 = c_1 = 1 and c_l from ``psi_moments`` (which checks max_order).
    """
    b = beta_exponent()
    c = [1.0, *psi_moments(max_order).values]  # c[l] = c_l with c_0 = 1
    logc = [math.log(v) for v in c]
    q = (b + 1.0) / 2.0
    out = [_binomial_beta_sum(m, range(m + 1), c, logc, q**m, m * math.log(q))[0]
           for m in range(1, max_order + 1)]
    return MomentTable(values=tuple(out), max_order=max_order)


@dataclass(frozen=True)
class GridFunction:
    """A function sampled on a strictly increasing grid spanning [0, 1]."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.shape != values.shape:
            raise ValueError("grid and values must be 1-d arrays of equal length")
        if grid[0] != 0.0 or grid[-1] != 1.0:
            raise ValueError("grid must include the endpoints 0 and 1")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")

    def eval(self, s):
        """Piecewise-linear interpolation at s (scalar or array)."""
        return np.interp(s, self.grid, self.values)


def _check_grid(size: int) -> None:
    if size > _MAX_GRID:
        raise CapExceededError(f"grid of {size} points exceeds cap {_MAX_GRID}")


def make_grid(n: int = 512, graded: bool = False, extra=()) -> np.ndarray:
    """A grid of n points plus the endpoints 0 and 1.

    ``graded=False`` gives the uniform default.  ``graded=True`` applies the
    smoothstep map t^4 (35 - 84 t + 70 t^2 - 20 t^3), clustering points near
    the endpoints where h^2 has unbounded slope; this is what keeps the
    piecewise-linear representation accurate at the 1e-6 level.  ``extra``
    values are merged in (useful to place query positions exactly on grid).
    """
    if n < 0:
        raise ValueError(f"grid size must be >= 0, got {n}")
    t = np.linspace(0.0, 1.0, n + 2)
    if graded:
        g = t**4 * (35.0 - 84.0 * t + 70.0 * t**2 - 20.0 * t**3)
        g[0], g[-1] = 0.0, 1.0
    else:
        g = t
    if len(extra):
        # np.unique's sorted path, without the numpy.ma import it makes: the
        # first of each run of equal values, and one NaN for all
        g = np.sort(np.concatenate([g, np.asarray(extra, dtype=float)]))
        keep = np.ones(g.size, dtype=bool)
        keep[1:] = (g[1:] != g[:-1]) & ~np.isnan(g[:-1])
        g = g[keep]
    return g


class _KGeometry(NamedTuple):
    """Breakpoint data of one block of apply_K rows (see _k_geometry).

    Per breakpoint it keeps only what is costly to rebuild: the grid index
    and the two power differences, which each take a ``pow`` pass (20 B in
    all, col as int32, when the block is kept).  _edge_integrals needs no
    breakpoint values: a segment between two grid points takes its slope
    and intercept from the grid cell in ``col``, and only each row's head
    segment, which starts at sigma, is formed on its own.
    """

    low: np.ndarray  # rows with sigma <= 0
    inner: np.ndarray  # rows with 0 < sigma < 1, in order
    sigma: np.ndarray  # their sigmas
    counts: np.ndarray  # their breakpoint counts
    heads: np.ndarray  # where each starts among the breakpoints: at sigma
    rows: list  # slice of each inner row's segments
    col: np.ndarray  # grid index of every breakpoint (a head's is the cell holding sigma)
    d1: np.ndarray  # per segment: x^(2b+1) at the upper x minus at the lower x
    d0: np.ndarray  # and the same for x^(2b)


# float64 slots of a block's breakpoint count in a scratch (see _scratch) that
# _k_geometry's transients take, and then _edge_integrals' temporaries
_SLOTS = 3


def _scratch(n: int, step: int, slots: int) -> np.ndarray:
    """A scratch array of ``slots`` slots for blocks of ``step`` rows on a
    grid of n points, where a row has at most n breakpoints."""
    return np.empty(slots * min(step, 2 * n) * n)


def _slots(scratch: np.ndarray, size: int, first: int = 0) -> list:
    """The _SLOTS consecutive slots of ``size`` elements of a scratch, from
    slot ``first`` on."""
    return [scratch[k * size:(k + 1) * size] for k in range(first, first + _SLOTS)]


def _k_geometry(grid_bytes: bytes, lo: int, hi: int, scratch=None,
                keep: bool = True) -> _KGeometry:
    """The part of apply_K's exact product integration that f does not enter,
    for the edge integrals lo .. hi-1 on one grid.

    Edge integral i is int_sigma^1 x^{2b} f(sigma/x) dx with sigma = grid[i]
    for i < G and sigma = 1 - grid[i - G] after.  For 0 < sigma < 1 its
    u-breakpoints are sigma and the grid points above it; on each u-cell the
    integrand is a0 x^{2b} + a1 sigma x^{2b-1} (u = sigma/x), so the integral
    is a sum of closed-form segment terms.  The breakpoints of all such rows
    are concatenated, and the powers of x = sigma/u are taken once per
    breakpoint, since each segment's lower x is the next one's upper x.  The
    pairs that straddle two rows are computed too but summed into neither.

    The transients are written into the first slots of ``scratch`` (see
    _scratch; the block gets one of its own without it).  A kept block's
    col (int32, which halves it), d1 and d0 are read-only arrays of their
    own; otherwise they are views of the scratch's next slots, valid until
    its next block.
    """
    b = beta_exponent()
    grid = np.frombuffer(grid_bytes)
    n = grid.size
    sigma = np.concatenate((grid[lo:hi], 1.0 - grid[max(lo - n, 0):max(hi - n, 0)]))
    inner = np.flatnonzero((sigma > 0.0) & (sigma < 1.0))
    sig = sigma[inner]
    first = np.searchsorted(grid, sig, side="right")
    counts = n - first + 1
    ends = np.cumsum(counts)
    heads = ends - counts
    size = int(ends[-1]) if ends.size else 0
    p0, us, x = _slots(np.empty(_SLOTS * size) if scratch is None else scratch, size)
    if keep:
        col, d1, d0 = np.empty(size, dtype=np.int32), None, None
    else:  # intp, which np.take gathers with without a converted copy
        d1, d0, col = _slots(scratch, size, _SLOTS)
        col, d1, d0 = col.view(np.int64), d1[:size - 1], d0[:size - 1]
    # int32 keeps this below glibc's mmap threshold (128 KiB) at the grid cap
    cell = np.arange(n, dtype=np.int32)
    # a row's breakpoints: sigma in the cell holding it, then the grid points above
    for a, c, f, s in zip(heads.tolist(), counts.tolist(), first.tolist(), sig.tolist()):
        col[a:a + c] = cell[f - 1:]
        us[a:a + c] = grid[f - 1:]
        x[a:a + c] = s
    us[heads] = sig
    x /= us
    p1 = np.power(x, 2.0 * b + 1.0, out=us)
    np.power(x, 2.0 * b, out=p0)
    geometry = _KGeometry(
        low=np.flatnonzero(sigma <= 0.0), inner=inner, sigma=sig, counts=counts,
        heads=heads, rows=[slice(a, e - 1) for a, e in zip(heads.tolist(), ends.tolist())],
        col=col, d1=np.subtract(p1[:-1], p1[1:], out=d1),
        d0=np.subtract(p0[:-1], p0[1:], out=d0),
    )
    if keep:
        for v in geometry:
            if isinstance(v, np.ndarray):
                v.setflags(write=False)
    return geometry


@functools.lru_cache(maxsize=1)
def _kept_geometry(grid_bytes: bytes, step: int) -> tuple:
    """The longest prefix of apply_K's blocks of ``step`` rows on one grid,
    in block order, whose geometry fits in _K_CACHE_BYTES.

    Iterating K applies it to one grid again and again, and each call walks
    the blocks in the same order, so the calls after the first reuse the
    blocks kept here and rebuild only the rest.  Only the last grid and
    block layout asked for is kept.  One scratch takes the transients of
    the whole build, so they leave no holes between the kept blocks."""
    n = np.frombuffer(grid_bytes).size
    scratch = _scratch(n, step, _SLOTS)
    kept, held = [], 0
    for lo in range(0, 2 * n, step):
        geo = _k_geometry(grid_bytes, lo, min(lo + step, 2 * n), scratch)
        held += sum(v.nbytes for v in geo if isinstance(v, np.ndarray))
        if held > _K_CACHE_BYTES:
            break
        kept.append(geo)
    return tuple(kept)


def _edge_integrals(geo: _KGeometry, n_rows: int, cells, grid, vals, b: float,
                    scratch=None) -> np.ndarray:
    """The edge integrals of one block of rows, for the piecewise-linear f
    with these grid values; each row's terms are summed in the row's order.

    ``cells`` holds the slope and intercept a0 of f on every grid cell
    (see apply_K), which every segment between two grid points shares with
    its cell; each row's head segment, from sigma to the next grid point,
    is formed here with the same ufuncs.  The temporaries are written into
    the first slots of ``scratch`` when one is given (a rebuilt block, whose
    geometry fills the next ones) and allocated otherwise."""
    size = geo.col.size
    if scratch is None:
        t = np.repeat(geo.sigma, geo.counts)[:-1]
        slope = np.take(cells[0], geo.col[:-1])
        seg = np.take(cells[1], geo.col[:-1])
    else:
        t, seg, slope = (v[:size - 1] for v in _slots(scratch, size))
        for a, c, s in zip(geo.heads.tolist(), geo.counts.tolist(), geo.sigma.tolist()):
            t[a:a + c] = s  # np.repeat(geo.sigma, geo.counts)[:-1]
        # no index is clipped; "clip" writes into out, where "raise" buffers it
        slope = np.take(cells[0], geo.col[:-1], out=slope, mode="clip")
        seg = np.take(cells[1], geo.col[:-1], out=seg, mode="clip")
    fa = np.interp(geo.sigma, grid, vals)
    nxt = geo.col[geo.heads + 1]
    head = vals[nxt] - fa
    head /= grid[nxt] - geo.sigma
    slope[geo.heads] = head
    seg[geo.heads] = fa - head * geo.sigma  # a0
    seg *= geo.d1
    seg /= 2.0 * b + 1.0
    t *= slope
    t *= geo.d0
    t /= 2.0 * b
    seg += t
    out = np.zeros(n_rows)
    out[geo.low] = vals[0] / (2.0 * b + 1.0)
    out[geo.inner] = [np.add.reduce(seg[r]) for r in geo.rows]
    return out


def apply_K(f: GridFunction) -> GridFunction:
    """Apply the second-moment operator K to a grid function.

    The two integrals are evaluated exactly for the piecewise-linear
    interpolant of f (the second one reduces to the first under x -> 1-x),
    then the inhomogeneous term 2 B(b+1,b+1) h(s)^2 / (b+1) is added.
    """
    if f.grid.size < _MIN_GRID:
        raise GridTooCoarseError(
            f"apply_K needs a grid of >= {_MIN_GRID} points, got {f.grid.size}"
        )
    _check_grid(f.grid.size)
    b = beta_exponent()
    grid, vals = f.grid, f.values
    key = grid.tobytes()
    n = grid.size
    # slope and intercept of f on each cell, padded for the last breakpoint of a row
    slope = np.zeros(n)
    np.divide(np.diff(vals), np.diff(grid), out=slope[:-1])
    cells = (slope, vals - slope * grid)
    edge = np.empty(2 * n)
    step = max(1, _K_BLOCK // n)
    kept = _kept_geometry(key, step)
    # one scratch for the blocks past the kept prefix, which are rebuilt here:
    # their transients, then their geometry
    scratch = _scratch(n, step, 2 * _SLOTS) if len(kept) * step < 2 * n else None
    for i, lo in enumerate(range(0, 2 * n, step)):
        hi = min(lo + step, 2 * n)
        if i < len(kept):
            edge[lo:hi] = _edge_integrals(kept[i], hi - lo, cells, grid, vals, b)
        else:
            geo = _k_geometry(key, lo, hi, scratch, keep=False)
            edge[lo:hi] = _edge_integrals(geo, hi - lo, cells, grid, vals, b, scratch)
    inhom = 2.0 * beta_fn(b + 1.0, b + 1.0) / (b + 1.0) * (grid * (1.0 - grid)) ** b
    scale = 2.0 / (2.0 * b + 1.0)
    return GridFunction(grid=grid, values=scale * (edge[:n] + edge[n:]) + inhom)


def second_moment_iterates(n: int, grid) -> GridFunction:
    """K^n applied to h^2 on ``grid`` (a ``make_grid`` array): the exact
    second moment of the level-n approximant.  The grid size is capped for
    any n."""
    _check_count("iteration count", n, _MAX_ITER)
    grid = np.asarray(grid, dtype=float)
    _check_grid(grid.size)
    b = beta_exponent()
    f = GridFunction(grid=grid, values=(grid * (1.0 - grid)) ** b)
    for _ in range(n):
        f = apply_K(f)
    return f
