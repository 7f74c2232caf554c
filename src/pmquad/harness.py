"""Seeded Monte Carlo experiments over the tree and limit-process modules.

Each replication r of an experiment draws from its own generator seeded by
the pair (seed, r) (PCG64 behind numpy's default generator), so results do
not depend on how replications are scheduled; the generators of one block
are seeded together (`_streams`).  Replications are computed in
fixed-size index blocks, shared out between the calling process and forked
children (`run_blocks`); the parts are put back in index order and
aggregation sums them with exactly rounded summation, making output bytes
independent of the worker count.

Only limit-moments' steps import `limitproc` and `moments`; no other kind runs them.
"""

from __future__ import annotations

import math
import operator
import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from . import quadtree
from .errors import CapExceededError
from .geom import HORIZONTAL, VERTICAL
from .specfun import constants, h
from .table import Table, _emit, _fmt, emit_csv, emit_plot_data, parse_csv  # re-exported

__all__ = [
    "ExperimentSpec",
    "SampleStats",
    "Table",
    "aggregate",
    "variance_se",
    "run_blocks",
    "run_experiment",
    "run_check",
    "emit_csv",
    "emit_plot_data",
    "parse_csv",
    "EXPERIMENT_KINDS",
]

_BLOCK = 256  # fixed scheduling unit; never derived from the worker count
# Replications per run; the CLI keeps every block's array part, about 9-25 B
# per replication, so the cap bounds a run near 0.15-0.45 GB.
_MAX_REPLICATIONS = 1 << 24
_GENERATOR_NAME = "pcg64"


@dataclass(frozen=True)
class SampleStats:
    count: int
    mean: float
    variance: float  # unbiased; 0 for a single sample
    standard_error: float


def aggregate(samples) -> SampleStats:
    """Mean/variance/SE with exactly rounded summation in index order."""
    xs = [float(x) for x in samples]
    if not xs:
        raise ValueError("aggregate needs at least one sample")
    n = len(xs)
    mean = math.fsum(xs) / n
    if n > 1:
        var = math.fsum((x - mean) ** 2 for x in xs) / (n - 1)
    else:
        var = 0.0
    return SampleStats(n, mean, var, math.sqrt(var / n))


def variance_se(samples) -> float:
    """Asymptotic standard error of the unbiased sample variance."""
    xs = np.asarray(samples, dtype=float)
    n = xs.size
    if n < 2:
        return 0.0
    d = xs - xs.mean()
    m2 = float(np.mean(d**2))
    m4 = float(np.mean(d**4))
    return math.sqrt(max(m4 - m2**2, 0.0) / n)


@dataclass(frozen=True)
class ExperimentSpec:
    """Parameters of one experiment run; none is mutated after construction.
    Before any block runs, ``_validate`` checks ``kind``, ``s``, ``s_grid``, each
    size, that a kind that reads ``sizes`` got them (one for mean-profile and
    kd-mean), ``depth``, ``eps``, ``variant`` and the budget ``t`` (and ``t (1 +
    eps)``); ``run_blocks`` checks ``replications``."""

    kind: str
    sizes: tuple = ()
    t: float = 0.0
    replications: int = 100
    s: float = 0.5
    s_grid: tuple = ()
    seed: int = 0
    depth: int = 10
    eps: float = 0.1
    variant: str = "quad"  # limit-moments: quad | kd


# ---------------------------------------------------------------------------
# per-replication streams, seeded a block at a time

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


def _words(v) -> list:
    """The uint32 entropy words SeedSequence takes from one integer."""
    v = operator.index(v)
    if v < 0:
        raise ValueError("expected non-negative integer")
    out = [v & _M32]
    while v > _M32:
        v >>= 32
        out.append(v & _M32)
    return out


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)[:, None]


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, uint64) for each column of the
    (words, rows) uint32 entropy array, with the rows mixed side by side.

    SeedSequence's hash constants advance once per hashmix whatever the
    values, so every row of one word count uses the same constants.
    """
    n_words, m = entropy.shape
    # one hashmix per pool word, three per pool source, four per extra word
    a = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + max(0, n_words - _POOL_SIZE)))
    k = 0

    def hashmix(v, count):
        nonlocal k
        out = v ^ a[k : k + count]
        out *= a[k + 1 : k + count + 1]
        out ^= out >> 16
        k += count
        return out

    def mix(x, y):
        out = x * _MIX_MULT_L
        out -= y * _MIX_MULT_R
        out ^= out >> 16
        return out

    head = entropy[:_POOL_SIZE]
    if n_words < _POOL_SIZE:
        head = np.concatenate([head, np.zeros((_POOL_SIZE - n_words, m), np.uint32)])
    pool = hashmix(head, _POOL_SIZE)
    for src in range(_POOL_SIZE):
        # pool[src] stays fixed while it is mixed into the other three
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], _POOL_SIZE - 1))
    for src in range(_POOL_SIZE, n_words):
        pool = mix(pool, hashmix(entropy[src], _POOL_SIZE))
    b = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    state = pool[np.arange(2 * _POOL_SIZE) % _POOL_SIZE] ^ b[:-1]
    state *= b[1:]
    state ^= state >> 16
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


def _streams(prefix, lo: int, hi: int, suffix=()) -> list:
    """Generators equal to np.random.default_rng([*prefix, r, *suffix]) for
    r in lo .. hi-1, with the SeedSequence mixing of all rows done at once.

    Each PCG64 is seeded from its row of the mixed state; an ``r`` of 2**32
    or more takes two entropy words, so such a block is seeded one stream
    at a time.
    """
    from numpy.random.bit_generator import ISeedSequence

    class _Row(ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    head = [w for v in prefix for w in _words(v)]
    tail = [w for v in suffix for w in _words(v)]
    if lo < 0:
        raise ValueError("expected non-negative integer")
    if hi - 1 > _M32:
        return [np.random.default_rng([*prefix, r, *suffix]) for r in range(lo, hi)]
    entropy = np.empty((len(head) + 1 + len(tail), hi - lo), dtype=np.uint32)
    entropy[:] = np.array([*head, 0, *tail], dtype=np.uint32)[:, None]
    entropy[len(head)] = np.arange(lo, hi)
    return [np.random.Generator(np.random.PCG64(_Row(row))) for row in _seed_states(entropy)]


def _uniform_samples(prefix, lo: int, hi: int, n: int):
    """(xs, ys) of n uniform points from each stream of ``_streams(prefix, lo, hi)``."""
    return (quadtree.sample_uniform_xy(n, rng) for rng in _streams(prefix, lo, hi))


# ---------------------------------------------------------------------------
# experiment kinds: per-block simulation + summarize + acceptance check


def _block_mean_profile(spec, lo, hi):
    """C_n(s) at each grid position s: the profile's values there, counted
    as one line cost per (tree, s)."""
    grid = [float(s) for s in spec.s_grid or (0.5,)]
    (n,) = spec.sizes
    trees = ((xs, ys, s) for xs, ys in _uniform_samples((spec.seed,), lo, hi, n) for s in grid)
    return quadtree._sampled_costs(trees).reshape(-1, len(grid))


def _summarize_mean_profile(spec, values):
    c = constants()
    grid = spec.s_grid or (0.5,)
    (n,) = spec.sizes
    scale = c.K1 * n**c.beta
    rows = []
    for j, s in enumerate(grid):
        st = aggregate(values[:, j])
        rows.append(
            (s, st.mean, st.mean / scale, h(float(s)), st.standard_error / scale)
        )
    return Table(
        columns=["s", "mean_cost", "norm_mean", "h", "se_norm"],
        rows=rows,
        meta=_meta(spec, n=n),
    )


def _check_mean_profile(spec, table, tol_scale):
    # normalized mean tracks h with the generous fixed-s tolerance
    failures = []
    for s, _, norm, hs, se in table.rows:
        tol = max(3.0 * se, 0.10 * hs) * tol_scale
        if hs > 0 and abs(norm - hs) > tol:
            failures.append(f"s={s}: |{norm:.5g} - h={hs:.5g}| > {tol:.3g}")
    return failures


def _line_costs(prefix, lo, hi, n=0, t=None, s=None, root_axis=None, suffix=()) -> np.ndarray:
    """The one definition of a sampled-cost replication's draw order: for each
    stream [*prefix, r, *suffix], r in lo .. hi-1, draw the size (Poisson(t)
    when ``t`` is given, else ``n``), the x's, the y's and a uniform query
    unless ``s`` fixes it; return the quadtree's line costs, or with
    ``root_axis`` the 2-d tree's (see ``quadtree._sampled_costs``)."""
    if s is not None:
        quadtree._check_query(s)

    def trees():
        for rng in _streams(prefix, lo, hi, suffix):
            if t is None:
                xs, ys = quadtree.sample_uniform_xy(n, rng)
            else:
                xs, ys = quadtree.sample_poisson_xy(t, rng)
            yield xs, ys, float(rng.random()) if s is None else s

    return quadtree._sampled_costs(trees(), root_axis)


def _block_variance_uniform(spec, lo, hi):
    costs = [_line_costs((spec.seed, j), lo, hi, n) for j, n in enumerate(spec.sizes)]
    return np.column_stack(costs)


def _summarize_variance_uniform(spec, values):
    c = constants()
    rows = []
    for j, n in enumerate(spec.sizes):
        col = values[:, j]
        st = aggregate(col)
        rows.append(
            (
                n,
                st.mean,
                c.kappa * n**c.beta - 1.0,
                st.standard_error,
                st.variance,
                st.variance / n ** (2.0 * c.beta),
                variance_se(col) / n ** (2.0 * c.beta),
                c.K4,
            )
        )
    return Table(
        columns=[
            "n",
            "mean_cost",
            "mean_target",
            "se_mean",
            "var_cost",
            "var_norm",
            "se_var_norm",
            "K4",
        ],
        rows=rows,
        meta=_meta(spec),
    )


def _mean_law(label, mean, target, se, tol_scale) -> list:
    """[failure] unless ``mean`` is within 3 SE or 5% of ``target``, whichever is wider."""
    tol = max(3.0 * se, 0.05 * target) * tol_scale
    if abs(mean - target) > tol:
        return [f"{label}|mean {mean:.4g} - {target:.4g}| > {tol:.3g}"]
    return []


def _check_variance_uniform(spec, table, tol_scale):
    failures = [f for n, mean, target, se, *_ in table.rows
                for f in _mean_law(f"n={int(n)}: ", mean, target, se, tol_scale)]
    norms = [row[5] for row in table.rows]
    if any(b < a for a, b in zip(norms, norms[1:])):
        failures.append(f"var/n^2b not nondecreasing: {norms}")
    c = constants()
    if abs(norms[-1] - c.K4) > 0.20 * c.K4 * tol_scale:
        failures.append(f"final var/n^2b {norms[-1]:.4g} not within 20% of K4 {c.K4:.4g}")
    return failures


def _block_supremum(spec, lo, hi):
    out = np.empty((hi - lo, len(spec.sizes)))
    for j, n in enumerate(spec.sizes):
        out[:, j] = [quadtree.profile_xy(*xy).max_segment()[0]
                     for xy in _uniform_samples((spec.seed, j), lo, hi, n)]
    return out


def _summarize_supremum(spec, values):
    c = constants()
    rows = []
    for j, n in enumerate(spec.sizes):
        st = aggregate(values[:, j])
        scale = c.K1 * n**c.beta
        rows.append((n, st.mean, st.mean / scale, st.standard_error / scale))
    return Table(
        columns=["n", "mean_sup", "norm_sup", "se_norm"],
        rows=rows,
        meta=_meta(spec),
    )


def _check_supremum(spec, table, tol_scale):
    failures = []
    c = constants()
    hmax = 2.0 ** (-c.beta)
    norms = [row[2] for row in table.rows]
    for n, _, norm, _ in table.rows:
        if norm <= hmax:
            failures.append(f"n={int(n)}: normalized sup {norm:.4g} <= max h {hmax:.4g}")
    spread = (max(norms) - min(norms)) / min(norms)
    if spread > 0.25 * tol_scale:
        failures.append(f"normalized sup varies by {spread:.1%} > 25%")
    return failures


def _block_limit_moments(spec, lo, hi):
    from . import limitproc
    two_d = spec.variant == "kd"
    vals = limitproc.simulate_many(
        spec.depth, spec.s, spec.seed, hi - lo, two_d=two_d, start=lo
    )
    return vals.reshape(-1, 1)


def _summarize_limit_moments(spec, values):
    from .moments import make_grid, second_moment_iterates
    col = values[:, 0]
    st = aggregate(col)
    hs = h(spec.s)
    oracle = second_moment_iterates(spec.depth, make_grid(512, extra=(spec.s,)))
    m2 = float(oracle.eval(spec.s))
    var_oracle = m2 - hs**2
    norm = col / hs if hs > 0 else col
    nst = aggregate(norm)
    m3 = aggregate(norm**3)
    row = (
        spec.depth,
        spec.s,
        st.mean,
        st.standard_error,
        hs,
        st.variance,
        variance_se(col),
        var_oracle,
        nst.variance + nst.mean**2,
        m2 / hs**2 if hs > 0 else 0.0,
        m3.mean,
    )
    return Table(
        columns=[
            "depth",
            "s",
            "mean",
            "se_mean",
            "h",
            "var",
            "se_var",
            "var_oracle",
            "norm_m2",
            "norm_m2_oracle",
            "norm_m3",
        ],
        rows=[row],
        meta=_meta(spec, variant=spec.variant),
    )


def _check_limit_moments(spec, table, tol_scale):
    failures = []
    (row,) = table.rows
    _, _, mean, se, hs, var, se_var, var_oracle, _, _, _ = row
    if abs(mean - hs) > 3.0 * se * tol_scale:
        failures.append(f"|mean {mean:.5g} - h {hs:.5g}| > 3 SE {se:.3g}")
    if abs(var - var_oracle) > 3.0 * se_var * tol_scale:
        failures.append(f"|var {var:.5g} - oracle {var_oracle:.5g}| > 3 SE {se_var:.3g}")
    return failures


def _block_coupling(spec, lo, hi):
    """Per replication the base and extended costs of one extension sample,
    as ``quadtree.coupled_extension_cost`` defines them, and the rescaled
    cost of a sample on its own stream."""
    def trees():
        for rng in _streams((spec.seed,), lo, hi):
            xs, ys = quadtree.sample_extension_xy(spec.t, spec.eps, rng)
            keep = xs >= 0.0
            yield xs[keep], ys[keep], spec.s
            yield xs, ys, spec.s

    out = np.empty((hi - lo, 3))
    out[:, :2] = quadtree._sampled_costs(trees()).reshape(-1, 2)
    out[:, 2] = _line_costs((spec.seed,), lo, hi, t=spec.t * (1.0 + spec.eps),
                            s=(spec.s + spec.eps) / (1.0 + spec.eps), suffix=(1,))
    return out


def _summarize_coupling(spec, values):
    base, ext, resc = values[:, 0], values[:, 1], values[:, 2]
    violations = int(np.sum(base > ext))
    sb, se_, sr = aggregate(base), aggregate(ext), aggregate(resc)
    row = (
        spec.t,
        spec.eps,
        spec.s,
        violations,
        sb.mean,
        se_.mean,
        sr.mean,
        se_.standard_error,
        sr.standard_error,
    )
    return Table(
        columns=[
            "t",
            "eps",
            "s",
            "violations",
            "mean_base",
            "mean_ext",
            "mean_rescaled",
            "se_ext",
            "se_rescaled",
        ],
        rows=[row],
        meta=_meta(spec),
    )


def _check_coupling(spec, table, tol_scale):
    failures = []
    (row,) = table.rows
    _, _, _, violations, _, mean_ext, mean_resc, se_ext, se_resc = row
    if violations:
        failures.append(f"{int(violations)} pathwise violations of base <= extended")
    gap = abs(mean_ext - mean_resc)
    tol = 3.0 * math.hypot(se_ext, se_resc) * tol_scale
    if gap > tol:
        failures.append(f"|E ext {mean_ext:.4g} - E rescaled {mean_resc:.4g}| > {tol:.3g}")
    return failures


def _block_kd_mean(spec, lo, hi):
    (n,) = spec.sizes
    axes = (VERTICAL, HORIZONTAL)
    costs = [_line_costs((spec.seed, j), lo, hi, n, root_axis=a) for j, a in enumerate(axes)]
    return np.column_stack(costs)


def _summarize_kd_mean(spec, values):
    c = constants()
    (n,) = spec.sizes
    rows = []
    targets = (
        ("parallel", c.kappa_par * n**c.beta - 2.0),
        ("perpendicular", c.kappa_perp * n**c.beta - 3.0),
    )
    for j, (flavor, target) in enumerate(targets):
        st = aggregate(values[:, j])
        rows.append((flavor, n, st.mean, target, st.standard_error))
    return Table(
        columns=["flavor", "n", "mean_cost", "target", "se_mean"],
        rows=rows,
        meta=_meta(spec, n=n),
    )


def _check_kd_mean(spec, table, tol_scale):
    return [f for flavor, _, mean, target, se in table.rows
            for f in _mean_law(f"{flavor}: ", mean, target, se, tol_scale)]


def _block_poisson_mean(spec, lo, hi):
    return _line_costs((spec.seed,), lo, hi, t=spec.t).reshape(-1, 1)


def _summarize_poisson_mean(spec, values):
    c = constants()
    st = aggregate(values[:, 0])
    target = c.kappa * spec.t**c.beta - 1.0
    return Table(
        columns=["t", "mean_cost", "target", "se_mean"],
        rows=[(spec.t, st.mean, target, st.standard_error)],
        meta=_meta(spec),
    )


def _check_poisson_mean(spec, table, tol_scale):
    ((_, mean, target, se),) = table.rows
    return _mean_law("", mean, target, se, tol_scale)


EXPERIMENT_KINDS = {
    "mean-profile": (_block_mean_profile, _summarize_mean_profile, _check_mean_profile),
    "variance-uniform-query": (
        _block_variance_uniform,
        _summarize_variance_uniform,
        _check_variance_uniform,
    ),
    "supremum": (_block_supremum, _summarize_supremum, _check_supremum),
    "limit-moments": (_block_limit_moments, _summarize_limit_moments, _check_limit_moments),
    "coupling": (_block_coupling, _summarize_coupling, _check_coupling),
    "kd-mean": (_block_kd_mean, _summarize_kd_mean, _check_kd_mean),
    "poisson-mean": (_block_poisson_mean, _summarize_poisson_mean, _check_poisson_mean),
}


def _meta(spec: ExperimentSpec, **extra) -> dict:
    meta = {
        "kind": spec.kind,
        "seed": spec.seed,
        "replications": spec.replications,
        "generator": _GENERATOR_NAME,
    }
    meta.update(extra)
    return meta


def _validate(spec: ExperimentSpec) -> None:
    if spec.kind not in EXPERIMENT_KINDS:
        raise ValueError(f"unknown experiment kind {spec.kind!r}")
    quadtree._check_query((spec.s, *spec.s_grid))
    if spec.kind == "limit-moments":
        from .limitproc import _MAX_POINTWISE_DEPTH as cap
        if spec.depth > cap:
            raise CapExceededError(f"depth {spec.depth} exceeds cap {cap}")
        if spec.variant not in ("quad", "kd"):
            raise ValueError(f"limit-moments variant must be 'quad' or 'kd', got {spec.variant!r}")
    for n in spec.sizes:
        if n < 1:
            raise ValueError(f"sizes must be >= 1, got {n}")
        if n > quadtree._MAX_POINTS:
            raise CapExceededError(f"size {n} exceeds cap {quadtree._MAX_POINTS}")
    if spec.kind in ("mean-profile", "kd-mean") and len(spec.sizes) != 1:
        raise ValueError(f"{spec.kind} takes exactly one size")
    if spec.kind in ("variance-uniform-query", "supremum") and not spec.sizes:
        raise ValueError(f"experiment kind {spec.kind!r} needs --n sizes")
    # the samplers' and limitproc's own checks, with their messages
    if spec.kind == "limit-moments" and spec.depth < 0:
        raise ValueError(f"depth must be >= 0, got {spec.depth}")
    if spec.kind == "poisson-mean":
        quadtree._check_budget(spec.t)
    if spec.kind == "coupling":
        quadtree._check_finite("coupling eps", spec.eps)
        quadtree._check_extension(spec.t, spec.eps)


def _block_worker(spec, lo, hi):
    block_fn = EXPERIMENT_KINDS[spec.kind][0]
    return block_fn(spec, lo, hi)


def _blocks(fn, params, reps: int, first: int, stride: int) -> list:
    return [fn(params, lo, min(lo + _BLOCK, reps)) for lo in range(first, reps, stride)]


def _fork_share(fn, params, reps: int, first: int, stride: int) -> tuple:
    """(pid, read end of a pipe) of a forked child that pickles into the pipe
    ``(True, parts)`` of its blocks, or ``(False, exception)`` they raised.
    A child whose caller was killed stops before its next block."""
    caller = os.getpid()

    def guarded(params, lo, hi):
        if os.getppid() != caller:
            raise RuntimeError(f"caller {caller} has exited")
        return fn(params, lo, hi)

    r, w = os.pipe()
    pid = os.fork()
    if pid:
        os.close(w)
        return pid, r
    status = 1
    try:  # the child never returns into its caller's stack
        os.close(r)
        try:
            result = (True, _blocks(guarded, params, reps, first, stride))
        except BaseException as exc:
            result = (False, exc)
        with open(w, "wb") as fh:
            pickle.dump(result, fh, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _check_replications(reps: int) -> None:
    if reps < 1:
        raise ValueError("replications must be >= 1")
    if reps > _MAX_REPLICATIONS:
        raise CapExceededError(f"{reps} replications exceed the cap of {_MAX_REPLICATIONS}")


def run_blocks(fn, params, reps: int, threads: int = 1) -> list:
    """[fn(params, lo, hi) for each block [lo, hi) of range(reps)], in index
    order.  Only the parts ``fn`` returns are pickled, never ``fn`` itself.

    The blocks are the fixed ``_BLOCK``-wide index ranges whatever the worker
    count.  With W = min(threads, blocks, usable CPUs) > 1 the calling process
    forks W - 1 children and runs its own share: process w runs every W-th
    block from block w.  A child's exception is raised again here; a child
    that sends no result raises RuntimeError; every child is killed and
    reaped before an exception leaves this function; and a child whose
    caller was killed stops before its next block.  Without ``os.fork`` the
    blocks run in-process.  More than ``_MAX_REPLICATIONS`` raise
    CapExceededError before any block runs.
    """
    _check_replications(reps)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blocks = -(-reps // _BLOCK)
    workers = min(threads, blocks, cpus or 1) if hasattr(os, "fork") else 1
    stride = workers * _BLOCK
    pids, fds = [], []  # children not yet reaped; read ends of their pipes
    try:
        for w in range(1, workers):
            pid, r = _fork_share(fn, params, reps, w * _BLOCK, stride)
            pids.append(pid)
            fds.append(r)
        shares = [_blocks(fn, params, reps, 0, stride)]
        for r in fds:
            with open(r, "rb", closefd=False) as fh:  # unpickled as read: no copy of the bytes
                try:
                    ok, value = pickle.load(fh)
                except (EOFError, pickle.UnpicklingError):  # nothing sent, or cut short
                    ok = None
            status = os.waitpid(pids[0], 0)[1]
            pid = pids.pop(0)
            if status or ok is None:
                raise RuntimeError(f"worker {pid} sent no result (wait status {status})")
            if not ok:
                raise value
            shares.append(value)
    finally:
        for r in fds:
            os.close(r)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [shares[b % workers][b // workers] for b in range(blocks)]


def run_experiment(spec: ExperimentSpec, threads: int = 1) -> Table:
    """Run every replication on its own (seed, index) stream and summarize.

    Output is bit-identical for a given spec no matter the thread count: the
    work is split into fixed-size index blocks and reassembled in order.
    """
    _validate(spec)
    values = np.concatenate(run_blocks(_block_worker, spec, spec.replications, threads), axis=0)
    summarize = EXPERIMENT_KINDS[spec.kind][1]
    return summarize(spec, values)


def run_check(spec: ExperimentSpec, table: Table, tol_scale: float = 1.0):
    """Evaluate the kind's acceptance bound; returns a list of failure strings."""
    check = EXPERIMENT_KINDS[spec.kind][2]
    return check(spec, table, tol_scale)
