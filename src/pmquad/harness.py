"""Seeded Monte Carlo experiments over the tree and limit-process modules.

Each replication r of an experiment draws from its own generator seeded by
the pair (seed, r) (PCG64 behind numpy's default generator), so results do
not depend on how replications are scheduled.  Replications are computed in
fixed-size index blocks; any worker pool may run blocks out of order, but
aggregation always consumes them in index order with exactly rounded
summation, making output bytes independent of the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import kdtree, limitproc, quadtree
from .errors import CapExceededError
from .moments import make_grid, second_moment_iterates
from .specfun import constants, h

__all__ = [
    "RngStream",
    "ExperimentSpec",
    "SampleStats",
    "Table",
    "aggregate",
    "variance_se",
    "run_experiment",
    "run_check",
    "emit_csv",
    "emit_plot_data",
    "parse_csv",
    "EXPERIMENT_KINDS",
]

_BLOCK = 256  # fixed scheduling unit; never derived from the worker count
_GENERATOR_NAME = "pcg64"


@dataclass(frozen=True)
class RngStream:
    """Identifies one replication stream; (seed, stream_index) pins it fully."""

    seed: int
    stream_index: int

    def generator(self, *extra) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.stream_index, *extra])


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
    """Parameters of one experiment run; every field participates in seeding-
    independent validation, none is mutated after construction."""

    kind: str
    sizes: tuple = ()
    t: float = 0.0
    replications: int = 100
    s: float = 0.5
    s_grid: tuple = ()
    seed: int = 0
    tree: str = "quad"  # quad | kd
    root_axis: str = "v"
    depth: int = 10
    eps: float = 0.1
    variant: str = "quad"  # limit-moments: quad | kd


@dataclass
class Table:
    """Result rows plus metadata emitted as comment lines."""

    columns: list
    rows: list
    meta: dict = field(default_factory=dict)


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".12g")


def emit_csv(table: Table, fh) -> None:
    """CSV with '#' metadata lines, a header row, 12 significant digits."""
    if not table.rows:
        raise ValueError("refusing to emit an empty table")
    for k in sorted(table.meta):
        fh.write(f"# {k}={table.meta[k]}\n")
    fh.write(",".join(table.columns) + "\n")
    for row in table.rows:
        fh.write(",".join(_fmt(v) for v in row) + "\n")


def emit_plot_data(table: Table, fh) -> None:
    """gnuplot-style whitespace-separated columns with a '#' header."""
    if not table.rows:
        raise ValueError("refusing to emit an empty table")
    for k in sorted(table.meta):
        fh.write(f"# {k}={table.meta[k]}\n")
    fh.write("# " + " ".join(table.columns) + "\n")
    for row in table.rows:
        fh.write(" ".join(_fmt(v) for v in row) + "\n")


def parse_csv(fh) -> Table:
    meta = {}
    columns = None
    rows = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                k, v = body.split("=", 1)
                meta[k] = v
            continue
        parts = line.split(",")
        if columns is None:
            columns = parts
            continue
        row = []
        for p in parts:
            try:
                row.append(float(p))
            except ValueError:
                row.append(p)
        rows.append(tuple(row))
    return Table(columns=columns or [], rows=rows, meta=meta)


# ---------------------------------------------------------------------------
# experiment kinds: per-block simulation + summarize + acceptance check


def _stream(spec: ExperimentSpec, *indices) -> np.random.Generator:
    return np.random.default_rng([spec.seed, *indices])


def _sizes(spec: ExperimentSpec) -> tuple:
    if not spec.sizes:
        raise ValueError(f"experiment kind {spec.kind!r} needs --n sizes")
    return spec.sizes


def _block_mean_profile(spec, lo, hi):
    grid = spec.s_grid or (0.5,)
    (n,) = _sizes(spec)
    out = np.empty((hi - lo, len(grid)))
    for r in range(lo, hi):
        xs, ys = quadtree.sample_uniform_xy(n, _stream(spec, r))
        prof = quadtree.profile_xy(xs, ys)
        out[r - lo] = [prof.eval(float(s)) for s in grid]
    return out


def _summarize_mean_profile(spec, values):
    c = constants()
    grid = spec.s_grid or (0.5,)
    (n,) = _sizes(spec)
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


def _block_variance_uniform(spec, lo, hi):
    sizes = _sizes(spec)
    out = np.empty((hi - lo, len(sizes)))
    for r in range(lo, hi):
        for j, n in enumerate(sizes):
            rng = _stream(spec, j, r)
            xs, ys = quadtree.sample_uniform_xy(n, rng)
            xi = float(rng.random())
            out[r - lo, j] = quadtree.line_cost(xs, ys, xi)
    return out


def _summarize_variance_uniform(spec, values):
    c = constants()
    rows = []
    for j, n in enumerate(_sizes(spec)):
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


def _check_variance_uniform(spec, table, tol_scale):
    failures = []
    for n, mean, target, se, _, _, _, _ in table.rows:
        tol = max(3.0 * se, 0.05 * target) * tol_scale
        if abs(mean - target) > tol:
            failures.append(f"n={int(n)}: |mean {mean:.4g} - {target:.4g}| > {tol:.3g}")
    norms = [row[5] for row in table.rows]
    if any(b < a for a, b in zip(norms, norms[1:])):
        failures.append(f"var/n^2b not nondecreasing: {norms}")
    c = constants()
    if abs(norms[-1] - c.K4) > 0.20 * c.K4 * tol_scale:
        failures.append(f"final var/n^2b {norms[-1]:.4g} not within 20% of K4 {c.K4:.4g}")
    return failures


def _block_supremum(spec, lo, hi):
    sizes = _sizes(spec)
    out = np.empty((hi - lo, len(sizes)))
    for r in range(lo, hi):
        for j, n in enumerate(sizes):
            xs, ys = quadtree.sample_uniform_xy(n, _stream(spec, j, r))
            out[r - lo, j] = quadtree.profile_xy(xs, ys).max_segment()[0]
    return out


def _summarize_supremum(spec, values):
    c = constants()
    rows = []
    for j, n in enumerate(_sizes(spec)):
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
    two_d = spec.variant == "kd"
    vals = limitproc.simulate_many(
        spec.depth, spec.s, spec.seed, hi - lo, two_d=two_d, start=lo
    )
    return vals.reshape(-1, 1)


def _summarize_limit_moments(spec, values):
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
    out = np.empty((hi - lo, 3))
    tp = spec.t * (1.0 + spec.eps)
    sp = (spec.s + spec.eps) / (1.0 + spec.eps)
    for r in range(lo, hi):
        rng = _stream(spec, r)
        xs, ys = quadtree.sample_extension_xy(spec.t, spec.eps, rng)
        base, ext = quadtree.coupled_extension_cost(xs, ys, spec.eps, spec.s)
        rng2 = _stream(spec, r, 1)
        xs2, ys2 = quadtree.sample_poisson_xy(tp, rng2)
        out[r - lo] = (base, ext, quadtree.line_cost(xs2, ys2, sp))
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
    (n,) = _sizes(spec)
    out = np.empty((hi - lo, 2))
    for r in range(lo, hi):
        for j, axis in enumerate((kdtree.VERTICAL, kdtree.HORIZONTAL)):
            rng = _stream(spec, j, r)
            xs, ys = quadtree.sample_uniform_xy(n, rng)
            xi = float(rng.random())
            out[r - lo, j] = kdtree.line_cost(xs, ys, xi, axis)
    return out


def _summarize_kd_mean(spec, values):
    c = constants()
    (n,) = _sizes(spec)
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
    failures = []
    for flavor, n, mean, target, se in table.rows:
        tol = max(3.0 * float(se), 0.05 * float(target)) * tol_scale
        if abs(float(mean) - float(target)) > tol:
            failures.append(f"{flavor}: |mean {mean:.4g} - {target:.4g}| > {tol:.3g}")
    return failures


def _block_poisson_mean(spec, lo, hi):
    out = np.empty((hi - lo, 1))
    for r in range(lo, hi):
        rng = _stream(spec, r)
        xs, ys = quadtree.sample_poisson_xy(spec.t, rng)
        xi = float(rng.random())
        out[r - lo, 0] = quadtree.line_cost(xs, ys, xi)
    return out


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
    (row,) = table.rows
    _, mean, target, se = row
    tol = max(3.0 * se, 0.05 * target) * tol_scale
    if abs(mean - target) > tol:
        return [f"|mean {mean:.4g} - {target:.4g}| > {tol:.3g}"]
    return []


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
    meta.update({k: v for k, v in extra.items()})
    return meta


def _validate(spec: ExperimentSpec) -> None:
    if spec.kind not in EXPERIMENT_KINDS:
        raise ValueError(f"unknown experiment kind {spec.kind!r}")
    if spec.replications < 1:
        raise ValueError("replications must be >= 1")
    if spec.kind == "limit-moments" and spec.depth > limitproc._MAX_POINTWISE_DEPTH:
        raise CapExceededError(f"depth {spec.depth} exceeds cap {limitproc._MAX_POINTWISE_DEPTH}")
    for n in spec.sizes:
        if n < 0:
            raise ValueError(f"sizes must be >= 0, got {n}")
    if spec.kind in ("mean-profile", "kd-mean") and len(spec.sizes) != 1:
        raise ValueError(f"{spec.kind} takes exactly one size")


def _block_worker(args):
    spec, lo, hi = args
    block_fn = EXPERIMENT_KINDS[spec.kind][0]
    return block_fn(spec, lo, hi)


def run_experiment(spec: ExperimentSpec, threads: int = 1) -> Table:
    """Run every replication on its own (seed, index) stream and summarize.

    Output is bit-identical for a given spec no matter the thread count: the
    work is split into fixed-size index blocks and reassembled in order.
    """
    _validate(spec)
    M = spec.replications
    blocks = [(spec, lo, min(lo + _BLOCK, M)) for lo in range(0, M, _BLOCK)]
    if threads > 1 and len(blocks) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_block_worker, blocks))
    else:
        parts = [_block_worker(b) for b in blocks]
    values = np.concatenate(parts, axis=0)
    summarize = EXPERIMENT_KINDS[spec.kind][1]
    return summarize(spec, values)


def run_check(spec: ExperimentSpec, table: Table, tol_scale: float = 1.0):
    """Evaluate the kind's acceptance bound; returns a list of failure strings."""
    check = EXPERIMENT_KINDS[spec.kind][2]
    return check(spec, table, tol_scale)
