"""The four job mixes, the work each job does, and the checks on its output.

A job is one `pmquad` CLI invocation.  Its arguments here omit the global
`--seed` and `--threads` flags, which the runner adds: every job of a run
gets the run's seed, so every pass over a mix repeats the same inputs and
must repeat the same output bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DIGESTS_PATH = Path(__file__).with_name("digests.json")

# Output digests are recorded at this seed (the CLI's own default).
DIGEST_SEED = 0

# `--check` criteria are 3-SE significance tests and fixed bands tuned at the
# acceptance suite's seeds.  A benchmark check makes ~100 runs x ~10 criteria
# at arbitrary seeds, so at 3 SE a spurious failure is close to certain.
# Scaling by 5/3 (5 SE, about 6e-7 per criterion) keeps the family-wise false
# alarm rate below 1e-3 while a real defect still fails the check.
CHECK = ("--check", "--tol-scale", repr(5 / 3))

# Simulate-cost rows recomputed with the node-based oracles, per job and run.
ORACLE_ROWS = 32


@dataclass(frozen=True)
class Job:
    name: str
    args: tuple
    reps: int


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    jobs: tuple


def _job(name: str, *args: str) -> Job:
    reps = int(args[args.index("--replications") + 1]) if "--replications" in args else 1
    return Job(name, tuple(args), reps)


_S_GRID = ("0.1", "0.25", "0.5", "0.75", "0.9")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cost-mc",
            1,
            (
                # The variance-trend criterion (var/n^2b nondecreasing over
                # 500 < 2000 < 8000) is not scaled by --tol-scale and fails at
                # about half of all seeds at any affordable replication count,
                # so this job runs without --check.
                _job("vuq", "experiment", "--kind", "variance-uniform-query",
                     "--n", "500", "2000", "8000", "--replications", "300"),
                _job("kd-mean", "experiment", "--kind", "kd-mean", "--n", "5000",
                     "--replications", "300", *CHECK),
                _job("coupling", "experiment", "--kind", "coupling", "--t", "5000",
                     "--eps", "0.1", "--s", "0.3", "--replications", "200", *CHECK),
            ),
        ),
        Workload(
            "tree-profile",
            1,
            (
                _job("mean-profile", "experiment", "--kind", "mean-profile", "--n", "8000",
                     "--s-grid", *_S_GRID, "--replications", "32", *CHECK),
                _job("supremum", "experiment", "--kind", "supremum", "--n", "2000", "8000",
                     "--replications", "24", *CHECK),
            ),
        ),
        Workload(
            "limit-moments",
            1,
            (
                _job("moments-quad", "experiment", "--kind", "limit-moments", "--depth", "14",
                     "--s", "0.4", "--variant", "quad", "--replications", "256", *CHECK),
                _job("moments-kd", "experiment", "--kind", "limit-moments", "--depth", "14",
                     "--s", "0.4", "--variant", "kd", "--replications", "256", *CHECK),
                _job("path", "simulate-limit", "--depth", "12", "--grid", "1024"),
            ),
        ),
        Workload(
            "replicate-many",
            2,
            (
                _job("vuq-small", "experiment", "--kind", "variance-uniform-query",
                     "--n", "64", "256", "--replications", "8192", *CHECK),
                _job("poisson-mean", "experiment", "--kind", "poisson-mean", "--t", "200",
                     "--replications", "8192", *CHECK),
                _job("cost-quad", "simulate-cost", "--n", "1000", "--replications", "1000"),
                _job("cost-kd-v", "simulate-cost", "--n", "1000", "--tree", "kd",
                     "--root-axis", "v", "--replications", "500"),
                _job("cost-kd-h", "simulate-cost", "--n", "1000", "--tree", "kd",
                     "--root-axis", "h", "--replications", "500"),
                _job("diagnostics", "diagnostics", "--depth", "6", "--fill-n", "500",
                     "--replications", "200"),
            ),
        ),
    )
}


def digest(output: bytes) -> str:
    """SHA-256 of the header and data rows.  `#` metadata lines are left out,
    so that adding run metadata (versions, timings) does not read as a change
    of results."""
    rows = [line for line in output.splitlines(keepends=True) if not line.startswith(b"#")]
    return hashlib.sha256(b"".join(rows)).hexdigest()


def recorded_digests() -> dict:
    """{workload: {job: sha256}} of the outputs at DIGEST_SEED."""
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def _opt(args: tuple, flag: str, default=None):
    return args[args.index(flag) + 1] if flag in args else default


def _sizes(args: tuple) -> list:
    i = args.index("--n") + 1
    out = []
    while i < len(args) and not args[i].startswith("--"):
        out.append(int(args[i]))
        i += 1
    return out


def _total(table, column: str, reps: int) -> int:
    """Sum over replications recovered from a printed mean (12 significant
    digits are exact for sums below 1e11)."""
    j = table.columns.index(column)
    return sum(round(float(row[j]) * reps) for row in table.rows)


QC, QP, QX = (f"quadtree.line_cost.{k}" for k in ("calls", "points", "crossings"))
KC, KP, KX = (f"kdtree.line_cost.{k}" for k in ("calls", "points", "crossings"))


def work(job: Job, seed: int, table, pm) -> Counter:
    """Work one run of ``job`` does, computed from its inputs and output.

    Keys are the per-layer counter names the traced run measures.  Point and
    box counts follow from the arguments (Poisson sizes are redrawn from the
    job's streams); crossing counts are read back from the output.  ``pm`` is
    the imported pmquad package.
    """
    a, r = job.args, job.reps
    w = Counter()
    kind = _opt(a, "--kind")
    if kind is not None:
        w["harness.blocks"] = math.ceil(r / 256)  # the harness's fixed block size
    if kind == "variance-uniform-query":
        w[QC] = r * len(_sizes(a))
        w[QP] = r * sum(_sizes(a))
        w[QX] = _total(table, "mean_cost", r)
    elif kind == "kd-mean":
        w[KC] = 2 * r
        w[KP] = 2 * r * _sizes(a)[0]
        w[KX] = _total(table, "mean_cost", r)
    elif kind == "poisson-mean":
        t = float(_opt(a, "--t"))
        w[QC] = r
        w[QP] = sum(int(np.random.default_rng([seed, i]).poisson(t)) for i in range(r))
        w[QX] = _total(table, "mean_cost", r)
    elif kind == "coupling":
        t, eps = float(_opt(a, "--t")), float(_opt(a, "--eps"))
        w[QC] = 3 * r
        for i in range(r):
            xs, _ = pm.quadtree.sample_extension_xy(t, eps, np.random.default_rng([seed, i]))
            n2 = int(np.random.default_rng([seed, i, 1]).poisson(t * (1.0 + eps)))
            w[QP] += xs.size + int(np.count_nonzero(xs >= 0.0)) + n2
        w[QX] = sum(_total(table, c, r) for c in ("mean_base", "mean_ext", "mean_rescaled"))
    elif kind in ("mean-profile", "supremum"):
        w["quadtree.build.nodes"] = r * sum(_sizes(a))
    elif kind == "limit-moments":
        d = int(_opt(a, "--depth"))
        w["limitproc.simulate_many.boxes"] = r * 2**d
        w["limitproc.simulate_many.labels"] = r * (2**d - 1) * (3 if _opt(a, "--variant") == "kd" else 2)
        grid = pm.moments.make_grid(512, extra=(float(_opt(a, "--s")),))
        w["moments.apply_K.gridpoints"] = grid.size * d
    elif a[0] == "simulate-limit":
        w["limitproc.simulate_path.boxes"] = int(_opt(a, "--grid")) * 2 ** int(_opt(a, "--depth"))
    elif a[0] == "simulate-cost":
        tree = "kdtree" if _opt(a, "--tree") == "kd" else "quadtree"
        w[f"{tree}.line_cost.calls"] = r
        w[f"{tree}.line_cost.points"] = r * int(_opt(a, "--n"))
        w[f"{tree}.line_cost.crossings"] = _total(table, "cost", 1)
    elif a[0] == "diagnostics":
        w["limitproc.diagnostics.cells"] = r * 4 ** int(_opt(a, "--depth"))
        w["quadtree.build.nodes"] = r * int(_opt(a, "--fill-n"))
    return w


def oracle_mismatches(job: Job, seed: int, table, pm) -> list:
    """Recompute a seeded sample of simulate-cost rows with the node-based
    oracles and return the rows that disagree with the output."""
    a = job.args
    if a[0] != "simulate-cost":
        return []
    n = int(_opt(a, "--n"))
    kd = _opt(a, "--tree") == "kd"
    axis = _opt(a, "--root-axis", "v")
    costs = {int(row[0]): int(row[1]) for row in table.rows}
    pick = np.random.default_rng([seed, 0x0AC1E]).choice(job.reps, size=min(ORACLE_ROWS, job.reps),
                                                         replace=False)
    bad = []
    for r in sorted(int(i) for i in pick):
        rng = np.random.default_rng([seed, r])
        xs, ys = rng.random(n), rng.random(n)
        s = float(rng.random())
        pts = [pm.geom.Point2(float(x), float(y), i) for i, (x, y) in enumerate(zip(xs, ys))]
        if not kd:
            expect = pm.quadtree.cost(pm.quadtree.build(pts), s)
        elif axis == "v":
            expect = pm.kdtree.cost_parallel(pm.kdtree.build_kd(pts, "v"), s)
        else:
            expect = pm.kdtree.cost_perp(pm.kdtree.build_kd(pts, "h"), s)
        if costs.get(r) != expect:
            bad.append(f"{job.name} row {r}: output {costs.get(r)} != oracle {expect}")
    return bad
