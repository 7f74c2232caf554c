"""pmquad benchmark: end-to-end CLI workloads and an outside-in per-layer trace.

Run from the root of a source checkout (the package is imported from
``src/``; nothing needs installing):

    python3 perfbench/run.py --workload cost-mc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --compare base.jsonl new.jsonl
    python3 perfbench/run.py --record-digests

``--trace 0`` runs each job of the workload's mix as its own `pmquad` CLI
child, one at a time, pass after pass, until ``--seconds`` is used up, and
reports the end-to-end metrics as medians over passes.  Times are reported
at the reference speed of ``speed.py``: each child's wall and CPU seconds
are divided by the slowdown its CPUs showed while it ran, which takes the
shared host's drift out of them; the times as measured are printed and
recorded beside them.  ``--trace 1`` runs the same mix in this process with
``--threads 1``, alternating untraced and traced passes (plus a pooled pass
when the workload uses more than one thread), and reports the per-layer
metrics.  Metric names and units come
from BENCHMARK.json.  Human-readable lines go first; the last line of
standard output is the JSON result.  Every run is also appended, with a
machine fingerprint and the computed work counts, to
``.perfbench/results.jsonl`` (or ``--out``), the input of ``--compare``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from spans import MODULES, Tracer  # noqa: E402

WORKDIR = ".perfbench"

# Fresh interpreters timed for setup_s; one more runs first to warm caches.
SETUP_SAMPLES = 11
SETUP_CODE = (
    "import contextlib, io, time\n"
    "t0 = time.perf_counter()\n"
    "import pmquad.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    rc = pmquad.cli.main(['constants'])\n"
    "print(repr(time.perf_counter() - t0), rc)\n"
)


@dataclass
class JobRun:
    job: wl.Job
    wall: float
    cpu: float
    rss_mb: float
    slowdown: float
    rc: int
    out: bytes
    err: str


def _load_package(root: Path):
    src = root / "src"
    if not (src / "pmquad" / "__init__.py").is_file():
        raise SystemExit(f"error: no pmquad sources under {src}; run from the checkout root")
    sys.path.insert(0, str(src))
    pm = importlib.import_module("pmquad")
    for mod in MODULES:
        importlib.import_module(f"pmquad.{mod}")
    if Path(pm.__file__).resolve().parent != (src / "pmquad").resolve():
        raise SystemExit(f"error: imported pmquad from {pm.__file__}, not from {src}")
    return pm


def _cpus(threads: int) -> list:
    """CPUs a job with ``threads`` workers is pinned to: the first ones this
    process may use.  The sensor samples the same ones."""
    return sorted(os.sched_getaffinity(0))[:max(1, threads)]


def _launcher(root: Path) -> speed.Launcher:
    env = dict(os.environ)
    src = str((root / "src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return speed.Launcher(root, env, root / WORKDIR)


def run_cli_job(job: wl.Job, seed: int, threads: int, launcher: speed.Launcher) -> JobRun:
    argv = [sys.executable, "-m", "pmquad.cli", "--seed", str(seed), "--threads", str(threads),
            *job.args]
    r = launcher.run(argv, _cpus(threads))
    return JobRun(job, r.wall, r.cpu, r.rss_mb, r.slowdown, r.rc, r.out, r.err)


def measure_setup(launcher: speed.Launcher) -> tuple:
    """(set-up seconds at reference speed, as measured) of SETUP_SAMPLES
    fresh interpreters."""
    scaled, raw = [], []
    for i in range(SETUP_SAMPLES + 1):
        r = launcher.run([sys.executable, "-c", SETUP_CODE], _cpus(1))
        fields = r.out.decode().split()
        if r.rc != 0 or len(fields) != 2 or fields[1] != "0":
            raise SystemExit(f"error: setup probe failed (exit {r.rc}): {r.err.strip()[-500:]}")
        if i:
            raw.append(float(fields[0]))
            scaled.append(raw[-1] / r.slowdown)
    return scaled, raw


class OutputChecks:
    """Correctness gate over every job run of one benchmark run."""

    def __init__(self, workload: wl.Workload, seed: int, pm):
        self.workload, self.seed, self.pm = workload, seed, pm
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.work = Counter()
        self.recorded = wl.recorded_digests().get(workload.name, {}) if seed == wl.DIGEST_SEED else None

    def check(self, job: wl.Job, rc: int, out: bytes, err: str) -> None:
        self.attempted += 1
        bad = []
        if rc != 0:
            bad.append(f"{job.name}: exit {rc}: {err.strip()[-300:]}")
        d = wl.digest(out)
        if job.name not in self.first:
            self.first[job.name] = d
            if rc == 0:
                bad += self._first_output(job, out)
        elif d != self.first[job.name]:
            bad.append(f"{job.name}: output differs from the first pass at the same seed")
        if self.recorded is not None and self.recorded.get(job.name) != d:
            bad.append(f"{job.name}: output digest differs from the one recorded at seed {self.seed}")
        if bad:
            self.failed += 1
            self.problems += bad

    def _first_output(self, job: wl.Job, out: bytes) -> list:
        try:
            table = self.pm.harness.parse_csv(io.StringIO(out.decode("utf-8")))
            self.work += wl.work(job, self.seed, table, self.pm)
            return wl.oracle_mismatches(job, self.seed, table, self.pm)
        except (ValueError, IndexError, KeyError) as exc:
            return [f"{job.name}: unreadable output: {exc!r}"]


def _stats(values) -> dict:
    med, q1, q3 = compare.summary(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def run_untraced(workload: wl.Workload, seed: int, seconds: float, root: Path, pm):
    with _launcher(root) as launcher:
        return _run_passes(workload, seed, seconds, launcher, pm)


def _run_passes(workload: wl.Workload, seed: int, seconds: float, launcher, pm):
    setup, setup_raw = measure_setup(launcher)
    checks = OutputChecks(workload, seed, pm)
    passes = []
    t_begin = time.perf_counter()
    while True:
        runs = [run_cli_job(job, seed, workload.threads, launcher) for job in workload.jobs]
        for r in runs:
            checks.check(r.job, r.rc, r.out, r.err)
        passes.append(runs)
        elapsed = time.perf_counter() - t_begin
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    reps = sum(job.reps for job in workload.jobs)
    samples = {
        "reps_per_s": [reps / sum(r.wall / r.slowdown for r in p) for p in passes],
        "cpu_s": [sum(r.cpu / r.slowdown for r in p) for p in passes],
        "peak_rss_mb": [max(r.rss_mb for r in p) for p in passes],
        "setup_s": setup,
    }
    as_measured = {
        "reps_per_s": _stats([reps / sum(r.wall for r in p) for p in passes]),
        "cpu_s": _stats([sum(r.cpu for r in p) for p in passes]),
        "setup_s": _stats(setup_raw),
        "slowdown": _stats([r.slowdown for p in passes for r in p]),
    }
    jobs = {
        job.name: {
            "wall_s": _stats([p[i].wall for p in passes]),
            "cpu_s": _stats([p[i].cpu for p in passes]),
            "rss_mb": _stats([p[i].rss_mb for p in passes]),
            "slowdown": _stats([p[i].slowdown for p in passes]),
        }
        for i, job in enumerate(workload.jobs)
    }
    return samples, checks, {"passes": len(passes), "as_measured": as_measured, "jobs": jobs}


def _inprocess_job(pm, job: wl.Job, seed: int, threads: int, clear_caches) -> tuple:
    """Run one job through ``pmquad.cli.main`` as a fresh process would:
    in-process caches are emptied first."""
    for clear in clear_caches:
        clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = pm.cli.main(["--seed", str(seed), "--threads", str(threads), *job.args])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue().encode("utf-8"), err.getvalue()


# Derived per-layer metrics: name -> (numerator, denominator, scale).
RATIOS = {
    "quadtree.line_cost.ns_per_point": ("quadtree.line_cost.self_s", "quadtree.line_cost.points", 1e9),
    "quadtree.line_cost.useful_ratio": ("quadtree.line_cost.crossings", "quadtree.line_cost.points", 1.0),
    "kdtree.line_cost.ns_per_point": ("kdtree.line_cost.self_s", "kdtree.line_cost.points", 1e9),
    "quadtree.build.ns_per_node": ("quadtree.build.self_s", "quadtree.build.nodes", 1e9),
    "limitproc.simulate_many.ns_per_box": ("limitproc.simulate_many.self_s", "limitproc.simulate_many.boxes", 1e9),
    "moments.apply_K.ns_per_gridpoint": ("moments.apply_K.self_s", "moments.apply_K.gridpoints", 1e9),
}


def _layer_values(summary: dict, counters: Counter, wall: float, plain_wall: float) -> dict:
    v = {**summary, **counters}
    for name, (num, den, scale) in RATIOS.items():
        v[name] = v.get(num, 0.0) * scale / v[den] if v.get(den) else 0.0
    v["trace.wall_s"] = wall
    v["trace.untraced_wall_s"] = plain_wall
    v["trace.overhead_frac"] = wall / plain_wall - 1.0
    v["trace.coverage"] = sum(x for k, x in summary.items() if k.endswith(".self_s")) / wall
    v["trace.spans"] = sum(x for k, x in summary.items() if k.endswith(".calls"))
    return v


def run_traced(workload: wl.Workload, seed: int, seconds: float, root: Path, pm):
    caches = {id(f): f for m in MODULES for f in vars(getattr(pm, m)).values()
              if callable(getattr(f, "cache_clear", None))}
    clear_caches = [f.cache_clear for f in caches.values()]
    tracer, timer = Tracer(pm), Tracer(pm)
    timing = (("harness", "run_experiment", None),)
    checks = OutputChecks(workload, seed, pm)

    def run_job(job, threads):
        tracer.job = timer.job = job.name
        t0 = time.perf_counter()
        checks.check(job, *_inprocess_job(pm, job, seed, threads, clear_caches))
        return time.perf_counter() - t0

    def timed_job(job, threads):
        """(wall, run_experiment busy time) of a job with only that one span."""
        first = len(timer.spans)
        with timer.installed(timing):
            wall = run_job(job, threads)
        return wall, timer.summary(first).get("harness.run_experiment.wall_s", 0.0)

    def traced_job(job):
        with tracer.installed():
            return run_job(job, 1)

    # Untraced and traced runs of each job alternate, in alternating order,
    # so that both see the same machine state; the overhead is their ratio.
    cycles = []
    t_begin = time.perf_counter()
    for job in workload.jobs:
        run_job(job, 1)  # warm-up: the first in-process run pays one-off costs
    while True:
        first = len(tracer.spans)
        tracer.counters.clear()
        plain = traced = busy = pool_busy = 0.0
        for job in workload.jobs:
            if len(cycles) % 2:
                traced += traced_job(job)
                wall, b = timed_job(job, 1)
            else:
                wall, b = timed_job(job, 1)
                traced += traced_job(job)
            plain, busy = plain + wall, busy + b
            if workload.threads > 1:
                pool_busy += timed_job(job, workload.threads)[1]
        values = _layer_values(tracer.summary(first), tracer.counters, traced, plain)
        if workload.threads > 1:
            values["harness.pool.overhead_s"] = pool_busy - busy / workload.threads
        cycles.append(values)
        elapsed = time.perf_counter() - t_begin
        if elapsed * (len(cycles) + 1) / len(cycles) > seconds:
            break

    keys = set().union(*cycles)
    samples = {k: [c.get(k, 0.0) for c in cycles] for k in sorted(keys)}
    mismatched = {k: (n, cycles[0].get(k, 0)) for k, n in checks.work.items() if n != cycles[0].get(k, 0)}
    tracer.write(root / WORKDIR / f"spans-{workload.name}-seed{seed}.csv.gz")
    extra = {"cycles": len(cycles), "missing_layers": tracer.missing,
             "counts_vs_computed_mismatch": mismatched}
    return samples, checks, extra


def _read_text(path: str):
    try:
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return None


def fingerprint(root: Path, pm) -> dict:
    """Machine and source identity, gathered by reading only."""
    fp = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    cpuinfo = _read_text("/proc/cpuinfo") or ""
    fp["cpu_model"] = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                            if line.startswith("model name")), platform.processor() or None)
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read_text(idx / f) for f in ("level", "type", "size"))
        if level and size and kind and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    fp["caches"] = caches
    meminfo = _read_text("/proc/meminfo") or ""
    fp["mem_total_kb"] = next((int(line.split()[1]) for line in meminfo.splitlines()
                               if line.startswith("MemTotal:")), None)
    fp["git_commit"] = fp["git_dirty"] = None
    if (root / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                  text=True, timeout=30)
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=root, capture_output=True, text=True, timeout=30)
            if head.returncode == 0:
                fp["git_commit"] = head.stdout.strip()
                fp["git_dirty"] = bool(status.stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    fp["pmquad_file"] = str(Path(pm.__file__).resolve().relative_to(root.resolve()))
    return fp


def record_digests(root: Path) -> int:
    """Write digests.json from one run of every job at DIGEST_SEED."""
    (root / WORKDIR).mkdir(exist_ok=True)
    out = {}
    with _launcher(root) as launcher:
        for w in wl.WORKLOADS.values():
            out[w.name] = {}
            for job in w.jobs:
                r = run_cli_job(job, wl.DIGEST_SEED, w.threads, launcher)
                if r.rc != 0:
                    print(f"{w.name}/{job.name}: exit {r.rc}: {r.err.strip()}", file=sys.stderr)
                    return 1
                out[w.name][job.name] = wl.digest(r.out)
                print(f"{w.name}/{job.name}: {out[w.name][job.name]}")
    wl.DIGESTS_PATH.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=wl.DIGEST_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help=f"results file to append to (default {WORKDIR}/results.jsonl)")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="compare two results files and exit")
    ap.add_argument("--record-digests", action="store_true",
                    help=f"record output digests at seed {wl.DIGEST_SEED} and exit")
    args = ap.parse_args(argv)

    root = Path.cwd()
    bench_path = root / "BENCHMARK.json"
    if not bench_path.is_file():
        print("error: run from the checkout root (BENCHMARK.json not found)", file=sys.stderr)
        return 2
    bench = json.loads(bench_path.read_text(encoding="utf-8"))
    if args.compare:
        return compare.main(bench, *args.compare)
    pm = _load_package(root)
    if args.record_digests:
        return record_digests(root)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    (root / WORKDIR).mkdir(exist_ok=True)
    workload = wl.WORKLOADS[args.workload]
    if args.trace:
        samples, checks, extra = run_traced(workload, args.seed, args.seconds, root, pm)
        wanted = bench["per_layer"]
    else:
        samples, checks, extra = run_untraced(workload, args.seed, args.seconds, root, pm)
        wanted = bench["end_to_end"]

    metrics, detail = {}, {}
    for m in wanted:
        values = samples.get(m["name"], [0.0])
        d = detail[m["name"]] = {**_stats(values), "unit": m["unit"], "samples": values}
        metrics[m["name"]] = {"value": d["median"], "unit": m["unit"]}
        print(f"metric {m['name']} = {d['median']:.6g} {m['unit']} "
              f"(median of {d['n']}; q1 {d['q1']:.6g}, q3 {d['q3']:.6g})")
    failed_frac = checks.failed / checks.attempted
    print(f"jobs attempted {checks.attempted}, failed {checks.failed}, failed_frac {failed_frac:.6g}")
    for k in sorted(checks.work):
        print(f"work (computed, per pass) {k} = {checks.work[k]}")
    for key, value in extra.items():
        if key != "jobs":
            print(f"{key}: {json.dumps(value)}")
    for p in checks.problems:
        print(f"FAILED {p}")

    fp = fingerprint(root, pm)
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "fingerprint": fp,
        "correct": checks.failed == 0, "attempted": checks.attempted, "failed": checks.failed,
        "failed_frac": failed_frac, "problems": checks.problems, "metrics": detail,
        "work_computed": dict(checks.work), **extra,
    }
    out_path = Path(args.out) if args.out else root / WORKDIR / "results.jsonl"
    with open(out_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
