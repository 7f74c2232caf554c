"""Compare two results files (JSON lines written by run.py), workload by workload.

For every end-to-end metric it prints each side's median and quartiles over
runs, the ratio new/base with its base, and a verdict against the bound in
BENCHMARK.json:

  worse   the new median is worse than the base median by more than the bound
  ok      within the bound
  better  every new run reads better than every base run
  unresolved  either side's spread (q3 - q1) / median exceeds the bound

Per-layer metrics (traced runs) get medians and ratios only; they have no
bound.  Runs of one workload at one seed must report identical computed work
counts; any difference is listed.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def _load(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summary(values: list) -> tuple:
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q = statistics.quantiles(values, n=4)
    return med, q[0], q[2]


def _spread(med, q1, q3) -> float:
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: list, new: list, better: str, bound: float) -> str:
    bm, bq1, bq3 = summary(base)
    nm, nq1, nq3 = summary(new)
    sign = 1.0 if better == "higher" else -1.0
    if all(sign * n > sign * b for n in new for b in base):
        return "better"
    if max(_spread(bm, bq1, bq3), _spread(nm, nq1, nq3)) > bound:
        return "unresolved"
    worse_by = sign * (bm - nm) / abs(bm) if bm else 0.0
    return "worse" if worse_by > bound else "ok"


def _values(records: list, trace: int) -> dict:
    out = defaultdict(lambda: defaultdict(list))
    for r in records:
        if r.get("trace") == trace and r.get("correct"):
            for name, m in r["metrics"].items():
                out[r["workload"]][name].append(m["median"])
    return out


def _work_mismatches(records: list) -> list:
    seen, bad = {}, []
    for r in records:
        key = (r["workload"], r["seed"])
        work = r.get("work_computed", {})
        if key in seen and seen[key] != work:
            diff = sorted(k for k in set(work) | set(seen[key]) if work.get(k) != seen[key].get(k))
            bad.append(f"{key[0]} seed {key[1]}: {', '.join(diff)}")
        seen.setdefault(key, work)
    return bad


def main(bench: dict, base_path: str, new_path: str) -> int:
    base, new = _load(base_path), _load(new_path)
    for label, records in (("base", base), ("new", new)):
        for r in records:
            if not r.get("correct"):
                print(f"{label}: {r['workload']} seed {r['seed']} failed {r['failed']} of "
                      f"{r['attempted']} jobs; excluded")
    fmt = "{:<16} {:<36} {:>11} {:>23} {:>11} {:>23} {:>8}  {}"
    print(fmt.format("workload", "metric", "base med", "base q1..q3", "new med", "new q1..q3",
                     "new/base", "verdict"))
    for trace, metrics in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        bv, nv = _values(base, trace), _values(new, trace)
        for workload in sorted(set(bv) & set(nv)):
            for m in metrics:
                b, n = bv[workload].get(m["name"]), nv[workload].get(m["name"])
                if not b or not n or not any(b + n):
                    continue  # missing on one side, or a layer this workload does not run
                bm, bq1, bq3 = summary(b)
                nm, nq1, nq3 = summary(n)
                ratio = f"{nm / bm:.4f}" if bm else "n/a"
                v = verdict(b, n, m["better"], m["bound"]) if "bound" in m else ""
                print(fmt.format(workload, m["name"], f"{bm:.5g}", f"{bq1:.5g}..{bq3:.5g}",
                                 f"{nm:.5g}", f"{nq1:.5g}..{nq3:.5g}", ratio,
                                 f"{v} (n={len(b)}/{len(n)}, {m['unit']})"))
    bad = _work_mismatches(base + new)
    print("computed work counts repeat across runs at one seed: " + ("yes" if not bad else "NO"))
    for line in bad:
        print(f"  differs: {line}")
    return 0
