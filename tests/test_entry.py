"""The CLI's process entry and its import rule.

`python -m pmquad.cli` runs `cli.run`, which freezes the objects that exist
after the imports and exits with `main`'s code; a command imports only the
kernel modules it runs.  `main` itself freezes nothing."""

import gc
import json
import os
import subprocess
import sys

import pytest

from pmquad import cli, harness

KERNELS = ("pmquad.kdtree", "pmquad.limitproc", "pmquad.moments")

# the entry as `python -m` runs it, in a child that reports what it left behind
CHILD = """
import gc, json, runpy, sys
sys.argv = ["pmquad", *json.loads(sys.argv[1])]
try:
    runpy.run_module("pmquad.cli", run_name="__main__")
    code = "returned"
except SystemExit as exc:
    code = exc.code
print(json.dumps({"exit": code, "frozen": gc.get_freeze_count(), "masked": "numpy.ma" in sys.modules,
                  "kernels": sorted(m for m in %r if m in sys.modules),
                  "modules": sorted(m for m in sys.modules if m.split(".")[0] == "pmquad")}))
""" % (KERNELS,)


def _entry(argv):
    out = subprocess.run([sys.executable, "-c", CHILD, json.dumps(["--out", os.devnull, *argv])],
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


NO_KERNEL = {
    "constants": ["constants"],
    "simulate-cost-quad": ["simulate-cost", "--n", "20", "--replications", "3"],
    "simulate-cost-kd": ["simulate-cost", "--n", "20", "--replications", "3", "--tree", "kd"],
    "profile-quad": ["profile", "--n", "20"],
    "supremum": ["experiment", "--kind", "supremum", "--n", "10", "20", "--replications", "3"],
    "mean-profile": ["experiment", "--kind", "mean-profile", "--n", "20", "--s-grid", "0.3", "0.5",
                     "--replications", "3"],
    "variance-uniform-query": ["experiment", "--kind", "variance-uniform-query", "--n", "10", "20",
                               "--replications", "3"],
    "kd-mean": ["experiment", "--kind", "kd-mean", "--n", "20", "--replications", "3"],
    "poisson-mean": ["experiment", "--kind", "poisson-mean", "--t", "20", "--replications", "3"],
    "coupling": ["experiment", "--kind", "coupling", "--t", "20", "--eps", "0.1",
                 "--replications", "3"],
}


@pytest.mark.parametrize("argv", NO_KERNEL.values(), ids=NO_KERNEL.keys())
def test_entry_freezes_and_loads_no_kernel(argv):
    got = _entry(argv)
    assert got["exit"] == 0
    assert got["frozen"] > 0
    assert got["kernels"] == []


# the same child sees the kernels of the commands that run them
WITH_KERNEL = {
    "profile-kd": (["profile", "--n", "20", "--tree", "kd"], ["pmquad.kdtree"]),
    "second-moment": (["second-moment", "--iters", "1", "--grid", "64"], ["pmquad.moments"]),
    "simulate-limit": (["simulate-limit", "--depth", "3", "--grid", "8"], ["pmquad.limitproc"]),
    "limit-moments": (["experiment", "--kind", "limit-moments", "--depth", "3",
                       "--replications", "3"], ["pmquad.limitproc", "pmquad.moments"]),
}


@pytest.mark.parametrize("argv, kernels", WITH_KERNEL.values(), ids=WITH_KERNEL.keys())
def test_entry_loads_the_kernels_a_command_runs(argv, kernels):
    got = _entry(argv)
    assert (got["exit"], got["kernels"]) == (0, kernels)
    assert got["frozen"] > 0


def test_limit_moments_loads_no_masked_arrays():
    # np.unique imports numpy.ma (numpy 2.4), which nothing else in the job
    # uses, so make_grid de-duplicates its extra points without it
    got = _entry(WITH_KERNEL["limit-moments"][0])
    assert (got["exit"], got["masked"]) == (0, False)


@pytest.mark.parametrize("argv", [["constants"], NO_KERNEL["simulate-cost-kd"]],
                         ids=["constants", "simulate-cost-kd"])
def test_main_freezes_nothing(argv, capsys):
    before = gc.get_freeze_count()
    assert cli.main(argv) == 0
    assert gc.get_freeze_count() == before


# every pmquad module a command's process loads; cli itself runs as __main__
ALWAYS = {"pmquad", "pmquad.errors", "pmquad.specfun", "pmquad.table"}
MONTE_CARLO = {"pmquad.harness", "pmquad.quadtree", "pmquad.geom"}
LOADS = {
    "constants": (["constants"], set()),
    "moments": (["moments", "--max-order", "4"], {"pmquad.moments"}),
    "second-moment": (WITH_KERNEL["second-moment"][0], {"pmquad.moments"}),
    "profile-quad": (NO_KERNEL["profile-quad"], {"pmquad.quadtree", "pmquad.geom"}),
    "profile-kd": (WITH_KERNEL["profile-kd"][0],
                   {"pmquad.quadtree", "pmquad.geom", "pmquad.kdtree"}),
    "simulate-limit-path": (WITH_KERNEL["simulate-limit"][0], {"pmquad.limitproc", "pmquad.geom"}),
    "simulate-limit-replicated": (["simulate-limit", "--depth", "3", "--replications", "3"],
                                  MONTE_CARLO | {"pmquad.limitproc"}),
    "simulate-cost": (NO_KERNEL["simulate-cost-kd"], MONTE_CARLO),
    "diagnostics": (["diagnostics", "--depth", "2", "--replications", "3", "--fill-n", "5"],
                    MONTE_CARLO | {"pmquad.limitproc"}),
    "supremum": (NO_KERNEL["supremum"], MONTE_CARLO),
    "limit-moments": (WITH_KERNEL["limit-moments"][0],
                      MONTE_CARLO | {"pmquad.limitproc", "pmquad.moments"}),
}


@pytest.mark.parametrize("argv, loads", LOADS.values(), ids=LOADS.keys())
def test_entry_compiles_only_the_modules_a_command_runs(argv, loads):
    got = _entry(argv)
    assert (got["exit"], got["modules"]) == (0, sorted(ALWAYS | loads))


def test_kind_choices_are_the_harness_kinds():
    # --kind is parsed before the harness loads
    assert cli._KINDS == tuple(sorted(harness.EXPERIMENT_KINDS))
