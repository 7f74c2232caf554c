"""The one block part: every block function returns a 2-d array with a row
per replication of its block, and the CLI numbers the rows of those parts
across blocks only as it writes them, so that its memory does not grow by a
row tuple per replication."""

import argparse

import numpy as np
import pytest

from pmquad import cli, harness
from pmquad.harness import EXPERIMENT_KINDS, ExperimentSpec

from peak_rss import measure

_SPECS = {
    "mean-profile": ExperimentSpec("mean-profile", sizes=(20,), s_grid=(0.3, 0.7)),
    "variance-uniform-query": ExperimentSpec("variance-uniform-query", sizes=(10, 20)),
    "supremum": ExperimentSpec("supremum", sizes=(10, 20)),
    "limit-moments": ExperimentSpec("limit-moments", depth=4, s=0.4),
    "coupling": ExperimentSpec("coupling", t=20.0, eps=0.1),
    "kd-mean": ExperimentSpec("kd-mean", sizes=(20,)),
    "poisson-mean": ExperimentSpec("poisson-mean", t=20.0),
}


def _args(**fields):
    return argparse.Namespace(seed=3, **fields)


_CLI_BLOCKS = {
    "simulate-cost": (cli._block_simulate_cost,
                      _args(n=30, poisson=None, s=None, tree="kd", root_axis="h")),
    "diagnostics": (cli._block_diagnostics, _args(depth=2, fill_n=None)),
    "diagnostics-fill": (cli._block_diagnostics, _args(depth=2, fill_n=40)),
}


def _blocks():
    for kind, spec in _SPECS.items():
        yield pytest.param(EXPERIMENT_KINDS[kind][0], spec, id=kind)
    for name, (fn, args) in _CLI_BLOCKS.items():
        yield pytest.param(fn, args, id=name)


def test_every_kind_has_a_spec():
    assert set(_SPECS) == set(EXPERIMENT_KINDS)


@pytest.mark.parametrize("block_fn, params", _blocks())
def test_block_returns_one_row_per_replication(block_fn, params):
    lo, hi = 256, 300
    part = block_fn(params, lo, hi)
    assert isinstance(part, np.ndarray)
    assert part.ndim == 2 and part.shape[0] == hi - lo


def test_replicated_numbers_rows_across_unequal_parts(monkeypatch):
    parts = [np.array([[1.5, 2.0], [3.0, 4.0], [5.0, 6.0]]), np.array([[7, 8]]),
             np.array([[9.0, 10.0], [11.0, 12.0]])]
    monkeypatch.setattr(harness, "run_blocks", lambda fn, params, reps, threads: parts)
    table = cli._replicated(None, _args(replications=6, threads=1), ["r", "a", "b"], {})
    assert list(table.rows) == [(0, 1.5, 2.0), (1, 3.0, 4.0), (2, 5.0, 6.0), (3, 7, 8),
                                (4, 9.0, 10.0), (5, 11.0, 12.0)]


@pytest.mark.parametrize("job", [("simulate-cost", "--n", "2", "--s", "0.5"),
                                 ("diagnostics", "--depth", "1")],
                         ids=["simulate-cost", "diagnostics"])
def test_memory_does_not_grow_by_a_row_per_replication(job):
    # row tuples kept for every replication took about 32 MiB (simulate-cost)
    # and 50 MiB (diagnostics) more at 4e5 than at 1e5; array parts, 2-5 MiB
    def peak_mib(reps):
        return measure("-m", "pmquad.cli", *job, "--replications", str(reps))["maxrss_kib"] / 1024

    assert peak_mib(400_000) - peak_mib(100_000) < 12


def test_a_forked_share_is_not_held_twice():
    # the caller unpickles a worker's share as it reads the pipe: keeping the
    # bytes read beside the unpickled parts peaked 2.0-2.1 MiB above --threads 1
    def peak_mib(threads):
        return measure("-m", "pmquad.cli", "simulate-cost", "--n", "2", "--s", "0.5",
                       "--replications", str(2**19), "--threads", str(threads))["maxrss_kib"] / 1024

    assert peak_mib(2) - peak_mib(1) < 1
