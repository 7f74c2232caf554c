import concurrent.futures
import io
import math
import os

import numpy as np
import pytest

from pmquad import harness, kdtree, limitproc, quadtree
from pmquad.errors import CapExceededError
from pmquad.harness import (
    ExperimentSpec,
    Table,
    aggregate,
    emit_csv,
    emit_plot_data,
    parse_csv,
    run_check,
    run_experiment,
    variance_se,
)
from pmquad.specfun import h


class TestAggregate:
    def test_single_sample(self):
        st = aggregate([5.0])
        assert st.count == 1 and st.mean == 5.0
        assert st.variance == 0.0 and st.standard_error == 0.0

    def test_small_sample(self):
        st = aggregate([1.0, 2.0, 3.0])
        assert st.mean == 2.0
        assert st.variance == 1.0
        assert st.standard_error == pytest.approx(math.sqrt(1.0 / 3.0))

    def test_compensated_summation(self):
        st = aggregate([0.1] * 1_000_000)
        assert abs(st.mean - 0.1) < 1e-12
        assert st.variance == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_variance_se_sanity(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(0.0, 2.0, 40_000)
        # for a normal sample Var(s^2) ~ 2 sigma^4 / n
        expected = math.sqrt(2.0 * 16.0 / xs.size)
        assert variance_se(xs) == pytest.approx(expected, rel=0.1)


class TestEmission:
    def _table(self):
        return Table(columns=["a", "b"], rows=[(1, 0.1234567890123), (2, 7.0)],
                     meta={"seed": 3})

    def test_csv_layout(self):
        buf = io.StringIO()
        emit_csv(self._table(), buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == "# seed=3"
        assert lines[1] == "a,b"
        assert lines[2] == "1,0.123456789012"  # 12 significant digits
        assert lines[-1] == ""

    def test_plot_layout(self):
        buf = io.StringIO()
        emit_plot_data(self._table(), buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == "# seed=3"
        assert lines[1] == "# a b"
        assert lines[2].split() == ["1", "0.123456789012"]

    def test_round_trip(self):
        buf = io.StringIO()
        emit_csv(self._table(), buf)
        buf.seek(0)
        back = parse_csv(buf)
        assert back.columns == ["a", "b"]
        for row, orig in zip(back.rows, self._table().rows):
            for v, o in zip(row, orig):
                assert v == pytest.approx(o, rel=1e-11)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            emit_csv(Table(columns=["a"], rows=[], meta={}), io.StringIO())


class TestBlockStreams:
    """_streams against np.random.default_rng, stream by stream."""

    @staticmethod
    def _assert_default_rng(prefix, lo, hi, suffix=()):
        got = harness._streams(prefix, lo, hi, suffix)
        assert len(got) == hi - lo
        for r, rng in zip(range(lo, hi), got):
            ref = np.random.default_rng([*prefix, r, *suffix])
            assert np.array_equal(rng.random(4), ref.random(4)), (prefix, r, suffix)
            assert np.array_equal(rng.poisson(40.0, 4), ref.poisson(40.0, 4))

    @pytest.mark.parametrize(
        "prefix",
        [(), (0,), (7,), (2**32 - 1,), (2**32,), (2**64 - 1,), (2**70,),
         (0, 2**32 - 1), (2**32, 5), (3, 2**70), (0, 0, 0), (1, 2**64 - 1, 2**32)],
    )
    def test_prefixes(self, prefix):
        self._assert_default_rng(prefix, 0, 7)

    @pytest.mark.parametrize("lo, hi", [(0, 0), (0, 1), (5, 6), (256, 512), (1000, 1003),
                                        (2**32 - 3, 2**32)])
    def test_index_ranges(self, lo, hi):
        self._assert_default_rng((11, 2), lo, hi)

    @pytest.mark.parametrize("suffix", [(1,), (0,), (2**32,), (1, 2**70)])
    def test_suffix(self, suffix):
        # coupling's second stream is default_rng([seed, r, 1])
        self._assert_default_rng((9,), 250, 262, suffix)

    def test_block_straddling_two_word_indices(self):
        self._assert_default_rng((4,), 2**32 - 2, 2**32 + 2)
        self._assert_default_rng((4,), 2**32 - 2, 2**32 + 2, (1,))

    @pytest.mark.parametrize("prefix, suffix", [((-1,), ()), ((3, -2), ()), ((3,), (-1,))])
    def test_negative_value_raises_like_default_rng(self, prefix, suffix):
        with pytest.raises(ValueError, match="expected non-negative integer") as ref:
            np.random.default_rng([*prefix, 0, *suffix])
        with pytest.raises(ValueError) as got:
            harness._streams(prefix, 0, 3, suffix)
        assert str(got.value) == str(ref.value)

    def test_negative_index_raises(self):
        # a uint32 index column would wrap -1 to 2**32 - 1 silently
        with pytest.raises(ValueError, match="expected non-negative integer"):
            harness._streams((3,), -1, 2)


class _FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially."""

    made = []

    def __init__(self, max_workers):
        _FakePool.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def _block_ids(params, lo, hi):
    return [(params, r) for r in range(lo, hi)]


class TestRunBlocks:
    @pytest.fixture
    def fake_pool(self, monkeypatch):
        _FakePool.made = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _FakePool)
        return _FakePool.made

    @pytest.mark.parametrize(
        "threads, reps, cpus, workers",
        [
            (4, 300, 8, 2),  # two blocks: two workers, not four
            (100_000, 600, 2, 2),  # capped by the usable CPUs
            (3, 2000, 8, 3),
            (2, 256, 8, None),  # one block runs in-process
            (1, 2000, 8, None),
            (8, 2000, 1, None),
        ],
    )
    def test_pool_size(self, fake_pool, monkeypatch, threads, reps, cpus, workers):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        parts = harness.run_blocks(_block_ids, "p", reps, threads)
        assert fake_pool == ([] if workers is None else [workers])
        assert [len(p) for p in parts] == [min(256, reps - lo) for lo in range(0, reps, 256)]
        assert [x for p in parts for x in p] == [("p", r) for r in range(reps)]

    def test_experiment_pool_size(self, fake_pool, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        spec = ExperimentSpec(kind="poisson-mean", t=20.0, replications=700, seed=2)
        assert run_experiment(spec, threads=64).rows == run_experiment(spec).rows
        assert fake_pool == [3]

    def test_real_pool_matches_serial_bytes(self, monkeypatch):
        # two usable CPUs whatever the host shows, so threads=2 forks a real
        # 2-worker pool; both sizes run the batched kernel in it
        made = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                made.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        spec = ExperimentSpec(
            kind="variance-uniform-query", sizes=(120, 600), replications=600, seed=7
        )
        serial, pooled = io.StringIO(), io.StringIO()
        emit_csv(run_experiment(spec, threads=1), serial)
        emit_csv(run_experiment(spec, threads=2), pooled)
        assert made == [2]
        assert pooled.getvalue() == serial.getvalue()

    @pytest.mark.parametrize("reps", [0, -5])
    def test_no_replications(self, reps):
        with pytest.raises(ValueError, match="replications must be >= 1"):
            harness.run_blocks(_block_ids, None, reps)


class TestRunExperiment:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentSpec(kind="bogus"))

    def test_replications_floor(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentSpec(kind="poisson-mean", replications=0))

    def test_depth_cap(self):
        with pytest.raises(CapExceededError):
            run_experiment(ExperimentSpec(kind="limit-moments", depth=30))

    def test_depth_cap_is_limitproc_constant(self, monkeypatch):
        # the spec is refused before any expansion starts
        def expand(*args, **kwargs):
            raise AssertionError("simulate_many ran past the cap")

        monkeypatch.setattr(limitproc, "_MAX_POINTWISE_DEPTH", 5)
        monkeypatch.setattr(limitproc, "simulate_many", expand)
        with pytest.raises(CapExceededError, match="depth 6 exceeds cap 5"):
            run_experiment(ExperimentSpec(kind="limit-moments", depth=6))

    @pytest.mark.parametrize("kind", ["mean-profile", "supremum", "variance-uniform-query"])
    def test_size_cap_is_quadtree_constant(self, monkeypatch, kind):
        # the spec is refused before any point is drawn
        def sample(*args, **kwargs):
            raise AssertionError("points were drawn past the cap")

        monkeypatch.setattr(quadtree, "_MAX_POINTS", 10)
        monkeypatch.setattr(quadtree, "sample_uniform_xy", sample)
        with pytest.raises(CapExceededError, match="size 11 exceeds cap 10"):
            run_experiment(ExperimentSpec(kind=kind, sizes=(11,), replications=1))

    def test_mean_profile_columns(self):
        spec = ExperimentSpec(
            kind="mean-profile", sizes=(120,), replications=40,
            s_grid=(0.25, 0.5), seed=11,
        )
        table = run_experiment(spec)
        assert table.columns == ["s", "mean_cost", "norm_mean", "h", "se_norm"]
        assert len(table.rows) == 2
        assert table.rows[1][3] == h(0.5)
        assert table.meta["generator"] == "pcg64"

    def test_reruns_are_identical(self):
        spec = ExperimentSpec(kind="poisson-mean", t=30.0, replications=50, seed=3)
        t1 = run_experiment(spec)
        t2 = run_experiment(spec)
        assert t1.rows == t2.rows

    def test_thread_count_does_not_change_bytes(self):
        spec = ExperimentSpec(
            kind="variance-uniform-query", sizes=(60, 120), replications=600, seed=5
        )
        buf1, buf2 = io.StringIO(), io.StringIO()
        emit_csv(run_experiment(spec, threads=1), buf1)
        emit_csv(run_experiment(spec, threads=3), buf2)
        assert buf1.getvalue() == buf2.getvalue()

    def test_limit_moments_against_pointwise(self):
        from pmquad.limitproc import env_seed, simulate_path

        spec = ExperimentSpec(
            kind="limit-moments", depth=4, s=0.3, replications=300, seed=21
        )
        table = run_experiment(spec)
        (row,) = table.rows
        mean = row[2]
        direct = np.mean(
            [
                simulate_path(4, [0.3], env_seed(21, r))[0]
                for r in range(300)
            ]
        )
        assert mean == pytest.approx(direct, rel=1e-12)

    def test_coupling_check_passes(self):
        spec = ExperimentSpec(
            kind="coupling", t=40.0, eps=0.1, s=0.3, replications=2000, seed=8
        )
        table = run_experiment(spec)
        assert run_check(spec, table) == []

    def test_check_failure_reported_with_tight_tolerance(self):
        spec = ExperimentSpec(
            kind="kd-mean", sizes=(200,), replications=200, seed=9
        )
        table = run_experiment(spec)
        assert run_check(spec, table) == []
        failures = run_check(spec, table, tol_scale=1e-9)
        assert failures and all("mean" in f for f in failures)


# The per-kind replication loops of variance-uniform-query, kd-mean,
# poisson-mean and coupling as they stood before they were folded into
# harness._line_costs, kept verbatim as oracles.
def _oracle_block_variance_uniform(spec, lo, hi):
    sizes = harness._sizes(spec)
    out = np.empty((hi - lo, len(sizes)))
    for j, n in enumerate(sizes):
        for i, rng in enumerate(harness._streams((spec.seed, j), lo, hi)):
            xs, ys = quadtree.sample_uniform_xy(n, rng)
            xi = float(rng.random())
            out[i, j] = quadtree.line_cost(xs, ys, xi)
    return out


def _oracle_block_kd_mean(spec, lo, hi):
    (n,) = harness._sizes(spec)
    out = np.empty((hi - lo, 2))
    for j, axis in enumerate((kdtree.VERTICAL, kdtree.HORIZONTAL)):
        for i, rng in enumerate(harness._streams((spec.seed, j), lo, hi)):
            xs, ys = quadtree.sample_uniform_xy(n, rng)
            xi = float(rng.random())
            out[i, j] = kdtree.line_cost(xs, ys, xi, axis)
    return out


def _oracle_block_poisson_mean(spec, lo, hi):
    out = np.empty((hi - lo, 1))
    for i, rng in enumerate(harness._streams((spec.seed,), lo, hi)):
        xs, ys = quadtree.sample_poisson_xy(spec.t, rng)
        xi = float(rng.random())
        out[i, 0] = quadtree.line_cost(xs, ys, xi)
    return out


def _oracle_block_coupling(spec, lo, hi):
    out = np.empty((hi - lo, 3))
    tp = spec.t * (1.0 + spec.eps)
    sp = (spec.s + spec.eps) / (1.0 + spec.eps)
    pairs = zip(harness._streams((spec.seed,), lo, hi),
                harness._streams((spec.seed,), lo, hi, (1,)))
    for i, (rng, rng2) in enumerate(pairs):
        xs, ys = quadtree.sample_extension_xy(spec.t, spec.eps, rng)
        base, ext = quadtree.coupled_extension_cost(xs, ys, spec.eps, spec.s)
        xs2, ys2 = quadtree.sample_poisson_xy(tp, rng2)
        out[i] = (base, ext, quadtree.line_cost(xs2, ys2, sp))
    return out


class TestLineCostReplications:
    """Every kind built on _line_costs against its old loop, value for value."""

    # 600 replications span three blocks of 256
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "oracle, spec",
        [
            (_oracle_block_variance_uniform,
             ExperimentSpec(kind="variance-uniform-query", sizes=(40, 90), replications=600,
                            seed=4)),
            (_oracle_block_kd_mean,
             ExperimentSpec(kind="kd-mean", sizes=(70,), replications=600, seed=12)),
            (_oracle_block_poisson_mean,
             ExperimentSpec(kind="poisson-mean", t=55.0, replications=600, seed=6)),
            (_oracle_block_coupling,
             ExperimentSpec(kind="coupling", t=45.0, eps=0.2, s=0.35, replications=600,
                            seed=10)),
        ],
        ids=["variance-uniform-query", "kd-mean", "poisson-mean", "coupling"],
    )
    def test_matches_old_loop(self, oracle, spec, threads):
        expect = oracle(spec, 0, spec.replications)
        got = np.concatenate(
            harness.run_blocks(harness._block_worker, spec, spec.replications, threads)
        )
        assert np.array_equal(got, expect)
        summarize = harness.EXPERIMENT_KINDS[spec.kind][1]
        assert run_experiment(spec, threads=threads).rows == summarize(spec, expect).rows


class TestDegenerateSpecs:
    @pytest.mark.parametrize("kind", ["supremum", "mean-profile", "variance-uniform-query",
                                      "kd-mean"])
    def test_size_zero_refused_before_sampling(self, monkeypatch, kind):
        def sample(*args, **kwargs):
            raise AssertionError("points were drawn for an empty tree")

        monkeypatch.setattr(quadtree, "sample_uniform_xy", sample)
        with pytest.raises(ValueError, match="sizes must be >= 1, got 0"):
            run_experiment(ExperimentSpec(kind=kind, sizes=(0,), replications=2))

    def test_negative_coupling_eps_refused(self, monkeypatch):
        def sample(*args, **kwargs):
            raise AssertionError("points were drawn for a negative eps")

        monkeypatch.setattr(quadtree, "sample_extension_xy", sample)
        with pytest.raises(ValueError, match="coupling eps must be >= 0, got -1.0"):
            run_experiment(ExperimentSpec(kind="coupling", eps=-1.0, replications=2))
