import io
import math
import os
import signal
import subprocess
import sys
import time

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


def _block_ids(params, lo, hi):
    return [(params, r) for r in range(lo, hi)]


class TestRunBlocks:
    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids os.fork returns to the caller, one per forked worker."""
        made, fork = [], os.fork

        def counting_fork():
            pid = fork()
            made.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        return made

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
    def test_pool_size(self, forks, monkeypatch, threads, reps, cpus, workers):
        # the caller is one of the workers and forks the others
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        parts = harness.run_blocks(_block_ids, "p", reps, threads)
        assert len(forks) == (0 if workers is None else workers - 1)
        assert [len(p) for p in parts] == [min(256, reps - lo) for lo in range(0, reps, 256)]
        assert [x for p in parts for x in p] == [("p", r) for r in range(reps)]

    def test_experiment_pool_size(self, forks, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        spec = ExperimentSpec(kind="poisson-mean", t=20.0, replications=700, seed=2)
        assert run_experiment(spec, threads=64).rows == run_experiment(spec).rows
        assert len(forks) == 3 - 1

    def test_real_pool_matches_serial_bytes(self, forks, monkeypatch):
        # two usable CPUs whatever the host shows, so threads=2 forks one
        # worker beside the caller; both sizes run the batched kernel in it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        spec = ExperimentSpec(
            kind="variance-uniform-query", sizes=(120, 600), replications=600, seed=7
        )
        serial, pooled = io.StringIO(), io.StringIO()
        emit_csv(run_experiment(spec, threads=1), serial)
        emit_csv(run_experiment(spec, threads=2), pooled)
        assert len(forks) == 2 - 1
        assert pooled.getvalue() == serial.getvalue()

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def test_block_fn_need_not_pickle(self, two_cpus, forks):
        offset = 5
        parts = harness.run_blocks(lambda p, lo, hi: list(range(lo + offset, hi + offset)),
                                   None, 600, 2)
        assert len(forks) == 1
        assert [x for p in parts for x in p] == list(range(5, 605))

    def test_child_error_is_raised_again(self, two_cpus):
        def block(caller, lo, hi):
            if os.getpid() != caller:
                raise CapExceededError(f"block {lo} refused")
            return [lo]

        with pytest.raises(CapExceededError, match=r"^block 256 refused$"):
            harness.run_blocks(block, os.getpid(), 600, 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_caller_error_kills_and_reaps_every_child(self, monkeypatch, forks, error):
        # children that were waited for, not killed, would take 30 s
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})

        def block(caller, lo, hi):
            if os.getpid() != caller:
                time.sleep(30)
            raise error("caller's block")

        t0 = time.perf_counter()
        with pytest.raises(error, match="caller's block"):
            harness.run_blocks(block, os.getpid(), 3 * 256, 3)
        assert time.perf_counter() - t0 < 20
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_without_result_raises(self, two_cpus, forks):
        def block(caller, lo, hi):
            if os.getpid() != caller:
                os._exit(9)
            return [lo]

        with pytest.raises(RuntimeError) as exc:
            harness.run_blocks(block, os.getpid(), 600, 2)
        (pid,) = forks
        assert str(exc.value) == f"worker {pid} sent no result (wait status {9 << 8})"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_of_a_killed_caller_stops(self, tmp_path):
        # the caller dies by SIGKILL, so no finally of its own can stop the
        # child; the child notices at its next block boundary
        log = tmp_path / "blocks.txt"
        code = (
            "import os, signal, sys, time\n"
            "from pmquad import harness\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "def block(caller, lo, hi):\n"
            "    if os.getpid() == caller:\n"
            "        time.sleep(0.5)\n"
            "        os.kill(caller, signal.SIGKILL)\n"
            "    with open(sys.argv[1], 'a') as fh:\n"
            "        fh.write(f'{lo}\\n')\n"
            "    time.sleep(0.2)\n"
            "    return [lo]\n"
            "harness.run_blocks(block, os.getpid(), 40 * 256, 2)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code, str(log)], timeout=60)
        assert proc.returncode == -signal.SIGKILL
        time.sleep(1.0)
        ran = log.read_text().split()
        time.sleep(1.0)
        assert log.read_text().split() == ran
        # the child's first blocks only, of the twenty it was given
        assert ran and all(int(lo) // 256 % 2 == 1 for lo in ran) and len(ran) <= 5

    def test_without_fork_runs_in_process(self, two_cpus, monkeypatch):
        spec = ExperimentSpec(kind="poisson-mean", t=20.0, replications=700, seed=2)
        forked = harness.run_blocks(harness._block_worker, spec, 700, 2)
        monkeypatch.delattr(os, "fork")
        pids = []

        def block(params, lo, hi):
            pids.append(os.getpid())
            return harness._block_worker(params, lo, hi)

        alone = harness.run_blocks(block, spec, 700, 2)
        assert pids == [os.getpid()] * 3
        assert np.concatenate(alone).tobytes() == np.concatenate(forked).tobytes()

    def test_replication_cap_before_any_block(self):
        cap = harness._MAX_REPLICATIONS
        assert cap == 2**24
        with pytest.raises(CapExceededError, match=f"^{cap + 1} replications exceed the cap of {cap}$"):
            harness.run_blocks(lambda *a: pytest.fail("a block ran"), None, cap + 1, 2)

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

    @pytest.mark.parametrize("kind, err", [
        ("mean-profile", "mean-profile takes exactly one size"),
        ("variance-uniform-query", "experiment kind 'variance-uniform-query' needs --n sizes"),
        ("supremum", "experiment kind 'supremum' needs --n sizes"),
        ("kd-mean", "kd-mean takes exactly one size"),
    ], ids=["mean-profile", "variance-uniform-query", "supremum", "kd-mean"])
    def test_missing_sizes_refused_before_any_block(self, monkeypatch, capsys, kind, err):
        from pmquad.cli import main

        monkeypatch.setattr(harness, "run_blocks", lambda *a: pytest.fail("a block ran"))
        argv = ["--threads", "2", "experiment", "--kind", kind, "--replications", "600"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"invalid arguments: {err}\n")

    @pytest.mark.parametrize("args, code, err", [
        (["--kind", "limit-moments", "--depth", "-1"], 2,
         "invalid arguments: depth must be >= 0, got -1"),
        (["--kind", "poisson-mean", "--t", "nan"], 2,
         "invalid arguments: intensity budget t must be finite, got nan"),
        (["--kind", "poisson-mean", "--t", "-1"], 2,
         "invalid arguments: intensity budget t must be >= 0, got -1.0"),
        (["--kind", "coupling", "--t", "-1"], 2,
         "invalid arguments: intensity budget t must be >= 0, got -1.0"),
        (["--kind", "coupling", "--t", "1e300"], 3,
         "cap exceeded: intensity budget t (1 + eps) = 1.1000000000000002e+300 exceeds 2**62; "
         "trees are capped at 16777216 points"),
    ], ids=["limit-moments-depth", "poisson-mean-t-nan", "poisson-mean-t-negative",
            "coupling-t-negative", "coupling-t-eps-cap"])
    def test_block_inputs_refused_before_any_block(self, monkeypatch, capsys, args, code, err):
        # the messages the blocks' own checks give
        from pmquad.cli import main

        monkeypatch.setattr(harness, "run_blocks", lambda *a: pytest.fail("a block ran"))
        assert main(["--threads", "2", "experiment", *args, "--replications", "600"]) == code
        assert capsys.readouterr() == ("", f"{err}\n")

    @pytest.mark.parametrize("variant", ["KD", "", "2d"], ids=["KD", "empty", "2d"])
    def test_unknown_variant_refused_before_any_block(self, monkeypatch, variant):
        monkeypatch.setattr(harness, "run_blocks", lambda *a: pytest.fail("a block ran"))
        spec = ExperimentSpec(kind="limit-moments", depth=4, variant=variant)
        with pytest.raises(ValueError, match=f"^limit-moments variant must be 'quad' or 'kd', "
                                             f"got {variant!r}$"):
            run_experiment(spec)

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
    sizes = spec.sizes
    out = np.empty((hi - lo, len(sizes)))
    for j, n in enumerate(sizes):
        for i, rng in enumerate(harness._streams((spec.seed, j), lo, hi)):
            xs, ys = quadtree.sample_uniform_xy(n, rng)
            xi = float(rng.random())
            out[i, j] = quadtree.line_cost(xs, ys, xi)
    return out


def _oracle_block_kd_mean(spec, lo, hi):
    (n,) = spec.sizes
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
