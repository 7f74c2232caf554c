import argparse
import io
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from pmquad import cli, kdtree, limitproc, quadtree
from pmquad.cli import main
from pmquad.harness import Table, emit_csv, parse_csv
from pmquad.quadtree import sample_uniform_points
from pmquad.moments import psi_moments
from pmquad.specfun import constants


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasicCommands:
    def test_constants(self, capsys):
        code, out, _ = run_cli(["constants"], capsys)
        assert code == 0
        table = parse_csv(io.StringIO(out))
        assert table.columns == ["name", "value"]
        assert len(table.rows) == 16
        assert table.rows[0][0] == "beta"

    def test_constants_values_have_12_digits(self, capsys):
        _, out, _ = run_cli(["constants"], capsys)
        line = [l for l in out.splitlines() if l.startswith("K4,")][0]
        assert line.split(",")[1] == format(constants().K4, ".12g")

    def test_moments(self, capsys):
        code, out, _ = run_cli(["moments", "--max-order", "5"], capsys)
        assert code == 0
        rows = parse_csv(io.StringIO(out)).rows
        table = psi_moments(5)
        assert len(rows) == 5
        assert rows[2][1] == pytest.approx(table.c(3), rel=1e-11)

    def test_second_moment(self, capsys):
        code, out, _ = run_cli(["second-moment", "--iters", "1", "--grid", "64"], capsys)
        assert code == 0
        rows = parse_csv(io.StringIO(out)).rows
        assert rows[0][0] == 0.0 and rows[-1][0] == 1.0

    def test_profile(self, capsys):
        code, out, _ = run_cli(["--seed", "3", "profile", "--n", "30"], capsys)
        assert code == 0
        rows = parse_csv(io.StringIO(out)).rows
        assert rows[0][0] == 0.0
        values = [int(r[1]) for r in rows]
        assert all(a != b for a, b in zip(values, values[1:]))

    def test_simulate_cost_deterministic(self, capsys):
        args = ["--seed", "5", "simulate-cost", "--n", "80", "--replications", "6",
                "--s", "0.4"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2
        rows = parse_csv(io.StringIO(out1)).rows
        assert len(rows) == 6

    def test_simulate_cost_kd_poisson(self, capsys):
        code, out, _ = run_cli(
            ["simulate-cost", "--poisson", "25", "--tree", "kd", "--root-axis", "h",
             "--replications", "4"],
            capsys,
        )
        assert code == 0
        assert len(parse_csv(io.StringIO(out)).rows) == 4

    def test_simulate_limit_path_and_replications(self, capsys):
        code, out, _ = run_cli(
            ["--seed", "2", "simulate-limit", "--depth", "4", "--grid", "17"], capsys
        )
        assert code == 0
        rows = parse_csv(io.StringIO(out)).rows
        assert len(rows) == 17
        assert rows[0][1] == 0.0 and rows[-1][1] == 0.0  # h vanishes at edges
        code, out, _ = run_cli(
            ["simulate-limit", "--depth", "4", "--replications", "5", "--s", "0.5"],
            capsys,
        )
        assert code == 0
        assert len(parse_csv(io.StringIO(out)).rows) == 5

    def test_simulate_limit_path_stays_in_range(self, capsys):
        # one realization over a fine grid: positive hump, max above mean
        code, out, _ = run_cli(
            ["--seed", "14", "simulate-limit", "--depth", "10", "--grid", "256"],
            capsys,
        )
        assert code == 0
        vals = [r[1] for r in parse_csv(io.StringIO(out)).rows]
        assert all(0.0 <= v <= 3.0 for v in vals)
        assert max(vals) > sum(vals) / len(vals)

    def test_diagnostics_with_fill(self, capsys):
        code, out, _ = run_cli(
            ["diagnostics", "--depth", "3", "--replications", "4", "--fill-n", "40"],
            capsys,
        )
        assert code == 0
        table = parse_csv(io.StringIO(out))
        assert table.columns == ["replication", "wn", "ln", "fillup"]
        assert len(table.rows) == 4

    def test_plot_format(self, capsys):
        code, out, _ = run_cli(["--format", "plot", "constants"], capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("#")
        assert "," not in out.splitlines()[1]


class TestExitCodes:
    def test_invalid_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_invalid_flag_value(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate-cost", "--n", "many"])
        assert exc.value.code == 2

    def test_cap_exceeded(self, capsys):
        code, _, err = run_cli(["simulate-limit", "--depth", "30", "--grid", "4"], capsys)
        assert code == 3
        assert "cap" in err

    def test_check_failure_exit_code(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["--out", str(tmp_path / "t.csv"), "experiment", "--kind", "kd-mean",
             "--n", "150", "--replications", "150", "--check",
             "--tol-scale", "1e-9"],
            capsys,
        )
        assert code == 4
        assert "check failed" in err

    def test_check_success_exit_code(self, capsys):
        code, _, _ = run_cli(
            ["experiment", "--kind", "coupling", "--t", "30", "--replications",
             "200", "--check"],
            capsys,
        )
        assert code == 0

    def test_negative_experiment_size(self, capsys):
        code, _, err = run_cli(
            ["experiment", "--kind", "poisson-mean", "--t", "-3"], capsys
        )
        assert code == 2


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 9\nthreads = 1\n")
        args = ["--config", str(cfg), "simulate-cost", "--n", "60",
                "--replications", "3"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(["--seed", "9", "simulate-cost", "--n", "60",
                              "--replications", "3"], capsys)
        assert out1 == out2
        # explicit flag beats the config value
        _, out3, _ = run_cli(args + ["--seed", "10"], capsys)
        assert out3 != out1

    def test_config_subcommand_and_global_keys(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 50\nreplications = 2\nseed = 4\n")
        code, out1, _ = run_cli(["--config", str(cfg), "simulate-cost"], capsys)
        _, out2, _ = run_cli(["--seed", "4", "simulate-cost", "--n", "50",
                              "--replications", "2"], capsys)
        assert code == 0 and out1 == out2
        # explicit flags win over both kinds of key, wherever they stand
        for args in (["--seed", "5", "simulate-cost", "--replications", "3"],
                     ["simulate-cost", "--seed", "5", "--replications", "3"]):
            _, out3, _ = run_cli(["--config", str(cfg)] + args, capsys)
            _, out4, _ = run_cli(["--seed", "5", "simulate-cost", "--n", "50",
                                  "--replications", "3"], capsys)
            assert out3 == out4

    def test_config_equals_form(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 9\n")
        tail = ["simulate-cost", "--n", "60", "--replications", "3"]
        _, out1, _ = run_cli([f"--config={cfg}"] + tail, capsys)
        _, out2, _ = run_cli(["--seed", "9"] + tail, capsys)
        _, out0, _ = run_cli(tail, capsys)
        assert out1 == out2 != out0

    def test_config_shared_across_subcommands(self, capsys, tmp_path):
        # n belongs to simulate-cost, profile and experiment, not to constants
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 50\nseed = 4\n")
        code, out1, _ = run_cli(["--config", str(cfg), "constants"], capsys)
        _, out2, _ = run_cli(["constants"], capsys)
        assert code == 0 and out1 == out2
        _, out3, _ = run_cli(["--config", str(cfg), "profile"], capsys)
        _, out4, _ = run_cli(["--seed", "4", "profile", "--n", "50"], capsys)
        assert out3 == out4

    def test_config_key_no_subcommand_knows(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "constants"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus 1" in capsys.readouterr().err

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed 9\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "constants"])
        assert exc.value.code == 2


class TestProfileMatchesObjectTrees:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("tree", [[], ["--tree", "kd", "--root-axis", "v"],
                                      ["--tree", "kd", "--root-axis", "h"]])
    def test_output_bytes(self, capsys, seed, tree):
        _, out, _ = run_cli(["--seed", str(seed), "profile", "--n", "300"] + tree, capsys)
        pts = sample_uniform_points(300, np.random.default_rng([seed, 0]))
        if tree:
            prof = quadtree.profile(kdtree.build_kd(pts, tree[-1]))
        else:
            prof = quadtree.profile(quadtree.build(pts))
        rows = list(zip(prof.breakpoints, prof.values))
        buf = io.StringIO()
        emit_csv(Table(columns=["breakpoint", "value"], rows=rows, meta={"seed": seed}), buf)
        assert out == buf.getvalue()


class TestOutputFiles:
    def test_out_flag_writes_newline_terminated_file(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        code, out, _ = run_cli(["--out", str(path), "constants"], capsys)
        assert code == 0 and out == ""
        data = path.read_bytes()
        assert data.endswith(b"\n") and b"\r" not in data

    def test_empty_table_leaves_no_file(self, tmp_path, capsys):
        path = tmp_path / "z.csv"
        code, out, err = run_cli(["--out", str(path), "simulate-limit", "--grid", "0"], capsys)
        assert code == 2 and out == ""
        assert err == "invalid arguments: the command yields no rows\n"
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate-limit", "--depth", "4", "--s", "0.5", "--replications", "0"],
            ["simulate-limit", "--depth", "4", "--grid", "0"],
            ["--out", "{tmp}/missing/dir/x.csv", "constants"],
            ["--out", "{tmp}", "constants"],
            ["experiment", "--kind", "kd-mean", "--n", "5", "--s", "3", "--replications", "2"],
            ["experiment", "--kind", "kd-mean", "--n", "5", "--s", "nan", "--replications", "2"],
            ["experiment", "--kind", "mean-profile", "--n", "5", "--s-grid", "0.5", "1.5",
             "--replications", "2"],
            ["simulate-limit", "--s", "3", "--depth", "2", "--grid", "3"],
            ["simulate-limit", "--s", "-0.5", "--depth", "2", "--replications", "2"],
            ["simulate-limit", "--grid", "-1"],
        ],
        ids=["no-replications", "empty-grid", "missing-dir", "out-is-dir", "experiment-s-3",
             "experiment-s-nan", "experiment-s-grid", "limit-path-s", "limit-reps-s",
             "negative-path-grid"],
    )
    def test_usage_errors_exit_2_without_traceback(self, tmp_path, argv):
        argv = [a.format(tmp=tmp_path) for a in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "pmquad.cli", *argv], capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and proc.stdout == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate-cost", "--n", "400000000", "--replications", "1"],
            ["experiment", "--kind", "poisson-mean", "--t", "1e12", "--replications", "1"],
            ["profile", "--n", "400000000"],
        ],
        ids=["simulate-cost", "poisson-mean", "profile"],
    )
    def test_points_above_cap_exit_3_without_traceback(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "pmquad.cli", *argv], capture_output=True, text=True,
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("cap exceeded: ") and proc.stdout == ""

    def test_installed_entry_point_runs(self, tmp_path):
        # exercise the real subprocess path once
        proc = subprocess.run(
            [sys.executable, "-m", "pmquad.cli", "constants"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("name,value")

    def test_closed_stdout_exits_quietly(self):
        # the reader stops after two lines, long before the output ends
        proc = subprocess.Popen(
            [sys.executable, "-m", "pmquad.cli", "simulate-cost", "--n", "2",
             "--replications", "40000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert head[0].startswith(b"#")
        assert err == b""


class TestThreadIndependence:
    def test_experiment_output_bytes_stable_across_threads(self, tmp_path, capsys):
        base = ["experiment", "--kind", "variance-uniform-query", "--n", "50", "100",
                "--replications", "600", "--seed", "17"]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["--threads", "1", "--out", str(p1)] + base, capsys)[0] == 0
        assert run_cli(["--threads", "4", "--out", str(p2)] + base, capsys)[0] == 0
        assert p1.read_bytes() == p2.read_bytes()


# The serial replication loops of simulate-cost and diagnostics, and the one
# simulate_many call of simulate-limit, as they stood before each moved onto
# the harness's block scheduler, kept as oracles.
def _oracle_simulate_cost(args) -> Table:
    rows = []
    for r in range(args.replications):
        rng = np.random.default_rng([args.seed, r])
        if args.poisson is not None:
            n = int(rng.poisson(args.poisson))
        else:
            n = args.n
        xs, ys = quadtree.sample_uniform_xy(n, rng)
        s = args.s if args.s is not None else float(rng.random())
        if args.tree == "quad":
            value = quadtree.line_cost(xs, ys, s)
        else:
            value = kdtree.line_cost(xs, ys, s, args.root_axis)
        rows.append((r, value))
    meta = {"seed": args.seed, "tree": args.tree, "generator": "pcg64"}
    return Table(columns=["replication", "cost"], rows=rows, meta=meta)


def _oracle_diagnostics(args) -> Table:
    rows = []
    columns = ["replication", "wn", "ln"]
    if args.fill_n is not None:
        columns.append("fillup")
    for r in range(args.replications):
        env = limitproc.env_seed(args.seed, r)
        wn, ln = limitproc.diagnostics(args.depth, env)
        row = [r, wn, ln]
        if args.fill_n is not None:
            xs, ys = quadtree.sample_uniform_xy(args.fill_n, np.random.default_rng([args.seed, r]))
            row.append(limitproc.fill_up_level_xy(xs, ys))
        rows.append(tuple(row))
    return Table(columns=columns, rows=rows, meta={"seed": args.seed, "depth": args.depth})


def _oracle_simulate_limit(args) -> Table:
    vals = limitproc.simulate_many(
        args.depth, args.s, args.seed, args.replications, two_d=args.variant == "kd"
    )
    rows = list(enumerate(vals.tolist()))
    return Table(columns=["replication", "value"],
                 rows=rows, meta={"seed": args.seed, "depth": args.depth})


def _oracle_bytes(oracle, argv) -> str:
    from pmquad.cli import _build_parser

    buf = io.StringIO()
    emit_csv(oracle(_build_parser().parse_args(argv)), buf)
    return buf.getvalue()


class TestBlockScheduledCommands:
    # 600 replications span three blocks of 256
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["--seed", "6", "simulate-cost", "--n", "120"],
            ["--seed", "6", "simulate-cost", "--n", "120", "--tree", "kd", "--root-axis", "v"],
            ["--seed", "7", "simulate-cost", "--n", "120", "--tree", "kd", "--root-axis", "h"],
            ["--seed", "8", "simulate-cost", "--poisson", "90"],
            ["--seed", "9", "simulate-cost", "--n", "120", "--s", "0.375"],
        ],
    )
    def test_simulate_cost_bytes(self, capsys, threads, argv):
        argv = argv + ["--replications", "600"]
        code, out, _ = run_cli(["--threads", threads] + argv, capsys)
        assert code == 0
        assert out == _oracle_bytes(_oracle_simulate_cost, argv)

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("fill", [[], ["--fill-n", "60"]])
    def test_diagnostics_bytes(self, capsys, threads, fill):
        argv = ["--seed", "3", "diagnostics", "--depth", "3", "--replications", "600"] + fill
        code, out, _ = run_cli(["--threads", threads] + argv, capsys)
        assert code == 0
        assert out == _oracle_bytes(_oracle_diagnostics, argv)

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("variant", ["quad", "kd"])
    def test_simulate_limit_bytes(self, capsys, threads, variant):
        argv = ["--seed", "5", "simulate-limit", "--depth", "7", "--s", "0.3",
                "--variant", variant, "--replications", "600"]
        code, out, _ = run_cli(["--threads", threads] + argv, capsys)
        assert code == 0
        assert out == _oracle_bytes(_oracle_simulate_limit, argv)

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("where", ["global", "subcommand", "config"])
    def test_threads_below_one_is_usage_error(self, capsys, tmp_path, value, where):
        tail = ["simulate-cost", "--n", "5", "--replications", "3"]
        if where == "global":
            argv = ["--threads", value] + tail
        elif where == "subcommand":
            argv = tail + ["--threads", value]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"threads = {value}\n")
            argv = ["--config", str(cfg)] + tail
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--threads: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["simulate-cost", "--n", "5"], ["diagnostics"],
                                         ["simulate-limit", "--depth", "4", "--s", "0.5"]])
    def test_no_replications_is_usage_error(self, capsys, command):
        code, out, err = run_cli(command + ["--replications", "0"], capsys)
        assert code == 2 and out == ""
        assert "replications must be >= 1" in err


class TestRefusedBeforeWork:
    @pytest.mark.parametrize(
        "argv, err",
        [
            (["experiment", "--kind", "supremum", "--n", "0", "--replications", "2"],
             "sizes must be >= 1, got 0"),
            (["experiment", "--kind", "mean-profile", "--n", "0", "--replications", "2"],
             "sizes must be >= 1, got 0"),
            (["experiment", "--kind", "variance-uniform-query", "--n", "0",
              "--replications", "2"], "sizes must be >= 1, got 0"),
            (["experiment", "--kind", "coupling", "--eps", "-1"],
             "coupling eps must be >= 0, got -1.0"),
            (["simulate-cost", "--poisson", "-1", "--replications", "2"],
             "intensity budget t must be >= 0, got -1.0"),
        ],
        ids=["supremum", "mean-profile", "variance-uniform-query", "coupling-eps",
             "poisson-budget"],
    )
    def test_usage_error_exit_2_without_traceback(self, argv, err):
        proc = subprocess.run(
            [sys.executable, "-m", "pmquad.cli", *argv], capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"invalid arguments: {err}\n" and proc.stdout == ""

    def test_operator_grid_above_cap_exits_3_without_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pmquad.cli", "second-moment", "--iters", "1",
             "--grid", "3000000"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "cap exceeded: grid of 3000002 points exceeds cap 16384\n"
        assert proc.stdout == ""


def test_command_table_has_a_handler_per_subcommand():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(cli._COMMANDS) == set(sub.choices)


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_tol_scale_outside_finite_positive_exits_2(tmp_path, value):
    argv = ["experiment", "--kind", "kd-mean", "--n", "4", "--replications", "4", "--check"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol-scale", value])
    assert exc.value.code == 2
    cfg = tmp_path / "f.cfg"
    cfg.write_text(f"tol_scale = {value}\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg)] + argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, err",
    [
        (["second-moment", "--iters", "0", "--grid", "20000"],
         "grid of 20002 points exceeds cap 16384"),
        (["second-moment", "--grid", "10000000"], "grid of 10000002 points exceeds cap 16384"),
        (["simulate-limit", "--grid", "10000000"], "grid size 10000000 exceeds cap 10000"),
    ],
    ids=["second-moment-no-iters", "second-moment", "simulate-limit"],
)
def test_grid_cap_checked_before_the_grid_is_built(capsys, argv, err):
    tracemalloc.start()
    try:
        code, out, stderr = run_cli(argv, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, stderr) == (3, "", f"cap exceeded: {err}\n")
    assert peak < 4 * 2**20


def test_negative_operator_grid_exits_2(capsys):
    code, out, err = run_cli(["second-moment", "--iters", "0", "--grid", "-2"], capsys)
    assert (code, out, err) == (2, "", "invalid arguments: grid size must be >= 0, got -2\n")


def test_negative_path_grid_exits_2(capsys):
    code, out, err = run_cli(["simulate-limit", "--depth", "2", "--grid", "-1"], capsys)
    assert (code, out, err) == (2, "", "invalid arguments: grid size must be >= 0, got -1\n")


class TestNonFiniteBudgetsAndEps:
    """A Poisson budget or coupling eps that numpy's Poisson would refuse gets
    pmquad's own one-line message, before any replication runs."""

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["experiment", "--kind", "coupling", "--eps", "nan"], 2,
             "invalid arguments: coupling eps must be finite, got nan"),
            (["experiment", "--kind", "coupling", "--eps", "inf"], 2,
             "invalid arguments: coupling eps must be finite, got inf"),
            (["experiment", "--kind", "poisson-mean", "--t", "nan"], 2,
             "invalid arguments: intensity budget t must be finite, got nan"),
            (["experiment", "--kind", "poisson-mean", "--t", "inf"], 2,
             "invalid arguments: intensity budget t must be finite, got inf"),
            (["simulate-cost", "--poisson", "nan"], 2,
             "invalid arguments: intensity budget t must be finite, got nan"),
            (["--threads", "2", "simulate-cost", "--poisson", "inf", "--replications", "600"], 2,
             "invalid arguments: intensity budget t must be finite, got inf"),
            (["simulate-cost", "--poisson", "1e300"], 3,
             "cap exceeded: intensity budget t = 1e+300 exceeds 2**62; trees are capped "
             "at 16777216 points"),
            (["experiment", "--kind", "coupling", "--t", "10", "--eps", "1e300"], 3,
             "cap exceeded: intensity budget t (1 + eps) = 1e+301 exceeds 2**62; trees are capped "
             "at 16777216 points"),
        ],
        ids=["coupling-eps-nan", "coupling-eps-inf", "poisson-t-nan", "poisson-t-inf",
             "simulate-cost-nan", "simulate-cost-inf-pooled", "simulate-cost-1e300",
             "coupling-eps-1e300"],
    )
    def test_one_line_without_numpy_message(self, argv, code, err):
        proc = subprocess.run(
            [sys.executable, "-m", "pmquad.cli", *argv], capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err + "\n")
        assert "lam" not in proc.stderr and "Traceback" not in proc.stderr

    def test_simulate_cost_budget_checked_before_any_block(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_blocks", lambda *a: pytest.fail("a block ran"))
        code, out, err = run_cli(["simulate-cost", "--poisson", "nan"], capsys)
        assert (code, out) == (2, "")
        assert err == "invalid arguments: intensity budget t must be finite, got nan\n"
