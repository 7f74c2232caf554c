"""--seed has one domain, the non-negative integers, for every command and
wherever it is given: a negative seed is refused while the arguments are
parsed (exit 2), with one error line that names the flag.  So is a value
of --seed, --threads or --tol-scale that is not a number."""

import subprocess
import sys

import pytest

COMMANDS = [
    ["constants"],
    ["moments"],
    ["second-moment", "--iters", "1", "--grid", "64"],
    ["simulate-cost", "--n", "5", "--replications", "3"],
    ["profile", "--n", "5"],
    ["simulate-limit", "--depth", "3"],
    ["diagnostics", "--depth", "2", "--replications", "3"],
    ["diagnostics", "--depth", "2", "--replications", "3", "--fill-n", "3"],
    ["experiment", "--kind", "limit-moments", "--depth", "3", "--replications", "3"],
    ["experiment", "--kind", "poisson-mean", "--t", "5", "--replications", "3"],
]


# every subcommand shares the one --seed action that follows it, and a config
# file's seed is inserted in front as the global flag
CASES = [(c, "global") for c in COMMANDS] + [
    (c, where) for c in (COMMANDS[4], COMMANDS[-1]) for where in ("subcommand", "config")]


@pytest.mark.parametrize("command, where", CASES, ids=[f"{w}: {' '.join(c)}" for c, w in CASES])
def test_negative_seed_is_refused_while_parsing(tmp_path, command, where):
    if where == "global":
        argv = ["--seed", "-1", *command]
    elif where == "subcommand":
        argv = [*command, "--seed", "-1"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        argv = ["--config", str(cfg), *command]
    proc = subprocess.run([sys.executable, "-m", "pmquad.cli", *argv],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    prog = "pmquad" if where != "subcommand" else f"pmquad {command[0]}"
    assert errors == [f"{prog}: error: argument --seed: must be >= 0, got -1"]


def test_seed_zero_and_large_seeds_still_run():
    for seed in ("0", str(2**64)):
        proc = subprocess.run([sys.executable, "-m", "pmquad.cli", "--seed", seed, "profile",
                               "--n", "5"], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("#")


# a value that is not a number is refused with what the flag expects, not
# with the name of the function that parses it
BAD_VALUES = [("--seed", "must be an integer >= 0"), ("--threads", "must be an integer >= 1"),
              ("--tol-scale", "must be a finite number > 0")]
WHERE = [(flag, want, where) for flag, want in BAD_VALUES
         for where in ("global", "subcommand", "config") if (flag, where) != ("--tol-scale", "global")]


@pytest.mark.parametrize("flag, want, where", WHERE, ids=[f"{w}: {f}" for f, _, w in WHERE])
def test_value_that_is_not_a_number_names_what_is_expected(tmp_path, flag, want, where):
    command = COMMANDS[-1] + ["--check"]
    if where == "global":
        argv = [flag, "x", *command]
    elif where == "subcommand":
        argv = [*command, flag, "x"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:].replace('-', '_')} = x\n")
        argv = ["--config", str(cfg), *command]
    proc = subprocess.run([sys.executable, "-m", "pmquad.cli", *argv],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    prog = "pmquad experiment" if where == "subcommand" or flag == "--tol-scale" else "pmquad"
    assert errors == [f"{prog}: error: argument {flag}: {want}, got 'x'"]
