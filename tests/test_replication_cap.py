"""--replications has a cap, like every other input that sets the work: a
count above it exits 3, with one line on stderr, before any block runs."""

import resource
import subprocess
import sys

import pytest

from pmquad import harness

HUGE = "1000000000000"
COMMANDS = [
    ["experiment", "--kind", "poisson-mean", "--t", "5", "--replications", HUGE],
    ["simulate-cost", "--n", "1", "--replications", HUGE],
    ["simulate-limit", "--depth", "3", "--replications", HUGE],
    ["diagnostics", "--depth", "3", "--replications", HUGE],
]


def _child_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


@pytest.mark.parametrize("command", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_count_above_the_cap_exits_3_before_any_work(command):
    # the child's CPU time, not the wall time, so that a busy host cannot
    # fail the test; a child that did the work would not finish at all
    before = _child_cpu_s()
    proc = subprocess.run([sys.executable, "-m", "pmquad.cli", "--threads", "2", *command],
                          capture_output=True, text=True, timeout=60)
    assert _child_cpu_s() - before < 1.0
    assert (proc.returncode, proc.stdout) == (3, "")
    cap = harness._MAX_REPLICATIONS
    assert proc.stderr == f"cap exceeded: {HUGE} replications exceed the cap of {cap}\n"
