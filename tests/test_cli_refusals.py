"""The replicated CLI commands refuse every input that a block would refuse
before any block runs, with the block's own message and exit code.

Each argv runs through ``cli.main`` with ``--threads 2`` and 600
replications, where the caller would fork before its first block, and with
``harness.run_blocks`` patched to fail.
"""

import pytest

from pmquad import harness
from pmquad.cli import main

_USAGE, _CAP = "invalid arguments: ", "cap exceeded: "
_POINT_CAP = "99999999 points exceed the cap of 16777216 per tree"

REFUSED = [
    (["diagnostics", "--depth", "-1"], 2, _USAGE + "depth must be >= 0, got -1"),
    (["diagnostics", "--depth", "40"], 3, _CAP + "depth 40 exceeds cap 12"),
    (["diagnostics", "--fill-n", "-3"], 2, _USAGE + "n must be >= 0, got -3"),
    (["diagnostics", "--fill-n", "99999999"], 3, _CAP + _POINT_CAP),
    (["simulate-limit", "--depth", "-1"], 2, _USAGE + "depth must be >= 0, got -1"),
    (["simulate-limit", "--depth", "99"], 3, _CAP + "depth 99 exceeds cap 24"),
    (["simulate-cost", "--n", "-5"], 2, _USAGE + "n must be >= 0, got -5"),
    (["simulate-cost", "--n", "99999999"], 3, _CAP + _POINT_CAP),
    (["simulate-cost", "--s", "1.5"], 2, _USAGE + "query position must lie in [0, 1], got 1.5"),
]

# argvs that break two rules: the check that fires first is the one a block
# made after run_blocks had checked the replication count
FIRST_OF_TWO = [
    (["diagnostics", "--depth", "-1", "--replications", "0"], 2,
     _USAGE + "replications must be >= 1"),
    (["simulate-cost", "--n", "-5", "--replications", "99999999"], 3,
     _CAP + "99999999 replications exceed the cap of 16777216"),
    (["simulate-cost", "--poisson", "-1", "--replications", "0"], 2,
     _USAGE + "intensity budget t must be >= 0, got -1.0"),
    (["diagnostics", "--depth", "40", "--fill-n", "-3"], 3, _CAP + "depth 40 exceeds cap 12"),
    (["simulate-cost", "--n", "-5", "--s", "1.5"], 2,
     _USAGE + "query position must lie in [0, 1], got 1.5"),
    (["simulate-limit", "--replications", "10", "--s", "1.5", "--depth", "99"], 2,
     _USAGE + "query position must lie in [0, 1], got 1.5"),
]


def _ids(cases):
    return [" ".join(argv) for argv, _, _ in cases]


@pytest.fixture
def no_blocks(monkeypatch):
    monkeypatch.setattr(harness, "run_blocks", lambda *a: pytest.fail("a block ran"))


@pytest.mark.parametrize("argv, code, err", REFUSED, ids=_ids(REFUSED))
def test_refused_before_any_block(no_blocks, capsys, argv, code, err):
    assert main(["--threads", "2", *argv, "--replications", "600"]) == code
    assert capsys.readouterr() == ("", err + "\n")


@pytest.mark.parametrize("argv, code, err", FIRST_OF_TWO, ids=_ids(FIRST_OF_TWO))
def test_the_first_broken_rule_is_reported(no_blocks, capsys, argv, code, err):
    assert main(["--threads", "2", *argv]) == code
    assert capsys.readouterr() == ("", err + "\n")
