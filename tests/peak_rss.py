"""Runs one command and prints its exit code, peak RSS and minor page faults
as a JSON line.

    python3 tests/peak_rss.py COMMAND [ARG ...]

The peak RSS that wait4 reports for a process counts the memory of the
process it was started from, as it stood at exec.  A test runner holds far
more than a small job, so the memory tests start their jobs through this
script, which imports only the standard library.  The command's standard
output goes to this script's standard error; the JSON line
``{"exit": ..., "maxrss_kib": ..., "minflt": ...}`` is the only thing on
standard output.  ``minflt`` is the command's count of minor page faults:
pages it touched for the first time, such as those of freshly mapped
memory.  Tests import ``measure`` to start a fresh interpreter this way.
"""

import json
import os
import subprocess
import sys


def main() -> None:
    proc = subprocess.Popen(sys.argv[1:], stdout=sys.stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"exit": proc.returncode, "maxrss_kib": usage.ru_maxrss,
                      "minflt": usage.ru_minflt}))


def measure(*args: str) -> dict:
    """The JSON dict of a fresh interpreter run with ``args`` against the
    pmquad the caller imports, after checking that it exited 0."""
    import pmquad
    src = os.path.dirname(os.path.dirname(os.path.realpath(pmquad.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, __file__, sys.executable, *args], env=env,
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout)
    assert result["exit"] == 0, proc.stderr[-2000:]
    return result


if __name__ == "__main__":
    main()
