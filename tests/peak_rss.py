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
memory.
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


if __name__ == "__main__":
    main()
