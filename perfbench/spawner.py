"""Starts and reaps the benchmark's children on behalf of run.py.

A child's peak RSS as wait4 reports it includes the memory of the process
it was started from, as it stood at exec.  run.py holds numpy, pmquad and
the speed sensor's working set, more than a small job needs, so it starts
no job itself: it asks this process, which imports only the standard
library, to start each one.

Protocol, one JSON object per line.  Request on stdin: ``argv``, ``cwd``,
``env``, ``stdout``, ``stderr`` (file paths) and ``cpus``.  Replies on
stdout: ``{"pid": ...}`` once the child runs (or ``{"error": ...}``), then
``{"status": ..., "cpu": ..., "maxrss_kb": ...}`` once it has been reaped.
The process exits when stdin closes.
"""

import json
import os
import subprocess
import sys


def _reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        os.sched_setaffinity(0, req["cpus"])
        try:
            with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
                proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                        stdout=out, stderr=err)
        except OSError as exc:
            _reply({"error": repr(exc)})
            continue
        _reply({"pid": proc.pid})
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        _reply({"status": status, "cpu": ru.ru_utime + ru.ru_stime, "maxrss_kb": ru.ru_maxrss})


if __name__ == "__main__":
    main()
