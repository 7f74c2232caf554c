"""Children run under a host-speed sensor.

On a shared host the guest's CPUs run slower or faster by 20-40% over spans
of seconds, as other tenants load the machine, and each virtual CPU does so
on its own.  A job's CPU time slows with them (there is no steal time to
subtract), so neither the wall nor the CPU time of one job is steady from
run to run.  While a child runs, the benchmark process wakes every
``INTERVAL_S`` on the same CPU(s), times a small fixed reference kernel in
its own thread CPU time, and sleeps again.  The mean kernel time over the child's life, divided by
``REF_S``, is the child's slowdown, and the benchmark reports the child's
times divided by it: seconds at the speed at which the kernel takes
``REF_S``.  The reference kernel is benchmark code, so it is the same on
every commit compared, and so is the sensor's share of the CPU (about 5%).
"""

from __future__ import annotations

import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

INTERVAL_S = 0.04

SPAWNER = Path(__file__).with_name("spawner.py")

# The unit of the reported times.  Any constant would do, the same on both
# commits of a comparison; sampled between a job's steps (caches cold) on the
# 2-vCPU Xeon KVM guest the benchmark was written on, the kernel takes 1.5 to
# 3 ms under that host's usual load, so reported times are about half of the
# measured ones there.
REF_S = 0.001

_rng = np.random.default_rng(0)
_SORT_INPUT = _rng.random(4096)
_OBJECTS = [[i, float(i)] for i in range(1 << 17)]
_VISIT = [int(i) for i in _rng.permutation(1 << 17)[:1500]]
_TABLE = _rng.random(1 << 20)
_GATHER = _rng.integers(0, 1 << 20, 1 << 14)


def _reference_kernel() -> int:
    """About 0.5 ms (idle) of the kinds of work the jobs do: interpreter-bound
    arithmetic, small numpy sorts, Python objects visited in random order
    across ~15 MB, and a numpy gather from an 8 MB array.  The last two slow
    down with the host's cache and memory contention as the jobs do; the
    arithmetic alone would under-read it by about half."""
    s = 0
    for i in range(2000):
        s += i * i % 7
    for _ in range(4):
        s += int(np.sort(_SORT_INPUT)[0] > 1.0)
    for i in _VISIT:
        s += _OBJECTS[i][0]
    for _ in range(2):
        s += int(_TABLE[_GATHER].sum())
    return s


def sample(cpu: int) -> float:
    """Thread CPU seconds of one reference kernel on ``cpu``."""
    os.sched_setaffinity(0, {cpu})
    t0 = time.thread_time()
    _reference_kernel()
    return time.thread_time() - t0


@dataclass
class Sensed:
    wall: float
    cpu: float
    rss_mb: float
    rc: int
    slowdown: float
    out: bytes
    err: str


class Launcher:
    """Runs children in ``cwd`` with ``env`` through spawner.py, writing
    their output under ``workdir``, and senses the speed of their CPUs."""

    def __init__(self, cwd, env: dict, workdir):
        self.cwd, self.env = str(cwd), env
        self.stdout, self.stderr = Path(workdir) / "stdout.bin", Path(workdir) / "stderr.txt"
        self._spawner = subprocess.Popen(
            [sys.executable, "-I", "-S", str(SPAWNER)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def _receive(self) -> dict:
        line = self._spawner.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner exited with {self._spawner.wait()}")
        return json.loads(line)

    def run(self, argv, cpus) -> Sensed:
        """Run ``argv`` on ``cpus`` and sense the speed of those CPUs until it
        exits.  The spawner reaps the child with wait4, so its CPU time and
        peak RSS cover exactly its own process tree (including reaped pool
        workers) and no earlier child.  Its wall time ends when its pidfd
        turns readable, not at the sensor's next wake-up."""
        cpus = sorted(cpus)
        saved = os.sched_getaffinity(0)
        times = [sample(cpus[0])]
        request = {"argv": [str(a) for a in argv], "cwd": self.cwd, "env": self.env,
                   "stdout": str(self.stdout), "stderr": str(self.stderr), "cpus": cpus}
        try:
            t0 = time.perf_counter()
            self._spawner.stdin.write(json.dumps(request) + "\n")
            self._spawner.stdin.flush()
            started = self._receive()
            if "error" in started:
                raise RuntimeError(f"could not start {argv[:3]}: {started['error']}")
            pidfd = os.pidfd_open(started["pid"])
            try:
                while not select.select([pidfd], [], [], INTERVAL_S)[0]:
                    times.append(sample(cpus[len(times) % len(cpus)]))
                wall = time.perf_counter() - t0
            except BaseException:
                os.pidfd_send_signal(pidfd, signal.SIGKILL)
                raise
            finally:
                os.close(pidfd)
            done = self._receive()
            times.append(sample(cpus[-1]))
        finally:
            os.sched_setaffinity(0, saved)
        return Sensed(wall, done["cpu"], done["maxrss_kb"] / 1024.0,
                      os.waitstatus_to_exitcode(done["status"]), statistics.fmean(times) / REF_S,
                      self.stdout.read_bytes(), self.stderr.read_text("utf-8", "replace"))

    def close(self) -> None:
        """Stop the spawner (and a child it still runs) and wait for it."""
        if self._spawner.poll() is None:
            self._spawner.stdin.close()
            try:
                self._spawner.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._spawner.kill()
                self._spawner.wait()
        self._spawner.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
