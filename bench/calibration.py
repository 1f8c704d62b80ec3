"""Host-speed calibration, timed right before each benchmark operation.

The host the benchmark was defined on (2 shared vCPUs of an Intel Xeon at
2.0 GHz, Python 3.11.7, numpy 2.4.6) runs the same code up to twice as
slowly from one minute, or one second, to the next, and CPU time swings
with wall time. A fixed piece of work in the style of the simulator's
per-trial loop (a seeded PCG64 stream, scalar draws, float math) is timed
in as many processes as the operation uses, at once, just before it. Its
time over the reference below is the host's slowdown at that moment, and
dividing it out leaves the speed of the code under test.

For one process, the work runs in the benchmark process itself, on the
CPU and in the moment of the operation, with the garbage collector off so
that relaysim's live objects are not traversed. For more, it runs in
freshly forked processes, as in a process pool, so that it also tracks
how fast the host forks. They are forked by helper processes: fresh
interpreters that import only numpy, started before relaysim is imported
and woken over pipes. So relaysim's code and the state it leaves in the
benchmark process cannot move the measurement. Each helper times its own
child and the slowest counts, so the time a sleeping process takes to
wake is left out.
"""

from __future__ import annotations

import gc
import math
import os
import subprocess
import sys
from time import perf_counter

import numpy as np

# Calibration time per process count in a quiet state of the defining
# host. They only set the scale: a calibrated rate reads as that host's
# quiet-state rate.
REFERENCE_S = {1: 0.0075, 2: 0.0116}

# Start-up of a fresh interpreter that only imports numpy, in a quiet
# state of the same host; set-up times are calibrated against it.
NUMPY_START_S = 0.10


def _work() -> float:
    acc = 0.0
    for i in range(150):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=2012, spawn_key=(i,))))
        k = int(rng.integers(11, 27))
        points = [(float(rng.uniform(0, 70)), float(rng.uniform(-35, 35)))
                  for _ in range(4)]
        for _ in range(12):
            re, im = rng.standard_normal(2)
            acc += math.log2(1.0 + abs(complex(re, im)) ** 2)
        for x, y in points:
            acc += 28.0 * math.log10(max(math.hypot(x, y), 1.0)) \
                + 20.0 * math.log10(2405 + 5 * k)
    return acc


class Calibrator:
    """Calibration for up to `processes` processes; the helpers it needs
    are kept for the whole run.

    Use as a context manager: leaving it closes the helpers' pipes and
    waits until every helper has ended.
    """

    def __init__(self, processes: int) -> None:
        self._helpers: list[subprocess.Popen] = []
        try:
            for _ in range(processes if processes > 1 else 0):
                self._helpers.append(subprocess.Popen(
                    [sys.executable, __file__],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE))
            for helper in self._helpers:
                self._expect(helper, b"ready\n")
        except BaseException:
            self.close()
            raise

    @staticmethod
    def _expect(helper: subprocess.Popen, line: bytes) -> None:
        if helper.stdout.readline() != line:
            raise RuntimeError("calibration helper failed")

    def slowdown(self, processes: int) -> float:
        """Wall time of the work in `processes` processes at once, the
        slowest counting, over its reference time."""
        if processes == 1:
            collecting = gc.isenabled()
            gc.disable()
            try:
                start = perf_counter()
                _work()
                return (perf_counter() - start) / REFERENCE_S[1]
            finally:
                if collecting:
                    gc.enable()
        helpers = self._helpers[:processes]
        if len(helpers) != processes:
            raise ValueError(f"only {len(self._helpers)} helpers started")
        for helper in helpers:
            helper.stdin.write(b"\n")
            helper.stdin.flush()
        times = []
        for helper in helpers:
            try:
                times.append(float(helper.stdout.readline()))
            except ValueError:
                raise RuntimeError("calibration helper failed") from None
        return max(times) / REFERENCE_S[processes]

    def close(self) -> None:
        for helper in self._helpers:
            helper.stdin.close()
        for helper in self._helpers:
            try:
                helper.wait(timeout=30)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()
        self._helpers = []

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _forked_work() -> None:
    """The work in a forked child, waited for."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            _work()
            code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError("calibration child failed")


def _serve() -> None:
    """Helper loop: per line read, do the work in a forked child, then
    answer with the wall time."""
    _work()  # first call warms numpy's code paths
    out = sys.stdout.buffer
    out.write(b"ready\n")
    out.flush()
    while sys.stdin.buffer.readline():
        start = perf_counter()
        _forked_work()
        out.write(b"%r\n" % (perf_counter() - start))
        out.flush()


if __name__ == "__main__":
    _serve()
