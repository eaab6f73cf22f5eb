"""The unit of every reported time: a fixed calibration kernel.

The benchmark runs on a shared 2-vCPU box whose speed drifts by up to 2x
for minutes at a time with the load of other tenants, so raw times of
the same code differ by 20 % or more from run to run.  Every time the
benchmark reports is therefore scaled to a reference speed:

    value = measured * CAL_REF_S / calibration

where `calibration` is the time of a fixed exact-arithmetic kernel
(products of dense 4x4 matrices over Q(i, √2) in Fractions, like the
package's own hot path) measured next to the sample: on either side of
an in-process operation, and, for a child process, during it, while the
child is paused.  The kernel is benchmark code only, so a change to the
package cannot move it.  CAL_REF_S is the kernel's typical time on the
box the benchmark was written on, so values read close to raw times.
Changing the kernel or CAL_REF_S changes every reported time.
"""

from __future__ import annotations

import os
import random
import select
import signal
import statistics
import time
from fractions import Fraction

import oracles

CAL_REF_S = 0.004
_rng = random.Random(0)
_MATS = [[[tuple(Fraction(_rng.choice((-1, 1)) * _rng.randint(1, 9),
                          _rng.randint(1, 9)) for _ in range(4))
           for _ in range(4)] for _ in range(4)] for _ in range(2)]


def kernel_s() -> float:
    """Seconds for one run of the calibration kernel."""
    start = time.perf_counter()
    oracles.mat_mul(*_MATS)
    return time.perf_counter() - start


def calibrate() -> float:
    """Mean of three kernel runs.  The machine switches between a fast and
    a slow state within milliseconds; a mean weighs both, a median would
    pick one."""
    return statistics.mean(kernel_s() for _ in range(3))


def scaled(sample: dict, key: str = "wall_s") -> float:
    """A measured time at the reference speed."""
    return sample[key] * CAL_REF_S / sample["cal_s"]


def wait_sampled(proc, period: float = 0.25):
    """Wait for child `proc`, pausing it every `period` seconds to run the
    kernel once while it is stopped, so that the kernel and the child
    never compete for the CPU.

    Returns (rusage, paused seconds, kernel samples); the child has been
    reaped and `proc.returncode` is set.
    """
    samples, paused = [], 0.0
    pidfd = os.pidfd_open(proc.pid)
    try:
        while not select.select([pidfd], [], [], period)[0]:
            start = time.perf_counter()
            os.kill(proc.pid, signal.SIGSTOP)
            _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):   # it ended before the stop
                break
            try:
                samples.append(kernel_s())
            finally:
                os.kill(proc.pid, signal.SIGCONT)
                paused += time.perf_counter() - start
        else:
            _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage, paused, samples
