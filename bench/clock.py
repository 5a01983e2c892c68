"""How the benchmark times things: CPU time, scaled to a reference speed.

On a few cores of a shared host the speed of the core itself drifts: a
count that took 14 ms took 25 ms half a minute later, in CPU time as in
wall time, and whole runs of identical code differed by a fifth and more.
So every timing is scaled by a calibration: fixed work, part of the
benchmark and never of the program, runs between ops, and a latency is
reported as ``cpu_seconds * reference_s / calibration_seconds`` - the time
the op would take on a core that does the calibration work in
``reference_s``.  Drift slows the op and the calibration alike and
cancels; a change to the program does not touch the calibration and shows
in full.  Ops that start a process are calibrated by a process
(``CHILD``), since exec and interpreter start-up drift apart from
in-process work; the others by the same work in-process (``IN_PROCESS``).

The clock is CPU time (user + system) of this process and its reaped
children.  The benchmark is one thread and reaps each CLI child before the
op ends, so on an idle core an op's CPU time is its wall time less the
moments it sat blocked; on a shared host it also leaves out the time the
scheduler gives the core to other tenants.
"""

from __future__ import annotations

import gc
import inspect
import resource
import statistics
import subprocess
import sys
from time import process_time

# a calibration runs before an op once this much op time has passed since
# the last one; each op is scaled by the median of the two samples before
# it and the two after
CALIBRATE_EVERY_S = 0.05


def cpu_clock() -> float:
    """CPU seconds (user + system) of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def _loop() -> int:
    """Fixed interpreter work like the program's: recursion, a dict memo,
    big-int masks, a list sort."""
    memo: dict = {}

    def f(mask, depth):
        if mask in memo:
            return memo[mask]
        if depth == 0 or not mask:
            return 1
        low = mask & -mask
        r = f(mask & ~low, depth - 1) + f(mask & ~(low | low << 1 | low << 2), depth - 1)
        memo[mask] = r
        return r

    total = 0
    for k in range(70):
        memo.clear()
        total += f((1 << 60) - 1 - k, 60)
    xs = sorted(range(30_000, 0, -1))
    return total + sum(xs[::7])


def _child_loop() -> None:
    """The same loop in a fresh interpreter, from exec to exit."""
    code = inspect.getsource(_loop) + "_loop()\n"
    subprocess.run([sys.executable, "-I", "-S", "-c", code], check=True)


class Calibration:
    """One kind of calibration work and its CPU time on the reference core.

    ``reference_s`` is about the work's median CPU time over the runs made
    while the benchmark was written (one core of a 2-vCPU x86-64 host,
    Python 3.11), so reference seconds are close to that host's typical
    CPU seconds; it sets the scale of the reported times, not their spread.
    """

    def __init__(self, work, reference_s: float):
        self.work = work
        self.reference_s = reference_s

    def sample(self) -> float:
        """CPU seconds of one run of the work."""
        t0 = cpu_clock()
        self.work()
        return cpu_clock() - t0

    def factor(self, samples: list[float]) -> float:
        """The factor that turns CPU seconds measured next to ``samples``
        into reference seconds."""
        return self.reference_s / statistics.median(samples)


IN_PROCESS = Calibration(_loop, 0.005)
CHILD = Calibration(_child_loop, 0.018)


class Calibrator:
    """Calibration samples taken between ops, and each op's sample index.

    ``before_op(last_op_s)`` collects garbage and runs a calibration when
    enough op time has passed, and returns the index of the latest sample; ``factor(index)``
    is the scale factor from samples ``index - 1`` to ``index + 2``, which
    bracket the op.
    """

    def __init__(self, calibration: Calibration):
        self.calibration = calibration
        self.samples: list[float] = []
        self._since = CALIBRATE_EVERY_S

    def before_op(self, last_op_s: float) -> int:
        self._since += last_op_s
        if self._since >= CALIBRATE_EVERY_S:
            # collect first, untimed: the collector's work inside the next
            # op is then mostly its own rather than what earlier ops left
            # pending, and as count_mis's recursive closure keeps each memo
            # in a reference cycle, peak RSS stays a few ops' live data
            gc.collect()
            self.samples.append(self.calibration.sample())
            self._since = 0.0
        return len(self.samples) - 1

    def factor(self, index: int) -> float:
        return self.calibration.factor(self.samples[max(0, index - 1) : index + 3])


def scaled(timed, calibration: Calibration):
    """Run ``timed()`` between calibrations; returns its CPU time in
    reference seconds and its result.  For single timings (set-up, ladder
    points) outside the op loop."""
    before = [calibration.sample() for _ in range(3)]
    t0 = cpu_clock()
    out = timed()
    cpu = cpu_clock() - t0
    after = [calibration.sample() for _ in range(2)]
    return cpu * calibration.factor(before + after), out
