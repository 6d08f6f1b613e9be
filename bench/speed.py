"""Machine speed, sampled while a workload runs.

The machine this benchmark was written on shares its cores and memory with
other tenants, and its speed moves by up to 1.5x within a second: the same
pass of `cli-mix` took 2.2 s in one moment and 3.7 s in another.  The
per-process CPU time moves with it, so it is no steadier than wall time.

A fixed pure-Python yardstick, run from a SIGALRM handler every
SAMPLE_EVERY_S while a workload runs (inside long library calls too),
measures the machine's speed at that moment.  A problem's wall time, less
the yardstick time spent inside it, is scaled by
YARDSTICK_REF_S / (mean yardstick time over the problem), which gives the
time the problem would take on a machine where one yardstick takes
YARDSTICK_REF_S: "reference seconds".  The yardstick runs with the garbage
collector off, so the library's heap does not change its time.
"""

import gc
import signal
import statistics
import time
from fractions import Fraction

# The unit of every scaled time.  Neither this value nor `yardstick` may
# change, or scaled times stop being comparable with earlier runs.
YARDSTICK_REF_S = 0.002
SAMPLE_EVERY_S = 0.05


def yardstick():
    """Fixed work in the library's style: Fractions in dicts keyed by tuples
    (about 2 ms on a 2-vCPU VM running Python 3.11)."""
    rows = {}
    for i in range(240):
        word = ((i * 31) % 17, (i * 7) % 11, i % 5)
        row = rows.setdefault(word, {})
        for j in range(4):
            row[j] = row.get(j, 0) + Fraction(j - i % 4, 3)
    return rows


def sample():
    """The time of one yardstick, with the garbage collector off."""
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    yardstick()
    elapsed = time.perf_counter() - start
    if collecting:
        gc.enable()
    return elapsed


def reference_seconds(wall, samples):
    """`wall` seconds at the speed the yardstick `samples` show."""
    return wall * YARDSTICK_REF_S / statistics.fmean(samples)


class Speedometer:
    """Yardstick samples taken every SAMPLE_EVERY_S while started."""

    def __init__(self):
        self.samples = []        # yardstick durations, in the order taken
        self.spent = 0.0         # total time spent in yardsticks

    def sample(self, *_signal_args):
        elapsed = sample()
        self.samples.append(elapsed)
        self.spent += elapsed

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """A point in the sample stream, for `measured`."""
        return len(self.samples), self.spent

    def measured(self, mark, wall):
        """`wall` seconds measured since `mark`: (wall s less the yardstick
        time spent since `mark`, the same in reference seconds).

        The speed is the mean of the samples since `mark` and the last one
        before it.
        """
        count, spent = mark
        wall -= self.spent - spent
        return wall, reference_seconds(wall, self.samples[max(count - 1, 0):])
