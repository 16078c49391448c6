"""The machine's speed, sampled with a fixed reference kernel, and times scaled by it.

The benchmark machine is a virtual machine whose speed drifts: for
seconds to minutes at a time the same code runs up to twice as slowly,
steal time stays at zero, and CPU time grows with wall time. A pure
interpreter loop does not follow that drift. Exact `Fraction`
elimination, which allocates as most of lieposet does, follows it
closely; elimination on big integers, which slows less, follows
lieposet's large exact ranks.

The kernels in KERNELS are such eliminations on fixed integer
matrices. They are part of the benchmark, not of lieposet, so a change
to the program cannot change them. A `Speedometer` times one run of its
kernel, with the garbage collector paused, every `INTERVAL_S` seconds
from a SIGALRM timer, and on request between items. The speed also
flickers within a second, so many short samples track it better than a
few long ones.

`normalise` turns a raw interval into *reference seconds*: the raw time
times the kernel's reference time over the mean kernel time sampled
around and inside the interval. A reference time is the kernel's
typical time on the machine the baseline comes from, so reference
seconds read as seconds there. Time spent in samples that fell inside
the interval is taken out first.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1

_rng = random.Random(7)
_SMALL = tuple(tuple(_rng.randint(-9, 9) for _ in range(9)) for _ in range(9))
_rng = random.Random(11)
_BIG = tuple(tuple(_rng.getrandbits(200) - (1 << 199) for _ in range(12)) for _ in range(12))


def fraction_kernel():
    """Rank of a fixed 9 x 9 integer matrix by Gauss-Jordan elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in _SMALL]
    n = len(m)
    r = 0
    for c in range(n):
        p = next((i for i in range(r, n) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(n):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def bareiss_kernel():
    """Fraction-free (Bareiss) elimination of a fixed 12 x 12 matrix of 200-bit integers.

    The entries grow to about 2,400 bits, so big-integer products and
    divisions take most of the time, as in lieposet's exact `rank`.
    """
    rows = [list(r) for r in _BIG]
    n = len(rows)
    prev = 1
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        pivot, top = rows[c][c], rows[c]
        for i in range(c + 1, n):
            row = rows[i]
            f = row[c]
            for j in range(c + 1, n):
                row[j] = (row[j] * pivot - f * top[j]) // prev
            row[c] = 0
        prev = pivot
    return prev


# name: (kernel, reference time in seconds). The Bareiss kernel's
# reference time is its time on the baseline machine while the
# Fraction kernel took about 2.5 ms; the two slow down by different
# factors, so the scales agree only roughly.
KERNELS = {
    "fraction": (fraction_kernel, 0.0025),
    "bareiss": (bareiss_kernel, 0.0019),
}


class Speedometer:
    def __init__(self, kernel):
        self.kernel_name = kernel
        self.kernel, self.reference_s = KERNELS[kernel]
        self.starts = []  # perf_counter at each sample's start, ascending
        self.ends = []
        self.values = []  # kernel time of each sample
        self._old_handler = None
        self._busy = False
        self.kernel()

    def sample(self):
        if self._busy:
            # The timer fired during a sample; nesting would also break
            # the order of `starts`, which bisect relies on.
            return
        self._busy = True
        clock = time.perf_counter
        start = clock()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            self.kernel()
        finally:
            end = clock()
            if was_enabled:
                gc.enable()
            self._busy = False
        self.starts.append(start)
        self.ends.append(end)
        self.values.append(end - start)

    def between(self):
        """Sample unless the last sample is still recent."""
        if not self.starts or time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.sample()

    def start(self):
        self._old_handler = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler or signal.SIG_DFL)

    def pauses_ns(self):
        """Every sample as a (start, end) interval in perf_counter_ns units."""
        return [(round(s * 1e9), round(e * 1e9)) for s, e in zip(self.starts, self.ends)]

    def raw(self, t0, t1):
        """Wall time of [t0, t1] less the samples that started inside it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return (t1 - t0) - sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def normalise(self, t0, t1):
        """Reference seconds of the work done in [t0, t1], samples excluded.

        The speed is the mean of the last sample before t0, every sample
        inside, and the first sample after t1.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        around = self.values[max(lo - 1, 0):hi + 1]
        return self.raw(t0, t1) * self.reference_s / statistics.fmean(around)

    def summary(self):
        vals = sorted(self.values)
        return {
            "kernel": self.kernel_name,
            "samples": len(vals),
            "kernel_median_s": statistics.median(vals),
            "kernel_min_s": vals[0],
            "kernel_max_s": vals[-1],
        }
