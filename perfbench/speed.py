"""Machine-speed calibration: the times the benchmark reports are scaled
to a fixed reference speed.

The benchmark runs on a few vCPUs of a shared host (a 2-vCPU Xeon VM when
the constants here were set). For the same process doing the same work,
its speed flips between a fast and a slow state about 1.7 times slower,
each lasting a tenth of a second or more, and the share of slow time
drifts over minutes; CPU time drifts with it. A short calibration loop,
written here and independent of mksurf, is timed in a burst of runs
right before and right after every request, and every TICK_INTERVAL_S
seconds. A time measured from `start` to `end` is reported as

    (end - start) * REFERENCE_S / (mean of the burst medians near it)

where a burst's median is the machine's state at that moment, and "near"
is within min(WINDOW_S, max(PAD_S, 2 * (end - start))) of the interval:
the bursts bracketing a short time, which ran in the same state, and the
share of slow time over a few seconds for a long one. The result is in
seconds on a machine on which the calibration loop takes REFERENCE_S (the
VM above at its usual speed). A change to mksurf moves the scaled time as
it moves the raw one; a change in the speed of the machine moves the
calibration loop too and largely cancels out. Raw times are kept next to
the scaled ones in each run's details.

Times measured in child processes (set-up and CLI probes) do not follow
this process's calibration. Each such probe is bracketed instead by two
fresh interpreters that import numpy and nothing of mksurf (START_PROBE),
whose wall times track the probe's within a few per cent, and is reported
as

    probe seconds * START_REFERENCE_S / (mean wall time of the two)

The loop mixes the two kinds of work mksurf does: small-integer arithmetic
on tuples, lists and dicts in the interpreter, and numpy ufuncs and sorts
on arrays of a few thousand int64 (as in trace_commutator_image). It runs
with the garbage collector off, so that the objects a workload keeps alive
do not leak into the measure of the machine.
"""

import bisect
import gc
import statistics
import time

import numpy as np

REFERENCE_S = 0.00033
START_REFERENCE_S = 0.2
START_PROBE = ["-c", "import numpy"]
TICK_INTERVAL_S = 0.25
TICK_RUNS = 20
BRACKET_RUNS = 3
PAD_S = 0.002
WINDOW_S = 2.0
MIN_NEAR = 2

_ARRAY = np.arange(3072, dtype=np.int64) * 7 + 3


def _det(a, b, c, d, q):
    return (a * d - b * c) % q


def _interpreted(n):
    acc = 0
    seen = {}
    for a in range(n):
        row = [(a * b + 3) % 17 for b in range(8)]
        key = tuple(row[:4])
        seen[key] = seen.get(key, 0) + 1
        acc += _det(row[0], row[1], row[2], row[3], 31)
    return acc + len(seen)


def _vectorised(n):
    acc = 0
    for a in range(n):
        tr = (_ARRAY * a + _ARRAY * _ARRAY - 2) % 16
        acc += len(np.unique(tr).tolist())
    return acc


def kernel():
    """One calibration run: 0.25 to 0.45 ms, two thirds of it interpreted."""
    return _interpreted(140) + _vectorised(1)


class Speed:
    """Calibration runs taken through a run, and the scale they give."""

    def __init__(self):
        self.took = []      # every calibration run's duration
        self.at = []        # mid-points of the bursts (perf_counter), ascending
        self.state = []     # the median run of each burst, in the same order
        self.last = float("-inf")

    def sample(self, runs):
        """One burst of `runs` calibration runs."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            took = []
            t0 = time.perf_counter()
            for _ in range(runs):
                t = time.perf_counter()
                kernel()
                took.append(time.perf_counter() - t)
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.took.extend(took)
        self.at.append((t0 + t1) / 2)
        self.state.append(statistics.median(took))

    def bracket(self):
        """Calibrate right before or right after a timed interval."""
        self.sample(BRACKET_RUNS)

    def tick(self, force=False):
        """A burst of calibration runs, if TICK_INTERVAL_S has passed since
        the last burst (or always, with force)."""
        if force or time.perf_counter() - self.last >= TICK_INTERVAL_S:
            self.sample(TICK_RUNS)
            self.last = time.perf_counter()

    def factor(self, start, end):
        """REFERENCE_S over the mean state of the bursts near [start, end]
        (see the module docstring), or of the MIN_NEAR nearest its middle
        if fewer are near."""
        pad = min(WINDOW_S, max(PAD_S, 2 * (end - start)))
        lo = bisect.bisect_left(self.at, start - pad)
        hi = bisect.bisect_right(self.at, end + pad)
        if hi - lo >= MIN_NEAR:
            state = self.state[lo:hi]
        else:
            mid = (start + end) / 2
            i = bisect.bisect_left(self.at, mid)
            around = range(max(0, i - MIN_NEAR), min(len(self.at), i + MIN_NEAR))
            state = [self.state[j] for j in sorted(around, key=lambda j: abs(self.at[j] - mid))
                     [:MIN_NEAR]]
        return REFERENCE_S / statistics.mean(state)

    def scaled(self, samples):
        """[(start, end)] -> the seconds between, scaled to the reference speed."""
        return [(end - start) * self.factor(start, end) for start, end in samples]

    def overall(self):
        """REFERENCE_S over the mean state of all bursts of the run."""
        return REFERENCE_S / statistics.mean(self.state)
