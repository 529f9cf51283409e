"""How fast the machine runs the program right now, measured alongside it.

On a shared host the speed of a CPU changes from one tenth of a second to
the next and for minutes at a time: another guest on the sibling
hyperthread or in the shared cache slows every instruction, and CPU time
grows with it.  On the two-vCPU machine the benchmark was built on the
speed flipped between two levels 1.8x apart, often several times a
second.

A Sampler runs a fixed chunk of reference work from a timer signal every
PERIOD_S of wall time, in the same thread as the program, so the samples
fall between the program's own bytecodes and see the same states of the
machine.  An item's time is then its CPU time, less the samples taken
inside it, divided by the mean slowness of the samples around it: the
reference's time over NOMINAL_S.  Samples at even steps of wall time
weight each state by the time spent in it, as the item's CPU time does.

The work is what the program does most, in plain Python that does not
use the program: exact elimination on small integer matrices, with the
tuples, dicts and sorting around it.  It never changes; a change here
changes every metric.
"""

import signal
import time
from array import array
from bisect import bisect_left, bisect_right

ROUNDS = 16   # one chunk: about 0.85 ms
# the CPU time of one chunk on the machine the benchmark was built on
# (Intel Xeon, 2 vCPUs, Python 3.11.7) in its fast state; normalized
# times are seconds of that machine in that state
NOMINAL_S = 0.00085
PERIOD_S = 0.025
MIN_SAMPLES = 4


def _eliminate(rows):
    """Row echelon form over the integers by gcd steps; returns the pivots."""
    rows = [list(r) for r in rows]
    pivots = []
    col = 0
    ncols = len(rows[0])
    r = 0
    while r < len(rows) and col < ncols:
        nz = [i for i in range(r, len(rows)) if rows[i][col]]
        if not nz:
            col += 1
            continue
        while len(nz) > 1:
            nz.sort(key=lambda i: abs(rows[i][col]))
            p = nz[0]
            for i in nz[1:]:
                q = rows[i][col] // rows[p][col]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[p])]
            nz = [i for i in nz if rows[i][col]]
        rows[r], rows[nz[0]] = rows[nz[0]], rows[r]
        pivots.append((col, abs(rows[r][col])))
        r += 1
        col += 1
    return tuple(pivots)


def work(rounds=ROUNDS):
    """Deterministic work; returns a checksum so nothing is optimized away."""
    seen = {}
    x = 12345
    for _ in range(rounds):
        rows = []
        for _ in range(4):
            row = []
            for _ in range(5):
                x = (1103515245 * x + 12345) % 2147483648
                row.append(x % 19 - 9)
            rows.append(tuple(row))
        key = frozenset(rows)
        seen[key] = seen.get(key, 0) + len(_eliminate(rows))
    return sum(seen.values()) + x


class Sampler:
    """Reference chunks from SIGALRM every PERIOD_S while started.

    Only the main thread of a process with no other use of SIGALRM may
    start one.  Each sample keeps the wall clock and the thread's CPU
    clock at its start, and its CPU time.  An item timed on the same CPU
    clock from t0 to t1 contains exactly the samples that start between
    the two: a handler runs whole between two bytecodes.
    """

    def __init__(self):
        self.walls = array("d")
        self.starts = array("d")
        self.cpus = array("d")
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:   # a signal due while a sample runs is dropped
            return
        self._busy = True
        w = time.perf_counter()
        t0 = time.thread_time()
        work()
        t1 = time.thread_time()
        self.walls.append(w)
        self.starts.append(t0)
        self.cpus.append(t1 - t0)
        self._busy = False

    def start(self):
        for _ in range(3):   # the first chunks run with cold caches
            work()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowness(self, w0, w1):
        """Mean sample time over NOMINAL_S, from w0 to w1 and around it.

        The samples that start between wall clocks w0 and w1, widened on
        both sides in turn until there are at least MIN_SAMPLES.
        """
        lo = bisect_left(self.walls, w0)
        hi = bisect_right(self.walls, w1)
        n = len(self.walls)
        while hi - lo < min(MIN_SAMPLES, n):
            if lo > 0:
                lo -= 1
            if hi < n and hi - lo < MIN_SAMPLES:
                hi += 1
        span = self.cpus[lo:hi]
        return sum(span) / len(span) / NOMINAL_S

    def normalized(self, t0, t1, w0, w1):
        """The CPU time from t0 to t1 less the samples in it, at nominal
        speed; w0 and w1 are the wall clocks around t0 and t1."""
        inside = self.cpus[bisect_left(self.starts, t0):
                           bisect_right(self.starts, t1)]
        return (t1 - t0 - sum(inside)) / self.slowness(w0, w1)
