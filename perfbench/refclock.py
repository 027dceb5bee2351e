"""Reference-speed time: wall time corrected for the shared machine's speed.

The machines this benchmark runs on are shared.  The same pure-Python call
can take twice as long from one second to the next, because other work
competes for the core and its caches, and the slow and fast spells last from
a second to minutes.  A wall-clock timing then measures the neighbours as
much as the program.

So every timed region is sampled with a fixed calibration kernel (exact
integer elimination and products, the same kind of work as ``ringkt``'s,
with no ``ringkt`` or ``sympy`` code in it): once before the region, once
after it, and every ``SAMPLE_EVERY_S`` of CPU time inside it, from a
``SIGPROF`` handler on the same thread.  The region's reference time is

    wall time  x  CAL_REF_S / mean(kernel time of its samples)

that is, the time the region would have taken had the machine run the
kernel at its reference speed.  The handler's own time is taken out of the
wall time first.  A change to ``ringkt`` moves reference time exactly as it
moves wall time; a change of machine speed moves the kernel with it and
cancels out.

``CAL_REF_S`` is a fixed unit, the kernel's median time on the reference
machine (2 cores, "Intel Xeon Processor" at 2.0 GHz, Python 3.11.7).  It
must not change between two runs that are compared, and neither must the
kernel.
"""

import gc
import signal
import statistics
import time

CAL_REF_S = 0.00100
SAMPLE_EVERY_S = 0.05
WARM_RUNS = 3

_A = [[(7 * i + 3 * j + i * j) % 19 - 9 for j in range(7)] for i in range(7)]


def kernel():
    """Fraction-free (Bareiss) elimination and products of small integer
    matrices; about a millisecond at reference speed.  The collector is off
    inside, so the kernel does not pay for collecting the program's heap."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(8):
            m = [row[:] for row in _A]
            n = len(m)
            prev = 1
            for k in range(n - 1):
                if m[k][k] == 0:
                    swap = next((i for i in range(k + 1, n) if m[i][k]), None)
                    if swap is None:
                        continue
                    m[k], m[swap] = m[swap], m[k]
                for i in range(k + 1, n):
                    for j in range(k + 1, n):
                        m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                prev = m[k][k] or 1
        cols = list(zip(*_A))
        p = _A
        for _ in range(8):
            p = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in p]
        return p
    finally:
        if was_enabled:
            gc.enable()


def sample():
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Sampler:
    """Samples the kernel every ``SAMPLE_EVERY_S`` of CPU time while armed.

    ``spent`` only grows: it is every second the handler has taken, so
    ``net_clock`` is a clock that stands still while the handler runs.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._armed_at = 0.0
        signal.signal(signal.SIGPROF, self._on_prof)
        start = time.perf_counter()
        for _ in range(WARM_RUNS):  # specialize the kernel's bytecode before it is timed
            kernel()
        self.warm_s = time.perf_counter() - start

    def _on_prof(self, signum, frame):
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def net_clock(self):
        return time.perf_counter() - self.spent

    def arm(self):
        self.samples = [sample()]
        self._armed_at = self.spent
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def disarm(self):
        """(samples, seconds the handler took while armed)."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.samples.append(sample())
        return self.samples, self.spent - self._armed_at

    def finish(self):
        """Disarm a sampler armed for a whole child process, and report its
        samples and every second the sampler took inside the process."""
        samples, spent = self.disarm()
        return {"samples": samples, "overhead_s": self.warm_s + spent + samples[0] + samples[-1]}


def reference_seconds(wall_s, samples):
    return wall_s * CAL_REF_S / statistics.fmean(samples)
