"""Scale measured times to a reference host speed.

The hosts this benchmark runs on change speed by up to a factor of two
over tens of seconds, because the CPU is shared with other machines;
process CPU time drifts exactly as wall time does, so it is the
processor itself that slows.  A fixed pure-Python calibration kernel
slows with the interpreter-bound serving loop.  Sampling the kernel
next to every measured phase and scaling the phase by
``REFERENCE_SECONDS / kernel time`` turns its wall time into the time
it would have taken on the reference host, and cancels most of that
drift (chunk-to-chunk spread of ranking time fell from 48% to 13% in a
probe).

For the memory-bound build and pack load the kernel tracks the level of
the drift but not each run: scaled, their run-to-run spread is wider
than the benchmark's bounds allow, so build and cold-start times are
reported per layer and only the whole set-up is bounded.

The kernel uses only the interpreter, never the package under test, so
a change to the package cannot move it.
"""

import gc
import statistics
import time

# A nominal calibration sample of 0.6 ms: about its time on a 2-core
# 2.0 GHz Intel Xeon virtual machine running CPython 3.11 in a fast
# phase, so scaled figures read close to wall time there.
REFERENCE_SECONDS = 0.0006
PHASE_SAMPLES = 3  # samples on each side of a set-up phase

_WORDS = ("alpha", "beta", "gamma", "delta", "epsilon") * 20


def _kernel():
    """Fixed interpreter work: dict and list building, string ops, a sort."""
    table = {}
    total = 0
    for i in range(1500):
        word = _WORDS[i % 100]
        table[word + str(i & 63)] = [i, word]
        total += len(word)
    return total + len(sorted(table))


def sample():
    """Seconds for one calibration sample: the median of five kernel runs.

    The cyclic garbage collector is paused meanwhile, so that a
    collection of the program's heap never lands inside a sample.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for __ in range(5):
            started = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class HostClock:
    """Calibration samples taken between measured phases."""

    def __init__(self):
        self.samples = [sample() for __ in range(PHASE_SAMPLES)]

    def take(self):
        """Sample the host; returns the index of the new sample."""
        self.samples.append(sample())
        return len(self.samples) - 1

    def factor(self):
        """Scale for a phase that just ended.

        From the median of the last samples taken before it and as many
        taken right after it.
        """
        for __ in range(PHASE_SAMPLES):
            self.take()
        return REFERENCE_SECONDS / statistics.median(self.samples[-2 * PHASE_SAMPLES:])

    def factor_around(self, index, width):
        """Scale from the median of *width* samples on each side of *index*."""
        window = self.samples[max(0, index - width + 1):index + width + 1]
        return REFERENCE_SECONDS / statistics.median(window)
