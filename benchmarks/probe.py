"""Host-speed probe: scales a timed interval to a fixed reference speed.

On a shared host the core this process runs on flips between a fast and a
slow state (another tenant busy on its sibling hyperthread) every tenth of
a second or so, independently on each core, and a whole run can spend
anything from almost none to almost all of its time in the slow state.
Measured on the 2-vCPU Xeon host of the baseline, the same calls took up
to 1.8x longer in the slow state.  Best-of-N and median latencies keep
that share of slow time, so two runs of the same code differed by 20-30%.

While a ``Probe`` samples, an interval timer interrupts the process every
``PERIOD_S`` seconds and times one run of a fixed small kernel, pure
Python and small numpy calls like the library's own mix.  The kernel's mean
time over an interval tells how slow the core was during it, in the same
spells as the work around it.  ``scaled`` divides the interval's own time
(the probe's time taken out) by that mean and multiplies by
``REFERENCE_S``: the interval's length at the speed at which the kernel
takes ``REFERENCE_S``, about that of an uncontended core of the baseline
host.  Its code is the benchmark's own and does not change with the
library, so a faster library still shows as a shorter scaled time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: seconds between two probe samples
PERIOD_S = 0.02
#: the kernel's time at the reference speed
REFERENCE_S = 2.0e-4


_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((16, 3, 3))
#: a stack of small SPD matrices, the shape of the library's batched kernels
_SPD = _A @ _A.transpose(0, 2, 1) + 3.0 * np.eye(3)


def kernel():
    """The fixed work one probe sample times: an interpreted loop over a
    dictionary and floats, then a batched eigendecomposition and matrix
    logarithm of 16 small SPD matrices, three times."""
    acc = {}
    total = 0.0
    for i in range(300):
        key = i % 97
        acc[key] = acc.get(key, 0.0) + i * 0.5
        total += float(i) ** 0.5
    for _ in range(3):
        w, v = np.linalg.eigh(_SPD)
        total += float(((v * np.log(w)[:, None, :]) @ v.transpose(0, 2, 1))[0, 0, 0])
    return total


class Probe:
    """Samples the kernel's time on a timer signal between ``start`` and
    ``stop``; ``scaled`` turns the sampled interval into reference time."""

    def __init__(self):
        self.samples = []
        self._previous = None
        self._active = False

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def start(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        """Stop sampling; a second call does nothing."""
        if not self._active:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._active = False

    def own_seconds(self, elapsed):
        """``elapsed`` without the time the probe itself took."""
        return elapsed - sum(self.samples)

    def scaled(self, elapsed):
        """``elapsed`` (probe time included) at the reference speed."""
        if not self.samples:
            # shorter than one period: sample once after the fact
            self._sample(None, None)
            return elapsed * REFERENCE_S / self.samples[-1]
        mean = sum(self.samples) / len(self.samples)
        return self.own_seconds(elapsed) * REFERENCE_S / mean
