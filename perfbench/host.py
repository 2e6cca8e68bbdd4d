"""Taking the shared host's load out of measured times.

Co-tenant load on the host's CPUs shows in two ways, and each is removed
with something the program cannot change:

1. Waiting for a CPU.  When other processes hold both CPUs, the measured
   process waits on the run queue, a few ms at a time.  The kernel counts
   that wait per thread (the run_delay field of schedstat); `RunQueue`
   reads it, and the wait inside a measured interval is subtracted.
2. Running slower.  A busy sibling hyperthread or shared cache slows the
   code that does run, by up to 2x, in spells from a fraction of a second
   to minutes.  The benchmark times a fixed reference kernel -- its own
   code, which no change to the package can speed up or slow down -- next
   to the measured work, and scales each measured time by REF_NS over the
   kernel's time around it.  REF_NS is the kernel's time on a quiet host (a
   2-vCPU Xeon VM), so a scaled time reads as the time the work takes there.
"""

import os

import numpy as np

from tracing import timed

REF_NS = 65_000.0
REF_REPS = 3
SCHEDSTAT = "/proc/thread-self/schedstat"

_M = (np.arange(9.0).reshape(3, 3) + 1j) / 9.0
_H = np.add.outer(np.arange(9.0), np.arange(9.0)) / 9.0 + np.eye(9)


def reference():
    """Fixed work resembling the package's: interpreted arithmetic, small
    complex matrix products and a 9x9 Hermitian eigensolve."""
    s = 0
    for i in range(600):
        s += i * i % 7
    m = _M
    for _ in range(8):
        m = m @ _M
    np.linalg.eigh(_H)
    return s


def reference_ns():
    """The fastest of REF_REPS reference runs, in ns."""
    return min(t1 - t0 for _, t0, t1 in (timed(reference) for _ in range(REF_REPS)))


def scale(t, before, after):
    """Time t, taken between reference samples `before` and `after`, on the quiet host."""
    return t * REF_NS * 2.0 / (before + after)


class RunQueue:
    """This thread's total wait on the run queue, in ns, from schedstat.

    Where the kernel does not provide schedstat, the wait reads 0 and
    measured times keep it.
    """

    def __enter__(self):
        try:
            self.fd = os.open(SCHEDSTAT, os.O_RDONLY)
        except OSError:
            self.fd = None
        return self

    def __exit__(self, *exc):
        if self.fd is not None:
            os.close(self.fd)

    def wait_ns(self):
        if self.fd is None:
            return 0
        return int(os.pread(self.fd, 128, 0).split()[1])
