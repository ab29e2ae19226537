"""Machine-speed sampling: host times stated at a reference speed.

The box this benchmark runs on is a few cores of a shared host whose
speed moves by 1.5-2x in regimes lasting from milliseconds to minutes
(a pure-Python spin loop with an L1-resident working set shows it; no
page faults, no system time, no context switches).  Identical passes
therefore spread 15-25 % however many are taken, and a median over
passes does not help because a whole run can sit in one regime.

What does help is measuring the machine while the program runs.  A
:class:`Sampler` clocks a region with an interval timer armed; every
``PERIOD_S`` its signal handler runs a fixed reference kernel
(``kernel``: a pure-Python arithmetic loop plus small NumPy pack /
unpack / reduce calls, about the interpreter / small-array mix of the
serving stack) between two bytecodes of the program and records how
long the kernel took.  The time spent in the handler is taken out of
the region, and what remains is scaled by ``REFERENCE_S / mean kernel
time``: the host metrics read "time at the machine speed at which the
kernel takes ``REFERENCE_S``".  On this box that cuts the pass-to-pass
spread of ``wall_qps`` / ``cpu_us_per_query`` from 15-19 % to 2-4 %
(IQR / median); the raw readings and the slowdown factor stay in the
record.

The kernel allocates nothing the cyclic collector tracks, so it never
triggers (and never pays for) a collection of the program's heap.  It
is frozen: changing it or the constants below changes every recorded
host number.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

#: The kernel takes about this long on the box the first baseline was
#: recorded on, in its usual regime.
REFERENCE_S = 1e-3
#: Sampling period.  The kernel is ~1 ms, so sampling costs ~10 %.
PERIOD_S = 10e-3

_PY_ITERATIONS = 3500
_NP_ITERATIONS = 120
_BYTES = np.random.default_rng(0).integers(0, 255, 512, dtype=np.uint8)


def kernel() -> None:
    total = 0
    for i in range(_PY_ITERATIONS):
        total += i * i
    for _ in range(_NP_ITERATIONS):
        bits = np.unpackbits(_BYTES)
        np.packbits(bits)
        (bits & 1).sum()


class Sampler:
    """Clocks one or more regions of the main thread, sampling the
    kernel every ``PERIOD_S`` while inside one (``sample=False``: only
    clocks them -- traced passes, whose spans a handler would land in).
    """

    def __init__(self, sample: bool = True) -> None:
        self.sample = sample
        self.wall_s = 0.0  # as read, handler time included
        self.cpu_s = 0.0
        self.samples = 0
        self.kernel_wall_s = 0.0
        self.kernel_cpu_s = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        kernel()
        self.kernel_cpu_s += time.process_time() - cpu
        self.kernel_wall_s += time.perf_counter() - wall
        self.samples += 1

    @contextlib.contextmanager
    def region(self):
        if self.sample:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            if self.sample:
                # Disarm before reading the clocks: a tick already
                # pending still runs, and must be inside the reading.
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            self.wall_s += time.perf_counter() - wall
            self.cpu_s += time.process_time() - cpu
            if self.sample:
                signal.signal(signal.SIGALRM, previous)

    def at_reference(self) -> tuple[float, float, float]:
        """``(wall_s, cpu_s, slowdown)``: the regions' time with the
        handler's share taken out, scaled to the reference speed;
        ``slowdown`` is mean kernel wall time over ``REFERENCE_S``.
        Regions too short for a single tick are sampled once, now."""
        if not self.samples:
            self._tick()
            self.wall_s += self.kernel_wall_s
            self.cpu_s += self.kernel_cpu_s
        slow_wall = self.kernel_wall_s / self.samples / REFERENCE_S
        slow_cpu = self.kernel_cpu_s / self.samples / REFERENCE_S
        return (
            (self.wall_s - self.kernel_wall_s) / slow_wall,
            (self.cpu_s - self.kernel_cpu_s) / slow_cpu,
            slow_wall,
        )
