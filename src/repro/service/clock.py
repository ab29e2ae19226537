"""Virtual time for the query service: a clock plus arrival processes.

The service is *simulated-async*: clients do not run on threads, they
emit submissions stamped with virtual-clock times, and the service
replays the whole trace deterministically (admission windows close at
clock times, pipeline jobs become ready at those times, and the event
simulator resolves all contention).  Determinism is what lets the
randomized property suite compare every served query bit-for-bit
against the synchronous oracle.

Arrival processes model how client traffic spaces itself on that
clock: open-loop Poisson (the classic service-benchmark arrival
model), uniform pacing with optional jitter, and on/off bursts (many
queries back to back, then a gap) -- the pattern that makes admission
windows and cross-query sense sharing earn their keep.

All three are *open-loop*: the process never looks at how the
service is coping, so a run's trace is a pure function of (rng,
parameters).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class VirtualClock:
    """Monotonic simulated time in microseconds."""

    now_us: float = 0.0

    def advance(self, dt_us: float) -> float:
        """Move time forward by ``dt_us`` and return the new time."""
        if dt_us < 0:
            raise ValueError("time cannot flow backwards")
        self.now_us += dt_us
        return self.now_us

    def advance_to(self, t_us: float) -> float:
        """Move time forward to ``t_us`` (no-op if already past it)."""
        self.now_us = max(self.now_us, t_us)
        return self.now_us


class ArrivalProcess:
    """Spacing between consecutive submissions of one client."""

    def interarrival_us(self, rng: np.random.Generator) -> float:
        raise NotImplementedError

    def reset(self) -> None:
        """Restart any internal phase (default: stateless)."""

    def arrival_times(
        self,
        n: int,
        rng: np.random.Generator,
        *,
        start_us: float = 0.0,
    ) -> list[float]:
        """The first ``n`` arrival times of this process.  Each call
        starts the process from phase zero, so a reused instance
        yields reproducible traces for identical (n, rng-state)."""
        self.reset()
        clock = VirtualClock(start_us)
        return [clock.advance(self.interarrival_us(rng)) for _ in range(n)]


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Open-loop Poisson traffic at ``rate_qps`` queries per second."""

    rate_qps: float

    def __post_init__(self) -> None:
        if self.rate_qps <= 0:
            raise ValueError("rate_qps must be positive")

    def interarrival_us(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(1e6 / self.rate_qps))


@dataclass(frozen=True)
class UniformArrivals(ArrivalProcess):
    """Fixed pacing every ``period_us``, with optional +-jitter."""

    period_us: float
    jitter_us: float = 0.0

    def __post_init__(self) -> None:
        if self.period_us <= 0:
            raise ValueError("period_us must be positive")
        if not 0.0 <= self.jitter_us <= self.period_us:
            raise ValueError("jitter_us must be in [0, period_us]")

    def interarrival_us(self, rng: np.random.Generator) -> float:
        if self.jitter_us == 0.0:
            return self.period_us
        return self.period_us + float(
            rng.uniform(-self.jitter_us, self.jitter_us)
        )


@dataclass
class BurstArrivals(ArrivalProcess):
    """On/off bursts: ``burst_size`` queries ``intra_gap_us`` apart,
    then an idle ``burst_gap_us`` before the next burst -- the arrival
    shape that packs many queries into one admission window."""

    burst_size: int
    burst_gap_us: float
    intra_gap_us: float = 0.0
    _emitted: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.burst_size < 1:
            raise ValueError("burst_size must be >= 1")
        if self.burst_gap_us < 0 or self.intra_gap_us < 0:
            raise ValueError("gaps must be >= 0")

    def reset(self) -> None:
        self._emitted = 0

    def interarrival_us(self, rng: np.random.Generator) -> float:
        gap = (
            self.burst_gap_us
            if self._emitted and self._emitted % self.burst_size == 0
            else self.intra_gap_us
        )
        self._emitted += 1
        return gap
