"""Service-level metrics: latency percentiles, throughput, sharing,
caching, and deadline conformance.

``EngineStats`` counts what the query engine amortized (templates,
binds, shared senses) over its lifetime; ``ServiceStats`` reports what
one service run *delivered*: per-query latency percentiles on the
virtual clock, sustained queries per second over the traffic span,
how much of the window's sensing work cross-query sharing eliminated,
how much the cross-window result cache absorbed before the engine was
even asked, and -- under the ``edf`` policy -- how many stated
deadlines were met.

Sharing and caching both remove flash work, at different points of
the pipeline: a *shared* chunk rode a sibling task's sense in the
same window; a *cached* chunk was served from a previous window's
memoized words and never reached the engine.  The dedup ratio counts
both -- a ratio that only counted in-window sharing would *drop* when
the cache absorbs repeat traffic, under-reporting exactly the windows
the service handles best.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class LatencySummary:
    """Distribution of per-query service latencies (microseconds,
    submission to last chunk delivered)."""

    n: int
    mean_us: float
    p50_us: float
    p99_us: float
    max_us: float

    @classmethod
    def from_latencies(cls, latencies_us: Sequence[float]) -> "LatencySummary":
        if not len(latencies_us):
            return cls(n=0, mean_us=0.0, p50_us=0.0, p99_us=0.0, max_us=0.0)
        arr = np.asarray(latencies_us, dtype=np.float64)
        return cls(
            n=int(arr.size),
            mean_us=float(arr.mean()),
            p50_us=float(np.percentile(arr, 50)),
            p99_us=float(np.percentile(arr, 99)),
            max_us=float(arr.max()),
        )


@dataclass(frozen=True)
class ServiceStats:
    """Aggregate outcome of one :meth:`QueryService.run`."""

    n_queries: int
    n_windows: int
    #: Bound per-chunk plans the windows contained in total.
    n_chunk_tasks: int
    #: Sensing operations that actually ran on the chips.
    n_senses: int
    #: Chunk tasks served by fanning out another task's identical
    #: sense within the same window, and the sensing operations that
    #: saved.
    shared_plans: int
    shared_senses: int
    #: Chunk tasks served from the cross-window result cache (no
    #: engine dispatch at all), and the sensing operations that saved.
    cached_plans: int
    cached_senses: int
    #: Queries served without any planning (template + bound-plan
    #: cache hits threaded explicitly through ``prepare``).
    template_hits: int
    #: Queries that carried a deadline, and how many completed by it
    #: (exact, from the event simulation's completion times).
    n_deadlines: int
    deadlines_met: int
    latency: LatencySummary
    #: Sustained rate over the span from first submission to last
    #: completed transfer.
    throughput_qps: float
    span_us: float
    #: Completion time of the last window on the virtual clock.
    makespan_us: float
    #: Busiest pipeline resource across the whole run.
    bottleneck: str
    #: Suspensions of background jobs (GC copy/erase, drain, rebuild)
    #: by arriving foreground senses in the event replay.
    preemptions: int = 0
    #: Busy fraction of every pipeline resource over the run's
    #: makespan -- ``chip0``/``chan1``/``ext`` style names from the
    #: event simulation, whatever resources the jobs actually named.
    resource_utilization: dict[str, float] = field(default_factory=dict)
    #: Fault events the injector raised during this run (transient
    #: sense faults, program/erase failures, stalls, bad-block hits);
    #: 0 without an attached :class:`~repro.flash.faults.FaultInjector`.
    faults_injected: int = 0
    #: Extra recovered sense attempts the engine's retry loop spent.
    fault_retries: int = 0
    #: Chunk executions served on the degraded V_TH path (retry
    #: exhaustion fallback or a health-degraded chip).
    degraded_senses: int = 0
    #: Times a chip's breaker tripped open during this run.
    quarantines: int = 0
    #: Queries that surfaced a typed fault error instead of a result.
    queries_failed: int = 0
    #: Virtual time charged for recovery (retry backoff + injected
    #: stalls), stamped into the event simulation as stage-0 delay.
    fault_overhead_us: float = 0.0
    #: Missed deadlines on queries whose window execution paid any
    #: fault cost (retries, degraded senses, or recovery delay) --
    #: the misses attributable to the fault plane rather than load.
    fault_attributed_misses: int = 0
    #: Redundancy plane (parity striping): chunk results rebuilt from
    #: parity after a chip failure, the survivor senses that cost, and
    #: the survivor chip time charged into the event simulation --
    #: kept distinct from the retry plane's ``fault_retries``/
    #: ``fault_overhead_us`` so "recovered via parity" and "recovered
    #: via retry" are separable in :meth:`describe`.
    reconstructed_plans: int = 0
    reconstruction_senses: int = 0
    reconstruction_overhead_us: float = 0.0
    #: Chips that fail-stopped (went permanently offline) during this
    #: run, and lost columns/parity pages the maintenance plane
    #: re-materialized from parity onto survivors.
    chips_lost: int = 0
    columns_rebuilt: int = 0
    #: Background maintenance plane (:mod:`repro.ssd.maintenance`),
    #: this run's deltas: victim sub-blocks erased and returned to the
    #: allocation pool, live pages relocated (GC copyback + probation
    #: drain), stuck bad blocks retired from allocation, quarantined
    #: chips drained, and the chip time the background jobs occupied
    #: inside the event simulation.  All 0 without ``maintenance=``.
    blocks_reclaimed: int = 0
    pages_migrated: int = 0
    blocks_retired: int = 0
    chips_drained: int = 0
    maintenance_overhead_us: float = 0.0
    #: What yielding to foreground cost the background class: the
    #: longest any background job of the run took from ready to
    #: complete (its own work included).  0.0 without maintenance.
    maintenance_lag_us: float = 0.0
    #: P/E-cycle wear spread across every materialized block at the
    #: end of the run (wear leveling keeps max - min small).
    wear_min: int = 0
    wear_max: int = 0
    wear_mean: float = 0.0

    @classmethod
    def from_queries(cls, queries: Sequence, **totals) -> "ServiceStats":
        """The stats of one run as a fold of its served queries.

        Everything ``queries`` (:class:`~repro.service.service.ServedQuery`
        records) determine is derived here and nowhere else: the
        latency distribution, span and throughput, the deadline
        grading, and the integer totals that are sums of per-query
        counters by construction (``n_senses``, ``shared_plans``,
        ``cached_plans``, ``fault_retries``, ``reconstructed_plans``,
        ``queries_failed``, ``template_hits``).  ``totals`` carries
        the rest by field name -- what only the windows, the event
        replay, the injector and the maintenance plane know; naming a
        derived field there is a ``TypeError``.
        """
        latency = LatencySummary.from_latencies(
            [q.latency_us for q in queries]
        )
        if queries:
            span_us = max(q.completed_us for q in queries) - min(
                q.submitted_us for q in queries
            )
        else:
            span_us = 0.0
        with_deadline = [q for q in queries if q.deadline_us is not None]
        return cls(
            n_queries=len(queries),
            n_senses=sum(q.result.n_senses for q in queries),
            shared_plans=sum(q.shared_chunks for q in queries),
            cached_plans=sum(q.cached_chunks for q in queries),
            template_hits=sum(q.result.template_hit for q in queries),
            n_deadlines=len(with_deadline),
            deadlines_met=sum(bool(q.deadline_met) for q in with_deadline),
            latency=latency,
            throughput_qps=(
                len(queries) / (span_us * 1e-6) if span_us > 0 else 0.0
            ),
            span_us=span_us,
            fault_retries=sum(q.retries for q in queries),
            queries_failed=sum(1 for q in queries if q.error is not None),
            fault_attributed_misses=sum(
                1
                for q in with_deadline
                if q.deadline_met is False and q.fault_affected
            ),
            reconstructed_plans=sum(q.reconstructed_chunks for q in queries),
            **totals,
        )

    @property
    def wear_spread(self) -> int:
        """Max - min P/E cycles across materialized blocks."""
        return self.wear_max - self.wear_min

    def _class_utilization(self, prefix: str) -> dict[str, float]:
        return {
            name: value
            for name, value in self.resource_utilization.items()
            if name.rstrip("0123456789") == prefix
        }

    @property
    def channel_utilization(self) -> dict[str, float]:
        """Per-channel busy fraction (``chan0`` ... ``chanN``)."""
        return self._class_utilization("chan")

    @property
    def chip_utilization(self) -> dict[str, float]:
        """Per-die/way busy fraction (``chip0`` ... ``chipN``)."""
        return self._class_utilization("chip")

    @property
    def dedup_ratio(self) -> float:
        """Fraction of chunk tasks served without executing a sense --
        by an in-window shared sense *or* a cross-window cache hit.
        Counting both keeps the ratio truthful when the cache absorbs
        repeat traffic upstream of the engine's dedup."""
        if self.n_chunk_tasks == 0:
            return 0.0
        return (self.shared_plans + self.cached_plans) / self.n_chunk_tasks

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of chunk tasks served from the cross-window
        result cache."""
        if self.n_chunk_tasks == 0:
            return 0.0
        return self.cached_plans / self.n_chunk_tasks

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of deadline-carrying queries that missed."""
        if self.n_deadlines == 0:
            return 0.0
        return 1.0 - self.deadlines_met / self.n_deadlines

    @property
    def failure_rate(self) -> float:
        """Fraction of queries that surfaced an error."""
        if self.n_queries == 0:
            return 0.0
        return self.queries_failed / self.n_queries

    def describe(self) -> str:
        if self.n_queries == 0:
            # A degraded run can complete with every window empty (or
            # every query failed before admission); report that
            # plainly instead of rendering rates over nothing.
            return (
                f"0 queries / {self.n_windows} windows: idle run, "
                f"no latency distribution"
            )
        lat = self.latency
        text = (
            f"{self.n_queries} queries / {self.n_windows} windows: "
            f"{self.throughput_qps:.0f} q/s sustained, "
            f"p50 {lat.p50_us:.0f} us, p99 {lat.p99_us:.0f} us, "
            f"{self.n_senses} senses "
            f"({self.shared_senses} shared away, "
            f"{self.cached_senses} cache-served, "
            f"dedup {self.dedup_ratio:.0%}, "
            f"cache hit-rate {self.cache_hit_rate:.0%}), "
            f"bottleneck {self.bottleneck}"
        )
        if self.n_deadlines:
            text += (
                f", deadlines {self.deadlines_met}/{self.n_deadlines} met"
            )
        if self.preemptions:
            text += f", {self.preemptions} preemptions"
        if (
            self.faults_injected
            or self.queries_failed
            or self.degraded_senses
            or self.quarantines
        ):
            text += (
                f", {self.faults_injected} faults injected "
                f"({self.fault_retries} retries, "
                f"{self.degraded_senses} degraded senses, "
                f"{self.quarantines} quarantines, "
                f"{self.queries_failed} failed, "
                f"{self.fault_overhead_us:.1f} us recovery)"
            )
        if self.reconstructed_plans or self.chips_lost:
            text += (
                f", parity: {self.reconstructed_plans} chunks "
                f"reconstructed ({self.reconstruction_senses} survivor "
                f"senses, {self.reconstruction_overhead_us:.1f} us), "
                f"{self.chips_lost} chips lost, "
                f"{self.columns_rebuilt} columns rebuilt"
            )
        if (
            self.blocks_reclaimed
            or self.pages_migrated
            or self.blocks_retired
            or self.chips_drained
        ):
            text += (
                f", maintenance: {self.blocks_reclaimed} blocks "
                f"reclaimed, {self.pages_migrated} pages migrated, "
                f"{self.blocks_retired} retired, "
                f"{self.chips_drained} chips drained "
                f"({self.maintenance_overhead_us:.1f} us background, "
                f"lag {self.maintenance_lag_us:.1f} us)"
            )
        if self.wear_max:
            text += (
                f", wear {self.wear_min}-{self.wear_max} P/E "
                f"(mean {self.wear_mean:.2f})"
            )
        return text
