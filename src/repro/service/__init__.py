"""Query service layer: admission windows, multi-query chip
scheduling, and cross-query sense sharing.

This package is the layer above the plan-template
:class:`~repro.ssd.query_engine.QueryEngine`: where the engine serves
one caller's query (or an explicit batch) synchronously, the service
accepts *concurrent submissions from many simulated clients on a
virtual clock* and turns them into scheduled, deduplicated window
executions -- the system-scale execution-engine move of the in-DRAM
bulk-bitwise line, applied to Flash-Cosmos's in-flash queries.

Design
======

**Virtual clock and clients** (:mod:`~repro.service.clock`,
:mod:`~repro.service.clients`).  Traffic is simulated-async: client
generators wrap the paper's workloads (bitmap-index point queries,
k-clique star scans, YUV segmentation) and stamp their query streams
with arrival times from configurable arrival processes (Poisson,
uniform, bursty).  Nothing runs on threads; the whole trace is
deterministic, which lets the property suite compare every served
query bit-for-bit against the synchronous oracle.

**Admission windows** (:mod:`~repro.service.admission`).  Submissions
are grouped on a fixed ``window_us`` grid (with an optional
``max_queries`` early close), or -- with ``adaptive_window`` -- on
windows whose length the admission controller retunes to the observed
arrival rate (short under bursts for p99, long under sparse traffic
for sharing).  A window is the service's unit of optimization:
queries inside one window may be reordered and share work; the window
close time is when its pipeline jobs become ready.

**Multi-query scheduling** (:mod:`~repro.service.scheduler`).  All
bound per-chunk plans of a window's queries are merged into per-chip
schedules.  Chunk placement is fixed by the FTL striping, so the
scheduler orders rather than places: share groups stay adjacent,
each chip drains longest-sense-first (LPT), and chips emit
longest-remaining-work-first -- minimizing window makespan instead of
any single query's latency.  The ``edf`` policy instead schedules
toward *service-level objectives*: queries may carry priorities and
deadlines, deadline traffic drains earliest-deadline-first, and the
deadline-free bulk drains weighted-fair across tenants so scan
traffic no longer starves point queries.  The event simulator breaks
equal-time ties by submission order, so the emitted order *is* the
schedule -- and under ``edf`` its dies carry the schedule across
windows: a deadline sense passes the best-effort senses of an earlier
window still waiting for the die.

**Cross-query sense sharing**
(:meth:`~repro.ssd.query_engine.QueryEngine.execute_tasks`).  Bound
plans are frozen value objects, so identical bound commands -- same
chip, same MWS command/address sequence -- are detected by value and
executed once; the packed result words fan out to every subscribing
query at zero flash cost.  This extends MWS's one-sense-many-operands
reuse across the *queries* of a window.

**Cross-window result caching**
(:class:`~repro.ssd.query_engine.ResultCache`, enabled with
``result_cache=True``).  Sharing only helps within a window; the
result cache memoizes executed plans' packed words *across* windows
(and service runs), stamped with the layout generation of their chip,
so repeat traffic skips the sensing engine entirely until any
register/unregister/program/erase moves the generation.

**Closed-loop clients** (:mod:`~repro.service.clients`).  Beyond the
open-loop arrival processes, :class:`ClosedLoopController` +
:func:`run_closed_loop` model client backpressure: an AIMD loop backs
the offered rate off multiplicatively while observed p99 exceeds the
target and probes additively below it.

**Fault tolerance** (:mod:`~repro.service.health`,
:mod:`~repro.flash.faults`).  With a deterministic
:class:`~repro.flash.faults.FaultInjector` attached to the SSD,
windows execute under the engine's bounded retry/backoff recovery
with degraded-mode (V_TH path) fallback; the service folds every
window's per-chip error rates into an EWMA circuit breaker that
degrades or quarantines sick chips, the scheduler prices degraded
chips and parks quarantined ones, and any quarantine transition bumps
the chip's directory generation so bound plans and cached results
rebind.  Injection off keeps every fast path bit-for-bit untouched.

**Metrics** (:mod:`~repro.service.metrics`).
:class:`~repro.service.metrics.ServiceStats` reports per-query
p50/p99 latency on the virtual clock, sustained queries/sec over the
traffic span, shared-sense and cache-served counts (the dedup ratio
counts both, so it stays truthful when the cache absorbs work before
the engine sees it), deadline conformance, and the bottleneck
pipeline resource from the event simulation.

All windows' chunk jobs enter *one* event simulation with
``ready_at`` equal to their window close, so cross-window contention
(a bursty window queuing behind the previous one's stragglers) is
exact rather than approximated window by window.
"""

from repro.service.admission import (
    AdmissionQueue,
    AdmissionWindow,
    Submission,
)
from repro.service.clients import (
    BitmapIndexClient,
    ClientTraffic,
    ClosedLoopController,
    KCliqueClient,
    SegmentationClient,
    TrafficClient,
    TrafficItem,
    generate_traffic,
    populate_all,
    run_closed_loop,
)
from repro.service.clock import (
    ArrivalProcess,
    BurstArrivals,
    PoissonArrivals,
    UniformArrivals,
    VirtualClock,
)
from repro.service.health import (
    DEGRADED,
    HEALTH_STATES,
    HEALTHY,
    QUARANTINED,
    ChipHealthTracker,
    HealthConfig,
)
from repro.service.metrics import LatencySummary, ServiceStats
from repro.service.scheduler import (
    POLICIES,
    QueryInfo,
    estimated_chip_work_us,
    schedule_window,
)
from repro.service.service import (
    QueryService,
    ServedQuery,
    ServiceReport,
)

__all__ = [
    "DEGRADED",
    "HEALTHY",
    "HEALTH_STATES",
    "POLICIES",
    "QUARANTINED",
    "AdmissionQueue",
    "AdmissionWindow",
    "ArrivalProcess",
    "BitmapIndexClient",
    "BurstArrivals",
    "ChipHealthTracker",
    "ClientTraffic",
    "ClosedLoopController",
    "HealthConfig",
    "KCliqueClient",
    "LatencySummary",
    "PoissonArrivals",
    "QueryInfo",
    "QueryService",
    "SegmentationClient",
    "ServedQuery",
    "ServiceReport",
    "ServiceStats",
    "Submission",
    "TrafficClient",
    "TrafficItem",
    "UniformArrivals",
    "VirtualClock",
    "estimated_chip_work_us",
    "generate_traffic",
    "populate_all",
    "run_closed_loop",
    "schedule_window",
]
