"""The query service: windows in, scheduled shared execution out.

:class:`QueryService` composes the whole serving story: timed
submissions (optionally carrying a priority and a deadline) collect in
an :class:`~repro.service.admission.AdmissionQueue` (grid or adaptive
windows), each window's bound chunk plans are ordered by a scheduling
policy (``fifo`` / ``balanced`` / deadline-aware ``edf``), executed
with cross-query sense sharing and -- when ``result_cache`` is on --
the engine's cross-window :class:`~repro.ssd.query_engine.ResultCache`
consulted first, and every chunk job is replayed through one exact
event simulation so latencies, deadline conformance, and the
bottleneck resource are simulation-accurate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from repro.core.expressions import Expression
from repro.flash.faults import RecoveryPolicy
from repro.service.admission import (
    AdmissionQueue,
    AdmissionWindow,
    Submission,
)
from repro.service.health import (
    QUARANTINED,
    ChipHealthTracker,
    HealthConfig,
)
from repro.service.metrics import LatencySummary, ServiceStats
from repro.service.scheduler import (
    POLICIES,
    QueryInfo,
    job_directives,
    schedule_window,
)
from repro.ssd.controller import QueryResult, SmallSsd
from repro.ssd.events import ArbitrationConfig, StageJob, simulate_stages
from repro.ssd.maintenance import (
    MaintenanceConfig,
    MaintenanceManager,
    MaintenanceStats,
)
from repro.ssd.query_engine import ChunkTask


@dataclass(frozen=True)
class ServedQuery:
    """One query's journey through the service."""

    query_id: int
    client: str
    expr: Expression
    submitted_us: float
    #: When the query's admission window closed (execution eligible).
    admitted_us: float
    #: When its last chunk left the external link.
    completed_us: float
    #: Functional result; ``n_senses``/``latency_us`` count only the
    #: flash work actually spent on this query (shared senses are
    #: billed to the query that executed them; cache-served chunks
    #: were paid for by a previous window).
    result: QueryResult
    #: Chunk tasks of this query served by another query's sense in
    #: the same window.
    shared_chunks: int
    #: Chunk tasks of this query served from the cross-window result
    #: cache.
    cached_chunks: int = 0
    priority: int = 0
    deadline_us: float | None = None
    #: Typed fault the query surfaced (``None`` on success); a failed
    #: query carries an empty result vector.
    error: Exception | None = None
    #: Extra recovered sense attempts spent on this query's chunks.
    retries: int = 0
    #: Chunk executions served on the degraded V_TH path.
    degraded_chunks: int = 0
    #: Virtual recovery time (backoff + stalls) charged to this
    #: query's pipeline jobs.  Retry-plane only: parity reconstruction
    #: time is reported separately in ``reconstruction_us`` so
    #: "recovered via retry" and "recovered via parity" stay
    #: distinguishable.
    fault_overhead_us: float = 0.0
    #: Chunk results of this query rebuilt from parity after a chip
    #: failure, and the survivor chip time those rebuilds charged to
    #: this query's pipeline jobs.
    reconstructed_chunks: int = 0
    reconstruction_us: float = 0.0

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def fault_affected(self) -> bool:
        """Whether any fault-plane mechanism touched this query."""
        return (
            self.error is not None
            or self.retries > 0
            or self.degraded_chunks > 0
            or self.fault_overhead_us > 0.0
            or self.reconstructed_chunks > 0
            or self.reconstruction_us > 0.0
        )

    @property
    def wait_us(self) -> float:
        """Time spent queued before the window closed."""
        return self.admitted_us - self.submitted_us

    @property
    def latency_us(self) -> float:
        """Submission-to-delivery service latency."""
        return self.completed_us - self.submitted_us

    @property
    def deadline_met(self) -> bool | None:
        """Whether the query completed by its deadline (``None`` for
        best-effort queries that stated none)."""
        if self.deadline_us is None:
            return None
        return self.completed_us <= self.deadline_us


@dataclass(frozen=True)
class ServiceReport:
    """Everything one :meth:`QueryService.run` produced."""

    queries: tuple[ServedQuery, ...]
    stats: ServiceStats

    def latencies_us(
        self, client: str | None = None, deadline: bool | None = None
    ) -> list[float]:
        """Service latencies, optionally of one ``client`` and of one
        class: ``deadline=True`` keeps the queries that stated a
        deadline, ``False`` the best-effort ones (the die queue moves
        tail from the first class to the second; read both)."""
        return [
            q.latency_us
            for q in self.queries
            if (client is None or q.client == client)
            and (deadline is None or (q.deadline_us is not None) == deadline)
        ]

    def client_latency(self, client: str) -> LatencySummary:
        return LatencySummary.from_latencies(self.latencies_us(client))


class _QueryState:
    """Mutable per-query accumulator while a run executes."""

    __slots__ = (
        "submission", "prepared", "pieces", "n_senses", "energy_nj",
        "chip_busy", "shared_chunks", "cached_chunks", "admitted_us",
        "completed_us", "error", "retries", "degraded_chunks",
        "fault_us", "reconstructed_chunks", "reconstruction_us",
    )

    def __init__(self, submission, prepared) -> None:
        self.submission = submission
        self.prepared = prepared
        self.pieces: list[np.ndarray | None] = [None] * prepared.n_chunks
        self.n_senses = 0
        self.energy_nj = 0.0
        self.chip_busy: dict[int, float] = {}
        self.shared_chunks = 0
        self.cached_chunks = 0
        self.admitted_us = 0.0
        self.completed_us = 0.0
        self.error: Exception | None = None
        self.retries = 0
        self.degraded_chunks = 0
        self.fault_us = 0.0
        self.reconstructed_chunks = 0
        self.reconstruction_us = 0.0


@dataclass
class _RunTotals:
    """The run totals the served queries do not determine, each under
    its :class:`ServiceStats` field name: the window steps accumulate
    them and the report hands them over as they stand.  (The totals
    that *are* sums over the queries -- ``n_senses``, ``shared_plans``,
    ``fault_retries``, ... -- are counted per query only and derived
    by :meth:`ServiceStats.from_queries`.)"""

    n_chunk_tasks: int = 0
    shared_senses: int = 0
    cached_senses: int = 0
    degraded_senses: int = 0
    reconstruction_senses: int = 0
    fault_overhead_us: float = 0.0
    reconstruction_overhead_us: float = 0.0
    chips_lost: int = 0


@dataclass
class _Run(_RunTotals):
    """Everything the steps of one :meth:`QueryService.run` share."""

    #: The run's recovery policy, decided once at the top.
    recovery: RecoveryPolicy | None = None
    #: Lifetime counters as the run found them; the report subtracts.
    faults_before: int = 0
    quarantines_before: int = 0
    maintenance_before: MaintenanceStats = field(
        default_factory=MaintenanceStats
    )
    #: ``QueryService._relocations`` as the current window's health
    #: step found it.
    relocations_before: int = 0
    states: dict[int, _QueryState] = field(default_factory=dict)
    jobs: list[StageJob] = field(default_factory=list)
    #: Query id per job; ``None`` marks background maintenance jobs,
    #: which complete in the simulation but belong to no query.
    job_owner: list[int | None] = field(default_factory=list)
    #: Background chip microseconds pending inside the event
    #: simulation, per chip -- the scheduler prices this into its
    #: cross-chip interleave so foreground tails avoid dies busy with
    #: GC.
    gc_busy: dict[int, float] = field(default_factory=dict)
    #: Whether any chip error (or chip loss) has been observed this
    #: run -- only then do health weights feed the FTL's stripe
    #: allocation, keeping fault-free runs byte-identical to an SSD
    #: that never heard of health.
    errors_seen: bool = False

    def add_background(self, background: list[StageJob]) -> None:
        """List maintenance jobs for the event replay and book their
        chip time as pending."""
        self.jobs.extend(background)
        self.job_owner.extend([None] * len(background))
        for job in background:
            resource = job.resources[0]
            if resource.startswith("chip"):
                chip = int(resource[4:])
                self.gc_busy[chip] = (
                    self.gc_busy.get(chip, 0.0) + job.durations[0] * 1e6
                )


def _most_urgent(group: dict | None, own: dict) -> dict:
    """Job directives of a share group that ``own``'s query joins: the
    scheduler's bucket rule (:func:`~repro.service.scheduler.
    _edf_queues`) -- earliest deadline, highest priority -- so a
    window's jobs rank at a die as its buckets ranked in the
    schedule."""
    if group is None or group is own:
        return own
    deadline_s, other = group["deadline_s"], own["deadline_s"]
    if deadline_s is None or (other is not None and other < deadline_s):
        deadline_s = other
    priority = max(group["priority"], own["priority"])
    if deadline_s == group["deadline_s"] and priority == group["priority"]:
        return group  # nothing to add: no new record per follower
    return {
        "ready_at_s": own["ready_at_s"],
        "priority": priority,
        "deadline_s": deadline_s,
        "preemptible": group["preemptible"] and own["preemptible"],
    }


class QueryService:
    """Accepts timed query submissions, serves them in scheduled,
    sense-shared admission windows (see the package docstring).

    Service-level options beyond the admission/scheduling basics:

    ``result_cache`` / ``result_cache_size``
        Enable the engine's cross-window
        :class:`~repro.ssd.query_engine.ResultCache`: windows consult
        it before dedup, so traffic repeating earlier windows' shapes
        skips the sensing engine entirely.  The cache lives on the
        engine and survives across :meth:`run` calls (and across
        services sharing one SSD); it is invalidated by any layout
        generation movement (register/unregister/program/erase).
        Off by default -- the synchronous ``SmallSsd.query`` oracle
        and existing baselines stay cache-free.
        ``result_cache_size=None`` (the default) adopts the shared
        cache as-is; an explicit size resizes it for every sharer.

    ``tenant_weights``
        ``client name -> weight`` shares for the ``edf`` policy's
        weighted-fair drain of deadline-free traffic (default weight
        1.0).

    ``adaptive_window`` (+ ``min_window_us`` / ``max_window_us`` /
    ``target_window_queries``)
        Let the admission controller retune ``window_us`` to the
        observed arrival rate (see
        :class:`~repro.service.admission.AdmissionQueue`).

    ``workers``
        Drain each window's per-chip queues concurrently on the
        engine's shared thread pool (``1`` = the exact sequential
        drain, the default).  Outcomes and counters are bit-/float-
        identical at any worker count; only wall-clock changes.

    ``preemption`` (+ ``suspend_cost_us`` / ``resume_cost_us``)
        The two suspend costs always govern the event replay's
        *background* class (see ``maintenance``): a background job in
        flight when a chunk job arrives is suspended at those
        penalties (0 by default); resumed, it first runs as long as it
        was kept off the die, an arrival meanwhile waiting it out
        (``StageReport.resource_guard_waits``).  Under ``edf`` the
        replay's dies already serve their *waiting* chunk jobs
        deadline-first (other policies: first-come-first-served);
        ``preemption`` adds what only suspension buys: chunk jobs
        replay through the arbitrated event simulation instead of the
        sweep, where a deadline query's jobs may also suspend an
        *in-flight* preemptible bulk sense, and channels and the link
        order by urgency too (EDF order, under the same rule and
        penalties).  The report carries suspension counts, overhead,
        and per-resource utilization either way.  Off by default.

    ``recovery`` / ``health``
        Fault tolerance (:mod:`repro.flash.faults`,
        :mod:`repro.service.health`).  When the SSD carries an active
        :class:`~repro.flash.faults.FaultInjector`, windows execute
        under bounded retry/backoff with degraded-mode (V_TH path)
        fallback -- an explicit
        :class:`~repro.flash.faults.RecoveryPolicy` overrides the
        default.  Every window's per-chip error rates feed an EWMA
        circuit breaker (:class:`~repro.service.health.ChipHealthTracker`)
        that marks sick chips degraded (served on the safe V_TH path,
        priced by the scheduler) or quarantined (parked; their tasks
        fail fast with ``ChipUnavailableError``); any quarantine
        transition bumps the chip's directory generation so bound
        plans and cached results rebind before service resumes.

    ``maintenance``
        The background maintenance plane
        (:mod:`repro.ssd.maintenance`).  Pass ``True`` for the default
        :class:`~repro.ssd.maintenance.MaintenanceConfig`, a config,
        or an existing
        :class:`~repro.ssd.maintenance.MaintenanceManager`.  Per
        window the manager paces garbage collection against free-block
        pressure (low/high watermarks) and its copy/erase work joins
        the event simulation as
        :func:`~repro.ssd.events.background_job` jobs, which always
        yield: they run in the idle gaps of their die and an arriving
        sense suspends an in-flight GC erase instead of queueing
        behind it (resumed, the erase is protected for as long as it
        was parked, so it finishes; ``ServiceStats.maintenance_lag_us``
        reports what the deferral cost).  Stuck bad blocks are scrubbed out of the allocation
        pool up front, and when the health tracker quarantines a chip
        its live vectors drain to healthy chips during probation.
        ``ServiceStats`` then reports blocks reclaimed, pages
        migrated, wear spread, and the background overhead.  Off by
        default: without it no data ever moves and free blocks are
        never reclaimed.
    """

    def __init__(
        self,
        ssd: SmallSsd,
        *,
        window_us: float = 200.0,
        max_window_queries: int | None = None,
        policy: str = "balanced",
        share_senses: bool = True,
        result_cache: bool = False,
        result_cache_size: int | None = None,
        tenant_weights: dict[str, float] | None = None,
        adaptive_window: bool = False,
        min_window_us: float | None = None,
        max_window_us: float | None = None,
        target_window_queries: int = 8,
        workers: int = 1,
        preemption: bool = False,
        suspend_cost_us: float = 0.0,
        resume_cost_us: float = 0.0,
        recovery: RecoveryPolicy | None = None,
        health: HealthConfig | None = None,
        maintenance: (
            MaintenanceManager | MaintenanceConfig | bool | None
        ) = None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choose from {POLICIES}"
            )
        self.ssd = ssd
        self.engine = ssd.engine
        #: Retry/backoff/degradation policy for fault recovery.  An
        #: explicit policy is always honoured; ``None`` adopts the
        #: default :class:`~repro.flash.faults.RecoveryPolicy`
        #: whenever the SSD carries an active fault injector, decided
        #: once per :meth:`run` (under an inactive injector the engine
        #: disables only the retry half of a policy -- nothing is
        #: drawn -- so the fault-free path is untouched either way).
        self.recovery = recovery
        #: Per-chip EWMA health tracking + quarantine breaker; always
        #: on (a fault-free run simply never observes an error).
        self.health = ChipHealthTracker(len(ssd.chips), config=health)
        self.policy = policy
        self.share_senses = share_senses
        self.workers = max(1, int(workers))
        #: Suspend/resume parameters of the event replay: background
        #: jobs always yield to foreground under them; with
        #: ``preemption`` the replay is the arbitrated simulation and
        #: they also govern deadline-over-bulk suspension.
        self.suspension = ArbitrationConfig(
            suspend_cost_s=suspend_cost_us * 1e-6,
            resume_cost_s=resume_cost_us * 1e-6,
        )
        self.preemption = preemption
        self.use_result_cache = result_cache
        if result_cache:
            self.engine.enable_result_cache(result_cache_size)
        #: Background maintenance plane (GC/wear/migration); ``None``
        #: disables it and leaves every existing path untouched.
        if maintenance is None or maintenance is False:
            self.maintenance: MaintenanceManager | None = None
        elif isinstance(maintenance, MaintenanceManager):
            self.maintenance = maintenance
        elif isinstance(maintenance, MaintenanceConfig):
            self.maintenance = ssd.maintenance(maintenance)
        else:
            self.maintenance = ssd.maintenance()
        self.tenant_weights = dict(tenant_weights or {})
        self.admission = AdmissionQueue(
            window_us=window_us,
            max_queries=max_window_queries,
            adaptive=adaptive_window,
            min_window_us=min_window_us,
            max_window_us=max_window_us,
            target_queries=target_window_queries,
        )
        self._next_id = 0

    # ------------------------------------------------------------------
    # Submission side
    # ------------------------------------------------------------------

    def submit(
        self,
        expr: Expression,
        *,
        at_us: float,
        client: str = "client",
        priority: int = 0,
        deadline_us: float | None = None,
    ) -> int:
        """Enqueue one query arriving at virtual time ``at_us``;
        returns its query id.  ``deadline_us`` is absolute virtual
        time; the ``edf`` policy schedules toward it and the report
        grades it (other policies record but ignore it)."""
        query_id = self._next_id
        self._next_id += 1
        self.admission.submit(
            Submission(
                query_id=query_id,
                client=client,
                expr=expr,
                submitted_us=at_us,
                priority=priority,
                deadline_us=deadline_us,
            )
        )
        return query_id

    def submit_traffic(self, submissions) -> list[int]:
        """Enqueue a traffic trace -- ``(at_us, client, expr)`` triples
        or the 5-field ``(at_us, client, expr, priority, deadline_us)``
        items :func:`repro.service.clients.generate_traffic` emits."""
        ids = []
        for item in submissions:
            at_us, client, expr = item[0], item[1], item[2]
            priority = item[3] if len(item) > 3 else 0
            deadline_us = item[4] if len(item) > 4 else None
            ids.append(
                self.submit(
                    expr,
                    at_us=at_us,
                    client=client,
                    priority=priority,
                    deadline_us=deadline_us,
                )
            )
        return ids

    # ------------------------------------------------------------------
    # Execution side
    # ------------------------------------------------------------------

    def _estimate(self, task: ChunkTask) -> float:
        executor = self.ssd.controllers[task.chip].executor
        return executor.estimate_latency_us(task.plan)

    def _query_info(self, submission: Submission) -> QueryInfo:
        return QueryInfo(
            client=submission.client,
            priority=submission.priority,
            deadline_us=submission.deadline_us,
            weight=self.tenant_weights.get(submission.client, 1.0),
        )

    def run(self) -> ServiceReport:
        """Serve every pending submission, then drain the queue.

        Windows execute in close order, each through the same steps;
        every window's chunk jobs enter one shared event simulation
        with ``ready_at`` equal to the window close time, so
        cross-window contention (a window queuing behind the previous
        one's stragglers) is exact.  An exception out of any step --
        the report included -- leaves the queue as it was: fix the
        cause and call ``run()`` again.
        """
        windows = self.admission.windows()
        injector = self.ssd.fault_injector
        manager = self.maintenance
        recovery = self.recovery
        if recovery is None and injector is not None and injector.active:
            recovery = RecoveryPolicy()
        run = _Run(
            recovery=recovery,
            faults_before=injector.faults_injected if injector else 0,
            quarantines_before=self.health.quarantines,
        )
        if manager is not None:
            run.maintenance_before = replace(manager.stats)
            # Stuck bad blocks never re-enter the allocation pool.
            manager.scrub_bad_blocks()
        for window in windows:
            ready_s = window.close_us * 1e-6
            self._detect_chip_loss(run, ready_s)
            tasks, info = self._admit(run, window)
            degraded, offline = self.health.degraded, self.health.offline
            ordered = self._schedule(run, tasks, info, degraded, offline)
            outcomes = self._execute(run, ordered, degraded, offline)
            chip_obs = self._account(run, outcomes, offline)
            self._list_jobs(run, outcomes, info, ready_s)
            self._observe_health(run, chip_obs, ready_s)
            self._maintain(run, ready_s)
        report = self._report(run, len(windows))
        # The report exists: only now drain the admission queue, so an
        # exception anywhere above (e.g. a query over non-co-located
        # vectors, or a failing replay) leaves the pending submissions
        # intact for a retry.
        self.admission.clear()
        return report

    def _quarantine_changed(
        self, run: _Run, chip: int, ready_s: float, rebind: bool, drain: bool
    ) -> None:
        """React to a chip entering or leaving quarantine -- the one
        reaction both detectors (fail-stop and EWMA) share: ``rebind``
        when the breaker changed state, ``drain`` when the chip is now
        parked."""
        if rebind:
            # Placement event: entering quarantine parks the chip,
            # leaving re-admits it -- either way every bound plan and
            # cached result stamped against the old world must rebind
            # (same contract as register/unregister).
            self.ssd.controllers[chip].directory.generation += 1
        if drain and self.maintenance is not None:
            # Probation drain: migrate the parked chip's live vectors
            # to chips still in service, so the next windows answer
            # from healthy silicon instead of failing the chip's tasks.
            run.add_background(
                self.maintenance.drain_chip(
                    chip,
                    healthy=self.health.survivors(exclude=chip),
                    ready_at_s=ready_s,
                )
            )

    def _detect_chip_loss(self, run: _Run, ready_s: float) -> None:
        """Fail-stop detection: a chip that went offline since the
        last window (``SmallSsd.kill_chip``) is quarantined
        permanently *before* scheduling -- waiting for error
        statistics would burn windows of failed traffic."""
        for chip_id, chip in enumerate(self.ssd.chips):
            if not chip.offline or self.health.is_permanent(chip_id):
                continue
            run.chips_lost += 1
            run.errors_seen = True
            self._quarantine_changed(
                run,
                chip_id,
                ready_s,
                rebind=self.health.force_quarantine(chip_id, permanent=True),
                drain=True,
            )

    def _admit(
        self, run: _Run, window: AdmissionWindow
    ) -> tuple[list[ChunkTask], dict[int, QueryInfo]]:
        """Plan/bind the window's queries; returns their chunk tasks
        and the scheduling facts of each query."""
        tasks: list[ChunkTask] = []
        info: dict[int, QueryInfo] = {}
        for submission in window.submissions:
            prepared = self.engine.prepare(submission.expr)
            state = _QueryState(submission, prepared)
            state.admitted_us = window.close_us
            run.states[submission.query_id] = state
            info[submission.query_id] = self._query_info(submission)
            tasks.extend(prepared.tasks(query=submission.query_id))
        return tasks, info

    def _schedule(self, run: _Run, tasks, info, degraded, offline):
        """Order the window's tasks into the global emission order."""
        return schedule_window(
            tasks,
            self._estimate,
            policy=self.policy,
            share=self.share_senses,
            info=info,
            degraded=degraded,
            offline=offline,
            gc_busy=run.gc_busy,
            # With parity striping the engine's phase-two
            # reconstruction replaces chip-loss failures with parity-
            # rebuilt results, so the scheduler prices offline chips'
            # tasks as degraded work instead of parking them.
            reconstruct=self.ssd.parity,
        )

    def _execute(self, run: _Run, ordered, degraded, offline):
        """Run the ordered tasks; one outcome per task, in order."""
        return self.engine.execute_tasks(
            ordered,
            share=self.share_senses,
            use_cache=self.use_result_cache,
            workers=self.workers,
            recovery=run.recovery,
            degraded=degraded,
            offline=offline,
            reconstruct=self.ssd.parity,
        )

    def _account(self, run: _Run, outcomes, offline) -> dict[int, list[int]]:
        """Fold the window's outcomes into the per-query states and
        the run totals; returns ``chip -> [operations, errors]``, the
        window's health observations.  Every float accumulates in
        outcome order, on the run's own accumulators."""
        run.n_chunk_tasks += len(outcomes)
        states = run.states
        chip_obs: dict[int, list[int]] = {}
        for outcome in outcomes:
            task = outcome.task
            state = states[task.query]
            state.pieces[task.chunk] = outcome.data
            if outcome.cached:
                # A cache hit spent no flash time, retried nothing and
                # cannot carry an error: of the accounting below only
                # these updates are not additions of zero.
                state.chip_busy.setdefault(task.chip, 0.0)
                state.cached_chunks += 1
                run.cached_senses += task.plan.n_senses
                continue
            state.n_senses += outcome.n_senses
            state.energy_nj += outcome.energy_nj
            state.chip_busy[task.chip] = (
                state.chip_busy.get(task.chip, 0.0) + outcome.latency_us
            )
            if outcome.error is not None and state.error is None:
                state.error = outcome.error
            state.retries += outcome.retries
            state.fault_us += outcome.recovery_us
            run.fault_overhead_us += outcome.recovery_us
            if outcome.reconstructed:
                # Recovered via parity: counted apart from the retry
                # plane so the report separates "recovered via retry"
                # from "recovered via parity".  The survivor reads
                # ride ``recovery_work`` (leader only; shared
                # followers paid nothing); ``_list_jobs`` charges them
                # to the right dies.
                state.reconstructed_chunks += 1
                if not outcome.shared:
                    run.reconstruction_senses += outcome.n_senses
                for rchip, busy_us in outcome.recovery_work:
                    state.chip_busy[rchip] = (
                        state.chip_busy.get(rchip, 0.0) + busy_us
                    )
                    state.reconstruction_us += busy_us
                    run.reconstruction_overhead_us += busy_us
            if outcome.degraded:
                state.degraded_chunks += 1
            if outcome.shared:
                state.shared_chunks += 1
                run.shared_senses += task.plan.n_senses
                continue
            if outcome.degraded:
                run.degraded_senses += 1
            if task.chip not in offline:
                # One real recovered execution: every attempt is an
                # operation; faulted attempts (and a surfaced failure)
                # are errors.  Parked tasks never touched the chip, so
                # they do not feed its health signal.
                obs = chip_obs.setdefault(task.chip, [0, 0])
                obs[0] += outcome.retries + 1
                # A reconstructed chunk means the chip failed its
                # attempt even though the query recovered -- the
                # health signal must still see the failure.
                obs[1] += outcome.retries + (
                    1
                    if outcome.error is not None or outcome.reconstructed
                    else 0
                )
        return chip_obs

    def _list_jobs(self, run: _Run, outcomes, info, ready_s: float) -> None:
        """List the window's pipeline jobs for the event replay, in
        outcome order (the replay breaks equal-time ties by it).

        Under ``edf`` -- and only there: the other policies record a
        deadline but ignore it -- the jobs carry the scheduler's
        intent into the replay, whose dies serve their waiters by it.
        A job waits for the data it shares, so urgency is inherited
        the way the scheduler's share-group buckets inherit it: every
        job of a share group, leader and followers, carries the
        group's earliest deadline and highest priority (a deadline
        follower must not overtake the best-effort sense it waits
        for -- it lends the sense its deadline instead), and every
        survivor read of the window, and every marker waiting for
        one, those of the window's reconstructed queries.
        """
        stage_job = self.engine.stage_job
        jobs, job_owner = run.jobs, run.job_owner
        edf = self.policy == "edf"
        directives = {}
        for query, meta in info.items():
            directives[query] = own = {"ready_at_s": ready_s}
            if edf:
                own["priority"], own["deadline_s"], own["preemptible"] = (
                    job_directives(meta)
                )
        #: leader's position -> directives of its share group;
        #: directives of the window's survivor reads.
        groups: dict[int, dict] = {}
        survivor = None
        if edf:
            for outcome in outcomes:
                if outcome.cached:
                    continue
                own = directives[outcome.task.query]
                leader = outcome.leader
                if leader is not None:
                    group = groups.get(leader)
                    if group is None:
                        group = directives[outcomes[leader].task.query]
                    groups[leader] = _most_urgent(group, own)
                if outcome.reconstructed:
                    survivor = _most_urgent(survivor, own)
        #: (query, chip) -> the one zero-latency job all of that
        #: query's cache-served chunks on that chip share: it is
        #: identical for every one of them, so one instance is listed
        #: for all.
        idle_jobs: dict[tuple[int, int], StageJob] = {}
        for position, outcome in enumerate(outcomes):
            task = outcome.task
            query = task.query
            if outcome.cached:
                job = idle_jobs.get((query, task.chip))
                if job is None:
                    job = idle_jobs[(query, task.chip)] = stage_job(
                        task.chip, 0.0, **directives[query]
                    )
                jobs.append(job)
                job_owner.append(query)
                continue
            own = directives[query]
            if groups:
                leader = outcome.leader
                own = groups.get(position if leader is None else leader, own)
            jobs.append(
                stage_job(
                    task.chip,
                    outcome.latency_us,
                    fault_delay_us=outcome.recovery_us,
                    **own,
                )
            )
            job_owner.append(query)
            for rchip, busy_us in outcome.recovery_work:
                # Survivor reads of a parity reconstruction occupy
                # real dies: they join the event simulation as
                # query-owned jobs, so the query's completion time
                # and the survivors' utilization both see them.  A
                # zero-length entry is a marker: this chunk reuses a
                # page another job of the window read on that die, and
                # queues behind the read.
                jobs.append(stage_job(rchip, busy_us, **(survivor or own)))
                job_owner.append(query)

    def _relocations(self) -> int:
        """Lifetime count of maintenance work that relocated live
        data (0 without a maintenance plane)."""
        if self.maintenance is None:
            return 0
        stats = self.maintenance.stats
        return (
            stats.pages_migrated
            + stats.blocks_reclaimed
            + stats.columns_rebuilt
        )

    def _observe_health(
        self, run: _Run, chip_obs: dict[int, list[int]], ready_s: float
    ) -> None:
        """Fold the window's observations into the per-chip EWMA
        breaker and react to what it decided."""
        transitions = self.health.observe_window(
            {chip: (ops, errors) for chip, (ops, errors) in chip_obs.items()}
        )
        if any(obs[1] for obs in chip_obs.values()):
            run.errors_seen = True
        if run.errors_seen:
            # Wear/error-history-driven placement: feed the breaker's
            # EWMA into the FTL's stripe allocation so *new* chunk
            # columns skew away from sick chips (dead chips get weight
            # 0 and receive nothing).  Until the first error this
            # never runs, and the FTL clears uniform weights to
            # ``None`` -- the fault-free stripe stays the pure
            # ``c % n`` layout, byte-identical.
            self.ssd.ftl.set_chip_health(
                {
                    chip: (
                        0.0
                        if self.health.state(chip) == QUARANTINED
                        else max(0.05, 1.0 - self.health.error_rate(chip))
                    )
                    for chip in range(self.health.n_chips)
                }
            )
        # Sampled here -- after the chip-loss drain at the top of the
        # window, before this window's quarantine drains -- so the
        # latter count as data that moved and the former does not.
        run.relocations_before = self._relocations()
        for chip, old, new in transitions:
            if QUARANTINED in (old, new):
                self._quarantine_changed(
                    run, chip, ready_s, rebind=True, drain=new == QUARANTINED
                )

    def _maintain(self, run: _Run, ready_s: float) -> None:
        """One background cycle at the window's close."""
        manager = self.maintenance
        if manager is None:
            return
        # Pace GC against free-block pressure: background copy/erase
        # jobs become ready at this window's close and compete with
        # later windows' foreground work.
        run.add_background(manager.run_cycle(ready_at_s=ready_s))
        if manager.pending_rebuild:
            # Rebuild-on-repair: re-materialize columns and parity
            # pages lost with a dead chip from the surviving group
            # members, paced per window by the maintenance budget.
            run.add_background(
                manager.rebuild_cycle(
                    healthy=self.health.survivors(), ready_at_s=ready_s
                )
            )
        if (
            self._relocations() != run.relocations_before
            and self.engine.result_cache is not None
        ):
            # Relocation went stale on whole swaths of cached entries
            # at once; drop them in bulk so the LRU capacity keeps
            # working for live results.
            self.engine.result_cache.prune_stale()

    def _report(self, run: _Run, n_windows: int) -> ServiceReport:
        """Replay every listed job through the one event simulation,
        fold the completion times into the queries, and build the
        report (the stats are a fold of the served queries plus the
        run's totals and deltas)."""
        sim = simulate_stages(
            run.jobs,
            suspension=self.suspension,
            arbitration=self.suspension if self.preemption else None,
        )
        states = run.states
        maintenance_lag_s = 0.0
        for completion_s, owner, job in zip(
            sim.completion_times, run.job_owner, run.jobs
        ):
            if owner is None:
                # Background maintenance job, no query: what deferring
                # it to the die's idle gaps cost it.
                maintenance_lag_s = max(
                    maintenance_lag_s, completion_s - job.ready_at
                )
                continue
            state = states[owner]
            state.completed_us = max(state.completed_us, completion_s * 1e6)
        served = tuple(
            self._served(states[query_id]) for query_id in sorted(states)
        )
        injector = self.ssd.fault_injector
        wear = self.ssd.wear_summary()
        before = run.maintenance_before
        after = before if self.maintenance is None else self.maintenance.stats
        stats = ServiceStats.from_queries(
            served,
            n_windows=n_windows,
            makespan_us=sim.makespan * 1e6,
            bottleneck=sim.bottleneck,
            preemptions=sim.preemptions,
            preemption_overhead_us=sim.preemption_overhead * 1e6,
            resource_utilization=sim.utilizations(),
            faults_injected=(
                injector.faults_injected - run.faults_before if injector else 0
            ),
            quarantines=self.health.quarantines - run.quarantines_before,
            columns_rebuilt=after.columns_rebuilt - before.columns_rebuilt,
            blocks_reclaimed=after.blocks_reclaimed - before.blocks_reclaimed,
            pages_migrated=after.pages_migrated - before.pages_migrated,
            blocks_retired=after.blocks_retired - before.blocks_retired,
            chips_drained=after.chips_drained - before.chips_drained,
            maintenance_overhead_us=after.busy_us - before.busy_us,
            maintenance_lag_us=maintenance_lag_s * 1e6,
            wear_min=wear.pe_min,
            wear_max=wear.pe_max,
            wear_mean=wear.pe_mean,
            # The accumulated totals, under the names they were
            # counted under.
            **{f.name: getattr(run, f.name) for f in fields(_RunTotals)},
        )
        return ServiceReport(queries=served, stats=stats)

    def _served(self, state: _QueryState) -> ServedQuery:
        submission = state.submission
        if state.error is not None:
            # A failed query has no assembled result (some chunks
            # never produced data); it still reports the flash work
            # and sim time its attempts cost.
            bits = np.zeros(0, dtype=np.uint8)
        else:
            bits = self.engine.assemble_bits(state.prepared, state.pieces)
        result = QueryResult(
            bits=bits,
            n_senses=state.n_senses,
            latency_us=max(state.chip_busy.values(), default=0.0),
            energy_nj=state.energy_nj,
            makespan_us=state.completed_us - state.admitted_us,
            template_hit=state.prepared.template_hit,
        )
        return ServedQuery(
            query_id=submission.query_id,
            client=submission.client,
            expr=submission.expr,
            submitted_us=submission.submitted_us,
            admitted_us=state.admitted_us,
            completed_us=state.completed_us,
            result=result,
            shared_chunks=state.shared_chunks,
            cached_chunks=state.cached_chunks,
            priority=submission.priority,
            deadline_us=submission.deadline_us,
            error=state.error,
            retries=state.retries,
            degraded_chunks=state.degraded_chunks,
            fault_overhead_us=state.fault_us,
            reconstructed_chunks=state.reconstructed_chunks,
            reconstruction_us=state.reconstruction_us,
        )
