"""The query service: windows in, scheduled shared execution out.

:class:`QueryService` composes the whole serving story: timed
submissions (optionally carrying a priority and a deadline) collect in
an :class:`~repro.service.admission.AdmissionQueue` (fixed-grid
windows), each window's bound chunk plans are ordered by a scheduling
policy (``fifo`` / ``balanced`` / deadline-aware ``edf``), executed
with cross-query sense sharing and -- when ``result_cache`` is on --
the engine's cross-window :class:`~repro.ssd.query_engine.ResultCache`
consulted first, and every chunk job is replayed through one exact
event simulation, fed as each window closes, so latencies, deadline
conformance, and the bottleneck resource are simulation-accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter

import numpy as np

from repro.core.expressions import Expression
from repro.flash.faults import RecoveryPolicy
from repro.flash.packing import words_per_page
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
from repro.ssd.events import (
    StageJob, StageSweep, simulate_stages, sweep_row, urgency_key
)
from repro.ssd.maintenance import (
    MaintenanceConfig,
    MaintenanceManager,
    MaintenanceStats,
)
from repro.ssd.query_engine import TaskColumns


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
        "fault_us", "reconstructed_chunks", "reconstruction_us", "pending",
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
        #: Listed jobs the event sweep has not completed yet.
        self.pending = 0


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
    #: The run's event sweep, fed once per window.
    sweep: StageSweep | None = None
    #: Per chip, its executor's ``estimate_latency_us``, bound once,
    #: and per task key what it said (the scheduler's memo).
    estimators: list = field(default_factory=list)
    est_latency_us: dict[int, float] = field(default_factory=dict)
    #: Queries admitted and not yet served (some job still in flight).
    states: dict[int, _QueryState] = field(default_factory=dict)
    #: The window's sweep rows and, per row, its owner: its query's
    #: state, or a background job's ready time (it belongs to no query).
    window_jobs: list[tuple] = field(default_factory=list)
    window_owners: list[_QueryState | float] = field(default_factory=list)
    #: Queries whose last job has completed, in completion order.
    served: list[ServedQuery] = field(default_factory=list)
    #: piece ids -> (pieces, assembled word block), this run only:
    #: pieces are the same objects exactly when they came from one
    #: cache entry or one shared sense, so a repeated result is
    #: assembled once and its repeats share the frozen block.
    assembled: dict[tuple, tuple] = field(default_factory=dict)
    #: Most any background job waited for idle gaps so far.
    maintenance_lag_s: float = 0.0
    #: Background chip microseconds booked into the sweep this run, per
    #: chip, never released -- the scheduler prices this into its
    #: cross-chip interleave so foreground tails avoid dies busy with GC.
    gc_busy: dict[int, float] = field(default_factory=dict)
    #: Whether any chip error (or chip loss) has been observed this
    #: run -- only then do health weights feed the FTL's stripe
    #: allocation, keeping fault-free runs byte-identical to an SSD
    #: that never heard of health.
    errors_seen: bool = False

    def add_background(self, background: list[StageJob]) -> None:
        """List maintenance jobs for the event replay, as rows, and
        book their chip time."""
        self.window_jobs.extend(job.row for job in background)
        self.window_owners.extend(job.ready_at for job in background)
        for job in background:
            resource = job.resources[0]
            if resource.startswith("chip"):
                chip = int(resource[4:])
                self.gc_busy[chip] = (
                    self.gc_busy.get(chip, 0.0) + job.durations[0] * 1e6
                )


def _frozen(cls: type, values: dict):
    """A frozen dataclass record from every field's value, in order,
    without the ``object.__setattr__`` a field of its ``__init__``;
    pair by pair, so its dict keeps sharing its class's keys."""
    record = object.__new__(cls)
    record.__dict__.update(values.items())
    return record


def _die_seconds(chip: int, what: str, us: float) -> float:
    """``us`` in seconds, checked as it enters a row: finite, >= 0."""
    if 0.0 <= us < math.inf:
        return us * 1e-6
    raise ValueError(f"chip {chip}: {what} time {us!r} us: not finite, >= 0")


def _most_urgent(group: tuple | None, own: tuple) -> tuple:
    """Urgency (:func:`~repro.ssd.events.urgency_key`) of a share group
    that ``own``'s query joins: the scheduler's bucket rule
    (:func:`~repro.service.scheduler._share_groups`) -- earliest
    deadline, highest priority -- so a window's jobs rank at a die as
    its buckets ranked in the schedule."""
    if group is None or group is own:
        return own
    klass = min(group[0], own[0])
    deadline = min(u[1] for u in (group, own) if u[0] == klass)
    merged = (klass, deadline, min(group[2], own[2]))
    return group if merged == group else merged


class QueryService:
    """Accepts timed query submissions, serves them in scheduled,
    sense-shared admission windows (see the package docstring).

    Service-level options beyond the admission/scheduling basics:

    ``result_cache``
        Enable the engine's cross-window
        :class:`~repro.ssd.query_engine.ResultCache`: windows consult
        it before dedup, so traffic repeating earlier windows' shapes
        skips the sensing engine entirely.  The cache lives on the
        engine and survives across :meth:`run` calls (and across
        services sharing one SSD); it is invalidated by any layout
        generation movement (register/unregister/program/erase).
        Off by default -- the synchronous ``SmallSsd.query`` oracle
        and existing baselines stay cache-free.  The service adopts
        the engine's cache as it is: size it up front with
        :meth:`~repro.ssd.query_engine.QueryEngine.enable_result_cache`.

    ``tenant_weights``
        ``client name -> weight`` shares for the ``edf`` policy's
        weighted-fair drain of deadline-free traffic (default weight
        1.0).

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
        sense suspends an in-flight GC erase, at no cost, instead of
        queueing behind it (resumed, the erase first runs as long as
        it was parked, so it finishes; ``ServiceStats.preemptions``
        counts the suspensions and ``maintenance_lag_us`` reports what
        the deferral cost).  Stuck bad blocks are scrubbed out of the
        allocation pool up front, and when the health tracker
        quarantines a chip its live vectors drain to healthy chips
        during probation.
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
        tenant_weights: dict[str, float] | None = None,
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
        self.use_result_cache = result_cache
        if result_cache:
            self.engine.enable_result_cache()
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
        for client, weight in self.tenant_weights.items():
            if not 0 < weight < math.inf:  # NaN too
                raise ValueError(
                    f"tenant weight of {client!r} must be finite and > 0"
                )
        self.admission = AdmissionQueue(
            window_us=window_us,
            max_queries=max_window_queries,
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
        item = (at_us, client, expr, priority, deadline_us)
        return self.submit_traffic([item])[0]

    def submit_traffic(self, submissions) -> list[int]:
        """Enqueue a traffic trace -- ``(at_us, client, expr)`` triples
        or the 5-field ``(at_us, client, expr, priority, deadline_us)``
        items :func:`repro.service.clients.generate_traffic` emits --
        and return their query ids.  All or nothing: every item is
        checked before any is queued, so a refused trace queues none
        and uses up no id."""
        batch = [
            Submission(
                query_id=query_id,
                client=item[1],
                expr=item[2],
                submitted_us=item[0],
                priority=item[3] if len(item) > 3 else 0,
                deadline_us=item[4] if len(item) > 4 else None,
            )
            for query_id, item in enumerate(submissions, self._next_id)
        ]
        self._next_id += len(batch)
        for submission in batch:
            self.admission.submit(submission)
        return [submission.query_id for submission in batch]

    # ------------------------------------------------------------------
    # Execution side
    # ------------------------------------------------------------------

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
        every window's jobs, ready at its close, are fed as it ends to
        the run's one event sweep, so cross-window contention (a window
        queuing behind the previous one's stragglers) is exact, and a
        query is served as soon as its last job completes.  An
        exception out of any step -- the report included -- leaves the
        queue as it was: fix the cause and call ``run()`` again.
        """
        windows = self.admission.windows()
        injector, controllers = self.ssd.fault_injector, self.ssd.controllers
        manager = self.maintenance
        recovery = self.recovery
        if recovery is None and injector is not None and injector.active:
            recovery = RecoveryPolicy()
        run = _Run(
            recovery=recovery,
            faults_before=injector.faults_injected if injector else 0,
            quarantines_before=self.health.quarantines,
            sweep=StageSweep(),
            estimators=[c.executor.estimate_latency_us for c in controllers],
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
            result = self._execute(run, ordered, degraded, offline)
            chip_obs = self._account(run, result, offline)
            self._list_jobs(run, ordered, result, info, ready_s)
            self._observe_health(run, chip_obs, ready_s)
            self._maintain(run, ready_s)
            self._feed(run)
        report = self._report(run, len(windows))
        # The report exists: only now drain the admission queue, so an
        # exception anywhere above (e.g. a query over non-co-located
        # vectors, or a failing feed) leaves the pending submissions
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
            # from healthy silicon instead of failing the chip's tasks;
            # a column no survivor has room for stays parked.
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
    ) -> tuple[TaskColumns, dict[int, QueryInfo]]:
        """Plan/bind the window's queries; returns their chunk tasks
        and the scheduling facts of each query."""
        tasks = TaskColumns()
        info: dict[int, QueryInfo] = {}
        prepare = self.engine.prepare
        for submission in window.submissions:
            prepared = prepare(submission.expr)
            state = _QueryState(submission, prepared)
            state.admitted_us = window.close_us
            run.states[submission.query_id] = state
            info[submission.query_id] = self._query_info(submission)
            tasks.add(submission.query_id, prepared)
        return tasks, info

    def _schedule(self, run: _Run, tasks, info, degraded, offline):
        """Order the window's tasks into the global emission order."""
        order = schedule_window(
            tasks,
            run.estimators,
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
            costs=run.est_latency_us,
        )
        return tasks.take(order)

    def _execute(self, run: _Run, ordered, degraded, offline):
        """Run the ordered tasks: per task, cached words or an outcome."""
        return self.engine.execute_tasks(
            ordered,
            share=self.share_senses,
            use_cache=self.use_result_cache,
            recovery=run.recovery,
            degraded=degraded,
            offline=offline,
            reconstruct=self.ssd.parity,
        )

    def _account(self, run: _Run, result, offline) -> dict[int, list[int]]:
        """Fold the window's outcomes (``_list_jobs`` folds the cache
        hits) into the per-query states and the run totals; returns
        ``chip -> [operations, errors]``, the window's health
        observations.  Every float accumulates in outcome order, on the
        run's own accumulators."""
        run.n_chunk_tasks += len(result.outcomes)
        states = run.states
        chip_obs: dict[int, list[int]] = {}
        for outcome in result.outcomes:
            if outcome is None:
                continue
            task = outcome.task
            state = states[task.query]
            state.pieces[task.chunk] = outcome.data
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

    def _list_jobs(
        self, run: _Run, tasks, result, info, ready_s: float
    ) -> None:
        """List the window's sweep rows (:mod:`repro.ssd.events`) in
        task order (the replay breaks equal-time ties by it), in one
        pass over the task columns.  A cache hit spent nothing and
        cannot fail: it is folded into its query here -- its words are
        the chunk's piece -- and lists the one zero-latency row of its
        query and chip.  An executed chunk lists its own row, its die
        and fault seconds checked here.  Under ``edf`` -- and only
        there: the other policies ignore deadlines -- the rows carry
        the scheduler's intent into the replay (:meth:`_miss_directives`).
        """
        stage = self.engine.stage_constants
        constants = [stage(chip) for chip in range(len(self.ssd.chips))]
        jobs, owners, states = run.window_jobs, run.window_owners, run.states
        outcomes = result.outcomes
        if self.policy == "edf":
            urgency = {q: urgency_key(*job_directives(info[q])) for q in info}
            groups, survivor = self._miss_directives(outcomes, urgency)
        else:
            urgency = dict.fromkeys(info, urgency_key(0.0, None))
            groups, survivor = {}, None
        #: (query, chip) -> its zero-latency row.
        idle_rows: dict[tuple[int, int], tuple] = {}
        list_job, list_owner = jobs.append, owners.append  # hot loop
        cached_senses = 0
        for position, (query, chunk, chip, words) in enumerate(
            zip(tasks.query, tasks.chunk, tasks.chip, result.cached)
        ):
            state = states[query]
            if words is not None:
                state.pieces[chunk] = words
                state.cached_chunks += 1
                cached_senses += state.prepared.chunk_senses[chunk]
                state.pending += 1
                row = idle_rows.get((query, chip))
                if row is None:
                    dma_s, ext_s, resources = constants[chip]
                    row = idle_rows[(query, chip)] = sweep_row(
                        ready_s, (0.0, dma_s, ext_s), resources, 0.0, False,
                        urgency[query])
                list_job(row)
                list_owner(state)
                continue
            outcome, own = outcomes[position], urgency[query]
            if groups:
                leader = outcome.leader
                own = groups.get(position if leader is None else leader, own)
            dma_s, ext_s, resources = constants[chip]
            die_s = _die_seconds(chip, "die", outcome.latency_us)
            fault_s = _die_seconds(chip, "fault", outcome.recovery_us)
            list_job(sweep_row(ready_s, (die_s, dma_s, ext_s), resources,
                               fault_s, False, own))
            list_owner(state)
            state.pending += 1 + len(outcome.recovery_work)
            for rchip, busy_us in outcome.recovery_work:
                # Survivor reads of a parity reconstruction occupy
                # real dies: they join the event simulation as
                # query-owned jobs, so the query's completion time
                # and the survivors' utilization both see them.  A
                # zero-length entry is a marker: this chunk reuses a
                # page another job of the window read on that die, and
                # queues behind the read.
                die_s = _die_seconds(rchip, "die", busy_us)
                dma_s, ext_s, resources = constants[rchip]
                list_job(sweep_row(ready_s, (die_s, dma_s, ext_s), resources,
                                   0.0, False, survivor or own))
                list_owner(state)
        run.cached_senses += cached_senses

    @staticmethod
    def _miss_directives(
        outcomes: list, urgency: dict
    ) -> tuple[dict[int, tuple], tuple | None]:
        """The ``edf`` urgencies of the window's executed jobs: per
        leader position, that of its share group, and that of the
        window's survivor reads.

        A job waits for the data it shares, so urgency is inherited
        the way the scheduler's share-group buckets inherit it: every
        job of a share group, leader and followers, carries the
        group's earliest deadline and highest priority (a deadline
        follower must not overtake the best-effort sense it waits
        for -- it lends the sense its deadline instead), and every
        survivor read of the window, and every marker waiting for
        one, those of the window's reconstructed queries.
        """
        groups: dict[int, tuple] = {}
        survivor = None
        for outcome in outcomes:
            if outcome is None:
                continue
            own = urgency[outcome.task.query]
            leader = outcome.leader
            if leader is not None:
                group = groups.get(leader)
                if group is None:
                    group = urgency[outcomes[leader].task.query]
                groups[leader] = _most_urgent(group, own)
            if outcome.reconstructed:
                survivor = _most_urgent(survivor, own)
        return groups, survivor

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

    def _feed(self, run: _Run) -> None:
        """Feed the window's listing to the run's sweep, in one call."""
        jobs, owners = run.window_jobs, run.window_owners
        run.window_jobs, run.window_owners = [], []
        done = simulate_stages(jobs, sweep=run.sweep, tags=owners)
        self._complete(run, done)

    def _complete(self, run: _Run, done: list[tuple]) -> None:
        """Fold completions ``(owner, end_s)`` into the maintenance lag
        and their queries, serving (and dropping) those now done."""
        lag_s = run.maintenance_lag_s
        for owner, end_s in done:
            if owner.__class__ is not _QueryState:
                # A background job, owned by its ready time: what
                # deferring it to the die's idle gaps cost it.
                end_s -= owner
                if end_s > lag_s:
                    lag_s = end_s
                continue
            end_us = end_s * 1e6
            if end_us > owner.completed_us:
                owner.completed_us = end_us
            owner.pending -= 1
            if not owner.pending:
                run.served.append(self._served(owner, run.assembled))
                del run.states[owner.submission.query_id]
        run.maintenance_lag_s = lag_s

    def _report(self, run: _Run, n_windows: int) -> ServiceReport:
        """Close the run's event sweep, fold its last completions --
        every query lists at least one job, so all are served then --
        and build the report (the stats are a fold of the served
        queries plus the run's totals and deltas)."""
        done, sim = run.sweep.close()
        self._complete(run, done)
        served = tuple(sorted(run.served, key=attrgetter("query_id")))
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
            maintenance_lag_us=run.maintenance_lag_s * 1e6,
            wear_min=wear.pe_min,
            wear_max=wear.pe_max,
            wear_mean=wear.pe_mean,
            # The accumulated totals, under the names they were
            # counted under.
            **{f.name: getattr(run, f.name) for f in fields(_RunTotals)},
        )
        return ServiceReport(queries=served, stats=stats)

    def _served(self, state: _QueryState, assembled: dict) -> ServedQuery:
        submission = state.submission
        page_bits = self.ssd.page_bits
        if state.error is not None:
            # A failed query has no assembled result (some chunks
            # never produced data): an empty frozen block.  It still
            # reports the flash work and sim time its attempts cost.
            words = np.empty((0, words_per_page(page_bits)), np.uint64)
            words.setflags(write=False)
            n_bits = 0
        else:
            key = tuple(map(id, state.pieces))
            if key not in assembled:
                assembled[key] = (
                    tuple(state.pieces),
                    self.engine.assemble_bits(state.pieces),
                )
            words = assembled[key][1]
            n_bits = state.prepared.n_bits
        result = _frozen(QueryResult, {
            "words": words,
            "page_bits": page_bits,
            "n_bits": n_bits,
            "n_senses": state.n_senses,
            "latency_us": max(state.chip_busy.values(), default=0.0),
            "energy_nj": state.energy_nj,
            "makespan_us": state.completed_us - state.admitted_us,
            "template_hit": state.prepared.template_hit,
        })
        return _frozen(ServedQuery, {
            "query_id": submission.query_id,
            "client": submission.client,
            "expr": submission.expr,
            "submitted_us": submission.submitted_us,
            "admitted_us": state.admitted_us,
            "completed_us": state.completed_us,
            "result": result,
            "shared_chunks": state.shared_chunks,
            "cached_chunks": state.cached_chunks,
            "priority": submission.priority,
            "deadline_us": submission.deadline_us,
            "error": state.error,
            "retries": state.retries,
            "degraded_chunks": state.degraded_chunks,
            "fault_overhead_us": state.fault_us,
            "reconstructed_chunks": state.reconstructed_chunks,
            "reconstruction_us": state.reconstruction_us,
        })
