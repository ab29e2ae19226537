"""Plan executor: runs MWS command plans on the functional chip.

One cost model, two ways to drive the chip, one decision between them:

* the **step walk** (:meth:`MwsExecutor.execute`, and
  :meth:`MwsExecutor.execute_degraded` for margin reads) drives the
  chip one sense at a time -- the reference semantics, and the oracle
  every batched route is property-tested against;
* the **batch** (:meth:`MwsExecutor.execute_batch`, and
  :meth:`MwsExecutor.execute_degraded_batch` for margin reads) drains
  a whole queue of plans through one skeleton: flatten the queue's
  sense commands plan-major, sense them in one vectorized chip call,
  replay the latch protocol per ISCM-signature group through
  :meth:`~repro.flash.latches.LatchBank.capture_batch`, and charge
  the timing/energy counters plan by plan in the exact scalar order
  -- so results, latch end-state and every counter are bit-for-bit
  what the walk leaves, while Python dispatch drops from O(senses) to
  O(signature groups).  Only the sensing call differs by route: the
  packed plane reduces words
  (:meth:`~repro.flash.chip.NandFlashChip.execute_sense_batch`), an
  unpacked or error-injecting chip batches through the V_TH plane
  with the walk's exact stochastic draw schedule
  (:meth:`~repro.flash.chip.NandFlashChip.execute_sense_batch_vth`),
  and margin reads force the V_TH comparison on a packed chip;
* :meth:`MwsExecutor.batchable` is the one probe that says whether a
  queue has a batched equivalent at all.  It executes, draws and
  counts nothing, so a caller asks it once per queue, before anything
  else happens, and walks the plans one by one on a no.

:meth:`MwsExecutor.execute_batch_reuse` is the batch with cross-window
sense-row reuse, for :class:`repro.ssd.query_engine.StackCache`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.core.planner import Plan, SenseStep, XorStep
from repro.flash.chip import NandFlashChip
from repro.flash.packing import pack_bits, pack_rows, unpack_words
from repro.flash.timing import TimingModel


@dataclass
class ExecutionResult:
    """Result of one in-flash computation.

    The result page is held natively packed (``uint64`` words) on the
    packed data plane and as 0/1 bytes otherwise; either view converts
    lazily on first access, so controller-side pipelines can stay
    packed while direct library users keep reading ``bits``.

    Treat it as a value: nothing assigns to one after it is built
    except its own lazy views.  It is deliberately not ``frozen`` --
    the batched drain builds one per plan, and a frozen dataclass
    pays an ``object.__setattr__`` per field to be constructed.
    """

    n_senses: int
    latency_us: float
    energy_nj: float
    n_bits: int
    _bits: np.ndarray | None = field(default=None, repr=False)
    _words: np.ndarray | None = field(default=None, repr=False)

    @property
    def bits(self) -> np.ndarray:
        """Unpacked 0/1 result page (uint8)."""
        if self._bits is None:
            self._bits = unpack_words(self._words, self.n_bits)
        return self._bits

    @property
    def words(self) -> np.ndarray:
        """Packed uint64 result page."""
        if self._words is None:
            self._words = pack_bits(self._bits)
        return self._words


def _batch_info(plan: Plan) -> tuple | None:
    """Memoized batch-execution metadata of one plan.

    Returns ``(group_key, capture_steps, charges, commands)`` where
    ``group_key`` is the hash-cheap ``(plane, ISCM-code tuple)`` lane
    grouping key, ``capture_steps`` the flag sequence
    :meth:`~repro.flash.latches.LatchBank.capture_batch` consumes,
    ``charges`` the per-step ``(n_wordlines, n_blocks)`` cost profile
    (``None`` marking a latch XOR), and ``commands`` the plan's sense
    commands in step order -- or ``None`` when the plan has no batched
    equivalent (a rogue cross-plane XOR, left to the scalar protocol).
    Plans are immutable value objects the engine's bound-plan cache
    reuses across windows, so the derivation runs once per plan.

    Thread safety: the memo is a pure derivation of the frozen plan,
    stored with a single atomic ``object.__setattr__`` -- two worker
    threads racing here compute the identical tuple and one write
    wins, so no lock is needed (same contract as
    :meth:`MwsExecutor.estimate_latency_us`'s memo).
    """
    cached = plan.__dict__.get("_batch_info", False)
    if cached is not False:
        return cached
    codes: list[int] = []
    capture_steps: list = []
    charges: list[tuple[int, int] | None] = []
    commands: list = []
    info: tuple | None
    for step in plan.steps:
        if isinstance(step, SenseStep):
            iscm = step.command.iscm
            codes.append(
                (iscm.inverse << 3)
                | (iscm.init_sense << 2)
                | (iscm.init_cache << 1)
                | iscm.transfer
            )
            capture_steps.append(iscm)
            targets = step.command.targets
            charges.append(
                (sum([len(wls) for _, wls in targets]), len(targets))
            )
            commands.append(step.command)
        elif isinstance(step, XorStep):
            if step.plane != plan.plane:
                object.__setattr__(plan, "_batch_info", None)
                return None
            codes.append(-1)
            capture_steps.append(None)
            charges.append(None)
        else:  # pragma: no cover - plans only hold the two kinds
            raise TypeError(f"unknown plan step {step!r}")
    info = (
        (plan.plane, tuple(codes)),
        tuple(capture_steps),
        tuple(charges),
        tuple(commands),
    )
    object.__setattr__(plan, "_batch_info", info)
    return info


class MwsExecutor:
    """Drives a :class:`NandFlashChip` through a command plan."""

    def __init__(self, chip: NandFlashChip) -> None:
        self.chip = chip
        self.timing = TimingModel()
        #: Python-level dispatches this executor performed: +1 per
        #: step walk, +1 per batched queue.  The query engine reads
        #: deltas of this.
        self.dispatches = 0
        #: Chip-confinement token for concurrent dispatch: whoever
        #: drains this executor from a worker thread must hold this
        #: lock for the whole drain (``QueryEngine.execute_tasks``
        #: does), so chip state -- latches, counters, plane array,
        #: dispatch counter -- only ever sees one thread at a time
        #: even when several services execute over one SSD.
        self.lock = threading.Lock()
        #: Steady-state window replay memo (see execute_batch_reuse):
        #: (plans, per-plan rows, per-plan C-latch rows, latch op
        #: marks).  One window deep -- repeats of the *last* window
        #: are the service steady state.
        self._window_memo: tuple | None = None
        #: (timing instance, (n_wordlines, n_blocks) -> tMWS us) for
        #: :meth:`estimate_latency_us`.  The model is a pure function
        #: of the shape, and the shapes a geometry admits are few.
        self._t_mws_table: tuple[TimingModel, dict] = (self.timing, {})

    def execute(self, plan: Plan) -> ExecutionResult:
        """Execute one plan, one sense at a time (the step walk)."""
        return self._walk(plan, force_vth=False, extra_senses=0)

    def execute_degraded(
        self, plan: Plan, *, extra_senses: int = 0
    ) -> ExecutionResult:
        """Execute a plan on the V_TH read-retry path (degraded mode).

        The fault-recovery fallback: every sense evaluates through the
        per-cell V_TH comparison (``force_vth``) instead of the packed
        word reduce -- on an error-free chip this is bit-identical to
        :meth:`execute`, just slower, and it sidesteps the packed
        plane a transient sense fault condemned.  ``extra_senses``
        models the margin-read ladder real firmware walks per sense
        (each charged at the step's own MWS shape), so degraded
        latency/energy honestly exceed the healthy path.
        """
        return self._walk(plan, force_vth=True, extra_senses=extra_senses)

    def _walk(
        self, plan: Plan, *, force_vth: bool, extra_senses: int
    ) -> ExecutionResult:
        """The step walk behind :meth:`execute` and
        :meth:`execute_degraded`: drive the chip through the plan's
        steps in order and report the counter deltas."""
        self.dispatches += 1
        chip = self.chip
        counters = chip.counters
        busy_before = counters.busy_us
        energy_before = counters.energy_nj
        senses_before = counters.senses
        for step in plan.steps:
            if isinstance(step, SenseStep):
                chip.execute_sense(
                    list(step.command.targets),
                    step.command.iscm,
                    force_vth=force_vth,
                )
                for _ in range(extra_senses):
                    chip.charge_sense(step.n_wordlines, step.n_blocks)
            elif isinstance(step, XorStep):
                chip.xor_command(step.plane)
            else:  # pragma: no cover - plans only hold the two kinds
                raise TypeError(f"unknown plan step {step!r}")
        common = dict(
            n_senses=counters.senses - senses_before,
            latency_us=counters.busy_us - busy_before,
            energy_nj=counters.energy_nj - energy_before,
            n_bits=chip.geometry.page_size_bits,
        )
        if chip.packed:
            return ExecutionResult(
                _words=chip.output_cache_words(plan.plane), **common
            )
        return ExecutionResult(
            _bits=chip.output_cache(plan.plane), **common
        )

    def batchable(
        self,
        plans: list[Plan],
        *,
        retried: bool = False,
        margin: bool = False,
    ) -> bool:
        """Whether the whole queue has a batched equivalent on the
        route it is about to take: plain, ``retried`` (charged from
        attempt multiplicities) or ``margin`` (degraded V_TH reads).

        The one scalar-vs-batched decision.  It probes only --
        nothing executes, draws or counts -- so a drain asks once per
        queue before anything else happens and, on a no, walks the
        plans one by one.  No means:

        * a plan with a cross-plane XOR: only the scalar latch
          protocol can judge it;
        * a plan targeting an injected bad block: the walk ends that
          plan alone, at its first sense, with a typed fault -- an
          outcome no batch and no attempt count expresses;
        * off the packed plane, a ``retried`` or ``margin`` route:
          every attempt there draws fresh V_TH noise, and the margin
          batch is only proven against the packed plane's ladder;
        * on the V_TH plane (an unpacked chip, or margin reads), a
          window the chip declines to schedule
          (:meth:`~repro.flash.chip.NandFlashChip.vth_batch_schedule`):
          an MLC-programmed target, whose multi-reference draw stays
          per sense.
        """
        chip = self.chip
        if not chip.packed and (retried or margin):
            return False
        infos = self._batch_infos(plans)
        if infos is None or self._targets_bad_block(infos):
            return False
        if chip.packed and not margin:
            return True
        # The V_TH plane knows which windows it declines; its prepared
        # schedule is draw-free, and stays cached for the batch that
        # follows a yes.
        commands = self._batch_layout(infos)[0]
        return chip.vth_batch_schedule(commands, force_vth=margin) is not None

    def _targets_bad_block(self, infos: list[tuple]) -> bool:
        """Whether any sense of the queue targets an injected bad
        block, by the injector's side-effect-free probe (asking is
        not a fault; the walk that then runs counts the hit)."""
        chip = self.chip
        injector = chip.fault_injector
        if injector is None or not injector.config.bad_blocks:
            return False
        probe = injector.has_bad_block
        chip_id = chip.fault_chip_id
        return any(
            probe(chip_id, address)
            for info in infos
            for command in info[3]
            for address, _ in command.targets
        )

    def execute_batch(
        self, plans: list[Plan], attempts: list[int] | None = None
    ) -> list[ExecutionResult]:
        """Drain a :meth:`batchable` queue of plans as one batch (see
        module docstring): the packed plane senses word-wide, an
        unpacked or error-injecting chip through the V_TH plane with
        the walk's exact draw schedule.

        ``attempts`` is the fault-recovery drain's per-plan attempt
        multiplicity (``retried`` route): plan ``i`` is charged as
        ``attempts[i]`` back-to-back scalar executions -- its whole
        charge sequence, its read disturb and one result transfer per
        attempt, with the per-plan deltas spanning all of them.  A
        retried plan re-senses the same error-free bits, so sensing
        and latch replay still run once.  ``None`` is one clean
        attempt per plan: the fault-free queue.
        """
        return self._run_batch(plans, attempts=attempts)

    def execute_degraded_batch(
        self, plans: list[Plan], *, extra_senses: int = 0
    ) -> list[ExecutionResult]:
        """Drain a :meth:`batchable` (``margin``) queue on the
        read-retry V_TH path: the batched counterpart of
        :meth:`execute_degraded`.  Every sense evaluates through the
        per-cell V_TH comparison in one pass -- bit-identical to the
        per-plan degraded walk on an error-free chip -- and the
        margin-read ladder (``extra_senses``) charges per step exactly
        as the walk does.
        """
        return self._run_batch(plans, margin=True, extra_senses=extra_senses)

    def _run_batch(
        self,
        plans: list[Plan],
        *,
        attempts: list[int] | None = None,
        margin: bool = False,
        extra_senses: int = 0,
    ) -> list[ExecutionResult]:
        """The batch skeleton behind :meth:`execute_batch` and
        :meth:`execute_degraded_batch`: layout, sense (the one
        route-dependent step), latch replay, charging."""
        chip = self.chip
        if not plans:
            return []
        infos = self._batch_infos(plans)
        # The V_TH routes re-ask the probe (their schedule is cached by
        # now).  The packed plane checks only for a cross-plane XOR:
        # a bad block raises its own typed fault out of the sense.
        vth = margin or not chip.packed
        if infos is None or (
            vth
            and not self.batchable(
                plans, retried=attempts is not None, margin=margin
            )
        ):
            raise RuntimeError(
                "the queue has no batched equivalent on this route; "
                "ask batchable() first and walk the plans instead"
            )
        self.dispatches += 1
        # Every plan's sense commands flatten plan-major; plans
        # sharing a (plane, ISCM step signature) replay together.
        commands, sense_base, lane_groups = self._batch_layout(infos)
        if not vth:
            payload = chip.execute_sense_batch(commands)
        else:
            # The probe ruled out the windows the V_TH plane declines
            # (and left their schedule cached).  Margin reads come
            # back as bits and re-enter the packed bank as words.
            payload = chip.execute_sense_batch_vth(
                commands, force_vth=margin
            )
            if margin:
                payload = pack_rows(payload)
        if attempts is not None:
            # The batch accounted one attempt's read disturb; failed
            # attempts sensed the same wordlines again (``note_read``
            # is a pure counter).
            block_of = chip.plane_array.block
            for info, n in zip(infos, attempts):
                if n > 1:
                    for command in info[3]:
                        for address, wordlines in command.targets:
                            block_of(address).note_read(
                                (n - 1) * len(wordlines)
                            )
        # The queue's last plan per plane lands its final latch state
        # in the bank exactly as scalar execution would.
        plan_payloads = self._replay_latches(
            plans, infos, payload, sense_base, lane_groups
        )
        return self._charge_results(
            infos,
            plan_payloads,
            packed=chip.packed,
            extra_senses=extra_senses,
            attempts=attempts,
        )

    def execute_batch_reuse(
        self,
        plans: list[Plan],
        cached,
        store,
    ) -> tuple[list[ExecutionResult], int] | None:
        """:meth:`execute_batch` with cross-window sense-row reuse.

        ``cached`` maps a :class:`~repro.core.planner.Plan` to its
        memoized ``(sense rows, (block, n_wordlines) read pairs)``
        from an earlier window; ``store(plan, rows, reads)`` is called
        for every plan sensed fresh so the caller can extend the memo.
        The caller (:class:`repro.ssd.query_engine.StackCache`) owns
        staleness: it hands in entries only while its layout/content
        stamp is unchanged, which is exactly when the packed plane
        would re-derive identical rows.

        Only the *sensing* of reused plans is skipped -- the latch
        protocol replays over the whole window (so per-plane landing
        state is what scalar execution would leave), cost counters
        charge plan-by-plan, read disturb is re-applied from the
        memoized pairs (``note_read`` is a pure counter), and the
        dispatch count moves by one exactly as a fresh batch would.
        Returns ``(results, reused_plan_count)``, or ``None`` when
        the queue has no batched equivalent (caller falls back to
        :meth:`execute_batch`).

        An exact *steady-state* repeat -- every plan hit, the same
        plan/row population as the previous window through this
        executor, and no latch activity on the landing planes since
        (``LatchBank.ops`` marks) -- additionally skips the latch
        replay itself: the replay is a pure function of (plans, rows),
        so its cached per-plan C-latch rows are bit-identical, and the
        banks already hold the landing state the replay would copy in.
        Cost charging and read-disturb accounting still run per
        window (their float accumulation order is part of the
        contract), so counters stay identical too.
        """
        chip = self.chip
        if not plans or not chip.packed:
            return None
        infos = self._batch_infos(plans)
        if infos is None:
            return None
        commands, sense_base, lane_groups = self._batch_layout(infos)
        plan_rows: list = [None] * len(plans)
        hit_reads: list = []
        miss_slices: list[tuple[int, int, int]] = []
        miss_commands: list = []
        for index, info in enumerate(infos):
            entry = cached.get(plans[index])
            if entry is not None:
                plan_rows[index] = entry[0]
                hit_reads.append(entry[1])
            else:
                start = len(miss_commands)
                miss_commands.extend(info[3])
                miss_slices.append(
                    (index, start, start + len(info[3]))
                )
        memo = self._window_memo
        if (
            not miss_commands
            and memo is not None
            and len(memo[0]) == len(plans)
            and all(a is b for a, b in zip(memo[0], plans))
            and all(a is b for a, b in zip(memo[1], plan_rows))
            and all(
                chip.latches[plane].ops == mark
                for plane, mark in memo[3]
            )
        ):
            for reads in hit_reads:
                for block, n_wordlines in reads:
                    block.note_read(n_wordlines)
            self.dispatches += 1
            return (
                self._charge_results(infos, memo[2], packed=True),
                len(hit_reads),
            )
        if miss_commands:
            # Fresh senses charge their own read disturb inside
            # execute_sense_batch; reused plans re-apply theirs below.
            sensed = chip.execute_sense_batch(miss_commands)
            for index, start, stop in miss_slices:
                rows = sensed[start:stop]
                # The batch just resolved (or revalidated) every
                # command's blocks; read them back off the command
                # instead of resolving each address again.
                reads = tuple(
                    (block, len(block_rows))
                    for command in infos[index][3]
                    for block, block_rows in command._resolved[1]
                )
                plan_rows[index] = rows
                store(plans[index], rows, reads)
        for reads in hit_reads:
            for block, n_wordlines in reads:
                block.note_read(n_wordlines)
        self.dispatches += 1
        # An all-miss window sensed exactly ``commands``, plan-major:
        # its rows are the window's payload as they stand.
        if not hit_reads:
            words = sensed
        elif len(plan_rows) == 1:
            words = plan_rows[0]
        else:
            words = np.concatenate(plan_rows, axis=0)
        plan_words = self._replay_latches(
            plans, infos, words, sense_base, lane_groups
        )
        # Memoize this window's replay for the steady-state repeat:
        # valid only while the same plan and row objects recur and the
        # landed planes' latch op marks are untouched.
        self._window_memo = (
            tuple(plans),
            tuple(plan_rows),
            plan_words,
            tuple(
                (plane, chip.latches[plane].ops)
                for plane in {plan.plane for plan in plans}
            ),
        )
        return (
            self._charge_results(infos, plan_words, packed=True),
            len(hit_reads),
        )

    # ------------------------------------------------------------------
    # Shared batch machinery
    # ------------------------------------------------------------------

    @staticmethod
    def _batch_infos(plans: list[Plan]) -> list[tuple] | None:
        """Batch metadata of every plan, or ``None`` when any plan has
        no batched equivalent (a rogue cross-plane XOR)."""
        infos = []
        for plan in plans:
            info = plan.__dict__.get("_batch_info", False)
            if info is False:
                info = _batch_info(plan)
            if info is None:
                return None
            infos.append(info)
        return infos

    @staticmethod
    def _batch_layout(
        infos: list[tuple],
    ) -> tuple[list, list[int], dict[tuple, list[int]]]:
        """Flatten sense commands plan-major and group plan lanes by
        their ``(plane, ISCM signature)`` key."""
        commands: list = []
        sense_base: list[int] = []
        lane_groups: dict[tuple, list[int]] = {}
        for index, (gkey, _, _, plan_commands) in enumerate(infos):
            sense_base.append(len(commands))
            commands.extend(plan_commands)
            lane_groups.setdefault(gkey, []).append(index)
        return commands, sense_base, lane_groups

    def _replay_latches(
        self,
        plans: list[Plan],
        infos: list[tuple],
        payload: np.ndarray,
        sense_base: list[int],
        lane_groups: dict[tuple, list[int]],
    ) -> list[np.ndarray]:
        """Replay the latch protocol per lane group and return each
        plan's final C-latch row.  ``payload`` holds one row per
        flattened sense command -- packed ``uint64`` words or unpacked
        0/1 bits, matching the chip's latch representation."""
        chip = self.chip
        last_on_plane: dict[int, int] = {}
        for index, plan in enumerate(plans):
            last_on_plane[plan.plane] = index
        out: list[np.ndarray] = [None] * len(plans)  # type: ignore[list-item]
        for (plane, _), members in lane_groups.items():
            capture_steps = infos[members[0]][1]
            matrices = []
            ordinal = 0
            for step in capture_steps:
                if step is None:
                    continue
                rows = np.asarray(
                    [sense_base[i] + ordinal for i in members]
                )
                matrices.append(payload[rows])
                ordinal += 1
            landing = last_on_plane[plane]
            cache_rows = chip.latches[plane].capture_batch(
                capture_steps,
                matrices,
                land_lane=(
                    members.index(landing) if landing in members else None
                ),
            )
            for lane, i in enumerate(members):
                out[i] = cache_rows[lane]
        return out

    def _charge_results(
        self,
        infos: list[tuple],
        payloads: list[np.ndarray],
        *,
        packed: bool,
        extra_senses: int = 0,
        attempts: list[int] | None = None,
    ) -> list[ExecutionResult]:
        """Charge counters plan-by-plan in scalar step order and build
        the per-plan results.

        Performs the same sequence of counter additions the scalar
        loop performs -- including one extra ``charge_sense``-shaped
        addition per sense per margin read (``extra_senses``, the
        degraded ladder), and the whole per-plan sequence once per
        attempt (``attempts``, the retry loop: a failed attempt
        occupied the die and shipped its discarded page) -- so
        per-plan latency/energy deltas and the chip counters
        themselves stay float-identical (charge_sense/charge_xor
        inlined with the memoized cost cache -- queue hot loop).
        """
        chip = self.chip
        counters = chip.counters
        cost_cache = chip._mws_cost_cache
        charge_sense = chip.charge_sense
        xor_cost = chip.power.read_energy_nj(1.0)
        n_bits = chip.geometry.page_size_bits
        result = ExecutionResult
        results = []
        for index, (_, _, charges, _) in enumerate(infos):
            busy_before = counters.busy_us
            energy_before = counters.energy_nj
            senses_before = counters.senses
            for _ in range(1 if attempts is None else attempts[index]):
                for charge in charges:
                    if charge is None:  # latch XOR
                        counters.busy_us += 1.0
                        counters.energy_nj += xor_cost
                        continue
                    for _ in range(1 + extra_senses):
                        cost = cost_cache.get(charge)
                        if cost is None:
                            charge_sense(charge[0], charge[1])
                            continue
                        counters.senses += 1
                        counters.wordlines_sensed += charge[0]
                        counters.busy_us += cost[0]
                        counters.energy_nj += cost[1]
                # The result leaves the chip once per execution, as
                # in the scalar path's output_cache call.
                counters.transfers_out += 1
            results.append(
                result(
                    counters.senses - senses_before,
                    counters.busy_us - busy_before,
                    counters.energy_nj - energy_before,
                    n_bits,
                    None if packed else payloads[index],
                    payloads[index] if packed else None,
                )
            )
        return results

    def estimate_latency_us(self, plan: Plan) -> float:
        """Latency of a plan from the physically derived tMWS model,
        without executing it.

        Memoized on the plan object: plans are frozen value objects
        the engine's bound-plan cache reuses across windows, and the
        service scheduler estimates every window's buckets from this
        -- the model walk runs once per plan, not once per window.
        The memo is keyed on this executor's ``timing`` instance, so
        swapping in a differently parameterized ``TimingModel`` (or
        estimating one plan through two executors) recomputes instead
        of serving a stale value; bound plans belong to one chip, so
        in the steady state the key never changes.  Like
        ``_batch_info``, the memo is a pure derivation stored with one
        atomic ``__setattr__`` -- racing threads write the identical
        value, so it needs no lock.
        """
        timing = self.timing
        cached = plan.__dict__.get("_est_latency_us")
        if cached is not None and cached[0] is timing:
            return cached[1]
        # A fresh plan: one walk of its steps serves this estimate and
        # the batched drain that follows (``_batch_info``), and each
        # sense shape's tMWS is modelled once per timing instance.
        info = _batch_info(plan)
        profile = plan.sense_profile() if info is None else info[2]
        table = self._t_mws_table
        if table[0] is not timing:
            table = self._t_mws_table = (timing, {})
        t_mws_us = table[1]
        total = 0.0
        for shape in profile:
            if shape is None:  # a latch XOR: no sense time
                continue
            us = t_mws_us.get(shape)
            if us is None:
                us = t_mws_us[shape] = timing.t_mws_us(*shape)
            total += us
        object.__setattr__(plan, "_est_latency_us", (timing, total))
        return total
