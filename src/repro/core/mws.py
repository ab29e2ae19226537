"""Plan executor: runs MWS command plans on the functional chip.

One cost model, two ways to drive the chip, one decision between them:

* the **step walk** (:meth:`MwsExecutor.execute`, and
  :meth:`MwsExecutor.execute_degraded` for margin reads) drives the
  chip one sense at a time -- the reference semantics, the oracle the
  batch is property-tested against, and the only route of an
  error-injecting chip or a margin read, whose senses draw or compare
  through V_TH;
* the **batch** (:meth:`MwsExecutor.execute_batch`) drains a whole
  queue of plans on an error-free chip through one skeleton: flatten
  the queue's sense commands plan-major, reduce them word-wide in one
  vectorized chip call
  (:meth:`~repro.flash.chip.NandFlashChip.execute_sense_batch`),
  replay the latch protocol per ISCM-signature group through
  :meth:`~repro.flash.latches.LatchBank.capture_batch` (a plan that
  is one plain sense takes its sensed row as its result), and charge
  the timing/energy counters plan by plan in the exact scalar order
  -- so results, latch end-state and every counter are bit-for-bit
  what the walk leaves, while Python dispatch drops from O(senses) to
  O(signature groups);
* :meth:`MwsExecutor.batchable` is the one probe that says whether a
  queue has a batched equivalent at all.  It executes, draws and
  counts nothing, so a caller asks it once per queue, before anything
  else happens, and walks the plans one by one on a no.

:meth:`MwsExecutor.execute_batch_reuse` is the batch with cross-window
sense-row reuse, for :class:`repro.ssd.query_engine.StackCache`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.planner import Plan, SenseStep, XorStep
from repro.flash.chip import NandFlashChip
from repro.flash.packing import unpack_words
from repro.flash.timing import TimingModel


@dataclass
class ExecutionResult:
    """Result of one in-flash computation.

    The result page is held packed (``uint64`` words, ones-padded);
    ``bits`` unpacks it lazily on first access, so controller-side
    pipelines stay packed while direct library users keep reading
    bits.

    Treat it as a value: nothing assigns to one after it is built
    except its own lazy views.  It is deliberately not ``frozen`` --
    the batched drain builds one per plan, and a frozen dataclass
    pays an ``object.__setattr__`` per field to be constructed.
    """

    n_senses: int
    latency_us: float
    energy_nj: float
    n_bits: int
    #: The packed uint64 result page.
    words: np.ndarray = field(repr=False)
    _bits: np.ndarray | None = field(default=None, repr=False)

    @property
    def bits(self) -> np.ndarray:
        """Unpacked 0/1 result page (uint8)."""
        if self._bits is None:
            self._bits = unpack_words(self.words, self.n_bits)
        return self._bits


class BatchLayout(NamedTuple):
    """What a batch derives from its plans alone
    (:meth:`MwsExecutor.layout`): a stripe of chips running the same
    queue prepares it once."""

    plans: list[Plan]
    infos: list[tuple]  # per plan, its _batch_info
    commands: list  # every plan's sense commands, plan-major
    #: Per ``(plane, ISCM signature)`` lane group: ``(plane, capture
    #: steps, per sense step its lanes' payload rows (a slice or an
    #: index array), the lanes' plan indices, the landing lane or
    #: None)``.  A group of one plain sense has steps ``None`` and per
    #: lane its payload row index: that sensed row is its result.
    groups: list[tuple]


#: ISCM code of a plain sense (both latches initialised, transfer on,
#: not inverse): it leaves the sensed page itself in the C-latch.
_PLAIN_SENSE = 0b0111


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
        return ExecutionResult(
            counters.senses - senses_before,
            counters.busy_us - busy_before,
            counters.energy_nj - energy_before,
            chip.geometry.page_size_bits,
            chip.output_cache_words(plan.plane),
        )

    def batchable(self, plans: list[Plan]) -> bool:
        """Whether the whole queue has a batched equivalent.

        The one scalar-vs-batched decision.  It probes only --
        nothing executes, draws or counts -- so a drain asks once per
        queue before anything else happens and, on a no, walks the
        plans one by one.  No means:

        * an error-injecting chip: every sense there draws fresh V_TH
          noise, and the walk is the one evaluation that draws it;
        * a plan with a cross-plane XOR: only the scalar latch
          protocol can judge it;
        * a plan targeting an injected bad block: the walk ends that
          plan alone, at its first sense, with a typed fault -- an
          outcome no batch and no attempt count expresses.
        """
        if self.chip.sensing.inject_errors:
            return False
        infos = self._batch_infos(plans)
        return infos is not None and not self._targets_bad_block(infos)

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
        self,
        plans: list[Plan] | BatchLayout,
        attempts: list[int] | None = None,
        *,
        resolved: list[tuple] | None = None,
    ) -> list[ExecutionResult]:
        """Drain a :meth:`batchable` queue of plans as one batch (see
        module docstring): sense every command word-wide in one chip
        call, replay the latches, charge plan by plan.  ``plans`` may
        be the queue's prepared :meth:`layout`.

        ``attempts`` is the fault-recovery drain's per-plan attempt
        multiplicity: plan ``i`` is charged as ``attempts[i]``
        back-to-back scalar executions -- its whole charge sequence,
        its read disturb and one result transfer per attempt, with the
        per-plan deltas spanning all of them.  A retried plan
        re-senses the same error-free bits, so sensing and latch
        replay still run once.  ``None`` is one clean attempt per
        plan: the fault-free queue.  ``resolved`` is the chip's
        resolution of the queue's commands, if the caller holds it:
        the sense then resolves nothing.

        An error-injecting chip is refused before anything moves.  A
        bad block raises its own typed fault out of the sense.
        """
        layout = plans
        if not isinstance(layout, BatchLayout):
            layout = self.layout(plans)
        if layout is not None and not layout.plans:
            return []
        chip = self.chip
        if layout is None or chip.sensing.inject_errors:
            raise RuntimeError(
                "the queue has no batched equivalent on this chip; "
                "ask batchable() first and walk the plans instead"
            )
        self.dispatches += 1
        payload = chip.execute_sense_batch(layout.commands, resolved)
        if attempts is not None:
            # The batch accounted one attempt's read disturb; failed
            # attempts sensed the same wordlines again (``note_read``
            # is a pure counter).
            block_of = chip.plane_array.block
            for info, n in zip(layout.infos, attempts):
                if n > 1:
                    for command in info[3]:
                        for address, wordlines in command.targets:
                            block_of(address).note_read(
                                (n - 1) * len(wordlines)
                            )
        # The queue's last plan per plane lands its final latch state
        # in the bank exactly as scalar execution would.
        return self._charge_results(
            layout.infos,
            self._replay_latches(layout, payload),
            attempts=attempts,
        )

    def execute_degraded_batch(self, plans, **kwargs):
        """Retired: margin reads walk, one :meth:`execute_degraded` per
        plan.  The name stays only until ROADMAP item 1a drops its
        ``benchmarks/e2e/spec.py`` ``LAYERS`` line."""
        raise NotImplementedError(
            "the batched margin read is gone: walk the plans with "
            "MwsExecutor.execute_degraded"
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
        if not plans or chip.sensing.inject_errors:
            return None
        layout = self.layout(plans)
        if layout is None:
            return None
        infos = layout.infos
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
                self._charge_results(infos, memo[2]),
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
                    for block, block_rows in command._resolved[chip][1]
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
        plan_words = self._replay_latches(layout, words)
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
            self._charge_results(infos, plan_words),
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

    @classmethod
    def layout(cls, plans: list[Plan]) -> BatchLayout | None:
        """Prepare a queue's :class:`BatchLayout`, or ``None`` when a
        plan has no batched equivalent: sense commands flattened
        plan-major, plan lanes grouped by their ``(plane, ISCM
        signature)`` key with each sense step's payload rows, and the
        lane that lands per plane (the queue's last plan there)."""
        infos = cls._batch_infos(plans)
        if infos is None:
            return None
        commands: list = []
        sense_base: list[int] = []
        lane_groups: dict[tuple, list[int]] = {}
        for index, (gkey, _, _, plan_commands) in enumerate(infos):
            sense_base.append(len(commands))
            commands.extend(plan_commands)
            lane_groups.setdefault(gkey, []).append(index)
        last_on_plane = {plan.plane: index for index, plan in enumerate(plans)}
        groups = []
        for (plane, codes), members in lane_groups.items():
            steps = infos[members[0]][1]
            bases = [sense_base[i] for i in members]
            landing = last_on_plane[plane]
            land_lane = members.index(landing) if landing in members else None
            if codes == (_PLAIN_SENSE,):
                groups.append((plane, None, bases, members, land_lane))
                continue
            gap = bases[1] - bases[0] if len(bases) > 1 else 1
            # Evenly spaced lanes select a sense step's rows as a view.
            even = gap > 0 and bases == [*range(bases[0], bases[-1] + 1, gap)]
            rows = [
                slice(bases[0] + k, bases[-1] + k + 1, gap)
                if even
                else np.asarray([base + k for base in bases])
                for k in range(sum(step is not None for step in steps))
            ]
            groups.append((plane, steps, rows, members, land_lane))
        return BatchLayout(list(plans), infos, commands, groups)

    def _replay_latches(
        self, layout: BatchLayout, payload: np.ndarray
    ) -> list[np.ndarray]:
        """Replay the latch protocol per lane group and return each
        plan's final C-latch row.  ``payload`` holds one packed,
        ones-padded ``uint64`` row per flattened sense command."""
        latches = self.chip.latches
        out: list = [None] * len(layout.plans)
        for plane, steps, rows, members, land_lane in layout.groups:
            if steps is None:
                for i, row in zip(members, rows):
                    out[i] = payload[row]
                if land_lane is not None:
                    row = payload[rows[land_lane]]
                    latches[plane].land(row, row)
                continue
            cache_rows = latches[plane].capture_batch(
                steps, [payload[r] for r in rows], land_lane=land_lane
            )
            for lane, i in enumerate(members):
                out[i] = cache_rows[lane]
        return out

    def _charge_results(
        self,
        infos: list[tuple],
        payloads: list[np.ndarray],
        *,
        attempts: list[int] | None = None,
    ) -> list[ExecutionResult]:
        """Charge counters plan-by-plan in scalar step order and build
        the per-plan results.

        Performs the same sequence of counter additions the scalar
        loop performs -- the whole per-plan sequence once per attempt
        (``attempts``, the retry loop: a failed attempt occupied the
        die and shipped its discarded page) -- so
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
                    payloads[index],
                )
            )
        return results

    def estimate_latency_us(self, plan: Plan) -> float:
        """Latency of a plan from the physically derived tMWS model,
        without executing it.

        Memoized on the plan object as ``(timing parameters, us)``
        pairs: the scheduler estimates every window's buckets from
        this, and a plan shared by chips placed alike walks the model
        once for all chips whose (frozen) parameters are equal."""
        timing = self.timing
        params = timing.params
        memo = plan.__dict__.get("_est_latency_us", ())
        for key, cached in memo:
            if key is params or key == params:
                return cached
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
        plan.__dict__["_est_latency_us"] = (*memo, (params, total))
        return total
