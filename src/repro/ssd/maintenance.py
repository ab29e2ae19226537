"""Background maintenance plane: GC, wear leveling, live migration.

Nothing below the service ever *moved* data until this module: the
invalidation contract (FTL/directory generations, per-block
``layout_version``, ``PlaneArray.content_version()``) existed to make
movement safe, and the :class:`MaintenanceManager` is the component
that finally exercises it.  Three responsibilities:

* **Garbage collection.**  Deleted vectors and rolled-back writes
  leave programmed pages with no directory entry -- dead space that
  NAND can only reclaim by erasing a whole (sub-)block.  The manager
  scans per-block occupancy, picks victims greedy-by-invalid-ratio
  (wear-leveling tiebreak: fewest P/E cycles first, so erases spread),
  relocates the survivors with the chip's *copyback* command (Section
  2.1, footnote 3 -- an on-die inverse-sense + program that preserves
  programming mode, ESP margin, inversion polarity, and the source
  keystream index), erases the victim, and returns it to the
  controller's free list.

  Relocation is harder here than in an ordinary SSD: MWS computation
  requires co-located operands to *stay* co-located.  The allocator
  only ever places one string group per sub-block, so the manager
  moves a victim's live pages together into one fresh sub-block and
  repoints the group's allocation cursor -- congruence (same groups,
  same polarity) is preserved and plan templates stay valid; only the
  *bound* plans and result-cache stamps go stale, which the directory
  generation bump forces to rebind.

* **Probation drain.**  When the health plane quarantines a chip, the
  manager migrates its live chunk columns to healthy chips: each
  column's operands are read back (de-randomized, polarity restored)
  and re-written ESP-mode on the destination under the same chunk
  group, then the FTL's striping overlay redirects the column and
  bumps its generation.  Queries keep answering bit-identically while
  the sick chip sits out its probation empty.

* **Bad-block scrub.**  Stuck bad blocks from the fault plane are
  *retired* -- permanently excluded from the allocation pool -- so
  sustained writes stop tripping over them.

Timing: every cycle's chip-time delta (copyback programs, erases,
drain reads/writes) is emitted as
:func:`~repro.ssd.events.background_job` stage jobs, the lower service
class of the service's one event simulation: they run in the idle gaps
of their die and an arriving sense suspends an in-flight GC erase
(which, resumed, runs as long as it was parked before it yields
again), so the foreground p99 impact -- and
what the deferral costs the background work -- is measured, not
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.api import AllocationError, FlashCosmos
from repro.flash.errors import FlashFault, ReconstructionError
from repro.flash.geometry import BlockAddress, WordlineAddress
from repro.ssd.events import StageJob, background_job

__all__ = [
    "BlockOccupancy",
    "MaintenanceConfig",
    "MaintenanceManager",
    "MaintenanceStats",
    "WearSummary",
]


@dataclass(frozen=True)
class MaintenanceConfig:
    """Pacing and selection knobs of the maintenance plane.

    GC triggers when a plane's allocatable sub-blocks drop below
    ``gc_low_watermark`` and collects until ``gc_high_watermark`` are
    free (or no victim qualifies).  ``max_victims_per_cycle`` bounds
    how much background work one service window may enqueue -- the
    foreground-impact throttle.  A victim must carry at least
    ``min_invalid_pages`` dead pages (erasing a block to reclaim
    nothing just burns wear).
    """

    gc_low_watermark: int = 2
    gc_high_watermark: int = 4
    max_victims_per_cycle: int = 4
    min_invalid_pages: int = 1
    #: Rebuild pacing: columns (or parity pages) re-materialized from
    #: parity per :meth:`MaintenanceManager.rebuild_cycle` call -- the
    #: foreground-impact throttle of the rebuild-on-repair plane,
    #: playing the same role ``max_victims_per_cycle`` plays for GC.
    rebuild_columns_per_cycle: int = 2

    def __post_init__(self) -> None:
        # A NaN bound compares false: GC would stall or run every window.
        for name, low in (
            ("gc_low_watermark", 0),
            ("gc_high_watermark", self.gc_low_watermark),
            ("max_victims_per_cycle", 1),
            ("min_invalid_pages", 1),
            ("rebuild_columns_per_cycle", 1),
        ):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ValueError(
                    f"{name} must be an int >= {low}, not {value!r}"
                )


@dataclass(frozen=True)
class BlockOccupancy:
    """Valid-page accounting of one materialized sub-block."""

    address: BlockAddress
    programmed: int
    live: int
    pe_cycles: int
    programs: int

    @property
    def invalid(self) -> int:
        return self.programmed - self.live

    @property
    def invalid_ratio(self) -> float:
        if self.programmed == 0:
            return 0.0
        return self.invalid / self.programmed


def _victim_order(occ: BlockOccupancy) -> tuple:
    """GC preference, best first (see ``select_victims``)."""
    return (-occ.invalid_ratio, occ.pe_cycles, occ.address)


@dataclass(frozen=True)
class WearSummary:
    """P/E-cycle spread across every materialized block."""

    blocks: int
    pe_min: int
    pe_max: int
    pe_mean: float
    programs_total: int

    @property
    def spread(self) -> int:
        return self.pe_max - self.pe_min


@dataclass
class MaintenanceStats:
    """Lifetime counters of one manager (reported by the service)."""

    blocks_reclaimed: int = 0
    pages_migrated: int = 0
    blocks_retired: int = 0
    chips_drained: int = 0
    pages_stuck: int = 0
    gc_cycles: int = 0
    busy_us: float = 0.0
    #: Chunk columns and parity pages re-materialized from parity by
    #: :meth:`MaintenanceManager.rebuild_cycle` after a chip loss.
    columns_rebuilt: int = 0


class MaintenanceManager:
    """GC, wear leveling, and live migration over one ``SmallSsd``."""

    def __init__(self, ssd, config: MaintenanceConfig | None = None) -> None:
        self.ssd = ssd
        self.config = config or MaintenanceConfig()
        self.stats = MaintenanceStats()
        #: Rebuild queue: ``("column", chunk)`` for a lost data column,
        #: ``("parity", group)`` for a lost parity page.  Filled by
        #: :meth:`drain_chip` when a quarantined chip's pages cannot be
        #: read (fail-stopped hardware), drained FIFO by
        #: :meth:`rebuild_cycle` at ``rebuild_columns_per_cycle`` per
        #: call.
        self.pending_rebuild: list[tuple[str, int]] = []
        self._rebuild_queued: set[tuple[str, int]] = set()

    # ------------------------------------------------------------------
    # Occupancy and wear accounting
    # ------------------------------------------------------------------

    def occupancy(self, chip_index: int) -> list[BlockOccupancy]:
        """Per-sub-block occupancy of one chip, materialized blocks
        only (untouched blocks hold nothing to account for)."""
        controller: FlashCosmos = self.ssd.controllers[chip_index]
        live: dict[BlockAddress, int] = {}
        for name in controller.directory.names():
            address = controller.directory.lookup(name).address
            key = address.block_address
            live[key] = live.get(key, 0) + 1
        out: list[BlockOccupancy] = []
        array = controller.chip.plane_array
        for address in array.materialized():
            block = array.block(address)
            programmed = sum(1 for m in block.metadata if m.programmed)
            out.append(
                BlockOccupancy(
                    address=address,
                    programmed=programmed,
                    live=live.get(address, 0),
                    pe_cycles=block.pe_cycles,
                    programs=block.programs,
                )
            )
        return out

    def free_subblocks(self, chip_index: int, plane: int = 0) -> int:
        return self.ssd.controllers[chip_index].free_subblocks(plane)

    def wear_summary(self) -> WearSummary:
        """Wear spread across all chips (see ``SmallSsd.wear_summary``)."""
        return self.ssd.wear_summary()

    # ------------------------------------------------------------------
    # Victim selection + collection
    # ------------------------------------------------------------------

    def select_victims(
        self, chip_index: int, plane: int = 0
    ) -> list[BlockOccupancy]:
        """GC candidates on one plane, best first: greedy by invalid
        ratio, then fewest P/E cycles (wear-leveling tiebreak), then
        address order for determinism.  Stuck bad blocks are excluded
        -- they cannot be erased, only retired by the scrub."""
        injector = self.ssd.fault_injector
        # The side-effect-free probe, not is_bad_block(): that hook
        # counts hits, and a GC scan is not a fault.
        candidates = [
            occ
            for occ in self.occupancy(chip_index)
            if occ.address.plane == plane
            and occ.invalid >= self.config.min_invalid_pages
            and not (
                injector is not None
                and injector.has_bad_block(chip_index, occ.address)
            )
        ]
        candidates.sort(key=_victim_order)
        return candidates

    def _relocate_block(
        self, chip_index: int, victim: BlockAddress
    ) -> int:
        """Copyback every live page of ``victim`` into one freshly
        allocated sub-block of the same plane, preserving wordline
        order (compacted), and repoint directory entries and the
        open group cursor.  Returns pages moved; raises
        :class:`~repro.core.api.AllocationError` when no target
        sub-block is available (the caller stops collecting)."""
        controller: FlashCosmos = self.ssd.controllers[chip_index]
        chip = controller.chip
        live: list[tuple[int, str]] = []
        for name in controller.directory.names():
            operand = controller.directory.lookup(name)
            if operand.address.block_address == victim:
                live.append((operand.address.wordline, name))
        if not live:
            return 0
        live.sort()
        target = controller._allocate_subblock(victim.plane)
        for new_wl, (old_wl, name) in enumerate(live):
            source = WordlineAddress(
                victim.plane, victim.block, victim.subblock, old_wl
            )
            destination = WordlineAddress(
                target.plane, target.block, target.subblock, new_wl
            )
            chip.copyback(source, destination)
            controller.directory.relocate(name, destination)
        # The allocator places one string group per sub-block, so all
        # of the victim's survivors share (at most) one open cursor;
        # repoint it at the compacted copy so the group keeps growing
        # in the new sub-block.
        for key, (block, _next_wl) in list(controller._group_cursor.items()):
            if block == victim:
                controller._group_cursor[key] = (target, len(live))
        return len(live)

    def collect_plane(
        self,
        chip_index: int,
        plane: int = 0,
        *,
        target_free: int | None = None,
        max_victims: int | None = None,
        ready_at_s: float = 0.0,
    ) -> list[StageJob]:
        """Collect victims on one plane until ``target_free``
        sub-blocks are allocatable (or victims/budget run out).
        Functional state mutates immediately; the returned background
        jobs carry the chip-time cost into the event simulation."""
        controller: FlashCosmos = self.ssd.controllers[chip_index]
        chip = controller.chip
        budget = (
            max_victims
            if max_victims is not None
            else self.config.max_victims_per_cycle
        )
        jobs: list[StageJob] = []
        collected = 0
        # One occupancy scan per call, kept current across the loop: a
        # collected victim leaves the list, and nothing joins it (a
        # relocation target holds live pages only).
        victims = self.select_victims(chip_index, plane)
        while collected < budget:
            if (
                target_free is not None
                and controller.free_subblocks(plane) >= target_free
            ):
                break
            if not victims:
                break
            victim = victims[0]
            busy_before = chip.counters.busy_us
            try:
                moved = self._relocate_block(chip_index, victim.address)
            except AllocationError:
                # Nowhere to put the survivors: the plane is truly
                # wedged (all-live blocks); give up rather than loop.
                break
            try:
                chip.erase_block(victim.address)
            except FlashFault:
                # Erase failed under injection: the block keeps its
                # (now all dead) pages and stays a candidate.
                victims[0] = replace(victim, live=0)
                victims.sort(key=_victim_order)
                self.stats.busy_us += chip.counters.busy_us - busy_before
                collected += 1
                continue
            del victims[0]
            controller.release_subblock(victim.address)
            # A fully-dead victim was never repointed by relocation:
            # drop any group cursor still aimed at it, or the group's
            # next write would land in a sub-block the allocator is
            # free to hand to someone else.
            for key, (block, _wl) in list(
                controller._group_cursor.items()
            ):
                if block == victim.address:
                    del controller._group_cursor[key]
            busy = chip.counters.busy_us - busy_before
            self.stats.blocks_reclaimed += 1
            self.stats.pages_migrated += moved
            self.stats.busy_us += busy
            collected += 1
            if busy > 0.0:
                jobs.append(
                    background_job(
                        f"chip{chip_index}", busy * 1e-6, ready_at=ready_at_s
                    )
                )
        return jobs

    def collect(
        self, chip_index: int | None = None, *, ready_at_s: float = 0.0
    ) -> list[StageJob]:
        """Collect every qualifying victim (no watermark, unbounded
        budget) on one chip or the whole SSD -- the foreground entry
        point tests and the drain path use."""
        chips = (
            range(len(self.ssd.controllers))
            if chip_index is None
            else (chip_index,)
        )
        jobs: list[StageJob] = []
        for index in chips:
            geometry = self.ssd.controllers[index].chip.geometry
            for plane in range(geometry.planes_per_die):
                jobs.extend(
                    self.collect_plane(
                        index,
                        plane,
                        max_victims=(
                            geometry.blocks_per_plane
                            * geometry.subblocks_per_block
                        ),
                        ready_at_s=ready_at_s,
                    )
                )
        return jobs

    def run_cycle(self, *, ready_at_s: float = 0.0) -> list[StageJob]:
        """One pacing decision (the service calls this per window):
        any plane under the low watermark is collected up to the high
        watermark within the per-cycle victim budget."""
        jobs: list[StageJob] = []
        ran = False
        for chip_index, controller in enumerate(self.ssd.controllers):
            geometry = controller.chip.geometry
            for plane in range(geometry.planes_per_die):
                if (
                    controller.free_subblocks(plane)
                    >= self.config.gc_low_watermark
                ):
                    continue
                ran = True
                jobs.extend(
                    self.collect_plane(
                        chip_index,
                        plane,
                        target_free=self.config.gc_high_watermark,
                        ready_at_s=ready_at_s,
                    )
                )
        if ran:
            self.stats.gc_cycles += 1
        return jobs

    # ------------------------------------------------------------------
    # Health-plane integration
    # ------------------------------------------------------------------

    def scrub_bad_blocks(self) -> int:
        """Retire every stuck bad block the fault plane declares, so
        allocation never hands one out.  Idempotent; returns how many
        blocks were newly retired."""
        injector = self.ssd.fault_injector
        if injector is None:
            return 0
        retired = 0
        for chip, plane, block, subblock in injector.config.bad_blocks:
            if not 0 <= chip < len(self.ssd.controllers):
                continue
            controller = self.ssd.controllers[chip]
            address = BlockAddress(
                plane=plane, block=block, subblock=subblock
            )
            if address in controller._retired_subblocks:
                continue
            controller.retire_subblock(address)
            retired += 1
        self.stats.blocks_retired += retired
        return retired

    def drain_chip(
        self,
        sick: int,
        *,
        healthy: list[int] | None = None,
        ready_at_s: float = 0.0,
    ) -> list[StageJob]:
        """Migrate a quarantined chip's live chunk columns to healthy
        chips (probation drain), then reclaim its dead blocks.

        Each chunk column moves whole -- every vector's ``name@chunk``
        operand lands on the same destination under its original chunk
        group -- so cross-vector co-location survives and the striping
        overlay (:meth:`FlashTranslationLayer.remap_chunk`) keeps the
        engine's queues consistent.  The whole column is *read before
        anything is written*, so a mid-column read failure can never
        leave it half-migrated.  A column that cannot be read -- any
        page on a stuck bad block, or the chip fail-stopped entirely
        -- is queued for parity rebuild when the SSD stripes parity
        (:meth:`rebuild_cycle` re-materializes it from survivors);
        without parity it stays parked as stuck, never silently
        dropped.  Parity pages recorded on the sick chip drain the
        same way, onto a chip hosting none of their group's data.
        GC reclamation of the drained chip is skipped when the chip is
        fail-stopped (there is no die left to erase).
        """
        ssd = self.ssd
        ftl = ssd.ftl
        if healthy is None:
            healthy = [i for i in range(len(ssd.chips)) if i != sick]
        healthy = [h for h in healthy if h != sick]
        if not healthy:
            return []
        injector = ssd.fault_injector
        busy_before = [c.counters.busy_us for c in ssd.chips]
        columns: dict[int, list[str]] = {}
        for name in ftl.vectors():
            for placement in ftl.lookup(name).placements:
                if placement.chip == sick:
                    columns.setdefault(placement.chunk, []).append(name)
        parity = ssd.parity
        moved_any = False
        src_ctrl = ssd.controllers[sick]
        for chunk in sorted(columns):
            names = columns[chunk]
            stuck = 0
            payloads: list[tuple[str, str, str | None, bool, object]] = []
            try:
                for name in names:
                    record = ftl.lookup(name)
                    chunk_name = ssd._chunk_operand_name(name, chunk)
                    stored = src_ctrl.stored(chunk_name)
                    address = stored.address
                    if injector is not None and injector.has_bad_block(
                        sick, address
                    ):
                        stuck += 1
                        continue
                    logical = src_ctrl.chip.read_page(
                        address, inverse=stored.inverted
                    )
                    chunk_group = (
                        f"{record.group}#{chunk}" if record.group else None
                    )
                    payloads.append(
                        (
                            name,
                            chunk_name,
                            chunk_group,
                            stored.inverted,
                            logical,
                        )
                    )
            except FlashFault:
                stuck += 1
            if stuck:
                # The column cannot move whole: queue it for parity
                # rebuild, or park it as stuck without parity.
                if parity:
                    self._queue_rebuild("column", chunk)
                else:
                    self.stats.pages_stuck += stuck
                continue
            # Least-loaded healthy destination, index order on ties;
            # with parity, prefer chips free of the column's rotation
            # group (one chip loss must cost the group one page).
            candidates = healthy
            if parity:
                group = ftl.group_of_chunk(chunk)
                taken = {
                    ftl.chip_of_chunk(sibling)
                    for sibling in ftl.group_data_chunks(group)
                    if sibling != chunk
                }
                pchip = ftl.parity_chip(group)
                if pchip is not None:
                    taken.add(pchip)
                open_chips = [h for h in healthy if h not in taken]
                if open_chips:
                    candidates = open_chips
            dest = min(candidates, key=lambda h: (ftl.live_pages(h), h))
            dst_ctrl = ssd.controllers[dest]
            for name, chunk_name, chunk_group, inverted, logical in payloads:
                dst_ctrl.fc_write(
                    chunk_name,
                    logical,
                    group=chunk_group,
                    inverse=inverted,
                )
                src_ctrl.directory.unregister(chunk_name)
                self.stats.pages_migrated += 1
                moved_any = True
            ftl.remap_chunk(chunk, dest)
        if parity:
            moved_any |= self._drain_parity_pages(sick, healthy)
        if moved_any or columns:
            self.stats.chips_drained += 1
        # Reclaim the drained chip's now-dead blocks so it returns
        # from probation with free space -- unless the chip is
        # fail-stopped, where copyback/erase would only raise.
        if ssd.chips[sick].offline:
            jobs: list[StageJob] = []
        else:
            jobs = self.collect(sick, ready_at_s=ready_at_s)
        deltas = [
            chip.counters.busy_us - before
            for chip, before in zip(ssd.chips, busy_before)
        ]
        # collect() already emitted jobs (and charged stats.busy_us)
        # for the sick chip's erases; emit migration jobs for the
        # remaining read/write time on every involved chip.
        already = sum(
            job.durations[0] * 1e6
            for job in jobs
            if job.resources[0] == f"chip{sick}"
        )
        for index, delta in enumerate(deltas):
            remaining = delta - (already if index == sick else 0.0)
            if remaining > 1e-12:
                self.stats.busy_us += remaining
                jobs.append(
                    background_job(
                        f"chip{index}", remaining * 1e-6, ready_at=ready_at_s
                    )
                )
        return jobs

    # ------------------------------------------------------------------
    # Parity rebuild (rebuild-on-repair)
    # ------------------------------------------------------------------

    def _queue_rebuild(self, kind: str, key: int) -> None:
        """Enqueue one lost column/parity page for rebuild, once."""
        entry = (kind, key)
        if entry not in self._rebuild_queued:
            self._rebuild_queued.add(entry)
            self.pending_rebuild.append(entry)

    def _drain_parity_pages(self, sick: int, healthy: list[int]) -> bool:
        """Move (or queue for rebuild) every parity page recorded on
        the sick chip.  Destination: a healthy chip hosting none of
        the group's data chunks, least-loaded first -- the same
        distinctness invariant ingest placement keeps."""
        ssd = self.ssd
        ftl = ssd.ftl
        src_ctrl = ssd.controllers[sick]
        moved_any = False
        size = ftl.parity_group_size
        for group, pchip in sorted(ftl.parity_placements().items()):
            if pchip != sick:
                continue
            names = [
                name
                for name in ftl.vectors()
                if ftl.lookup(name).n_chunks > group * size
            ]
            if not names:
                continue
            payloads: list[tuple[str, str, object]] = []
            try:
                for name in names:
                    pname = ssd._parity_operand_name(name, group)
                    stored = src_ctrl.stored(pname)
                    payloads.append(
                        (
                            name,
                            pname,
                            src_ctrl.chip.read_page(
                                stored.address, inverse=stored.inverted
                            ),
                        )
                    )
            except (FlashFault, KeyError):
                self._queue_rebuild("parity", group)
                continue
            members = {
                ftl.chip_of_chunk(c) for c in ftl.group_data_chunks(group)
            }
            candidates = [h for h in healthy if h not in members] or healthy
            dest = min(candidates, key=lambda h: (ftl.live_pages(h), h))
            dst_ctrl = ssd.controllers[dest]
            for name, pname, logical in payloads:
                record = ftl.lookup(name)
                dst_ctrl.fc_write(
                    pname,
                    logical,
                    group=ssd._parity_group_name(record.group, group),
                    inverse=False,
                )
                src_ctrl.directory.unregister(pname)
                self.stats.pages_migrated += 1
                moved_any = True
            ftl.set_parity_chip(group, dest)
        return moved_any

    def rebuild_cycle(
        self,
        *,
        healthy: list[int] | None = None,
        ready_at_s: float = 0.0,
    ) -> list[StageJob]:
        """One rebuild pacing decision (the service calls this per
        window, like :meth:`run_cycle` for GC): re-materialize up to
        ``rebuild_columns_per_cycle`` queued columns/parity pages from
        parity onto healthy chips.  Reconstruction reads and the
        re-writes are charged as background jobs on the chips that
        performed them, so rebuild traffic competes with foreground
        queries in the event simulation exactly like GC copyback.  An
        entry whose reconstruction fails (double fault) is dropped and
        counted stuck rather than looping forever."""
        ssd = self.ssd
        if not self.pending_rebuild:
            return []
        if healthy is None:
            healthy = list(range(len(ssd.chips)))
        healthy = [h for h in healthy if not ssd.chips[h].offline]
        if not healthy:
            return []
        busy_before = [c.counters.busy_us for c in ssd.chips]
        done = 0
        while self.pending_rebuild and done < self.config.rebuild_columns_per_cycle:
            kind, key = self.pending_rebuild.pop(0)
            self._rebuild_queued.discard((kind, key))
            done += 1
            try:
                if kind == "column":
                    rebuilt = self._rebuild_column(key, healthy)
                else:
                    rebuilt = self._rebuild_parity(key, healthy)
            except (
                ReconstructionError,
                FlashFault,
                AllocationError,
                KeyError,
            ):
                self.stats.pages_stuck += 1
                continue
            if rebuilt:
                self.stats.columns_rebuilt += 1
        jobs: list[StageJob] = []
        for index, before in enumerate(busy_before):
            delta = ssd.chips[index].counters.busy_us - before
            if delta > 1e-12:
                self.stats.busy_us += delta
                jobs.append(
                    background_job(
                        f"chip{index}", delta * 1e-6, ready_at=ready_at_s
                    )
                )
        return jobs

    def _rebuild_column(self, chunk: int, healthy: list[int]) -> bool:
        """Re-materialize one lost data column from parity: every
        vector's ``name@chunk`` is reconstructed by XOR of surviving
        peers + parity and written whole onto one healthy chip, then
        the striping overlay redirects the column (generation bump --
        the same invalidation contract as a probation drain)."""
        ssd = self.ssd
        ftl = ssd.ftl
        names = [
            name
            for name in ftl.vectors()
            if chunk < ftl.lookup(name).n_chunks
        ]
        if not names:
            return False
        current = ftl.chip_of_chunk(chunk)
        if not ssd.chips[current].offline:
            # Already drained or re-mapped since it was queued.
            return False
        # Reconstruct the whole column before writing anything: a
        # double fault surfaces here and leaves no half-column behind.
        payloads = [
            (name, ssd.reconstruct_chunk_bits(name, chunk))
            for name in names
        ]
        group = ftl.group_of_chunk(chunk)
        taken = {
            ftl.chip_of_chunk(sibling)
            for sibling in ftl.group_data_chunks(group)
            if sibling != chunk
        }
        pchip = ftl.parity_chip(group)
        if pchip is not None:
            taken.add(pchip)
        candidates = [h for h in healthy if h not in taken] or list(healthy)
        dest = min(candidates, key=lambda h: (ftl.live_pages(h), h))
        src_ctrl = ssd.controllers[current]
        dst_ctrl = ssd.controllers[dest]
        for name, bits in payloads:
            record = ftl.lookup(name)
            chunk_name = ssd._chunk_operand_name(name, chunk)
            chunk_group = (
                f"{record.group}#{chunk}" if record.group else None
            )
            # Logical bits re-inverted physically on the destination,
            # preserving the template congruence of inverted operands.
            dst_ctrl.fc_write(
                chunk_name,
                bits,
                group=chunk_group,
                inverse=record.inverted,
            )
            src_ctrl.directory.unregister(chunk_name)
        ftl.remap_chunk(chunk, dest)
        return True

    def _rebuild_parity(self, group: int, healthy: list[int]) -> bool:
        """Re-materialize one lost parity page per vector of a
        rotation group: recompute the XOR of the group's (surviving)
        data chunks and write it to a healthy chip hosting none of
        them."""
        ssd = self.ssd
        ftl = ssd.ftl
        size = ftl.parity_group_size
        names = [
            name
            for name in ftl.vectors()
            if ftl.lookup(name).n_chunks > group * size
        ]
        if not names:
            return False
        current = ftl.parity_chip(group)
        if current is None or not ssd.chips[current].offline:
            return False
        payloads: list[tuple[str, str | None, np.ndarray]] = []
        for name in names:
            record = ftl.lookup(name)
            member_bits = []
            for c in ftl.group_data_chunks(group):
                if c >= record.n_chunks:
                    continue
                ctrl = ssd.controllers[ftl.chip_of_chunk(c)]
                stored = ctrl.stored(ssd._chunk_operand_name(name, c))
                member_bits.append(
                    ctrl.chip.read_page(
                        stored.address, inverse=stored.inverted
                    )
                )
            payloads.append(
                (
                    name,
                    record.group,
                    np.bitwise_xor.reduce(np.vstack(member_bits), axis=0),
                )
            )
        members = {
            ftl.chip_of_chunk(c) for c in ftl.group_data_chunks(group)
        }
        candidates = [h for h in healthy if h not in members] or list(
            healthy
        )
        dest = min(candidates, key=lambda h: (ftl.live_pages(h), h))
        src_ctrl = ssd.controllers[current]
        dst_ctrl = ssd.controllers[dest]
        for name, vgroup, bits in payloads:
            pname = ssd._parity_operand_name(name, group)
            dst_ctrl.fc_write(
                pname,
                bits,
                group=ssd._parity_group_name(vgroup, group),
                inverse=False,
            )
            src_ctrl.directory.unregister(pname)
        ftl.set_parity_chip(group, dest)
        return True
