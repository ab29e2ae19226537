"""Functional multi-chip SSD: stripes vectors across Flash-Cosmos
chips and evaluates expressions with plan-once/bind-per-chunk
execution.

``SmallSsd`` is the functional counterpart of the performance model:
real bits move through real (scaled-down) chips, so examples and
integration tests can run end-to-end queries -- write day bitmaps,
issue ``query(expr)``, get the exact result vector back -- while the
cost counters aggregate the same quantities the performance model
estimates at full scale.

Queries are served by a :class:`~repro.ssd.query_engine.QueryEngine`:
the expression is planned *once* into a relocatable template, bound
once per distinct chunk layout, dispatched through per-chip
queues, and the chunk job stream is replayed through the event
simulator -- so every functional query also reports the pipelined
makespan (see :mod:`repro.ssd.query_engine`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.api import FlashCosmos
from repro.core.expressions import Expression
from repro.flash.chip import NandFlashChip
from repro.flash.errors import (
    FlashFault,
    OperatingCondition,
    ReconstructionError,
)
from repro.flash.geometry import ChipGeometry
from repro.flash.packing import as_bits, pack_rows, parity_words, unpack_rows
from repro.ssd.ftl import FlashTranslationLayer


@dataclass(frozen=True)
class QueryResult:
    """Result of one SSD-level in-flash query.

    ``makespan_us`` is the event-simulated pipelined completion time
    of the query's chunk job stream (die sense -> channel -> external
    link); ``latency_us`` remains the raw per-chip-maximum sense time
    the seed model reported.  ``template_hit`` tells whether the query
    was served from the plan-template cache without planning.

    The result stays packed: ``words`` is the read-only
    ``(n_chunks, words_per_page(page_bits))`` ``uint64`` block of its
    chunk pages, and may be shared by every query of a service run
    with the same result.  :attr:`bits` unpacks it on every read.
    """

    words: np.ndarray
    page_bits: int
    n_bits: int
    n_senses: int
    latency_us: float
    energy_nj: float
    makespan_us: float = 0.0
    template_hit: bool = False

    @property
    def bits(self) -> np.ndarray:
        """The result vector, one read-only ``uint8`` per bit.  Not
        cached: a caller that reads it twice keeps the array."""
        bits = unpack_rows(self.words, self.page_bits).ravel()[: self.n_bits]
        bits.setflags(write=False)
        return bits


class SmallSsd:
    """A small, fully functional Flash-Cosmos SSD."""

    def __init__(
        self,
        n_chips: int = 4,
        geometry: ChipGeometry | None = None,
        *,
        condition: OperatingCondition | None = None,
        inject_errors: bool = False,
        esp_extra: float = 0.9,
        seed: int = 0,
        fault_injector=None,
        parity: bool = False,
    ) -> None:
        self.geometry = geometry or ChipGeometry(
            planes_per_die=1,
            blocks_per_plane=64,
            subblocks_per_block=2,
            wordlines_per_string=48,
            page_size_bits=1024,
        )
        self.esp_extra = esp_extra
        #: Vectors are bit-packed once at ingest and the whole
        #: functional query path moves uint64 words.  Error-injecting
        #: chips sense per cell through V_TH, so their results are
        #: draws: nothing may memoize them.
        self.inject_errors = inject_errors
        self.chips = [
            NandFlashChip(
                self.geometry,
                inject_errors=inject_errors,
                seed=seed + i,
            )
            for i in range(n_chips)
        ]
        if condition is not None:
            for chip in self.chips:
                chip.set_condition(condition)
        self.controllers = [
            FlashCosmos(chip, esp_extra=esp_extra) for chip in self.chips
        ]
        #: RAID-5-style parity striping: every rotation group of
        #: ``n_chips - 1`` data chunks carries one parity page (the
        #: word-wise XOR of the group, computed on the packed plane at
        #: ingest) on a chip hosting none of the group's data.  Losing
        #: any single chip then costs each group at most one page, and
        #: lost chunks are reconstructed by XOR of the survivors.
        if parity and inject_errors:
            raise ValueError(
                "parity striping requires error-free chips: a parity "
                "page is the XOR of the group's stored pages, and "
                "reconstruction would XOR in every survivor's bit errors"
            )
        if parity and n_chips < 2:
            raise ValueError("parity striping requires >= 2 chips")
        self.parity = parity
        self.ftl = FlashTranslationLayer(
            n_chips=n_chips, page_bits=self.geometry.page_size_bits
        )
        self.ftl.parity = parity
        # Deferred import: the engine module type-checks against this
        # one.
        from repro.ssd.query_engine import QueryEngine

        self.engine = QueryEngine(self)
        #: Optional fault-injection plane shared by every chip (see
        #: :mod:`repro.flash.faults`); ``None`` keeps all fast paths.
        self.fault_injector = None
        if fault_injector is not None:
            self.attach_fault_injector(fault_injector)
        #: The background maintenance plane, once :meth:`maintenance`
        #: has opened it.
        self._maintenance = None

    def attach_fault_injector(self, injector) -> None:
        """Attach a :class:`~repro.flash.faults.FaultInjector` to every
        chip (chip ``i`` keyed as stream ``i``), or detach with
        ``None``.  The engine's recovery path and the service's health
        tracking both read it from here."""
        self.fault_injector = injector
        for i, chip in enumerate(self.chips):
            chip.attach_fault_injector(injector, chip_id=i)

    @property
    def page_bits(self) -> int:
        return self.geometry.page_size_bits

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def write_vector(
        self,
        name: str,
        bits: np.ndarray,
        *,
        group: str | None = None,
        inverse: bool = False,
    ) -> None:
        """Stripe one logical bit vector across the chips.

        Chunks land on chips round-robin; within each chip the operand
        keeps its group (string-group co-location) and inversion flag.
        A vector whose length is not a page multiple stores its final
        chunk zero-padded; reads and queries truncate back to the true
        length.  If any chunk write fails, the registration is rolled
        back -- the FTL record and every already-written chunk's
        directory entry are removed, so the SSD is never left
        half-registered (the programmed pages themselves are leaked
        until garbage collection, like any interrupted write).
        """
        data = as_bits(bits, f"vector {name!r}")
        record = self.ftl.register_vector(
            name,
            data.size,
            group=group,
            inverted=inverse,
            esp_extra=self.esp_extra,
        )
        page = self.page_bits
        # Pack the whole vector once at ingest (zero-padding the final
        # chunk); every chunk write below hands packed words straight
        # down to the chip.
        padded = np.zeros(record.n_chunks * page, dtype=np.uint8)
        padded[: data.size] = data
        chunk_words = pack_rows(padded.reshape(record.n_chunks, page))
        written: list[tuple[int, str]] = []
        try:
            for placement in record.placements:
                controller = self.controllers[placement.chip]
                chunk_name = self._chunk_operand_name(name, placement.chunk)
                controller.fc_write(
                    chunk_name,
                    chunk_words[placement.chunk],
                    group=self._chunk_group_name(group, placement.chunk),
                    inverse=inverse,
                )
                written.append((placement.chip, chunk_name))
            if self.parity:
                self._write_parity(name, record, chunk_words, group, written)
        except Exception:
            for chip, chunk_name in written:
                self.controllers[chip].directory.unregister(chunk_name)
            self.ftl.unregister(name)
            raise

    def _write_parity(
        self,
        name: str,
        record,
        chunk_words: np.ndarray,
        group: str | None,
        written: list[tuple[int, str]],
    ) -> None:
        """Write one parity page per rotation group of a freshly
        ingested vector: the word-wise XOR of the group's packed data
        chunks, placed on a chip hosting none of them (recorded in the
        FTL so queries and maintenance find it after the data chips
        are gone).  Appends to ``written`` so a failed stripe rolls
        parity back with the data."""
        ftl = self.ftl
        for g in range(ftl.parity_group_count(record.n_chunks)):
            members = [
                c for c in ftl.group_data_chunks(g) if c < record.n_chunks
            ]
            pwords = parity_words(chunk_words[members], self.page_bits)
            chip = ftl.parity_chip(g)
            if chip is None:
                chip = ftl.choose_parity_chip(g)
                ftl.set_parity_chip(g, chip)
            parity_name = self._parity_operand_name(name, g)
            self.controllers[chip].fc_write(
                parity_name,
                pwords,
                group=self._parity_group_name(group, g),
                inverse=False,
            )
            written.append((chip, parity_name))

    def delete_vector(self, name: str) -> None:
        """Drop a vector: unregister every chunk operand (and parity
        pages, when striped with parity) and the FTL record.  The
        programmed pages become dead space -- NAND cannot overwrite in
        place -- until the maintenance plane's garbage collector
        erases their blocks and returns them to the allocation pool."""
        record = self.ftl.lookup(name)
        for placement in record.placements:
            self.controllers[placement.chip].directory.unregister(
                self._chunk_operand_name(name, placement.chunk)
            )
        if self.parity:
            for g in range(self.ftl.parity_group_count(record.n_chunks)):
                chip = self.ftl.parity_chip(g)
                if chip is not None:
                    self.controllers[chip].directory.unregister(
                        self._parity_operand_name(name, g)
                    )
        self.ftl.unregister(name)

    def wear_summary(self):
        """P/E-cycle spread across every materialized block of every
        chip (:class:`~repro.ssd.maintenance.WearSummary`)."""
        from repro.ssd.maintenance import WearSummary

        pe: list[int] = []
        programs = 0
        for chip in self.chips:
            array = chip.plane_array
            for address in array.materialized():
                block = array.block(address)
                pe.append(block.pe_cycles)
                programs += block.programs
        if not pe:
            return WearSummary(
                blocks=0, pe_min=0, pe_max=0, pe_mean=0.0, programs_total=0
            )
        return WearSummary(
            blocks=len(pe),
            pe_min=min(pe),
            pe_max=max(pe),
            pe_mean=sum(pe) / len(pe),
            programs_total=programs,
        )

    def maintenance(self, config=None):
        """Open (or return) the background maintenance plane over this
        SSD (:class:`~repro.ssd.maintenance.MaintenanceManager`): GC,
        wear leveling, probation drain, bad-block scrub."""
        from repro.ssd.maintenance import MaintenanceManager

        manager = self._maintenance
        if manager is None or config is not None:
            manager = MaintenanceManager(self, config)
            self._maintenance = manager
        return manager

    def _chunk_operand_name(self, name: str, chunk: int) -> str:
        # Chunks striped to the same chip get distinct operand names;
        # equal bit offsets of different vectors share chip + group.
        return f"{name}@{chunk}"

    def _parity_operand_name(self, name: str, group: int) -> str:
        # Parity pages are per-vector, per-rotation-group operands;
        # ``!`` cannot appear in a chunk operand name, so parity never
        # collides with data in a chip directory.
        return f"{name}!p{group}"

    def _chunk_group_name(self, group: str | None, chunk: int) -> str | None:
        # Only the *same* chunk offset of different vectors must share
        # a string group (they are combined bit-by-bit); distinct
        # offsets get distinct groups so a group never exhausts its 48
        # wordlines on one vector's own chunks.
        return f"{group}#{chunk}" if group else None

    def _parity_group_name(self, group: str | None, g: int) -> str | None:
        # Parity pages of one string group co-locate like data chunks
        # do, but in their own per-rotation-group string group so they
        # never consume a data group's 48 wordlines.
        return f"{group}!p{g}" if group else None

    # ------------------------------------------------------------------
    # Redundancy: chip loss and parity reconstruction
    # ------------------------------------------------------------------

    def kill_chip(self, chip: int) -> None:
        """Take one chip permanently offline (fail-stop): every
        subsequent sense/program/erase on it raises
        :class:`~repro.flash.errors.ChipUnavailableError`.  With
        parity striping the engine reconstructs the lost chunks from
        survivors and the maintenance plane rebuilds them; without it,
        queries touching the chip fail with a typed error."""
        if not 0 <= chip < len(self.chips):
            raise ValueError(
                f"chip {chip} outside 0..{len(self.chips) - 1}"
            )
        self.chips[chip].offline = True

    def reconstruct_chunk_bits(self, name: str, chunk: int) -> np.ndarray:
        """Rebuild one lost chunk's logical bits from parity: XOR of
        the rotation group's surviving data chunks and its parity page
        (RAID-5 reconstruction).  Shared by the query engine's
        degraded read path and the maintenance plane's rebuild job.

        Every read below is a plain page read on a *survivor* chip, so
        callers charging reconstruction as real sense work can observe
        the survivor counters move.  Raises
        :class:`~repro.flash.errors.ReconstructionError` when parity
        is off, the parity page is unlocatable, or a survivor read
        fails (double fault)."""
        record = self.ftl.lookup(name)
        if not self.parity:
            raise ReconstructionError(
                f"cannot reconstruct {name!r}@{chunk}: parity striping "
                "is disabled on this SSD",
                chunk=chunk,
            )
        if not 0 <= chunk < record.n_chunks:
            raise ReconstructionError(
                f"chunk {chunk} outside vector {name!r}"
                f" (n_chunks={record.n_chunks})",
                chunk=chunk,
            )
        g = self.ftl.group_of_chunk(chunk)
        parity_chip = self.ftl.parity_chip(g)
        if parity_chip is None:
            raise ReconstructionError(
                f"no recorded parity placement for group {g} of "
                f"{name!r}",
                chunk=chunk,
            )
        try:
            ctrl = self.controllers[parity_chip]
            stored = ctrl.stored(self._parity_operand_name(name, g))
            acc = ctrl.chip.read_page(
                stored.address, inverse=stored.inverted
            )
            for sibling in self.ftl.group_data_chunks(g):
                if sibling == chunk or sibling >= record.n_chunks:
                    continue
                sib_ctrl = self.controllers[self.ftl.chip_of_chunk(sibling)]
                sib_stored = sib_ctrl.stored(
                    self._chunk_operand_name(name, sibling)
                )
                acc = np.bitwise_xor(
                    acc,
                    sib_ctrl.chip.read_page(
                        sib_stored.address, inverse=sib_stored.inverted
                    ),
                )
        except (FlashFault, KeyError) as exc:
            raise ReconstructionError(
                f"reconstruction of {name!r}@{chunk} failed: a "
                f"survivor or parity read raised {exc!r} (double "
                "fault or missing page)",
                chunk=chunk,
            ) from exc
        return acc

    def service(self, **kwargs) -> "QueryService":
        """Open a query service front-end over this SSD.

        The service (:mod:`repro.service`) accepts timed submissions
        from many clients (optionally with priorities and deadlines),
        batches them into fixed-grid admission windows,
        and executes each window with multi-query scheduling,
        cross-query sense sharing, and -- when enabled -- the
        cross-window result cache -- ``kwargs`` forward to
        :class:`~repro.service.service.QueryService` (``window_us``,
        ``max_window_queries``, ``policy``, ``share_senses``,
        ``result_cache``, ``tenant_weights``, ``recovery``,
        ``health``, ``maintenance``).
        """
        from repro.service.service import QueryService

        return QueryService(self, **kwargs)

    def query(self, expr: Expression) -> QueryResult:
        """Evaluate a bulk bitwise expression over stored vectors.

        The expression is applied chunk-wise: chunk c of every operand
        lives on the same chip (identical striping), so each chip
        computes its chunks independently -- chips work in parallel in
        a real SSD, hence latency aggregates as the per-chip maximum.
        The plan is built once (template cache) and bound to each
        chunk's addresses; planning cost is independent of the number
        of chunks.
        """
        return self.engine.query(expr)

    def read_vector(self, name: str) -> np.ndarray:
        """Read a stored vector back through regular page reads.

        Each chunk stays packed through the sense and latch pipeline
        inside ``read_page``; the single unpack per chunk happens at
        its off-chip transfer, i.e. this result boundary.
        """
        record = self.ftl.lookup(name)
        pieces = []
        for placement in record.placements:
            controller = self.controllers[placement.chip]
            stored = controller.stored(
                self._chunk_operand_name(name, placement.chunk)
            )
            bits = controller.chip.read_page(
                stored.address, inverse=stored.inverted
            )
            pieces.append(bits)
        return np.concatenate(pieces)[: record.n_bits]
