"""Host-visible Flash-Cosmos library: ``fc_write`` and ``fc_read``.

Section 6.3 sketches the system support: the application tells the
SSD which data participates in bulk bitwise operations (so it is
ESP-programmed, optionally inverted, and placed to minimize senses),
then issues reads that name operands and an operation.  This module
provides that library for one chip:

* :meth:`FlashCosmos.fc_write` stores an operand with placement
  control -- a *group* co-locates operands in one string group (for
  intra-block AND, or inverse-stored OR), no group allocates a fresh
  block (for inter-block OR);
* :meth:`FlashCosmos.fc_read` plans and executes a boolean expression
  over stored operands and returns the result bits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.expressions import Expression
from repro.core.mws import ExecutionResult, MwsExecutor
from repro.core.planner import (
    OperandDirectory,
    Plan,
    Planner,
    StoredOperand,
)
from repro.flash.chip import NandFlashChip
from repro.flash.geometry import BlockAddress, WordlineAddress
from repro.flash.ispp import ProgramMode
from repro.flash.packing import (
    as_bits,
    ensure_padding,
    invert_words,
    words_per_page,
)


@dataclass(frozen=True)
class OperandHandle:
    """What ``fc_write`` returns to the application."""

    name: str
    address: WordlineAddress
    inverted: bool


class AllocationError(Exception):
    """The requested placement cannot be satisfied."""


class FlashCosmos:
    """Flash-Cosmos controller for a single chip."""

    def __init__(
        self,
        chip: NandFlashChip,
        *,
        block_limit: int = 4,
        esp_extra: float = 0.9,
    ) -> None:
        self.chip = chip
        self.esp_extra = esp_extra
        self.directory = OperandDirectory()
        self.planner = Planner(self.directory, block_limit=block_limit)
        self.executor = MwsExecutor(chip)
        # Allocation cursors: per plane, the next unused sub-block
        # index; per (plane, group), the open sub-block and next WL.
        self._next_subblock: dict[int, int] = {}
        self._group_cursor: dict[tuple[int, str], tuple[BlockAddress, int]] = {}
        # GC integration: erased sub-blocks returned by the maintenance
        # plane (reused before the linear cursor advances) and retired
        # sub-blocks (stuck bad blocks scrubbed out of the pool).
        self._free_subblocks: list[BlockAddress] = []
        self._retired_subblocks: set[BlockAddress] = set()

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def _allocate_subblock(self, plane: int) -> BlockAddress:
        g = self.chip.geometry
        free = [a for a in self._free_subblocks if a.plane == plane]
        if free:
            # Wear-leveling: reuse the erased sub-block whose block has
            # seen the fewest program/erase cycles (address order ties).
            choice = min(
                free,
                key=lambda a: (self.chip.plane_array.block(a).pe_cycles, a),
            )
            self._free_subblocks.remove(choice)
            return choice
        index = self._next_subblock.get(plane, 0)
        total = g.blocks_per_plane * g.subblocks_per_block
        while index < total:
            address = BlockAddress(
                plane=plane,
                block=index // g.subblocks_per_block,
                subblock=index % g.subblocks_per_block,
            )
            index += 1
            if address in self._retired_subblocks:
                continue
            self._next_subblock[plane] = index
            return address
        self._next_subblock[plane] = index
        raise AllocationError(f"plane {plane} has no free sub-blocks")

    def release_subblock(self, address: BlockAddress) -> None:
        """Return an erased sub-block to the allocation pool (GC).  No
        group cursor may point into the pool: one still aimed at the
        sub-block (a fully-dead GC victim is never repointed) is
        dropped, or the group's next write would land in a sub-block
        the allocator is free to hand to someone else."""
        for key, (block, _wl) in list(self._group_cursor.items()):
            if block == address:
                del self._group_cursor[key]
        if address in self._retired_subblocks:
            return
        if address not in self._free_subblocks:
            self._free_subblocks.append(address)

    def retire_subblock(self, address: BlockAddress) -> bool:
        """Exclude a sub-block from allocation permanently (bad block
        scrub/remap): never handed out again, even after erase.
        Returns whether the address was newly retired."""
        if address in self._retired_subblocks:
            return False
        self._retired_subblocks.add(address)
        if address in self._free_subblocks:
            self._free_subblocks.remove(address)
        return True

    def free_subblocks(self, plane: int = 0) -> int:
        """Allocatable sub-blocks left on a plane: the GC free list
        plus whatever the linear cursor has not yet handed out -- the
        sub-blocks at or past it, less the retired ones among them."""
        per_block = self.chip.geometry.subblocks_per_block
        total = self.chip.geometry.blocks_per_plane * per_block
        index = self._next_subblock.get(plane, 0)
        retired_ahead = sum(
            a.plane == plane
            and 0 <= a.subblock < per_block
            and index <= a.block * per_block + a.subblock < total
            for a in self._retired_subblocks
        )
        freed = sum(1 for a in self._free_subblocks if a.plane == plane)
        return max(total - index, 0) - retired_ahead + freed

    def check_room(self, groups: list[str | None], plane: int = 0) -> None:
        """Raise :class:`AllocationError` unless one page per entry of
        ``groups`` (its string group, ``None`` for a page of its own)
        fits on ``plane`` before any is written: a free sub-block per
        ungrouped page and per group not open yet, and each group's
        pages within the wordlines its string has left."""
        per_string = self.chip.geometry.wordlines_per_string
        need = Counter(groups)
        subblocks = need.pop(None, 0)
        for group, n in need.items():
            cursor = self._group_cursor.get((plane, group))
            subblocks += cursor is None
            if n > per_string - (0 if cursor is None else cursor[1]):
                raise AllocationError(
                    f"group {group!r} has no room for {n} pages"
                )
        if subblocks > self.free_subblocks(plane):
            raise AllocationError(
                f"plane {plane} has fewer than {subblocks} free sub-blocks"
            )

    def _allocate_wordline(
        self, plane: int, group: str | None
    ) -> WordlineAddress:
        g = self.chip.geometry
        if group is None:
            block = self._allocate_subblock(plane)
            return WordlineAddress(
                block.plane, block.block, block.subblock, 0
            )
        key = (plane, group)
        if key not in self._group_cursor:
            self._group_cursor[key] = (self._allocate_subblock(plane), 0)
        block, next_wl = self._group_cursor[key]
        if next_wl >= g.wordlines_per_string:
            raise AllocationError(
                f"group {group!r} exhausted its string group "
                f"({g.wordlines_per_string} wordlines); start a new group "
                "and AND-accumulate across them"
            )
        self._group_cursor[key] = (block, next_wl + 1)
        return WordlineAddress(
            block.plane, block.block, block.subblock, next_wl
        )

    # ------------------------------------------------------------------
    # Library calls (Section 6.3)
    # ------------------------------------------------------------------

    def fc_write(
        self,
        name: str,
        data_bits: np.ndarray,
        *,
        group: str | None = None,
        inverse: bool = False,
        plane: int = 0,
    ) -> OperandHandle:
        """Store an operand for in-flash computation.

        The page is ESP-programmed without randomization (the
        Flash-Cosmos storage regime).  With ``inverse`` the complement
        is stored, enabling same-block OR via De Morgan (Section 6.1).
        ``data_bits`` may be an unpacked 0/1 page or a packed
        ``uint64`` word row (the SSD ingest path packs once).
        """
        if name in self.directory:
            raise ValueError(f"operand {name!r} already written")
        # Coerce before allocating so a malformed input cannot leak a
        # wordline.
        page_bits = self.chip.geometry.page_size_bits
        data = np.asarray(data_bits)
        if data.dtype == np.uint64:
            if data.shape != (words_per_page(page_bits),):
                raise ValueError(
                    f"packed page must have {words_per_page(page_bits)} "
                    f"words, got shape {data.shape}"
                )
            stored = (
                invert_words(data, page_bits)
                if inverse
                else ensure_padding(data, page_bits)
            )
        else:
            data = as_bits(data_bits, f"operand {name!r}")
            stored = (1 - data).astype(np.uint8) if inverse else data
        # Snapshot the allocation cursors so a failed program does not
        # leak the wordline: the cursor would otherwise sit one past a
        # page that holds no registered operand.
        subblock_cursor = self._next_subblock.get(plane)
        free_snapshot = list(self._free_subblocks)
        group_key = (plane, group) if group is not None else None
        group_cursor = (
            self._group_cursor.get(group_key) if group_key else None
        )
        address = self._allocate_wordline(plane, group)
        try:
            self.chip.program_page(
                address,
                stored,
                mode=ProgramMode.ESP,
                esp_extra=self.esp_extra,
                randomize=False,
            )
        except Exception:
            if subblock_cursor is None:
                self._next_subblock.pop(plane, None)
            else:
                self._next_subblock[plane] = subblock_cursor
            self._free_subblocks = free_snapshot
            if group_key is not None:
                if group_cursor is None:
                    self._group_cursor.pop(group_key, None)
                else:
                    self._group_cursor[group_key] = group_cursor
            raise
        self.directory.register(
            StoredOperand(
                name=name,
                address=address,
                inverted=inverse,
                esp_extra=self.esp_extra,
            )
        )
        return OperandHandle(name=name, address=address, inverted=inverse)

    def fc_read(self, expr: Expression) -> ExecutionResult:
        """Plan and execute a bulk bitwise expression in the flash
        array; returns the result bits plus cost accounting."""
        plan = self.planner.plan(expr)
        return self.executor.execute(plan)

    def plan(self, expr: Expression) -> Plan:
        """Expose the command plan without executing (inspection,
        performance modeling)."""
        return self.planner.plan(expr)

    def stored(self, name: str) -> StoredOperand:
        return self.directory.lookup(name)
