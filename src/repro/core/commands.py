"""Flash-Cosmos NAND command encoding (Figure 15).

The paper adds three commands to the chip's command set:

* ``MWS``  -- extended read: an ISCM flag slot (Inverse read, S-latch
  init, C-latch init, Move S->C), then one or more (block address,
  page bitmap) slots separated by ``CONT`` and terminated by ``CONF``.
  The page bitmap (PBM) selects which wordlines of the block receive
  VREF, replacing the page index of a regular read.
* ``ESP``  -- same interface as a regular program command plus the
  extra-effort knob (conveyed via SET FEATURE in real chips).
* ``XOR``  -- S-latch XOR C-latch into the C-latch.

This module provides dataclasses for the three commands plus a byte
serializer/parser, so the command-latching behaviour the paper argues
is a "small change to the control logic" is concrete and testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.flash.chip import IscmFlags
from repro.flash.geometry import BlockAddress, ChipGeometry

#: Command opcodes (one byte).  Values are arbitrary but fixed; real
#: vendors treat their command space as proprietary (Section 6.2).
MWS_OPCODE = 0xB0
ESP_OPCODE = 0xB2
XOR_OPCODE = 0xB4
CONT = 0x5C
CONF = 0x5D


def wordlines_to_bitmap(wordlines: tuple[int, ...], n_wordlines: int) -> int:
    """Pack a wordline set into a page bitmap (PBM)."""
    bitmap = 0
    for wl in wordlines:
        if not 0 <= wl < n_wordlines:
            raise ValueError(f"wordline {wl} out of range [0, {n_wordlines})")
        bit = 1 << wl
        if bitmap & bit:
            raise ValueError(f"duplicate wordline {wl} in bitmap")
        bitmap |= bit
    return bitmap


def bitmap_to_wordlines(bitmap: int) -> tuple[int, ...]:
    """Unpack a PBM into a sorted wordline tuple."""
    out = []
    wl = 0
    while bitmap:
        if bitmap & 1:
            out.append(wl)
        bitmap >>= 1
        wl += 1
    return tuple(out)


@dataclass(frozen=True, slots=True)
class MwsCommand:
    """One MWS command: ISCM flags plus per-block page bitmaps.

    Slotted: bound plans hold thousands of these, and a slot costs a
    pointer where an instance ``__dict__`` costs hundreds of bytes.
    """

    iscm: IscmFlags
    targets: tuple[tuple[BlockAddress, tuple[int, ...]], ...]
    #: Memo slots, not part of the command's value.  ``_hash``: the
    #: recursive hash (the engine interns every plan it binds by its
    #: steps, whose hash covers every command).  Resolving the command
    #: (:meth:`~repro.flash.chip.NandFlashChip.resolve`) is split:
    #: ``_rows`` is the half every chip shares, ``(geometry, profile,
    #: address rows)``; ``_resolved`` maps chip -> its half.
    _hash: int | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _rows: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _resolved: dict | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.targets:
            raise ValueError("MWS command needs at least one target")
        for block, wordlines in self.targets:
            if not wordlines:
                raise ValueError("MWS target with empty wordline set")
            # One MWS applies the read voltage to each wordline once.
            if len(set(wordlines)) != len(wordlines):
                raise ValueError(
                    f"MWS target {block} repeats a wordline: {wordlines}"
                )

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self.iscm, self.targets))
            object.__setattr__(self, "_hash", cached)
        return cached

    @property
    def n_blocks(self) -> int:
        return len(self.targets)

    @property
    def n_wordlines(self) -> int:
        return sum(len(wls) for _, wls in self.targets)

    @property
    def max_wordlines_per_block(self) -> int:
        return max(len(wls) for _, wls in self.targets)


@dataclass(frozen=True)
class EspCommand:
    """ESP program command (regular program interface + effort knob)."""

    block: BlockAddress
    wordline: int
    esp_extra: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.esp_extra <= 1.0:
            raise ValueError("esp_extra must be in [0, 1]")


@dataclass(frozen=True)
class XorCommand:
    """Latch XOR command: C-latch := S-latch XOR C-latch."""

    plane: int = 0


@dataclass
class CommandEncoder:
    """Serializes/parses Flash-Cosmos commands to/from command-bus
    bytes, mirroring Figure 15's slot layout."""

    geometry: ChipGeometry = field(default_factory=ChipGeometry)

    @property
    def _pbm_bytes(self) -> int:
        return math.ceil(self.geometry.wordlines_per_string / 8)

    @property
    def _block_bytes(self) -> int:
        # plane | block | subblock packed as three fields.
        return 4

    def _encode_block(self, block: BlockAddress) -> bytes:
        block.validate(self.geometry)
        packed = (
            block.plane << 24
            | block.block << 4
            | block.subblock
        )
        return packed.to_bytes(self._block_bytes, "big")

    def _decode_block(self, raw: bytes) -> BlockAddress:
        packed = int.from_bytes(raw, "big")
        return BlockAddress(
            plane=packed >> 24,
            block=(packed >> 4) & 0xFFFFF,
            subblock=packed & 0xF,
        )

    def encode_mws(self, command: MwsCommand) -> bytes:
        """MWS | ISCM | BLK PBM (CONT BLK PBM)* | CONF"""
        iscm = command.iscm
        iscm_byte = (
            (iscm.inverse << 3)
            | (iscm.init_sense << 2)
            | (iscm.init_cache << 1)
            | iscm.transfer
        )
        out = bytearray([MWS_OPCODE, iscm_byte])
        for i, (block, wordlines) in enumerate(command.targets):
            if i:
                out.append(CONT)
            out += self._encode_block(block)
            bitmap = wordlines_to_bitmap(
                wordlines, self.geometry.wordlines_per_string
            )
            out += bitmap.to_bytes(self._pbm_bytes, "little")
        out.append(CONF)
        return bytes(out)

    def decode_mws(self, raw: bytes) -> MwsCommand:
        if not raw or raw[0] != MWS_OPCODE:
            raise ValueError("not an MWS command")
        if raw[-1] != CONF:
            raise ValueError("MWS command not terminated by CONF")
        iscm_byte = raw[1]
        iscm = IscmFlags(
            inverse=bool(iscm_byte & 0b1000),
            init_sense=bool(iscm_byte & 0b0100),
            init_cache=bool(iscm_byte & 0b0010),
            transfer=bool(iscm_byte & 0b0001),
        )
        body = raw[2:-1]
        slot = self._block_bytes + self._pbm_bytes
        targets = []
        offset = 0
        while offset < len(body):
            if targets:
                if body[offset] != CONT:
                    raise ValueError("expected CONT between address slots")
                offset += 1
            chunk = body[offset : offset + slot]
            if len(chunk) != slot:
                raise ValueError("truncated MWS address slot")
            block = self._decode_block(chunk[: self._block_bytes])
            bitmap = int.from_bytes(chunk[self._block_bytes :], "little")
            targets.append((block, bitmap_to_wordlines(bitmap)))
            offset += slot
        return MwsCommand(iscm=iscm, targets=tuple(targets))

    def encode_esp(self, command: EspCommand) -> bytes:
        effort = round(command.esp_extra * 255)
        return (
            bytes([ESP_OPCODE])
            + self._encode_block(command.block)
            + bytes([command.wordline, effort])
        )

    def decode_esp(self, raw: bytes) -> EspCommand:
        if not raw or raw[0] != ESP_OPCODE:
            raise ValueError("not an ESP command")
        block = self._decode_block(raw[1 : 1 + self._block_bytes])
        wordline = raw[1 + self._block_bytes]
        effort = raw[2 + self._block_bytes] / 255
        return EspCommand(block=block, wordline=wordline, esp_extra=effort)

    def encode_xor(self, command: XorCommand) -> bytes:
        return bytes([XOR_OPCODE, command.plane])

    def decode_xor(self, raw: bytes) -> XorCommand:
        if not raw or raw[0] != XOR_OPCODE:
            raise ValueError("not an XOR command")
        return XorCommand(plane=raw[1])
