"""Cell-array geometry of a 3D NAND flash chip.

Terminology (paper Section 2.1, Figure 1):

* A *NAND string* is a vertical series chain of flash cells (24-176 in
  commercial chips; 48 in the chips characterized by the paper).
* A string connects to one *bitline* (BL).  Strings at different BLs
  whose gates share *wordlines* (WLs) form a *sub-block*.
* Several sub-blocks (4 or 8) form a *block*, the erase unit.  The paper
  mostly says "block" for "sub-block"; we keep both notions explicit and
  default to the paper's convention where a block exposes
  ``wordlines_per_string`` wordlines per sub-block.
* Blocks in a *plane* share the plane's bitlines, so a single BL is
  shared by thousands of strings -- the physical basis of inter-block
  multi-wordline sensing (bitwise OR).
* A die contains multiple planes; a chip contains one or more dies.

A *page* is the data stored on one wordline of one sub-block (16 KiB in
the characterized chips).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


@dataclass(frozen=True)
class ChipGeometry:
    """Dimensions of a NAND flash chip.

    The defaults reproduce the configuration of the paper's real-device
    characterization (160 48-layer 3D TLC chips, 16-KiB pages) and the
    simulated SSD of Table 1 (2,048 blocks/plane, 4 sub-blocks of 48 WLs
    per block, 2 planes/die).

    ``page_size_bits`` is configurable so tests and functional demos can
    run on small arrays while system-level models keep the real 16 KiB.
    """

    planes_per_die: int = 2
    blocks_per_plane: int = 2048
    subblocks_per_block: int = 4
    wordlines_per_string: int = 48
    page_size_bits: int = 16 * 1024 * 8
    dies_per_chip: int = 1

    def __post_init__(self) -> None:
        for name in (
            "planes_per_die",
            "blocks_per_plane",
            "subblocks_per_block",
            "wordlines_per_string",
            "page_size_bits",
            "dies_per_chip",
        ):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    @property
    def page_size_bytes(self) -> int:
        if self.page_size_bits % 8:
            raise ValueError("page size is not byte aligned")
        return self.page_size_bits // 8

    @property
    def wordlines_per_block(self) -> int:
        """Total wordlines exposed by a block across its sub-blocks.

        Table 1 reports 196 (4 x 48 = 192; the datasheet rounds to 196
        because of dummy wordlines, which store no user data and are not
        modeled).
        """
        return self.subblocks_per_block * self.wordlines_per_string

    @property
    def pages_per_block(self) -> int:
        """SLC-mode pages per block (one page per wordline)."""
        return self.wordlines_per_block

    @property
    def block_capacity_bits(self) -> int:
        return self.pages_per_block * self.page_size_bits

    @property
    def plane_capacity_bits(self) -> int:
        return self.blocks_per_plane * self.block_capacity_bits

    @property
    def die_capacity_bits(self) -> int:
        return self.planes_per_die * self.plane_capacity_bits

    def scaled(self, **overrides: int) -> "ChipGeometry":
        """Return a copy with some dimensions overridden.

        Used throughout the tests to shrink the array while keeping the
        structural ratios intact.
        """
        params = {
            "planes_per_die": self.planes_per_die,
            "blocks_per_plane": self.blocks_per_plane,
            "subblocks_per_block": self.subblocks_per_block,
            "wordlines_per_string": self.wordlines_per_string,
            "page_size_bits": self.page_size_bits,
            "dies_per_chip": self.dies_per_chip,
        }
        unknown = set(overrides) - set(params)
        if unknown:
            raise TypeError(f"unknown geometry fields: {sorted(unknown)}")
        params.update(overrides)
        return ChipGeometry(**params)


#: Geometry used by the paper's real-device characterization, scaled to
#: a size that is practical to hold in memory for functional tests.
TEST_GEOMETRY = ChipGeometry(
    planes_per_die=2,
    blocks_per_plane=8,
    subblocks_per_block=2,
    wordlines_per_string=48,
    page_size_bits=512,
)


@dataclass(frozen=True, order=True)
class BlockAddress:
    """Physical address of one sub-block (the paper's "block")."""

    plane: int
    block: int
    subblock: int = 0

    def validate(self, geometry: ChipGeometry) -> None:
        if not 0 <= self.plane < geometry.planes_per_die:
            raise IndexError(f"plane {self.plane} out of range")
        if not 0 <= self.block < geometry.blocks_per_plane:
            raise IndexError(f"block {self.block} out of range")
        if not 0 <= self.subblock < geometry.subblocks_per_block:
            raise IndexError(f"subblock {self.subblock} out of range")


@dataclass(frozen=True, order=True)
class WordlineAddress:
    """Physical address of one wordline within a sub-block."""

    plane: int
    block: int
    subblock: int
    wordline: int

    @property
    def block_address(self) -> BlockAddress:
        return BlockAddress(self.plane, self.block, self.subblock)

    def validate(self, geometry: ChipGeometry) -> None:
        self.block_address.validate(geometry)
        if not 0 <= self.wordline < geometry.wordlines_per_string:
            raise IndexError(f"wordline {self.wordline} out of range")


# In SLC mode every wordline holds exactly one page, so a page address
# is a wordline address.  The alias keeps call sites readable.
PageAddress = WordlineAddress


def iter_wordlines(
    geometry: ChipGeometry, block: BlockAddress
) -> Iterator[WordlineAddress]:
    """Yield every wordline address of a sub-block in string order."""
    block.validate(geometry)
    for wordline in range(geometry.wordlines_per_string):
        yield WordlineAddress(block.plane, block.block, block.subblock, wordline)


def iter_blocks(geometry: ChipGeometry) -> Iterator[BlockAddress]:
    """Yield every sub-block address of a die, plane-major."""
    for plane in range(geometry.planes_per_die):
        for block in range(geometry.blocks_per_plane):
            for subblock in range(geometry.subblocks_per_block):
                yield BlockAddress(plane, block, subblock)


@dataclass
class StringGroup:
    """A set of wordlines that share NAND strings (same sub-block).

    Intra-block MWS may target any subset of one string group; the sense
    result is the bitwise AND of the targeted wordlines (paper
    Section 4.1, Figure 9(a)).
    """

    block: BlockAddress
    wordlines: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if len(set(self.wordlines)) != len(self.wordlines):
            raise ValueError("duplicate wordlines in string group")

    def addresses(self) -> tuple[WordlineAddress, ...]:
        return tuple(
            WordlineAddress(
                self.block.plane, self.block.block, self.block.subblock, wl
            )
            for wl in self.wordlines
        )
