"""Tests for repro.core.commands (Figure 15 encoding)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.commands import (
    CommandEncoder,
    EspCommand,
    MwsCommand,
    XorCommand,
    bitmap_to_wordlines,
    wordlines_to_bitmap,
)
from repro.flash.chip import IscmFlags
from repro.flash.geometry import BlockAddress, ChipGeometry

GEOMETRY = ChipGeometry(
    planes_per_die=2,
    blocks_per_plane=64,
    subblocks_per_block=4,
    wordlines_per_string=48,
    page_size_bits=512,
)


@pytest.fixture(scope="module")
def encoder():
    return CommandEncoder(GEOMETRY)


class TestBitmaps:
    def test_roundtrip(self):
        wls = (0, 3, 47)
        assert bitmap_to_wordlines(wordlines_to_bitmap(wls, 48)) == wls

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            wordlines_to_bitmap((48,), 48)

    def test_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            wordlines_to_bitmap((1, 1), 48)

    @given(
        wls=st.lists(st.integers(0, 47), min_size=1, max_size=48, unique=True)
    )
    def test_roundtrip_property(self, wls):
        bitmap = wordlines_to_bitmap(tuple(wls), 48)
        assert bitmap_to_wordlines(bitmap) == tuple(sorted(wls))


class TestMwsCommand:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one target"):
            MwsCommand(iscm=IscmFlags(), targets=())
        with pytest.raises(ValueError, match="empty wordline"):
            MwsCommand(
                iscm=IscmFlags(), targets=((BlockAddress(0, 0, 0), ()),)
            )

    def test_a_repeated_wordline_is_refused_naming_its_block(self):
        """One MWS applies the read voltage to each wordline once:
        ``(0, 1, 1)`` would sense the bits of ``(0, 1)`` but be charged
        and read-disturbed as three wordlines."""
        block = BlockAddress(0, 5, 1)
        with pytest.raises(ValueError, match="repeats a wordline") as raised:
            MwsCommand(
                iscm=IscmFlags(),
                targets=((BlockAddress(0, 0, 0), (2,)), (block, (0, 1, 1))),
            )
        assert str(block) in str(raised.value)

    def test_stats(self):
        cmd = MwsCommand(
            iscm=IscmFlags(),
            targets=(
                (BlockAddress(0, 0, 0), (0, 1, 2)),
                (BlockAddress(0, 1, 0), (5,)),
            ),
        )
        assert cmd.n_blocks == 2
        assert cmd.n_wordlines == 4
        assert cmd.max_wordlines_per_block == 3


class TestMwsEncoding:
    def test_single_block_roundtrip(self, encoder):
        cmd = MwsCommand(
            iscm=IscmFlags(inverse=True, init_sense=True, init_cache=False,
                           transfer=True),
            targets=((BlockAddress(1, 42, 3), (0, 7, 47)),),
        )
        assert encoder.decode_mws(encoder.encode_mws(cmd)) == cmd

    def test_multi_block_uses_cont_slots(self, encoder):
        """Figure 15: additional block/PBM slots follow a CONT byte."""
        cmd = MwsCommand(
            iscm=IscmFlags(),
            targets=(
                (BlockAddress(0, 1, 0), (0,)),
                (BlockAddress(0, 2, 1), (3, 4)),
                (BlockAddress(0, 3, 2), (47,)),
            ),
        )
        raw = encoder.encode_mws(cmd)
        assert raw.count(0x5C) >= 2  # CONT separators
        assert raw[-1] == 0x5D  # CONF terminator
        assert encoder.decode_mws(raw) == cmd

    def test_decode_rejects_wrong_opcode(self, encoder):
        with pytest.raises(ValueError, match="not an MWS"):
            encoder.decode_mws(bytes([0xFF, 0, 0x5D]))

    def test_decode_rejects_missing_conf(self, encoder):
        cmd = MwsCommand(
            iscm=IscmFlags(), targets=((BlockAddress(0, 0, 0), (0,)),)
        )
        raw = encoder.encode_mws(cmd)[:-1]
        with pytest.raises(ValueError, match="CONF"):
            encoder.decode_mws(raw)

    def test_decode_rejects_truncated_slot(self, encoder):
        cmd = MwsCommand(
            iscm=IscmFlags(), targets=((BlockAddress(0, 0, 0), (0,)),)
        )
        raw = encoder.encode_mws(cmd)
        broken = raw[:-3] + bytes([0x5D])
        with pytest.raises(ValueError, match="truncated"):
            encoder.decode_mws(broken)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_roundtrip_property(self, encoder, data):
        n_blocks = data.draw(st.integers(1, 4))
        blocks = data.draw(
            st.lists(
                st.tuples(st.integers(0, 1), st.integers(0, 63),
                          st.integers(0, 3)),
                min_size=n_blocks, max_size=n_blocks, unique=True,
            )
        )
        targets = []
        for plane, block, sub in blocks:
            wls = data.draw(
                st.lists(st.integers(0, 47), min_size=1, max_size=48,
                         unique=True)
            )
            targets.append(
                (BlockAddress(plane, block, sub), tuple(sorted(wls)))
            )
        iscm = IscmFlags(
            inverse=data.draw(st.booleans()),
            init_sense=data.draw(st.booleans()),
            init_cache=data.draw(st.booleans()),
            transfer=data.draw(st.booleans()),
        )
        cmd = MwsCommand(iscm=iscm, targets=tuple(targets))
        assert encoder.decode_mws(encoder.encode_mws(cmd)) == cmd


class TestEspAndXorEncoding:
    def test_esp_roundtrip(self, encoder):
        cmd = EspCommand(block=BlockAddress(1, 7, 2), wordline=13,
                         esp_extra=0.9)
        decoded = encoder.decode_esp(encoder.encode_esp(cmd))
        assert decoded.block == cmd.block
        assert decoded.wordline == cmd.wordline
        assert decoded.esp_extra == pytest.approx(0.9, abs=1 / 255)

    def test_esp_validation(self):
        with pytest.raises(ValueError):
            EspCommand(block=BlockAddress(0, 0, 0), wordline=0, esp_extra=1.5)

    def test_esp_rejects_wrong_opcode(self, encoder):
        with pytest.raises(ValueError, match="not an ESP"):
            encoder.decode_esp(bytes(8))

    def test_xor_roundtrip(self, encoder):
        cmd = XorCommand(plane=1)
        assert encoder.decode_xor(encoder.encode_xor(cmd)) == cmd

    def test_xor_rejects_wrong_opcode(self, encoder):
        with pytest.raises(ValueError, match="not an XOR"):
            encoder.decode_xor(bytes([0x00, 0]))
