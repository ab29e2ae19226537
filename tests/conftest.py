"""Shared fixtures for the Flash-Cosmos reproduction test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.flash.chip import NandFlashChip
from repro.flash.errors import OperatingCondition
from repro.flash.geometry import ChipGeometry

# Test-only helper modules beside this file (``reference_control_path``,
# the scan-based scheduler and one-heap event sweep the equivalence
# suites compare against) are imported by bare name from any test
# directory.
_HERE = str(Path(__file__).resolve().parent)
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)


@pytest.fixture
def tiny_geometry() -> ChipGeometry:
    """A very small array for fast logic tests."""
    return ChipGeometry(
        planes_per_die=2,
        blocks_per_plane=6,
        subblocks_per_block=2,
        wordlines_per_string=8,
        page_size_bits=128,
    )


@pytest.fixture
def paper_geometry() -> ChipGeometry:
    """Structurally faithful geometry (48-WL strings) with a small
    page so functional MWS tests stay fast."""
    return ChipGeometry(
        planes_per_die=2,
        blocks_per_plane=8,
        subblocks_per_block=4,
        wordlines_per_string=48,
        page_size_bits=512,
    )


@pytest.fixture
def clean_chip(tiny_geometry) -> NandFlashChip:
    """Chip with error injection disabled: pure logic behaviour."""
    return NandFlashChip(tiny_geometry, inject_errors=False, seed=7)


@pytest.fixture
def noisy_chip(paper_geometry) -> NandFlashChip:
    """Chip with error injection enabled under mild stress."""
    chip = NandFlashChip(paper_geometry, inject_errors=True, seed=11)
    chip.set_condition(OperatingCondition(pe_cycles=3000, retention_months=3.0))
    return chip


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def random_page(rng: np.random.Generator, n_bits: int) -> np.ndarray:
    return rng.integers(0, 2, size=n_bits, dtype=np.uint8)


@pytest.fixture
def make_page(rng):
    """Factory fixture: make_page(n_bits) -> random 0/1 page."""

    def factory(n_bits: int) -> np.ndarray:
        return random_page(rng, n_bits)

    return factory
