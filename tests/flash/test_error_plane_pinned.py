"""The V_TH error plane, pinned to recorded values.

Error-injecting chips sense through the V_TH plane and latch packed
words.  Nothing about that may move a served bit or a stochastic
draw: the values below were recorded from the byte-per-bit latch plane
this one replaced, on the same seeded scenarios, as one 16-hex-digit
SHA-256 per step (over the bits, or over the ``repr`` of exact floats
and RNG states).  The one value that moved is declared where it is
pinned: copyback and erase verify no longer count an off-chip
transfer.

* one chip: scalar ``execute_sense`` walks, a batched V_TH window,
  ``read_page_with_retry``, ``erase_verify``, ``copyback`` and MLC
  LSB / MSB reads, the sensing RNG state taken after each;
* one ``SmallSsd(inject_errors=True)``: queries and a vector read.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.api import FlashCosmos
from repro.core.expressions import And, Not, Operand, Xor, or_all
from repro.flash.chip import NandFlashChip
from repro.flash.errors import OperatingCondition
from repro.flash.geometry import BlockAddress, ChipGeometry, WordlineAddress
from repro.ssd.controller import SmallSsd

#: 200-bit pages: the last packed word carries 56 padding bits.
GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=8,
    subblocks_per_block=2,
    wordlines_per_string=8,
    page_size_bits=200,
)
#: Worn and retentive enough that real bits flip.
STRESS = OperatingCondition(pe_cycles=3000, retention_months=6.0, reads=2000)

_A, _B, _C, _D = (Operand(name) for name in "abcd")
EXPRESSIONS = (
    And(_A, _B),
    or_all([_A, _D]),
    Not(And(_A, _B)),
    Xor(_A, _D),
    or_all([_C, _B]),
    And(And(_A, _B), _C),
)


def _digest(value) -> str:
    """A bit array by its bytes, anything else by its ``repr``."""
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value, dtype=np.uint8).tobytes()
    else:
        data = repr(value).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _pinned(out: dict) -> dict:
    """Every step digested; a plain count stays readable."""
    return {
        key: value if isinstance(value, int) else _digest(value)
        for key, value in out.items()
    }


def _state(chip):
    return chip.sensing.rng.bit_generator.state["state"]


def _costed(result) -> tuple:
    """A result's bits with what it was charged."""
    return (
        _digest(result.bits),
        result.n_senses,
        result.latency_us,
        result.energy_nj,
    )


def _write_operands(write, n_bits: int, seed: int) -> None:
    """``a`` and ``b`` co-located, ``c`` stored inverted, ``d`` alone."""
    rng = np.random.default_rng(seed)
    for name, group, inverse in (
        ("a", "g", False),
        ("b", "g", False),
        ("c", "h", True),
        ("d", None, False),
    ):
        bits = rng.integers(0, 2, n_bits, dtype=np.uint8)
        write(name, bits, group=group, inverse=inverse)


def chip_scenario() -> dict:
    chip = NandFlashChip(GEOMETRY, inject_errors=True, seed=5)
    chip.set_condition(STRESS)
    fc = FlashCosmos(chip)
    _write_operands(fc.fc_write, GEOMETRY.page_size_bits, seed=27)
    rng = np.random.default_rng(28)
    out: dict = {}

    def page():
        return rng.integers(0, 2, GEOMETRY.page_size_bits, dtype=np.uint8)

    def step(name, value):
        out[name] = value
        out[f"{name}_state"] = _state(chip)

    plans = [fc.plan(expr) for expr in EXPRESSIONS]
    step("walk", [_costed(fc.executor.execute(plan)) for plan in plans[:3]])
    assert fc.executor.batchable(plans)
    step("batch", [_costed(r) for r in fc.executor.execute_batch(plans)])
    # A randomized SLC page read back with retry: the validator turns
    # down the first two offsets.
    source = WordlineAddress(0, 6, 0, 0)
    chip.program_page(source, page())
    reads = []
    raw, retries = chip.read_page_with_retry(
        source, lambda bits: reads.append(_digest(bits)) or len(reads) == 3
    )
    step("retry", (reads, _digest(raw), retries))
    verify = [chip.erase_verify(BlockAddress(0, b, 0)) for b in (7, 6)]
    step("erase_verify", verify)
    copy = WordlineAddress(0, 6, 0, 1)
    chip.copyback(source, copy)
    copied = (chip.stored_bits(copy), chip.read_page(copy))
    step("copyback", [_digest(bits) for bits in copied])
    mlc = WordlineAddress(0, 6, 1, 0)
    chip.program_page_mlc(mlc, page(), page())
    lsb = (chip.read_page(mlc), chip.read_page(mlc, inverse=True))
    step("mlc", [_digest(bits) for bits in (*lsb, chip.read_msb_page(mlc))])
    counters = chip.counters
    out["counters"] = (
        counters.senses,
        counters.wordlines_sensed,
        counters.programs,
        counters.busy_us,
        counters.energy_nj,
    )
    out["transfers_out"] = counters.transfers_out
    return out


def ssd_scenario() -> dict:
    ssd = SmallSsd(
        n_chips=2,
        geometry=GEOMETRY,
        inject_errors=True,
        condition=STRESS,
        seed=3,
    )
    _write_operands(ssd.write_vector, 3 * GEOMETRY.page_size_bits - 13, 41)
    out: dict = {}
    for index, expr in enumerate(EXPRESSIONS):
        result = ssd.query(expr)
        out[f"query{index}"] = (*_costed(result), result.makespan_us)
    out["read_d"] = ssd.read_vector("d")
    out["states"] = [_state(chip) for chip in ssd.chips]
    return out


def test_chip_error_plane_is_pinned():
    assert _pinned(chip_scenario()) == CHIP_PINNED


def test_ssd_error_plane_is_pinned():
    assert _pinned(ssd_scenario()) == SSD_PINNED


#: Recorded from the byte-per-bit latch plane (see the module docstring).
CHIP_PINNED = {
    "walk": "0c36247aaef19e71",
    "walk_state": "f8b9eb85a3c500d1",
    "batch": "5af395936ede3a15",
    "batch_state": "7a45c899b3940d1f",
    "retry": "e7d0011143da041e",
    "retry_state": "a4f770e1b95ea4e9",
    "erase_verify": "b8d09808ff0f48f4",
    "erase_verify_state": "de195f87c83c9bce",
    "copyback": "ac8640e6057d4058",
    "copyback_state": "0191ad25c706bcc0",
    "mlc": "96e88fa5390c02a7",
    "mlc_state": "acd9ad7c10920e3f",
    "counters": "9412b72e6612caaa",
    # The one value that moved, by design: copyback and the two erase
    # verifies read their latch on the die (the recording counted 18).
    "transfers_out": 15,
}
SSD_PINNED = {
    "query0": "4ac0b2aee89c32dc",
    "query1": "f2af4ee20906c3d9",
    "query2": "92a13c87c3cf1ba8",
    "query3": "337ffd3eb69d68b1",
    "query4": "149c4476f7e2b559",
    "query5": "a3942207519e3bc6",
    "read_d": "8ebc5215e78d4657",
    "states": "c572384c2cc846aa",
}
