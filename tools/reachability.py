#!/usr/bin/env python
"""Every def in ``src/repro`` that only tests enter, as a ratchet.

A ``sys.setprofile`` tracer runs every ``examples/*.py`` as ``__main__``,
one untimed full-scale pass of each ``benchmarks/e2e`` workload and the
paper-figure benches, then lists each function, method or property it
never entered (classes are not listed).  The tool fails when that list
and UNREACHED differ either way, so UNREACHED only shrinks.  ~90 s::

    PYTHONPATH=src python tools/reachability.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: ``<path under src/repro>:``, then the names of its defs no root enters.
_LISTED = re.split(r"(\S+\.py):", """
characterization/functional_rber.py: FunctionalRber.ratio
measure_functional_rber characterization/rber.py: randomization_penalty
characterization/testbed.py: ChipPopulation.samples
ChipPopulation.sigma_multipliers
core/api.py: FlashCosmos.retire_subblock core/commands.py:
CommandEncoder._block_bytes CommandEncoder._decode_block
CommandEncoder._encode_block CommandEncoder._pbm_bytes
CommandEncoder.decode_esp CommandEncoder.decode_mws CommandEncoder.decode_xor
CommandEncoder.encode_esp CommandEncoder.encode_mws CommandEncoder.encode_xor
EspCommand.__post_init__ MwsCommand.max_wordlines_per_block bitmap_to_wordlines
wordlines_to_bitmap core/esp.py: EspPolicy.paper_default_extra
core/expressions.py: Expression.__and__ Expression.__invert__ Expression.__or__
Expression.__xor__ Not.__repr__ Operand.__repr__ Xnor Xor.__repr__
_Nary.__reduce__ _Nary.__repr__ rename_operands core/mws.py: MwsExecutor.execute_degraded_batch
core/parabit.py: ParaBit.__init__ ParaBit._run ParaBit.bitwise_and
ParaBit.bitwise_or ParaBit.bitwise_xor core/planner.py:
OperandDirectory.__len__ OperandDirectory.relocate Plan.sense_profile
Plan.total_wordlines PlanTemplate.n_senses
PlanTemplate.sense_profile PlanTemplate.sense_steps Planner._split_wide_and
TemplateSenseStep.n_blocks TemplateSenseStep.n_wordlines
flash/array.py: BlockArray.mlc_states BlockArray.program_mlc
BlockArray.programmed_mask BlockArray.stored_bits BlockArray.wordline_esp_extra
BlockArray.written PlaneArray.__contains__ flash/chip.py:
NandFlashChip.copyback NandFlashChip.cycle_block NandFlashChip.erase_verify
NandFlashChip.execute_sense_batch_vth NandFlashChip.get_feature
NandFlashChip.load_cache NandFlashChip.logical_bits NandFlashChip.output_sense
NandFlashChip.page_index NandFlashChip.program_page_mlc
NandFlashChip.read_msb_page NandFlashChip.read_page_with_retry
NandFlashChip.set_feature NandFlashChip.stored_bits
flash/errors.py: BadBlockFault.__init__
ChipStall.__init__ ErrorModel.is_effectively_error_free
ErrorModel.mlc_lsb_read_ref ErrorModel.mlc_window ErrorModel.perturb_mlc
ErrorModel.slc_window ErrorModel.tlc_rber ReconstructionError.__init__
RetryExhaustedError.__init__ SenseFault.__init__ flash/geometry.py:
ChipGeometry.block_capacity_bits ChipGeometry.die_capacity_bits
ChipGeometry.page_size_bytes ChipGeometry.pages_per_block
ChipGeometry.plane_capacity_bits ChipGeometry.scaled
ChipGeometry.wordlines_per_block StringGroup.__post_init__
StringGroup.addresses iter_blocks iter_wordlines flash/ispp.py:
ProgramMode.bits_per_cell flash/latches.py: LatchBank._check_page
LatchBank.load_cache LatchBank.sense_data LatchBank.sense_words
flash/randomizer.py: LfsrRandomizer._stream LfsrRandomizer._stream_words
LfsrRandomizer.derandomize LfsrRandomizer.page_seed LfsrRandomizer.randomize
_keystream_words keystream_bits flash/sensing.py: SenseOutcome.bits
SensingEngine.read_msb_wordline flash/timing.py: TimingModel.t_mws_fixed_us
flash/vth.py: VthWindow.bits_per_cell VthWindow.level VthWindow.margin
gaussian_tail_inverse gray_code_flip_weights misread_probability slc_window
host/system.py: ExecutionReport.bits_per_joule
service/admission.py: AdmissionQueue.__len__ AdmissionWindow.__len__
service/clients.py: TrafficClient.expressions TrafficClient.populate
service/clock.py: ArrivalProcess.interarrival_us VirtualClock.advance_to
service/metrics.py: ServiceStats._class_utilization
ServiceStats.channel_utilization ServiceStats.chip_utilization
ServiceStats.deadline_miss_rate ServiceStats.failure_rate
ServiceStats.wear_spread service/service.py: ServedQuery.failed
ssd/config.py: SsdConfig.internal_bw_bytes_per_s SsdConfig.scaled
SsdConfig.sense_throughput_bytes_per_s SsdConfig.t_dma_us_per_die_read
SsdConfig.t_ext_us_per_die_read ssd/controller.py: SmallSsd.read_vector
ssd/events.py: StageReport.class_utilization ssd/ftl.py:
FlashTranslationLayer.__contains__ FlashTranslationLayer.chunk_overrides
FlashTranslationLayer.chunks_on_chip VectorRecord.pad_bits
VectorRecord.padded_bits ssd/query_engine.py: CacheStats.hit_rate
ResultCache.clear ResultCache.get StackCache.clear
StackCache.entries
workloads/image_segmentation.py: segment_reference
""")
UNREACHED = tuple(
    f"{module}::{name}"
    for module, names in zip(_LISTED[1::2], _LISTED[2::2])
    for name in names.split()
)


def definitions(src: Path) -> dict[tuple, tuple[str, tuple | None]]:
    """``(file, first line) -> (entry, enclosing def's key)`` for every
    def under ``src``; the first line is the one its code object reports
    (its first decorator's, if it has one)."""
    found: dict[tuple, tuple[str, tuple | None]] = {}

    def walk(node: ast.AST, file: str, prefix: str, parent) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                decorators = [d.lineno for d in child.decorator_list]
                key = (file, min([child.lineno, *decorators]))
                found[key] = (name, parent)
                walk(child, file, name + ".", key)
            else:
                scope = isinstance(child, ast.ClassDef)
                inner = f"{prefix}{child.name}." if scope else prefix
                walk(child, file, inner, parent)

    for path in sorted(src.rglob("*.py")):
        module = f"{path.relative_to(src).as_posix()}::"
        walk(ast.parse(path.read_text()), str(path.resolve()), module, None)
    return found


def never_entered(src: Path, run_roots) -> set[str]:
    """Entries of the defs under ``src`` that ``run_roots()`` never
    enters, leaving out defs nested in one of them."""
    codes = set()

    def profile(frame, event, arg) -> None:
        if event == "call":
            codes.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        run_roots()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    entered = {
        (str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes
    }
    return {
        name
        for key, (name, parent) in definitions(src).items()
        if key not in entered and (parent is None or parent in entered)
    }


def run_roots() -> None:
    """Everything the repository runs outside its tests."""
    import pytest

    from benchmarks.e2e import harness, spec

    benches = sorted((ROOT / "benchmarks").glob("bench_*.py"))
    paper = "from repro.analysis.paper import"
    figures = [str(b) for b in benches if paper in b.read_text()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for example in sorted((ROOT / "examples").glob("*.py")):
            runpy.run_path(str(example), run_name="__main__")
        for workload in spec.WORKLOADS:
            harness.run_pass(workload, 1, 1.0, calibrated=False)
        options = ["-q", "--benchmark-disable", "-p", "no:cacheprovider"]
        status = pytest.main([*options, f"--rootdir={ROOT}", *figures])
    if status != 0:
        sys.exit(f"{out.getvalue()}\nthe paper-figure benches failed")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    unreached = never_entered(SRC, run_roots)
    print(*sorted(unreached), sep="\n")
    print(f"{len(unreached)} of {len(definitions(SRC))} defs never entered")
    for name in sorted(unreached - set(UNREACHED)):
        print(f"NEW: {name} is never entered: delete it, or call it")
    for name in sorted(set(UNREACHED) - unreached):
        print(f"STALE: {name} is entered or gone: drop it from UNREACHED")
    return int(unreached != set(UNREACHED))


if __name__ == "__main__":
    sys.exit(main())
