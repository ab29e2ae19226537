"""NAND flash memory substrate.

Behavioural and statistical model of a 3D NAND flash chip: cell-array
geometry, threshold-voltage (V_TH) physics, ISPP programming, error
mechanisms, sensing (including multi-wordline sensing), latch circuits,
data randomization, and timing/power models.

The model follows the organization described in Section 2 of the
Flash-Cosmos paper (MICRO 2022): vertically stacked cells form NAND
strings, strings at different bitlines form sub-blocks, sub-blocks form
blocks, blocks form planes, and planes form dies/chips.

Cell state lives in **two representations** (see
:mod:`repro.flash.array` and :mod:`repro.flash.packing`):

* the *functional plane* -- each wordline's logical bits packed 64 per
  ``uint64`` word.  Always maintained; error-free senses, the latch
  protocol, and the controller-side query path evaluate directly on
  these words (``np.bitwise_and.reduce`` over rows *is* the
  string-group AND), never touching V_TH.
* the *error plane* -- the float32 V_TH matrix the error model
  perturbs at sense time.  Eagerly materialized and ISPP-programmed
  when a chip injects errors (all reliability figures reproduce
  unchanged); for noise-free chips it is materialized lazily with
  idealized mean-valued distributions only when something asks for it
  (read-retry VREF offsets, V_TH introspection).

On top of the per-sense fast path sits a *batched* execution plane
(:meth:`~repro.flash.sensing.SensingEngine.sense_batch_stacks`,
:meth:`~repro.flash.latches.LatchBank.capture_batch`,
:meth:`~repro.flash.chip.NandFlashChip.execute_sense_batch`): a whole
queue of MWS commands stacks its packed operand rows into 3-D
``uint64`` tensors (grouped by per-block wordline-count profile) and
evaluates every string-group AND / inter-block OR -- and the latch
protocol of every plan -- with a handful of word-wide NumPy calls.
The batch plane engages only where the packed fast path does (error
injection off, no VREF offset); error-injecting senses stay strictly
per sense on the V_TH oracle, and batch results are bit-identical to
the scalar protocol with float-identical timing/energy accounting.
"""

from repro.flash.array import BlockArray, PlaneArray
from repro.flash.calibration import FlashCalibration
from repro.flash.chip import NandFlashChip
from repro.flash.errors import (
    BadBlockFault,
    ChipStall,
    ChipUnavailable,
    ChipUnavailableError,
    EraseFault,
    ErrorModel,
    FlashFault,
    OperatingCondition,
    ProgramFault,
    RetryExhausted,
    RetryExhaustedError,
    SenseFault,
)
from repro.flash.faults import FaultConfig, FaultInjector, RecoveryPolicy
from repro.flash.geometry import ChipGeometry, PageAddress, WordlineAddress
from repro.flash.ispp import IsppEngine, IsppParameters, ProgramMode
from repro.flash.latches import LatchBank
from repro.flash.randomizer import LfsrRandomizer
from repro.flash.sensing import SenseMode, SensingEngine
from repro.flash.timing import TimingModel
from repro.flash.power import PowerModel
from repro.flash.vth import VthState, VthWindow

__all__ = [
    "BadBlockFault",
    "BlockArray",
    "ChipGeometry",
    "ChipStall",
    "ChipUnavailable",
    "ChipUnavailableError",
    "EraseFault",
    "ErrorModel",
    "FaultConfig",
    "FaultInjector",
    "FlashCalibration",
    "FlashFault",
    "IsppEngine",
    "IsppParameters",
    "LatchBank",
    "LfsrRandomizer",
    "NandFlashChip",
    "OperatingCondition",
    "PageAddress",
    "PlaneArray",
    "PowerModel",
    "ProgramFault",
    "ProgramMode",
    "RecoveryPolicy",
    "RetryExhausted",
    "RetryExhaustedError",
    "SenseFault",
    "SenseMode",
    "SensingEngine",
    "TimingModel",
    "VthState",
    "VthWindow",
    "WordlineAddress",
]
