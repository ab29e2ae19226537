"""NAND flash chip facade.

``NandFlashChip`` ties the substrate together: plane arrays hold the
packed functional bits and V_TH state, per-plane latch banks implement
the sensing/cache latch protocol, the sensing engine evaluates string
conductance, and the timing/power models account for every operation.

The chip exposes the three command families the paper's Section 6.2
defines (MWS with ISCM flags, ESP programming, latch XOR) plus the
regular read/program/erase commands, so the Flash-Cosmos core and the
ParaBit baseline drive it exactly like firmware drives a real chip.

The functional data path is bit-packed end to end: error-free senses
reduce ``uint64`` word rows, the latches accumulate words, and
``output_cache_words`` hands packed buffers to the controller;
unpacking happens only at external result boundaries.  Error injection
(and read-retry / margin reads) *senses* through the V_TH plane, and
its outcome is packed once before it reaches the latches.

``execute_sense_batch`` is the chip half of the batched data plane:
it resolves and validates many MWS commands at once (``resolve``,
memoized per command and chip, revalidated via block
``layout_version``) and evaluates all
their senses in one vectorized pass, leaving the latch protocol and
cost accounting to the batched executor so scalar and batched queues
stay step-for-step identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.flash.array import BlockArray, PlaneArray
from repro.flash.calibration import DEFAULT_CALIBRATION, FlashCalibration
from repro.flash.errors import (
    BadBlockFault,
    ChipUnavailableError,
    EraseFault,
    ErrorModel,
    OperatingCondition,
    ProgramFault,
    RetryExhaustedError,
)
from repro.flash.geometry import BlockAddress, ChipGeometry, WordlineAddress
from repro.flash.ispp import ProgramMode
from repro.flash.latches import LatchBank
from repro.flash.packing import (
    FULL_WORD,
    as_bits,
    invert_words,
    unpack_words,
)
from repro.flash.power import PowerModel
from repro.flash.randomizer import LfsrRandomizer
from repro.flash.sensing import SensingEngine
from repro.flash.timing import TimingModel


def validate_targets(targets, geometry: ChipGeometry) -> int:
    """Check one MWS target list against ``geometry`` (non-empty, one
    plane, valid addresses, non-empty wordline sets); returns the
    plane.  Every sense path runs it, so all reject the same ones."""
    if not targets:
        raise ValueError("sense requires at least one target")
    planes = {block.plane for block, _ in targets}
    if len(planes) != 1:
        raise ValueError("one sense operation targets a single plane")
    for address, wordlines in targets:
        address.validate(geometry)
        if not wordlines:
            raise ValueError("empty wordline set for a target block")
    return planes.pop()


@dataclass(frozen=True)
class IscmFlags:
    """The ISCM command slot of the MWS command (Figure 15): four
    independent feature flags a flash controller can toggle."""

    inverse: bool = False
    init_sense: bool = True
    init_cache: bool = True
    transfer: bool = True


@dataclass
class ChipCounters:
    """Operation and cost accounting for one chip."""

    senses: int = 0
    wordlines_sensed: int = 0
    programs: int = 0
    erases: int = 0
    transfers_out: int = 0
    busy_us: float = 0.0
    energy_nj: float = 0.0

    def charge(self, duration_us: float, energy_nj: float) -> None:
        self.busy_us += duration_us
        self.energy_nj += energy_nj


class NandFlashChip:
    """Functional model of one NAND flash die."""

    def __init__(
        self,
        geometry: ChipGeometry,
        *,
        calibration: FlashCalibration | None = None,
        condition: OperatingCondition | None = None,
        seed: int = 0,
        inject_errors: bool = True,
    ) -> None:
        self.geometry = geometry
        self.calibration = calibration or DEFAULT_CALIBRATION
        self.condition = condition or OperatingCondition()
        self.error_model = ErrorModel(self.calibration)
        self.timing = TimingModel()
        self.power = PowerModel()
        self.randomizer = LfsrRandomizer()
        self.counters = ChipCounters()
        self.plane_array = PlaneArray(
            geometry,
            calibration=self.calibration,
            seed=seed,
            noise_enabled=inject_errors,
        )
        self.sensing = SensingEngine(
            self.error_model,
            rng=np.random.default_rng(seed + 0x5EED),
            inject_errors=inject_errors,
        )
        self.latches = {
            plane: LatchBank(geometry.page_size_bits)
            for plane in range(geometry.planes_per_die)
        }
        #: Runtime-tunable parameters (the SET FEATURE command).
        self._features: dict[str, float] = {}
        #: Per-randomization-flag variants of the ambient condition
        #: (avoids a dataclass replace per sense -- hot path).
        self._condition_variants: dict[bool, OperatingCondition] = {}
        #: (n_wordlines, n_blocks) -> (duration_us, energy_nj) for MWS
        #: senses; the models are pure in these counts -- hot path.
        self._mws_cost_cache: dict[tuple[int, int], tuple[float, float]] = {}
        #: Optional fault-injection plane (:mod:`repro.flash.faults`):
        #: ``fault_injector`` draws program/erase failures and owns the
        #: persistent bad-block set checked in ``_resolve_targets``;
        #: ``fault_chip_id`` keys this chip's deterministic RNG stream
        #: and counters inside the (possibly shared) injector.  ``None``
        #: (the default) leaves every hot path untouched.
        self.fault_injector = None
        self.fault_chip_id = 0
        #: Permanent chip loss: an offline die rejects every operation
        #: with :class:`~repro.flash.errors.ChipUnavailableError` --
        #: the primitive the redundancy plane's kill/reconstruct/
        #: rebuild loop is built on (``SmallSsd.kill_chip``).  Distinct
        #: from quarantine (a breaker state that can half-open): an
        #: offline chip never serves again.
        self.offline = False
        #: Validity token of the batched path's per-command resolution
        #: memo.  :meth:`resolve` pins ``chip -> (token, per-block
        #: (block, row indices) source, per-block layout versions)`` on
        #: each command it resolves (one plan serves every chip holding
        #: its operands at the same place), so the chip half -- the
        #: bad-block probe, block lookup and metadata scan -- runs once
        #: per command and chip, revalidated only when a target block's
        #: ``layout_version`` moves (program/erase).  The memo dies
        #: with its command: a plan rebound after a placement change
        #: leaves nothing behind on the chip, and rows are gathered
        #: window by window.  An entry counts only while it carries
        #: this chip's current token: attaching a fault injector mints
        #: a new one.
        self._resolve_token = object()

    # ------------------------------------------------------------------
    # Environment control (test-mode features)
    # ------------------------------------------------------------------

    def set_condition(self, condition: OperatingCondition) -> None:
        """Set the ambient stress condition (retention age, chip-level
        P/E floor, block quality) applied to subsequent senses."""
        self.condition = condition
        self._condition_variants.clear()

    def attach_fault_injector(self, injector, chip_id: int = 0) -> None:
        """Attach a :class:`~repro.flash.faults.FaultInjector` (or
        detach with ``None``).  ``chip_id`` identifies this chip inside
        the injector's per-chip RNG streams and counters.  The batched
        command memo is dropped: its entries were resolved before the
        bad-block set existed."""
        self.fault_injector = injector
        self.fault_chip_id = chip_id
        self._resolve_token = object()

    def cycle_block(self, address: BlockAddress, pe_cycles: int) -> None:
        """Wear a block to ``pe_cycles`` program/erase cycles (the
        characterization harness uses this instead of physically
        cycling, as the testbed does with repeated program/erase)."""
        block = self.plane_array.block(address)
        if pe_cycles < block.pe_cycles:
            raise ValueError("cannot un-wear a block")
        block.pe_cycles = pe_cycles

    # ------------------------------------------------------------------
    # Regular commands
    # ------------------------------------------------------------------

    def _check_online(self) -> None:
        if self.offline:
            raise ChipUnavailableError(
                f"chip {self.fault_chip_id} is offline",
                chip=self.fault_chip_id,
            )

    def erase_block(self, address: BlockAddress) -> float:
        self._check_online()
        inj = self.fault_injector
        duration = self.timing.t_erase_us()
        energy = self.power.energy_nj(
            self.power.erase_power_factor(), duration
        )
        if inj is not None:
            if inj.is_bad_block(self.fault_chip_id, address):
                raise BadBlockFault(
                    f"erase targeted bad block {address}", address=address
                )
            if inj.draw_erase_fault(self.fault_chip_id):
                # The attempt still occupies the die for its modeled
                # duration before the chip reports failure.
                self.counters.charge(duration, energy)
                raise EraseFault(f"erase failed at {address}")
        block = self.plane_array.block(address)
        block.erase()
        self.counters.erases += 1
        self.counters.charge(duration, energy)
        return duration

    def page_index(self, address: WordlineAddress) -> int:
        g = self.geometry
        block_linear = (
            address.plane * g.blocks_per_plane + address.block
        ) * g.subblocks_per_block + address.subblock
        return block_linear * g.wordlines_per_string + address.wordline

    def program_page(
        self,
        address: WordlineAddress,
        data_bits: np.ndarray,
        *,
        mode: ProgramMode = ProgramMode.SLC,
        esp_extra: float = 0.0,
        randomize: bool = True,
    ) -> float:
        """Program one page.  With ``randomize`` the stored cells hold
        the randomized bits (as a real SSD would); Flash-Cosmos data is
        written with ``randomize=False`` and ``mode=ProgramMode.ESP``.
        ``data_bits`` may be an unpacked 0/1 page or a packed ``uint64``
        word row (the SSD ingest path packs vectors once)."""
        self._check_online()
        address.validate(self.geometry)
        inj = self.fault_injector
        if inj is not None:
            if inj.is_bad_block(self.fault_chip_id, address.block_address):
                raise BadBlockFault(
                    f"program targeted bad block {address.block_address}",
                    address=address,
                )
            if inj.draw_program_fault(self.fault_chip_id):
                duration = self.timing.t_program_us(mode.value, esp_extra)
                self.counters.charge(
                    duration,
                    self.power.energy_nj(
                        self.power.program_power_factor(), duration
                    ),
                )
                raise ProgramFault(f"program failed at {address}")
        data = np.asarray(data_bits)
        if data.dtype == np.uint64:
            if randomize:
                # The keystream is cached as zero-padded uint64 words,
                # so packed writes randomize word-wide in place of the
                # old unpack round-trip (padding ones survive the XOR).
                data = self.randomizer.randomize(
                    data,
                    self.page_index(address),
                    n_bits=self.geometry.page_size_bits,
                )
        else:
            data = as_bits(data, "data_bits")
            if randomize:
                data = self.randomizer.randomize(
                    data, self.page_index(address)
                )
        block = self.plane_array.block(address.block_address)
        block.program(
            address.wordline,
            data,
            mode=mode,
            esp_extra=esp_extra,
            randomized=randomize,
        )
        meta = block.metadata[address.wordline]
        meta.randomizer_page_index = (
            self.page_index(address) if randomize else None
        )
        duration = self.timing.t_program_us(mode.value, esp_extra)
        energy = self.power.energy_nj(
            self.power.program_power_factor(), duration
        )
        self.counters.programs += 1
        self.counters.charge(duration, energy)
        return duration

    def read_page(
        self, address: WordlineAddress, *, inverse: bool = False
    ) -> np.ndarray:
        """Regular page read through the latch pipeline, returning the
        de-randomized data when the page was stored randomized."""
        self.execute_sense(
            [(address.block_address, (address.wordline,))],
            IscmFlags(inverse=inverse),
        )
        block = self.plane_array.block(address.block_address)
        meta = block.metadata[address.wordline]
        if not (meta.programmed and meta.randomized):
            return self.output_cache(address.plane)
        # De-randomization XORs the same keystream; for an inverse
        # read the complement survives (NOT(a^k) ^ k == NOT a).
        # Copyback destinations keep the source's keystream index.
        index = (
            meta.randomizer_page_index
            if meta.randomizer_page_index is not None
            else self.page_index(address)
        )
        page_bits = self.geometry.page_size_bits
        # Word-wise de-randomization on the packed C-latch output: the
        # single unpack stays at this external boundary.
        words = self.randomizer.derandomize(
            self.output_cache_words(address.plane), index, n_bits=page_bits
        )
        return unpack_words(words, page_bits)

    def program_page_mlc(
        self,
        address: WordlineAddress,
        lsb_bits: np.ndarray,
        msb_bits: np.ndarray,
        *,
        randomize: bool = True,
    ) -> float:
        """Program one wordline in MLC mode (LSB + MSB pages).

        Operands for in-flash computation may live in MLC LSB pages:
        their read mechanism equals an SLC read apart from the
        reference voltage (Section 9, footnote 15) -- at ParaBit-level
        reliability, since MLC cannot reach ESP margins."""
        self._check_online()
        address.validate(self.geometry)
        lsb = np.asarray(lsb_bits, dtype=np.uint8)
        msb = np.asarray(msb_bits, dtype=np.uint8)
        if randomize:
            index = self.page_index(address)
            lsb = self.randomizer.randomize(lsb, index)
            msb = self.randomizer.randomize(msb, index ^ 0x5A5A)
        block = self.plane_array.block(address.block_address)
        block.program_mlc(address.wordline, lsb, msb, randomized=randomize)
        meta = block.metadata[address.wordline]
        meta.randomizer_page_index = (
            self.page_index(address) if randomize else None
        )
        duration = self.timing.t_program_us("mlc")
        energy = self.power.energy_nj(
            self.power.program_power_factor(), duration
        )
        self.counters.programs += 1
        self.counters.charge(duration, energy)
        return duration

    def read_msb_page(self, address: WordlineAddress) -> np.ndarray:
        """MSB-page read of an MLC wordline (two references)."""
        address.validate(self.geometry)
        block = self.plane_array.block(address.block_address)
        condition = self._effective_condition([(block, (address.wordline,))])
        outcome = self.sensing.read_msb_wordline(
            block, address.wordline, condition
        )
        duration = 2 * self.timing.t_read_us  # two sensing passes
        self.counters.senses += 2
        self.counters.wordlines_sensed += 1
        self.counters.charge(duration, self.power.energy_nj(1.0, duration))
        raw = outcome.bits
        meta = block.metadata[address.wordline]
        if meta.programmed and meta.randomized:
            raw = self.randomizer.derandomize(
                raw, self.page_index(address) ^ 0x5A5A
            )
        return raw

    # ------------------------------------------------------------------
    # Firmware/test-mode features the paper builds on
    # ------------------------------------------------------------------

    def set_feature(self, feature: str, value: float) -> None:
        """SET FEATURE command (Section 4.2): tune operating
        parameters at runtime, as real chips allow for post-fabrication
        optimization.  Supported features: 'esp_extra_default' and
        'vref_offset'."""
        if feature == "esp_extra_default":
            if not 0.0 <= value <= 1.0:
                raise ValueError("esp_extra_default must be in [0, 1]")
            self._features[feature] = value
        elif feature == "vref_offset":
            if not -1.0 <= value <= 1.0:
                raise ValueError("vref_offset must be in [-1, 1] V")
            self._features[feature] = value
        else:
            raise ValueError(f"unknown feature {feature!r}")

    def get_feature(self, feature: str) -> float:
        try:
            return self._features[feature]
        except KeyError:
            raise ValueError(f"unknown feature {feature!r}") from None

    def erase_verify(self, address: BlockAddress) -> bool:
        """Erase verify (Section 4.1): simultaneously apply VREF to
        every wordline of the block -- an intra-block MWS over all
        wordlines -- and check that every bitline conducts.  This is
        the pre-existing chip capability MWS builds on."""
        address.validate(self.geometry)
        all_wordlines = tuple(range(self.geometry.wordlines_per_string))
        self.execute_sense([(address, all_wordlines)], IscmFlags())
        # An on-chip status check: the C-latch is read in place, never
        # transferred off the die.
        return bool(
            (self.latches[address.plane].cache_words == FULL_WORD).all()
        )

    def copyback(
        self, source: WordlineAddress, destination: WordlineAddress
    ) -> None:
        """Copyback (Section 2.1, footnote 3): move a page to another
        page of the same plane without off-chip transfer, via an
        inverse read into the latch and a program from it.

        Faithfully models the operation's known hazard: raw cells move
        verbatim, so (i) any accumulated bit errors propagate (no ECC
        scrub) and (ii) randomized data keeps the *source* page's
        keystream, which the firmware must remember."""
        self._check_online()
        source.validate(self.geometry)
        destination.validate(self.geometry)
        if source.plane != destination.plane:
            raise ValueError("copyback cannot cross planes")
        src_block = self.plane_array.block(source.block_address)
        src_meta = src_block.metadata[source.wordline]
        if src_meta.mode not in (ProgramMode.SLC, ProgramMode.ESP):
            raise NotImplementedError("copyback modeled for SLC-family pages")
        # Inverse read into the latch; the program path re-inverts.
        # The page stays on the die: the C-latch is read in place.
        self.execute_sense(
            [(source.block_address, (source.wordline,))],
            IscmFlags(inverse=True),
        )
        raw = invert_words(
            self.latches[source.plane].cache_words,
            self.geometry.page_size_bits,
        )
        dst_block = self.plane_array.block(destination.block_address)
        dst_block.program(
            destination.wordline,
            raw,
            mode=src_meta.mode,
            esp_extra=src_meta.esp_extra,
            randomized=src_meta.randomized,
        )
        dst_meta = dst_block.metadata[destination.wordline]
        dst_meta.randomizer_page_index = (
            src_meta.randomizer_page_index
            if src_meta.randomizer_page_index is not None
            else (self.page_index(source) if src_meta.randomized else None)
        )
        duration = self.timing.t_program_us(
            src_meta.mode.value, src_meta.esp_extra
        )
        self.counters.programs += 1
        self.counters.charge(
            duration,
            self.power.energy_nj(self.power.program_power_factor(), duration),
        )

    def read_page_with_retry(
        self,
        address: WordlineAddress,
        validate,
        *,
        vref_offsets: tuple[float, ...] = (0.0, -0.1, -0.2, -0.3, 0.1),
    ) -> tuple[np.ndarray, int]:
        """Read-retry: re-sense with shifted VREF until ``validate``
        accepts the page.  Retention drift moves programmed cells
        down, so negative offsets recover retention-degraded data --
        the standard firmware mitigation the paper cites ([64]).

        Returns (bits, retries).  Raises
        :class:`~repro.flash.errors.RetryExhaustedError` (a
        ``RuntimeError`` subclass) when no offset validates, carrying
        the failing page address and the attempted offsets."""
        block = self.plane_array.block(address.block_address)
        meta = block.metadata[address.wordline]
        # Everything offset-independent is resolved once: the sense
        # target list, the ISCM flags, the feature-configured base
        # offset, and the randomizer keystream index.
        targets = [(address.block_address, (address.wordline,))]
        iscm = IscmFlags()
        base_offset = self._features.get("vref_offset", 0.0)
        derandomize = meta.programmed and meta.randomized
        index = 0
        if derandomize:
            index = (
                meta.randomizer_page_index
                if meta.randomizer_page_index is not None
                else self.page_index(address)
            )
        for retries, offset in enumerate(vref_offsets):
            self.execute_sense(
                targets, iscm, vref_offset=offset + base_offset
            )
            raw = self.output_cache(address.plane)
            if derandomize:
                raw = self.randomizer.derandomize(raw, index)
            if validate(raw):
                return raw, retries
        raise RetryExhaustedError(
            f"read-retry exhausted {len(vref_offsets)} reference offsets",
            address=address,
            vref_offsets=vref_offsets,
            attempts=len(vref_offsets),
        )

    # ------------------------------------------------------------------
    # Flash-Cosmos command set (Figure 15)
    # ------------------------------------------------------------------

    def execute_sense(
        self,
        targets: list[tuple[BlockAddress, tuple[int, ...]]],
        iscm: IscmFlags,
        *,
        vref_offset: float = 0.0,
        force_vth: bool = False,
    ) -> None:
        """Execute one MWS command: sense all targeted wordlines in a
        single operation and drive the latch protocol per the ISCM
        flags.  A regular read is the one-block/one-wordline case.
        ``vref_offset`` shifts VREF (read-retry support); ``force_vth``
        evaluates through the V_TH comparison even on an error-free
        chip (degraded-mode recovery -- bit-identical there, just
        slower).  Either way the bank latches the outcome's packed
        words."""
        self._check_online()
        plane, blocks = self._resolve_targets(targets)
        bank = self.latches[plane]
        condition = self._effective_condition(blocks)
        outcome = self.sensing.inter_block_mws(
            blocks, condition, vref_offset=vref_offset, force_vth=force_vth
        )

        if iscm.init_cache:
            bank.init_cache()
        if iscm.init_sense:
            bank.init_sense()
        bank.capture(outcome.words, inverse=iscm.inverse)
        if iscm.transfer:
            bank.transfer_to_cache()

        self.charge_sense(outcome.wordlines_sensed, outcome.blocks_sensed)

    def execute_sense_batch(
        self, commands: list["MwsCommand"], resolved: list | None = None
    ) -> np.ndarray:
        """Evaluate many MWS commands' sensing in one vectorized pass.

        Validates each command exactly as :meth:`execute_sense` (block
        addresses, non-empty wordline sets, single plane per sense) and
        returns one packed ``uint64`` result row per command.  Latch
        protocol and cost counters are deliberately *not* driven here:
        the batched executor (:class:`repro.core.mws.MwsExecutor`)
        replays both per plan -- latches via
        :meth:`~repro.flash.latches.LatchBank.capture_batch`, counters
        via :meth:`charge_sense`/:meth:`charge_xor` in scalar order --
        so a batched queue stays step-for-step identical to scalar
        execution.  Requires an error-free chip: an error-injecting
        chip senses one command at a time through :meth:`execute_sense`.
        ``resolved`` is every command's :meth:`resolve`, if the caller
        holds it.
        """
        self._check_online()
        if self.sensing.inject_errors:
            raise RuntimeError(
                "execute_sense_batch requires the packed error-free "
                "plane; an error-injecting chip senses one command at "
                "a time through execute_sense"
            )
        sources: list[tuple] = []
        profiles: list[tuple[int, ...]] = []
        for source, profile in resolved or map(self.resolve, commands):
            for (block, _), n_wordlines in zip(source, profile):
                block.note_read(n_wordlines)
            sources.append(source)
            profiles.append(profile)
        return self.sensing.sense_batch_stacks(sources, profiles)

    def resolve(
        self, command: "MwsCommand"
    ) -> tuple[tuple[tuple[BlockArray, np.ndarray], ...], tuple[int, ...]]:
        """Where this chip finds one MWS command's operand rows:
        ``(source, profile)``, per target ``(block, row indices)``.
        The half that depends on the command and the geometry alone
        (:func:`validate_targets`, sorted row indices, profile) is built
        once for every chip; this chip's half (bad-block probe, block
        lookup, the scalar path's metadata scan) is memoized per chip
        (see ``_resolve_token``).  Nothing is read: a queue may resolve
        before any chip state moves."""
        memo = command._resolved
        cached = None if memo is None else memo.get(self)
        token = self._resolve_token
        if cached is not None and cached[0] is token:
            for (block, _), version in zip(cached[1], cached[2]):
                if block.layout_version != version:
                    break
            else:
                return cached[1], command._rows[2]
        targets, geometry = command.targets, self.geometry
        shared = command._rows
        if shared is None or (
            shared[0] is not geometry and shared[0] != geometry
        ):
            validate_targets(targets, geometry)
            rows = tuple(SensingEngine._rows(w) for _, w in targets)
            shared = (geometry, rows, tuple(map(len, rows)))
            object.__setattr__(command, "_rows", shared)
        _, rows, profile = shared
        blocks = [self._target_block(address) for address, _ in targets]
        scan = self.sensing._scan_metadata
        for block, (_, wordlines) in zip(blocks, targets):
            scan(block, tuple(wordlines))
        source = tuple(zip(blocks, rows))
        versions = tuple([block.layout_version for block in blocks])
        cached = (token, source, versions)
        if memo is None:  # one entry per chip: no thrash
            object.__setattr__(command, "_resolved", {self: cached})
        else:
            memo[self] = cached
        return source, profile

    def execute_sense_batch_vth(self, commands, **kwargs):
        """Retired: an error-injecting or margin sense walks, one
        :meth:`execute_sense` at a time.  The name stays only until
        ROADMAP item 1a drops its ``benchmarks/e2e/spec.py`` ``LAYERS``
        line."""
        raise NotImplementedError(
            "the batched V_TH plane is gone: walk the plans with "
            "MwsExecutor.execute / execute_degraded"
        )

    def charge_sense(self, n_wordlines: int, n_blocks: int) -> None:
        """Account one MWS sense: operation counters plus the modeled
        duration/energy (memoized per ``(wordlines, blocks)`` shape --
        the timing/power models are pure in these counts).  Shared by
        the scalar path and the batched executor so both produce the
        identical charge sequence."""
        key = (n_wordlines, n_blocks)
        cost = self._mws_cost_cache.get(key)
        if cost is None:
            duration = self.timing.t_mws_us(n_wordlines, n_blocks)
            energy = self.power.mws_energy_nj(
                n_wordlines, n_blocks, duration
            )
            # Bounded like the sensing row cache: varied-shape
            # service traffic must not grow the memo without limit.
            if len(self._mws_cost_cache) >= 4096:
                self._mws_cost_cache.clear()
            self._mws_cost_cache[key] = (duration, energy)
        else:
            duration, energy = cost
        self.counters.senses += 1
        self.counters.wordlines_sensed += n_wordlines
        self.counters.charge(duration, energy)

    def charge_xor(self) -> None:
        """Account one latch XOR: fast relative to sensing; charge a
        token 1 us at read power."""
        self.counters.charge(1.0, self.power.read_energy_nj(1.0))

    def xor_command(self, plane: int) -> None:
        """XOR command (Figure 15(c)): C-latch := S-latch XOR C-latch."""
        bank = self.latches[plane]
        bank.xor_into_cache()
        self.charge_xor()

    def load_cache(self, plane: int, data_bits: np.ndarray) -> None:
        """Load external data into the C-latch (controller-side write
        used before an XOR against stored data).  Accepts packed words
        or a 0/1 page."""
        self.latches[plane].load_cache(np.asarray(data_bits))

    def output_cache(self, plane: int) -> np.ndarray:
        """Transfer the C-latch contents off-chip (unpacked bits)."""
        self.counters.transfers_out += 1
        return self.latches[plane].cache_data

    def output_cache_words(self, plane: int) -> np.ndarray:
        """Transfer the C-latch contents off-chip as packed ``uint64``
        words (the controller-side query path keeps results packed
        until the external boundary)."""
        self.counters.transfers_out += 1
        return self.latches[plane].cache_words

    def output_sense(self, plane: int) -> np.ndarray:
        """Transfer the S-latch contents off-chip (diagnostics)."""
        return self.latches[plane].sense_data

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _resolve_targets(
        self, targets
    ) -> tuple[int, list[tuple[BlockArray, tuple[int, ...]]]]:
        """The scalar paths' resolution: :func:`validate_targets`, then
        each target's live block array."""
        plane = validate_targets(targets, self.geometry)
        return plane, [
            (self._target_block(address), tuple(wordlines))
            for address, wordlines in targets
        ]

    def _target_block(self, address: BlockAddress) -> BlockArray:
        """The live array of one validated target block, after the
        injector's bad-block probe."""
        inj = self.fault_injector
        if inj is not None and inj.is_bad_block(self.fault_chip_id, address):
            raise BadBlockFault(
                f"sense targeted bad block {address}", address=address
            )
        return self.plane_array.block(address)

    def _effective_condition(self, blocks) -> OperatingCondition:
        """Ambient condition refined with per-wordline metadata: data
        stored without randomization suffers the worst-case-pattern
        interference surcharge (Section 2.2)."""
        randomized = all(
            block.metadata[wl].randomized
            for block, wordlines in blocks
            for wl in wordlines
        )
        if randomized == self.condition.randomized:
            return self.condition
        cached = self._condition_variants.get(randomized)
        if cached is None:
            cached = replace(self.condition, randomized=randomized)
            self._condition_variants[randomized] = cached
        return cached

    def stored_bits(self, address: WordlineAddress) -> np.ndarray:
        """Ground truth as stored in the cells (post-randomization)."""
        block = self.plane_array.block(address.block_address)
        return block.stored_bits(address.wordline)

    def logical_bits(self, address: WordlineAddress) -> np.ndarray:
        """Ground truth as the user wrote it (pre-randomization)."""
        raw = self.stored_bits(address)
        block = self.plane_array.block(address.block_address)
        meta = block.metadata[address.wordline]
        if meta.programmed and meta.randomized:
            raw = self.randomizer.derandomize(raw, self.page_index(address))
        return raw
