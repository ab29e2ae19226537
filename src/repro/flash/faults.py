"""Deterministic, seedable fault injection for the flash substrate.

The serving stack above this module assumes every sense, program, and
erase succeeds; reliability work needs the opposite.  A
:class:`FaultInjector` attached to a chip (or to every chip through
``SmallSsd(fault_injector=...)``) injects four fault classes:

* **transient sense faults** -- a multi-wordline sense reports failure
  (the attempt still costs real chip time; a retry may succeed),
* **program / erase failures** -- the operation raises after charging
  its attempted time,
* **stuck bad blocks** -- any sense or program touching a listed block
  raises :class:`~repro.flash.errors.BadBlockFault` (persistent),
* **chip stalls** -- an attempt is delayed by ``stall_us`` of
  *simulated* time before it starts (charged as recovery time by the
  engine, never wall clock).

Determinism is the load-bearing property: every random draw comes from
a per-chip ``np.random.default_rng((seed, chip))`` stream, and the
query engine only draws inside the owning chip's drain.  Sense-attempt
draws never depend on sensed data, so their order is fixed by one
function, :meth:`FaultInjector.attempt_draws` -- per plan, per attempt:
stall, then sense fault, stopping at the first clean attempt or when the
retry budget is spent.  The batched drain draws a chip's whole queue up
front (the *attempt schedule*, :meth:`FaultInjector.queue_attempt_draws`):
its uniforms come in blocks, a clean first attempt is found by an
array compare and only a plan whose first attempt faulted walks
``attempt_draws``; the scalar loop walks plan by plan.  Both consume
the stream identically, so the draw sequence per chip is a pure
function of that chip's schedule -- identical in whatever order the
chips drain and under either drain, which is what lets the chaos
property suites compare batched and scalar runs bit for bit.

An injector whose every rate is zero and whose bad-block set is empty
is *inactive* (:attr:`FaultInjector.active` is ``False``): the chip and
engine skip all hooks, so the fault-free path stays float-exact versus
a build with no injector at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from repro.flash.geometry import BlockAddress

__all__ = ["AttemptSchedule", "FaultConfig", "FaultInjector", "RecoveryPolicy"]


def _check_fields(config, counts: tuple, amounts: dict) -> None:
    """Refuse what would fail a ``run()`` mid-window: ``counts`` must
    be ints >= 0 (no bool), ``amounts`` finite and >= their bound."""
    for name in counts:
        value = getattr(config, name)
        if type(value) is not int or value < 0:
            raise ValueError(f"{name} must be an int >= 0, not {value!r}")
    for name, low in amounts.items():
        value = getattr(config, name)
        if isinstance(value, bool) or not low <= value < inf:
            raise ValueError(
                f"{name} must be finite and >= {low:g}, not {value!r}"
            )


@dataclass(frozen=True)
class FaultConfig:
    """Rates and targets for one injection campaign.

    ``sense_fault_rate`` applies to every chip unless overridden per
    chip in ``chip_sense_fault_rates``.  ``bad_blocks`` lists
    persistently bad blocks as ``(chip, plane, block, subblock)``
    tuples.  All rates are per-attempt probabilities in [0, 1].
    """

    seed: int = 0
    sense_fault_rate: float = 0.0
    chip_sense_fault_rates: Mapping[int, float] = field(
        default_factory=dict
    )
    program_fault_rate: float = 0.0
    erase_fault_rate: float = 0.0
    stall_rate: float = 0.0
    stall_us: float = 25.0
    bad_blocks: tuple = ()

    def __post_init__(self) -> None:
        rates = [
            self.sense_fault_rate,
            self.program_fault_rate,
            self.erase_fault_rate,
            self.stall_rate,
            *self.chip_sense_fault_rates.values(),
        ]
        for rate in rates:
            if isinstance(rate, bool) or not 0.0 <= rate <= 1.0:
                raise ValueError(f"fault rate {rate} outside [0, 1]")
        _check_fields(self, ("seed",), {"stall_us": 0.0})


class AttemptSchedule(NamedTuple):
    """The attempt schedule of a queue of plans
    (:meth:`FaultInjector.queue_attempt_draws`): per plan what its
    :meth:`~FaultInjector.attempt_draws` would yield, kept whole only
    for the plans whose first attempt faulted."""

    #: Per plan, the attempts drawn: 1 for a clean first attempt.
    attempts: list[int]
    #: Per plan, the stall and backoff time up to its last attempt
    #: (the last ``recovery_us`` its walk yields).
    recovery_us: list[float]
    #: Plan index -> its ``attempt_draws`` list, for every plan whose
    #: first attempt faulted, in ascending plan order.  A plan whose
    #: last attempt faulted too exhausted its retries.
    walks: dict[int, list[tuple[bool, float]]]


class FaultInjector:
    """Draws fault decisions from per-chip deterministic streams.

    A chip's draws happen only inside that chip's drain, so per-chip
    RNG state and counters depend on that chip's schedule alone.
    Cross-chip totals are computed by summation at read time.
    """

    _COUNTER_KEYS = (
        "sense_faults",
        "program_faults",
        "erase_faults",
        "stalls",
        "bad_block_hits",
    )

    def __init__(self, config: FaultConfig | None = None, **kwargs) -> None:
        self.config = config or FaultConfig(**kwargs)
        if config is not None and kwargs:
            raise TypeError("pass either a FaultConfig or field kwargs")
        self._rngs: dict[int, np.random.Generator] = {}
        self._counts: dict[int, dict[str, int]] = {}
        self._bad_blocks = frozenset(
            (int(c), int(p), int(b), int(s))
            for (c, p, b, s) in self.config.bad_blocks
        )

    # ------------------------------------------------------------------
    # Activity
    # ------------------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether any hook can ever fire (gates every fast path)."""
        c = self.config
        return bool(
            c.sense_fault_rate > 0.0
            or any(r > 0.0 for r in c.chip_sense_fault_rates.values())
            or c.program_fault_rate > 0.0
            or c.erase_fault_rate > 0.0
            or c.stall_rate > 0.0
            or self._bad_blocks
        )

    def sense_rate(self, chip: int) -> float:
        return self.config.chip_sense_fault_rates.get(
            chip, self.config.sense_fault_rate
        )

    # ------------------------------------------------------------------
    # Per-chip streams
    # ------------------------------------------------------------------

    def _rng(self, chip: int) -> np.random.Generator:
        rng = self._rngs.get(chip)
        if rng is None:
            rng = np.random.default_rng((self.config.seed, chip))
            self._rngs[chip] = rng
            self._counts[chip] = dict.fromkeys(self._COUNTER_KEYS, 0)
        return rng

    def _note(self, chip: int, key: str) -> None:
        self._rng(chip)  # ensure the per-chip slot exists
        self._counts[chip][key] += 1

    # ------------------------------------------------------------------
    # Draws (one per hook call, per-chip stream)
    # ------------------------------------------------------------------

    def draw_stall(self, chip: int, uniform=None) -> float:
        """Simulated stall (us) to charge before the next attempt, drawn
        by ``uniform()`` (default: one scalar off the chip's stream)."""
        if self.config.stall_rate <= 0.0:
            return 0.0
        u = self._rng(chip).random() if uniform is None else uniform()
        if u < self.config.stall_rate:
            self._note(chip, "stalls")
            return self.config.stall_us
        return 0.0

    def draw_sense_fault(self, chip: int, uniform=None) -> bool:
        """Whether this sense attempt reports failure (``uniform``: as
        :meth:`draw_stall`)."""
        rate = self.sense_rate(chip)
        if rate <= 0.0:
            return False
        u = self._rng(chip).random() if uniform is None else uniform()
        if u < rate:
            self._note(chip, "sense_faults")
            return True
        return False

    def attempt_draws(
        self, chip: int, policy: "RecoveryPolicy", uniform=None
    ) -> Iterator[tuple[bool, float]]:
        """The fault draws of one plan's sense attempts, in the order
        every drain makes them -- the one owner of that order: per
        attempt :meth:`draw_stall` then :meth:`draw_sense_fault`
        (``uniform`` passed on), yielding ``(faulted, recovery_us)`` --
        whether that attempt reports failure and the stall + backoff
        time accumulated so far.  Ends after the first clean attempt,
        or after ``policy.max_retries + 1`` faulted ones (the last
        yield is then a fault: retries are exhausted).  The backoff of
        a failed attempt is added when the next one is drawn, so a
        consumer that stops early -- the scalar loop on a persistent
        fault -- has drawn and charged exactly what it executed.
        """
        recovery_us = 0.0
        for attempt in range(1, policy.max_retries + 2):
            recovery_us += self.draw_stall(chip, uniform)
            faulted = self.draw_sense_fault(chip, uniform)
            yield faulted, recovery_us
            if not faulted:
                return
            recovery_us += policy.backoff_us(attempt)

    def queue_attempt_draws(
        self, chip: int, policy: "RecoveryPolicy", n_plans: int
    ) -> AttemptSchedule:
        """:meth:`attempt_draws` of ``n_plans`` plans in turn, as one
        :class:`AttemptSchedule`, the uniforms drawn in
        ``rng.random(k)`` blocks.  A block holds only the draws certain
        to be needed -- one first attempt per plan not yet drawn, less
        those already drawn -- and one compare over it finds the first
        plan whose first attempt faults: the plans before it are clean
        single attempts (their stalls counted in one go), and that plan
        alone walks :meth:`attempt_draws` over the block's rest, then
        over blocks drawn as the walk needs them.  Every uniform is
        used where the plan-by-plan walk uses it, so the counts and the
        stream end where that walk leaves them."""
        stall_rate, rate = self.config.stall_rate, self.sense_rate(chip)
        draws = (stall_rate > 0) + (rate > 0)
        attempts = [1] * n_plans
        recovery_us = [0.0] * n_plans
        walks: dict[int, list[tuple[bool, float]]] = {}
        if not (draws and n_plans):  # nothing can fault: nothing drawn
            return AttemptSchedule(attempts, recovery_us, walks)
        rng = self._rng(chip)
        counts = self._counts[chip]
        stalled_us = 0.0 + self.config.stall_us  # as the walk sums it
        ahead: list[float] = []  # drawn and not yet used, in order
        plan = 0
        while plan < n_plans:
            firsts = rng.random(draws * (n_plans - plan) - len(ahead))
            if ahead:
                firsts = np.concatenate((ahead, firsts))
            firsts = firsts.reshape(-1, draws)
            # A stall-only stream never faults: ``u < 0.0`` is false.
            faulted = np.flatnonzero(firsts[:, -1] < rate)
            clean = int(faulted[0]) if len(faulted) else len(firsts)
            if stall_rate > 0:
                stalls = np.flatnonzero(firsts[:clean, 0] < stall_rate)
                counts["stalls"] += len(stalls)
                for index in (stalls + plan).tolist():
                    recovery_us[index] = stalled_us
            plan += clean
            if plan == n_plans:
                break
            rest = firsts[clean:].ravel().tolist()[::-1]

            def uniform() -> float:
                if not rest:  # this attempt's and one per later plan
                    k = draws * (n_plans - plan)
                    rest.extend(rng.random(k).tolist()[::-1])
                return rest.pop()

            walk = list(self.attempt_draws(chip, policy, uniform))
            walks[plan] = walk
            attempts[plan] = len(walk)
            recovery_us[plan] = walk[-1][1]
            plan += 1
            ahead = rest[::-1]
        return AttemptSchedule(attempts, recovery_us, walks)

    def draw_program_fault(self, chip: int) -> bool:
        if self.config.program_fault_rate <= 0.0:
            return False
        if self._rng(chip).random() < self.config.program_fault_rate:
            self._note(chip, "program_faults")
            return True
        return False

    def draw_erase_fault(self, chip: int) -> bool:
        if self.config.erase_fault_rate <= 0.0:
            return False
        if self._rng(chip).random() < self.config.erase_fault_rate:
            self._note(chip, "erase_faults")
            return True
        return False

    # ------------------------------------------------------------------
    # Bad blocks (persistent; no randomness)
    # ------------------------------------------------------------------

    def has_bad_block(self, chip: int, address: BlockAddress) -> bool:
        """Side-effect-free membership probe: whether ``address`` (any
        address carrying plane/block/subblock) is a listed bad block.
        For callers that are *asking*, not operating -- batch
        pre-checks, GC scans, drains; only an operation that actually
        hits the block goes through :meth:`is_bad_block`."""
        return (
            chip,
            address.plane,
            address.block,
            address.subblock,
        ) in self._bad_blocks

    def is_bad_block(self, chip: int, address: BlockAddress) -> bool:
        """Whether an operation on ``address`` hits a bad block;
        counts the hit."""
        if self._bad_blocks and self.has_bad_block(chip, address):
            self._note(chip, "bad_block_hits")
            return True
        return False

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def counts(self, chip: int | None = None) -> dict[str, int]:
        """Fault counts for one chip, or totals across all chips."""
        if chip is not None:
            per = self._counts.get(chip)
            return dict(per) if per else dict.fromkeys(self._COUNTER_KEYS, 0)
        totals = dict.fromkeys(self._COUNTER_KEYS, 0)
        for per in self._counts.values():
            for key, value in per.items():
                totals[key] += value
        return totals

    @property
    def faults_injected(self) -> int:
        """Total injected faults of every class, all chips."""
        return sum(self.counts().values())


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the engine responds to a failed sense attempt.

    A failed attempt is retried up to ``max_retries`` times; each retry
    charges ``backoff_us(attempt)`` of *simulated* time (exponential:
    ``backoff_base_us * backoff_factor**(attempt-1)``).  When retries
    exhaust and ``degraded_mode`` is on, the sense re-executes on the
    V_TH read-retry path (correct but slow; ``degraded_extra_senses``
    models the margin-read ladder) before a typed error surfaces.
    """

    max_retries: int = 3
    backoff_base_us: float = 2.0
    backoff_factor: float = 2.0
    degraded_mode: bool = True
    degraded_extra_senses: int = 2

    def __post_init__(self) -> None:
        _check_fields(
            self,
            ("max_retries", "degraded_extra_senses"),
            {"backoff_base_us": 0.0, "backoff_factor": 1.0},
        )
        try:  # the last retry's backoff is the largest
            last = self.backoff_us(self.max_retries)
        except OverflowError:
            last = inf
        if last == inf:
            raise ValueError("backoff_us(max_retries) must be finite")

    def backoff_us(self, attempt: int) -> float:
        """Backoff charged before retry ``attempt`` (1-based)."""
        if attempt <= 0:
            return 0.0
        return self.backoff_base_us * self.backoff_factor ** (attempt - 1)
