"""The batched fault-recovery drain equals the scalar retry loop.

``execute_tasks(recovery=...)`` pre-draws each chip's attempt
schedule and drains the queue as one vectorised dispatch; on the
forced walk (``reference_data_plane.walk_tasks``) it runs
:meth:`QueryEngine._sense_scalar` plan by plan.  On two identically
seeded SSDs the two must agree on everything a later window, a later
write or the health plane could observe --
every comparison below is ``==``, never ``approx``:

* every :class:`ChunkOutcome` field (data bits, senses, latency,
  energy, retries, recovery time, degraded flag, error type);
* every chip's :class:`ChipCounters`;
* the injector's per-chip fault counts **and** per-chip RNG state (the
  draw schedule is part of the contract: program faults of later
  writes come off the same streams);
* per-block read-disturb counters and the latch banks' landing state.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_data_plane import (
    GEOMETRY,
    assert_chips_equal,
    assert_outcomes_equal,
    walk_tasks,
    window_tasks,
    drain,
)
from repro.core.expressions import And, Not, Operand, Xor, or_all
from repro.flash.errors import FlashFault, RetryExhaustedError
from repro.flash.faults import FaultConfig, FaultInjector, RecoveryPolicy
from repro.ssd.controller import SmallSsd


_A = [Operand(f"a{i}") for i in range(3)]
_SOLO = Operand("solo")
POOL = [
    And(_A[0], _A[1]),
    Not(And(_A[0], _A[2])),
    or_all([And(_A[0], _A[1]), _SOLO]),
    Xor(_A[0], _SOLO),
    And(And(_A[0], _A[1]), _A[2]),
    Xor(And(_A[1], _A[2]), _A[0]),
    _A[2],
]

RATES = st.sampled_from([0.01, 0.1, 0.3, 0.6, 0.9, 0.95])
STALLS = st.sampled_from([0.0, 0.01, 0.3, 1.0])


@st.composite
def scenarios(draw):
    n_chips = draw(st.integers(2, 4))
    chips = st.integers(0, n_chips - 1)
    return dict(
        n_chips=n_chips,
        n_chunks=n_chips * draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 2**16)),
        sense_fault_rate=draw(RATES),
        chip_sense_fault_rates=draw(
            st.dictionaries(
                chips, st.sampled_from([0.0, 0.5, 1.0]), max_size=2
            )
        ),
        stall_rate=draw(STALLS),
        program_fault_rate=draw(st.sampled_from([0.0, 0.0, 0.3])),
        policy=RecoveryPolicy(
            max_retries=draw(st.integers(0, 3)),
            degraded_mode=draw(st.booleans()),
            degraded_extra_senses=draw(st.integers(0, 2)),
        ),
        share=draw(st.booleans()),
        degraded=draw(st.frozensets(chips, max_size=1)),
        offline=draw(st.frozensets(chips, max_size=1)),
        #: Chunk whose ``a1`` page sits on an injected bad block.
        bad_chunk=draw(st.none() | st.integers(0, n_chips - 1)),
        windows=draw(
            st.lists(
                st.lists(st.sampled_from(POOL), min_size=1, max_size=7),
                min_size=1,
                max_size=3,
            )
        ),
    )


def _build(s):
    """One SSD of the scenario, data loaded fault-free, injector
    attached afterwards (bad block under a live page included)."""
    ssd = SmallSsd(n_chips=s["n_chips"], geometry=GEOMETRY, seed=s["seed"])
    rng = np.random.default_rng(s["seed"])
    n_bits = s["n_chunks"] * GEOMETRY.page_size_bits - 7
    for name in ("a0", "a1", "a2"):
        ssd.write_vector(
            name, rng.integers(0, 2, n_bits, dtype=np.uint8), group="g"
        )
    ssd.write_vector("solo", rng.integers(0, 2, n_bits, dtype=np.uint8))
    bad_blocks = ()
    if s["bad_chunk"] is not None:
        chip = ssd.ftl.chip_of_chunk(s["bad_chunk"])
        addr = ssd.controllers[chip].stored(f"a1@{s['bad_chunk']}").address
        bad_blocks = ((chip, addr.plane, addr.block, addr.subblock),)
    ssd.attach_fault_injector(
        FaultInjector(
            FaultConfig(
                seed=s["seed"] + 1,
                sense_fault_rate=s["sense_fault_rate"],
                chip_sense_fault_rates=s["chip_sense_fault_rates"],
                stall_rate=s["stall_rate"],
                program_fault_rate=s["program_fault_rate"],
                bad_blocks=bad_blocks,
            )
        )
    )
    return ssd


def _write_between_windows(ssd, index):
    """A write that may draw a program fault off the same per-chip
    streams the sense draws use; returns what it raised."""
    bits = np.full(GEOMETRY.page_size_bits * 2, index % 2, dtype=np.uint8)
    try:
        ssd.write_vector(f"w{index}", bits)
    except FlashFault as fault:
        return type(fault)
    return None


def assert_ssds_equal(batched, scalar):
    inj_b, inj_s = batched.fault_injector, scalar.fault_injector
    assert inj_b.counts() == inj_s.counts()
    assert inj_b._rngs.keys() == inj_s._rngs.keys()
    for chip_id, rng in inj_b._rngs.items():
        assert inj_b.counts(chip_id) == inj_s.counts(chip_id)
        assert (
            rng.bit_generator.state
            == inj_s._rngs[chip_id].bit_generator.state
        )
    assert_chips_equal(batched, scalar)


def run_both(s):
    batched, scalar = _build(s), _build(s)
    for chip in s["offline"]:
        # Half the time the die is really gone, not merely quarantined.
        if s["seed"] % 2:
            batched.kill_chip(chip)
            scalar.kill_chip(chip)
    kwargs = dict(
        recovery=s["policy"],
        share=s["share"],
        degraded=s["degraded"],
        offline=s["offline"],
    )
    all_batched = []
    for index, window in enumerate(s["windows"]):
        out_b = drain(
            batched.engine,
            window_tasks(batched, window), **kwargs
        )
        out_s = walk_tasks(
            scalar.engine, window_tasks(scalar, window), **kwargs
        )
        assert_outcomes_equal(out_b, out_s)
        assert_ssds_equal(batched, scalar)
        assert _write_between_windows(
            batched, index
        ) == _write_between_windows(scalar, index)
        all_batched.extend(out_b)
    assert_ssds_equal(batched, scalar)
    return batched, scalar, all_batched


@settings(max_examples=120, deadline=None)
@given(s=scenarios())
def test_batched_recovery_drain_equals_scalar_loop(s):
    run_both(s)


def _fixed(**overrides):
    s = dict(
        n_chips=2,
        n_chunks=4,
        seed=11,
        sense_fault_rate=0.6,
        chip_sense_fault_rates={},
        stall_rate=0.3,
        program_fault_rate=0.0,
        policy=RecoveryPolicy(max_retries=1),
        share=True,
        degraded=frozenset(),
        offline=frozenset(),
        bad_chunk=None,
        windows=[POOL, POOL[::-1]],
    )
    s.update(overrides)
    return s


def test_exhaustion_splits_the_queue_and_stays_equal():
    """At a 60 % fault rate with one retry about a third of the plans
    exhaust: the batched drain must split there (more dispatches than
    chip-windows, far fewer than plans) and still agree."""
    batched, scalar, outcomes = run_both(_fixed())
    exhausted = [o for o in outcomes if o.degraded and not o.shared]
    assert exhausted
    assert all(o.retries == 1 for o in exhausted)
    chip_windows = 2 * 2
    dispatches = batched.engine.stats.executor_dispatches
    assert chip_windows < dispatches
    assert dispatches < scalar.engine.stats.executor_dispatches


def test_exhaustion_without_degraded_mode_surfaces_typed_error():
    _, _, outcomes = run_both(
        _fixed(policy=RecoveryPolicy(max_retries=0, degraded_mode=False))
    )
    errors = [o for o in outcomes if o.error is not None]
    assert errors
    assert all(isinstance(o.error, RetryExhaustedError) for o in errors)
    assert all(o.data is None for o in errors)


def test_clean_window_is_one_dispatch_per_chip():
    """With the injector active but (almost) never firing, the whole
    queue of every chip drains in a single executor dispatch."""
    batched, scalar, outcomes = run_both(
        _fixed(sense_fault_rate=0.0, stall_rate=0.01, windows=[POOL])
    )
    assert all(o.retries == 0 for o in outcomes)
    assert batched.engine.stats.executor_dispatches == 2
    assert scalar.engine.stats.executor_dispatches > 2 * 4


def test_bad_block_in_queue_keeps_the_scalar_loop_and_draws_nothing_extra():
    """A queue touching an injected bad block is declined *before*
    anything is drawn, so the scalar fallback's draws -- and its one
    counted hit per failing sense -- are all that happen."""
    batched, scalar, outcomes = run_both(_fixed(bad_chunk=0))
    assert any(o.error is not None for o in outcomes)
    hits = batched.fault_injector.counts()["bad_block_hits"]
    assert hits == scalar.fault_injector.counts()["bad_block_hits"] > 0


def test_bad_block_probe_on_a_degraded_chip_counts_no_fault():
    """Regression: a degraded chip's queue was once probed with the
    counting ``is_bad_block`` hook before its walk hit the block
    again, so ``bad_block_hits`` (hence ``flash.faults_injected``)
    depended on the route.  A degraded chip now walks without asking:
    the one failing sense is the one hit."""
    ssd = _build(
        _fixed(n_chips=1, n_chunks=1, sense_fault_rate=0.01, bad_chunk=0)
    )
    outcomes = drain(ssd.engine, window_tasks(ssd, [_A[1]]), degraded=(0,))
    assert outcomes[0].error is not None
    assert ssd.fault_injector.counts()["bad_block_hits"] == 1


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    rate=RATES,
    stall_rate=STALLS,
    max_retries=st.integers(0, 3),
)
def test_attempt_draws_is_the_historical_retry_loop(
    seed, rate, stall_rate, max_retries
):
    """Both drains consume ``attempt_draws``, so comparing them cannot
    see its order change.  This can: the loop every record in
    ``BENCH_*.json`` was drawn under -- stall, then sense fault, backoff
    only between attempts -- written out by hand."""
    config = FaultConfig(
        seed=seed, sense_fault_rate=rate, stall_rate=stall_rate
    )
    policy = RecoveryPolicy(max_retries=max_retries)
    shared, by_hand = FaultInjector(config), FaultInjector(config)
    for _ in range(20):
        expected = []
        recovery_us = 0.0
        attempt = 0
        while True:
            attempt += 1
            recovery_us += by_hand.draw_stall(3)
            faulted = by_hand.draw_sense_fault(3)
            expected.append((faulted, recovery_us))
            if not faulted or attempt > max_retries:
                break
            recovery_us += policy.backoff_us(attempt)
        assert list(shared.attempt_draws(3, policy)) == expected
    assert shared.counts(3) == by_hand.counts(3)
    assert (
        shared._rngs[3].bit_generator.state
        == by_hand._rngs[3].bit_generator.state
    )


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    rate=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
    stall_rate=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
    chip_rate=st.sampled_from([None, 0.0, 0.01, 0.6, 1.0]),
    max_retries=st.integers(0, 3),
    lengths=st.lists(st.integers(0, 64), min_size=1, max_size=4),
)
def test_queue_draws_are_the_per_plan_draws(
    seed, rate, stall_rate, chip_rate, max_retries, lengths
):
    """The batched route draws a retried queue's schedule in
    ``rng.random(k)`` blocks; it must be the plan-by-plan
    ``attempt_draws`` lists of a twin injector draw for draw, leave the
    same counts, and leave the stream where the twin's is -- so one
    uniform drawn past what the walk draws fails it."""
    config = FaultConfig(
        seed=seed,
        sense_fault_rate=rate,
        stall_rate=stall_rate,
        chip_sense_fault_rates={} if chip_rate is None else {1: chip_rate},
    )
    policy = RecoveryPolicy(max_retries=max_retries)
    queued, walked = FaultInjector(config), FaultInjector(config)
    for i, n_plans in enumerate(lengths):
        chip = i % 2
        assert queued.queue_attempt_draws(chip, policy, n_plans) == [
            list(walked.attempt_draws(chip, policy)) for _ in range(n_plans)
        ]
        assert queued.counts(chip) == walked.counts(chip)
    assert queued.counts() == walked.counts()
    for chip in (0, 1):
        assert queued._rng(chip).random() == walked._rng(chip).random()
