"""The staged chip drain: one route, whatever feeds it.

``QueryEngine.execute_tasks`` drains every chip through the same
stages -- fail-fast, result cache, dedup, sense, publish -- and the
sense stage has one batched loop and one scalar walk.  What these
tests pin:

* **All-clean identity** -- the fault-free drain *is* the recovery
  drain with an all-clean attempt schedule.  Twin SSDs, one with no
  injector and one whose injector is ``active`` only through its
  program-fault rate (no sense can fault, nothing is drawn), must agree
  on everything observable -- every comparison is ``==``.  If the two
  routes ever fork again, this fails.
* **Mid-drain exception** -- a sense stage that raises on one chip
  propagates the typed error out of ``execute_tasks`` unchanged and
  leaves everything the other chips published valid.
* **Policy halves** -- an inactive injector switches off the retry
  half of a recovery policy only; the margin-read half is the
  caller's on every degraded chip.
* **Fail-fast wording** -- a dead die is ``offline``, a parked one
  ``quarantined``; same error type either way.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_data_plane import (
    GEOMETRY,
    assert_chips_equal,
    assert_outcomes_equal,
    route,
    window_tasks,
    Hit,
    drain,
)
from repro.core.expressions import And, Not, Operand, Xor, evaluate, or_all
from repro.flash.errors import BadBlockFault, ChipUnavailableError
from repro.flash.faults import FaultConfig, FaultInjector, RecoveryPolicy
from repro.flash.packing import unpack_words
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


def _build(n_chips, n_chunks, seed, injector=None):
    """One SSD, data loaded fault-free, injector attached afterwards;
    returns it with the oracle environment."""
    ssd = SmallSsd(n_chips=n_chips, geometry=GEOMETRY, seed=seed)
    rng = np.random.default_rng(seed)
    n_bits = n_chunks * GEOMETRY.page_size_bits - 7
    env = {}
    for name in ("a0", "a1", "a2"):
        env[name] = rng.integers(0, 2, n_bits, dtype=np.uint8)
        ssd.write_vector(name, env[name], group="g")
    env["solo"] = rng.integers(0, 2, n_bits, dtype=np.uint8)
    ssd.write_vector("solo", env["solo"])
    if injector is not None:
        ssd.attach_fault_injector(injector)
    ssd.engine.enable_result_cache()
    return ssd, env


def assert_cache_entries_equal(mine, theirs):
    """Same entries, stamped alike (concurrent drains fill the LRU in
    whatever order their chips finish, so order is not compared)."""
    cache_a, cache_b = mine.engine.result_cache, theirs.engine.result_cache
    assert cache_a._stamps == cache_b._stamps
    # Entries are keyed per engine; their ``(chip, plan)`` compares.
    entries_a, entries_b = (
        {(chip, plan): (words, n_senses)
         for words, n_senses, chip, plan in cache._entries.values()}
        for cache in (cache_a, cache_b)
    )
    assert entries_a.keys() == entries_b.keys()
    for key, (words, n_senses) in entries_a.items():
        words_b, n_senses_b = entries_b[key]
        assert n_senses == n_senses_b
        np.testing.assert_array_equal(words, words_b)


def assert_ssds_equal(mine, theirs):
    assert mine.engine.stats == theirs.engine.stats
    assert mine.engine.result_cache.stats == theirs.engine.result_cache.stats
    assert_cache_entries_equal(mine, theirs)
    assert_chips_equal(mine, theirs)


# ----------------------------------------------------------------------
# (i) The fault-free drain is the recovery drain, all attempts clean
# ----------------------------------------------------------------------


@st.composite
def clean_scenarios(draw):
    n_chips = draw(st.integers(2, 4))
    chips = st.integers(0, n_chips - 1)
    return dict(
        n_chips=n_chips,
        n_chunks=n_chips * draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 2**16)),
        policy=RecoveryPolicy(
            max_retries=draw(st.integers(0, 3)),
            degraded_mode=draw(st.booleans()),
            degraded_extra_senses=draw(st.integers(0, 2)),
        ),
        batch=draw(st.booleans()),
        share=draw(st.booleans()),
        degraded=draw(st.frozensets(chips, max_size=1)),
        offline=draw(st.frozensets(chips, max_size=1)),
        windows=draw(
            st.lists(
                st.lists(st.sampled_from(POOL), min_size=1, max_size=7),
                min_size=1,
                max_size=3,
            )
        ),
    )


@settings(max_examples=80, deadline=None)
@given(s=clean_scenarios())
def test_fault_free_drain_is_the_recovery_drain_with_a_clean_schedule(s):
    plain, _ = _build(s["n_chips"], s["n_chunks"], s["seed"])
    armed, _ = _build(
        s["n_chips"],
        s["n_chunks"],
        s["seed"],
        FaultInjector(FaultConfig(seed=s["seed"], program_fault_rate=0.3)),
    )
    injector = armed.fault_injector
    assert injector.active and plain.fault_injector is None
    kwargs = dict(
        use_cache=True,
        recovery=s["policy"],
        share=s["share"],
        degraded=s["degraded"],
        offline=s["offline"],
    )
    for window in s["windows"]:
        with route(s["batch"]):
            mine = drain(
                armed.engine,
                window_tasks(armed, window), **kwargs
            )
            theirs = drain(
                plain.engine,
                window_tasks(plain, window), **kwargs
            )
        assert_outcomes_equal(mine, theirs)
        assert_ssds_equal(armed, plain)
        # Nothing was drawn: no chip's stream was even opened.
        assert injector._rngs == {} and injector.faults_injected == 0


# ----------------------------------------------------------------------
# (ii) A sense stage that raises
# ----------------------------------------------------------------------


def _break_last_chip(ssd, cause):
    """Make the sense stage of the last chip raise; returns the chip
    and the error type it raises."""
    victim = len(ssd.chips) - 1
    if cause == "bad_block":
        # A stuck block under a live page, and no recovery policy to
        # absorb the fault.
        chunk = next(
            c
            for c in range(ssd.ftl.lookup("a1").n_chunks)
            if ssd.ftl.chip_of_chunk(c) == victim
        )
        addr = ssd.controllers[victim].stored(f"a1@{chunk}").address
        ssd.attach_fault_injector(
            FaultInjector(
                FaultConfig(
                    bad_blocks=(
                        (victim, addr.plane, addr.block, addr.subblock),
                    )
                )
            )
        )
        return victim, BadBlockFault
    # The die drops out the moment its drain is past the fail-fast
    # stage: before the cache lookup, so before the sense stage runs.
    lookup = ssd.engine._lookup_cached

    def dies_on_lookup(window, chip, positions):
        if chip == victim:
            ssd.chips[victim].offline = True
        return lookup(window, chip, positions)

    ssd.engine._lookup_cached = dies_on_lookup
    return victim, ChipUnavailableError


@pytest.mark.parametrize("batch", [True, False])
@pytest.mark.parametrize("cause", ["bad_block", "killed_mid_drain"])
def test_sense_stage_error_propagates_and_spares_the_other_chips(
    cause, batch
):
    window = [POOL[0], POOL[3], POOL[0], POOL[4]]
    broken, env = _build(3, 6, seed=5)
    victim, error_type = _break_last_chip(broken, cause)
    # ``tasks`` come chip by chip, so the victim's drain is the last to
    # start: every other chip has published.
    with pytest.raises(error_type), route(batch):
        drain(
            broken.engine,
            window_tasks(broken, window), use_cache=True
        )
    # A twin that was only ever asked for the other chips' tasks.
    twin, _ = _build(3, 6, seed=5)
    if cause == "bad_block":
        _break_last_chip(twin, cause)
    spared = [t for t in window_tasks(twin, window) if t.chip != victim]
    with route(batch):
        served = drain(twin.engine, spared, use_cache=True)
    assert broken.engine.stats == twin.engine.stats
    assert_cache_entries_equal(broken, twin)
    # What the spared chips published is valid: a repeat of their
    # tasks is served from the cache, with the oracle's bits.
    again = drain(
        broken.engine,
        [t for t in window_tasks(broken, window) if t.chip != victim],
        use_cache=True,
    )
    assert all(isinstance(outcome, Hit) for outcome in again)
    page = GEOMETRY.page_size_bits
    for outcome, reference in zip(again, served):
        np.testing.assert_array_equal(outcome.data, reference.data)
        task = outcome.task
        want = evaluate(task.expr, env)[
            task.chunk * page : (task.chunk + 1) * page
        ]
        got = unpack_words(outcome.data, page)[: len(want)]
        np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# (iii) The two halves of a recovery policy
# ----------------------------------------------------------------------


@pytest.mark.parametrize("injector", ["none", "silent", "active"])
@pytest.mark.parametrize("batch", [True, False])
@pytest.mark.parametrize("extra", [0, 2, 5])
def test_degraded_chip_walks_the_callers_margin_ladder(
    extra, batch, injector
):
    """Regression: without an active injector the engine dropped the
    caller's policy altogether and served degraded chips on the
    *default* ladder (2 extra senses whatever was asked)."""
    attached = {
        "none": None,
        "silent": FaultInjector(FaultConfig()),
        "active": FaultInjector(FaultConfig(program_fault_rate=0.5)),
    }[injector]
    ssd, _ = _build(2, 2, seed=3, injector=attached)
    with route(batch):
        outcomes = drain(
            ssd.engine,
            window_tasks(ssd, [POOL[0]]),
            recovery=RecoveryPolicy(degraded_extra_senses=extra),
            degraded=(1,),
        )
    healthy, degraded = outcomes
    assert (healthy.task.chip, degraded.task.chip) == (0, 1)
    assert not healthy.degraded and degraded.degraded
    assert degraded.n_senses == (1 + extra) * healthy.n_senses
    assert degraded.latency_us == pytest.approx(
        (1 + extra) * healthy.latency_us
    )


def test_degraded_chip_without_a_policy_walks_the_default_ladder():
    ssd, _ = _build(2, 2, seed=3)
    healthy, degraded = drain(
        ssd.engine,
        window_tasks(ssd, [POOL[0]]), degraded=(1,)
    )
    default = RecoveryPolicy().degraded_extra_senses
    assert degraded.n_senses == (1 + default) * healthy.n_senses


# ----------------------------------------------------------------------
# (iv) Fail-fast says which way the chip is gone
# ----------------------------------------------------------------------


def test_fail_fast_names_a_dead_die_offline_and_a_parked_one_quarantined():
    ssd, _ = _build(3, 3, seed=2)
    ssd.kill_chip(1)
    outcomes = drain(
        ssd.engine,
        window_tasks(ssd, [POOL[0]]), offline=(1, 2)
    )
    by_chip = {outcome.task.chip: outcome for outcome in outcomes}
    assert by_chip[0].error is None
    for chip, word in ((1, "offline"), (2, "quarantined")):
        error = by_chip[chip].error
        assert isinstance(error, ChipUnavailableError)
        assert error.chip == chip
        assert str(error) == f"chip {chip} is {word}"
