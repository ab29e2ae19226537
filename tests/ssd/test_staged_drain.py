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

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expressions import And, Not, Operand, Xor, evaluate, or_all
from repro.flash.errors import BadBlockFault, ChipUnavailableError
from repro.flash.faults import FaultConfig, FaultInjector, RecoveryPolicy
from repro.flash.geometry import ChipGeometry
from repro.flash.latches import LatchStateError
from repro.flash.packing import unpack_words
from repro.ssd.controller import SmallSsd

GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=16,
    subblocks_per_block=2,
    wordlines_per_string=8,
    page_size_bits=80,
)

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


def _tasks(ssd, window):
    tasks = []
    for query, expr in enumerate(window):
        tasks.extend(ssd.engine.prepare(expr).tasks(query=query))
    return tasks


def _latch_words(bank):
    out = []
    for name in ("cache_words", "sense_words"):
        try:
            out.append(getattr(bank, name))
        except LatchStateError:
            out.append(None)
    return out


def assert_outcomes_equal(mine, theirs):
    assert len(mine) == len(theirs)
    for a, b in zip(mine, theirs):
        assert a.task == b.task
        assert (a.data is None) == (b.data is None)
        if a.data is not None:
            np.testing.assert_array_equal(a.data, b.data)
        assert a[2:10] == b[2:10]  # n_senses .. degraded
        assert type(a.error) is type(b.error)
        assert a[11:] == b[11:]  # reconstructed, recovery_work


def assert_cache_entries_equal(mine, theirs):
    """Same entries, stamped alike (concurrent drains fill the LRU in
    whatever order their chips finish, so order is not compared)."""
    cache_a, cache_b = mine.engine.result_cache, theirs.engine.result_cache
    assert cache_a._entries.keys() == cache_b._entries.keys()
    for key, (stamp, words, n_senses) in cache_a._entries.items():
        stamp_b, words_b, n_senses_b = cache_b._entries[key]
        assert (stamp, n_senses) == (stamp_b, n_senses_b)
        np.testing.assert_array_equal(words, words_b)


def assert_ssds_equal(mine, theirs):
    assert mine.engine.stats == theirs.engine.stats
    assert mine.engine.result_cache.stats == theirs.engine.result_cache.stats
    assert_cache_entries_equal(mine, theirs)
    for chip_a, chip_b in zip(mine.chips, theirs.chips):
        assert chip_a.counters == chip_b.counters
        blocks_a = chip_a.plane_array._blocks
        blocks_b = chip_b.plane_array._blocks
        assert blocks_a.keys() == blocks_b.keys()
        for address, block in blocks_a.items():
            assert (
                block.reads_since_erase
                == blocks_b[address].reads_since_erase
            )
        for plane, bank in chip_a.latches.items():
            for a, b in zip(
                _latch_words(bank), _latch_words(chip_b.latches[plane])
            ):
                np.testing.assert_array_equal(a, b)


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
        workers=draw(st.sampled_from([1, 4])),
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
        batch=s["batch"],
        share=s["share"],
        workers=s["workers"],
        degraded=s["degraded"],
        offline=s["offline"],
    )
    for window in s["windows"]:
        assert_outcomes_equal(
            armed.engine.execute_tasks(_tasks(armed, window), **kwargs),
            plain.engine.execute_tasks(_tasks(plain, window), **kwargs),
        )
        assert_ssds_equal(armed, plain)
        # Nothing was drawn: no chip's stream was even opened.
        assert injector._rngs == {} and injector.faults_injected == 0


# ----------------------------------------------------------------------
# (ii) A sense stage that raises
# ----------------------------------------------------------------------


class _DiesOnAcquire:
    """Stands in for ``MwsExecutor.lock``: the die drops out the
    moment its drain takes the chip -- after the fail-fast stage
    looked, before the sense stage runs."""

    def __init__(self, chip):
        self.chip = chip
        self.lock = threading.Lock()

    def __enter__(self):
        self.chip.offline = True
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


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
    executor = ssd.controllers[victim].executor
    executor.lock = _DiesOnAcquire(ssd.chips[victim])
    return victim, ChipUnavailableError


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("batch", [True, False])
@pytest.mark.parametrize("cause", ["bad_block", "killed_mid_drain"])
def test_sense_stage_error_propagates_and_spares_the_other_chips(
    cause, batch, workers
):
    window = [POOL[0], POOL[3], POOL[0], POOL[4]]
    broken, env = _build(3, 6, seed=5)
    victim, error_type = _break_last_chip(broken, cause)
    # ``tasks`` come chip by chip, so the victim's drain is the last to
    # start at any worker count: every other chip has published.
    with pytest.raises(error_type):
        broken.engine.execute_tasks(
            _tasks(broken, window),
            use_cache=True,
            batch=batch,
            workers=workers,
        )
    # A twin that was only ever asked for the other chips' tasks.
    twin, _ = _build(3, 6, seed=5)
    if cause == "bad_block":
        _break_last_chip(twin, cause)
    spared = [t for t in _tasks(twin, window) if t.chip != victim]
    served = twin.engine.execute_tasks(
        spared, use_cache=True, batch=batch, workers=workers
    )
    assert broken.engine.stats == twin.engine.stats
    assert_cache_entries_equal(broken, twin)
    # What the spared chips published is valid: a repeat of their
    # tasks is served from the cache, with the oracle's bits.
    again = broken.engine.execute_tasks(
        [t for t in _tasks(broken, window) if t.chip != victim],
        use_cache=True,
    )
    assert all(outcome.cached for outcome in again)
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
    outcomes = ssd.engine.execute_tasks(
        _tasks(ssd, [POOL[0]]),
        batch=batch,
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
    healthy, degraded = ssd.engine.execute_tasks(
        _tasks(ssd, [POOL[0]]), degraded=(1,)
    )
    default = RecoveryPolicy().degraded_extra_senses
    assert degraded.n_senses == (1 + default) * healthy.n_senses


# ----------------------------------------------------------------------
# (iv) Fail-fast says which way the chip is gone
# ----------------------------------------------------------------------


def test_fail_fast_names_a_dead_die_offline_and_a_parked_one_quarantined():
    ssd, _ = _build(3, 3, seed=2)
    ssd.kill_chip(1)
    outcomes = ssd.engine.execute_tasks(
        _tasks(ssd, [POOL[0]]), offline=(1, 2)
    )
    by_chip = {outcome.task.chip: outcome for outcome in outcomes}
    assert by_chip[0].error is None
    for chip, word in ((1, "offline"), (2, "quarantined")):
        error = by_chip[chip].error
        assert isinstance(error, ChipUnavailableError)
        assert error.chip == chip
        assert str(error) == f"chip {chip} is {word}"
