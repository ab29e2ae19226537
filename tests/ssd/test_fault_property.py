"""Chaos property suite for the fault-injection plane.

The contract under test (see :mod:`repro.flash.faults`):

* **Injection off is free** -- an SSD carrying an *inactive* injector
  is float-exact (outcomes, counters, chip state) against a
  no-injector twin.
* **Completed means correct** -- under any injected fault schedule,
  every chunk outcome that reports no error carries data bit-identical
  to the NumPy oracle, whether it was recovered by retry or re-executed
  on the degraded V_TH path.
* **Failures are typed** -- retry exhaustion, bad blocks,
  program/erase faults, and quarantined chips surface as the
  :class:`~repro.flash.errors.FlashFault` hierarchy, never bare
  ``RuntimeError``.
* **Determinism** -- the injector draws from per-chip seeded streams,
  so identical schedules replay identically whatever order the chips
  drain in.
"""

import numpy as np
import pytest

from reference_data_plane import (
    GEOMETRY,
    assembled,
    twin_ssd,
    window_tasks,
    drain,
)
from repro.core.expressions import And, Not, Operand, Xor, evaluate, or_all
from repro.flash.errors import (
    BadBlockFault,
    ChipUnavailableError,
    EraseFault,
    ProgramFault,
    RetryExhaustedError,
)
from repro.flash.faults import FaultConfig, FaultInjector, RecoveryPolicy
from repro.flash.geometry import WordlineAddress
from repro.ssd.controller import SmallSsd
from repro.ssd.events import StageJob, simulate_stages


def _build_one(data_seed, **kwargs):
    return twin_ssd(data_seed, inverted=False, **kwargs)


def _expression_pool():
    a0, a1, a2 = Operand("a0"), Operand("a1"), Operand("a2")
    solo = Operand("solo")
    return [
        And(a0, a1),
        Not(And(a0, a2)),
        or_all([And(a0, a1), solo]),
        Xor(a0, solo),
        And(And(a0, a1), a2),
    ]


def _scenario(seed):
    rng = np.random.default_rng(41_000 + seed)
    n_chips = int(rng.integers(2, 5))
    n_chunks = n_chips * int(rng.integers(1, 3))
    n_bits = n_chunks * GEOMETRY.page_size_bits - int(
        rng.integers(0, GEOMETRY.page_size_bits - 1)
    )
    pool = _expression_pool()
    window = [
        pool[int(rng.integers(len(pool)))]
        for _ in range(int(rng.integers(2, 7)))
    ]
    return dict(
        n_chips=n_chips,
        n_bits=n_bits,
        ssd_seed=int(rng.integers(1 << 16)),
        data_seed=int(rng.integers(1 << 16)),
        fault_seed=int(rng.integers(1 << 16)),
        sense_fault_rate=float(rng.uniform(0.0, 0.6)),
        stall_rate=float(rng.uniform(0.0, 0.3)),
        window=window,
        share=bool(rng.integers(2)),
    )


def _window_outcomes(ssd, window, *, reverse_chips=False, **kwargs):
    """One window's outcomes in task order; ``reverse_chips`` lists the
    chips' queues last chip first (each queue's own order kept), so
    the chips drain in the reverse order."""
    tasks = window_tasks(ssd, window)
    order = list(range(len(tasks)))
    if reverse_chips:
        order.sort(key=lambda i: -tasks[i].chip)
    drained = drain(ssd.engine, [tasks[i] for i in order], **kwargs)
    outcomes = [None] * len(tasks)
    for position, outcome in zip(order, drained):
        outcomes[position] = outcome
    return outcomes


def _assert_outcomes_identical(lhs, rhs):
    assert len(lhs) == len(rhs)
    for a, b in zip(lhs, rhs):
        assert a.task == b.task
        assert a.shared == b.shared
        assert a.n_senses == b.n_senses
        assert a.latency_us == b.latency_us
        assert a.energy_nj == b.energy_nj
        assert a.retries == b.retries
        assert a.recovery_us == b.recovery_us
        assert a.degraded == b.degraded
        assert type(a.error) is type(b.error)
        np.testing.assert_array_equal(a.data, b.data)


# ----------------------------------------------------------------------
# Injection off is free
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_inactive_injector_float_exact_vs_no_injector(seed):
    s = _scenario(seed)
    bare_ssd, env = _build_one(
        s["data_seed"],
        n_chips=s["n_chips"],
        n_bits=s["n_bits"],
        ssd_seed=s["ssd_seed"],
    )
    idle = FaultInjector(FaultConfig(seed=s["fault_seed"]))
    assert not idle.active
    twin_ssd, _ = _build_one(
        s["data_seed"],
        n_chips=s["n_chips"],
        n_bits=s["n_bits"],
        ssd_seed=s["ssd_seed"],
        fault_injector=idle,
    )
    bare = _window_outcomes(
        bare_ssd, s["window"], share=s["share"]
    )
    # Even an explicit recovery policy must not disturb the fast path
    # while the injector is inactive.
    twin = _window_outcomes(
        twin_ssd,
        s["window"],
        share=s["share"],
        recovery=RecoveryPolicy(),
    )
    _assert_outcomes_identical(bare, twin)
    for chip_a, chip_b in zip(bare_ssd.chips, twin_ssd.chips):
        assert chip_a.counters.busy_us == chip_b.counters.busy_us
        assert chip_a.counters.energy_nj == chip_b.counters.energy_nj
        assert chip_a.counters.senses == chip_b.counters.senses


# ----------------------------------------------------------------------
# Completed means correct, failures are typed
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_faulted_window_completed_chunks_match_oracle(seed):
    s = _scenario(seed)
    injector = FaultInjector(
        FaultConfig(
            seed=s["fault_seed"],
            sense_fault_rate=s["sense_fault_rate"],
            stall_rate=s["stall_rate"],
        )
    )
    ssd, env = _build_one(
        s["data_seed"],
        n_chips=s["n_chips"],
        n_bits=s["n_bits"],
        ssd_seed=s["ssd_seed"],
        fault_injector=injector,
    )
    outcomes = _window_outcomes(
        ssd,
        s["window"],
        share=s["share"],
        recovery=RecoveryPolicy(),
    )
    # Degraded-mode fallback means every chunk must complete here.
    assert all(outcome.error is None for outcome in outcomes)
    for expr, bits in zip(s["window"], assembled(ssd, s["window"], outcomes)):
        np.testing.assert_array_equal(bits, evaluate(expr, env))
    # Any retry charged real chip time plus controller backoff.
    for outcome in outcomes:
        if outcome.retries and not outcome.shared:
            assert outcome.recovery_us > 0.0


@pytest.mark.parametrize("seed", range(4))
def test_retry_exhaustion_surfaces_typed_error(seed):
    s = _scenario(seed)
    injector = FaultInjector(
        FaultConfig(seed=s["fault_seed"], sense_fault_rate=1.0)
    )
    ssd, _ = _build_one(
        s["data_seed"],
        n_chips=s["n_chips"],
        n_bits=s["n_bits"],
        ssd_seed=s["ssd_seed"],
        fault_injector=injector,
    )
    outcomes = _window_outcomes(
        ssd,
        s["window"],
        recovery=RecoveryPolicy(max_retries=2, degraded_mode=False),
    )
    for outcome in outcomes:
        assert isinstance(outcome.error, RetryExhaustedError)
        assert outcome.data is None
        assert "sense retry exhausted" in str(outcome.error)


def test_offline_chips_fail_fast_with_typed_error():
    s = _scenario(17)
    ssd, env = _build_one(
        s["data_seed"],
        n_chips=s["n_chips"],
        n_bits=s["n_bits"],
        ssd_seed=s["ssd_seed"],
    )
    outcomes = _window_outcomes(ssd, s["window"], offline=[0])
    for outcome in outcomes:
        if outcome.task.chip == 0:
            assert isinstance(outcome.error, ChipUnavailableError)
            assert outcome.error.chip == 0
            assert outcome.data is None
            assert outcome.latency_us == 0.0
        else:
            assert outcome.error is None
            assert outcome.data is not None


@pytest.mark.parametrize("seed", range(4))
def test_degraded_chips_serve_bit_identical_results(seed):
    s = _scenario(100 + seed)
    injector = FaultInjector(
        FaultConfig(seed=s["fault_seed"], sense_fault_rate=1.0)
    )
    ssd, env = _build_one(
        s["data_seed"],
        n_chips=s["n_chips"],
        n_bits=s["n_bits"],
        ssd_seed=s["ssd_seed"],
        fault_injector=injector,
    )
    # Every chip degraded: the whole window runs on the V_TH path,
    # which is immune to the (certain) transient faults above.
    outcomes = _window_outcomes(
        ssd,
        s["window"],
        recovery=RecoveryPolicy(),
        degraded=range(s["n_chips"]),
    )
    assert all(o.error is None and o.degraded for o in outcomes)
    for expr, bits in zip(s["window"], assembled(ssd, s["window"], outcomes)):
        np.testing.assert_array_equal(bits, evaluate(expr, env))


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_fault_schedule_replays_identically_in_any_chip_order(seed):
    """Fault draws come from per-chip streams: the chips draining in
    the reverse order replays every outcome and every count."""
    s = _scenario(200 + seed)

    def run(reverse_chips):
        injector = FaultInjector(
            FaultConfig(
                seed=s["fault_seed"],
                sense_fault_rate=s["sense_fault_rate"],
                stall_rate=s["stall_rate"],
            )
        )
        ssd, _ = _build_one(
            s["data_seed"],
            n_chips=s["n_chips"],
            n_bits=s["n_bits"],
            ssd_seed=s["ssd_seed"],
            fault_injector=injector,
        )
        outcomes = _window_outcomes(
            ssd,
            s["window"],
            reverse_chips=reverse_chips,
            share=s["share"],
            recovery=RecoveryPolicy(),
        )
        return outcomes, injector.counts()

    forward, forward_counts = run(False)
    backward, backward_counts = run(True)
    _assert_outcomes_identical(forward, backward)
    assert forward_counts == backward_counts


def test_injector_draws_are_seed_deterministic():
    a = FaultInjector(
        FaultConfig(seed=11, sense_fault_rate=0.4, stall_rate=0.2)
    )
    b = FaultInjector(
        FaultConfig(seed=11, sense_fault_rate=0.4, stall_rate=0.2)
    )
    draws_a = [(a.draw_sense_fault(c), a.draw_stall(c)) for c in (0, 1, 0)]
    draws_b = [(b.draw_sense_fault(c), b.draw_stall(c)) for c in (0, 1, 0)]
    assert draws_a == draws_b
    assert a.counts() == b.counts()
    # Per-chip streams are independent: draining chip 0 first must not
    # shift chip 1's stream.
    c = FaultInjector(
        FaultConfig(seed=11, sense_fault_rate=0.4, stall_rate=0.2)
    )
    chip1_first = [(c.draw_sense_fault(1), c.draw_stall(1))]
    assert chip1_first[0] == draws_a[1]


# ----------------------------------------------------------------------
# Chip-level hooks
# ----------------------------------------------------------------------


def _one_chip_ssd(*, injector=None, seed=3):
    ssd = SmallSsd(
        n_chips=1, geometry=GEOMETRY, seed=seed, fault_injector=injector
    )
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, GEOMETRY.page_size_bits, dtype=np.uint8)
    ssd.write_vector("v", bits, group="g")
    return ssd, bits


def test_program_fault_is_typed_and_rolls_back_registration():
    injector = FaultInjector(FaultConfig(seed=5, program_fault_rate=1.0))
    ssd, _ = _one_chip_ssd()
    ssd.attach_fault_injector(injector)
    with pytest.raises(ProgramFault):
        ssd.write_vector(
            "w",
            np.ones(GEOMETRY.page_size_bits, dtype=np.uint8),
            group="g",
        )
    # The failed write never half-registered.
    with pytest.raises(KeyError):
        ssd.ftl.lookup("w")
    assert injector.counts()["program_faults"] == 1


def test_bad_block_sense_raises_typed_error():
    ssd, _ = _one_chip_ssd()
    stored = ssd.controllers[0].stored("v@0")
    addr = stored.address
    injector = FaultInjector(
        FaultConfig(
            seed=5,
            bad_blocks=((0, addr.plane, addr.block, addr.subblock),),
        )
    )
    ssd.attach_fault_injector(injector)
    with pytest.raises(BadBlockFault):
        ssd.query(Operand("v"))
    assert injector.counts()["bad_block_hits"] >= 1


def test_erase_fault_is_typed():
    injector = FaultInjector(FaultConfig(seed=5, erase_fault_rate=1.0))
    ssd, _ = _one_chip_ssd(injector=injector)
    chip = ssd.chips[0]
    target = chip.plane_array.block(
        ssd.controllers[0].stored("v@0").address.block_address
    )
    with pytest.raises(EraseFault):
        chip.erase_block(target.address)


def test_read_page_with_retry_exhaustion_carries_context():
    """Satellite: typed RetryExhaustedError with the failing address
    and the attempted offsets, message text preserved."""
    ssd, _ = _one_chip_ssd()
    chip = ssd.chips[0]
    address = ssd.controllers[0].stored("v@0").address
    assert isinstance(address, WordlineAddress)
    offsets = (0.0, -0.1)
    with pytest.raises(RuntimeError, match="read-retry exhausted") as exc:
        chip.read_page_with_retry(
            address, lambda raw: False, vref_offsets=offsets
        )
    err = exc.value
    assert isinstance(err, RetryExhaustedError)
    assert err.address == address
    assert err.vref_offsets == offsets
    assert err.attempts == len(offsets)


# ----------------------------------------------------------------------
# Event-simulation stamping
# ----------------------------------------------------------------------


def test_fault_delay_extends_stage0_and_is_reported():
    base = StageJob(
        durations=(10e-6, 2e-6), resources=("chip0", "ext"), ready_at=0.0
    )
    delayed = StageJob(
        durations=(10e-6, 2e-6),
        resources=("chip0", "ext"),
        ready_at=0.0,
        fault_delay_s=5e-6,
    )
    clean = simulate_stages([base])
    faulted = simulate_stages([delayed])
    assert clean.fault_overhead == 0.0
    assert faulted.fault_overhead == pytest.approx(5e-6)
    assert faulted.makespan == pytest.approx(clean.makespan + 5e-6)


def test_zero_fault_delay_is_float_exact():
    jobs = [
        StageJob(
            durations=(7e-6, 3e-6),
            resources=("chip0", "ext"),
            ready_at=i * 1e-6,
        )
        for i in range(4)
    ]
    twin = [
        StageJob(
            durations=(7e-6, 3e-6),
            resources=("chip0", "ext"),
            ready_at=i * 1e-6,
            fault_delay_s=0.0,
        )
        for i in range(4)
    ]
    a = simulate_stages(jobs)
    b = simulate_stages(twin)
    assert a.completion_times == b.completion_times
    assert a.makespan == b.makespan
    assert b.fault_overhead == 0.0


def test_fault_delay_rejects_negative():
    with pytest.raises(ValueError):
        StageJob(
            durations=(1e-6,),
            resources=("chip0",),
            ready_at=0.0,
            fault_delay_s=-1e-6,
        )


def test_fault_config_validates_rates():
    with pytest.raises(ValueError):
        FaultConfig(sense_fault_rate=1.5)
    with pytest.raises(ValueError):
        FaultConfig(stall_rate=-0.1)
    with pytest.raises(TypeError):
        FaultInjector(FaultConfig(), sense_fault_rate=0.5)


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_retries", 2.5),
        ("max_retries", True),
        ("max_retries", float("nan")),
        ("degraded_extra_senses", 1.5),
        ("degraded_extra_senses", False),
        ("backoff_base_us", float("nan")),
        ("backoff_base_us", float("inf")),
        ("backoff_base_us", True),
        ("backoff_factor", float("inf")),
        ("backoff_factor", float("nan")),
    ],
)
def test_recovery_policy_refuses_what_fails_a_run(field, value):
    """A count must be an int (not a bool), a time or factor finite:
    each of these used to construct and then fail or misbehave inside
    a window (NaN backoff, ``range(2.5)``, an inf-us retry)."""
    with pytest.raises(ValueError, match=field):
        RecoveryPolicy(**{field: value})


def test_recovery_policy_refuses_a_backoff_that_overflows():
    with pytest.raises(ValueError, match="backoff_us"):
        RecoveryPolicy(max_retries=3, backoff_factor=1e200)
    assert RecoveryPolicy(max_retries=0, backoff_factor=1e200)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, True])
def test_fault_config_refuses_a_non_finite_stall(value):
    with pytest.raises(ValueError, match="stall_us"):
        FaultConfig(stall_us=value)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"seed": 2.5},  # used to fail at the first draw
        {"seed": -1},
        {"seed": True},
        {"sense_fault_rate": True},  # used to act as 1.0
        {"chip_sense_fault_rates": {0: True}},
    ],
)
def test_fault_config_refuses_a_bad_seed_or_bool_rate(kwargs):
    with pytest.raises(ValueError):
        FaultConfig(**kwargs)
