"""A maintenance move is all or nothing: a randomized sweep over tight
geometries.

MWS computes only over operands that share a block, so the maintenance
plane moves *units* -- a chunk column, or a rotation group's parity
pages -- whole or not at all.  Each example builds a small SSD (2-4
chips of 2-6 sub-blocks, 1-4 string groups, parity on or off, some
chips squeezed by pages the FTL does not know of, sometimes program
faults), then runs a list of steps: chip kills, GC cycles
(``run_cycle``), drains (``drain_chip``) and rebuilds
(``rebuild_cycle``), some with a chip index that is refused.  After
every step one of two things holds:

* the call raised, and the FTL's chunk overrides and parity homes,
  every directory, ``live_pages`` and ``free_subblocks()`` per chip
  and the rebuild queue are as they were before it; or
* the call returned, and every chip's directory holds exactly the
  pages the FTL places there; every page reads back equal to its
  oracle, directly or by parity reconstruction, or is lost on a dead
  chip already drained and counted in ``pages_stuck`` (or queued for
  rebuild); a drain or rebuild counts stuck exactly the pages of the
  units it parked; and, when no write faulted, a unit is parked only
  if ``check_room`` refused it on every online healthy chip.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import AllocationError
from repro.flash.errors import FlashFault
from repro.flash.faults import FaultConfig, FaultInjector
from repro.flash.geometry import ChipGeometry
from repro.ssd.controller import SmallSsd
from repro.ssd.maintenance import MaintenanceConfig

PAGE = 128


@st.composite
def scenarios(draw):
    n_chips = draw(st.integers(2, 4))
    chip = st.integers(0, n_chips - 1)
    # ``n_chips`` itself is no chip index: a list holding it is refused.
    healthy = st.none() | st.lists(st.integers(0, n_chips), max_size=n_chips)
    n_groups = draw(st.integers(1, 4))
    low = draw(st.integers(0, 3))
    step = st.one_of(
        st.tuples(st.just("kill"), chip),
        # A kill the service notices: the dead chip is drained at once.
        st.tuples(st.just("lose"), chip),
        st.tuples(st.just("gc")),
        st.tuples(st.just("drain"), chip, healthy),
        st.tuples(st.just("rebuild"), st.none()),
        st.tuples(st.just("rebuild"), healthy),
    )
    return dict(
        n_chips=n_chips,
        parity=draw(st.booleans()),
        subblocks=draw(st.integers(2, 6)),
        wordlines=draw(st.integers(2, 6)),
        vectors=draw(
            st.lists(
                st.tuples(
                    st.integers(0, n_groups - 1),
                    st.integers(1, n_chips),
                ),
                min_size=1,
                max_size=6,
            )
        ),
        deletes=draw(st.integers(0, 2)),
        pads=draw(
            st.lists(st.integers(0, 3), min_size=n_chips, max_size=n_chips)
        ),
        program_fault_rate=draw(st.sampled_from([0.0, 0.3])),
        config=MaintenanceConfig(
            gc_low_watermark=low,
            gc_high_watermark=low + draw(st.integers(0, 2)),
            rebuild_columns_per_cycle=draw(st.integers(1, 2)),
        ),
        seed=draw(st.integers(0, 2**16)),
        steps=draw(st.lists(step, min_size=1, max_size=10)),
    )


def _build(s):
    """The scenario's SSD and its oracle: vectors written while they
    fit, the first ``deletes`` deleted again (dead pages for GC), then
    pad pages on each chip that squeeze it as a destination."""
    geometry = ChipGeometry(
        planes_per_die=1,
        blocks_per_plane=s["subblocks"],
        subblocks_per_block=1,
        wordlines_per_string=s["wordlines"],
        page_size_bits=PAGE,
    )
    ssd = SmallSsd(
        n_chips=s["n_chips"], geometry=geometry, seed=s["seed"],
        parity=s["parity"],
    )
    rng = np.random.default_rng(s["seed"])
    env = {}
    for i, (group, n_chunks) in enumerate(s["vectors"]):
        n_bits = n_chunks * PAGE - int(rng.integers(PAGE))
        bits = rng.integers(0, 2, n_bits, dtype=np.uint8)
        try:
            ssd.write_vector(f"v{i}", bits, group=f"g{group}")
        except AllocationError:
            continue
        env[f"v{i}"] = bits
    for name in list(env)[: min(s["deletes"], len(env) - 1)]:
        ssd.delete_vector(name)
        del env[name]
    for controller, n_pads in zip(ssd.controllers, s["pads"]):
        for i in range(min(n_pads, controller.free_subblocks())):
            controller.fc_write(
                f"pad{i}", rng.integers(0, 2, PAGE, dtype=np.uint8)
            )
    if s["program_fault_rate"]:
        ssd.attach_fault_injector(
            FaultInjector(
                FaultConfig(
                    seed=s["seed"], program_fault_rate=s["program_fault_rate"]
                )
            )
        )
    return ssd, env


def _snapshot(ssd, mgr):
    """Everything a refused or failed call must leave as it was."""
    ftl = ssd.ftl
    return (
        ftl.chunk_overrides(),
        ftl.parity_placements(),
        [dict(c.directory.operands) for c in ssd.controllers],
        [ftl.live_pages(chip) for chip in range(len(ssd.chips))],
        [c.free_subblocks() for c in ssd.controllers],
        list(mgr.pending_rebuild),
    )


def _program_faults(ssd):
    injector = ssd.fault_injector
    return 0 if injector is None else injector.counts()["program_faults"]


def _unit_pages(ssd, kind, key):
    """The ``(vector, string group)`` of every page of one unit."""
    ftl = ssd.ftl
    first = key if kind == "column" else key * ftl.parity_group_size
    name_group = (
        ssd._chunk_group_name if kind == "column" else ssd._parity_group_name
    )
    return [
        (name, name_group(ftl.lookup(name).group, key))
        for name in ftl.vectors()
        if first < ftl.lookup(name).n_chunks
    ]


def _units_on(ssd, chip):
    """The units ``chip`` holds that have pages."""
    ftl = ssd.ftl
    chunks = {
        p.chunk
        for name in ftl.vectors()
        for p in ftl.lookup(name).placements
        if p.chip == chip
    }
    units = [("column", c) for c in sorted(chunks)] + [
        ("parity", g)
        for g, home in sorted(ftl.parity_placements().items())
        if home == chip
    ]
    return [unit for unit in units if _unit_pages(ssd, *unit)]


def _home(ssd, kind, key):
    ftl = ssd.ftl
    return ftl.chip_of_chunk(key) if kind == "column" else ftl.parity_chip(key)


def _fits_nowhere(ssd, kind, key, healthy):
    groups = [group for _, group in _unit_pages(ssd, kind, key)]
    for chip in healthy:
        if ssd.chips[chip].offline:
            continue
        try:
            ssd.controllers[chip].check_room(groups)
        except AllocationError:
            continue
        return False
    return True


def _rebuildable(ssd, kind, key):
    """Whether a unit lost with a dead chip can be re-derived."""
    ftl = ssd.ftl
    for name, _ in _unit_pages(ssd, kind, key):
        if kind == "column":
            try:
                ssd.reconstruct_chunk_bits(name, key)
            except FlashFault:
                return False
            continue
        n_chunks = ftl.lookup(name).n_chunks
        for chunk in ftl.group_data_chunks(key):
            if chunk < n_chunks and ssd.chips[ftl.chip_of_chunk(chunk)].offline:
                return False
    return True


def _check_layout(ssd, env):
    """Every chip's directory holds exactly the pages the FTL places
    there (pads aside): no page is half moved or left behind."""
    ftl = ssd.ftl
    assert set(ftl.vectors()) == set(env)
    want = [set() for _ in ssd.chips]
    for name in ftl.vectors():
        record = ftl.lookup(name)
        for p in record.placements:
            want[p.chip].add(ssd._chunk_operand_name(name, p.chunk))
        if ssd.parity:
            for g in range(ftl.parity_group_count(record.n_chunks)):
                want[ftl.parity_chip(g)].add(ssd._parity_operand_name(name, g))
    for chip, controller in enumerate(ssd.controllers):
        names = controller.directory.names()
        assert {n for n in names if not n.startswith("pad")} == want[chip]


def _check_data(ssd, mgr, env, drained_dead):
    """Every page reads back equal to its oracle (by parity when its
    chip is dead), or is lost on a dead chip a drain has already seen
    and is queued for rebuild or counted stuck."""
    queued = set(mgr.pending_rebuild)
    lost = 0
    for name, bits in env.items():
        record = ssd.ftl.lookup(name)
        padded = np.zeros(record.n_chunks * PAGE, dtype=np.uint8)
        padded[: bits.size] = bits
        for p in record.placements:
            want = padded[p.chunk * PAGE:(p.chunk + 1) * PAGE]
            if not ssd.chips[p.chip].offline:
                controller = ssd.controllers[p.chip]
                stored = controller.stored(ssd._chunk_operand_name(name, p.chunk))
                got = controller.chip.read_page(
                    stored.address, inverse=stored.inverted
                )
                np.testing.assert_array_equal(got, want)
                continue
            try:
                got = ssd.reconstruct_chunk_bits(name, p.chunk)
            except FlashFault:
                if p.chip in drained_dead and ("column", p.chunk) not in queued:
                    lost += 1
                continue
            np.testing.assert_array_equal(got, want)
    assert lost <= mgr.stats.pages_stuck


def _check_drain(ssd, mgr, sick, healthy, stuck_before, faulted):
    """A drain left on the sick chip only what it parked or queued."""
    left = _units_on(ssd, sick)
    stuck = mgr.stats.pages_stuck - stuck_before
    if ssd.chips[sick].offline and ssd.parity:
        assert set(left) <= set(mgr.pending_rebuild)
        assert stuck == 0
        return
    assert stuck == sum(len(_unit_pages(ssd, *unit)) for unit in left)
    if not ssd.chips[sick].offline and not faulted:
        for unit in left:
            assert _fits_nowhere(ssd, *unit, healthy)


def _check_rebuild(ssd, mgr, queue, lost_on, healthy, stuck_before, faulted):
    """A rebuild popped the queue's head; each popped unit still on the
    chip it was queued from (``lost_on``) was placed on another chip or
    parked for a reason."""
    after = mgr.pending_rebuild
    popped = queue[: len(queue) - len(after)]
    assert after == queue[len(popped):]
    parked = 0
    for kind, key in popped:
        home = _home(ssd, kind, key)
        pages = _unit_pages(ssd, kind, key)
        if not pages or home is None or home != lost_on[kind, key]:
            continue
        parked += len(pages)
        if not faulted:
            assert not _rebuildable(ssd, kind, key) or _fits_nowhere(
                ssd, kind, key, healthy
            )
    assert mgr.stats.pages_stuck - stuck_before == parked


def _steps(steps):
    """The scenario's steps, a ``lose`` spelled as a kill and a drain."""
    for step in steps:
        if step[0] == "lose":
            yield ("kill", step[1])
            yield ("drain", step[1], None)
        else:
            yield step


def _run(ssd, mgr, step):
    if step[0] == "kill":
        ssd.kill_chip(step[1])
    elif step[0] == "gc":
        mgr.run_cycle()
    elif step[0] == "drain":
        mgr.drain_chip(step[1], healthy=step[2])
    else:
        mgr.rebuild_cycle(healthy=step[1])


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_every_maintenance_step_moves_whole_units_or_nothing(s):
    ssd, env = _build(s)
    mgr = ssd.maintenance(s["config"])
    everyone = list(range(s["n_chips"]))
    drained_dead = set()
    _check_layout(ssd, env)
    for step in _steps(s["steps"]):
        before = _snapshot(ssd, mgr)
        queue = list(mgr.pending_rebuild)
        lost_on = dict(mgr._rebuild_queued)
        stuck_before = mgr.stats.pages_stuck
        faults = _program_faults(ssd)
        try:
            _run(ssd, mgr, step)
        except Exception:
            assert _snapshot(ssd, mgr) == before
            continue
        faulted = _program_faults(ssd) != faults
        if step[0] == "drain":
            sick, healthy = step[1], step[2]
            if healthy is None:
                healthy = everyone
            healthy = [h for h in healthy if h != sick]
            if healthy:
                if ssd.chips[sick].offline:
                    drained_dead.add(sick)
                _check_drain(ssd, mgr, sick, healthy, stuck_before, faulted)
        elif step[0] == "rebuild":
            healthy = everyone if step[1] is None else step[1]
            _check_rebuild(
                ssd, mgr, queue, lost_on, healthy, stuck_before, faulted
            )
        _check_layout(ssd, env)
        _check_data(ssd, mgr, env, drained_dead)
