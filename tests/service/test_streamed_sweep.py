"""The service's event sweep streams: a run feeds each window's jobs to
its sweep as the window closes, folds the completions each feed
finalises, and serves a query -- dropping its state -- the moment its
last job completes.  So what a run keeps alive is the work still in
flight, not the run so far.  That nothing a run reports moves is shown
where whole runs are compared with one held until its end and replayed
at once (``BufferedSweep``): ``tests/integration/test_chaos_soak.py``.
"""

import gc
from dataclasses import fields

import numpy as np

from repro.core.expressions import And, Operand, Or, Xor, and_all, evaluate
from repro.flash.geometry import ChipGeometry
from repro.service import service as service_module
from repro.ssd.controller import SmallSsd

GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=16,
    subblocks_per_block=2,
    wordlines_per_string=8,
    page_size_bits=128,
)
WINDOWS = 40
WINDOW_US = 400.0


def _live(kind) -> int:
    return sum(type(obj) is kind for obj in gc.get_objects())


def _held(sweep) -> int:
    """The listings a sweep still holds: its arrival list (run ones not
    yet trimmed included), the rows in flight in its event heap, and
    those waiting for a die."""
    in_flight = sum(entry[2] is not None for entry in sweep._heap)
    waiting = sum(
        len(state[5] or ()) for state in sweep._resources.values()
    )
    return len(sweep._jobs) + in_flight + waiting


def _run_recording_feeds(monkeypatch, policy, urgent):
    """A trace of 40 windows, three queries each, every window's senses
    done well before the next closes -- with ``urgent``, deadlines and
    priorities mixed from the first window on.  Returns the run's
    report, the oracle's operands and, per window feed, the listings
    and distinct query states handed over, then the listings -- those
    handed over plus those the run's sweep still holds -- and query
    states alive when they are."""
    ssd = SmallSsd(n_chips=4, geometry=GEOMETRY, seed=5)
    rng = np.random.default_rng(6)
    env = {
        name: rng.integers(0, 2, ssd.page_bits * 6, dtype=np.uint8)
        for name in "abcd"
    }
    for name, bits in env.items():
        ssd.write_vector(name, bits, group="g")
    a, b, c, d = (Operand(x) for x in "abcd")
    pool = [And(a, b), Or(b, c), Xor(c, d), and_all([a, c, d])]
    service = ssd.service(
        window_us=WINDOW_US, policy=policy, result_cache=True
    )
    for i in range(3 * WINDOWS):
        at_us = WINDOW_US * (i // 3) + 10.0 * (i % 3)
        service.submit(
            pool[i % len(pool)],
            at_us=at_us,
            priority=i % 2 if urgent else 0,
            deadline_us=at_us + 2000.0 if urgent and i % 3 == 0 else None,
        )

    feed = service_module.simulate_stages
    feeds = []

    def recording(jobs, **kwargs):
        feeds.append(
            (
                len(jobs),
                len(
                    {
                        id(owner)
                        for owner in kwargs["tags"]
                        if isinstance(owner, service_module._QueryState)
                    }
                ),
                len(jobs) + _held(kwargs["sweep"]),
                _live(service_module._QueryState),
            )
        )
        return feed(jobs, **kwargs)

    monkeypatch.setattr(service_module, "simulate_stages", recording)
    return service.run(), env, feeds


def _assert_only_work_in_flight_lives(report, env, feeds):
    """At each window's feed the listings alive are at most those the
    feed hands over plus those of the window before (this feed runs
    them), and likewise the query states: what is in flight, where a
    run that replays its jobs once at its end holds every listing and
    every state of the run."""
    assert len(feeds) >= 30
    total = sum(jobs for jobs, *_ in feeds)
    for (jobs, queries, live_jobs, live_states), previous in zip(
        feeds, [(0, 0)] + feeds
    ):
        assert live_jobs <= jobs + previous[0] < total / 10
        assert live_states <= queries + previous[1]
    run_fields = {f.name for f in fields(service_module._Run)}
    assert not {"jobs", "job_owner"} & run_fields
    assert len(report.queries) == 3 * WINDOWS
    for query in report.queries:
        np.testing.assert_array_equal(
            query.result.bits, evaluate(query.expr, env)
        )


def test_live_jobs_and_query_states_are_the_work_in_flight(monkeypatch):
    """An ``edf`` trace whose urgencies differ from the first window
    on."""
    report, env, feeds = _run_recording_feeds(monkeypatch, "edf", True)
    _assert_only_work_in_flight_lives(report, env, feeds)
    assert report.stats.deadlines_met == WINDOWS


def test_a_balanced_run_holds_only_the_work_in_flight_too(monkeypatch):
    """A ``balanced`` trace with one urgency throughout, the shape of
    a scan workload: its dies queue all the same, so its jobs and
    query states are freed window by window as well."""
    report, env, feeds = _run_recording_feeds(monkeypatch, "balanced", False)
    _assert_only_work_in_flight_lives(report, env, feeds)
    assert report.stats.n_deadlines == 0
