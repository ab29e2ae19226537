#!/usr/bin/env python
"""Which caches pay for themselves end to end?  (ROADMAP item 3(a).)

For every e2e workload and every cache that can be switched off from
outside -- by an attribute the program already has, or by patching
the memo out from under it -- run alternating on/off passes of the
workload in this process and print, per (cache x workload), the
median pass time on each side, their ratio, who won how many pairs,
and the cache's own hit rate::

    python tools/cache_ablation.py --scale 0.1 --pairs 2      # smoke
    python tools/cache_ablation.py --pairs 8 --workload cold_scan

Nothing under ``src/`` knows about this file and no knob was added
for it.  A pass is what ``benchmarks/e2e`` times: build the workload
from the seed (untimed), then mutations + ``submit_traffic`` +
``run()`` (timed), then every served result checked against
``evaluate`` (untimed; a mismatch fails the run -- switching a cache
off must never change a bit).  One more untimed pass per row counts
the cache's hits with a probe in place.

A row reads ``pays`` when the cache-on side won at least nine tenths
of the pairs that were not ties *and* the medians differ by more than
the on side's own interquartile spread; ``costs`` the same way round;
``noise`` otherwise.  A cache whose rows read ``noise`` or ``costs``
on every workload, or whose hit rate is 0 everywhere, is a deletion
candidate -- that is what this table is for.  Host times here are raw
readings of a shared machine: compare the two sides of a row, never
two rows.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import statistics
import sys
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# ----------------------------------------------------------------------
# Pairing and verdict arithmetic (no program under test in sight)
# ----------------------------------------------------------------------


def alternating_pairs(
    run_on: Callable[[], float], run_off: Callable[[], float], pairs: int
) -> list[tuple[float, float]]:
    """``pairs`` (on, off) readings; the side that runs first
    alternates, so that drift of the machine favours neither."""
    readings = []
    for index in range(pairs):
        if index % 2 == 0:
            on = run_on()
            off = run_off()
        else:
            off = run_off()
            on = run_on()
        readings.append((on, off))
    return readings


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


@dataclass(frozen=True)
class Verdict:
    median_on: float
    median_off: float
    #: ``median_off / median_on``: above 1, the cache saves time.
    ratio: float
    on_wins: int
    off_wins: int
    pairs: int
    word: str  # "pays" | "costs" | "noise"


def judge(readings: list[tuple[float, float]]) -> Verdict:
    """Fold (on, off) pass times into a :class:`Verdict` by the rule
    in the module docstring."""
    ons = [on for on, _ in readings]
    offs = [off for _, off in readings]
    median_on = statistics.median(ons)
    median_off = statistics.median(offs)
    on_wins = sum(on < off for on, off in readings)
    off_wins = sum(off < on for on, off in readings)
    decided = on_wins + off_wins
    resolved = abs(median_off - median_on) > _iqr(ons)
    word = "noise"
    if decided and resolved:
        if on_wins >= 0.9 * decided and median_on < median_off:
            word = "pays"
        elif off_wins >= 0.9 * decided and median_off < median_on:
            word = "costs"
    return Verdict(
        median_on=median_on,
        median_off=median_off,
        ratio=median_off / median_on if median_on else 0.0,
        on_wins=on_wins,
        off_wins=off_wins,
        pairs=len(readings),
        word=word,
    )


def timed(work: Callable[[], object], clock: Callable[[], float]):
    """``(seconds, work())`` by two readings of ``clock``."""
    start = clock()
    result = work()
    return clock() - start, result


# ----------------------------------------------------------------------
# Off-switches and hit probes
# ----------------------------------------------------------------------


@dataclass
class Tally:
    hits: int = 0
    lookups: int = 0

    @property
    def hit_rate(self) -> float | None:
        return self.hits / self.lookups if self.lookups else None


class _Forgets:
    """Data descriptor for a memo attribute: reads ``None``, drops
    writes.  Set on the class it shadows every instance's slot."""

    def __get__(self, instance, owner=None):
        return None

    def __set__(self, instance, value) -> None:
        pass


class _NeverRemembers(OrderedDict):
    """Stands in for a dict or LRU cache: stores nothing, so every
    lookup misses (an ``OrderedDict`` for the LRU's ``move_to_end`` /
    ``popitem``)."""

    def __setitem__(self, key, value) -> None:
        pass


@contextlib.contextmanager
def _patched(owner, name: str, value) -> Iterator[None]:
    """``setattr(owner, name, value)`` for the block, then exactly the
    class dict as it was (the attribute may not have been there)."""
    missing = object()
    before = vars(owner).get(name, missing)
    setattr(owner, name, value)
    try:
        yield
    finally:
        if before is missing:
            delattr(owner, name)
        else:
            setattr(owner, name, before)


def _engines(plan):
    for episode in plan.episodes:
        yield episode.ssd.engine


# Each cache below is a pair of context managers over a freshly built
# workload plan: ``off`` runs the block with the cache disabled,
# ``probe`` runs it with the cache on and a :class:`Tally` counting.


@contextlib.contextmanager
def stack_cache_off(plan):
    for engine in _engines(plan):
        engine.stack_reuse = False
    yield


@contextlib.contextmanager
def stack_cache_probe(plan, tally: Tally):
    yield
    for engine in _engines(plan):
        stats = engine.stack_cache.stats
        tally.hits += stats.hits
        tally.lookups += stats.hits + stats.misses


@contextlib.contextmanager
def window_memo_off(plan):
    from repro.core.mws import MwsExecutor

    with _patched(MwsExecutor, "_window_memo", _Forgets()):
        yield


@contextlib.contextmanager
def window_memo_probe(plan, tally: Tally):
    """A hit is an ``execute_batch_reuse`` that returned results
    without replaying the latches."""
    from repro.core.mws import MwsExecutor

    reuse = MwsExecutor.execute_batch_reuse
    replay = MwsExecutor._replay_latches
    replays = [0]

    def counting_replay(self, *args, **kwargs):
        replays[0] += 1
        return replay(self, *args, **kwargs)

    def counting_reuse(self, *args, **kwargs):
        before = replays[0]
        outcome = reuse(self, *args, **kwargs)
        if outcome is not None:
            tally.lookups += 1
            tally.hits += replays[0] == before
        return outcome

    with _patched(MwsExecutor, "_replay_latches", counting_replay):
        with _patched(MwsExecutor, "execute_batch_reuse", counting_reuse):
            yield


@contextlib.contextmanager
def resolved_off(plan):
    """``MwsCommand._resolved`` holds one chip half per chip, valid
    for that chip's token: minting a fresh token before every batch
    makes every command the batch resolves itself resolve its chip
    half again (the entry is still written -- the executor reads it
    back).  Only the memo goes: the shared half
    (``MwsCommand._rows``) stays on."""
    from repro.flash.chip import NandFlashChip

    sense = NandFlashChip.execute_sense_batch

    def resolving(self, commands):
        self._resolve_token = object()
        return sense(self, commands)

    with _patched(NandFlashChip, "execute_sense_batch", resolving):
        yield


@contextlib.contextmanager
def resolved_probe(plan, tally: Tally):
    """A lookup is one ``NandFlashChip.resolve``; a hit is a command
    whose chip half for that chip survived it untouched.  Each chip
    resolves each command of its queue once, inside its own batch."""
    from repro.flash.chip import NandFlashChip

    resolve = NandFlashChip.resolve

    def counting(self, command):
        before = (command._resolved or {}).get(self)
        result = resolve(self, command)
        tally.lookups += 1
        tally.hits += before is not None and command._resolved[self] is before
        return result

    with _patched(NandFlashChip, "resolve", counting):
        yield


@contextlib.contextmanager
def _run_memo(wrap):
    """Hand every ``schedule_window`` call of the service the run's
    per-key estimate memo (``_Run.est_latency_us``) as ``wrap`` sees it."""
    from repro.service import service

    schedule = service.schedule_window

    def wrapped(*args, costs, **kwargs):
        return schedule(*args, costs=wrap(costs), **kwargs)

    with _patched(service, "schedule_window", wrapped):
        yield


def est_latency_off(plan):
    """Every window asks the executors for every bucket's estimate."""
    return _run_memo(lambda memo: _NeverRemembers())


def est_latency_probe(plan, tally: Tally):
    class Counting:
        def __init__(self, memo: dict) -> None:
            self.memo = memo

        def get(self, key):
            tally.lookups += 1
            tally.hits += key in self.memo
            return self.memo.get(key)

        def __setitem__(self, key, value) -> None:
            self.memo[key] = value

    return _run_memo(Counting)


@contextlib.contextmanager
def bound_plans_off(plan):
    for engine in _engines(plan):
        engine._bound = _NeverRemembers()
    yield


@contextlib.contextmanager
def bound_plans_probe(plan, tally: Tally):
    class Counting(OrderedDict):
        def get(self, key, default=None):
            tally.lookups += 1
            return OrderedDict.get(self, key, default)

        def move_to_end(self, key, last=True):
            # The engine refreshes recency on a hit and only then.
            tally.hits += 1
            OrderedDict.move_to_end(self, key, last)

    for engine in _engines(plan):
        engine._bound = Counting(engine._bound)
    yield


#: name -> (off-switch, hit probe), in table order.
CACHES = {
    "StackCache": (stack_cache_off, stack_cache_probe),
    "_window_memo": (window_memo_off, window_memo_probe),
    "MwsCommand._resolved": (resolved_off, resolved_probe),
    "_Run.est_latency_us": (est_latency_off, est_latency_probe),
    "bound-plan LRU": (bound_plans_off, bound_plans_probe),
}


# ----------------------------------------------------------------------
# One pass of one workload
# ----------------------------------------------------------------------


class OracleMismatch(Exception):
    pass


def _apply(ssd, op: tuple) -> None:
    if op[0] == "write":
        ssd.write_vector(op[1], op[2], group=op[3])
    elif op[0] == "delete":
        ssd.delete_vector(op[1])
    elif op[0] == "kill":
        ssd.kill_chip(op[1])
    else:
        raise ValueError(f"unknown op {op[0]!r}")


def _serve_round(ssd, service, rnd):
    """The timed region of ``benchmarks/e2e``: mutations, submission,
    ``run()``."""
    for op in rnd.ops:
        _apply(ssd, op)
    service.submit_traffic(rnd.traffic)
    return service.run()


def run_pass(
    workload: str,
    seed: int,
    scale: float,
    around=None,
) -> float:
    """Build, replay and check one pass; returns the timed seconds.
    ``around`` is a context manager factory over the built plan (an
    off-switch or a probe), held open for the whole replay."""
    from benchmarks.e2e.workloads import BUILDERS
    from repro.core.expressions import evaluate

    plan = BUILDERS[workload](seed, scale)
    total = 0.0
    gc.collect()
    with around(plan) if around else contextlib.nullcontext():
        for episode in plan.episodes:
            for rnd in episode.rounds:
                seconds, report = timed(
                    lambda: _serve_round(episode.ssd, episode.service, rnd),
                    time.perf_counter,
                )
                total += seconds
                for query in report.queries:
                    if query.error is not None or not np.array_equal(
                        query.result.bits, evaluate(query.expr, rnd.env)
                    ):
                        raise OracleMismatch(
                            f"{workload}: {query.expr!r} "
                            f"{'failed' if query.error else 'differs'}"
                        )
    return total


def ablate(
    workload: str, cache: str, seed: int, scale: float, pairs: int
) -> tuple[Verdict, Tally]:
    off, probe = CACHES[cache]
    readings = alternating_pairs(
        lambda: run_pass(workload, seed, scale),
        lambda: run_pass(workload, seed, scale, off),
        pairs,
    )
    tally = Tally()
    run_pass(workload, seed, scale, lambda plan: probe(plan, tally))
    return judge(readings), tally


def format_row(
    workload: str, cache: str, verdict: Verdict, tally: Tally
) -> str:
    rate = tally.hit_rate
    hit = (
        "never consulted"
        if rate is None
        else f"{rate:.3f} ({tally.hits}/{tally.lookups})"
    )
    return (
        f"| {cache} | {workload} | {verdict.median_on * 1e3:.1f} "
        f"| {verdict.median_off * 1e3:.1f} | {verdict.ratio:.3f} "
        f"| {verdict.on_wins}-{verdict.off_wins} of {verdict.pairs} "
        f"| {verdict.word} | {hit} |"
    )


HEADER = (
    "| cache | workload | on ms | off ms | off/on | wins on-off "
    "| verdict | hit rate |\n"
    "| --- | --- | --- | --- | --- | --- | --- | --- |"
)


def main(argv: list[str] | None = None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.e2e.workloads import BUILDERS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--workload", action="append", choices=sorted(BUILDERS)
    )
    parser.add_argument("--cache", action="append", choices=list(CACHES))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    print(HEADER)
    try:
        for workload in args.workload or list(BUILDERS):
            # The first pass of a workload pays for a growing heap.
            run_pass(workload, args.seed, args.scale)
            for cache in args.cache or list(CACHES):
                verdict, tally = ablate(
                    workload, cache, args.seed, args.scale, args.pairs
                )
                print(format_row(workload, cache, verdict, tally), flush=True)
    except OracleMismatch as exc:
        print(f"cache_ablation: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
