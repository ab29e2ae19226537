"""Reference oracle for ``ResultCache``: lazy eviction, one stamp per
entry.

Every entry carries the layout stamp of its chip as it was when the
entry was stored, and a lookup that finds an entry whose stamp no
longer matches the chip's evicts it, counts an invalidation and a
miss, and re-senses.  A stale entry that is never looked up again
keeps its page until the LRU pushes it out.  The engine's per-call
hook (``prune_stale``, at the top of every ``execute_tasks``) only
snapshots every chip's stamp, so a window's lookups compare against
one stamp per chip.

Stamps only grow, so an entry is stale exactly when its chip's stamp
moved after it was stored: the production cache, which drops a chip's
entries at the first window after its stamp moves, must serve the
same hits and misses.  The suites in
``tests/service/test_result_cache.py`` drive both through twin SSDs.
It is deliberately a second, independent implementation: it computes
its own stamp and imports nothing private from ``repro.ssd``.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.ssd.query_engine import CacheStats


class LazyResultCache:
    """Drop-in for ``QueryEngine.result_cache`` with lazy eviction."""

    def __init__(self, ssd, *, capacity: int = 4096) -> None:
        self.ssd = ssd
        self.capacity = capacity
        #: (chip, plan key) -> (stamp when stored, packed words,
        #: n_senses).
        self._entries: OrderedDict = OrderedDict()
        self._epoch: dict[int, tuple] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.senses_avoided = 0

    def _stamp(self, chip: int) -> tuple:
        ssd = self.ssd
        return (
            ssd.ftl.generation,
            ssd.controllers[chip].directory.generation,
            ssd.chips[chip].plane_array.content_version(),
        )

    def _epoch_stamp(self, chip: int) -> tuple:
        stamp = self._epoch.get(chip)
        if stamp is None:
            stamp = self._epoch[chip] = self._stamp(chip)
        return stamp

    def prune_stale(self) -> int:
        """Snapshot every chip's stamp; drops nothing."""
        self._epoch = {
            chip: self._stamp(chip) for chip in range(len(self.ssd.chips))
        }
        return 0

    def _get(self, chip: int, plan_key: int) -> np.ndarray | None:
        key = (chip, plan_key)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        stamp, words, n_senses = entry
        if stamp != self._epoch_stamp(chip):
            del self._entries[key]
            self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self.senses_avoided += n_senses
        return words

    def serve(self, chip: int, keys, positions, cached: list) -> list[int]:
        """:meth:`_get` of each position's plan key in turn: a hit's
        words go into ``cached``; returns the positions that missed."""
        pending = []
        for position in positions:
            words = self._get(chip, keys[position])
            if words is None:
                pending.append(position)
            else:
                cached[position] = words
        return pending

    def put(
        self, chip: int, plan_key: int, plan, words: np.ndarray, n_senses: int
    ) -> None:
        words.setflags(write=False)
        key = (chip, plan_key)
        self._entries[key] = (self._epoch_stamp(chip), words, n_senses)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            invalidations=self.invalidations,
            senses_avoided=self.senses_avoided,
            entries=len(self._entries),
        )
