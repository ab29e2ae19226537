"""Span tracer that measures the program from outside.

``Tracer.install`` replaces the public callables named in
``spec.LAYERS`` (class attributes and module-level names) with
wrappers that time them; ``uninstall`` puts the originals back by
identity.  Nothing under ``src/`` knows it is being traced.

A layer's *self time* is its spans' duration minus the part covered by
child spans, maintained on a stack while the program runs, so the
layers' self times partition the traced wall time.  ``leaf`` callables
(called once per chunk task) only accumulate time and count; they must
call nothing traced, or that child would be subtracted twice.

The program runs on one thread (every workload uses ``workers=1``);
the tracer shares that assumption.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    layer: str
    start: float
    end: float
    span_id: int
    #: Enclosing span (0 = none).
    parent: int
    #: Enclosing ``QueryService.run`` span (0 = outside any) -- the
    #: request unit here is the window batch, not the single query.
    run: int


def resolve(path: str):
    """``(owner, attribute name)`` for a dotted path: the owner is the
    longest importable module prefix, then attribute hops."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for hop in parts[cut:-1]:
            owner = getattr(owner, hop)
        return owner, parts[-1]
    raise ImportError(f"cannot resolve {path!r}")


class Tracer:
    def __init__(
        self,
        layers: dict[str, tuple[tuple[str, str], ...]],
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._layers = layers
        self._clock = clock
        # Span fields as plain tuples: cheaper to record than Span.
        self._raw: list[tuple] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        #: Jobs handed to ``jobs``-kind callables.
        self.jobs = 0
        # Open spans as [child seconds, span id]; the sentinel absorbs
        # top-level durations, so ``attributed_s`` is its child time.
        self._stack: list[list] = [[0.0, 0]]
        self._next_id = 1
        self._run_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def install(self) -> None:
        try:
            for layer, targets in self._layers.items():
                for path, kind in targets:
                    owner, attr = resolve(path)
                    original = vars(owner)[attr]
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(original, layer, path, kind))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, original, layer: str, path: str, kind: str):
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = self._wrap(original.__func__, layer, path, kind)
            return type(original)(wrapped)
        name = path.removeprefix("repro.")
        if kind == "leaf":
            return self._leaf(original, layer)
        return self._span(original, layer, name, kind)

    def _leaf(self, fn, layer: str):
        clock, stack = self._clock, self._stack
        self_s, calls = self.self_s, self.calls

        def leaf(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack[-1][0] += spent
                self_s[layer] += spent
                calls[layer] += 1

        return leaf

    def _span(self, fn, layer: str, name: str, kind: str):
        clock, stack, record = self._clock, self._stack, self._raw.append
        self_s, calls = self.self_s, self.calls
        is_run, counts_jobs = kind == "run", kind == "jobs"

        def span(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            frame = [0.0, span_id]
            stack.append(frame)
            if is_run:
                self._run_id = span_id
            if counts_jobs:
                self.jobs += len(args[0])
            run_id = self._run_id
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent[0] += end - start
                self_s[layer] += end - start - frame[0]
                calls[layer] += 1
                record((name, layer, start, end, span_id, parent[1], run_id))
                if is_run:
                    self._run_id = 0

        return span

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        return [Span(*fields) for fields in self._raw]

    @property
    def n_spans(self) -> int:
        return len(self._raw)

    @property
    def attributed_s(self) -> float:
        """Wall time covered by top-level spans (= sum of self times)."""
        return self._stack[0][0]

    def write_chrome_trace(self, path) -> None:
        """Chrome-trace / Perfetto JSON (complete events, microseconds
        from the first span)."""
        spans = self.spans
        origin = min((s.start for s in spans), default=0.0)
        events = [
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": s.span_id, "parent": s.parent, "run": s.run},
            }
            for s in spans
        ]
        with open(path, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)
