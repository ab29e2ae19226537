"""Admission windows: batching concurrent submissions for scheduling.

The service amortizes planning, scheduling, and sensing across
*windows* of queries rather than serving each submission in isolation
(the batching move of in-DRAM bulk-bitwise execution engines, applied
to in-flash queries).  Submissions are grouped onto a fixed time grid
of ``window_us`` cells; a window admits everything that arrived inside
its cell and closes at the cell boundary -- or *early*, at the arrival
time of the query that fills it, when ``max_queries`` caps the window
(a full window should not wait out its cell while clients queue).

Submissions may carry a ``priority`` and an absolute ``deadline_us``;
admission records them and the scheduler's ``edf`` policy orders by
them (see :mod:`repro.service.scheduler`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isfinite
from numbers import Real

from repro.core.expressions import Expression


@dataclass(frozen=True)
class Submission:
    """One client query stamped with its virtual arrival time.

    ``priority`` breaks scheduling ties (higher is more important);
    ``deadline_us`` is an absolute virtual-clock deadline the ``edf``
    policy targets and the service reports against (``None`` =
    best-effort).  Both are inert under the ``fifo``/``balanced``
    policies.
    """

    query_id: int
    client: str
    expr: Expression
    submitted_us: float
    priority: int = 0
    deadline_us: float | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.submitted_us < math.inf:
            raise ValueError(
                "submitted_us must be finite and >= 0, "
                f"not {self.submitted_us}"
            )
        p, deadline = self.priority, self.deadline_us
        if isinstance(p, bool) or not isinstance(p, Real) or not isfinite(p):
            raise ValueError(f"priority must be finite and real, not {p!r}")
        if deadline is not None and not isfinite(deadline):
            raise ValueError(f"deadline_us must be finite, not {deadline!r}")
        if self.deadline_us is not None and self.deadline_us <= self.submitted_us:
            raise ValueError(
                "deadline_us must be after the submission time "
                f"({self.deadline_us} <= {self.submitted_us})"
            )


@dataclass(frozen=True)
class AdmissionWindow:
    """A closed batch of submissions handed to the scheduler.

    ``close_us`` is when the window's queries become runnable: every
    pipeline job of the window carries it as the arrival time into the
    event simulation, so a query's service latency includes the time
    it waited for its window to close.
    """

    index: int
    close_us: float
    submissions: tuple[Submission, ...]

    def __post_init__(self) -> None:
        late = [
            s for s in self.submissions if s.submitted_us > self.close_us
        ]
        if late:
            raise ValueError(
                f"window closing at {self.close_us} us admitted "
                f"submissions arriving later: {late!r}"
            )

    def __len__(self) -> int:
        return len(self.submissions)


class AdmissionQueue:
    """Collects submissions and cuts them into admission windows: the
    cells of a fixed ``window_us`` grid, each closing early at the
    arrival that fills it when ``max_queries`` caps a window."""

    def __init__(
        self,
        *,
        window_us: float = 200.0,
        max_queries: int | None = None,
    ) -> None:
        if not 0 < window_us < math.inf:
            raise ValueError(
                f"window_us must be finite and positive, not {window_us}"
            )
        # Not a float (never equal to a cell's length) nor a bool.
        if max_queries is not None and (
            type(max_queries) is not int or max_queries < 1
        ):
            raise ValueError(
                f"max_queries must be an int >= 1 or None, not {max_queries!r}"
            )
        self.window_us = window_us
        self.max_queries = max_queries
        self._submissions: list[Submission] = []

    def submit(self, submission: Submission) -> None:
        self._submissions.append(submission)

    def __len__(self) -> int:
        return len(self._submissions)

    def clear(self) -> None:
        """Drop the collected submissions -- how the service drains
        the ones it served; the window configuration stays."""
        self._submissions.clear()

    def windows(self) -> list[AdmissionWindow]:
        """Cut the collected submissions into closed windows.

        Submissions are ordered by (arrival time, query id) -- the id
        breaks ties deterministically for simultaneous arrivals -- and
        group by cell ``floor(t / window_us)``.  A cell holding more
        than ``max_queries`` splits into sub-windows that close early
        at their last admitted arrival.
        """
        ordered = sorted(
            self._submissions, key=lambda s: (s.submitted_us, s.query_id)
        )
        windows: list[AdmissionWindow] = []
        cell: list[Submission] = []
        cell_index = 0

        def close(batch: list[Submission], close_us: float) -> None:
            windows.append(
                AdmissionWindow(
                    index=len(windows),
                    close_us=close_us,
                    submissions=tuple(batch),
                )
            )

        for submission in ordered:
            index = int(submission.submitted_us // self.window_us)
            if cell and index != cell_index:
                close(cell, (cell_index + 1) * self.window_us)
                cell = []
            cell_index = index
            cell.append(submission)
            if self.max_queries and len(cell) == self.max_queries:
                # Full: close immediately at this arrival instead of
                # waiting out the grid cell.
                close(cell, submission.submitted_us)
                cell = []
        if cell:
            close(cell, (cell_index + 1) * self.window_us)
        return windows
