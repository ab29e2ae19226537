"""Admission windows: batching concurrent submissions for scheduling.

The service amortizes planning, scheduling, and sensing across
*windows* of queries rather than serving each submission in isolation
(the batching move of in-DRAM bulk-bitwise execution engines, applied
to in-flash queries).  Submissions are grouped onto a fixed time grid
of ``window_us`` cells; a window admits everything that arrived inside
its cell and closes at the cell boundary -- or *early*, at the arrival
time of the query that fills it, when ``max_queries`` caps the window
(a full window should not wait out its cell while clients queue).

**Adaptive windows.**  The window length is the service's central
latency/efficiency trade: a longer window gathers more queries, so
more senses dedup and more result-cache hits land together -- but
every admitted query waits for the close, so p99 grows with it.  With
``adaptive=True`` the admission controller retunes the length per
window from the *observed* arrival rate (an EWMA of interarrival
gaps): it aims for ``target_queries`` per window, so bursts shrink the
window toward ``min_window_us`` (nothing gained by waiting -- the
sharing candidates already arrived) and sparse traffic stretches it
toward ``max_window_us`` (waiting is the only way to find sharing
partners).  Adaptive windows are cut sequentially from the arrival
trace rather than on a fixed grid, and a window opens no earlier than
the previous window's close.

Submissions may carry a ``priority`` and an absolute ``deadline_us``;
admission records them and the scheduler's ``edf`` policy orders by
them (see :mod:`repro.service.scheduler`).
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if self.submitted_us < 0:
            raise ValueError("submitted_us must be >= 0")
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
    """Collects submissions and cuts them into admission windows.

    Two cutting modes:

    * **grid** (default): windows are the cells of a fixed
      ``window_us`` grid -- simple, and what the service property
      suite randomizes over;
    * **adaptive** (``adaptive=True``): the controller retunes each
      window's length from an EWMA of observed interarrival gaps,
      aiming for ``target_queries`` admitted per window and clamping
      to ``[min_window_us, max_window_us]`` (see module docstring).

    ``max_queries`` caps a window in both modes (early close at the
    filling arrival).
    """

    #: EWMA smoothing for the observed interarrival gap.  One window
    #: admits several queries, so even a heavily smoothed estimate
    #: adapts within a window or two of a rate change.
    EWMA_ALPHA = 0.3

    def __init__(
        self,
        *,
        window_us: float = 200.0,
        max_queries: int | None = None,
        adaptive: bool = False,
        min_window_us: float | None = None,
        max_window_us: float | None = None,
        target_queries: int = 8,
    ) -> None:
        if window_us <= 0:
            raise ValueError("window_us must be positive")
        if max_queries is not None and max_queries < 1:
            raise ValueError("max_queries must be >= 1 (or None)")
        if target_queries < 1:
            raise ValueError("target_queries must be >= 1")
        self.window_us = window_us
        self.max_queries = max_queries
        self.adaptive = adaptive
        self.min_window_us = (
            min_window_us if min_window_us is not None else window_us / 8.0
        )
        self.max_window_us = (
            max_window_us if max_window_us is not None else window_us * 8.0
        )
        if self.min_window_us <= 0:
            raise ValueError("min_window_us must be positive")
        if self.max_window_us < self.min_window_us:
            raise ValueError("max_window_us must be >= min_window_us")
        self.target_queries = target_queries
        self._submissions: list[Submission] = []

    def submit(self, submission: Submission) -> None:
        self._submissions.append(submission)

    def __len__(self) -> int:
        return len(self._submissions)

    def clear(self) -> None:
        """Drop the collected submissions -- how the service drains
        the ones it served; the admission tuning stays."""
        self._submissions.clear()

    def windows(self) -> list[AdmissionWindow]:
        """Cut the collected submissions into closed windows.

        Submissions are ordered by (arrival time, query id) -- the id
        breaks ties deterministically for simultaneous arrivals.  In
        grid mode they group by cell ``floor(t / window_us)``; in
        adaptive mode windows are cut sequentially with per-window
        lengths from the rate estimator.  In both modes a cell holding
        more than ``max_queries`` splits into sub-windows that close
        early at their last admitted arrival.
        """
        ordered = sorted(
            self._submissions, key=lambda s: (s.submitted_us, s.query_id)
        )
        if self.adaptive:
            return self._adaptive_windows(ordered)
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

    def _adaptive_windows(
        self, ordered: list[Submission]
    ) -> list[AdmissionWindow]:
        """Sequential cutting with rate-adapted window lengths.

        Each window opens at ``max(previous close, next arrival)`` and
        closes ``length`` later (or early when ``max_queries`` fills
        it).  After each window the controller re-estimates the
        arrival rate from an EWMA of the interarrival gaps seen so far
        and sets the next length to ``target_queries * gap``, clamped
        to the configured bounds -- the deterministic counterpart of a
        controller measuring its ingress rate online.
        """
        windows: list[AdmissionWindow] = []
        length = min(max(self.window_us, self.min_window_us), self.max_window_us)
        ewma: float | None = None
        previous_arrival: float | None = None
        previous_close = 0.0
        i = 0
        n = len(ordered)
        while i < n:
            open_us = max(previous_close, ordered[i].submitted_us)
            close_us = open_us + length
            batch: list[Submission] = []
            while i < n and ordered[i].submitted_us <= close_us:
                submission = ordered[i]
                if previous_arrival is not None:
                    gap = submission.submitted_us - previous_arrival
                    ewma = (
                        gap
                        if ewma is None
                        else (1.0 - self.EWMA_ALPHA) * ewma
                        + self.EWMA_ALPHA * gap
                    )
                previous_arrival = submission.submitted_us
                batch.append(submission)
                i += 1
                if self.max_queries and len(batch) == self.max_queries:
                    # Early close at the filling arrival -- but never
                    # before the window opened (a backlogged arrival
                    # can predate the open when the previous window
                    # filled first).
                    close_us = max(submission.submitted_us, open_us)
                    break
            windows.append(
                AdmissionWindow(
                    index=len(windows),
                    close_us=close_us,
                    submissions=tuple(batch),
                )
            )
            previous_close = close_us
            if ewma is not None:
                length = min(
                    max(self.target_queries * ewma, self.min_window_us),
                    self.max_window_us,
                )
        return windows
