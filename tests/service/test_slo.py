"""Priority/SLO-aware serving: EDF scheduling, deadlines, weighted
fairness."""

import numpy as np
import pytest

from repro.core.expressions import And, Operand, and_all, evaluate
from repro.flash.geometry import ChipGeometry
from repro.service import (
    QueryInfo,
    Submission,
    schedule_window,
)
from reference_data_plane import columns, tasks_of
from repro.ssd.controller import SmallSsd

GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=32,
    subblocks_per_block=2,
    wordlines_per_string=48,
    page_size_bits=128,
)


def make_ssd(n_chips=2, n_chunks=4, names="abcdef", seed=0):
    ssd = SmallSsd(n_chips=n_chips, geometry=GEOMETRY, seed=seed)
    rng = np.random.default_rng(seed + 100)
    env = {}
    for name in names:
        env[name] = rng.integers(
            0, 2, n_chunks * GEOMETRY.page_size_bits, dtype=np.uint8
        )
        ssd.write_vector(name, env[name], group="g")
    return ssd, env


def scan_expr(names="abcdef"):
    return and_all([Operand(n) for n in names])


def point_expr():
    return And(Operand("a"), Operand("b"))


class TestSubmissionValidation:
    def _submit(self, **kwargs):
        return Submission(
            query_id=0, client="c", expr=Operand("a"), **kwargs
        )

    def test_deadline_must_follow_submission(self):
        with pytest.raises(ValueError, match="deadline"):
            self._submit(submitted_us=10.0, deadline_us=5.0)
        with pytest.raises(ValueError, match="deadline"):
            self._submit(submitted_us=10.0, deadline_us=10.0)
        self._submit(submitted_us=10.0, deadline_us=11.0)

    def test_non_finite_times_rejected(self):
        """A NaN arrival would only fail mid-run, when the admission
        grid converts it to a cell index."""
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="submitted_us"):
                self._submit(submitted_us=bad)
        with pytest.raises(ValueError, match="deadline_us"):
            self._submit(submitted_us=10.0, deadline_us=float("nan"))

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
    def test_infinite_deadline_rejected(self, bad):
        """An infinite deadline used to be accepted: under ``edf`` it
        failed ``run()`` mid-window, under ``balanced`` it was graded
        as met."""
        with pytest.raises(ValueError, match="deadline_us must be finite"):
            self._submit(submitted_us=10.0, deadline_us=bad)

    @pytest.mark.parametrize(
        "bad",
        [True, False, "2", None, 1j, float("nan"), float("inf"), -float("inf")],
    )
    def test_priority_must_be_a_finite_real(self, bad):
        """Under ``edf`` a NaN or infinite priority failed ``run()``
        mid-window and ``"2"`` raised ``TypeError`` in the scheduler;
        every other policy accepted them all."""
        with pytest.raises(ValueError, match="priority"):
            self._submit(submitted_us=0.0, priority=bad)

    def test_real_priorities_accepted(self):
        for good in (0, -3, 2.5, np.int64(2), np.float64(1.5)):
            assert self._submit(submitted_us=0.0, priority=good).priority == good

    def test_service_doors_refuse_bad_directives(self):
        """``QueryService.submit`` and ``submit_traffic`` build a
        ``Submission``, so they refuse at the door, before ``run()``."""
        ssd, _ = make_ssd()
        service = ssd.service(policy="edf")
        with pytest.raises(ValueError, match="priority"):
            service.submit(point_expr(), at_us=0.0, priority=float("nan"))
        with pytest.raises(ValueError, match="deadline_us"):
            service.submit_traffic(
                [(0.0, "c", point_expr(), 0, float("inf"))]
            )
        assert service.run().stats.n_queries == 0

    def test_query_info_weight_positive(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="weight"):
                QueryInfo(weight=bad)

    def test_tenant_weights_checked_at_construction(self):
        """A tenant weight that is not finite and positive is refused
        when the service is built, naming the client -- not by the
        first window that admits the client, and NaN / inf not only
        then: they used to be served, NaN in an arbitrary drain
        order."""
        ssd, _ = make_ssd()
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="'t'"):
                ssd.service(policy="edf", tenant_weights={"t": bad})
        ssd.service(policy="edf", tenant_weights={"t": 0.5})


def _order(tasks, **kwargs):
    """The schedule of a task list at unit cost, positions mapped back."""
    return [
        tasks[position]
        for position in schedule_window(
            columns(tasks), lambda chip, plan: 1.0, **kwargs
        )
    ]


class TestEdfSchedule:
    def _tasks(self, ssd, exprs):
        tasks = []
        for i, expr in enumerate(exprs):
            tasks.extend(tasks_of(ssd.engine.prepare(expr), i))
        return tasks

    def test_deadline_tasks_jump_the_queue(self):
        """A later-submitted point query with a deadline is emitted
        before an earlier deadline-free scan on every chip."""
        ssd, _ = make_ssd()
        tasks = self._tasks(ssd, [scan_expr(), point_expr()])
        info = {
            0: QueryInfo(client="scan"),
            1: QueryInfo(client="pt", deadline_us=100.0),
        }
        ordered = _order(
            tasks, policy="edf", info=info
        )
        first_per_chip = {}
        for task in ordered:
            first_per_chip.setdefault(task.chip, task.query)
        assert all(q == 1 for q in first_per_chip.values())
        # Permutation, nothing lost.
        assert sorted((t.query, t.chunk) for t in ordered) == sorted(
            (t.query, t.chunk) for t in tasks
        )

    def test_earlier_deadline_first(self):
        ssd, _ = make_ssd()
        tasks = self._tasks(ssd, [point_expr(), point_expr(), scan_expr()])
        info = {
            0: QueryInfo(deadline_us=900.0),
            1: QueryInfo(deadline_us=200.0),
            2: QueryInfo(),
        }
        # Distinct plans needed for distinct buckets; queries 0 and 1
        # share a plan here, so their bucket inherits the *earliest*
        # deadline -- both still precede the scan.
        ordered = _order(
            tasks, policy="edf", info=info
        )
        last_deadline_pos = max(
            i for i, t in enumerate(ordered) if t.query in (0, 1)
        )
        first_scan_pos = min(
            i for i, t in enumerate(ordered) if t.query == 2
        )
        assert last_deadline_pos < first_scan_pos

    def test_priority_breaks_deadline_ties(self):
        ssd, _ = make_ssd()
        light = And(Operand("c"), Operand("d"))
        tasks = self._tasks(ssd, [point_expr(), light])
        info = {
            0: QueryInfo(deadline_us=500.0, priority=0),
            1: QueryInfo(deadline_us=500.0, priority=5),
        }
        ordered = _order(
            tasks, policy="edf", info=info
        )
        first_per_chip = {}
        for task in ordered:
            first_per_chip.setdefault(task.chip, task.query)
        assert all(q == 1 for q in first_per_chip.values())

    def test_weighted_fairness_interleaves_tenants(self):
        """Deadline-free traffic from two tenants interleaves by
        weight instead of draining the first tenant's whole queue
        (the FIFO starvation shape)."""
        ssd, _ = make_ssd()
        scans = [
            And(Operand(a), Operand(b)) for a, b in ("ab", "cd", "ef")
        ]
        points = [
            And(Operand(a), Operand(b)) for a, b in ("ac", "bd", "ce")
        ]
        tasks = self._tasks(ssd, scans + points)
        info = {}
        for i in range(3):
            info[i] = QueryInfo(client="scan", weight=1.0)
            info[3 + i] = QueryInfo(client="pt", weight=1.0)
        ordered = _order(
            tasks, policy="edf", info=info
        )
        # Within each chip's emission, the two tenants alternate --
        # the second tenant's first bucket appears before the first
        # tenant's last.
        for chip in {t.chip for t in ordered}:
            chip_queries = [t.query for t in ordered if t.chip == chip]
            first_pt = min(
                i for i, q in enumerate(chip_queries) if q >= 3
            )
            last_scan = max(
                i for i, q in enumerate(chip_queries) if q < 3
            )
            assert first_pt < last_scan

    def test_share_groups_stay_adjacent(self):
        ssd, _ = make_ssd()
        tasks = self._tasks(ssd, [point_expr(), scan_expr(), point_expr()])
        ordered = _order(
            tasks, policy="edf", info={}
        )
        previous = None
        seen = set()
        for task in ordered:
            key = (task.chip, task.plan)
            if key != previous:
                assert key not in seen, "share group split"
                if previous is not None:
                    seen.add(previous)
                previous = key

    def test_edf_without_info_is_valid_permutation(self):
        ssd, _ = make_ssd()
        tasks = self._tasks(ssd, [point_expr(), scan_expr()])
        ordered = _order(tasks, policy="edf")
        assert sorted(
            (t.query, t.chunk) for t in ordered
        ) == sorted((t.query, t.chunk) for t in tasks)


class TestEdfService:
    def test_edf_meets_deadline_fifo_misses(self):
        """The tentpole's exact-sim gate in miniature: point queries
        behind heavy scans miss their deadline under FIFO and meet it
        under EDF, with bit-identical results."""
        reports = {}
        for policy in ("fifo", "edf"):
            ssd, env = make_ssd(n_chips=2, n_chunks=8, seed=3)
            service = ssd.service(window_us=100.0, policy=policy)
            # Heavy scans submitted first...
            for i, names in enumerate(("abcdef", "abcde", "bcdef")):
                service.submit(
                    scan_expr(names), at_us=float(i), client="scan"
                )
            # ... then a point query with a deadline.
            service.submit(
                point_expr(),
                at_us=3.0,
                client="pt",
                deadline_us=None,  # first pass: measure completions
            )
            reports[policy] = service.run()
        fifo_done = reports["fifo"].queries[3].completed_us
        edf_done = reports["edf"].queries[3].completed_us
        assert edf_done < fifo_done
        deadline = (edf_done + fifo_done) / 2.0

        graded = {}
        for policy in ("fifo", "edf"):
            ssd, env = make_ssd(n_chips=2, n_chunks=8, seed=3)
            service = ssd.service(window_us=100.0, policy=policy)
            for i, names in enumerate(("abcdef", "abcde", "bcdef")):
                service.submit(
                    scan_expr(names), at_us=float(i), client="scan"
                )
            point_id = service.submit(
                point_expr(), at_us=3.0, client="pt", deadline_us=deadline
            )
            report = service.run()
            graded[policy] = report
            for q in report.queries:
                np.testing.assert_array_equal(
                    q.result.bits, evaluate(q.expr, env)
                )
        assert graded["edf"].stats.n_deadlines == 1
        assert graded["edf"].stats.deadlines_met == 1
        assert graded["fifo"].stats.deadlines_met == 0
        assert graded["fifo"].stats.deadline_miss_rate == 1.0
        assert graded["edf"].stats.deadline_miss_rate == 0.0
        by_id = {q.query_id: q for q in graded["edf"].queries}
        assert by_id[point_id].deadline_met is True
        assert by_id[point_id].priority == 0

    def test_deadline_met_none_without_deadline(self):
        ssd, _ = make_ssd()
        service = ssd.service(window_us=50.0)
        service.submit(point_expr(), at_us=0.0)
        report = service.run()
        assert report.queries[0].deadline_met is None
        assert report.stats.n_deadlines == 0
        assert report.stats.deadline_miss_rate == 0.0


class TestTrafficPriorities:
    def test_generate_traffic_stamps_priority_and_deadline(self):
        from repro.service import (
            BitmapIndexClient,
            ClientTraffic,
            UniformArrivals,
            generate_traffic,
        )

        client = BitmapIndexClient(
            4 * GEOMETRY.page_size_bits, name="bmi", n_days=4
        )
        traffic = [
            ClientTraffic(
                client,
                UniformArrivals(period_us=50.0),
                4,
                priority=3,
                deadline_us=500.0,
            )
        ]
        rng = np.random.default_rng(0)
        items = generate_traffic(traffic, rng)
        assert len(items) == 4
        for item in items:
            at_us, name, expr = item[:3]  # legacy triple unpack works
            assert item.priority == 3
            assert item.deadline_us == pytest.approx(at_us + 500.0)

    def test_submit_traffic_accepts_legacy_triples(self):
        ssd, env = make_ssd()
        service = ssd.service(window_us=50.0)
        ids = service.submit_traffic(
            [(0.0, "legacy", point_expr()), (1.0, "legacy", point_expr())]
        )
        report = service.run()
        assert len(ids) == 2
        assert all(q.deadline_us is None for q in report.queries)

    def test_relative_deadline_validated(self):
        from repro.service import (
            BitmapIndexClient,
            ClientTraffic,
            UniformArrivals,
        )

        with pytest.raises(ValueError, match="deadline"):
            ClientTraffic(
                BitmapIndexClient(128),
                UniformArrivals(period_us=10.0),
                1,
                deadline_us=0.0,
            )
