"""Run one workload: passes, oracle check, metrics, determinism guard.

One *pass* builds the workload's plan from the seed (timed as
``setup_s``), replays its rounds through the service (the timed
region: mutations + ``submit_traffic`` + ``run()``), and checks every
served result against the NumPy oracle between rounds, outside the
timed region.  Reports are folded into a :class:`Collector` and
dropped round by round, so paper-size results do not pile up.

Host times of untraced passes are stated at the reference machine
speed of :mod:`benchmarks.e2e.calibrate`; the readings as taken stay
in the record (``host_raw``).
"""

from __future__ import annotations

import contextlib
import gc
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.expressions import evaluate

from benchmarks.e2e import spec
from benchmarks.e2e.calibrate import Sampler
from benchmarks.e2e.tracer import Tracer
from benchmarks.e2e.workloads import BUILDERS, Plan

OUT_DIR = Path(__file__).resolve().parent / "out"
#: Builds timed for ``setup_s`` in one ``--trace 0`` run.
SETUP_REPEATS = 9
#: Passes after the warm-up in one run, at most.
MAX_PASSES = 5


class DeterminismError(Exception):
    """A sim metric or count differed between two passes."""


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Count metric <- key summed over a workload's ``run()`` calls
#: (``ServiceStats`` fields) or episodes (engine / cache / maintenance
#: lifetime counters).
_SUMMED = {
    "service.windows": "n_windows",
    "service.chunk_tasks": "n_chunk_tasks",
    "service.health.quarantines": "quarantines",
    "ssd.result_cache.invalidations": "result_cache.invalidations",
    "ssd.query_engine.restacked_tensors": "restacked_tensors",
    "ssd.query_engine.planner_invocations": "planner_invocations",
    "ssd.query_engine.executor_dispatches": "executor_dispatches",
    "ssd.query_engine.fault_retries": "fault_retries",
    "ssd.query_engine.degraded_senses": "degraded_senses",
    "ssd.query_engine.reconstructed_plans": "reconstructed_plans",
    "ssd.query_engine.reconstruction_senses": "reconstruction_senses",
    "flash.faults_injected": "faults_injected",
    "ssd.events.preemptions": "preemptions",
    "ssd.maintenance.gc_cycles": "gc_cycles",
    "ssd.maintenance.blocks_reclaimed": "blocks_reclaimed",
    "ssd.maintenance.pages_migrated": "pages_migrated",
    "ssd.maintenance.columns_rebuilt": "columns_rebuilt",
}
_SERVICE_STATS = (
    "n_windows", "n_chunk_tasks", "n_senses", "shared_plans",
    "fault_retries", "degraded_senses", "reconstructed_plans",
    "reconstruction_senses", "faults_injected", "quarantines",
    "preemptions", "blocks_reclaimed", "pages_migrated",
    "columns_rebuilt", "maintenance_overhead_us",
)
_ENGINE_STATS = (
    "template_hits", "template_misses", "planner_invocations",
    "executor_dispatches", "restacked_tensors",
)


@dataclass
class Collector:
    """Everything exact a pass produces, folded report by report."""

    submitted: int = 0
    failed: int = 0  # surfaced an error or mismatched the oracle
    latencies: list[float] = field(default_factory=list)
    waits: list[float] = field(default_factory=list)
    execs: list[float] = field(default_factory=list)
    degraded: list[float] = field(default_factory=list)
    healthy: list[float] = field(default_factory=list)
    deadlines: int = 0
    deadlines_met: int = 0
    energy_nj: float = 0.0
    span_us: float = 0.0
    wear_spread: int = 0
    busy_us: defaultdict = field(default_factory=lambda: defaultdict(float))
    sums: defaultdict = field(default_factory=lambda: defaultdict(int))

    def add_report(self, report, env) -> None:
        for q in report.queries:
            self.submitted += 1
            if q.deadline_us is not None:
                self.deadlines += 1
            if q.error is not None or not np.array_equal(
                q.result.bits, evaluate(q.expr, env)
            ):
                # A failed query misses its deadline and has no latency.
                self.failed += 1
                continue
            self.deadlines_met += bool(q.deadline_met)
            self.latencies.append(q.latency_us)
            self.waits.append(q.wait_us)
            self.execs.append(q.completed_us - q.admitted_us)
            (self.degraded if q.reconstructed_chunks else self.healthy).append(
                q.latency_us
            )
            self.energy_nj += q.result.energy_nj
        stats = report.stats
        self.span_us += stats.span_us
        for resource, util in stats.resource_utilization.items():
            self.busy_us[resource] += util * stats.makespan_us
        for key in _SERVICE_STATS:
            self.sums[key] += getattr(stats, key)

    def end_episode(self, episode) -> None:
        """Fold the lifetime counters of an episode's SSD."""
        ssd, engine = episode.ssd, episode.ssd.engine
        for key in _ENGINE_STATS:
            self.sums[key] += getattr(engine.stats, key)
        for name, cache in (
            ("result_cache", engine.result_cache),
            ("stack_cache", engine.stack_cache),
        ):
            if cache is not None:
                stats = cache.stats
                self.sums[f"{name}.hits"] += stats.hits
                self.sums[f"{name}.lookups"] += stats.hits + stats.misses
                self.sums[f"{name}.invalidations"] += stats.invalidations
        if episode.service.maintenance is not None:
            self.sums["gc_cycles"] += episode.service.maintenance.stats.gc_cycles
        self.wear_spread = max(self.wear_spread, ssd.wear_summary().spread)
        # Every program_page and copyback bumps the chip's counter.
        self.sums["programs"] += sum(c.counters.programs for c in ssd.chips)

    # ------------------------------------------------------------------

    def _util(self, prefix: str) -> float:
        busiest = max(
            (
                busy
                for name, busy in self.busy_us.items()
                if name.rstrip("0123456789") == prefix
            ),
            default=0.0,
        )
        return _ratio(busiest, self.span_us)

    def sim_metrics(self) -> dict[str, float]:
        n = self.submitted
        return {
            "sim_capacity_qps": _ratio(
                n, max(self.busy_us.values(), default=0.0) * 1e-6
            ),
            "sim_p50_us": _percentile(self.latencies, 50),
            "sim_p99_us": _percentile(self.latencies, 99),
            "deadline_met_frac": (
                self.deadlines_met / self.deadlines if self.deadlines else 1.0
            ),
            "sim_energy_nj_per_query": _ratio(self.energy_nj, n),
            "served_ok_frac": 1.0 - _ratio(self.failed, n),
        }

    def counts(self) -> dict[str, float]:
        s, n = self.sums, self.submitted
        return {
            **{metric: s[key] for metric, key in _SUMMED.items()},
            "service.shared_frac": _ratio(s["shared_plans"], s["n_chunk_tasks"]),
            "service.sim_wait_p50_us": _percentile(self.waits, 50),
            "service.sim_exec_p99_us": _percentile(self.execs, 99),
            "service.sim_degraded_p99_us": _percentile(self.degraded, 99),
            "service.sim_healthy_p99_us": _percentile(self.healthy, 99),
            "ssd.result_cache.hit_rate": _ratio(
                s["result_cache.hits"], s["result_cache.lookups"]
            ),
            "ssd.stack_cache.hit_rate": _ratio(
                s["stack_cache.hits"], s["stack_cache.lookups"]
            ),
            "ssd.query_engine.template_hit_rate": _ratio(
                s["template_hits"], s["template_hits"] + s["template_misses"]
            ),
            "flash.senses_per_query": _ratio(s["n_senses"], n),
            "flash.wear_spread": self.wear_spread,
            "ssd.events.util_chip_max": self._util("chip"),
            "ssd.events.util_chan_max": self._util("chan"),
            "ssd.events.util_ext": self._util("ext"),
            "ssd.maintenance.busy_us_per_query": _ratio(
                s["maintenance_overhead_us"], n
            ),
            # User pages: the data pages of every vector written, at
            # set-up or by a round.
            "ssd.ftl.write_amp": _ratio(s["programs"], s["user_pages"]),
        }


def _apply(ssd, op: tuple) -> None:
    if op[0] == "write":
        ssd.write_vector(op[1], op[2], group=op[3])
    elif op[0] == "delete":
        ssd.delete_vector(op[1])
    elif op[0] == "kill":
        ssd.kill_chip(op[1])
    else:
        raise ValueError(f"unknown op {op[0]!r}")


def execute(plan: Plan, collector: Collector, timed: Sampler) -> None:
    """Replay a plan; ``timed`` clocks the timed region and stops
    while a round's results are checked and folded."""
    for episode in plan.episodes:
        ssd, service = episode.ssd, episode.service
        collector.sums["user_pages"] += sum(
            ssd.ftl.lookup(name).n_chunks for name in ssd.ftl.vectors()
        )
        for rnd in episode.rounds:
            with timed.region():
                for op in rnd.ops:
                    _apply(ssd, op)
                service.submit_traffic(rnd.traffic)
                report = service.run()
            collector.add_report(report, rnd.env)
            collector.sums["user_pages"] += sum(
                -(-op[2].size // ssd.page_bits)
                for op in rnd.ops
                if op[0] == "write"
            )
        collector.end_episode(episode)


@dataclass
class PassResult:
    #: Host times: at the reference speed on a calibrated pass, as
    #: read (``raw_*``, handler time included) always.
    setup_s: float
    wall_s: float
    cpu_s: float
    raw_setup_s: float
    raw_wall_s: float
    slowdown: float
    n_queries: int
    failed: int
    sim: dict[str, float]
    counts: dict[str, float]
    label: str = ""
    tracer: Tracer | None = None

    @property
    def exact(self) -> dict[str, float]:
        return {**self.sim, **self.counts}


def timed_setup(
    workload: str, seed: int, scale: float = 1.0, calibrated: bool = True
) -> tuple[float, float, Plan]:
    """Build a plan; ``(setup_s, raw_setup_s, plan)``.  The cyclic
    collector is off meanwhile, as in ``timeit``: a build is ~0.1 s,
    and whether its allocations happen to cross the threshold of one
    more full collection (~0.05 s) depends on the seed."""
    gc.collect()
    timed = Sampler(sample=calibrated)
    gc.disable()
    try:
        with timed.region():
            plan = BUILDERS[workload](seed, scale)
    finally:
        gc.enable()
    setup_s = timed.at_reference()[0] if calibrated else timed.wall_s
    return setup_s, timed.wall_s, plan


def run_pass(
    workload: str,
    seed: int,
    scale: float = 1.0,
    *,
    label: str = "",
    traced: bool = False,
    calibrated: bool = True,
) -> PassResult:
    # No sampling on a traced pass: the handler would land in spans.
    calibrated = calibrated and not traced
    setup_s, raw_setup_s, plan = timed_setup(workload, seed, scale, calibrated)
    collector = Collector()
    tracer = Tracer(spec.LAYERS) if traced else None
    timed = Sampler(sample=calibrated)
    with tracer or contextlib.nullcontext():
        execute(plan, collector, timed)
    if calibrated:
        wall, cpu, slowdown = timed.at_reference()
    else:
        wall, cpu, slowdown = timed.wall_s, timed.cpu_s, 1.0
    return PassResult(
        setup_s=setup_s,
        wall_s=wall,
        cpu_s=cpu,
        raw_setup_s=raw_setup_s,
        raw_wall_s=timed.wall_s,
        slowdown=slowdown,
        n_queries=collector.submitted,
        failed=collector.failed,
        sim=collector.sim_metrics(),
        counts=collector.counts(),
        label=label,
        tracer=tracer,
    )


def check_deterministic(passes: list[PassResult]) -> None:
    """Sim metrics and counts must be identical on every pass, traced
    or not -- which is also the proof that tracing does not perturb
    the program."""
    first = passes[0]
    reference = first.exact
    for other in passes[1:]:
        for name, value in other.exact.items():
            if value != reference[name]:
                raise DeterminismError(
                    f"{name} differs between the {first.label} pass "
                    f"({reference[name]!r}) and the {other.label} pass "
                    f"({value!r})"
                )


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "passes": len(values),
    }


def measure(
    workload: str, seed: int, seconds: float, scale: float = 1.0
) -> dict:
    """``--trace 0``: one untimed warm-up pass (the first pass pays
    the page faults of a growing heap -- +60 % on ``cold_scan``), then
    timed passes until ``seconds`` of timed wall is spent (at least 3,
    at most ``MAX_PASSES``, which keeps a run's length in hand when
    checking results costs as much as producing them); host metrics
    are medians over the timed passes, at the reference speed.  Set-up
    is short, so it is repeated on its own until ``SETUP_REPEATS``
    builds have been timed."""
    warmup = run_pass(workload, seed, scale, label="warm-up")
    passes: list[PassResult] = []
    while len(passes) < 3 or (
        len(passes) < MAX_PASSES
        and sum(p.raw_wall_s for p in passes) < seconds
    ):
        passes.append(
            run_pass(workload, seed, scale, label=f"timed {len(passes) + 1}")
        )
    check_deterministic([warmup] + passes)
    setups = [(p.setup_s, p.raw_setup_s) for p in passes]
    while len(setups) < SETUP_REPEATS:
        setups.append(timed_setup(workload, seed, scale)[:2])
    host = {
        "setup_s": quartiles([s for s, _ in setups]),
        "wall_qps": quartiles([p.n_queries / p.wall_s for p in passes]),
        "cpu_us_per_query": quartiles(
            [p.cpu_s * 1e6 / p.n_queries for p in passes]
        ),
    }
    host_raw = {
        "setup_s": quartiles([raw for _, raw in setups]),
        "wall_qps": quartiles([p.n_queries / p.raw_wall_s for p in passes]),
        "slowdown": quartiles([p.slowdown for p in passes]),
    }
    return {
        "attempted": sum(p.n_queries for p in [warmup] + passes),
        "failed": sum(p.failed for p in [warmup] + passes),
        "host": host,
        "host_raw": host_raw,
        "sim": passes[0].sim,
        "counts": passes[0].counts,
    }


def measure_layers(
    workload: str, seed: int, seconds: float, scale: float = 1.0
) -> dict:
    """``--trace 1``: after the warm-up pass, alternate untraced and
    traced passes until ``seconds`` of timed wall is spent (at least
    one pair, at most ``MAX_PASSES`` passes); layer self times are
    medians over the traced passes, as read, and the last traced
    pass's spans are written as a Chrome trace."""
    warmup = run_pass(workload, seed, scale, label="warm-up")
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    while not traced or (
        len(plain + traced) + 2 <= MAX_PASSES
        and sum(p.wall_s for p in plain + traced) < seconds
    ):
        n = len(traced) + 1
        plain.append(
            run_pass(
                workload, seed, scale, label=f"untraced {n}", calibrated=False
            )
        )
        traced.append(
            run_pass(workload, seed, scale, label=f"traced {n}", traced=True)
        )
    everything = [warmup] + plain + traced
    check_deterministic(everything)
    jobs = {p.tracer.jobs for p in traced}
    if len(jobs) > 1:
        raise DeterminismError(f"ssd.events.jobs differs: {sorted(jobs)}")

    def median(pick) -> float:
        return statistics.median(pick(p) for p in traced)

    run_wall = median(lambda p: p.wall_s)
    layers: dict[str, float] = {}
    for layer in spec.LAYERS:
        layers[f"{layer}.self_s"] = median(lambda p: p.tracer.self_s[layer])
        layers[f"{layer}.calls"] = traced[0].tracer.calls[layer]
    n_jobs = jobs.pop()
    layers.update(
        {
            "trace.run_wall_s": run_wall,
            "trace.overhead_frac": run_wall
            / statistics.median(p.wall_s for p in plain)
            - 1.0,
            "trace.unattributed_frac": median(
                lambda p: 1.0 - p.tracer.attributed_s / p.wall_s
            ),
            "trace.spans": traced[0].tracer.n_spans,
            "ssd.events.jobs": n_jobs,
            "ssd.events.us_per_job": _ratio(
                layers["ssd.events.self_s"] * 1e6, n_jobs
            ),
        }
    )
    OUT_DIR.mkdir(exist_ok=True)
    traced[-1].tracer.write_chrome_trace(OUT_DIR / f"{workload}.trace.json")
    return {
        "attempted": sum(p.n_queries for p in everything),
        "failed": sum(p.failed for p in everything),
        "layers": layers,
        "sim": traced[0].sim,
        "counts": traced[0].counts,
        "passes": len(traced),
    }
