"""Names, units, directions and bounds of everything the benchmark
reports -- the single source ``BENCHMARK.json`` is generated from.

Every number is *host* (what the Python process costs; stated at the
reference machine speed of ``calibrate.py``) or *sim* (what the
modelled SSD would take on the virtual clock; exact for a fixed seed).
``bound`` is the share by which a metric may worsen between two commits
measured on *different* seeds (the protocol ``BENCHMARK.json`` serves),
so for sim metrics it has to cover their seed-to-seed spread.
``compare`` on two records of the *same* seed holds sim metrics to
equality instead (see ``compare.py``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: End-to-end only: tolerated worsening, as a share of the base.
    bound: float | None = None
    clock: str = "host"  # "host" | "sim"
    #: Absolute difference below which a worsening never counts.
    abs_floor: float = 0.0


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, abs_floor=0.05),
    # As read, identical runs on the shared 2-core box spread 6-25 %;
    # at the reference speed they spread 2-5 %.  The bounds stay at the
    # widest allowed: they are there to catch regressions, not noise.
    Metric("wall_qps", "queries/s", "higher", 0.25),
    Metric("cpu_us_per_query", "us", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    # Sim bounds are 3x the widest seed-to-seed spread measured over
    # ten seeds on any workload (chip_loss sets nearly all of them).
    Metric("sim_capacity_qps", "queries/s", "higher", 0.05, "sim"),
    Metric("sim_p50_us", "us", "lower", 0.12, "sim"),
    Metric("sim_p99_us", "us", "lower", 0.25, "sim"),
    Metric("deadline_met_frac", "fraction", "higher", 0.12, "sim"),
    Metric("sim_energy_nj_per_query", "nJ", "lower", 0.05, "sim"),
    Metric("served_ok_frac", "fraction", "higher", 0.001, "sim"),
)

#: Layer -> the public callables the tracer wraps, as
#: ``(dotted path, kind)``.  Layer names are module paths under
#: ``repro``.  Kinds: ``span`` records a span; ``leaf`` only
#: accumulates time and count (per-chunk callables that call nothing
#: traced); ``run`` is a span that also scopes a request id; ``jobs``
#: is a span that also counts ``len(args[0])``.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "service.admission": (
        ("repro.service.service.QueryService.submit_traffic", "span"),
        ("repro.service.admission.AdmissionQueue.windows", "span"),
    ),
    "service.scheduler": (
        ("repro.service.service.schedule_window", "span"),
    ),
    "service.service": (
        ("repro.service.service.QueryService.run", "run"),
    ),
    "service.health": (
        ("repro.service.health.ChipHealthTracker.observe_window", "span"),
        ("repro.service.health.ChipHealthTracker.force_quarantine", "span"),
    ),
    "service.metrics": (
        ("repro.service.metrics.LatencySummary.from_latencies", "span"),
    ),
    "ssd.query_engine.prepare": (
        ("repro.ssd.query_engine.QueryEngine.prepare", "span"),
    ),
    "core.planner": (
        ("repro.core.planner.Planner.plan_template", "span"),
        ("repro.core.planner.Planner.plan", "span"),
        ("repro.core.planner.PlanTemplate.bind", "leaf"),
    ),
    "ssd.query_engine.execute": (
        ("repro.ssd.query_engine.QueryEngine.execute_tasks", "span"),
    ),
    "ssd.result_cache": (
        ("repro.ssd.query_engine.ResultCache.get", "leaf"),
        ("repro.ssd.query_engine.ResultCache.put", "leaf"),
        ("repro.ssd.query_engine.ResultCache.prune_stale", "span"),
    ),
    "ssd.stack_cache": (
        ("repro.ssd.query_engine.StackCache.execute", "span"),
    ),
    "core.mws": (
        ("repro.core.mws.MwsExecutor.execute", "span"),
        ("repro.core.mws.MwsExecutor.execute_batch", "span"),
        ("repro.core.mws.MwsExecutor.execute_batch_reuse", "span"),
        ("repro.core.mws.MwsExecutor.execute_degraded", "span"),
        ("repro.core.mws.MwsExecutor.execute_degraded_batch", "span"),
    ),
    "flash.chip.sense": (
        ("repro.flash.chip.NandFlashChip.execute_sense", "leaf"),
        ("repro.flash.chip.NandFlashChip.execute_sense_batch", "leaf"),
        ("repro.flash.chip.NandFlashChip.execute_sense_batch_vth", "leaf"),
    ),
    "flash.chip.program": (
        ("repro.flash.chip.NandFlashChip.program_page", "span"),
        ("repro.flash.chip.NandFlashChip.erase_block", "span"),
        ("repro.flash.chip.NandFlashChip.copyback", "span"),
    ),
    "ssd.query_engine.stage_job": (
        ("repro.ssd.query_engine.QueryEngine.stage_job", "leaf"),
    ),
    "ssd.events": (
        ("repro.service.service.simulate_stages", "jobs"),
    ),
    "ssd.query_engine.assemble": (
        ("repro.ssd.query_engine.QueryEngine.assemble_bits", "span"),
    ),
    "ssd.controller.write": (
        ("repro.ssd.controller.SmallSsd.write_vector", "span"),
        ("repro.ssd.controller.SmallSsd.delete_vector", "span"),
    ),
    "ssd.controller.reconstruct": (
        ("repro.ssd.controller.SmallSsd.reconstruct_chunk_bits", "span"),
    ),
    "ssd.maintenance": (
        ("repro.ssd.maintenance.MaintenanceManager.run_cycle", "span"),
        ("repro.ssd.maintenance.MaintenanceManager.drain_chip", "span"),
        ("repro.ssd.maintenance.MaintenanceManager.rebuild_cycle", "span"),
        ("repro.ssd.maintenance.MaintenanceManager.scrub_bad_blocks", "span"),
    ),
}

#: Host-time bookkeeping of the traced pass.
TRACE_METRICS = (
    Metric("trace.run_wall_s", "s", "lower"),
    Metric("trace.overhead_frac", "fraction", "lower"),
    Metric("trace.unattributed_frac", "fraction", "lower"),
    Metric("trace.spans", "count", "lower"),
    # Jobs handed to ``simulate_stages`` (counted by its wrapper, so
    # known only on traced passes) and host time per simulated job.
    Metric("ssd.events.jobs", "count", "lower"),
    Metric("ssd.events.us_per_job", "us", "lower"),
)

#: Counts and sim-side layer numbers: exact for a seed, computed on
#: every pass (traced or not) and compared across them.
COUNTS = (
    Metric("service.windows", "count", "lower", clock="sim"),
    Metric("service.chunk_tasks", "count", "lower", clock="sim"),
    Metric("service.shared_frac", "fraction", "higher", clock="sim"),
    Metric("service.sim_wait_p50_us", "us", "lower", clock="sim"),
    Metric("service.sim_exec_p99_us", "us", "lower", clock="sim"),
    Metric("service.sim_degraded_p99_us", "us", "lower", clock="sim"),
    Metric("service.sim_healthy_p99_us", "us", "lower", clock="sim"),
    Metric("service.health.quarantines", "count", "lower", clock="sim"),
    Metric("ssd.result_cache.hit_rate", "fraction", "higher", clock="sim"),
    Metric("ssd.result_cache.invalidations", "count", "lower", clock="sim"),
    Metric("ssd.stack_cache.hit_rate", "fraction", "higher", clock="sim"),
    Metric("ssd.query_engine.restacked_tensors", "count", "lower", clock="sim"),
    Metric("ssd.query_engine.template_hit_rate", "fraction", "higher", clock="sim"),
    Metric("ssd.query_engine.planner_invocations", "count", "lower", clock="sim"),
    Metric("ssd.query_engine.executor_dispatches", "count", "lower", clock="sim"),
    Metric("ssd.query_engine.fault_retries", "count", "lower", clock="sim"),
    Metric("ssd.query_engine.degraded_senses", "count", "lower", clock="sim"),
    Metric("ssd.query_engine.reconstructed_plans", "count", "lower", clock="sim"),
    Metric("ssd.query_engine.reconstruction_senses", "count", "lower", clock="sim"),
    Metric("flash.senses_per_query", "count", "lower", clock="sim"),
    Metric("flash.faults_injected", "count", "lower", clock="sim"),
    Metric("flash.wear_spread", "count", "lower", clock="sim"),
    Metric("ssd.events.util_chip_max", "fraction", "lower", clock="sim"),
    Metric("ssd.events.util_chan_max", "fraction", "lower", clock="sim"),
    Metric("ssd.events.util_ext", "fraction", "lower", clock="sim"),
    Metric("ssd.events.preemptions", "count", "lower", clock="sim"),
    Metric("ssd.maintenance.gc_cycles", "count", "lower", clock="sim"),
    Metric("ssd.maintenance.blocks_reclaimed", "count", "higher", clock="sim"),
    Metric("ssd.maintenance.pages_migrated", "count", "lower", clock="sim"),
    Metric("ssd.maintenance.columns_rebuilt", "count", "higher", clock="sim"),
    Metric("ssd.maintenance.busy_us_per_query", "us", "lower", clock="sim"),
    Metric("ssd.ftl.write_amp", "ratio", "lower", clock="sim"),
)


def layer_metrics() -> tuple[Metric, ...]:
    out = []
    for layer in LAYERS:
        out.append(Metric(f"{layer}.self_s", "s", "lower"))
        out.append(Metric(f"{layer}.calls", "count", "lower"))
    return tuple(out)


PER_LAYER = layer_metrics() + TRACE_METRICS + COUNTS

WORKLOADS = {
    "tenant_mix": (
        "repeat-heavy three-tenant serving: >99% of chunk tasks are "
        "cache-served, so host time is scheduler + event sim + "
        "service accounting and flash does almost nothing"
    ),
    "cold_scan": (
        "fresh random AND shapes over 16 KiB pages: no template or "
        "result reuse, so host time is planner bind + MWS latch "
        "replay + chip sensing; also the memory workload"
    ),
    "write_churn": (
        "writes beside reads on a near-full SSD: stamps move every "
        "round, GC erases queue in front of windows, write / "
        "maintenance / program layers get real work"
    ),
    "chip_loss": (
        "the failure path: 1% faults and stalls, a chip killed a "
        "third of the way in; retry, degraded sensing, parity "
        "reconstruction, drain and paced rebuild"
    ),
}

#: How long one run measures (the driver passes it as ``--seconds``).
RUN_SECONDS = 15


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {
                "name": m.name,
                "unit": m.unit,
                "better": m.better,
                "bound": m.bound,
            }
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
