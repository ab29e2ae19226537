"""End-to-end evaluation of the four computing platforms (Section 7).

``SystemEvaluator`` runs a workload point through the pipelined
timing model and the energy model for OSP / ISP / PB / FC, yielding
the speedup and energy-efficiency numbers of Figures 17 and 18.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.host.energy import EnergyBreakdown, EnergyModel, EnergyParameters
from repro.ssd.config import SsdConfig, table1_config
from repro.ssd.pipeline import PipelineModel, Platform, PlatformTiming
from repro.workloads.base import WorkloadPoint


@dataclass(frozen=True)
class ExecutionReport:
    """Time and energy of one platform on one workload point."""

    workload: WorkloadPoint
    platform: Platform
    timing: PlatformTiming
    energy: EnergyBreakdown

    @property
    def time_s(self) -> float:
        return self.timing.makespan_s

    @property
    def energy_j(self) -> float:
        return self.energy.total_j

    @property
    def bits_per_joule(self) -> float:
        """Figure 18's metric: workload bits processed per joule."""
        return self.workload.input_bytes * 8 / self.energy_j


@dataclass
class SystemEvaluator:
    """Evaluates workload points across platforms on one SSD config."""

    config: SsdConfig = field(default_factory=table1_config)
    host_bw_bytes_per_s: float = 12.0e9
    energy_params: EnergyParameters = field(default_factory=EnergyParameters)

    def __post_init__(self) -> None:
        self.pipeline = PipelineModel(
            self.config, host_bw_bytes_per_s=self.host_bw_bytes_per_s
        )
        self.energy_model = EnergyModel(self.config, self.energy_params)
        self._cache: dict[tuple[WorkloadPoint, Platform], ExecutionReport] = {}

    def evaluate(
        self, point: WorkloadPoint, platform: Platform
    ) -> ExecutionReport:
        key = (point, platform)
        if key in self._cache:
            return self._cache[key]
        spec = point.dataflow_spec()
        timing = self.pipeline.evaluate(platform, spec)
        bitwise_host = (
            point.input_bytes if platform is Platform.OSP else 0.0
        )
        energy = self.energy_model.evaluate(
            platform,
            timing,
            bitwise_host_bytes=bitwise_host,
            result_host_bytes=point.result_bytes,
            fc_wordlines_per_sense=point.fc_wordlines_per_sense,
            fc_blocks_per_sense=point.fc_blocks_per_sense,
        )
        report = ExecutionReport(
            workload=point, platform=platform, timing=timing, energy=energy
        )
        self._cache[key] = report
        return report

    def evaluate_all(
        self, point: WorkloadPoint
    ) -> dict[Platform, ExecutionReport]:
        return {p: self.evaluate(point, p) for p in Platform}

    # ------------------------------------------------------------------
    # Figure 17 / 18 style comparisons
    # ------------------------------------------------------------------

    def speedups_over_osp(
        self, point: WorkloadPoint
    ) -> dict[Platform, float]:
        reports = self.evaluate_all(point)
        baseline = reports[Platform.OSP].time_s
        return {p: baseline / r.time_s for p, r in reports.items()}

    def energy_efficiency_over_osp(
        self, point: WorkloadPoint
    ) -> dict[Platform, float]:
        reports = self.evaluate_all(point)
        baseline = reports[Platform.OSP].energy_j
        return {p: baseline / r.energy_j for p, r in reports.items()}


def geometric_mean(values: list[float]) -> float:
    if not values:
        raise ValueError("geometric mean of no values")
    product = 1.0
    for v in values:
        if v <= 0:
            raise ValueError("geometric mean needs positive values")
        product *= v
    return product ** (1.0 / len(values))
