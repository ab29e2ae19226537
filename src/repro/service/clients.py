"""Simulated clients: workload query streams + arrival processes.

Each client wraps one of the paper's workloads
(:mod:`repro.workloads`) as a traffic source: ``populate`` writes the
workload's bit vectors onto the SSD (keeping a host-side copy as the
NumPy oracle), and ``expressions`` draws a stream of query shapes from
the workload's own generator.  :func:`generate_traffic` stamps those
streams with arrival times from per-client arrival processes -- plus
the tenant's ``priority`` and relative ``deadline_us`` converted to
absolute deadlines -- and merges them into one submission trace for
:meth:`~repro.service.service.QueryService.submit_traffic`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.expressions import Expression
from repro.service.clock import ArrivalProcess
from repro.ssd.controller import SmallSsd
from repro.workloads.bitmap_index import bmi_point_queries
from repro.workloads.image_segmentation import (
    generate_segmentation_masks,
    ims_segment_queries,
)
from repro.workloads.kclique import kcs_star_queries


class TrafficClient:
    """One simulated tenant: owns vectors on the SSD, emits queries."""

    name: str

    def populate(self, ssd: SmallSsd, rng: np.random.Generator) -> None:
        """Write this client's vectors; fills ``self.env`` with the
        host-side oracle copies."""
        raise NotImplementedError

    def expressions(
        self, rng: np.random.Generator, n_queries: int
    ) -> list[Expression]:
        raise NotImplementedError


@dataclass
class BitmapIndexClient(TrafficClient):
    """Analytical dashboard issuing day-window AND point queries."""

    n_bits: int
    name: str = "bmi"
    n_days: int = 8
    min_days: int = 2
    shape_pool: int = 4
    activity: float = 0.8
    env: dict[str, np.ndarray] = field(default_factory=dict)

    def _day_names(self) -> list[str]:
        return [f"{self.name}/day{i}" for i in range(self.n_days)]

    def populate(self, ssd: SmallSsd, rng: np.random.Generator) -> None:
        core = max(1, self.n_bits // 50)
        for day in self._day_names():
            bits = (rng.random(self.n_bits) < self.activity).astype(
                np.uint8
            )
            bits[:core] = 1
            self.env[day] = bits
            ssd.write_vector(day, bits, group=f"{self.name}/days")

    def expressions(self, rng, n_queries):
        return bmi_point_queries(
            self._day_names(),
            rng,
            n_queries,
            min_days=self.min_days,
            shape_pool=self.shape_pool,
        )


@dataclass
class KCliqueClient(TrafficClient):
    """Graph-mining tenant scanning k-clique stars.

    Member adjacency rows co-locate in one string group (single-sense
    AND); clique-membership vectors live in their own blocks so the
    trailing OR rides the same sense via combined intra+inter MWS.
    """

    n_bits: int
    name: str = "kcs"
    n_members: int = 6
    n_cliques: int = 3
    k: int = 3
    edge_prob: float = 0.3
    env: dict[str, np.ndarray] = field(default_factory=dict)

    def _member_names(self) -> list[str]:
        return [f"{self.name}/adj{i}" for i in range(self.n_members)]

    def _clique_names(self) -> list[str]:
        return [f"{self.name}/clique{j}" for j in range(self.n_cliques)]

    def populate(self, ssd: SmallSsd, rng: np.random.Generator) -> None:
        for member in self._member_names():
            bits = (rng.random(self.n_bits) < self.edge_prob).astype(
                np.uint8
            )
            self.env[member] = bits
            ssd.write_vector(member, bits, group=f"{self.name}/adj")
        for clique in self._clique_names():
            members = np.zeros(self.n_bits, dtype=np.uint8)
            members[
                rng.choice(self.n_bits, size=self.k, replace=False)
            ] = 1
            self.env[clique] = members
            ssd.write_vector(clique, members)  # own block: OR operand

    def expressions(self, rng, n_queries):
        return kcs_star_queries(
            self._member_names(),
            self._clique_names(),
            rng,
            n_queries,
            k=self.k,
        )


@dataclass
class SegmentationClient(TrafficClient):
    """Vision tenant segmenting color planes: Y . U . V per color.
    Only a handful of distinct shapes -- a repeat-heavy stream."""

    n_bits: int
    name: str = "ims"
    n_colors: int = 2
    env: dict[str, np.ndarray] = field(default_factory=dict)

    def _planes(self) -> list[tuple[str, str, str]]:
        return [
            tuple(f"{self.name}/c{c}/{p}" for p in "yuv")
            for c in range(self.n_colors)
        ]

    def populate(self, ssd: SmallSsd, rng: np.random.Generator) -> None:
        for c, plane in enumerate(self._planes()):
            y, u, v = generate_segmentation_masks(self.n_bits, rng)
            for name, bits in zip(plane, (y, u, v)):
                self.env[name] = bits
                ssd.write_vector(name, bits, group=f"{self.name}/c{c}")

    def expressions(self, rng, n_queries):
        return ims_segment_queries(self._planes(), rng, n_queries)


@dataclass(frozen=True)
class ClientTraffic:
    """One client's share of a traffic mix.

    ``priority`` and ``deadline_us`` (a *relative* deadline from each
    query's arrival, converted to absolute by
    :func:`generate_traffic`) flow through to the service's ``edf``
    scheduling: interactive tenants set tight deadlines, scan tenants
    set none and are drained weighted-fair behind them.
    """

    client: TrafficClient
    process: ArrivalProcess
    n_queries: int
    priority: int = 0
    deadline_us: float | None = None

    def __post_init__(self) -> None:
        if self.n_queries < 1:
            raise ValueError("n_queries must be >= 1")
        if self.deadline_us is not None and self.deadline_us <= 0:
            raise ValueError("deadline_us must be positive (relative)")


def populate_all(
    ssd: SmallSsd,
    traffic: list[ClientTraffic],
    rng: np.random.Generator,
) -> dict[str, np.ndarray]:
    """Write every client's vectors; returns the merged NumPy oracle
    environment (operand name -> bit vector)."""
    env: dict[str, np.ndarray] = {}
    for item in traffic:
        item.client.populate(ssd, rng)
        env.update(item.client.env)
    return env


class TrafficItem(NamedTuple):
    """One submission of a generated trace.  The first three fields
    are the legacy ``(at_us, client, expr)`` triple (``item[:3]``
    still slices to it; three-name tuple unpacking of the whole item
    no longer works -- it now has five fields);
    :meth:`~repro.service.service.QueryService.submit_traffic`
    accepts both this and bare legacy triples."""

    at_us: float
    client: str
    expr: Expression
    priority: int = 0
    deadline_us: float | None = None


def generate_traffic(
    traffic: list[ClientTraffic],
    rng: np.random.Generator,
    *,
    start_us: float = 0.0,
) -> list[TrafficItem]:
    """Stamp every client's query stream with arrival times (and the
    tenant's priority / absolute deadline) and merge into one
    time-ordered trace of :class:`TrafficItem`."""
    merged: list[TrafficItem] = []
    for item in traffic:
        times = item.process.arrival_times(
            item.n_queries, rng, start_us=start_us
        )
        exprs = item.client.expressions(rng, item.n_queries)
        merged.extend(
            TrafficItem(
                t,
                item.client.name,
                e,
                item.priority,
                None if item.deadline_us is None else t + item.deadline_us,
            )
            for t, e in zip(times, exprs)
        )
    merged.sort(key=lambda entry: entry.at_us)
    return merged
