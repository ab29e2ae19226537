"""The four service workloads, as data.

A workload is a ``build(seed, scale)`` function returning a
:class:`Plan`: one or more *episodes* (a fresh ``SmallSsd`` plus the
``QueryService`` over it), each a list of *rounds*.  A round is the
mutations applied before it (writes, deletes, a chip kill), the traffic
submitted for one ``run()``, and the oracle environment its results are
checked against.  Everything random comes from ``seed``; the program
under test sees only the generated inputs.  ``build`` is what
``setup_s`` times; :func:`benchmarks.e2e.harness.execute` replays the
rounds and is what the host metrics time.

``scale`` shrinks the trace (fewer queries / rounds), never the
geometry; 1.0 is the frozen benchmark size, the harness test and the
warm-up pass use a fraction.  Sizes are frozen: changing one changes
every recorded number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.expressions import And, Operand, Or, Xor, and_all
from repro.flash.faults import FaultConfig, FaultInjector
from repro.flash.geometry import ChipGeometry
from repro.service import (
    BitmapIndexClient,
    BurstArrivals,
    ClientTraffic,
    KCliqueClient,
    PoissonArrivals,
    QueryService,
    SegmentationClient,
    TrafficItem,
    UniformArrivals,
    generate_traffic,
    populate_all,
)
from repro.ssd import SmallSsd
from repro.ssd.maintenance import MaintenanceConfig


@dataclass
class Round:
    """One ``run()`` of an episode's service."""

    traffic: list[TrafficItem]
    #: Oracle environment for this round's queries.  A dict per round
    #: (arrays shared) because later rounds delete or rewrite vectors.
    env: dict[str, np.ndarray]
    #: Mutations applied, in order, before the traffic is submitted:
    #: ``("write", name, bits, group)``, ``("delete", name)`` or
    #: ``("kill", chip)``.
    ops: list[tuple] = field(default_factory=list)


@dataclass
class Episode:
    ssd: SmallSsd
    service: QueryService
    rounds: list[Round]


@dataclass
class Plan:
    episodes: list[Episode]


def _scaled(n: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(n * scale))


def _random_bits(rng: np.random.Generator, n_bits: int) -> np.ndarray:
    return rng.integers(0, 2, n_bits, dtype=np.uint8)


def _poisson_times(
    rng: np.random.Generator, n: int, rate_qps: float, start_us: float
) -> np.ndarray:
    """Open-loop arrivals: exponential gaps on the virtual clock."""
    return start_us + np.cumsum(rng.exponential(1e6 / rate_qps, n))


# ----------------------------------------------------------------------
# tenant_mix
# ----------------------------------------------------------------------


def build_tenant_mix(seed: int, scale: float = 1.0) -> Plan:
    """README's three tenants scaled to 10^4 queries in one ``run()``."""
    geometry = ChipGeometry(
        planes_per_die=1,
        blocks_per_plane=64,
        subblocks_per_block=2,
        wordlines_per_string=48,
        page_size_bits=512,
    )
    n_bits = 16 * geometry.page_size_bits
    ssd = SmallSsd(n_chips=4, geometry=geometry, seed=seed)
    rng = np.random.default_rng(seed)
    traffic = [
        ClientTraffic(
            BitmapIndexClient(n_bits, n_days=10, shape_pool=3),
            PoissonArrivals(rate_qps=8000),
            _scaled(5000, scale),
            priority=2,
            deadline_us=1500.0,
        ),
        ClientTraffic(
            KCliqueClient(n_bits, n_members=6, n_cliques=3, k=3),
            BurstArrivals(burst_size=6, burst_gap_us=900.0, intra_gap_us=2.0),
            _scaled(3000, scale),
        ),
        ClientTraffic(
            SegmentationClient(n_bits, n_colors=2),
            UniformArrivals(period_us=250.0, jitter_us=40.0),
            _scaled(2000, scale),
        ),
    ]
    env = populate_all(ssd, traffic, rng)
    trace = generate_traffic(traffic, rng)
    service = ssd.service(
        window_us=400.0,
        policy="edf",
        tenant_weights={"bmi": 2.0, "kcs": 1.0, "ims": 1.0},
        result_cache=True,
    )
    return Plan([Episode(ssd, service, [Round(trace, env)])])


# ----------------------------------------------------------------------
# cold_scan
# ----------------------------------------------------------------------

COLD_DAYS = 24
COLD_CLIQUES = 4
COLD_PAGE_BITS = 65536
COLD_CHUNKS = 8
COLD_MIN_DAYS = 2
COLD_MAX_DAYS = 8
COLD_ROUNDS = 10
COLD_QUERIES_PER_ROUND = 150
COLD_RATE_QPS = 10000.0
COLD_ROUND_US = 20_000.0


def build_cold_scan(seed: int, scale: float = 1.0) -> Plan:
    """Fresh random AND shapes over paper-size pages: nothing repeats."""
    geometry = ChipGeometry(
        planes_per_die=1,
        blocks_per_plane=64,
        subblocks_per_block=2,
        wordlines_per_string=48,
        page_size_bits=COLD_PAGE_BITS,
    )
    n_bits = COLD_CHUNKS * geometry.page_size_bits
    ssd = SmallSsd(n_chips=8, geometry=geometry, seed=seed)
    rng = np.random.default_rng(seed)
    days = [f"day{i}" for i in range(COLD_DAYS)]
    cliques = [f"clique{i}" for i in range(COLD_CLIQUES)]
    env: dict[str, np.ndarray] = {}
    for name in days:
        env[name] = (rng.random(n_bits) < 0.8).astype(np.uint8)
        ssd.write_vector(name, env[name], group="days")
    for name in cliques:
        env[name] = (rng.random(n_bits) < 0.01).astype(np.uint8)
        ssd.write_vector(name, env[name])  # own block: OR operand
    service = ssd.service(policy="balanced", result_cache=True)

    rounds = []
    # Rewrites consume wordlines of the days' 48-wordline string
    # group (NAND cannot overwrite), which caps the rounds at 13.
    n_rounds = _scaled(COLD_ROUNDS, scale)
    per_round = _scaled(COLD_QUERIES_PER_ROUND, scale, floor=4)
    for r in range(n_rounds):
        ops = []
        if r:
            env = dict(env)
            for index in rng.choice(COLD_DAYS, size=2, replace=False):
                name = days[index]
                env[name] = (rng.random(n_bits) < 0.8).astype(np.uint8)
                ops.append(("delete", name))
                ops.append(("write", name, env[name], "days"))
        times = _poisson_times(
            rng, per_round, COLD_RATE_QPS, r * COLD_ROUND_US
        )
        traffic = []
        for i, at_us in enumerate(times):
            k = int(rng.integers(COLD_MIN_DAYS, COLD_MAX_DAYS + 1))
            subset = sorted(rng.choice(COLD_DAYS, size=k, replace=False))
            expr = and_all([Operand(days[d]) for d in subset])
            if i % 4 == 0:
                expr = Or(expr, Operand(cliques[int(rng.integers(4))]))
            traffic.append(TrafficItem(float(at_us), "scan", expr))
        rounds.append(Round(traffic, env, ops))
    return Plan([Episode(ssd, service, rounds)])


# ----------------------------------------------------------------------
# write_churn
# ----------------------------------------------------------------------

CHURN_ROUNDS = 100
CHURN_WRITES = 6
CHURN_QUERIES = 40
CHURN_STABLE = 8
CHURN_RATE_QPS = 8000.0
CHURN_ROUND_US = 8_000.0


def build_write_churn(seed: int, scale: float = 1.0) -> Plan:
    """One long-lived service on a near-full SSD: each round writes six
    fresh vectors, deletes the previous six, then serves 40 queries."""
    geometry = ChipGeometry(
        planes_per_die=1,
        blocks_per_plane=16,
        subblocks_per_block=2,
        wordlines_per_string=8,
        page_size_bits=4096,
    )
    n_bits = 8 * geometry.page_size_bits
    ssd = SmallSsd(n_chips=4, geometry=geometry, seed=seed)
    rng = np.random.default_rng(seed)
    stable_env = {}
    for i in range(CHURN_STABLE):
        name = f"s{i}"
        stable_env[name] = _random_bits(rng, n_bits)
        ssd.write_vector(name, stable_env[name], group="stable")
    s = [Operand(f"s{i}") for i in range(CHURN_STABLE)]
    stable_pool = [
        and_all(s),
        And(s[0], s[1]),
        And(s[2], s[3], s[4]),
        Xor(s[5], s[6]),
        And(And(s[0], s[2]), s[7]),
        Xor(And(s[1], s[3]), s[5]),
    ]
    service = ssd.service(
        window_us=400.0, policy="edf", result_cache=True, maintenance=True
    )

    rounds = []
    for r in range(_scaled(CHURN_ROUNDS, scale, floor=3)):
        env = dict(stable_env)
        ops = []
        for i in range(CHURN_WRITES):
            name = f"c{r}_{i}"
            env[name] = _random_bits(rng, n_bits)
            ops.append(("write", name, env[name], f"r{r}"))
        if r:
            ops.extend(
                ("delete", f"c{r - 1}_{i}") for i in range(CHURN_WRITES)
            )
        fresh = [Operand(f"c{r}_{i}") for i in range(CHURN_WRITES)]
        times = _poisson_times(
            rng, CHURN_QUERIES, CHURN_RATE_QPS, r * CHURN_ROUND_US
        )
        traffic = []
        for i, at_us in enumerate(times):
            if i % 2:
                expr = stable_pool[int(rng.integers(len(stable_pool)))]
            else:
                k = int(rng.integers(2, 5))
                picks = sorted(rng.choice(CHURN_WRITES, size=k, replace=False))
                expr = and_all([fresh[p] for p in picks])
            # i % 4 in (0, 1): half the stable and half the fresh
            # queries carry the deadline.
            deadline = float(at_us) + 1500.0 if i % 4 < 2 else None
            traffic.append(
                TrafficItem(float(at_us), "churn", expr, 0, deadline)
            )
        rounds.append(Round(traffic, env, ops))
    return Plan([Episode(ssd, service, rounds)])


# ----------------------------------------------------------------------
# chip_loss
# ----------------------------------------------------------------------

LOSS_EPISODES = 6
LOSS_ROUNDS = 20
LOSS_QUERIES = 50
LOSS_KILL_BEFORE_ROUND = 7
LOSS_VECTORS = 8
LOSS_CHUNKS = 12
LOSS_SHAPES = 24
LOSS_WINDOW_US = 1000.0
LOSS_RATE_QPS = 12000.0
LOSS_ROUND_US = 8_000.0


def build_chip_loss(seed: int, scale: float = 1.0) -> Plan:
    """Parity SSD under 1 % sense faults + 1 % stalls; one chip is
    killed a third of the way into each episode."""
    geometry = ChipGeometry(
        planes_per_die=1,
        blocks_per_plane=16,
        subblocks_per_block=2,
        wordlines_per_string=8,
        page_size_bits=4096,
    )
    n_bits = LOSS_CHUNKS * geometry.page_size_bits
    rng = np.random.default_rng(seed)
    n_rounds = _scaled(LOSS_ROUNDS, scale, floor=3)
    kill_before = max(1, round(LOSS_KILL_BEFORE_ROUND * n_rounds / LOSS_ROUNDS))
    v = [Operand(f"v{i}") for i in range(LOSS_VECTORS)]

    def shape(index: int):
        # A fixed pool of distinct shapes, so that every seed offers
        # the same load and the same chances of sharing a sense.
        picks = v[index % LOSS_VECTORS :] + v[: index % LOSS_VECTORS]
        kind, width = index % 3, 2 + (index // 3) % (LOSS_VECTORS - 1)
        if kind == 0:
            return and_all(picks[:width])
        if kind == 1:
            return Xor(picks[0], picks[1])
        return Xor(And(picks[0], picks[1]), picks[2])

    pool = [shape(i) for i in range(LOSS_SHAPES)]
    episodes = []
    for episode in range(_scaled(LOSS_EPISODES, scale, floor=2)):
        injector = FaultInjector(
            FaultConfig(
                seed=seed + episode,
                sense_fault_rate=0.01,
                stall_rate=0.01,
            )
        )
        ssd = SmallSsd(
            n_chips=4,
            geometry=geometry,
            seed=seed + episode,
            parity=True,
            fault_injector=injector,
        )
        env = {}
        for i in range(LOSS_VECTORS):
            env[f"v{i}"] = _random_bits(rng, n_bits)
            ssd.write_vector(f"v{i}", env[f"v{i}"], group="g")
        service = ssd.service(
            window_us=LOSS_WINDOW_US,
            policy="edf",
            maintenance=MaintenanceConfig(rebuild_columns_per_cycle=1),
        )
        rounds = []
        for r in range(n_rounds):
            times = _poisson_times(
                rng, LOSS_QUERIES, LOSS_RATE_QPS, r * LOSS_ROUND_US
            )
            traffic = [
                TrafficItem(
                    float(at_us),
                    "loss",
                    pool[int(rng.integers(len(pool)))],
                    0,
                    float(at_us) + 2000.0 if i % 2 else None,
                )
                for i, at_us in enumerate(times)
            ]
            ops = [("kill", episode % 4)] if r == kill_before else []
            rounds.append(Round(traffic, env, ops))
        episodes.append(Episode(ssd, service, rounds))
    return Plan(episodes)


BUILDERS = {
    "tenant_mix": build_tenant_mix,
    "cold_scan": build_cold_scan,
    "write_churn": build_write_churn,
    "chip_loss": build_chip_loss,
}
