"""Tier-1 checks of the benchmark harness itself (< 5 s).

Each workload runs once at a tiny scale so the emitted names can be
held against ``BENCHMARK.json``; the tracer is checked for restoring
what it patches and for its self-time arithmetic.
"""

from __future__ import annotations

import json
import re
import signal
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import calibrate, compare, harness, spec  # noqa: E402
from benchmarks.e2e.tracer import Tracer, resolve  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY = 0.02


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_manifest_is_generated_from_spec(manifest):
    assert manifest == spec.manifest()
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert len(manifest["per_layer"]) <= 128
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in manifest["end_to_end"]
    )


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_workload_emits_the_declared_names(workload, manifest, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    assert workload in {w["name"] for w in manifest["workloads"]}
    # Warm-up, one untraced and one traced pass, compared exactly.
    record = harness.measure_layers(workload, seed=5, seconds=0.0, scale=TINY)
    assert record["failed"] == 0 and record["attempted"] > 0
    emitted = set(record["layers"]) | set(record["counts"])
    assert emitted == {m["name"] for m in manifest["per_layer"]}
    assert set(record["sim"]) == {m.name for m in spec.END_TO_END if m.clock == "sim"}
    # The contract wants end-to-end metrics that are never 0.
    assert all(v != 0 for v in record["sim"].values())
    assert record["layers"]["trace.unattributed_frac"] < 0.05
    assert (tmp_path / f"{workload}.trace.json").exists()


def test_end_to_end_names_match_the_manifest(manifest):
    record = harness.measure("tenant_mix", seed=5, seconds=0.0, scale=TINY)
    assert record["host"]["wall_qps"]["passes"] == 3
    assert record["host"]["setup_s"]["passes"] == harness.SETUP_REPEATS
    assert set(record["host_raw"]) == {"setup_s", "wall_qps", "slowdown"}
    emitted = set(record["host"]) | {"peak_rss_mb"} | set(record["sim"])
    assert emitted == {m["name"] for m in manifest["end_to_end"]}


def test_determinism_guard_names_the_metric():
    a = harness.run_pass("tenant_mix", 5, TINY, label="warm-up")
    b = harness.run_pass("tenant_mix", 6, TINY, label="timed 1")
    with pytest.raises(harness.DeterminismError, match="warm-up.*timed 1"):
        harness.check_deterministic([a, b])


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


def _originals():
    return {
        path: vars(owner)[attr]
        for targets in spec.LAYERS.values()
        for path, _ in targets
        for owner, attr in [resolve(path)]
    }


def test_tracer_restores_every_patched_attribute():
    before = _originals()
    with Tracer(spec.LAYERS):
        during = _originals()
        assert all(during[path] is not before[path] for path in before)
    after = _originals()
    assert all(after[path] is before[path] for path in before)


def test_tracer_restores_after_an_exception_in_a_wrapped_call():
    from repro.service.metrics import LatencySummary

    before = _originals()
    tracer = Tracer(spec.LAYERS)
    with pytest.raises(TypeError):
        with tracer:
            LatencySummary.from_latencies(object())  # len() raises
    assert tracer.calls["service.metrics"] == 1
    assert len(tracer._stack) == 1  # the failed span was closed
    after = _originals()
    assert all(after[path] is before[path] for path in before)


class _Synthetic:
    """outer -> (mid -> leaf, leaf), with a scripted clock."""

    def outer(self):
        self.mid()
        self.leaf()

    def mid(self):
        self.leaf()

    def leaf(self):
        pass


def test_self_time_arithmetic_on_a_nested_tree():
    prefix = f"{__name__}._Synthetic."
    layers = {
        "top": ((prefix + "outer", "run"),),
        "middle": ((prefix + "mid", "span"),),
        "bottom": ((prefix + "leaf", "leaf"),),
    }
    # Clock reads, in call order: outer start 0; mid start 1; leaf 2..4;
    # mid end 6; leaf 7..8; outer end 10.
    ticks = iter([0.0, 1.0, 2.0, 4.0, 6.0, 7.0, 8.0, 10.0])
    tracer = Tracer(layers, clock=lambda: next(ticks))
    with tracer:
        _Synthetic().outer()
    assert vars(_Synthetic)["outer"].__name__ == "outer"  # restored
    assert tracer.self_s == {"bottom": 3.0, "middle": 3.0, "top": 4.0}
    assert tracer.calls == {"bottom": 2, "middle": 1, "top": 1}
    assert tracer.attributed_s == 10.0 == sum(tracer.self_s.values())
    mid, outer = tracer.spans
    assert (mid.layer, mid.parent, mid.run) == ("middle", outer.span_id, outer.span_id)
    assert (outer.layer, outer.parent, outer.start, outer.end) == ("top", 0, 0.0, 10.0)


# ----------------------------------------------------------------------
# calibrate
# ----------------------------------------------------------------------


def test_sampler_samples_inside_a_region_and_gives_the_signal_back():
    before = signal.getsignal(signal.SIGALRM)
    sampler = calibrate.Sampler()
    with sampler.region():
        assert signal.getsignal(signal.SIGALRM) == sampler._tick
        deadline = time.perf_counter() + 3 * calibrate.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sampler.samples >= 1
    assert 0.0 < sampler.kernel_wall_s < sampler.wall_s


def test_sampler_states_time_at_the_reference_speed():
    sampler = calibrate.Sampler()
    # Four samples of twice the reference time: the machine ran at half
    # speed, so 1 s of program time is 0.5 s at the reference speed.
    sampler.samples = 4
    sampler.kernel_wall_s = sampler.kernel_cpu_s = 8 * calibrate.REFERENCE_S
    sampler.wall_s = 1.0 + sampler.kernel_wall_s
    sampler.cpu_s = 0.8 + sampler.kernel_cpu_s
    assert sampler.at_reference() == pytest.approx((0.5, 0.4, 2.0))


def test_unsampled_regions_are_only_clocked():
    before = signal.getsignal(signal.SIGALRM)
    sampler = calibrate.Sampler(sample=False)
    with sampler.region():
        assert signal.getsignal(signal.SIGALRM) is before
    assert sampler.samples == 0 and sampler.wall_s > 0.0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def _record(seed, wall, p99):
    host = {
        m.name: {"median": 1.0, "q1": 1.0, "q3": 1.0}
        for m in spec.END_TO_END
        if m.clock == "host"
    }
    host["wall_qps"] = {"median": wall, "q1": wall * 0.98, "q3": wall * 1.02}
    sim = {m.name: 1.0 for m in spec.END_TO_END if m.clock == "sim"}
    sim["sim_p99_us"] = p99
    return {"seed": seed, "workloads": {"tenant_mix": {"host": host, "sim": sim}}}


def test_compare_verdicts():
    def verdicts(base, new):
        return {r["metric"]: r["verdict"] for r in compare.compare(base, new)}

    base = _record(1, 1000.0, 400.0)
    assert set(verdicts(base, base).values()) == {"same"}
    v = verdicts(base, _record(1, 990.0, 400.0 + 1e-3))
    assert v["wall_qps"] == "unresolved"  # inside the bound, IQRs overlap
    assert v["sim_p99_us"] == "worse"  # same seed: sim bound is 0
    v = verdicts(base, _record(2, 700.0, 401.0))
    assert v["wall_qps"] == "worse"
    assert v["sim_p99_us"] == "unresolved"  # other seed: cross-seed bound
    assert verdicts(base, _record(1, 1300.0, 399.0)) == {
        **{m.name: "same" for m in spec.END_TO_END},
        "wall_qps": "better",
        "sim_p99_us": "better",
    }
