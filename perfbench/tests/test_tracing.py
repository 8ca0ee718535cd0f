"""Self-test of the benchmark's tracer.

A fixed delay added to one wrapped public function must raise that
layer's time and be attributed to it alone, while every span count
stays identical: a slowdown in one layer names that layer.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import time

import pytest

import repro.core.engines as engines
from perfbench.tracing import Tracer
from repro.config import SimulationConfig, WorkloadConfig
from repro.sim.et_sim import run_simulation

#: Delay added to every all-pairs shortest-path call.
DELAY_S = 0.005

#: Small runs exercising every simulation layer: EAR and SDR on a 4x4
#: mesh, capped so the pair takes well under a second.
CONFIGS = [
    SimulationConfig(workload=WorkloadConfig(max_jobs=12), routing=routing)
    for routing in ("ear", "sdr")
]


def traced():
    tracer = Tracer()
    with tracer.installed():
        summaries = [run_simulation(config).summary() for config in CONFIGS]
    return tracer, summaries


def test_wrappers_change_nothing_and_counts_repeat():
    original = engines.floyd_warshall_successors
    plain = [run_simulation(config).summary() for config in CONFIGS]
    first, once = traced()
    second, twice = traced()
    assert once == twice == plain
    assert first.counts() == second.counts()
    for layer in ("core.plan", "core.apsp", "control.frame", "sim.run",
                  "battery.draw", "aes.op"):
        assert first.spans[layer].calls > 0, layer
    assert engines.floyd_warshall_successors is original


def test_self_time_excludes_child_spans():
    tracer, _ = traced()
    plan = tracer.spans["core.plan"]
    children = sum(
        tracer.spans[name].busy_s
        for name in ("core.costs", "core.apsp", "core.phase3")
    )
    assert plan.self_s == pytest.approx(plan.busy_s - children, abs=1e-6)


def test_delay_in_one_layer_is_attributed_to_that_layer(monkeypatch):
    baseline, summaries = traced()
    original = engines.floyd_warshall_successors

    def slow(weights):
        time.sleep(DELAY_S)
        return original(weights)

    monkeypatch.setattr(engines, "floyd_warshall_successors", slow)
    slowed, slowed_summaries = traced()

    assert slowed_summaries == summaries
    assert slowed.counts() == baseline.counts()
    injected = baseline.spans["core.apsp"].calls * DELAY_S
    added = {
        name: slowed.spans[name].self_s - stats.self_s
        for name, stats in baseline.spans.items()
    }
    assert added["core.apsp"] >= injected
    assert max(added, key=added.get) == "core.apsp"
    for name, extra in added.items():
        if name != "core.apsp":
            assert extra < 0.25 * injected, name
    # The enclosing spans' busy time carries the delay; their self time
    # does not.
    assert slowed.spans["core.plan"].busy_s - baseline.spans["core.plan"].busy_s >= injected


def test_installed_restores_on_error():
    original = engines.floyd_warshall_successors
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    assert engines.floyd_warshall_successors is original
