"""Span tracing from outside the program.

The traced pass wraps the public function of every layer by patching
the name its callers resolve (a class attribute, or a module global
such as ``repro.core.engines.floyd_warshall_successors``) for the
duration of a ``with tracer.installed():`` block.  Nothing inside
``src/`` knows about it, so an untraced pass runs the program exactly
as a user does.

Each wrapped call is a span.  Per span name the tracer keeps the call
count, the busy time (sum of span durations) and the self time (busy
time minus the time covered by wrapped calls made inside the span).
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: ``(span name, module, attribute path)`` of every wrapped function.
#: The module/attribute is where callers *resolve* the name, which is
#: not always where it is defined.  Several targets may share a span.
TARGETS: tuple[tuple[str, str, str], ...] = (
    # core: the routing algorithm's three phases
    ("core.plan", "repro.core.engines", "RoutingEngine.compute_plan"),
    ("core.costs", "repro.core.costs", "CostPipeline.weight_matrix"),
    ("core.apsp", "repro.core.engines", "floyd_warshall_successors"),
    ("core.phase3", "repro.core.engines", "select_destinations"),
    # control: one TDMA frame of the controller
    ("control.frame", "repro.control.controller", "ControlPlane.process_frame"),
    # sim: engine construction and the run loop
    ("sim.build", "repro.sim.registry", "build_engine"),
    ("sim.run", "repro.sim.sequential_engine", "SequentialEngine.run"),
    # battery: per-node cells, the level tracker and the vector banks
    ("battery.draw", "repro.sim.node", "NetworkNode.draw"),
    ("battery.rest", "repro.sim.node", "NetworkNode.rest"),
    ("battery.level_observe", "repro.battery.monitor", "LevelTracker.observe"),
    ("battery.bank_draw", "repro.sim.vector_bank", "IdealBatteryBank.draw"),
    ("battery.bank_draw", "repro.sim.vector_bank", "ThinFilmBatteryBank.draw"),
    # aes: job construction, per-operation transforms, verification
    ("aes.job_setup", "repro.sim.workload", "JobFactory.next_job"),
    ("aes.op", "repro.sim.job", "Job.execute_current"),
    ("aes.verify", "repro.sim.job", "Job.verify"),
    # harvest and fault hooks, once per frame each
    ("harvest.income", "repro.harvest.schedule", "HarvestSchedule.income"),
    ("faults.due", "repro.faults.schedule", "FaultRuntime.due"),
    ("faults.expire", "repro.faults.schedule", "FaultRuntime.expire_degradations"),
    # orchestration: one sweep point, and the sweep cache
    ("orchestration.point", "repro.orchestration.runner", "execute_point"),
    ("orchestration.cache.lookup", "repro.orchestration.cache", "SweepCache.lookup"),
    ("orchestration.cache.store", "repro.orchestration.cache", "SweepCache.store"),
    # fleet: garment sampling and aggregation
    ("fleet.sample", "repro.fleet.distribution", "FleetDistribution.points"),
    ("fleet.observe", "repro.fleet.aggregate", "FleetAggregator.observe"),
    ("fleet.aggregate", "repro.fleet.aggregate", "FleetAggregator.aggregate"),
)


@dataclass
class SpanStats:
    """Count, busy seconds and self seconds of one span name."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Collects spans while installed; inert otherwise.

    It wraps every entry of :data:`TARGETS`.  Besides the timings the
    tracer counts two things the layer metrics need from the call
    arguments and results: APSP calls whose weight matrix is
    byte-equal to the previous call's in the same engine run, and
    frames on which the controller re-planned.
    """

    def __init__(self):
        self.spans: dict[str, SpanStats] = {
            name: SpanStats() for name, _, _ in TARGETS
        }
        #: Stack of child-time accumulators, one per open span.
        self._open: list[float] = []
        self.apsp_repeats = 0
        self.replans = 0
        self._last_weights: bytes | None = None

    # ------------------------------------------------------------------
    def _wrap(self, name: str, function):
        stats = self.spans[name]
        opened = self._open
        before, after = self._hooks(name)

        def span(*args, **kwargs):
            if before is not None:
                before(args)
            opened.append(0.0)
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = opened.pop()
                stats.calls += 1
                stats.busy_s += elapsed
                stats.self_s += elapsed - children
                if opened:
                    opened[-1] += elapsed
            if after is not None:
                after(result)
            return result

        span.__wrapped__ = function
        return span

    def _hooks(self, name: str):
        if name == "sim.run":
            return self._start_run, None
        if name == "core.apsp":
            return self._see_weights, None
        if name == "control.frame":
            return None, self._see_outcome
        return None, None

    def _start_run(self, args) -> None:
        self._last_weights = None

    def _see_weights(self, args) -> None:
        weights = args[0].tobytes()
        if weights == self._last_weights:
            self.apsp_repeats += 1
        self._last_weights = weights

    def _see_outcome(self, outcome) -> None:
        if outcome.recomputed:
            self.replans += 1

    # ------------------------------------------------------------------
    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        restore = []
        try:
            for name, module_name, path in TARGETS:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                # Read the raw attribute so a method is re-installed as
                # the plain function it was, not as a bound method.
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(name, original))
                restore.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Call count per span plus the argument/result counters —
        the part of a trace that must repeat exactly."""
        counts = {name: stats.calls for name, stats in self.spans.items()}
        counts["core.apsp.repeats"] = self.apsp_repeats
        counts["control.replans"] = self.replans
        return counts

    def table(self) -> list[str]:
        """Human-readable per-span table, busiest self time first."""
        total = sum(stats.self_s for stats in self.spans.values()) or 1.0
        lines = [
            f"{'span':<28} {'calls':>10} {'busy_s':>10} {'self_s':>10} "
            f"{'self%':>6}"
        ]
        ranked = sorted(
            self.spans.items(), key=lambda item: item[1].self_s, reverse=True
        )
        for name, stats in ranked:
            lines.append(
                f"{name:<28} {stats.calls:>10} {stats.busy_s:>10.4f} "
                f"{stats.self_s:>10.4f} {100 * stats.self_s / total:>6.1f}"
            )
        return lines


def per_call(stats: SpanStats, scale: float, self_time: bool = False) -> float:
    """Mean busy (or self) time per call, times ``scale``; 0 when the
    span never ran (the workload bypasses that layer)."""
    if not stats.calls:
        return 0.0
    seconds = stats.self_s if self_time else stats.busy_s
    return seconds / stats.calls * scale


def layer_metrics(tracer: Tracer, work: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass.

    ``work`` carries the pass's simulated work counters that no span
    sees: ``hops`` (total hops walked), ``node_frames`` (frames x mesh
    nodes, summed over runs) and ``garments`` (fleet garments sampled).
    """
    s = tracer.spans
    ms, us = 1e3, 1e6
    apsp_calls = s["core.apsp"].calls
    frames = s["control.frame"].calls
    battery_self = sum(
        s[name].self_s
        for name in (
            "battery.draw",
            "battery.rest",
            "battery.level_observe",
            "battery.bank_draw",
        )
    )
    due = s["faults.due"]
    hops = work["hops"]
    node_frames = work["node_frames"]
    garments = work["garments"]
    return {
        "core.plan.calls": (s["core.plan"].calls, "count"),
        "core.plan.self_ms": (per_call(s["core.plan"], ms, True), "ms"),
        "core.apsp.calls": (apsp_calls, "count"),
        "core.apsp.ms": (per_call(s["core.apsp"], ms), "ms"),
        "core.apsp.repeat_ratio": (
            tracer.apsp_repeats / apsp_calls if apsp_calls else 0.0,
            "ratio",
        ),
        "core.costs.ms": (per_call(s["core.costs"], ms), "ms"),
        "core.phase3.ms": (per_call(s["core.phase3"], ms), "ms"),
        "control.frames": (frames, "count"),
        "control.frame_self_us": (
            per_call(s["control.frame"], us, True),
            "us",
        ),
        "control.replan_ratio": (
            tracer.replans / frames if frames else 0.0,
            "ratio",
        ),
        "sim.build_ms": (per_call(s["sim.build"], ms), "ms"),
        "sim.self_s": (s["sim.run"].self_s, "s"),
        "sim.us_per_hop": (
            s["sim.run"].self_s / hops * us if hops else 0.0,
            "us",
        ),
        "battery.draws": (s["battery.draw"].calls, "count"),
        "battery.draw_us": (per_call(s["battery.draw"], us), "us"),
        "battery.rest_us": (per_call(s["battery.rest"], us), "us"),
        "battery.level_observe_us": (
            per_call(s["battery.level_observe"], us),
            "us",
        ),
        "battery.bank_draws": (s["battery.bank_draw"].calls, "count"),
        "battery.bank_draw_us": (per_call(s["battery.bank_draw"], us), "us"),
        "battery.us_per_node_frame": (
            battery_self / node_frames * us if node_frames else 0.0,
            "us",
        ),
        "aes.jobs": (s["aes.job_setup"].calls, "count"),
        "aes.job_setup_us": (per_call(s["aes.job_setup"], us), "us"),
        "aes.ops": (s["aes.op"].calls, "count"),
        "aes.op_us": (per_call(s["aes.op"], us), "us"),
        "aes.verify_us": (per_call(s["aes.verify"], us), "us"),
        "harvest.income_calls": (s["harvest.income"].calls, "count"),
        "harvest.income_us": (per_call(s["harvest.income"], us), "us"),
        "faults.due_calls": (due.calls, "count"),
        "faults.due_us": (
            (due.busy_s + s["faults.expire"].busy_s) / due.calls * us
            if due.calls
            else 0.0,
            "us",
        ),
        "orchestration.points": (s["orchestration.point"].calls, "count"),
        "orchestration.point_ms": (
            per_call(s["orchestration.point"], ms),
            "ms",
        ),
        "fleet.sample_us": (
            s["fleet.sample"].busy_s / garments * us if garments else 0.0,
            "us",
        ),
        "fleet.observe_us": (per_call(s["fleet.observe"], us), "us"),
        "fleet.aggregate_ms": (per_call(s["fleet.aggregate"], ms), "ms"),
    }
