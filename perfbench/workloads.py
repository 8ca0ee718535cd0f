"""The benchmark's three workloads.

Every workload is a closed loop of batch simulations: the next run
starts when the previous one finishes.  A *pass* runs the workload once, untraced or traced; a
*replay* serves the same runs again from a warm sweep cache, the way a
user re-running a finished sweep or fleet gets them.

* ``paper`` — the paper's own experiment on the sequential engine: the
  Fig 7 grid and the Table 2 8x8 point with its Theorem 1 bound.
* ``body-fabric`` — body-scale fabrics on the vector engine, where the
  all-pairs re-plan dominates.
* ``fleet`` — the ``default`` garment population through ``run_fleet``,
  cold into a fresh cache and then replayed from it.

The seed feeds the data each run encrypts: ``WorkloadConfig.seed`` (the
plaintexts) for ``paper`` and ``body-fabric``.  The fleet's population
is pinned to :data:`FLEET_SEED`, because which garments a seed draws
moves the fleet's cost by far more than the bounds this benchmark
gates on; its seed feeds the AES key every garment encrypts under.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace

from repro.analysis.theory import bound_for
from repro.config import SimulationConfig, WorkloadConfig
from repro.fleet.distribution import FLEET_PRESETS
from repro.fleet.runner import run_fleet
from repro.orchestration.cache import SweepCache, config_hash
from repro.orchestration.runner import make_runner
from repro.orchestration.scenarios import build_scenario
from repro.sim.et_sim import EtSim

from perfbench.speed import RAW

#: Seed used when none is given, and a second seed kept aside so a
#: later claim can be checked on inputs it was not tuned on.
DEFAULT_SEED = 2005
CHECK_SEED = 4728

#: The fleet's pinned population and its size.
FLEET_SEED = 2005
FLEET_SIZE = 48

#: Job cap of the 24x24 body-fabric legs: two frames and two plans
#: each, the second of SDR's plans on an unchanged weight matrix.
BODY_24_JOBS = 8

#: Replays after each pass: one takes milliseconds, so each pass
#: replays its runs many times.
REPLAYS = 40


class BenchmarkFailure(Exception):
    """A correctness check failed; the benchmark must not report."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise BenchmarkFailure(message)


@dataclass
class Run:
    """One finished simulation of a pass."""

    label: str
    summary: dict
    elapsed_s: float
    nodes: int


@dataclass
class PassResult:
    """One pass of a workload.

    ``wall_s`` is the pass's time in seconds and ``ref_s`` the same in
    reference seconds (equal to ``wall_s`` on :data:`~perfbench.speed.RAW`).
    ``aggregate`` is the canonical fleet aggregate as sorted JSON (empty
    for workloads without one); ``cache`` holds the sweep-cache
    counters of the pass's cold writes, if it made any.
    """

    wall_s: float
    ref_s: float
    runs: list[Run]
    aggregate: str = ""
    cache: dict = field(default_factory=dict)

    @property
    def busy_s(self) -> float:
        return sum(run.elapsed_s for run in self.runs)

    @property
    def jobs(self) -> int:
        return sum(run.summary["jobs_completed"] for run in self.runs)

    @property
    def hops(self) -> int:
        return sum(run.summary["total_hops"] for run in self.runs)

    @property
    def node_frames(self) -> int:
        return sum(
            run.summary["lifetime_frames"] * run.nodes for run in self.runs
        )

    @property
    def digest(self) -> str:
        """sha256 over every run's timing-free summary (by label) and
        the fleet aggregate."""
        runs = sorted((run.label, run.summary) for run in self.runs)
        payload = json.dumps([runs, self.aggregate], sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class ReplayResult:
    """Replays of one pass from a warm cache: the runs each replay
    serves, every replay's duration, and the cache's counters."""

    runs: int
    durations: list[float]
    counters: dict


# ----------------------------------------------------------------------
# Workloads that build and run their engines directly
# ----------------------------------------------------------------------
class EngineWorkload:
    """A fixed list of sweep points run one after another in-process.

    The benchmark builds each engine itself (engine construction is
    set-up, not pass time) and keeps ``EtSim.run``'s AES verification
    check.  ``bound_label`` names the ideal-battery EAR run compared
    with Theorem 1; ``pair`` names the (EAR, SDR) runs whose job ratio
    is the paper's headline claim.  ``probed`` says whether the passes
    are timed in reference seconds: the host probe tracks pure-Python
    runs, not NumPy-bound ones.
    """

    workers = 1
    garments_sampled = 0

    def __init__(self, name, points, bound_label, pair, probed, expect=None):
        self.name = name
        self.points = points
        self.bound_label = bound_label
        self.pair = pair
        self.probed = probed
        self.expect = expect

    def build_engines(self) -> list:
        return [EtSim(point.config).build_engine() for point in self.points]

    def set_up(self) -> None:
        """The set-up work ``setup_s`` times: the engines."""
        self.build_engines()

    def run_pass(self, workdir, clock=RAW, workers: int = 1) -> PassResult:
        """One pass over the points, each run timed on ``clock``.
        ``workdir`` and ``workers`` are unused here: a pass caches
        nothing and runs in-process."""
        engines = self.build_engines()
        runs = []
        wall = ref = 0.0
        clock.mark()
        for point, engine in zip(self.points, engines):
            started = time.perf_counter()
            stats = engine.run()
            elapsed = time.perf_counter() - started
            wall += elapsed
            ref += clock.reference(elapsed)
            check(
                stats.verification_failures == 0,
                f"{point.label}: {stats.verification_failures} jobs failed "
                "AES verification",
            )
            runs.append(
                Run(point.label, stats.summary(), elapsed,
                    point.config.platform.num_mesh_nodes)
            )
        return PassResult(wall, ref, runs)

    def replay(
        self, cold: PassResult, workdir, count: int, clock=RAW
    ) -> ReplayResult:
        """Store the pass's summaries, then serve them back through the
        sweep runner ``count`` times, timed on ``clock``."""
        cache = SweepCache(workdir)
        for point, run in zip(self.points, cold.runs):
            cache.store(
                config_hash(point.config),
                {
                    "label": point.label,
                    "params": dict(point.params),
                    "summary": run.summary,
                },
            )
        expected = [run.summary for run in cold.runs]
        runner = make_runner(1, cache=cache)
        durations: list[float] = []
        clock.mark()
        for _ in range(count):
            began = time.perf_counter()
            records = runner.run(self.points)
            durations.append(clock.reference(time.perf_counter() - began))
            check(
                all(record.cached for record in records),
                f"{self.name}: replay re-simulated a stored run",
            )
            check(
                [record.summary for record in records] == expected,
                f"{self.name}: replayed summaries differ from the cold pass",
            )
        counters = cache.counters()
        counters["stores"] = len(self.points)
        return ReplayResult(len(self.points), durations, counters)

    def claims(self, cold: PassResult) -> tuple[float, float]:
        """(jobs over the Theorem 1 bound, EAR jobs over SDR jobs)."""
        jobs = {run.label: run.summary["jobs_completed"] for run in cold.runs}
        config = next(
            point.config
            for point in self.points
            if point.label == self.bound_label
        )
        ear, sdr = self.pair
        fraction = jobs[self.bound_label] / bound_for(config).jobs
        ratio = jobs[ear] / jobs[sdr]
        if self.expect is not None:
            (low, high), least = self.expect
            check(
                low < fraction < high and ratio > least,
                f"{self.name}: bound fraction {fraction:.3f} or EAR/SDR "
                f"ratio {ratio:.1f} no longer matches the paper",
            )
        return fraction, ratio


def paper(seed: int) -> EngineWorkload:
    """Fig 7 (4x4..8x8, EAR and SDR, thin-film, run to death) plus the
    Table 2 8x8 EAR point on the ideal battery."""
    base = SimulationConfig(workload=WorkloadConfig(seed=seed))
    points = build_scenario("fig7", "full", base)
    table2 = next(
        point
        for point in build_scenario("table2", "full", base)
        if point.label == "8x8/ear"
    )
    points.append(replace(table2, label="8x8/ear/ideal"))
    # The paper's claims: EAR reaches about half of Theorem 1's bound
    # and completes an order of magnitude more jobs than SDR.
    return EngineWorkload(
        "paper",
        points,
        "8x8/ear/ideal",
        ("8x8/ear", "8x8/sdr"),
        probed=True,
        expect=((0.35, 0.65), 5.0),
    )


def body_fabric(seed: int) -> EngineWorkload:
    """16x16 EAR (thin-film, 60 jobs) and the 24x24 EAR/SDR pair (ideal
    battery, :data:`BODY_24_JOBS` jobs), all on the vector engine with
    the frame length fitted to the TDMA control section."""
    base = SimulationConfig(workload=WorkloadConfig(seed=seed))
    points = build_scenario("vector-mesh", "quick", base)
    for point in build_scenario("vector-mesh", "full", base):
        if point.label.startswith("24x24/"):
            config = point.config
            config = replace(
                config,
                workload=replace(config.workload, max_jobs=BODY_24_JOBS),
            )
            points.append(replace(point, config=config))
    return EngineWorkload(
        "body-fabric",
        points,
        "24x24/ear/vec",
        ("24x24/ear/vec", "24x24/sdr/vec"),
        probed=False,
    )


# ----------------------------------------------------------------------
# The fleet
# ----------------------------------------------------------------------
def aes_key_for(seed: int) -> str:
    """A 128-bit AES key derived from the benchmark seed."""
    return hashlib.sha256(f"perfbench/{seed}".encode("utf-8")).hexdigest()[:32]


class FleetWorkload:
    """The ``default`` preset through ``run_fleet``.

    A pass keeps ``workers`` runs in flight on the program's process
    pool, or runs in-process when ``workers`` is 1.  The timed passes
    and the traced passes run in-process: the host probes run between
    garments in this process, and the wrappers do not reach pool
    workers.
    """

    name = "fleet"
    probed = True

    def __init__(self, seed: int, workers: int):
        self.distribution = FLEET_PRESETS["default"]
        self.base = SimulationConfig(
            workload=WorkloadConfig(aes_key_hex=aes_key_for(seed))
        )
        self.workers = workers
        self.garments_sampled = 0

    def set_up(self) -> None:
        """The set-up work ``setup_s`` times: the garments' sweep
        points, sampled as ``run_fleet`` samples them."""
        self.distribution.points(FLEET_SEED, range(FLEET_SIZE), self.base)

    def _run(self, cache, workers, runs=None, base=None, each=None):
        def collect(record, done, size):
            width, height = record.params["mesh"].split("x")
            runs.append(
                Run(record.label, record.summary, record.elapsed_s,
                    int(width) * int(height))
            )
            if each is not None:
                each()

        return run_fleet(
            self.distribution,
            FLEET_SIZE,
            FLEET_SEED,
            base=base if base is not None else self.base,
            workers=workers,
            cache=cache,
            progress=collect if runs is not None else None,
        )

    def run_pass(self, workdir, clock=RAW, workers: int = 1) -> PassResult:
        """One cold pass into a fresh cache directory, timed on
        ``clock`` garment by garment: the probes run between garments,
        outside the timed segments, so a probing clock needs
        ``workers`` 1."""
        cache = SweepCache(workdir)
        runs: list[Run] = []
        wall = ref = 0.0

        def lap():
            nonlocal began, wall, ref
            elapsed = time.perf_counter() - began
            wall += elapsed
            ref += clock.reference(elapsed)
            began = time.perf_counter()

        clock.mark()
        began = time.perf_counter()
        result = self._run(cache, workers, runs, each=lap)
        lap()
        self.garments_sampled += FLEET_SIZE
        check(
            result.aggregator.count == FLEET_SIZE == result.executed,
            f"fleet: aggregated {result.aggregator.count} and executed "
            f"{result.executed} of {FLEET_SIZE} garments",
        )
        for run in runs:
            check(
                run.summary["verification_failures"] == 0,
                f"fleet: {run.label} failed AES verification",
            )
        aggregate = json.dumps(result.aggregator.aggregate(), sort_keys=True)
        counters = cache.counters()
        counters["stores"] = result.executed
        runs.sort(key=lambda run: run.label)
        return PassResult(wall, ref, runs, aggregate, counters)

    def replay(
        self, cold: PassResult, workdir, count: int, clock=RAW
    ) -> ReplayResult:
        """Replay the cold pass's fleet from its cache (reads only)
        ``count`` times, timed on ``clock``."""
        cache = SweepCache(workdir)
        durations: list[float] = []
        clock.mark()
        for _ in range(count):
            began = time.perf_counter()
            result = self._run(cache, self.workers)
            durations.append(clock.reference(time.perf_counter() - began))
            self.garments_sampled += FLEET_SIZE
            check(
                result.cached == FLEET_SIZE and result.executed == 0,
                f"fleet: replay served {result.cached} of {FLEET_SIZE} "
                "garments from the cache",
            )
            check(
                json.dumps(result.aggregator.aggregate(), sort_keys=True)
                == cold.aggregate,
                "fleet: replayed aggregate differs from the cold pass",
            )
        return ReplayResult(FLEET_SIZE, durations, cache.counters())

    def claims(self, cold: PassResult) -> tuple[float, float]:
        """Population jobs over the garments' Theorem 1 bounds, and EAR
        jobs over those of the same population routed by SDR."""
        bounds = sum(
            bound_for(
                self.distribution.garment_config(FLEET_SEED, index, self.base)
            ).jobs
            for index in range(FLEET_SIZE)
        )
        sdr: list[Run] = []
        self._run(None, self.workers, sdr, replace(self.base, routing="sdr"))
        sdr_jobs = sum(run.summary["jobs_completed"] for run in sdr)
        return cold.jobs / bounds, cold.jobs / sdr_jobs


def make(name: str, seed: int, workers: int):
    """The named workload, its inputs generated from ``seed``."""
    if name == "paper":
        return paper(seed)
    if name == "body-fabric":
        return body_fabric(seed)
    if name == "fleet":
        return FleetWorkload(seed, workers)
    raise ValueError(f"unknown workload {name!r}")
