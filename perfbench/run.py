"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload paper --seed 2005 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` runs one untraced pass, then traced passes with every
layer's public function wrapped (see ``tracing.py``), and prints the
per-layer table and metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed correctness check
exits with status 1 and prints no result.

Run it from anywhere: the program is imported from ``src/`` next to
this directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups measured after each pass, each in a fresh interpreter.  The
#: median over the whole run is reported: spreading the probes over the
#: run keeps one burst of host load from moving every sample.
SETUP_PROBES = 3


def import_program():
    """Import the benchmark's workloads and, with them, ``repro`` from
    this checkout's ``src/``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    import repro

    source = Path(repro.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        raise SystemExit(f"perfbench: imported repro from {source}, not {ROOT}/src")
    return workloads


def probe_setup(name: str, seed: int) -> float:
    """Seconds to import ``repro``, build the workload's configs or
    garment points and (where the benchmark builds them) its engines."""
    began = time.perf_counter()
    workloads = import_program()
    workload = workloads.make(name, seed, workers=1)
    workload.set_up()
    return time.perf_counter() - began


def measure_setup(name: str, seed: int) -> list[float]:
    """Set the workload up :data:`SETUP_PROBES` times, each in a fresh
    interpreter so the import is paid every time.  The probes become
    children of this process, so read the children's peak RSS first.

    The samples are in seconds; the caller rescales them."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed), "--probe-setup",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (q in 1..99) by ``statistics.quantiles``."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workloads, workload, args, workdir: Path):
    """Untraced passes, each followed by replays from its warm cache
    and by set-up probes, until the next pass would overrun
    ``--seconds``.  Timed intervals are bracketed by host probes and
    reported in reference seconds (see ``speed.py``), except the passes
    of a workload that is not ``probed``; set-up is rescaled by the
    run's mean factor.  The claims are computed once, after the first
    pass, outside the budget."""
    from perfbench.speed import RAW, HostClock

    passes, durations, setup = [], [], []
    began = time.perf_counter()
    # Replays are pure Python on every workload; passes only where the
    # workload says so.
    clock = HostClock()
    pass_clock = clock if workload.probed else RAW
    while True:
        directory = workdir / f"pass{len(passes)}"
        # Start every pass from the same heap, not from the last pass's
        # garbage.
        gc.collect()
        passes.append(workload.run_pass(directory, pass_clock))
        gc.collect()
        replay = workload.replay(
            passes[-1], directory, workloads.REPLAYS, clock
        )
        durations += replay.durations
        if len(passes) == 1:
            claimed = time.perf_counter()
            bound_fraction, ear_over_sdr = workload.claims(passes[0])
            # The largest child so far is a pool worker of the passes or
            # of the fleet's SDR twin, never a set-up probe.
            children_kb = resource.getrusage(
                resource.RUSAGE_CHILDREN
            ).ru_maxrss
            began += time.perf_counter() - claimed
        setup += measure_setup(args.workload, args.seed)
        spent = time.perf_counter() - began
        if spent + spent / len(passes) > args.seconds:
            break
    digests = {result.digest for result in passes}
    workloads.check(
        len(digests) == 1, f"{workload.name}: passes disagree: {sorted(digests)}"
    )
    cold = passes[-1]
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    wall = statistics.median(result.ref_s for result in passes)
    garment_s = [run.elapsed_s for result in passes for run in result.runs]
    metrics = {
        "setup_s": (statistics.median(setup) * clock.factor, "s"),
        "wall_s": (wall, "s"),
        "jobs_per_s": (cold.jobs / wall, "1/s"),
        "garments_per_s": (len(cold.runs) / wall, "1/s"),
        "replay_garments_per_s": (
            replay.runs / statistics.median(durations), "1/s"),
        # This process plus its largest pool worker (none on paper
        # and body-fabric).
        "peak_rss_mb": ((own_kb + children_kb) / 1024.0, "MB"),
        "bound_fraction": (bound_fraction, "ratio"),
        "ear_over_sdr": (ear_over_sdr, "ratio"),
    }
    report = [
        f"perfbench {workload.name} seed={args.seed} passes={len(passes)} "
        f"runs/pass={len(cold.runs)}",
        f"digest {cold.digest}",
        f"host factor {clock.factor:.4f} reference s/s; raw setup_s samples "
        + " ".join(f"{sample:.4f}" for sample in setup),
        f"replays={len(durations)}",
        "pass wall_s, reference (raw) seconds: " + " ".join(
            f"{result.ref_s:.4f} ({result.wall_s:.4f})" for result in passes
        ),
        # Reported, not gated: on the paper sweep the median run is one
        # 0.2 s run, whose time swings with host load beyond any bound.
        f"garment_s.p50 {quantile(garment_s, 50):.6g} s  "
        f"garment_s.p90 {quantile(garment_s, 90):.6g} s  "
        f"(samples={len(garment_s)})",
    ]
    runs = len(cold.runs) * len(passes)
    attempted = runs + (workloads.FLEET_SIZE if workload.name == "fleet" else 0)
    return metrics, report, attempted


def per_layer(workloads, workload, args, workdir: Path):
    """One untraced pass, then traced passes within ``--seconds`` (at
    least two, so their span counts can be compared)."""
    from perfbench.tracing import Tracer, layer_metrics

    began = time.perf_counter()
    plain = workload.run_pass(workdir / "plain", workers=workload.workers)
    replay = workload.replay(plain, workdir / "plain", workloads.REPLAYS)
    untraced = time.perf_counter() - began

    # Each traced pass is followed by one traced replay, so the cache
    # lookup and fleet sampling layers appear in the trace too.
    traces = []
    while True:
        directory = workdir / f"traced{len(traces)}"
        tracer = Tracer()
        sampled = workload.garments_sampled
        with tracer.installed():
            result = workload.run_pass(directory)
            workload.replay(result, directory, 1)
        traces.append((tracer, result, workload.garments_sampled - sampled))
        spent = time.perf_counter() - began
        if len(traces) >= 2 and (
            spent + (spent - untraced) / len(traces) > args.seconds
        ):
            break
    for tracer, result, _ in traces:
        workloads.check(
            result.digest == plain.digest,
            f"{workload.name}: the traced pass changed the simulated statistics",
        )
        workloads.check(
            tracer.counts() == traces[0][0].counts(),
            f"{workload.name}: span counts differ between traced passes",
        )
    tracer, traced, sampled = traces[0]
    metrics = layer_metrics(
        tracer,
        {"hops": traced.hops, "node_frames": traced.node_frames,
         "garments": sampled},
    )
    counters = replay.counters
    stores = plain.cache or counters
    lookups = counters["hits"] + counters["misses"]
    metrics.update({
        "orchestration.worker_busy_ratio": (
            plain.busy_s / (plain.wall_s * workload.workers), "ratio"),
        "orchestration.cache.store_us": (
            stores["store_s"] / stores["stores"] * 1e6, "us"),
        "orchestration.cache.lookup_us": (
            counters["lookup_s"] / lookups * 1e6, "us"),
        "orchestration.cache.hit_ratio": (counters["hits"] / lookups, "ratio"),
        "trace_overhead": (traced.busy_s / plain.busy_s, "ratio"),
    })
    report = [
        f"perfbench {workload.name} seed={args.seed} traced passes={len(traces)} "
        f"runs/pass={len(plain.runs)}",
        f"digest {plain.digest}",
        *tracer.table(),
    ]
    attempted = len(plain.runs) * (1 + len(traces))
    return metrics, report, attempted


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper", "body-fabric", "fleet"))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    # The fleet runs on the program's default cache backend.
    os.environ.pop("ETSIM_CACHE_BACKEND", None)

    if args.probe_setup:
        print(probe_setup(args.workload, args.seed))
        return 0

    workloads = import_program()
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    workers = len(os.sched_getaffinity(0))
    workload = workloads.make(args.workload, args.seed, workers)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, report, attempted = measure(workloads, workload, args, workdir)
    except workloads.BenchmarkFailure as failure:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's scratch directory is still there

    width = max(len(name) for name in metrics)
    for line in report:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
