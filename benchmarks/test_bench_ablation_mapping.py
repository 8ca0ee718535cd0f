"""EXP-AB-MAP — ablation: module-to-node mapping strategies.

Compares the paper's checkerboard rule against the Theorem-1
proportional mapping and a uniform round-robin baseline.  Theorem 1
says duplicates should scale with the normalised energies H_i; the
checkerboard approximates that on square meshes, the uniform mapping
does not.

The strategy x width grid runs through the cached orchestration runner.
"""

from bench_plumbing import SMOKE, bench_cap, bench_widths

from repro.analysis.tables import format_table
from repro.config import PlatformConfig, SimulationConfig, WorkloadConfig
from repro.orchestration import SweepPoint

STRATEGIES = ("checkerboard", "proportional", "uniform")
WIDTHS = bench_widths((4, 6))


def _points():
    workload = WorkloadConfig(max_jobs=bench_cap())
    return [
        SweepPoint(
            label=f"{width}x{width}/{strategy}",
            config=SimulationConfig(
                platform=PlatformConfig(
                    mesh_width=width, mapping_strategy=strategy
                ),
                routing="ear",
                workload=workload,
            ),
            params={"mesh": f"{width}x{width}", "strategy": strategy},
        )
        for width in WIDTHS
        for strategy in STRATEGIES
    ]


def run_mapping_grid(runner):
    jobs: dict[str, dict[str, float]] = {}
    for record in runner.run(_points()):
        jobs.setdefault(record.params["mesh"], {})[
            record.params["strategy"]
        ] = record.summary["jobs_fractional"]
    return [
        (mesh, *(round(by_strategy[s], 1) for s in STRATEGIES))
        for mesh, by_strategy in jobs.items()
    ]


def test_ablation_mapping(benchmark, reporter, sweep_runner):
    rows = benchmark.pedantic(
        run_mapping_grid, args=(sweep_runner,), rounds=1, iterations=1
    )
    table = format_table(
        ["mesh", *STRATEGIES],
        rows,
        title="Ablation — mapping strategy (EAR, thin-film battery)",
    )
    reporter.add("Ablation mapping strategies", table)

    if SMOKE:
        assert all(row[1] > 0 for row in rows)
        return  # strategy gaps need uncapped runs
    # On the tight 4x4 fabric, where module-1 scarcity binds, the
    # energy-proportional mappings beat the uniform baseline.  On larger
    # fabrics EAR's online balancing narrows the gap, so only rough
    # parity is required.
    small = rows[0]
    assert small[1] > small[3]
    assert small[2] > small[3]
    for row in rows:
        checkerboard, proportional, uniform = row[1], row[2], row[3]
        assert checkerboard > 0.9 * uniform
        assert proportional > 0.85 * uniform
