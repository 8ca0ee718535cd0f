"""EXP-T2 — paper Table 2: EAR (ideal battery) vs the Theorem-1 bound.

The paper reports ratios of 44.5-48.2 % across the five mesh sizes, with
the bound itself given by ``J* = B*K / sum(H_i)``.  The reproduction's
bound matches the paper's numbers to within ~0.1 % (the communication
energy is calibrated from this very table, see
``repro.analysis.calibration``); the ``paper`` benchmark measures a ratio
of 0.4926 at 8x8 (see ``perfbench/README.md``).

Simulated points come from the ``table2`` scenario through the cached
orchestration runner; the analytical bound is evaluated in-process.
"""

from bench_plumbing import SCALE, SMOKE

from repro.analysis.calibration import (
    PAPER_TABLE2_EAR_JOBS,
    PAPER_TABLE2_UPPER_BOUNDS,
)
from repro.analysis.tables import format_table
from repro.analysis.theory import bound_for
from repro.config import PlatformConfig, SimulationConfig
from repro.orchestration import build_scenario


def run_table2(runner):
    records = runner.run(build_scenario("table2", scale=SCALE))
    rows = []
    for record in records:
        width = int(record.params["mesh"].split("x")[0])
        jobs = record.summary["jobs_fractional"]
        bound = bound_for(
            SimulationConfig(
                platform=PlatformConfig(
                    mesh_width=width, battery_model="ideal"
                ),
                routing="ear",
            )
        ).jobs
        rows.append(
            (
                f"{width}x{width}",
                round(jobs, 1),
                round(bound, 2),
                f"{100 * jobs / bound:.1f}%",
                PAPER_TABLE2_EAR_JOBS[width],
                PAPER_TABLE2_UPPER_BOUNDS[width],
                f"{100 * PAPER_TABLE2_EAR_JOBS[width] / PAPER_TABLE2_UPPER_BOUNDS[width]:.1f}%",
            )
        )
    return rows


def test_table2_upper_bound(benchmark, reporter, sweep_runner):
    rows = benchmark.pedantic(
        run_table2, args=(sweep_runner,), rounds=1, iterations=1
    )
    table = format_table(
        [
            "mesh",
            "J(EAR) ours",
            "J* ours",
            "ratio ours",
            "J(EAR) paper",
            "J* paper",
            "ratio paper",
        ],
        rows,
        title="Table 2 — EAR vs the analytical upper bound (ideal battery)",
    )
    reporter.add("Table 2 EAR vs upper bound", table)

    for row in rows:
        mesh, jobs, bound = row[0], row[1], row[2]
        paper_bound = PAPER_TABLE2_UPPER_BOUNDS[int(mesh[0])]
        # The bound must match the paper almost exactly.
        assert abs(bound - paper_bound) / paper_bound < 0.01, mesh
        # The simulation must stay below its bound...
        assert jobs < bound
        if SMOKE:
            continue  # job-capped smoke runs stop far below the bound
        # ...while achieving a comparable fraction (paper: 44.5-48.2 %).
        assert 0.40 < jobs / bound < 0.70, mesh
