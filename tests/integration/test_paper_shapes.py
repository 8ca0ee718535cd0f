"""Integration tests asserting the paper's headline result *shapes*.

They check who wins, by roughly what factor, and where the qualitative
crossovers lie.  Absolute numbers are not asserted here; the ``paper``
workload of ``perfbench/`` reports them (see ``perfbench/README.md``).
"""

import pytest

from repro.analysis.theory import bound_comparison, bound_for, gap_report
from repro.config import (
    ControlConfig,
    PlatformConfig,
    SimulationConfig,
)
from repro.sim.et_sim import run_simulation


def config_for(width, routing="ear", battery="thin-film", controllers=None):
    control = ControlConfig()
    if controllers is not None:
        control = ControlConfig(
            num_controllers=controllers, controller_battery="thin-film"
        )
    return SimulationConfig(
        platform=PlatformConfig(mesh_width=width, battery_model=battery),
        control=control,
        routing=routing,
    )


class TestFig7Shape:
    """EAR vs SDR (paper Fig 7): 5-15x gains, growing with mesh size."""

    def test_gain_in_paper_band_on_4x4(self):
        ear = run_simulation(config_for(4, "ear")).jobs_fractional
        sdr = run_simulation(config_for(4, "sdr")).jobs_fractional
        assert 4.0 < ear / sdr < 22.0

    def test_gain_grows_with_mesh_size(self):
        gains = []
        for width in (4, 6):
            ear = run_simulation(config_for(width, "ear")).jobs_fractional
            sdr = run_simulation(config_for(width, "sdr")).jobs_fractional
            gains.append(ear / sdr)
        assert gains[1] > gains[0]

    def test_ear_scales_with_mesh_size(self):
        j4 = run_simulation(config_for(4, "ear")).jobs_fractional
        j6 = run_simulation(config_for(6, "ear")).jobs_fractional
        assert j6 > 1.5 * j4

    def test_sdr_flat_with_mesh_size(self):
        # SDR dies by burning out the fixed source's neighbourhood, so
        # extra nodes buy almost nothing (the paper's flat SDR bars).
        j4 = run_simulation(config_for(4, "sdr")).jobs_fractional
        j6 = run_simulation(config_for(6, "sdr")).jobs_fractional
        assert j6 < 2.0 * j4

    def test_control_overhead_grows_with_mesh(self):
        f4 = run_simulation(config_for(4, "ear")).control_overhead_fraction
        f6 = run_simulation(config_for(6, "ear")).control_overhead_fraction
        assert f4 < f6 < 0.15


class TestTable2Shape:
    """EAR vs Theorem 1 (paper Table 2): ~45-50 % of the bound."""

    def test_bound_matches_paper_within_a_percent(self):
        for width, paper_value in ((4, 131.42), (6, 295.70), (8, 525.69)):
            bound = bound_for(config_for(width, battery="ideal"))
            assert bound.jobs == pytest.approx(paper_value, rel=0.01)

    def test_simulation_below_bound(self):
        config = config_for(4, battery="ideal")
        stats = run_simulation(config)
        comparison = bound_comparison(config, stats)
        assert comparison.simulated_jobs < comparison.bound_jobs

    def test_ratio_in_band(self):
        config = config_for(4, battery="ideal")
        stats = run_simulation(config)
        comparison = bound_comparison(config, stats)
        # Paper: 44.5-48.2 %.  Accept the 0.40-0.70 band for the
        # reproduction (the ``paper`` benchmark measures 0.4926 on the
        # 8x8 point, see perfbench/README.md).
        assert 0.40 < comparison.ratio < 0.70

    def test_gap_report_fractions_sum_to_one(self):
        config = config_for(4, battery="ideal")
        stats = run_simulation(config)
        report = gap_report(config, stats)
        total = (
            report["spent_compute"]
            + report["spent_data"]
            + report["spent_upload"]
            + report["conversion_loss"]
            + report["wasted_dead"]
            + report["stranded_alive"]
        )
        assert total == pytest.approx(1.0, abs=1e-6)


class TestFig8Shape:
    """Controller provisioning (paper Fig 8)."""

    def test_plateau_at_node_limited_lifetime(self):
        unlimited = run_simulation(config_for(4)).jobs_fractional
        plateau = run_simulation(
            config_for(4, controllers=4)
        ).jobs_fractional
        assert plateau == pytest.approx(unlimited, rel=0.05)

    def test_single_controller_limits_lifetime(self):
        unlimited = run_simulation(config_for(4)).jobs_fractional
        limited = run_simulation(config_for(4, controllers=1)).jobs_fractional
        assert limited < 0.9 * unlimited

    def test_tails_decrease_with_mesh_size(self):
        # With one controller, bigger meshes complete fewer jobs because
        # the controller burns proportionally more (paper Sec 7.3).
        j4 = run_simulation(config_for(4, controllers=1)).jobs_fractional
        j6 = run_simulation(config_for(6, controllers=1)).jobs_fractional
        assert j6 < j4
