"""Unit tests for Theorem 1 (repro.core.upper_bound)."""

import pytest

from repro.core.parameters import ApplicationProfile
from repro.core.upper_bound import (
    jobs_for_duplicates,
    optimize_duplicates,
    theorem1,
)
from repro.errors import ConfigurationError


@pytest.fixture
def aes_profile():
    """AES profile at the calibrated per-hop energy (see
    repro.analysis.calibration)."""
    return ApplicationProfile.aes128(116.74)


class TestProfile:
    def test_paper_f_and_e_values(self, aes_profile):
        assert aes_profile.operations == {1: 10, 2: 9, 3: 11}
        assert aes_profile.computation_energy_pj[1] == pytest.approx(120.1)

    def test_normalized_energy_formula(self, aes_profile):
        # H_i = f_i * (E_i + c_i)
        assert aes_profile.normalized_energy(1) == pytest.approx(
            10 * (120.1 + 116.74)
        )
        assert aes_profile.normalized_energy(3) == pytest.approx(
            11 * (176.55 + 116.74)
        )

    def test_module3_dominates(self, aes_profile):
        energies = aes_profile.normalized_energies()
        assert energies[3] == max(energies.values())

    def test_operations_per_job(self, aes_profile):
        assert aes_profile.operations_per_job == 30

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ApplicationProfile(
                name="bad",
                operations={1: 10},
                computation_energy_pj={1: 1.0, 2: 1.0},
                communication_energy_pj={1: 1.0},
            )
        with pytest.raises(ConfigurationError):
            ApplicationProfile.aes128(-1.0)
        with pytest.raises(ConfigurationError):
            ApplicationProfile(
                name="bad-ids",
                operations={2: 1, 3: 1},
                computation_energy_pj={2: 1.0, 3: 1.0},
                communication_energy_pj={2: 0.0, 3: 0.0},
            )


class TestTheorem1:
    def test_paper_table2_bounds(self, aes_profile):
        # Theorem 1 must reproduce the paper's Table 2 J* column.
        paper = {16: 131.42, 25: 205.25, 36: 295.70, 49: 402.48, 64: 525.69}
        for nodes, expected in paper.items():
            bound = theorem1(aes_profile, 60_000.0, nodes)
            assert bound.jobs == pytest.approx(expected, rel=0.002)

    def test_bound_linear_in_k(self, aes_profile):
        j16 = theorem1(aes_profile, 60_000.0, 16).jobs
        j64 = theorem1(aes_profile, 60_000.0, 64).jobs
        assert j64 == pytest.approx(4 * j16)

    def test_bound_linear_in_b(self, aes_profile):
        j1 = theorem1(aes_profile, 60_000.0, 16).jobs
        j2 = theorem1(aes_profile, 120_000.0, 16).jobs
        assert j2 == pytest.approx(2 * j1)

    def test_optimal_duplicates_proportional_to_h(self, aes_profile):
        bound = theorem1(aes_profile, 60_000.0, 16)
        energies = bound.normalized_energies
        dups = bound.optimal_duplicates
        # n_i* / H_i constant across modules (Eq 3).
        ratios = [dups[m] / energies[m] for m in energies]
        assert max(ratios) == pytest.approx(min(ratios))
        assert sum(dups.values()) == pytest.approx(16.0)

    def test_energy_per_job(self, aes_profile):
        bound = theorem1(aes_profile, 60_000.0, 16)
        assert bound.energy_per_job_pj == pytest.approx(
            aes_profile.total_normalized_energy
        )

    def test_too_few_nodes_rejected(self, aes_profile):
        with pytest.raises(ConfigurationError):
            theorem1(aes_profile, 60_000.0, 2)


class TestOptimizer:
    def test_real_relaxation_matches_closed_form(self, aes_profile):
        jobs, allocation = optimize_duplicates(
            aes_profile, 60_000.0, 16, integral=False
        )
        bound = theorem1(aes_profile, 60_000.0, 16)
        assert jobs == pytest.approx(bound.jobs)
        for module in allocation:
            assert allocation[module] == pytest.approx(
                bound.optimal_duplicates[module]
            )

    def test_integer_never_beats_bound(self, aes_profile):
        for nodes in (3, 5, 8, 16, 25):
            jobs_int, _ = optimize_duplicates(
                aes_profile, 60_000.0, nodes, integral=True
            )
            bound = theorem1(aes_profile, 60_000.0, nodes).jobs
            assert jobs_int <= bound + 1e-9

    def test_integer_allocation_sums_to_budget(self, aes_profile):
        _, allocation = optimize_duplicates(
            aes_profile, 60_000.0, 16, integral=True
        )
        assert sum(allocation.values()) == 16
        assert all(v >= 1 for v in allocation.values())

    def test_integer_optimum_beats_naive_split(self, aes_profile):
        jobs_opt, _ = optimize_duplicates(
            aes_profile, 60_000.0, 16, integral=True
        )
        naive = {1: 6.0, 2: 6.0, 3: 4.0}  # wrong-headed allocation
        jobs_naive = jobs_for_duplicates(
            aes_profile, 60_000.0, naive, floor_jobs=True
        )
        assert jobs_opt > jobs_naive

    def test_jobs_for_duplicates_validation(self, aes_profile):
        with pytest.raises(ConfigurationError):
            jobs_for_duplicates(aes_profile, 60_000.0, {1: 5.0})

    def test_single_module_application(self):
        profile = ApplicationProfile(
            name="mono",
            operations={1: 4},
            computation_energy_pj={1: 100.0},
            communication_energy_pj={1: 50.0},
        )
        jobs, allocation = optimize_duplicates(
            profile, 1_000.0, 5, integral=True
        )
        assert allocation == {1: 5.0}
        # 5 nodes * 1000 pJ / (4 * 150 pJ) = 8.33 -> floor 8.
        assert jobs == 8.0
