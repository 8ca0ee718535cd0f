"""Unit tests for the cost pipeline, congestion tracking and ECMP.

Covers the pieces the routing refactor introduced: the composable
``CostPipeline`` and its terms, the ``CongestionTerm`` table and
penalty, the shared ``LinkLevelStore``, the per-link EMA
``CongestionRuntime``, and the equal-cost successor machinery
(``equal_cost_successors`` + ``EcmpSelector``).
"""

from dataclasses import replace

import numpy as np
import pytest

from helpers import make_view
from oracles import reference_ear_weights
from repro.core import (
    BatteryTerm,
    CongestionTerm,
    CostPipeline,
    EcmpSelector,
    HarvestTerm,
    WearTerm,
    equal_cost_successors,
    sdr_weight_matrix,
)
from repro.core.floyd_warshall import floyd_warshall_successors
from repro.core.link_levels import LinkLevelStore
from repro.errors import ConfigurationError
from repro.mesh.mapping import checkerboard_mapping
from repro.mesh.topology import mesh2d
from repro.sim.congestion import CongestionRuntime


def build_view(**overrides):
    topo = mesh2d(4)
    return make_view(topo, checkerboard_mapping(topo), **overrides)


class TestCongestionWeightFunction:
    """``CongestionTerm``: levels, table and bounds."""

    def test_defaults_and_cap(self):
        f = CongestionTerm()
        assert f(0) == 1.0
        assert f(3) == pytest.approx(f.q**3)
        # Levels beyond the cap saturate at the top multiplier.
        assert f(99) == f(f.levels - 1)

    def test_neutral_detection(self):
        assert CongestionTerm(q=1.0).is_neutral
        assert not CongestionTerm().is_neutral

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CongestionTerm(q=0.9)
        with pytest.raises(ConfigurationError):
            CongestionTerm(quantum=0.0)
        with pytest.raises(ConfigurationError):
            CongestionTerm(levels=0)
        with pytest.raises(ConfigurationError):
            CongestionTerm()(-1)

    def test_table_matches_call(self):
        f = CongestionTerm(q=1.5, levels=4)
        # Built once at construction, read-only, and outside equality.
        assert np.array_equal(f._table, [f(i) for i in range(4)])
        assert not f._table.flags.writeable
        assert f == CongestionTerm(q=1.5, levels=4)


class TestApplyCongestionPenalty:
    """``CongestionTerm.apply``: the per-link penalty."""

    def test_scales_loaded_links_only(self):
        load = np.zeros((16, 16), dtype=int)
        load[0, 1] = load[1, 0] = 2
        view = replace(build_view(), load=load)
        weights = sdr_weight_matrix(view)
        f = CongestionTerm(q=2.0)
        penalised = f.apply(weights.copy(), view)
        assert penalised[0, 1] == pytest.approx(weights[0, 1] * 4.0)
        assert penalised[1, 0] == pytest.approx(weights[1, 0] * 4.0)
        mask = np.ones_like(weights, dtype=bool)
        mask[0, 1] = mask[1, 0] = False
        np.fill_diagonal(mask, False)
        assert np.array_equal(penalised[mask], weights[mask])
        assert np.all(np.diag(penalised) == 0.0)


class TestCostPipeline:
    def test_empty_pipeline_is_sdr(self):
        view = build_view()
        assert np.array_equal(
            CostPipeline().weight_matrix(view), sdr_weight_matrix(view)
        )

    def test_ear_composition_and_lookup(self):
        pipeline = CostPipeline((BatteryTerm(), WearTerm(), CongestionTerm()))
        assert [t.name for t in pipeline.terms] == [
            "battery", "wear", "congestion",
        ]
        assert pipeline.term("wear") is pipeline.terms[1]
        assert pipeline.term("harvest") is None
        assert repr(pipeline) == "CostPipeline(battery+wear+congestion)"
        assert repr(CostPipeline()) == "CostPipeline(sdr)"

    def test_terms_gate_on_view_telemetry(self):
        view = build_view()
        assert BatteryTerm().applies(view)
        assert not WearTerm().applies(view)
        assert not HarvestTerm().applies(view)
        assert not CongestionTerm().applies(view)
        loaded = replace(view, load=np.zeros((16, 16), dtype=int))
        assert CongestionTerm().applies(loaded)

    def test_battery_only_pipeline_matches_ear(self):
        levels = np.arange(16) % 8
        view = build_view(levels_vector=levels)
        pipeline = CostPipeline((BatteryTerm(),))
        assert np.array_equal(
            pipeline.weight_matrix(view),
            reference_ear_weights(view, BatteryTerm().q),
        )


class TestLinkLevelStore:
    def test_canonical_ordering(self):
        assert LinkLevelStore.canonical(3, 1) == (1, 3)
        assert LinkLevelStore.canonical(1, 3) == (1, 3)

    def test_dirty_only_on_change(self):
        store = LinkLevelStore()
        assert not store.dirty
        assert store.set_level((0, 1), 2)
        assert store.dirty
        store.dirty = False
        # Same level again: no change, no dirt.
        assert not store.set_level((0, 1), 2)
        assert not store.dirty
        assert store.set_level((0, 1), 3)
        assert store.dirty

    def test_zero_level_clears(self):
        store = LinkLevelStore()
        store.set_level((0, 1), 2)
        store.dirty = False
        assert store.set_level((0, 1), 0)
        assert store.dirty
        assert len(store) == 0
        assert store.level((0, 1)) == 0

    def test_matrix_and_max(self):
        store = LinkLevelStore()
        store.set_level(LinkLevelStore.canonical(2, 0), 4)
        matrix = store.matrix(4)
        assert matrix[0, 2] == 4 and matrix[2, 0] == 4
        assert matrix.sum() == 8
        assert store.max_level() == 4
        store.clear((0, 2))
        assert store.max_level() == 0
        assert len(store) == 0


class TestCongestionRuntime:
    def test_disabled_without_quantum(self):
        runtime = CongestionRuntime(quantum=0.0)
        assert not runtime.tracks_load
        runtime.note_traversal(0, 1)
        runtime.end_frame()
        assert runtime.total_traversals() == 0

    def test_ema_folds_and_levels(self):
        runtime = CongestionRuntime(quantum=1.0, levels=8, alpha=0.5)
        for _ in range(4):
            runtime.note_traversal(0, 1)
        runtime.end_frame()
        # rate = 0 + 0.5 * (4 - 0) = 2.0 -> level 2
        assert runtime.load_dirty
        assert runtime.load_level_matrix(2)[0, 1] == 2
        assert runtime.total_traversals() == 4
        assert runtime.max_link_traversals() == 4

    def test_quiet_links_decay(self):
        runtime = CongestionRuntime(quantum=1.0, levels=8, alpha=0.5)
        for _ in range(8):
            runtime.note_traversal(0, 1)
        runtime.end_frame()
        level0 = runtime.load_level_matrix(2)[0, 1]
        for _ in range(6):
            runtime.end_frame()
        assert runtime.load_level_matrix(2)[0, 1] < level0

    def test_hot_link_share(self):
        runtime = CongestionRuntime(quantum=1.0)
        for _ in range(3):
            runtime.note_traversal(0, 1)
        runtime.note_traversal(1, 2)
        runtime.end_frame()
        assert runtime.hot_link_share() == pytest.approx(0.75)


class TestEqualCostSuccessors:
    def test_uniform_mesh_has_two_way_fan(self):
        view = build_view()
        weights = sdr_weight_matrix(view)
        distances, successors = floyd_warshall_successors(weights)
        # Corner 0 -> opposite corner 15: both neighbours (1 and 4)
        # start minimal paths on a uniform 4x4 mesh.
        group = equal_cost_successors(weights, distances, successors, 0, 15)
        assert group == [1, 4]
        # A straight-line pair has a single minimal successor.
        assert equal_cost_successors(
            weights, distances, successors, 0, 3
        ) == [1]

    def test_unreachable_and_self(self):
        view = build_view()
        weights = sdr_weight_matrix(view)
        weights[:, 5] = np.inf  # nothing enters node 5
        weights[5, 5] = 0.0
        distances, successors = floyd_warshall_successors(weights)
        assert equal_cost_successors(
            weights, distances, successors, 0, 5
        ) == []
        assert equal_cost_successors(
            weights, distances, successors, 3, 3
        ) == []

    def test_members_strictly_progress(self):
        view = build_view()
        weights = sdr_weight_matrix(view)
        distances, successors = floyd_warshall_successors(weights)
        for source in range(16):
            for dest in range(16):
                if source == dest:
                    continue
                for member in equal_cost_successors(
                    weights, distances, successors, source, dest
                ):
                    assert distances[member, dest] < distances[source, dest]
                    assert (
                        weights[source, member] + distances[member, dest]
                        <= distances[source, dest] * (1 + 1e-9)
                    )


class TestEcmpSelector:
    def _selector(self, blocked=frozenset(), seed=0):
        view = build_view()
        weights = sdr_weight_matrix(view)
        distances, successors = floyd_warshall_successors(weights)
        return EcmpSelector(weights, distances, successors, blocked, seed)

    def test_round_robin_cycles_group(self):
        selector = self._selector()
        hops = [selector.next_hop(0, 15) for _ in range(4)]
        assert sorted(set(hops)) == [1, 4]
        assert hops[:2] != hops[2:0:-1] or hops[0] != hops[1]
        # Consecutive picks alternate around the two-member group.
        assert hops[0] != hops[1] and hops[2] != hops[3]
        assert hops[0] == hops[2] and hops[1] == hops[3]

    def test_seed_changes_rotation_start(self):
        starts = {
            self._selector(seed=seed).next_hop(0, 15) for seed in range(8)
        }
        assert starts == {1, 4}

    def test_blocked_ports_skipped(self):
        selector = self._selector(blocked=frozenset({(0, 1)}))
        assert all(selector.next_hop(0, 15) == 4 for _ in range(4))

    def test_all_blocked_falls_back(self):
        selector = self._selector(
            blocked=frozenset({(0, 1), (0, 4)})
        )
        assert selector.next_hop(0, 15) is None

    def test_single_member_group_is_stable(self):
        selector = self._selector()
        assert all(selector.next_hop(0, 3) == 1 for _ in range(3))
