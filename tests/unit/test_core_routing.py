"""Unit tests for the routing core: weights, Floyd-Warshall, phase 3,
engines (repro.core)."""

from dataclasses import replace

import numpy as np
import pytest

import repro.core.engines as engines
from helpers import make_view
from oracles import reference_floyd_warshall
from repro.core.costs import BatteryTerm, WearTerm, sdr_weight_matrix
from repro.core.engines import (
    EnergyAwareRouting,
    ShortestDistanceRouting,
    routing_engine,
)
from repro.core.floyd_warshall import (
    NO_SUCCESSOR,
    extract_path,
    floyd_warshall_successors,
    path_length,
)
from repro.core.phase3 import NO_DESTINATION, select_destinations
from repro.errors import (
    ConfigurationError,
    RoutingError,
    UnreachableModuleError,
)
from repro.mesh.geometry import node_id
from repro.orchestration import build_scenario
from repro.sim.et_sim import run_simulation


class TestWeightFunction:
    """``BatteryTerm``: the paper's weighting function ``f``."""

    def test_full_battery_weight_is_one(self):
        f = BatteryTerm(q=1.5, levels=8)
        assert f(7) == pytest.approx(1.0)

    def test_monotone_decreasing_level_increases_weight(self):
        f = BatteryTerm(q=1.5, levels=8)
        weights = [f(level) for level in range(8)]
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_paper_form(self):
        # f(n) = Q^(2*(N_B - 1 - n))
        f = BatteryTerm(q=2.0, levels=4)
        assert f(3) == 1.0
        assert f(2) == 4.0
        assert f(1) == 16.0
        assert f(0) == 64.0

    def test_q_one_degenerates_to_sdr(self):
        f = BatteryTerm(q=1.0, levels=8)
        assert all(f(level) == 1.0 for level in range(8))

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            BatteryTerm(q=0.0)
        with pytest.raises(ConfigurationError):
            BatteryTerm(levels=0)
        f = BatteryTerm(levels=8)
        with pytest.raises(ConfigurationError):
            f(8)


class TestWearWeightFunction:
    """``WearTerm``: the per-link wear penalty."""

    def test_pristine_link_is_unpenalised(self):
        g = WearTerm(q=1.3, quantum=8, levels=8)
        assert g(0) == pytest.approx(1.0)

    def test_monotone_and_saturating(self):
        g = WearTerm(q=1.3, quantum=8, levels=4)
        values = [g(level) for level in range(6)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert g(3) == g(5)  # saturates at levels - 1

    def test_q_one_degenerates_to_reactive_ear(self):
        g = WearTerm(q=1.0, quantum=8, levels=8)
        assert all(g(level) == 1.0 for level in range(8))

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            WearTerm(q=0.9)
        with pytest.raises(ConfigurationError):
            WearTerm(quantum=0)
        with pytest.raises(ConfigurationError):
            WearTerm(quantum=0.5)  # a whole traversal count
        with pytest.raises(ConfigurationError):
            WearTerm(levels=0)
        with pytest.raises(ConfigurationError):
            WearTerm()(-1)

    def test_apply_wear_penalty_preserves_conventions(
        self, mesh4, mapping4, full_view
    ):
        weights = sdr_weight_matrix(full_view)
        wear = np.zeros((16, 16), dtype=int)
        wear[0, 1] = wear[1, 0] = 2
        wear[3, 3] = 5  # diagonal wear must stay inert
        g = WearTerm(q=1.5, quantum=8, levels=8)
        penalised = g.apply(weights, replace(full_view, wear=wear))
        pitch = mesh4.edge_length(0, 1)
        assert penalised[0, 1] == pytest.approx(pitch * 1.5**2)
        assert penalised[1, 0] == pytest.approx(pitch * 1.5**2)
        assert penalised[0, 4] == pytest.approx(pitch)  # untouched
        assert penalised[3, 3] == 0.0
        assert np.isinf(penalised[0, 5])  # non-edges stay inf

    def test_ear_engine_applies_wear_from_the_view(
        self, mesh4, mapping4, full_view
    ):
        wear = np.zeros((16, 16), dtype=int)
        wear[0, 1] = wear[1, 0] = 3
        worn_view = replace(full_view, wear=wear)
        g = WearTerm(q=1.5, quantum=8, levels=8)
        engine = EnergyAwareRouting(BatteryTerm(), g)
        weights = engine.weight_matrix(worn_view)
        reactive = EnergyAwareRouting().weight_matrix(worn_view)
        assert weights[0, 1] == pytest.approx(reactive[0, 1] * 1.5**3)
        assert weights[2, 3] == pytest.approx(reactive[2, 3])
        # Without wear data in the view, the wear engine is reactive.
        assert np.array_equal(
            engine.weight_matrix(full_view),
            EnergyAwareRouting().weight_matrix(full_view),
        )


class TestWeightMatrices:
    def test_sdr_weights_are_lengths(self, mesh4, mapping4, full_view):
        weights = sdr_weight_matrix(full_view)
        lengths = mesh4.length_matrix()
        assert np.array_equal(weights, lengths)

    def test_dead_node_removed_from_graph(self, mesh4, mapping4):
        alive = np.ones(16, dtype=bool)
        alive[5] = False
        view = make_view(mesh4, mapping4, alive=alive)
        weights = sdr_weight_matrix(view)
        assert np.isinf(weights[5, 6]) and np.isinf(weights[4, 5])
        assert weights[5, 5] == 0.0

    def test_ear_scales_by_receiver_level(self, mesh4, mapping4):
        levels = np.full(16, 7)
        levels[1] = 0  # depleted node
        view = make_view(mesh4, mapping4, levels_vector=levels)
        f = BatteryTerm(q=1.5, levels=8)
        weights = EnergyAwareRouting(f).weight_matrix(view)
        pitch = mesh4.edge_length(0, 1)
        assert weights[0, 1] == pytest.approx(pitch * f(0))
        assert weights[1, 0] == pytest.approx(pitch * 1.0)

    def test_ear_full_battery_equals_sdr(self, full_view):
        f = BatteryTerm(q=1.7, levels=8)
        assert np.array_equal(
            EnergyAwareRouting(f).weight_matrix(full_view),
            sdr_weight_matrix(full_view),
        )

    def test_level_count_mismatch_rejected(self, full_view):
        f = BatteryTerm(q=1.5, levels=16)
        with pytest.raises(ConfigurationError):
            EnergyAwareRouting(f).weight_matrix(full_view)


class TestFloydWarshall:
    def test_matches_reference_on_mesh(self, full_view):
        weights = sdr_weight_matrix(full_view)
        d_fast, s_fast = floyd_warshall_successors(weights)
        d_ref, s_ref = reference_floyd_warshall(weights)
        assert np.array_equal(d_fast, d_ref)
        assert np.array_equal(s_fast, s_ref)

    def test_matches_networkx(self, mesh4, full_view):
        import networkx as nx

        weights = sdr_weight_matrix(full_view)
        distances, _ = floyd_warshall_successors(weights)
        graph = mesh4.to_networkx()
        nx_lengths = dict(
            nx.all_pairs_dijkstra_path_length(graph, weight="length")
        )
        for i in range(16):
            for j in range(16):
                assert distances[i, j] == pytest.approx(nx_lengths[i][j])

    def test_successor_walk_reaches_destination(self, full_view):
        weights = sdr_weight_matrix(full_view)
        distances, successors = floyd_warshall_successors(weights)
        path = extract_path(successors, 0, 15)
        assert path[0] == 0 and path[-1] == 15
        assert path_length(full_view.lengths, path) == pytest.approx(
            distances[0, 15]
        )

    def test_unreachable_marked(self):
        weights = np.array(
            [[0.0, 1.0, np.inf], [1.0, 0.0, np.inf], [np.inf, np.inf, 0.0]]
        )
        distances, successors = floyd_warshall_successors(weights)
        assert np.isinf(distances[0, 2])
        assert successors[0, 2] == NO_SUCCESSOR
        with pytest.raises(RoutingError):
            extract_path(successors, 0, 2)

    def test_negative_weights_rejected(self):
        weights = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(RoutingError):
            floyd_warshall_successors(weights)

    def test_negative_infinity_rejected(self):
        # -inf is not a non-edge marker: it would make rows outside the
        # relaxed block improvable, so it is rejected like any negative.
        weights = np.array([[0.0, -np.inf], [1.0, 0.0]])
        with pytest.raises(RoutingError):
            floyd_warshall_successors(weights)

    def test_nonzero_diagonal_rejected(self):
        weights = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(RoutingError):
            floyd_warshall_successors(weights)

    def test_relay_through_cheap_detour(self):
        # A 3-node line where the direct edge is expensive: the shortest
        # path detours through the middle node.
        weights = np.array(
            [[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]]
        )
        distances, successors = floyd_warshall_successors(weights)
        assert distances[0, 2] == pytest.approx(2.0)
        assert successors[0, 2] == 1


class TestPhase3:
    def test_module_node_selects_itself(self, full_view):
        weights = sdr_weight_matrix(full_view)
        d, s = floyd_warshall_successors(weights)
        dests = select_destinations(full_view, d, s)
        for module in (1, 2, 3):
            for node in full_view.mapping.duplicates(module):
                assert dests[node, module] == node

    def test_nearest_duplicate_chosen(self, mesh4, mapping4, full_view):
        weights = sdr_weight_matrix(full_view)
        d, s = floyd_warshall_successors(weights)
        dests = select_destinations(full_view, d, s)
        origin = node_id(2, 1, 4)  # module 3 node
        # Nearest module-1 duplicates are (1,1) and (3,1), both 1 hop;
        # the tie breaks to the lower node id = (1,1) = 0.
        assert dests[origin, 1] == node_id(1, 1, 4)

    def test_dead_duplicates_skipped(self, mesh4, mapping4):
        alive = np.ones(16, dtype=bool)
        alive[node_id(1, 1, 4)] = False
        view = make_view(mesh4, mapping4, alive=alive)
        weights = sdr_weight_matrix(view)
        d, s = floyd_warshall_successors(weights)
        dests = select_destinations(view, d, s)
        origin = node_id(2, 1, 4)
        assert dests[origin, 1] == node_id(3, 1, 4)

    def test_all_dead_module_unreachable(self, mesh4, mapping4):
        alive = np.ones(16, dtype=bool)
        for dup in mapping4.duplicates(2):
            alive[dup] = False
        view = make_view(mesh4, mapping4, alive=alive)
        weights = sdr_weight_matrix(view)
        d, s = floyd_warshall_successors(weights)
        dests = select_destinations(view, d, s)
        assert np.all(dests[:, 2] == NO_DESTINATION)

    def test_blocked_port_redirects(self, mesh4, mapping4):
        origin = node_id(2, 1, 4)
        preferred = node_id(1, 1, 4)
        blocked = frozenset({(origin, preferred)})
        view = make_view(mesh4, mapping4, blocked=blocked)
        weights = sdr_weight_matrix(view)
        d, s = floyd_warshall_successors(weights)
        dests = select_destinations(view, d, s)
        # The first hop to (1,1) is blocked, so another duplicate whose
        # first hop differs must be chosen.
        assert dests[origin, 1] != preferred


class TestEngines:
    def test_factory(self):
        assert isinstance(routing_engine("ear"), EnergyAwareRouting)
        assert isinstance(routing_engine("sdr"), ShortestDistanceRouting)
        with pytest.raises(ConfigurationError):
            routing_engine("dijkstra")

    def test_plan_accessors(self, full_view):
        plan = ShortestDistanceRouting().compute_plan(full_view)
        assert plan.num_nodes == 16
        dest = plan.destination(0, 2)
        assert dest in full_view.mapping.duplicates(2)
        path = plan.path_to_module(0, 2)
        assert path[0] == 0 and path[-1] == dest

    def test_unreachable_raises(self, mesh4, mapping4):
        alive = np.ones(16, dtype=bool)
        for dup in mapping4.duplicates(2):
            alive[dup] = False
        view = make_view(mesh4, mapping4, alive=alive)
        plan = ShortestDistanceRouting().compute_plan(view)
        assert not plan.has_destination(0, 2)
        with pytest.raises(UnreachableModuleError):
            plan.destination(0, 2)

    def test_ear_avoids_depleted_relay(self, mesh4, mapping4):
        # Deplete (2,2); EAR routes 2-hop journeys around it.
        levels = np.full(16, 7)
        depleted = node_id(2, 2, 4)
        levels[depleted] = 0
        view = make_view(mesh4, mapping4, levels_vector=levels)
        ear_plan = EnergyAwareRouting(
            BatteryTerm(q=2.0, levels=8)
        ).compute_plan(view)
        sdr_plan = ShortestDistanceRouting().compute_plan(view)
        origin = node_id(1, 2, 4)  # module 3, adjacent to depleted node
        # SDR still happily selects the depleted module-2 node.
        assert sdr_plan.destination(origin, 2) == depleted
        # EAR prefers a farther but charged duplicate.
        assert ear_plan.destination(origin, 2) != depleted

    def test_engines_identical_at_full_charge(self, full_view):
        ear = EnergyAwareRouting().compute_plan(full_view)
        sdr = ShortestDistanceRouting().compute_plan(full_view)
        assert np.array_equal(ear.destinations, sdr.destinations)
        assert np.allclose(ear.distances, sdr.distances)

    def test_repr(self):
        assert "q=" in repr(EnergyAwareRouting())
        assert repr(ShortestDistanceRouting())


class TestPlanMemo:
    """Phase 2 reuses the last ``(D, S)`` when the weights are unchanged."""

    @pytest.fixture
    def apsp_calls(self, monkeypatch):
        # The name compute_plan resolves (and the benchmark tracer
        # patches): repro.core.engines.floyd_warshall_successors.
        calls = []
        original = engines.floyd_warshall_successors

        def counted(weights):
            calls.append(weights)
            return original(weights)

        monkeypatch.setattr(engines, "floyd_warshall_successors", counted)
        return calls

    def test_unchanged_sdr_view_skips_apsp(self, full_view, apsp_calls):
        engine = ShortestDistanceRouting()
        first = engine.compute_plan(full_view)
        second = engine.compute_plan(full_view)
        assert len(apsp_calls) == 1
        assert second.distances is first.distances
        assert second.successors is first.successors

    def test_battery_levels_do_not_rebuild_sdr(
        self, mesh4, mapping4, apsp_calls
    ):
        engine = ShortestDistanceRouting()
        engine.compute_plan(make_view(mesh4, mapping4))
        levels = np.arange(16) % 8
        engine.compute_plan(make_view(mesh4, mapping4, levels_vector=levels))
        assert len(apsp_calls) == 1

    def test_changed_weights_rebuild(self, mesh4, mapping4, apsp_calls):
        engine = EnergyAwareRouting()
        engine.compute_plan(make_view(mesh4, mapping4))
        levels = np.full(16, 7)
        levels[5] = 0
        plan = engine.compute_plan(
            make_view(mesh4, mapping4, levels_vector=levels)
        )
        assert len(apsp_calls) == 2
        fresh = EnergyAwareRouting().compute_plan(
            make_view(mesh4, mapping4, levels_vector=levels)
        )
        assert plan.distances.tobytes() == fresh.distances.tobytes()
        assert plan.successors.tobytes() == fresh.successors.tobytes()

    def test_signed_zero_is_a_change(self, full_view, apsp_calls):
        weights = sdr_weight_matrix(full_view)
        signed = weights.copy()
        signed[3, 3] = -0.0

        class Fixed(ShortestDistanceRouting):
            matrix = weights

            def weight_matrix(self, view, observer=None):
                return self.matrix.copy()

        engine = Fixed()
        engine.compute_plan(full_view)
        engine.matrix = signed
        engine.compute_plan(full_view)
        engine.compute_plan(full_view)
        assert len(apsp_calls) == 2

    def test_plan_tables_are_read_only(self, full_view):
        engine = ShortestDistanceRouting()
        for plan in (
            engine.compute_plan(full_view),
            engine.compute_plan(full_view),
        ):
            with pytest.raises(ValueError):
                plan.distances[0, 1] = 0.0
            with pytest.raises(ValueError):
                plan.successors[0, 1] = 0

    def test_phase3_runs_on_the_current_view(self, mesh4, mapping4):
        # SDR weights ignore blocked ports, so the second plan reuses
        # (D, S) but must still route around the reported deadlock.
        origin = node_id(2, 1, 4)
        preferred = node_id(1, 1, 4)
        blocked = make_view(
            mesh4, mapping4, blocked=frozenset({(origin, preferred)})
        )
        engine = ShortestDistanceRouting()
        engine.compute_plan(make_view(mesh4, mapping4))
        reused = engine.compute_plan(blocked)
        fresh = ShortestDistanceRouting().compute_plan(blocked)
        assert np.array_equal(reused.destinations, fresh.destinations)
        assert reused.destination(origin, 1) != preferred

    def test_ecmp_runs_on_the_current_view(self, mesh4, mapping4):
        origin = node_id(2, 1, 4)
        blocked = make_view(
            mesh4, mapping4, blocked=frozenset({(origin, node_id(1, 1, 4))})
        )
        engine = ShortestDistanceRouting()
        engine.configure_ecmp(7)
        engine.compute_plan(make_view(mesh4, mapping4))
        reused = engine.compute_plan(blocked)
        fresh_engine = ShortestDistanceRouting()
        fresh_engine.configure_ecmp(7)
        fresh = fresh_engine.compute_plan(blocked)
        hops = [
            (reused.next_hop(origin, dest), fresh.next_hop(origin, dest))
            for dest in range(16)
            for _ in range(3)
        ]
        assert all(a == b for a, b in hops)

    def test_timer_names_rebuilds_and_reuses(self, full_view):
        samples = []
        engine = ShortestDistanceRouting()
        timer = lambda name, seconds: samples.append(name)  # noqa: E731
        engine.compute_plan(full_view, timer=timer)
        engine.compute_plan(full_view, timer=timer)
        assert samples == ["floyd-warshall", "floyd-warshall-reuse"]

    def test_sdr_run_still_bills_every_replan(self, apsp_calls):
        # Pre-memo values of the fig7 smoke 4x4 SDR point: the memo
        # skips simulator work, never the modelled controller energy.
        point = next(
            point
            for point in build_scenario("fig7", scale="smoke")
            if point.label == "4x4/sdr"
        )
        stats = run_simulation(point.config)
        assert stats.recompute_count == 10
        assert stats.energy.controller_pj["compute"] == 49.129999999999995
        # Bootstrap plus ten re-plans, most on unchanged weights.
        assert len(apsp_calls) < stats.recompute_count + 1
