"""Property tests for the cost pipeline and ECMP successor groups.

The pipeline's contract is *bit-identity*: composing the battery /
wear / harvest / congestion terms through :class:`CostPipeline` must
reproduce the formula-level Phase-1 oracle (``tests/oracles.py``)
exactly, on randomised views — not just the golden points — and any
order of the terms must agree with the canonical one up to rounding.
The ECMP properties pin the group-validity invariants (strict distance
progress, cost within tolerance, canonical membership) that keep
round-robin spreading loop-free on any weight matrix.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_ear_weights
from repro.core.costs import (
    BatteryTerm,
    CongestionTerm,
    CostPipeline,
    HarvestTerm,
    WearTerm,
    sdr_weight_matrix,
)
from repro.core.floyd_warshall import (
    NO_SUCCESSOR,
    equal_cost_successors,
    floyd_warshall_successors,
)
from repro.core.view import NetworkView
from repro.mesh.mapping import checkerboard_mapping
from repro.mesh.topology import mesh2d


@st.composite
def random_views(draw, with_wear=False, with_income=False, with_load=False):
    """Randomised small-mesh views: batteries, deaths, blocked ports,
    and optional wear / income / load telemetry."""
    width = draw(st.integers(min_value=3, max_value=6))
    topo = mesh2d(width)
    size = topo.num_nodes
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    levels = 8
    alive = rng.random(size) > 0.15
    alive[0] = True  # keep at least one node alive
    battery = rng.integers(0, levels, size=size)
    blocked = frozenset(
        (int(u), int(v))
        for u, v in zip(
            rng.integers(0, size, size=3), rng.integers(0, size, size=3)
        )
        if u != v
    )
    wear = None
    if with_wear:
        wear = rng.integers(0, 6, size=(size, size))
        wear = np.minimum(wear, wear.T)
        np.fill_diagonal(wear, 0)
    income = None
    if with_income:
        income = np.round(
            rng.uniform(0.0, 40.0, size=size) * (rng.random(size) < 0.5), 3
        )
    load = None
    if with_load:
        # Levels past the cap exercise the saturating lookup.
        load = rng.integers(0, 10, size=(size, size))
        np.fill_diagonal(load, 0)
    return NetworkView(
        lengths=topo.length_matrix(),
        alive=alive,
        battery_levels=battery,
        levels=levels,
        mapping=checkerboard_mapping(topo),
        blocked_ports=blocked,
        wear=wear,
        income=income,
        load=load,
    )


def all_terms():
    return (BatteryTerm(), WearTerm(), HarvestTerm(), CongestionTerm())


class TestPipelineBitIdentity:
    @settings(max_examples=40, deadline=None)
    @given(random_views())
    def test_empty_pipeline_matches_sdr(self, view):
        assert np.array_equal(
            CostPipeline().weight_matrix(view), sdr_weight_matrix(view)
        )

    @settings(max_examples=40, deadline=None)
    @given(
        view=random_views(),
        q=st.floats(min_value=1.0, max_value=3.0),
    )
    def test_battery_pipeline_matches_ear(self, view, q):
        assert np.array_equal(
            CostPipeline((BatteryTerm(q=q),)).weight_matrix(view),
            reference_ear_weights(view, q),
        )

    @settings(max_examples=30, deadline=None)
    @given(
        view=random_views(with_wear=True, with_income=True, with_load=True),
        qs=st.tuples(*[st.floats(min_value=1.0, max_value=2.0)] * 4),
    )
    def test_full_pipeline_matches_manual_composition(self, view, qs):
        """All four terms in canonical order equal the formula-level
        oracle bit for bit."""
        q, wear_q, harvest_q, congestion_q = qs
        pipeline = CostPipeline(
            (
                BatteryTerm(q=q),
                WearTerm(q=wear_q),
                HarvestTerm(q=harvest_q),
                CongestionTerm(q=congestion_q),
            )
        )
        expected = reference_ear_weights(
            view, q, wear_q, harvest_q, congestion_q
        )
        assert np.array_equal(pipeline.weight_matrix(view), expected)


class TestTermOrderIndependence:
    @settings(max_examples=30, deadline=None)
    @given(random_views(with_wear=True, with_income=True))
    def test_wear_and_harvest_commute(self, view):
        """Wear (link scale) and harvest (column scale) are both
        elementwise multiplications, so their order changes results
        only by float rounding."""
        battery, wear, harvest, _ = all_terms()
        wear_first = CostPipeline((battery, wear, harvest)).weight_matrix(view)
        harvest_first = CostPipeline((battery, harvest, wear)).weight_matrix(
            view
        )
        finite = np.isfinite(wear_first)
        assert np.array_equal(finite, np.isfinite(harvest_first))
        assert np.allclose(
            wear_first[finite], harvest_first[finite], rtol=1e-12
        )

    @settings(max_examples=30, deadline=None)
    @given(
        view=random_views(with_wear=True, with_income=True, with_load=True),
        order=st.permutations(range(4)),
    )
    def test_every_term_order_matches_canonical(self, view, order):
        """Every term scales the running matrix, so no term — battery
        included — discards the terms placed before it."""
        terms = all_terms()
        canonical = CostPipeline(terms).weight_matrix(view)
        permuted = CostPipeline(
            tuple(terms[i] for i in order)
        ).weight_matrix(view)
        finite = np.isfinite(canonical)
        assert np.array_equal(finite, np.isfinite(permuted))
        assert np.allclose(permuted[finite], canonical[finite], rtol=1e-12)


class TestEcmpGroupValidity:
    @settings(max_examples=40, deadline=None)
    @given(random_views())
    def test_groups_progress_and_include_canonical(self, view):
        weights = sdr_weight_matrix(view)
        distances, successors = floyd_warshall_successors(weights)
        size = view.num_nodes
        rng = np.random.default_rng(0)
        pairs = zip(
            rng.integers(0, size, size=24), rng.integers(0, size, size=24)
        )
        for source, dest in ((int(s), int(d)) for s, d in pairs):
            group = equal_cost_successors(
                weights, distances, successors, source, dest
            )
            canonical = successors[source, dest]
            if source == dest or canonical == NO_SUCCESSOR:
                assert group == []
                continue
            assert canonical in group
            assert group == sorted(set(group))
            for member in group:
                # Strict progress toward the destination (loop-free)
                # at a total cost matching the optimum.
                assert distances[member, dest] < distances[source, dest]
                assert (
                    weights[source, member] + distances[member, dest]
                    <= distances[source, dest] * (1 + 1e-9)
                )
