"""Property-based tests for the routing core against networkx."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.floyd_warshall import (
    NO_SUCCESSOR,
    extract_path,
    floyd_warshall_successors,
)
from repro.core.costs import BatteryTerm


@st.composite
def random_weighted_graphs(draw):
    """Random directed graphs with positive weights as W-matrices."""
    size = draw(st.integers(min_value=2, max_value=12))
    density = draw(st.floats(min_value=0.2, max_value=0.9))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    weights = np.full((size, size), np.inf)
    np.fill_diagonal(weights, 0.0)
    for i in range(size):
        for j in range(size):
            if i != j and rng.random() < density:
                weights[i, j] = float(rng.uniform(0.1, 10.0))
    return weights


@settings(max_examples=60, deadline=None)
@given(random_weighted_graphs())
def test_distances_match_networkx(weights):
    size = weights.shape[0]
    distances, _ = floyd_warshall_successors(weights)
    graph = nx.DiGraph()
    graph.add_nodes_from(range(size))
    for i in range(size):
        for j in range(size):
            if i != j and np.isfinite(weights[i, j]):
                graph.add_edge(i, j, weight=weights[i, j])
    nx_dist = dict(nx.all_pairs_dijkstra_path_length(graph))
    for i in range(size):
        for j in range(size):
            expected = nx_dist.get(i, {}).get(j, np.inf)
            assert distances[i, j] == pytest.approx(expected)


@settings(max_examples=60, deadline=None)
@given(random_weighted_graphs())
def test_successor_walks_realize_distances(weights):
    size = weights.shape[0]
    distances, successors = floyd_warshall_successors(weights)
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            if successors[i, j] == NO_SUCCESSOR:
                assert np.isinf(distances[i, j])
                continue
            path = extract_path(successors, i, j)
            walked = sum(
                weights[u, v] for u, v in zip(path, path[1:])
            )
            assert walked == pytest.approx(distances[i, j])


@settings(max_examples=60, deadline=None)
@given(random_weighted_graphs())
def test_triangle_inequality(weights):
    distances, _ = floyd_warshall_successors(weights)
    size = weights.shape[0]
    for i in range(size):
        for k in range(size):
            for j in range(size):
                assert (
                    distances[i, j]
                    <= distances[i, k] + distances[k, j] + 1e-9
                )


@settings(max_examples=100, deadline=None)
@given(
    q=st.floats(min_value=1.0, max_value=3.0),
    levels=st.integers(min_value=2, max_value=16),
)
def test_weight_function_monotone_and_unit_at_full(q, levels):
    f = BatteryTerm(q=q, levels=levels)
    values = [f(level) for level in range(levels)]
    assert values[-1] == pytest.approx(1.0)
    assert all(a >= b for a, b in zip(values, values[1:]))
