"""The frontier-block Floyd–Warshall kernel is bit-identical to Fig 5.

The kernel relaxes only the rows whose ``D[i, k]`` can be finite and
stores rows in a support-derived order, cached per weight support.
These properties compare its ``(D, S)`` byte for byte with the
pure-Python transcription of the paper's pseudo-code, on graphs built
to stress that layout: tail nodes hanging off low ids (like the
external block on node 0), disconnected components, dead nodes, zero
weights and small-integer weights that force ties.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_floyd_warshall
from repro.core import floyd_warshall
from repro.core.floyd_warshall import floyd_warshall_successors
from repro.mesh.topology import mesh2d


@st.composite
def frontier_graphs(draw):
    """Random directed W-matrices with awkward supports."""
    core = draw(st.integers(min_value=1, max_value=9))
    tails = draw(st.integers(min_value=0, max_value=3))
    size = core + tails
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    density = draw(st.floats(min_value=0.1, max_value=0.9))
    components = draw(st.integers(min_value=1, max_value=3))
    integer = draw(st.booleans())
    zero_share = draw(st.sampled_from([0.0, 0.25]))

    def weight() -> float:
        if rng.random() < zero_share:
            return 0.0
        if integer:
            return float(rng.integers(1, 4))
        return float(rng.uniform(0.1, 10.0))

    weights = np.full((size, size), np.inf)
    label = rng.integers(0, components, size=core)
    for i in range(core):
        for j in range(core):
            if i != j and label[i] == label[j] and rng.random() < density:
                weights[i, j] = weight()
    for tail in range(core, size):
        anchor = int(rng.integers(0, min(core, 2)))
        direction = rng.integers(0, 3)  # 0: both ways, 1: out, 2: in
        if direction != 2:
            weights[tail, anchor] = weight()
        if direction != 1:
            weights[anchor, tail] = weight()
    dead = rng.random(size) < draw(st.sampled_from([0.0, 0.2]))
    weights[dead, :] = np.inf
    weights[:, dead] = np.inf
    if draw(st.booleans()):
        order = rng.permutation(size)
        weights = weights[np.ix_(order, order)]
    np.fill_diagonal(weights, 0.0)
    return weights


def assert_bit_identical(weights):
    distances, successors = floyd_warshall_successors(weights)
    ref_distances, ref_successors = reference_floyd_warshall(weights)
    assert distances.dtype == ref_distances.dtype
    assert successors.dtype == ref_successors.dtype
    assert distances.tobytes() == ref_distances.tobytes()
    assert successors.tobytes() == ref_successors.tobytes()


@settings(max_examples=150, deadline=None)
@given(frontier_graphs())
def test_kernel_matches_fig5_bit_for_bit(weights):
    assert_bit_identical(weights)


@settings(max_examples=60, deadline=None)
@given(st.lists(frontier_graphs(), min_size=2, max_size=4), st.data())
def test_layout_cache_follows_support_changes(graphs, data):
    # Alternate between supports, and revisit each support with new
    # weights, so the one-entry layout cache both hits and misses.
    for weights in graphs:
        assert_bit_identical(weights)
        scale = data.draw(st.sampled_from([0.5, 1.0, 3.0]))
        assert_bit_identical(weights * scale)


def test_external_block_on_a_dying_mesh():
    # A 4x4 mesh plus an external node wired to node 0, losing one node
    # per re-plan: every support change must invalidate the layout.
    lengths = mesh2d(4).length_matrix()
    size = lengths.shape[0] + 1
    weights = np.full((size, size), np.inf)
    weights[:-1, :-1] = lengths
    weights[0, -1] = weights[-1, 0] = 5.0
    np.fill_diagonal(weights, 0.0)
    keys = set()
    for victim in (None, 5, 0, 10, 15):
        if victim is not None:
            weights[victim, :] = np.inf
            weights[:, victim] = np.inf
            weights[victim, victim] = 0.0
        assert_bit_identical(weights)
        keys.add(floyd_warshall._layout_cache[0])
    assert len(keys) == 5
