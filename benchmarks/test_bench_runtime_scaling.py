"""EXP-RT — paper Sec 6 complexity claim.

"For either EAR or SDR, the complexity is O(n^3), the hidden constants
are small and most of the running time is spent in the second phase.
Thus, EAR and SDR are practical for graphs consisting of tens to a few
hundreds of nodes."

This bench times one full routing computation (phases 1-3) at increasing
node counts and checks the practicality claim directly.  Every repeat
uses a fresh engine: an engine reuses its last ``(D, S)`` when the
weights are unchanged, and the claim is about the Floyd-Warshall
rebuild.
"""

import time

import numpy as np

from repro.analysis.tables import format_table
from repro.core.engines import EnergyAwareRouting
from repro.core.view import NetworkView
from repro.mesh.mapping import checkerboard_mapping
from repro.mesh.topology import mesh2d


def make_view(width: int) -> NetworkView:
    topology = mesh2d(width)
    mapping = checkerboard_mapping(topology)
    size = topology.num_nodes
    rng = np.random.default_rng(width)
    return NetworkView(
        lengths=topology.length_matrix(),
        alive=np.ones(size, dtype=bool),
        battery_levels=rng.integers(0, 8, size=size),
        levels=8,
        mapping=mapping,
    )


def test_routing_runtime_8x8(benchmark, reporter):
    """pytest-benchmark timing of one recomputation on the 8x8 mesh."""
    view = make_view(8)
    benchmark(lambda: EnergyAwareRouting().compute_plan(view))

    # Scaling table across mesh sizes, measured once each.
    from bench_plumbing import bench_widths

    rows = []
    for width in bench_widths((4, 8, 12, 16), smoke=(4, 8)):
        sample_view = make_view(width)
        start = time.perf_counter()
        repeats = 5
        for _ in range(repeats):
            EnergyAwareRouting().compute_plan(sample_view)
        elapsed = (time.perf_counter() - start) / repeats
        rows.append((width * width, round(1e3 * elapsed, 3)))
    table = format_table(
        ["nodes", "routing computation (ms)"],
        rows,
        title=(
            "Sec 6 — EAR routing computation time "
            "(phases 1-3, frontier-block Floyd-Warshall rebuild)"
        ),
    )
    reporter.add("Routing runtime scaling", table)

    # The paper's practicality claim: a few hundred nodes stay fast.
    biggest_ms = rows[-1][1]
    assert biggest_ms < 500.0
