"""Test-only semantic oracles for the routing core.

``reference_floyd_warshall`` transcribes the paper's Fig 5 pseudo-code
line by line in pure Python.  The production kernel
(:func:`repro.core.floyd_warshall.floyd_warshall_successors`) performs
the same relaxations in the same order, so the two agree bit for bit on
both ``D`` and ``S``.

``reference_ear_weights`` evaluates Phase 1 from the term formulas,
element by element, in the historical operation order (battery, wear,
harvest, congestion).  Each step is one multiplication per matrix entry,
so the production :class:`repro.core.costs.CostPipeline` must match it
bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.floyd_warshall import NO_SUCCESSOR
from repro.core.weights import HARVEST_RICH_BAND


def reference_ear_weights(
    view,
    q: float,
    wear_q: float | None = None,
    harvest_q: float | None = None,
    congestion_q: float | None = None,
    cap: int = 7,
) -> np.ndarray:
    """Phase 1 by formula: ``W_ij = L_ij * f(N_B(j)) * g * h * c``.

    ``f(n) = q^(2*(N_B-1-n))`` is the battery weight; the wear
    ``wear_q^min(w, cap)``, harvest ``harvest_q^-min(r, cap)`` (only for
    receivers within ``HARVEST_RICH_BAND`` levels of full) and
    congestion ``congestion_q^min(l, cap)`` factors apply when their
    base is given and the view carries their telemetry.  Lines of dead
    nodes are ``inf``; the diagonal is 0 after every step.
    """
    size = view.num_nodes
    weights = np.array(view.lengths, dtype=float)
    for node in range(size):
        if not view.alive[node]:
            weights[node, :] = np.inf
            weights[:, node] = np.inf
    np.fill_diagonal(weights, 0.0)

    def scale(multiplier) -> None:
        for i in range(size):
            for j in range(size):
                weights[i, j] = weights[i, j] * multiplier(i, j)
        np.fill_diagonal(weights, 0.0)

    top = view.levels - 1
    scale(lambda i, j: q ** (2 * (top - int(view.battery_levels[j]))))
    if wear_q is not None and view.wear is not None:
        scale(lambda i, j: wear_q ** min(int(view.wear[i, j]), cap))
    if harvest_q is not None and view.income is not None:
        def bonus(i, j):
            if view.battery_levels[j] < view.levels - HARVEST_RICH_BAND:
                return 1.0
            return harvest_q ** -min(int(view.income[j]), cap)

        scale(bonus)
    if congestion_q is not None and view.load is not None:
        scale(lambda i, j: congestion_q ** min(int(view.load[i, j]), cap))
    return weights


def reference_floyd_warshall(
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Direct transcription of the paper's Fig 5 pseudo-code.

    O(K^3) in pure Python.  ``S^(0)`` is the edge target where an edge
    exists, the node itself on the diagonal, else :data:`NO_SUCCESSOR`.
    """
    weights = np.asarray(weights, dtype=float)
    size = weights.shape[0]
    distances = weights.copy()
    successors = np.full((size, size), NO_SUCCESSOR, dtype=np.int64)
    for i in range(size):
        for j in range(size):
            if i == j or np.isfinite(weights[i, j]):
                successors[i, j] = j
    for n in range(size):
        for i in range(size):
            for j in range(size):
                through_n = distances[i, n] + distances[n, j]
                # Paper Fig 5: keep S on <=, replace on strict >.
                if distances[i, j] > through_n:
                    distances[i, j] = through_n
                    successors[i, j] = successors[i, n]
    return distances, successors
