"""Test-only semantic oracles for the routing core.

``reference_floyd_warshall`` transcribes the paper's Fig 5 pseudo-code
line by line in pure Python.  The production kernel
(:func:`repro.core.floyd_warshall.floyd_warshall_successors`) performs
the same relaxations in the same order, so the two agree bit for bit on
both ``D`` and ``S``.
"""

from __future__ import annotations

import numpy as np

from repro.core.floyd_warshall import NO_SUCCESSOR


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
