"""Phase 2 of EAR/SDR: all-pairs shortest paths with successor matrices.

The paper uses "a variation of the Floyd–Warshall algorithm of complexity
O(n^3)" that produces both the distance matrix ``D`` and the *successor*
matrix ``S`` where ``S_ij`` is the next hop of node ``i`` on a shortest
path to node ``j`` (Fig 5).  Ties keep the incumbent successor (the
pseudo-code only replaces on strict improvement), which makes the result
deterministic.

:func:`floyd_warshall_successors` is vectorised over the inner two loops
and relaxes only the rows that can still improve.  Before step ``k``,
``D[i, k]`` is the shortest ``i -> k`` path through intermediates
``< k``, so it is ``inf`` unless ``i == k`` or ``i`` has an edge to some
node ``<= k``.  For any other row ``D[i, k] + D[k, j]`` is ``inf``,
never strictly less than ``D[i, j]``, so relaxing it changes nothing.
The kernel stores the rows of ``D`` and ``S`` sorted by ``min(i, lowest
out-neighbour of i)``, which makes the rows that can improve at step
``k`` a leading block, and relaxes only that block.  The steps still run
in increasing ``k``, each on the same operands as the full-matrix
transcription of Fig 5, so ``(D, S)`` is bit-identical to it (the test
suite keeps that transcription as its oracle).  On a mesh the block at
step ``k`` holds about ``k + width`` rows, which roughly halves the
O(K^3) work; a node attached only to node 0, such as the external
block, sorts to the front instead of widening every block to the whole
matrix.
"""

from __future__ import annotations

import numpy as np

from ..errors import RoutingError

#: Sentinel for "no successor" (unreachable destination).
NO_SUCCESSOR = -1

#: One-entry cache ``(packed finite pattern, layout)``: re-plans of one
#: fabric keep the same weight support, so the layout is derived once.
#: It is replaced as a whole and a layout depends only on its key, so
#: concurrent callers can at worst derive the same layout twice.
_layout_cache: tuple[bytes, tuple] | None = None


def _frontier_layout(finite: np.ndarray) -> tuple:
    """``(order, position, steps)`` of a weight support.

    ``order`` lists the nodes sorted (stably) by ``min(i, lowest
    out-neighbour of i)`` and ``position`` is its inverse.  ``steps[k]``
    is ``(position[k], rows)``: the pivot row of step ``k`` in that
    order, and how many leading rows can improve at step ``k`` (the
    nodes whose key is ``<= k``).  The diagonal is finite, so
    ``argmax`` over a row of ``finite`` is exactly the key.
    """
    global _layout_cache
    key = np.packbits(finite).tobytes()
    cached = _layout_cache
    if cached is not None and cached[0] == key:
        return cached[1]
    size = finite.shape[0]
    first = np.argmax(finite, axis=1)
    order = np.argsort(first, kind="stable")
    position = np.empty(size, dtype=np.intp)
    position[order] = np.arange(size)
    rows = np.searchsorted(first[order], np.arange(size), side="right")
    layout = (order, position, list(zip(position.tolist(), rows.tolist())))
    _layout_cache = (key, layout)
    return layout


def floyd_warshall_successors(
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs weighted shortest paths with successors.

    Args:
        weights: Square matrix; ``inf`` marks non-edges, the diagonal
            must be 0.  Negative weights, ``-inf`` included, are
            rejected (physical lengths and battery multipliers are
            non-negative, and Floyd–Warshall successor semantics break
            on negative cycles).

    Returns:
        ``(D, S)`` where ``D[i, j]`` is the least path weight and
        ``S[i, j]`` the next hop from ``i`` toward ``j``
        (:data:`NO_SUCCESSOR` when unreachable).
    """
    weights = np.asarray(weights, dtype=float)
    size = weights.shape[0]
    if weights.shape != (size, size):
        raise RoutingError(f"weight matrix must be square, got {weights.shape}")
    if size and np.any(np.diagonal(weights) != 0.0):
        raise RoutingError("weight matrix diagonal must be zero")
    if np.any(weights < 0):
        raise RoutingError("negative interconnect weights are not allowed")
    if not size:
        return weights.copy(), np.empty((0, 0), dtype=np.int64)

    order, position, steps = _frontier_layout(np.isfinite(weights))
    # Rows are stored in layout order, columns keep node ids; a row
    # gather is a C-contiguous copy, so every leading block is too.
    distances = weights[order]
    # S^(0): the edge target where an edge exists (the zero diagonal
    # makes every node its own successor), else the sentinel.
    successors = np.where(
        np.isfinite(distances), np.arange(size), NO_SUCCESSOR
    ).astype(np.int64, copy=False)
    # Reusable buffers: the per-iteration allocations of the naive
    # np.where formulation cost more than the arithmetic on large
    # fabrics.  Strict `<` replaces, ties keep the incumbent.
    through_k = np.empty_like(distances)
    better = np.empty(distances.shape, dtype=bool)
    successor_col = np.empty(size, dtype=np.int64)
    # On small fabrics the per-step call overhead is most of the cost:
    # the ufuncs are bound once, a broadcast add is cheaper than
    # add.outer, and argmax of a bool block (its first True, else 0)
    # is a cheaper "any" than any() at every size.
    add, less, copyto = np.add, np.less, np.copyto
    for k, (pivot, block) in enumerate(steps):
        d = distances[:block]
        t = through_k[:block]
        b = better[:block]
        add(d[:, k, None], distances[pivot], out=t)
        less(t, d, out=b)
        if not (b.argmax() or b[0, 0]):
            continue
        copyto(d, t, where=b)
        # Snapshot column k before writing: b[:, k] is always False
        # (t[:, k] == d[:, k]), but copyto would otherwise read from
        # the array it is writing.
        column = successor_col[:block]
        column[:] = successors[:block, k]
        copyto(successors[:block], column[:, None], where=b)
    # Back to node order.  D reuses the relaxation buffer and each
    # permuted matrix is freed before the next is allocated, so the
    # peak stays that of the loop.  (``take`` buffers ``out`` unless
    # ``mode`` is given; every index is in range, so "clip" is a no-op.)
    del better
    restored = np.take(distances, position, axis=0, out=through_k, mode="clip")
    del distances
    return restored, successors[position]


#: Relative tolerance for "equal cost" when collecting ECMP successor
#: groups.  A candidate's cost ``W[s, k] + D[k, d]`` is summed in a
#: different association from ``D[s, d]``, which Floyd–Warshall built
#: as ``D[s, m] + D[m, d]`` over its intermediate nodes, so an equal-cost
#: detour can miss exact equality by an ulp; one part in 10^9 is far
#: below any physically meaningful weight difference.
ECMP_COST_TOLERANCE = 1e-9


def equal_cost_successors(
    weights: np.ndarray,
    distances: np.ndarray,
    successors: np.ndarray,
    source: int,
    destination: int,
) -> list[int]:
    """All next hops of ``source`` on a minimal path to ``destination``.

    The canonical successor matrix keeps a single (deterministic,
    first-found) next hop per pair; this recovers the full equal-cost
    group from the distance matrix.  A neighbour ``k`` qualifies when

    * the edge ``source -> k`` exists (finite weight, ``k != source``),
    * ``D[k, dest] < D[source, dest]`` — strict progress toward the
      destination, which guarantees loop freedom for positive weights
      (every hop decreases the remaining distance, so no cycle), and
    * ``W[source, k] + D[k, dest] <= D[source, dest] * (1 + tol)`` —
      the detour through ``k`` costs no more than the optimum (up to
      :data:`ECMP_COST_TOLERANCE`).

    The canonical successor always satisfies these conditions, so the
    group is never empty for a reachable pair; members are returned in
    ascending node order.  For an unreachable pair (or ``source ==
    destination``) the list is empty.
    """
    if source == destination:
        return []
    optimum = distances[source, destination]
    if not np.isfinite(optimum):
        return []
    edge = weights[source]
    remaining = distances[:, destination]
    candidates = (
        np.isfinite(edge)
        & (remaining < optimum)
        & (edge + remaining <= optimum * (1.0 + ECMP_COST_TOLERANCE))
    )
    candidates[source] = False
    group = [int(k) for k in np.flatnonzero(candidates)]
    canonical = int(successors[source, destination])
    if canonical != NO_SUCCESSOR and canonical not in group:
        # Rounding pushed the recomputed sum past the tolerance; the
        # canonical choice is minimal by construction, so keep it.
        group.append(canonical)
        group.sort()
    return group


def extract_path(
    successors: np.ndarray, source: int, destination: int
) -> list[int]:
    """Walk the successor matrix from ``source`` to ``destination``.

    Returns the node sequence including both endpoints.  Raises
    :class:`RoutingError` if the destination is unreachable or the
    successor matrix is corrupt (cycle without reaching the target).
    """
    size = successors.shape[0]
    if not (0 <= source < size and 0 <= destination < size):
        raise RoutingError(
            f"path endpoints ({source}, {destination}) outside 0..{size - 1}"
        )
    path = [source]
    current = source
    # A simple path visits each node at most once: size hops suffice.
    for _ in range(size):
        if current == destination:
            return path
        nxt = int(successors[current, destination])
        if nxt == NO_SUCCESSOR:
            raise RoutingError(
                f"destination {destination} unreachable from {source}"
            )
        path.append(nxt)
        current = nxt
    raise RoutingError(
        f"successor matrix loops walking {source} -> {destination}: {path}"
    )


def path_length(lengths: np.ndarray, path: list[int]) -> float:
    """Sum of physical hop lengths along a node sequence."""
    total = 0.0
    for u, v in zip(path, path[1:]):
        hop = lengths[u, v]
        if not np.isfinite(hop):
            raise RoutingError(f"path uses missing edge {u} -> {v}")
        total += float(hop)
    return total
