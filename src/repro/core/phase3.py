"""Phase 3 of EAR/SDR: destination selection and routing tables.

After phase 2 each node knows a (weighted) distance to every other node.
Phase 3 (paper Fig 6) walks, for every node ``n`` and every module type
``i``, the duplicate set ``S_i`` and picks the duplicate with the least
distance — skipping candidates whose first hop would use a port that is
currently reported to be in a deadlock state.  The result is the routing
table downloaded to the nodes over the TDMA medium.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import RoutingError, UnreachableModuleError
from .floyd_warshall import NO_SUCCESSOR, equal_cost_successors, extract_path
from .view import NetworkView

#: Sentinel for "no destination reachable".
NO_DESTINATION = -1


class EcmpSelector:
    """Deterministic round-robin over equal-cost successor groups.

    Floyd–Warshall keeps one canonical next hop per (node, destination)
    pair, which concentrates all traffic of a pair on a single corridor
    even when several minimal paths exist.  This selector recovers the
    full equal-cost group (lazily, per pair — most pairs are never
    routed) and cycles through it per forwarded packet, so equal-cost
    traffic spreads across parallel corridors.

    Determinism: the starting member of each pair's rotation is a hash
    of ``(node, destination, seed)``, and subsequent calls advance one
    member per call.  Every engine drives the same per-pair call
    sequence for the same workload, so sequential, vector, and
    concurrent runs pick identical hops.  Members whose ``(node, hop)``
    port is reported deadlocked are skipped; if every member is blocked
    the canonical successor is returned (matching the non-ECMP
    behaviour, where deadlock handling is phase 3's job).

    This object is mutable (rotation counters) and is rebuilt with each
    routing plan, so stale groups never outlive the weights they were
    derived from.
    """

    def __init__(
        self,
        weights: np.ndarray,
        distances: np.ndarray,
        successors: np.ndarray,
        blocked_ports: frozenset[tuple[int, int]],
        seed: int,
    ):
        self._weights = weights
        self._distances = distances
        self._successors = successors
        self._blocked = blocked_ports
        self._seed = int(seed)
        self._groups: dict[tuple[int, int], list[int]] = {}
        self._counters: dict[tuple[int, int], int] = {}

    def _group(self, node: int, destination: int) -> list[int]:
        key = (node, destination)
        group = self._groups.get(key)
        if group is None:
            group = equal_cost_successors(
                self._weights,
                self._distances,
                self._successors,
                node,
                destination,
            )
            self._groups[key] = group
        return group

    def _start_offset(self, node: int, destination: int, size: int) -> int:
        # Integer hash mix (Teschner-style spatial hash primes): cheap,
        # stable across platforms, and decorrelates neighbouring pairs
        # so rotations do not start in lockstep.
        mixed = (
            (node * 73856093)
            ^ (destination * 19349663)
            ^ (self._seed * 83492791)
        )
        return (mixed & 0x7FFFFFFF) % size

    def next_hop(self, node: int, destination: int) -> int | None:
        """Next member of the pair's rotation, or None when no group.

        ``None`` tells the caller to fall back to the canonical
        successor entry (covering unreachable pairs, whose error
        handling stays in :meth:`RoutingPlan.next_hop`).
        """
        group = self._group(node, destination)
        if len(group) <= 1:
            return group[0] if group else None
        key = (node, destination)
        turn = self._counters.get(key, 0)
        self._counters[key] = turn + 1
        size = len(group)
        start = self._start_offset(node, destination, size)
        for step in range(size):
            hop = group[(start + turn + step) % size]
            if (node, hop) not in self._blocked:
                return hop
        return None


@dataclass(frozen=True)
class RoutingPlan:
    """Output of one full routing computation (phases 1-3).

    Attributes:
        distances: Phase 2 distance matrix over phase 1 weights.
        successors: Phase 2 successor matrix.
        destinations: ``(K, p+1)`` integer matrix; entry ``[n, i]`` is
            the node chosen to execute module ``i`` for a job currently
            at node ``n`` (column 0 is unused padding so module ids can
            index directly); :data:`NO_DESTINATION` when unreachable.
        view: The network view the plan was computed from.
        ecmp: Optional :class:`EcmpSelector`; when present,
            :meth:`next_hop` round-robins over equal-cost successor
            groups instead of always returning the canonical entry.
            :meth:`successor` is unaffected (consumers that need the
            deterministic canonical table — power-bus pathing, plan
            diffing — keep it).
    """

    distances: np.ndarray
    successors: np.ndarray
    destinations: np.ndarray
    view: NetworkView = field(repr=False)
    ecmp: EcmpSelector | None = field(default=None, repr=False)

    @property
    def num_nodes(self) -> int:
        return int(self.distances.shape[0])

    # The engines query destinations/successors once per hop of every
    # simulated packet; plain nested lists answer those scalar lookups
    # several times faster than numpy element access, so both tables are
    # converted once per computed plan (plans are immutable).
    @cached_property
    def _destination_rows(self) -> list[list[int]]:
        return self.destinations.tolist()

    @cached_property
    def _successor_rows(self) -> list[list[int]]:
        return self.successors.tolist()

    def destination(self, node: int, module: int) -> int:
        """Chosen duplicate of ``module`` for a job at ``node``.

        Raises :class:`UnreachableModuleError` when no live duplicate is
        reachable — the paper's system-death condition.
        """
        dest = self._destination_rows[node][module]
        if dest == NO_DESTINATION:
            raise UnreachableModuleError(module, origin=node)
        return dest

    def has_destination(self, node: int, module: int) -> bool:
        """True when some live duplicate of ``module`` is reachable."""
        return self._destination_rows[node][module] != NO_DESTINATION

    def successor(self, node: int, destination: int) -> int:
        """Raw successor entry (:data:`~repro.core.floyd_warshall.NO_SUCCESSOR`
        when there is none)."""
        return self._successor_rows[node][destination]

    def next_hop(self, node: int, destination: int) -> int:
        """Next hop from ``node`` toward ``destination``.

        With an :attr:`ecmp` selector attached, equal-cost groups are
        round-robined; otherwise (and for pairs with a single minimal
        path) the canonical successor entry is returned.
        """
        if self.ecmp is not None and node != destination:
            hop = self.ecmp.next_hop(node, destination)
            if hop is not None:
                return hop
        hop = self._successor_rows[node][destination]
        if hop == NO_SUCCESSOR:
            raise RoutingError(
                f"no successor from {node} toward {destination}"
            )
        return hop

    def path_to_module(self, node: int, module: int) -> list[int]:
        """Full node sequence from ``node`` to its chosen duplicate."""
        return extract_path(
            self.successors, node, self.destination(node, module)
        )


def select_destinations(
    view: NetworkView,
    distances: np.ndarray,
    successors: np.ndarray,
) -> np.ndarray:
    """The paper's Fig 6: choose a duplicate per (node, module) pair.

    For each live node ``n`` and module ``i`` the candidate duplicates
    are the live members of ``S_i``; candidates whose first hop from
    ``n`` uses a blocked (deadlocked) port are skipped, exactly like the
    ``if node n is not in deadlock or ...`` guard in the pseudo-code.
    Among the remainder the least distance wins, ties broken by the
    lowest node id so results are deterministic.  A node that itself
    implements module ``i`` selects itself (distance 0) unless dead.

    Vectorised over the node axis: one masked ``argmin`` per module
    replaces the per-(node, duplicate) Python loop, which dominated
    routing recomputation on 16x16+ fabrics together with phase 2.
    ``argmin`` returns the first minimum in candidate order, which is
    exactly the scalar rule (strict ``<`` keeps the earliest candidate,
    and duplicate sets are listed in ascending node id).
    :func:`reference_select_destinations` keeps the literal transcription
    as the semantic oracle the vectorised path is tested against.
    """
    mapping = view.mapping
    size = view.num_nodes
    destinations = np.full(
        (size, mapping.num_modules + 1), NO_DESTINATION, dtype=np.int64
    )
    blocked = view.blocked_ports
    node_ids = np.arange(size)
    for module in range(1, mapping.num_modules + 1):
        candidates = [
            dup for dup in mapping.duplicates(module) if view.alive[dup]
        ]
        if not candidates:
            continue  # whole module dead: leave NO_DESTINATION sentinels
        cand = np.asarray(candidates, dtype=np.int64)
        dist = distances[:, cand].copy()
        first_hops = successors[:, cand]
        # A candidate is skipped when its distance is not finite, or —
        # for non-self choices — when the first hop is missing or the
        # (node, first_hop) port is reported deadlocked.
        invalid = ~np.isfinite(dist)
        non_self = node_ids[:, None] != cand[None, :]
        invalid |= non_self & (first_hops == NO_SUCCESSOR)
        for b_node, b_hop in blocked:
            invalid[b_node] |= non_self[b_node] & (first_hops[b_node] == b_hop)
        dist[invalid] = np.inf
        best_idx = np.argmin(dist, axis=1)
        feasible = view.alive & np.isfinite(dist[node_ids, best_idx])
        destinations[:, module] = np.where(
            feasible, cand[best_idx], NO_DESTINATION
        )
    return destinations


def reference_select_destinations(
    view: NetworkView,
    distances: np.ndarray,
    successors: np.ndarray,
) -> np.ndarray:
    """Literal per-(node, duplicate) transcription of the Fig 6 walk.

    O(K * |S_i|) in pure Python — test/reference use only, like the
    Fig 5 Floyd–Warshall transcription the test suite keeps as the
    oracle of phase 2 (``tests/oracles.py``).
    """
    mapping = view.mapping
    size = view.num_nodes
    destinations = np.full(
        (size, mapping.num_modules + 1), NO_DESTINATION, dtype=np.int64
    )
    blocked = view.blocked_ports
    for module in range(1, mapping.num_modules + 1):
        candidates = [
            dup for dup in mapping.duplicates(module) if view.alive[dup]
        ]
        if not candidates:
            continue
        for node in range(size):
            if not view.alive[node]:
                continue
            best_dest = NO_DESTINATION
            best_dist = np.inf
            for dup in candidates:
                dist = distances[node, dup]
                if not np.isfinite(dist):
                    continue
                if node != dup:
                    first_hop = int(successors[node, dup])
                    if first_hop == NO_SUCCESSOR:
                        continue
                    if (node, first_hop) in blocked:
                        continue
                if dist < best_dist:
                    best_dist = dist
                    best_dest = dup
            destinations[node, module] = best_dest
    return destinations
