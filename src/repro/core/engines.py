"""The EAR and SDR routing engines.

"For a fair comparison, the proposed energy-aware routing strategy and
its non-energy-aware counterpart are kept exactly the same except their
routing algorithms" (paper Sec 5) — accordingly both engines share
phases 2 and 3 verbatim and differ *only* in the phase 1 weight matrix,
which both obtain from a :class:`~repro.core.costs.CostPipeline`: empty
for SDR, the cost terms passed to :class:`EnergyAwareRouting` for EAR.
"""

from __future__ import annotations

import abc
import time

import numpy as np

from ..errors import ConfigurationError
from .costs import BatteryTerm, CostPipeline
from .floyd_warshall import floyd_warshall_successors
from .phase3 import EcmpSelector, RoutingPlan, select_destinations
from .view import NetworkView


class RoutingEngine(abc.ABC):
    """Base class of the online routing algorithms (paper Sec 6)."""

    #: Short identifier used in configs, reports, and the CLI.
    name: str = "abstract"

    #: ECMP round-robin seed; None disables equal-cost spreading and
    #: every plan routes on the canonical successor table alone.
    _ecmp_seed: int | None = None

    #: ``(weights, D, S)`` of the last Floyd–Warshall rebuild, frozen.
    _apsp_memo: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    @abc.abstractmethod
    def pipeline(self) -> CostPipeline:
        """The phase 1 cost pipeline producing the weight matrix."""

    def weight_matrix(
        self, view: NetworkView, observer=None
    ) -> np.ndarray:
        """Phase 1: produce the directed interconnect weight matrix.

        ``observer`` is the optional per-term telemetry callback of
        :meth:`~repro.core.costs.CostPipeline.weight_matrix`.
        """
        return self.pipeline.weight_matrix(view, observer=observer)

    def configure_ecmp(self, seed: int | None) -> None:
        """Enable (seeded) or disable equal-cost multi-path spreading."""
        self._ecmp_seed = None if seed is None else int(seed)

    @property
    def ecmp_enabled(self) -> bool:
        """Whether computed plans round-robin equal-cost successors."""
        return self._ecmp_seed is not None

    def compute_plan(
        self,
        view: NetworkView,
        term_observer=None,
        timer=None,
    ) -> RoutingPlan:
        """Run all three phases and return the routing plan.

        ``term_observer`` forwards to the cost pipeline (per-term
        weight attribution); ``timer`` is an optional
        ``(name, seconds)`` callback wrapping phase 2 — it dominates
        the recompute cost and is the hot path a trace wants isolated.
        A Floyd–Warshall rebuild reports as ``floyd-warshall``, a reuse
        of the previous ``(D, S)`` as ``floyd-warshall-reuse``.

        Phase 2 is memoised on the last weight matrix: when the new
        weights are bitwise equal to it (SDR ignores the battery-level
        reports that trigger most re-plans), the stored ``(D, S)`` is
        reused.  The weights, ``D`` and ``S`` are returned read-only so
        the memo cannot be changed behind its back.  Phases 1 and 3 and
        ECMP always run on the current view.
        """
        weights = np.ascontiguousarray(
            self.weight_matrix(view, observer=term_observer), dtype=float
        )
        started = time.perf_counter() if timer is not None else 0.0
        memo = self._apsp_memo
        # Compared as int64 bit patterns, so -0.0 != 0.0.
        if memo is not None and np.array_equal(
            memo[0].view(np.int64), weights.view(np.int64)
        ):
            _, distances, successors = memo
            phase = "floyd-warshall-reuse"
        else:
            # Release the old entry first: the rebuild then peaks at
            # the same memory as it would without the memo.
            self._apsp_memo = None
            distances, successors = floyd_warshall_successors(weights)
            for matrix in (weights, distances, successors):
                matrix.setflags(write=False)
            self._apsp_memo = (weights, distances, successors)
            phase = "floyd-warshall"
        if timer is not None:
            timer(phase, time.perf_counter() - started)
        destinations = select_destinations(view, distances, successors)
        ecmp = None
        if self._ecmp_seed is not None:
            ecmp = EcmpSelector(
                weights=weights,
                distances=distances,
                successors=successors,
                blocked_ports=view.blocked_ports,
                seed=self._ecmp_seed,
            )
        return RoutingPlan(
            distances=distances,
            successors=successors,
            destinations=destinations,
            view=view,
            ecmp=ecmp,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ShortestDistanceRouting(RoutingEngine):
    """SDR: the non-energy-aware baseline (weights = line lengths).

    The empty cost pipeline: no term touches the masked length matrix.
    """

    name = "sdr"

    def __init__(self) -> None:
        self._pipeline = CostPipeline()

    @property
    def pipeline(self) -> CostPipeline:
        return self._pipeline


class EnergyAwareRouting(RoutingEngine):
    """EAR: lengths scaled by the receiver's battery weight ``f(N_B(j))``.

    The cost terms of :mod:`repro.core.costs` compose in the order
    given over the masked length matrix; with none given, EAR is the
    paper's :class:`~repro.core.costs.BatteryTerm` alone.  The other
    standard terms apply once the view carries their telemetry:

    * :class:`~repro.core.costs.WearTerm` — routing drifts away from
      worn lines before they sever, instead of only reacting to
      discovered cuts;
    * :class:`~repro.core.costs.HarvestTerm` — traffic is steered
      toward regions the fabric is actively recharging;
    * :class:`~repro.core.costs.CongestionTerm` — hot links look
      longer, spreading traffic off the corridors adjacent to the
      controller.
    """

    name = "ear"

    def __init__(self, *terms) -> None:
        self._pipeline = CostPipeline(terms or (BatteryTerm(),))

    @property
    def pipeline(self) -> CostPipeline:
        return self._pipeline

    def __repr__(self) -> str:
        terms = ", ".join(repr(term) for term in self._pipeline.terms)
        return f"EnergyAwareRouting({terms})"


def routing_engine(name: str) -> RoutingEngine:
    """Factory by short name (``"ear"`` or ``"sdr"``), default terms."""
    normalized = name.strip().lower()
    if normalized == "ear":
        return EnergyAwareRouting()
    if normalized == "sdr":
        return ShortestDistanceRouting()
    raise ConfigurationError(
        f"unknown routing engine {name!r}; expected 'ear' or 'sdr'"
    )
