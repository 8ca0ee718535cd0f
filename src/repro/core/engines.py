"""The EAR and SDR routing engines.

"For a fair comparison, the proposed energy-aware routing strategy and
its non-energy-aware counterpart are kept exactly the same except their
routing algorithms" (paper Sec 5) — accordingly both engines share
phases 2 and 3 verbatim and differ *only* in the phase 1 weight matrix,
which both now obtain from a :class:`~repro.core.costs.CostPipeline`
(empty for SDR, battery/wear/harvest/congestion terms for EAR).
"""

from __future__ import annotations

import abc
import time

import numpy as np

from ..errors import ConfigurationError
from .costs import CostPipeline
from .floyd_warshall import floyd_warshall_successors
from .phase3 import EcmpSelector, RoutingPlan, select_destinations
from .view import NetworkView
from .weights import (
    BatteryWeightFunction,
    CongestionWeightFunction,
    HarvestWeightFunction,
    WearWeightFunction,
)


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

    The standard EAR pipeline composes up to four cost terms over the
    masked length matrix — battery (always), and wear / harvest /
    congestion whenever the corresponding weight function is attached
    *and* the view carries the matching telemetry:

    * wear (:class:`~repro.core.weights.WearWeightFunction`) — routing
      drifts away from worn lines before they sever, instead of only
      reacting to discovered cuts;
    * harvest (:class:`~repro.core.weights.HarvestWeightFunction`) —
      traffic is steered toward regions the fabric is actively
      recharging;
    * congestion (:class:`~repro.core.weights.CongestionWeightFunction`)
      — hot links look longer, spreading traffic off the corridors
      adjacent to the controller.

    A fully custom :class:`~repro.core.costs.CostPipeline` may be passed
    instead of the individual functions.
    """

    name = "ear"

    def __init__(
        self,
        weight_function: BatteryWeightFunction | None = None,
        wear_function: WearWeightFunction | None = None,
        harvest_function: HarvestWeightFunction | None = None,
        congestion_function: CongestionWeightFunction | None = None,
        pipeline: CostPipeline | None = None,
    ):
        if pipeline is not None:
            self._pipeline = pipeline
        else:
            self._pipeline = CostPipeline.ear(
                weight_function=weight_function,
                wear_function=wear_function,
                harvest_function=harvest_function,
                congestion_function=congestion_function,
            )

    @property
    def pipeline(self) -> CostPipeline:
        return self._pipeline

    def _term_function(self, name: str):
        term = self._pipeline.term(name)
        return term.function if term is not None else None

    @property
    def weight_function(self) -> BatteryWeightFunction:
        """The battery weighting function ``f`` in use."""
        function = self._term_function("battery")
        if function is None:
            raise ConfigurationError(
                "EAR pipeline has no battery term"
            )
        return function

    @property
    def wear_function(self) -> WearWeightFunction | None:
        """The wear-prediction penalty in use (None = reactive EAR)."""
        return self._term_function("wear")

    @property
    def harvest_function(self) -> HarvestWeightFunction | None:
        """The harvest bonus in use (None = harvest-blind EAR)."""
        return self._term_function("harvest")

    @property
    def congestion_function(self) -> CongestionWeightFunction | None:
        """The congestion penalty in use (None = congestion-blind EAR)."""
        return self._term_function("congestion")

    def __repr__(self) -> str:
        wf = self.weight_function
        parts = [f"q={wf.q}", f"levels={wf.levels}"]
        if self.wear_function is not None:
            parts.append(f"wear_q={self.wear_function.q}")
        if self.harvest_function is not None:
            parts.append(f"harvest_q={self.harvest_function.q}")
        if self.congestion_function is not None:
            parts.append(f"congestion_q={self.congestion_function.q}")
        return f"EnergyAwareRouting({', '.join(parts)})"


def routing_engine(
    name: str,
    weight_function: BatteryWeightFunction | None = None,
    wear_function: WearWeightFunction | None = None,
    harvest_function: HarvestWeightFunction | None = None,
    congestion_function: CongestionWeightFunction | None = None,
) -> RoutingEngine:
    """Factory by short name (``"ear"`` or ``"sdr"``)."""
    normalized = name.strip().lower()
    if normalized == "ear":
        return EnergyAwareRouting(
            weight_function,
            wear_function,
            harvest_function,
            congestion_function,
        )
    if normalized == "sdr":
        return ShortestDistanceRouting()
    raise ConfigurationError(
        f"unknown routing engine {name!r}; expected 'ear' or 'sdr'"
    )
