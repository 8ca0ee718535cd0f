"""Phase 1 of EAR/SDR: the routing cost terms and their pipeline (Sec 6).

SDR weighs each directed interconnect by its physical length ``L_ij``.
EAR multiplies the length by a decreasing function of the *receiving*
node's reported battery level:

    W_ij^(EAR) = f(N_B(j)) * L_ij

so paths through energy-depleted nodes look long, and traffic drifts
toward well-charged regions.  Wear, harvest and congestion add further
multiplicative factors on top of the battery weight.

Each factor is one frozen *cost term* class that owns its parameters
and bounds, its per-level multiplier ``__call__(level)``, a multiplier
table built once at construction, ``applies(view)`` (does the view
carry the telemetry the term reads?) and ``apply(weights, view)`` (the
scaled matrix).  A :class:`CostPipeline` composes terms in list order
over the masked length matrix; the empty pipeline is SDR.

Every term is a *scale* of the running matrix (never an addition), so
the Floyd–Warshall conventions — ``inf`` for severed or masked lines,
0 on the diagonal — survive each step by construction, and the terms
commute up to floating point rounding.  The canonical order battery →
wear → harvest → congestion performs exactly the operations of the
historical hand-rolled composition, so its output is bit-identical to
the one the golden fixtures were recorded under.

Terms self-gate on the view: a term whose telemetry is absent (no wear
matrix, no income vector, no load matrix) skips itself, so one pipeline
instance serves every phase of a simulation — before the first wear
report arrives the wear term is simply inert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ..errors import ConfigurationError
from .view import NetworkView
from .weights import (
    DEFAULT_CONGESTION_LEVELS,
    DEFAULT_CONGESTION_Q,
    DEFAULT_CONGESTION_QUANTUM,
    DEFAULT_HARVEST_LEVELS,
    DEFAULT_HARVEST_Q,
    DEFAULT_HARVEST_QUANTUM,
    DEFAULT_Q,
    DEFAULT_WEAR_LEVELS,
    DEFAULT_WEAR_Q,
    DEFAULT_WEAR_QUANTUM,
    HARVEST_RICH_BAND,
)


def _scale(weights: np.ndarray, multipliers: np.ndarray) -> np.ndarray:
    """Scale a weight matrix by node or link multipliers.

    A length-``K`` vector scales column ``j`` (the receiving endpoint);
    a ``(K, K)`` matrix scales every link.  ``inf`` entries stay ``inf``
    (the multipliers are positive) and the diagonal is re-zeroed, so
    the Floyd–Warshall conventions survive.  Returns a new matrix.
    """
    weights = weights * multipliers
    np.fill_diagonal(weights, 0.0)
    return weights


def sdr_weight_matrix(view: NetworkView) -> np.ndarray:
    """``W^(SDR)``: line lengths with every line of a dead node severed.

    A dead node can neither originate, relay, nor receive packets, so
    every interconnect touching it becomes ``inf``.  The diagonal stays
    0 (the Floyd–Warshall convention ``W_ii = 0``).  This is the matrix
    every :class:`CostPipeline` starts from.
    """
    weights = np.array(view.lengths, dtype=float, copy=True)
    dead = ~view.alive
    weights[dead, :] = np.inf
    weights[:, dead] = np.inf
    np.fill_diagonal(weights, 0.0)
    return weights


def _frozen(values: list[float]) -> np.ndarray:
    """A read-only multiplier table indexed by level."""
    table = np.array(values)
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class BatteryTerm:
    """The paper's battery weight ``f(n) = Q^(2*(N_B - 1 - n))``.

    Column ``j`` grows by ``f(N_B(j))``: 1 for a full battery, growing
    geometrically as the level drops ("Q ... a constant to strengthen
    the impact of the battery information").  The printed formula in
    the DATE'05 PDF is typeset ambiguously; this reconstruction is
    monotone, equals unity at full charge, and reproduces the paper's
    qualitative behaviour — the weighting ablation bench sweeps ``Q``.
    Battery levels are mandatory in every view, so the term always
    applies.

    Args:
        q: Strengthening constant ``Q`` (> 0; values > 1 make depleted
            nodes expensive, ``q == 1`` degenerates EAR into SDR).
        levels: Number of battery levels ``N_B``; must match the view.
    """

    name: ClassVar[str] = "battery"

    q: float = DEFAULT_Q
    levels: int = 8
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.q <= 0:
            raise ConfigurationError(
                f"battery q must be positive, got {self.q}"
            )
        if self.levels < 1:
            raise ConfigurationError(
                f"battery levels must be >= 1, got {self.levels}"
            )
        top = self.levels - 1
        table = [self.q ** (2 * (top - level)) for level in range(self.levels)]
        object.__setattr__(self, "_table", _frozen(table))

    def __call__(self, level: int) -> float:
        """Weight multiplier for a node reporting battery ``level``."""
        if not 0 <= level < self.levels:
            raise ConfigurationError(
                f"battery level {level} outside 0..{self.levels - 1}"
            )
        return float(self._table[level])

    def applies(self, view: NetworkView) -> bool:
        return True

    def apply(self, weights: np.ndarray, view: NetworkView) -> np.ndarray:
        if self.levels != view.levels:
            raise ConfigurationError(
                f"battery term expects {self.levels} levels but the view "
                f"reports {view.levels}"
            )
        # The view validates its levels, so no saturating cap is needed.
        return _scale(weights, self._table[view.battery_levels])


@dataclass(frozen=True)
class _LevelTerm:
    """A saturating level-driven term: ``q ** (±min(level, levels - 1))``.

    The view attribute named by ``_telemetry`` carries the quantised
    levels — a ``(K, K)`` matrix scales links, a length-``K`` vector
    scales receiving nodes.  Level 0 is neutral, and ``q == 1``
    degenerates the term to plain EAR.

    Args:
        q: Base of the multiplier (>= 1).
        quantum: Telemetry per level (> 0), read by the runtime that
            quantises the telemetry.
        levels: Level cap (the multiplier saturates, like battery
            levels), shared with that runtime's quantiser.
    """

    name: ClassVar[str]
    _telemetry: ClassVar[str]
    #: +1 for a penalty (levels look longer), -1 for a bonus.
    _sign: ClassVar[int] = 1

    q: float
    quantum: float
    levels: int
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.q < 1.0:
            raise ConfigurationError(
                f"{self.name} q must be >= 1, got {self.q}"
            )
        if self.quantum <= 0:
            raise ConfigurationError(
                f"{self.name} quantum must be positive, got {self.quantum}"
            )
        if self.levels < 1:
            raise ConfigurationError(
                f"{self.name} levels must be >= 1, got {self.levels}"
            )
        table = [self.q ** (self._sign * level) for level in range(self.levels)]
        object.__setattr__(self, "_table", _frozen(table))

    @property
    def is_neutral(self) -> bool:
        """True when the term cannot change any weight."""
        return self.q == 1.0

    def __call__(self, level: int) -> float:
        """Weight multiplier at ``level``."""
        if level < 0:
            raise ConfigurationError(
                f"{self.name} level must be >= 0, got {level}"
            )
        return float(self._table[min(level, self.levels - 1)])

    def applies(self, view: NetworkView) -> bool:
        return getattr(view, self._telemetry) is not None

    def _multipliers(self, view: NetworkView) -> np.ndarray:
        levels = getattr(view, self._telemetry)
        # Saturate: runtime levels beyond the cap take the top entry.
        return self._table[np.minimum(levels, self.levels - 1)]

    def apply(self, weights: np.ndarray, view: NetworkView) -> np.ndarray:
        return _scale(weights, self._multipliers(view))


@dataclass(frozen=True)
class WearTerm(_LevelTerm):
    """Wear-prediction penalty ``g(w) = Q_w ** min(w, levels - 1)``.

    ``w`` is a link's quantised wear level — its traversal count in
    units of a wear quantum plus one level per degradation event it has
    suffered.  Heavily-used or previously-degraded lines look longer,
    so EAR drifts traffic off them *before* they sever.  Inert until
    the view carries wear levels.  The quantum is a whole traversal
    count (>= 1).
    """

    name: ClassVar[str] = "wear"
    _telemetry: ClassVar[str] = "wear"

    q: float = DEFAULT_WEAR_Q
    quantum: int = DEFAULT_WEAR_QUANTUM
    levels: int = DEFAULT_WEAR_LEVELS

    def __post_init__(self) -> None:
        if self.quantum < 1:
            raise ConfigurationError(
                f"wear quantum must be >= 1, got {self.quantum}"
            )
        super().__post_init__()


@dataclass(frozen=True)
class HarvestTerm(_LevelTerm):
    """Receiver harvest bonus ``h(r) = Q_h ** -min(r, levels - 1)``.

    ``r`` is a node's quantised income level — its smoothed per-frame
    harvested energy (pJ) in units of the quantum, learned by the
    controller from status uploads.  Column ``j`` shrinks by
    ``h(r_j)``, but only while node ``j`` still reports a battery level
    within :data:`~repro.core.weights.HARVEST_RICH_BAND` of full.  A
    nearly-full harvesting cell rejects income for lack of headroom, so
    pulling extra traffic onto it converts otherwise-wasted income into
    delivered work; a node below the band needs the battery weight's
    protection instead (income of tens of pJ per frame cannot carry
    relay duty, and an unconditional bonus measurably shortens lifetime
    by overloading flexing nodes at end of life).  Inert until the view
    carries income.
    """

    name: ClassVar[str] = "harvest"
    _telemetry: ClassVar[str] = "income"
    _sign: ClassVar[int] = -1

    q: float = DEFAULT_HARVEST_Q
    quantum: float = DEFAULT_HARVEST_QUANTUM
    levels: int = DEFAULT_HARVEST_LEVELS

    def apply(self, weights: np.ndarray, view: NetworkView) -> np.ndarray:
        rich = view.battery_levels >= view.levels - HARVEST_RICH_BAND
        return _scale(weights, np.where(rich, self._multipliers(view), 1.0))


@dataclass(frozen=True)
class CongestionTerm(_LevelTerm):
    """Congestion penalty ``c(l) = Q_c ** min(l, levels - 1)``.

    ``l`` is a link's quantised load level — its smoothed per-frame
    traversal count in units of the quantum, tracked by the engine's
    congestion runtime and pushed to the controller on level crossings.
    Hot links look longer, so EAR spreads traffic off the corridors
    adjacent to the controller.  ``q == 1`` (:attr:`is_neutral`) is a
    *measure-only* run: utilisation is tracked and reported but the
    weight matrix is untouched.  Inert until the view carries load.
    """

    name: ClassVar[str] = "congestion"
    _telemetry: ClassVar[str] = "load"

    q: float = DEFAULT_CONGESTION_Q
    quantum: float = DEFAULT_CONGESTION_QUANTUM
    levels: int = DEFAULT_CONGESTION_LEVELS


@dataclass(frozen=True)
class CostPipeline:
    """Ordered composition of cost terms over the masked length matrix.

    The empty pipeline is exactly SDR.  EAR's canonical order is
    battery, wear, harvest, congestion.
    """

    terms: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))

    def weight_matrix(self, view: NetworkView, observer=None) -> np.ndarray:
        """Phase 1: compose all applicable terms over the base lengths.

        ``observer`` is an optional telemetry callback invoked once per
        *applied* term with ``(name, before, after)`` — the running
        matrix on either side of the term — so a trace can attribute a
        re-plan's weight changes to individual cost terms.  The
        composition itself is untouched: with ``observer=None`` the
        call is bit-identical to the historical path.
        """
        weights = sdr_weight_matrix(view)
        for term in self.terms:
            if term.applies(view):
                scaled = term.apply(weights, view)
                if observer is not None:
                    observer(term.name, weights, scaled)
                weights = scaled
        return weights

    def term(self, name: str):
        """First term with the given name, or None."""
        for term in self.terms:
            if term.name == name:
                return term
        return None

    def __repr__(self) -> str:
        names = "+".join(term.name for term in self.terms) or "sdr"
        return f"CostPipeline({names})"
