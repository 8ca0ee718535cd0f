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

``reference_thin_film_draw`` and ``reference_ideal_draw`` are the
battery draw arithmetic as first written, one helper per quantity
(``open_circuit_voltage``, ``_current_ma``, ``_loaded_voltage``).  The
production draws evaluate the same expressions on locals in the same
order, so every result and every state field must match bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.battery.thin_film import _PJ_PER_CYCLE_TO_MW
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


@dataclass
class CellState:
    """Mutable state of one reference cell (the oracles update it)."""

    consumed: float = 0.0
    delivered: float = 0.0
    recharged: float = 0.0
    ema: float = 0.0
    alive: bool = True


def reference_thin_film_draw(
    cell: CellState, params, energy_pj: float, duration_cycles: float
) -> tuple[float, float, bool, float]:
    """One thin-film draw on a living ``cell``; returns ``(requested_pj,
    delivered_pj, died, voltage)``."""
    p = params

    def open_circuit_voltage() -> float:
        depth_of_discharge = min(1.0, cell.consumed / p.capacity_pj)
        return p.profile.voltage_at(depth_of_discharge)

    def current_ma(ocv: float) -> float:
        if ocv <= 0:
            return 0.0
        return cell.ema * _PJ_PER_CYCLE_TO_MW / ocv

    def loaded_voltage(ocv: float) -> float:
        sag = current_ma(ocv) * p.internal_resistance_ohm / 1e3
        return max(0.0, ocv - sag)

    if energy_pj == 0:
        return 0.0, 0.0, False, loaded_voltage(open_circuit_voltage())

    power_pj_per_cycle = energy_pj / duration_cycles
    alpha = 1.0 - math.exp(-duration_cycles / p.ema_window_cycles)
    cell.ema += alpha * (power_pj_per_cycle - cell.ema)
    ocv_before = open_circuit_voltage()
    ratio = current_ma(ocv_before) / p.reference_current_ma
    penalty = (
        1.0
        + p.rate_penalty_coeff
        * ratio ** p.rate_penalty_exponent
    )
    charge_needed = energy_pj * penalty
    available = p.capacity_pj - cell.consumed

    exhausted = charge_needed >= available - 1e-9
    if exhausted:
        delivered = max(0.0, available / penalty)
        cell.consumed = p.capacity_pj
    else:
        delivered = energy_pj
        cell.consumed += charge_needed
    cell.delivered += delivered

    ocv_after = open_circuit_voltage()
    voltage = loaded_voltage(ocv_after)
    voltage_death = not p.allow_recovery and voltage < p.cutoff_voltage
    ocv_death = ocv_after < p.cutoff_voltage
    died = exhausted or voltage_death or ocv_death
    if died:
        cell.alive = False
    return energy_pj, delivered, died, voltage


def reference_thin_film_rest(cell: CellState, params, duration_cycles) -> None:
    if duration_cycles == 0:
        return
    cell.ema *= math.exp(-duration_cycles / params.ema_window_cycles)


def reference_ideal_draw(
    cell: CellState, capacity_pj: float, voltage: float, energy_pj: float
) -> tuple[float, float, bool, float]:
    """One ideal-cell draw on a living ``cell`` (``consumed`` is
    delivered minus recharged); same return value as above."""
    available = capacity_pj - (cell.delivered - cell.recharged)
    delivered = min(energy_pj, available)
    cell.delivered += delivered
    died = cell.delivered - cell.recharged >= capacity_pj - 1e-9
    if died:
        cell.alive = False
    return energy_pj, delivered, died, voltage


def reference_recharge(cell: CellState, energy_pj: float, thin_film: bool) -> float:
    """Accept harvest into a living ``cell``: thin-film rolls
    ``consumed`` back, the ideal cell books it as ``recharged``."""
    if not cell.alive:
        return 0.0
    if thin_film:
        accepted = min(energy_pj, max(0.0, cell.consumed))
        cell.consumed -= accepted
    else:
        accepted = min(energy_pj, max(0.0, cell.delivered - cell.recharged))
    cell.recharged += accepted
    return accepted
