"""The ideal battery model.

Used by the paper for the Table 2 comparison against Theorem 1: "the
battery model of the Li-free thin-film battery is replaced with the ideal
battery model which outputs constant voltage with 100 % efficiency until
depletion" (Sec 7.2).
"""

from __future__ import annotations

from ..errors import BatteryError, ConfigurationError
from ..units import require_positive
from .base import Battery, DrawResult

#: Default nominal capacity from the paper (Sec 5.1.3).
DEFAULT_CAPACITY_PJ = 60_000.0

#: Output voltage of the ideal cell; the value itself never affects the
#: energy accounting (100 % efficiency), it only needs to stay above the
#: 3.0 V death threshold until depletion.
DEFAULT_VOLTAGE = 3.6


class IdealBattery(Battery):
    """Constant-voltage, 100 %-efficient energy store.

    Delivers exactly the requested energy until the store is exhausted;
    the draw that empties the store delivers the remaining energy and
    kills the cell, so no energy is ever wasted.
    """

    def __init__(
        self,
        capacity_pj: float = DEFAULT_CAPACITY_PJ,
        voltage: float = DEFAULT_VOLTAGE,
    ):
        require_positive("capacity_pj", capacity_pj)
        require_positive("voltage", voltage)
        self._capacity = float(capacity_pj)
        self._voltage = float(voltage)
        self._delivered = 0.0
        self._recharged = 0.0
        self._alive = True

    @property
    def nominal_capacity_pj(self) -> float:
        return self._capacity

    @property
    def delivered_pj(self) -> float:
        return self._delivered

    @property
    def recharged_pj(self) -> float:
        return self._recharged

    @property
    def consumed_pj(self) -> float:
        """Net charge removed from the store (delivered minus refilled)."""
        return self._delivered - self._recharged

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def voltage(self) -> float:
        return self._voltage if self._alive else 0.0

    @property
    def state_of_charge(self) -> float:
        consumed = self._delivered - self._recharged
        return min(1.0, max(0.0, 1.0 - consumed / self._capacity))

    def draw(self, energy_pj: float, duration_cycles: float) -> DrawResult:
        if not self._alive:
            raise BatteryError("cannot draw from a dead battery")
        if energy_pj < 0:
            raise ConfigurationError(f"cannot draw negative energy {energy_pj}")
        if duration_cycles <= 0:
            raise ConfigurationError(
                f"draw duration must be positive, got {duration_cycles}"
            )
        recharged = self._recharged
        delivered = min(energy_pj, self._capacity - (self._delivered - recharged))
        self._delivered += delivered
        died = self._delivered - recharged >= self._capacity - 1e-9
        if died:
            self._alive = False
        return DrawResult(energy_pj, delivered, died, self._voltage)

    def recharge(self, energy_pj: float) -> float:
        """Accept harvested charge (100 % efficiency, capped at nominal).

        The accepted amount never exceeds the charge already removed,
        so the store never holds more than its nominal capacity; a dead
        cell rejects everything.
        """
        if energy_pj < 0:
            raise ConfigurationError(
                f"cannot recharge negative energy {energy_pj}"
            )
        if not self._alive:
            return 0.0
        # The headroom can carry float dust (delivered and recharged
        # accumulate separately); clamp so a full cell accepts exactly 0.
        accepted = min(energy_pj, max(0.0, self.consumed_pj))
        self._recharged += accepted
        return accepted

    def rest(self, duration_cycles: float) -> None:
        """No-op: an ideal cell has no load-history state."""
        if duration_cycles < 0:
            raise ConfigurationError(
                f"rest duration must be non-negative, got {duration_cycles}"
            )
