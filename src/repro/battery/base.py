"""Abstract battery interface shared by all battery models."""

from __future__ import annotations

import abc
from typing import NamedTuple

from ..errors import ConfigurationError


class DrawResult(NamedTuple):
    """Outcome of one energy draw from a battery.

    A named tuple rather than a frozen dataclass: every hop, operation
    and heartbeat builds one, and tuple construction costs a fraction
    of a frozen dataclass's per-field ``object.__setattr__``.

    Attributes:
        requested_pj: Energy the load asked for.
        delivered_pj: Energy actually delivered (< requested only on the
            draw that kills the battery).
        died: True when this draw depleted the battery (or pushed the
            loaded voltage below the cut-off threshold).
        voltage: Loaded output voltage observed during the draw.
    """

    requested_pj: float
    delivered_pj: float
    died: bool
    voltage: float

    @property
    def complete(self) -> bool:
        """True when the full requested energy was delivered."""
        return self.delivered_pj >= self.requested_pj - 1e-9


class Battery(abc.ABC):
    """Common interface of the ideal and thin-film battery models.

    All energies are in pJ and all durations in clock cycles (see
    :mod:`repro.units`).  A battery starts alive and dies permanently:
    the paper treats a node whose battery output drops below 3.0 V as
    dead, with any remaining stored energy wasted (Sec 5.1.3).
    """

    @property
    @abc.abstractmethod
    def nominal_capacity_pj(self) -> float:
        """Initial (nominal) energy capacity in pJ."""

    @property
    @abc.abstractmethod
    def delivered_pj(self) -> float:
        """Total energy delivered to the load so far."""

    @property
    @abc.abstractmethod
    def alive(self) -> bool:
        """False once the battery has died (permanently)."""

    @property
    @abc.abstractmethod
    def voltage(self) -> float:
        """Present output voltage (loaded, using the smoothed current)."""

    @property
    @abc.abstractmethod
    def state_of_charge(self) -> float:
        """Remaining usable fraction of nominal capacity, in [0, 1]."""

    @abc.abstractmethod
    def draw(self, energy_pj: float, duration_cycles: float) -> DrawResult:
        """Draw ``energy_pj`` over ``duration_cycles`` from the cell.

        Returns a :class:`DrawResult`; raises :class:`BatteryError` if
        called on a dead battery (which would indicate a simulator bug —
        the engine must check :attr:`alive` first).
        """

    @abc.abstractmethod
    def rest(self, duration_cycles: float) -> None:
        """Let the battery idle for ``duration_cycles`` (relaxes the load
        average; never revives a dead cell)."""

    def recharge(self, energy_pj: float) -> float:
        """Accept up to ``energy_pj`` of harvested charge into the store.

        Returns the energy actually accepted: capped at the nominal
        capacity (a full cell accepts nothing) and 0 for a dead cell —
        recharge never revives a battery, matching the paper's
        permanent-death semantics.  The base implementation models a
        cell without a charge path (accepts nothing); the ideal and
        thin-film models override it.
        """
        if energy_pj < 0:
            raise ConfigurationError(
                f"cannot recharge negative energy {energy_pj}"
            )
        return 0.0

    @property
    def recharged_pj(self) -> float:
        """Total harvested energy accepted into the store so far."""
        return 0.0

    @property
    def wasted_pj(self) -> float:
        """Energy stranded in the cell (everything put in minus
        everything drawn out).

        For a dead battery this is the paper's "remaining energy stored
        in the attached battery is wasted"; for a living one it is the
        energy still available.  Models account recharge inside
        :attr:`consumed_pj` (the ideal cell nets it off, the thin-film
        cell rolls its depth of discharge back), so this is always the
        true remaining store.
        """
        return max(0.0, self.nominal_capacity_pj - self.consumed_pj)

    @property
    def consumed_pj(self) -> float:
        """Energy removed from the store (delivered plus conversion loss).

        Models default to lossless delivery; the thin-film model
        overrides this to include its rate-capacity penalty.
        """
        return self.delivered_pj
