"""Discrete-time Li-free thin-film battery model.

Implements the battery behaviour the paper feeds into et_sim (Sec 5.1.3):
the discharge characteristic of a Li-free thin-film cell (Fig 2, after
Neudecker et al. [10]) combined with a discrete-time model in the style
of Benini et al. [8].  The model tracks:

* **Open-circuit voltage** from the digitised discharge profile as a
  function of depth of discharge (DoD).
* **Smoothed load current** — an exponential moving average of drawn
  power over a configurable window, converted to current through the
  present voltage.  This captures *duty cycle*: a node hammered by the
  router sustains a much higher average current than one that shares
  load with its duplicates.
* **IR sag** — the loaded output voltage is ``V_oc(DoD) - I_ema * R``.
  Thin-film micro-batteries have internal resistances in the tens of
  kilo-ohms, so concentrated load depresses the output voltage
  substantially.
* **Rate-capacity effect** — delivering energy at high smoothed current
  removes extra charge from the store
  (``penalty = 1 + k * (I/I_ref)^a``), the discrete-time analogue of the
  Peukert/rate-capacity behaviour of [8].
* **Permanent death** — once the loaded voltage falls below the 3.0 V
  threshold the node is dead and "the remaining energy stored in the
  attached battery is wasted" (Sec 5.1.3).  An optional recovery mode
  (used only by the ablation benches) restricts death to open-circuit
  exhaustion so the contribution of rate-induced early death can be
  isolated.

The paper reports its discrete-time approximation as accurate within
15 % of the continuous-time circuit model while noting that real cell
capacity varies by up to 20 % between identical units — the calibration
philosophy here follows suit: shapes are faithful, absolute constants
are explicit, documented parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import BatteryError, ConfigurationError
from ..units import require_non_negative, require_positive
from .base import Battery, DrawResult
from .profile import LI_FREE_THIN_FILM_PROFILE, DischargeProfile

#: Paper default: nominal capacity shrunk to 60 000 pJ (Sec 5.1.3).
DEFAULT_CAPACITY_PJ = 60_000.0

#: Paper default: node dead below 3.0 V (Sec 5.1.3).
DEFAULT_CUTOFF_VOLTAGE = 3.0


@dataclass(frozen=True)
class ThinFilmParameters:
    """Electrical parameters of the thin-film cell model.

    Attributes:
        capacity_pj: Nominal energy capacity (paper: 60 000 pJ).
        cutoff_voltage: Loaded voltage below which the node dies
            (paper: 3.0 V).
        internal_resistance_ohm: Series resistance producing IR sag under
            the smoothed load current.  Thin-film cells are high-impedance
            devices; the default is calibrated so a node monopolised by
            the router sags a few hundred millivolts.
        ema_window_cycles: Time constant (in clock cycles) of the
            exponential moving average of drawn power — the "time step"
            of the discrete-time model.  Chosen on the order of one job
            so the average reflects per-job duty cycle.
        rate_penalty_coeff: Strength ``k`` of the rate-capacity penalty.
        rate_penalty_exponent: Exponent ``a`` of the penalty term.
        reference_current_ma: Current ``I_ref`` at which the penalty term
            reaches ``1 + k``.
        allow_recovery: When True, dips of the *loaded* voltage below the
            cut-off do not kill the cell; only open-circuit depletion
            does.  Default False, matching the paper's permanent death.
    """

    capacity_pj: float = DEFAULT_CAPACITY_PJ
    cutoff_voltage: float = DEFAULT_CUTOFF_VOLTAGE
    internal_resistance_ohm: float = 40_000.0
    ema_window_cycles: float = 8_000.0
    rate_penalty_coeff: float = 0.5
    rate_penalty_exponent: float = 2.0
    reference_current_ma: float = 0.02
    allow_recovery: bool = False
    profile: DischargeProfile = field(default=LI_FREE_THIN_FILM_PROFILE)

    def __post_init__(self) -> None:
        require_positive("capacity_pj", self.capacity_pj)
        require_positive("cutoff_voltage", self.cutoff_voltage)
        require_non_negative(
            "internal_resistance_ohm", self.internal_resistance_ohm
        )
        require_positive("ema_window_cycles", self.ema_window_cycles)
        require_non_negative("rate_penalty_coeff", self.rate_penalty_coeff)
        require_positive("rate_penalty_exponent", self.rate_penalty_exponent)
        require_positive("reference_current_ma", self.reference_current_ma)
        if self.cutoff_voltage >= self.profile.full_voltage:
            raise ConfigurationError(
                "cutoff voltage must be below the fresh-cell voltage "
                f"({self.cutoff_voltage} >= {self.profile.full_voltage})"
            )


#: Conversion factor: 1 pJ/cycle at a 100 MHz clock equals 0.1 mW.
_PJ_PER_CYCLE_TO_MW = 0.1


class ThinFilmBattery(Battery):
    """Stateful thin-film cell following :class:`ThinFilmParameters`."""

    def __init__(self, params: ThinFilmParameters | None = None):
        self._p = params if params is not None else ThinFilmParameters()
        self._consumed = 0.0       # charge removed from the store (pJ)
        self._delivered = 0.0      # energy handed to the load (pJ)
        self._recharged = 0.0      # harvested charge accepted (pJ)
        self._ema_power = 0.0      # smoothed drawn power (pJ/cycle)
        self._alive = True
        self._rest_cycles = 0.0    # last rest duration and its EMA decay:
        self._rest_decay = 1.0     # engines rest for one frame length

    # ------------------------------------------------------------------
    # Battery interface
    # ------------------------------------------------------------------
    @property
    def parameters(self) -> ThinFilmParameters:
        """The (immutable) electrical parameters of this cell."""
        return self._p

    @property
    def nominal_capacity_pj(self) -> float:
        return self._p.capacity_pj

    @property
    def delivered_pj(self) -> float:
        return self._delivered

    @property
    def consumed_pj(self) -> float:
        return self._consumed

    @property
    def recharged_pj(self) -> float:
        return self._recharged

    @property
    def loss_pj(self) -> float:
        """Charge lost to the rate-capacity effect so far.

        Recharge rolls :attr:`consumed_pj` back (the DoD rollback), so
        the accepted harvest is added back here to keep the loss a
        monotone gross quantity: ``gross removed = delivered + loss``.
        """
        return self._consumed + self._recharged - self._delivered

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def depth_of_discharge(self) -> float:
        """Consumed fraction of nominal capacity, in [0, 1]."""
        return min(1.0, self._consumed / self._p.capacity_pj)

    @property
    def state_of_charge(self) -> float:
        return 1.0 - min(1.0, self._consumed / self._p.capacity_pj)

    @property
    def open_circuit_voltage(self) -> float:
        """Voltage of the cell with the load removed."""
        return self._p.profile.voltage_at(self.depth_of_discharge)

    @property
    def smoothed_current_ma(self) -> float:
        """Exponentially averaged load current in mA."""
        ocv = self.open_circuit_voltage
        return 0.0 if ocv <= 0 else self._ema_power * _PJ_PER_CYCLE_TO_MW / ocv

    @property
    def voltage(self) -> float:
        """Loaded output voltage ``V_oc - I_ema * R`` (0 when dead)."""
        if not self._alive:
            return 0.0
        sag = self.smoothed_current_ma * self._p.internal_resistance_ohm / 1e3
        return max(0.0, self.open_circuit_voltage - sag)

    # ------------------------------------------------------------------
    # Discrete-time dynamics
    # ------------------------------------------------------------------
    def draw(self, energy_pj: float, duration_cycles: float) -> DrawResult:
        if not self._alive:
            raise BatteryError("cannot draw from a dead battery")
        if energy_pj < 0:
            raise ConfigurationError(f"cannot draw negative energy {energy_pj}")
        if duration_cycles <= 0:
            raise ConfigurationError(
                f"draw duration must be positive, got {duration_cycles}"
            )
        if energy_pj == 0:
            return DrawResult(0.0, 0.0, False, self.voltage)

        # Every hop, operation and heartbeat lands here, so the model is
        # evaluated on locals, in the operation order of the properties
        # above (smoothed_current_ma, voltage): results are bit-identical.
        p = self._p
        capacity = p.capacity_pj
        voltage_at = p.profile.voltage_at
        # The EMA of drawn power is the model's discrete time step.
        alpha = 1.0 - math.exp(-duration_cycles / p.ema_window_cycles)
        ema = self._ema_power
        ema += alpha * (energy_pj / duration_cycles - ema)
        self._ema_power = ema
        # Evaluate the discharge curve once per state: the pre-draw OCV
        # feeds the rate penalty, the post-draw OCV feeds sag and death.
        # (voltage_at clamps a DoD past 1.0 itself.)
        consumed = self._consumed
        ocv = voltage_at(consumed / capacity)
        current = 0.0 if ocv <= 0 else ema * _PJ_PER_CYCLE_TO_MW / ocv
        ratio = current / p.reference_current_ma
        penalty = 1.0 + p.rate_penalty_coeff * ratio ** p.rate_penalty_exponent
        charge_needed = energy_pj * penalty
        available = capacity - consumed

        exhausted = charge_needed >= available - 1e-9
        if exhausted:
            delivered = max(0.0, available / penalty)
            consumed = capacity
        else:
            delivered = energy_pj
            consumed += charge_needed
        self._consumed = consumed
        self._delivered += delivered

        ocv = voltage_at(consumed / capacity)
        current = 0.0 if ocv <= 0 else ema * _PJ_PER_CYCLE_TO_MW / ocv
        loaded_voltage = max(0.0, ocv - current * p.internal_resistance_ohm / 1e3)
        died = exhausted or ocv < p.cutoff_voltage or (
            not p.allow_recovery and loaded_voltage < p.cutoff_voltage
        )
        if died:
            self._alive = False
        return DrawResult(energy_pj, delivered, died, loaded_voltage)

    def recharge(self, energy_pj: float) -> float:
        """Accept harvested charge by rolling the depth of discharge back.

        The accepted amount is capped by the present DoD (the store
        never exceeds nominal capacity) and a dead cell rejects
        everything — neither voltage death nor exhaustion is reversible
        (Sec 5.1.3's death is permanent).  Rolling ``consumed`` back
        raises the open-circuit voltage for subsequent draws, which is
        exactly how a refilled thin-film cell behaves.
        """
        if energy_pj < 0:
            raise ConfigurationError(
                f"cannot recharge negative energy {energy_pj}"
            )
        if not self._alive:
            return 0.0
        accepted = min(energy_pj, max(0.0, self._consumed))
        self._consumed -= accepted
        self._recharged += accepted
        return accepted

    def rest(self, duration_cycles: float) -> None:
        if duration_cycles < 0:
            raise ConfigurationError(
                f"rest duration must be non-negative, got {duration_cycles}"
            )
        if duration_cycles == 0:
            return
        if duration_cycles != self._rest_cycles:
            self._rest_cycles = duration_cycles
            self._rest_decay = math.exp(-duration_cycles / self._p.ema_window_cycles)
        self._ema_power *= self._rest_decay
