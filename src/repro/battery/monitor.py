"""Quantised battery-level reporting.

The EAR weighting function consumes a *reported battery level*
``N_B(j)`` with ``0 <= N_B(j) < N_B`` (paper Sec 6) — an integer that the
node uploads to the central controller during its TDMA slot.  The
quantiser maps a battery's state of charge onto that integer scale and
the tracker detects level changes, which is what triggers both an upload
and, at the controller, a routing recomputation ("when the currently
reported system information differs from the previous one").
"""

from __future__ import annotations

import math

from ..errors import ConfigurationError
from .base import Battery

#: Default number of quantisation levels (3 bits of status payload).
DEFAULT_LEVELS = 8


class BatteryLevelQuantizer:
    """Maps state of charge onto ``levels`` discrete report values."""

    def __init__(self, levels: int = DEFAULT_LEVELS):
        if levels < 2:
            raise ConfigurationError(
                f"need at least 2 battery levels, got {levels}"
            )
        self._levels = int(levels)

    @property
    def levels(self) -> int:
        """The number of quantisation levels ``N_B``."""
        return self._levels

    @property
    def bits(self) -> int:
        """Bits needed to encode one level report."""
        return max(1, math.ceil(math.log2(self._levels)))

    def level_of_fraction(self, state_of_charge: float) -> int:
        """Quantise a state-of-charge fraction in [0, 1].

        A full battery reports ``levels - 1``; a dead or empty battery
        reports 0.  The mapping is ``floor(soc * levels)`` clamped to the
        valid range, so each level covers an equal SoC band.
        """
        if state_of_charge <= 0.0:
            return 0
        level = int(state_of_charge * self._levels)
        return min(self._levels - 1, level)

    def level_of(self, battery: Battery) -> int:
        """Quantise a battery object (0 if the battery is dead)."""
        if not battery.alive:
            return 0
        return self.level_of_fraction(battery.state_of_charge)


class LevelTracker:
    """Remembers the last reported level per node and flags changes.

    The controller's view is refreshed only when a node's quantised level
    changes (or the node dies), which is exactly the condition the paper
    uses to re-run the routing algorithm.
    """

    def __init__(self, quantizer: BatteryLevelQuantizer):
        self._quantizer = quantizer
        self._last: dict[int, int] = {}
        self._alive: dict[int, bool] = {}

    @property
    def quantizer(self) -> BatteryLevelQuantizer:
        return self._quantizer

    def observe(self, node: int, battery: Battery) -> bool:
        """Record the node's current level; return True if it changed."""
        alive = battery.alive
        quantize = self._quantizer.level_of_fraction
        level = quantize(battery.state_of_charge) if alive else 0
        if self._last.get(node) == level and self._alive.get(node) == alive:
            return False
        self._last[node] = level
        self._alive[node] = alive
        return True

    def level(self, node: int) -> int:
        """Last recorded level of ``node`` (0 if never observed)."""
        return self._last.get(node, 0)

    def snapshot(self) -> dict[int, int]:
        """Copy of all recorded levels."""
        return dict(self._last)
