"""Calibrated constants of the routing cost terms (paper Sec 6).

The terms themselves — battery, wear, harvest and congestion — live in
:mod:`repro.core.costs`; this module holds only their calibrated
defaults and the level caps shared with the runtimes that quantise
each term's telemetry.
"""

#: Default strengthening constant, calibrated against the paper's
#: 44.5-48.2 % band of the analytical bound.  The ``paper`` benchmark's
#: Table 2 8x8 EAR point measures a ``bound_fraction`` of 0.4926 with it
#: (``perfbench/README.md``).
DEFAULT_Q = 1.6

#: Default wear-penalty base: a link one wear level up looks 10 %
#: longer.  Deliberately gentler than the battery weight — wear is a
#: *prediction* of failure, not a measured depletion, and an aggressive
#: penalty would fight the battery balancing it rides on top of.
#: Calibrated (with the quantum below) on the wear-aware scenario's
#: attrition grid so the wear weight never shortens lifetime there.
DEFAULT_WEAR_Q = 1.1

#: Default traversal count per wear level (one quantum of mechanical
#: stress); each past degradation event also counts as one full level.
DEFAULT_WEAR_QUANTUM = 96

#: Wear-level cap shared by the fault runtime's quantiser and the
#: penalty table — one source of truth for where wear saturates.
DEFAULT_WEAR_LEVELS = 8

#: Default harvest-bonus base: a node one income level up looks ~23 %
#: closer *while its battery is still nearly full* (see
#: :data:`HARVEST_RICH_BAND`).  Calibrated (with the quantum below) on
#: the harvest-aware scenario grid so the harvest weight gains jobs
#: there.
DEFAULT_HARVEST_Q = 1.3

#: Default smoothed income (pJ per frame) per quantised income level.
DEFAULT_HARVEST_QUANTUM = 5.0

#: Income-level cap shared by the harvest runtime's quantiser and the
#: bonus table.
DEFAULT_HARVEST_LEVELS = 8

#: The harvest bonus only applies to receivers reporting a battery
#: level within this many levels of full (the top quarter of the
#: default 8-level scale).  Surplus draining: attracting load to a
#: harvesting node is profitable exactly while its cell is so full
#: that income would otherwise be rejected for lack of headroom; once
#: the level drops out of the band the node needs the regular battery
#: weight's protection, not extra traffic.
HARVEST_RICH_BAND = 2

#: Default congestion-penalty base: a link one load level up looks
#: 25 % longer.  Stronger than the wear penalty — congestion is a
#: *measured* per-frame utilisation, not a failure prediction, and the
#: penalty must overcome the battery weight's pull toward the short
#: central corridors for ECMP spreading to engage.  Calibrated (with
#: the quantum below) on the congestion-relief scenario grid so the
#: hottest link's traffic share drops without shortening lifetime.
DEFAULT_CONGESTION_Q = 1.25

#: Default smoothed per-frame traversal count (EMA) per quantised load
#: level.  One job on a small mesh crosses a source-adjacent line a
#: handful of times per frame, so whole-number steps separate the hot
#: corridor from the idle periphery.
DEFAULT_CONGESTION_QUANTUM = 2.0

#: Load-level cap shared by the congestion runtime's quantiser and the
#: penalty table — one source of truth for where congestion saturates.
DEFAULT_CONGESTION_LEVELS = 8
