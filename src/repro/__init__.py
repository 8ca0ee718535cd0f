"""repro — reproduction of "Energy-Aware Routing for E-Textile
Applications" (Kao & Marculescu, DATE 2005).

The package provides:

* the **EAR** energy-aware routing algorithm and its **SDR** baseline
  (:mod:`repro.core`),
* **Theorem 1**'s analytical upper bound on completed jobs
  (:func:`repro.core.theorem1`),
* the **et_sim** e-textile platform simulator — thin-film batteries,
  textile transmission lines, TDMA control, central controllers,
  deadlock recovery (:mod:`repro.sim`),
* a complete **AES-128/192/256** implementation partitioned into the
  paper's three hardware modules (:mod:`repro.aes`),
* sweep/tabulation/calibration tooling (:mod:`repro.analysis`).

Quickstart::

    from repro import SimulationConfig, PlatformConfig, run_simulation

    config = SimulationConfig(
        platform=PlatformConfig(mesh_width=4), routing="ear"
    )
    stats = run_simulation(config)
    print(stats.jobs_fractional, "jobs before system death")
"""

from .config import (
    ControlConfig,
    PlatformConfig,
    SimulationConfig,
    WorkloadConfig,
)
from .core.costs import BatteryTerm
from .core.engines import (
    EnergyAwareRouting,
    RoutingEngine,
    ShortestDistanceRouting,
    routing_engine,
)
from .core.parameters import ApplicationProfile
from .core.upper_bound import UpperBoundResult, optimize_duplicates, theorem1
from .errors import ReproError
from .sim.et_sim import EtSim, run_simulation
from .sim.stats import SimulationStats
from .version import PAPER_CITATION, __version__

__all__ = [
    "ApplicationProfile",
    "BatteryTerm",
    "ControlConfig",
    "EnergyAwareRouting",
    "EtSim",
    "PAPER_CITATION",
    "PlatformConfig",
    "ReproError",
    "RoutingEngine",
    "ShortestDistanceRouting",
    "SimulationConfig",
    "SimulationStats",
    "UpperBoundResult",
    "WorkloadConfig",
    "__version__",
    "optimize_duplicates",
    "routing_engine",
    "run_simulation",
    "theorem1",
]
