"""Conflict-free departure scheduling for constant-velocity planar flights.

Pairwise conflicts are resolved analytically: for any ordered mission pair
the set of relative departure delays violating the separation radius is one
open interval, computed in closed form over the finite flight windows. A
greedy pass assigns each flight the earliest feasible departure for a fixed
order; exhaustive order search minimizes total delay; a seeded Monte Carlo
harness and distribution fitting characterize delay statistics across
traffic densities; `fit_report` fits, scores and selects the delay
distribution in one pass.

The pair solver (kinematics) is plain-Python float math; the brute-force
oracle that checks it (oracle) shares no code with it and samples each
window with numpy.
"""

from .errors import (DeconflictError, DegenerateSamples, NonConvergence,
                     OutOfProjectionRange, ScenarioFormatError, TooManyAgents,
                     TopologyRejectionExhausted, UnknownId)
from .geo import GeoPoint, haversine_m, minutes_to_seconds, mph_to_mps, project
from .kinematics import (ForbiddenInterval, IntervalKind, Mission,
                         SeparationConfig, Vec2, forbidden_interval,
                         min_separation_sq)
from .optimizer import SearchResult, optimize_order, per_order_table
from .scenario import (AirspaceConfig, MonteCarloResult, generate_topology,
                       run_monte_carlo)
from .scheduler import Schedule, greedy_schedule
from .statfit import DistributionFamily, fit_report

__version__ = "0.1.0"

#: name of the one compute backend, recorded in benchmark environments
KERNEL_BACKEND = "numpy"
