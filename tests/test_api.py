"""The package's public surface: the names `deconflict/__init__.py` exports.

Adding or dropping an export changes PUBLIC_NAMES below, so any growth or
trim of the API shows in the diff.
"""

import types

import deconflict

PUBLIC_NAMES = {
    # errors
    "DeconflictError", "DegenerateSamples", "NonConvergence",
    "OutOfProjectionRange", "ScenarioFormatError", "TooManyAgents",
    "TopologyRejectionExhausted", "UnknownId",
    # geo
    "GeoPoint", "haversine_m", "minutes_to_seconds", "mph_to_mps", "project",
    # kinematics
    "ForbiddenInterval", "IntervalKind", "Mission", "SeparationConfig", "Vec2",
    "forbidden_interval", "min_separation_sq",
    # optimizer
    "SearchResult", "optimize_order", "per_order_table",
    # scenario
    "AirspaceConfig", "MonteCarloResult", "generate_topology", "run_monte_carlo",
    # scheduler
    "Schedule", "greedy_schedule",
    # statfit
    "DistributionFamily", "fit_report",
    # the package itself
    "KERNEL_BACKEND",
}


def test_public_names_are_pinned():
    exported = {name for name, value in vars(deconflict).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES
