"""Bundled four-flight Atlanta metro case study.

Four missions between eight real vertiports in the Greater Atlanta area,
given as lat/lon and mph in the packaged geodetic scenario. The separation
radius is a free parameter of the study; the runner takes it explicitly.
"""

import json
from importlib import resources

from .geo import seconds_to_minutes
from .kinematics import SeparationConfig
from .optimizer import optimize_order
from .scenario_io import ScenarioFile, parse_scenario, to_missions

ROUTES = {
    "01": "9GE8-GA66",
    "02": "FTY-7GA6",
    "03": "ATL-GA54",
    "04": "73GA-52GA2",
}


def load_scenario() -> ScenarioFile:
    text = resources.files("deconflict.data").joinpath("atlanta.json").read_text()
    return parse_scenario(json.loads(text))


def load_missions():
    return to_missions(load_scenario())


def case_study(h: float, cap: int = 9) -> dict:
    """Optimize the four-flight schedule at separation radius h (meters).

    Times are reported in minutes. efficiency_gain is 1 - best/worst total
    delay: the fraction of the worst order's delay that the best one avoids.
    """
    missions = load_missions()
    search = optimize_order(missions, SeparationConfig(h=h), cap=cap)
    best = search.best
    return {
        "h_m": h,
        "orders_evaluated": len(search.totals),
        "best": {
            "order": list(best.order),
            "routes": [ROUTES[mid] for mid in best.order],
            "departures_min": {
                mid: seconds_to_minutes(dep)
                for mid, dep in zip(best.order, best.departures)
            },
            "total_delay_min": seconds_to_minutes(best.total_delay),
            "average_delay_min": seconds_to_minutes(best.average_delay),
        },
        "worst": {
            "order": list(search.worst.order),
            "total_delay_min": seconds_to_minutes(search.worst.total_delay),
            "average_delay_min": seconds_to_minutes(search.worst.average_delay),
        },
        "efficiency_gain": search.efficiency_gain,
        "tied_optimal_orders": [list(o) for o in search.optimal_orders],
    }
