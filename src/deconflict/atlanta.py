"""Bundled four-flight Atlanta metro case study.

Four missions between eight real vertiports in the Greater Atlanta area,
given as lat/lon and mph in the packaged geodetic scenario. The separation
radius is a free parameter of the study; the runner takes it explicitly.
"""

import functools
import json
from importlib import resources

from .geo import seconds_to_minutes
from .kinematics import SeparationConfig
from .optimizer import optimize_order
from .scenario_io import parse_scenario

ROUTES = {
    "01": "9GE8-GA66",
    "02": "FTY-7GA6",
    "03": "ATL-GA54",
    "04": "73GA-52GA2",
}


@functools.cache
def _missions():
    """The bundled scenario's missions, read and parsed once per process."""
    text = resources.files("deconflict.data").joinpath("atlanta.json").read_text()
    return tuple(parse_scenario(json.loads(text))[0])


def load_missions():
    """The four Atlanta missions, in meters and m/s, as a new list.

    Missions are frozen, so every list shares the ones parsed first.
    """
    return list(_missions())


def case_study(h: float) -> dict:
    """Optimize the four-flight schedule at separation radius h (meters).

    Times are reported in minutes. efficiency_gain is 1 - best/worst total
    delay: the fraction of the worst order's delay that the best one avoids.
    """
    missions = load_missions()
    search = optimize_order(missions, SeparationConfig(h=h))
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
