"""Exhaustive search over flight orders minimizing total departure delay."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooManyAgents
from .kinematics import SeparationConfig
from .scheduler import (Schedule, leaf_departures, lexicographic_orders,
                        order_ids, order_tree, pair_arrays, schedules)
# unused here, but perfbench/spans.py patches optimizer.greedy_schedule
from .scheduler import greedy_schedule  # noqa: F401

#: exhaustive enumeration cap: 9! = 362,880 orders
DEFAULT_ORDER_CAP = 9


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the exhaustive order search.

    ids are the mission ids in sorted order. Row r of orders (n!, n) indexes
    them with one flight order, rows in lexicographic order, and totals[r]
    is that order's total delay, its departures added in ascending order
    (total_of). orders is read-only: every search of n missions returns the
    same array. Orders that give the same departures have equal totals bit
    for bit, so ties are exact: optimal_orders lists every order whose total
    equals the least total, in row order, and best is the first of them.
    worst is the first order whose total equals the greatest total.
    """
    best: Schedule
    worst: Schedule
    ids: tuple[str, ...]
    orders: np.ndarray
    totals: np.ndarray
    optimal_orders: tuple[tuple[str, ...], ...]

    @property
    def efficiency_gain(self) -> float:
        """1 - best/worst: the fraction of worst-case delay avoided."""
        if self.worst.total_delay <= 0.0:
            return 0.0
        return 1.0 - self.best.total_delay / self.worst.total_delay


def _sorted_tree(missions, cfg):
    """Sorted mission ids, their hi span array, and order_tree's totals,
    leaf states and leaf index over them.

    Pairwise forbidden spans depend only on the mission set, so they are
    computed once and shared across all orders. More than DEFAULT_ORDER_CAP
    missions raise TooManyAgents before any pair is solved.
    """
    missions = sorted(missions, key=lambda m: m.id)
    n = len(missions)
    if n < 1:
        raise ValueError("need at least one mission")
    if n > DEFAULT_ORDER_CAP:
        raise TooManyAgents(f"{n} agents exceeds the {DEFAULT_ORDER_CAP}-agent "
                            f"enumeration cap "
                            f"({math.factorial(DEFAULT_ORDER_CAP)} orders)")
    lo, hi = pair_arrays(missions, cfg)
    return (tuple(m.id for m in missions), hi, *order_tree(lo, hi))


def order_averages(missions, cfg: SeparationConfig) -> np.ndarray:
    """Average delay of every order, as in per_order_table, without its objects."""
    ids, _, totals, _, _ = _sorted_tree(missions, cfg)
    return totals / len(ids)


def per_order_table(missions, cfg: SeparationConfig) -> list[Schedule]:
    """Evaluate every permutation; output in lexicographic order of mission ids."""
    ids, hi, _, leaves, leaf = _sorted_tree(missions, cfg)
    return schedules(ids, hi, lexicographic_orders(len(ids)),
                     leaf_departures(leaves, leaf, slice(None)))


def optimize_order(missions, cfg: SeparationConfig) -> SearchResult:
    """Pick the flight order with minimal total delay by full enumeration.

    The orders whose totals equal the least total all tie; best is the
    lexicographically first of them, and worst is the first order whose
    total equals the greatest total.
    """
    ids, hi, totals, leaves, leaf = _sorted_tree(missions, cfg)
    orders = lexicographic_orders(len(ids))
    tied = np.flatnonzero(totals == totals.min())
    # argmax picks the first of equal maxima
    picked = [tied[0], np.argmax(totals)]
    best_schedule, worst_schedule = schedules(
        ids, hi, orders[picked], leaf_departures(leaves, leaf, picked))
    return SearchResult(best=best_schedule, worst=worst_schedule, ids=ids,
                        orders=orders, totals=totals,
                        optimal_orders=tuple(order_ids(ids, orders[tied])))
