"""Exhaustive search over flight orders minimizing total departure delay."""

import itertools
import math
from dataclasses import dataclass

from .errors import TooManyAgents
from .kinematics import SeparationConfig, forbidden_interval
from .scheduler import Schedule, compute_pair_intervals, greedy_schedule

#: exhaustive enumeration cap: 9! = 362,880 schedules
DEFAULT_ORDER_CAP = 9

#: two order totals within this relative/absolute slack count as tied
TIE_TOL = 1e-9


@dataclass(frozen=True)
class OrderResult:
    """Greedy schedule of one flight order plus its delay metrics."""
    order: tuple[str, ...]
    schedule: Schedule
    total_delay: float
    average_delay: float


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the exhaustive order search.

    results holds every order in lexicographic id order; best/worst minimize
    and maximize total delay (ties broken by lexicographically smallest
    order); optimal_orders lists all orders tying the minimum within
    numerical slack.
    """
    best: OrderResult
    worst: OrderResult
    results: tuple[OrderResult, ...]
    optimal_orders: tuple[tuple[str, ...], ...]

    @property
    def efficiency_gain(self) -> float:
        """1 - best/worst: the fraction of worst-case delay avoided."""
        if self.worst.total_delay <= 0.0:
            return 0.0
        return 1.0 - self.best.total_delay / self.worst.total_delay


def average_delay(schedule: Schedule) -> float:
    """Arithmetic mean of the departure times."""
    deps = schedule.departures
    if not deps:
        raise ValueError("schedule is empty")
    return sum(deps) / len(deps)


def per_order_table(missions, cfg: SeparationConfig,
                    cap: int = DEFAULT_ORDER_CAP,
                    pair_solver=forbidden_interval) -> tuple[OrderResult, ...]:
    """Evaluate every permutation; output in lexicographic order of mission ids.

    Pairwise forbidden spans depend only on the mission set, so they are
    computed once and shared across all orders.
    """
    missions = sorted(missions, key=lambda m: m.id)
    n = len(missions)
    if n < 1:
        raise ValueError("need at least one mission")
    if n > cap:
        raise TooManyAgents(f"{n} agents exceeds the {cap}-agent enumeration cap "
                            f"({math.factorial(cap)} orders)")
    pair_intervals = compute_pair_intervals(missions, cfg, pair_solver)
    results = []
    for perm in itertools.permutations(missions):
        schedule = greedy_schedule(perm, cfg, pair_intervals)
        total = schedule.total_delay
        results.append(OrderResult(order=schedule.order, schedule=schedule,
                                   total_delay=total, average_delay=total / n))
    return tuple(results)


def optimize_order(missions, cfg: SeparationConfig,
                   cap: int = DEFAULT_ORDER_CAP,
                   pair_solver=forbidden_interval) -> SearchResult:
    """Pick the flight order with minimal total delay by full enumeration."""
    results = per_order_table(missions, cfg, cap, pair_solver)
    best = results[0]
    worst = results[0]
    for r in results[1:]:
        # totals within TIE_TOL are ties; keeping the incumbent realizes the
        # lexicographically-smallest-order tie-break (enumeration is lex)
        if r.total_delay < best.total_delay - TIE_TOL * (1.0 + abs(best.total_delay)):
            best = r
        if r.total_delay > worst.total_delay + TIE_TOL * (1.0 + abs(worst.total_delay)):
            worst = r
    ties = tuple(r.order for r in results
                 if math.isclose(r.total_delay, best.total_delay,
                                 rel_tol=TIE_TOL, abs_tol=TIE_TOL))
    return SearchResult(best=best, worst=worst, results=results,
                        optimal_orders=ties)
