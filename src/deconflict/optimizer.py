"""Exhaustive search over flight orders minimizing total departure delay."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooManyAgents
from .kinematics import SeparationConfig, forbidden_interval
from .scheduler import Schedule, build_schedules, order_tree, pair_arrays, total_of
# unused here, but perfbench/spans.py patches optimizer.greedy_schedule
from .scheduler import greedy_schedule  # noqa: F401

#: exhaustive enumeration cap: 9! = 362,880 schedules
DEFAULT_ORDER_CAP = 9

#: two order totals within this relative/absolute slack count as tied
TIE_TOL = 1e-9


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the exhaustive order search.

    results holds every order in lexicographic id order; best/worst minimize
    and maximize total delay (ties broken by lexicographically smallest
    order); optimal_orders lists all orders tying the minimum within
    numerical slack.
    """
    best: Schedule
    worst: Schedule
    results: tuple[Schedule, ...]
    optimal_orders: tuple[tuple[str, ...], ...]

    @property
    def efficiency_gain(self) -> float:
        """1 - best/worst: the fraction of worst-case delay avoided."""
        if self.worst.total_delay <= 0.0:
            return 0.0
        return 1.0 - self.best.total_delay / self.worst.total_delay


def _sorted_tree(missions, cfg, cap, pair_solver):
    """Mission ids in sorted order and order_tree over those missions.

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
    return [m.id for m in missions], order_tree(*pair_arrays(missions, cfg, pair_solver))


def order_averages(missions, cfg: SeparationConfig,
                   cap: int = DEFAULT_ORDER_CAP) -> np.ndarray:
    """Average delay of every order, as in per_order_table, without its objects."""
    ids, (_, deps, _) = _sorted_tree(missions, cfg, cap, forbidden_interval)
    return total_of(deps.T) / len(ids)


def per_order_table(missions, cfg: SeparationConfig,
                    cap: int = DEFAULT_ORDER_CAP,
                    pair_solver=forbidden_interval) -> list[Schedule]:
    """Evaluate every permutation; output in lexicographic order of mission ids."""
    ids, tree = _sorted_tree(missions, cfg, cap, pair_solver)
    return build_schedules(ids, *tree)


def optimize_order(missions, cfg: SeparationConfig,
                   cap: int = DEFAULT_ORDER_CAP) -> SearchResult:
    """Pick the flight order with minimal total delay by full enumeration."""
    results = tuple(per_order_table(missions, cfg, cap))
    totals = [s.total_delay for s in results]
    best = worst = 0
    for r, total in enumerate(totals):
        # totals within TIE_TOL are ties; keeping the incumbent realizes the
        # lexicographically-smallest-order tie-break (enumeration is lex)
        if total < totals[best] - TIE_TOL * (1.0 + abs(totals[best])):
            best = r
        if total > totals[worst] + TIE_TOL * (1.0 + abs(totals[worst])):
            worst = r
    ties = tuple(s.order for s, total in zip(results, totals)
                 if math.isclose(total, totals[best],
                                 rel_tol=TIE_TOL, abs_tol=TIE_TOL))
    return SearchResult(best=results[best], worst=results[worst],
                        results=results, optimal_orders=ties)
