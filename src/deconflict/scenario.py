"""Seeded random airspace topologies and the Monte Carlo delay harness.

Topologies follow the scaled simulation environment: a square airspace with
2N vertiports placed uniformly on its perimeter, N crossing missions between
them, and cruise speeds drawn uniformly from a fixed range. Every pair of
nominal routes intersects, so every pair is a potential conflict.

Chords of a convex boundary are pairwise crossing exactly when each chord
connects cyclically opposite endpoints, i.e. in the perimeter ordering of
the 2N vertiports, point k is matched with point k+N. The generator
therefore samples the vertiport positions and builds that matching directly;
randomness enters through the positions, each mission's flight direction,
the cruise speeds, and the listing order. (Rejection-sampling uniformly
random matchings would almost never find the unique crossing one: there are
135,135 matchings at N=7.)
"""

import logging
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from .errors import TopologyRejectionExhausted
from .kinematics import Mission, SeparationConfig, Vec2
from .optimizer import order_averages
# unused here, but perfbench/spans.py patches scenario.per_order_table
from .optimizer import per_order_table  # noqa: F401

log = logging.getLogger(__name__)

#: full-topology redraws before giving up
MAX_TOPOLOGY_ATTEMPTS = 10_000
#: redraws of a single vertiport that violates the spacing rule
MAX_POINT_ATTEMPTS = 1_000

_U64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class AirspaceConfig:
    """Square airspace and traffic parameters of one random topology."""
    n_agents: int
    seed: int
    side: float = 20.0
    h: float = 1.5
    speed_range: tuple[float, float] = (0.66, 1.89)

    def __post_init__(self):
        if self.n_agents < 1:
            raise ValueError(f"n_agents must be >= 1, got {self.n_agents}")
        if not self.side > 0.0:
            raise ValueError(f"side must be positive, got {self.side}")
        if not self.h > 0.0:
            raise ValueError(f"h must be positive, got {self.h}")
        smin, smax = self.speed_range
        if not (smin > 0.0 and smin <= smax):
            raise ValueError(f"invalid speed range {self.speed_range}")
        # 2N vertiports with pairwise spacing >= h must fit on the perimeter
        if 2 * self.n_agents * self.h >= 4.0 * self.side:
            raise ValueError(
                f"{2 * self.n_agents} vertiports with spacing {self.h} m "
                f"cannot fit on a {self.side} m square's perimeter")


@dataclass(frozen=True)
class MonteCarloResult:
    """Monte Carlo samples as columns, one entry per sample.

    Sample i is the average departure delay delays[i] of one flight order
    of topology topology_index[i]. In pooled mode order_rank[i] is that
    order's position in the lexicographic permutation table; in optimal
    mode each topology gives its best order only and order_rank is None.
    """
    delays: np.ndarray
    topology_index: np.ndarray
    order_rank: np.ndarray | None
    rejected_topologies: tuple[int, ...]
    n_agents: int
    mode: str
    base_seed: int

    @property
    def samples(self) -> np.ndarray:
        """The delays column; kept because perfbench/workloads.py calls len(r.samples)."""
        return self.delays


def _perimeter_point(side: float, u: float) -> Vec2:
    """Map arc length u in [0, 4*side) to a point on the square's boundary."""
    u = u % (4.0 * side)
    if u < side:
        return Vec2(u, 0.0)
    if u < 2.0 * side:
        return Vec2(side, u - side)
    if u < 3.0 * side:
        return Vec2(3.0 * side - u, side)
    return Vec2(0.0, 4.0 * side - u)


def _draw_vertiports(rng: np.random.Generator, cfg: AirspaceConfig):
    """2N perimeter arc parameters with pairwise Euclidean spacing >= h."""
    perimeter = 4.0 * cfg.side
    params: list[float] = []
    points: list[Vec2] = []
    for _ in range(2 * cfg.n_agents):
        for _attempt in range(MAX_POINT_ATTEMPTS):
            u = perimeter * rng.random()
            p = _perimeter_point(cfg.side, u)
            if all((p - q).norm() >= cfg.h for q in points):
                params.append(u)
                points.append(p)
                break
        else:
            return None
    return params, points


def generate_topology(cfg: AirspaceConfig) -> list[Mission]:
    """Build N mutually crossing missions, deterministic under cfg.seed.

    Draw order (one PCG64 stream): vertiport positions, per-mission
    direction flips, cruise speeds, listing shuffle. The missions cross by
    construction; a draw is repeated only when a vertiport cannot be placed
    h from the others.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed & _U64))
    n = cfg.n_agents
    smin, smax = cfg.speed_range
    for _attempt in range(MAX_TOPOLOGY_ATTEMPTS):
        drawn = _draw_vertiports(rng, cfg)
        if drawn is None:
            continue
        params, points = drawn
        ordered = [p for _, p in sorted(zip(params, points), key=lambda t: t[0])]
        endpoints = [(ordered[k], ordered[k + n]) for k in range(n)]
        flips = [rng.random() < 0.5 for _ in range(n)]
        speeds = [smin + (smax - smin) * rng.random() for _ in range(n)]
        listing = rng.permutation(n)
        missions = []
        for rank, k in enumerate(listing):
            a, b = endpoints[k]
            if flips[k]:
                a, b = b, a
            missions.append(Mission(id=f"M{rank + 1}", origin=a,
                                    destination=b, speed=speeds[k]))
        return missions
    raise TopologyRejectionExhausted(
        f"no valid {n}-agent topology after {MAX_TOPOLOGY_ATTEMPTS} attempts "
        f"(seed {cfg.seed})")


def _topology_delays(cfg: AirspaceConfig, mode: str, cap: int):
    """Per-order average delays (pooled) or the optimal one, or None if rejected."""
    try:
        missions = generate_topology(cfg)
    except TopologyRejectionExhausted:
        return None
    averages = order_averages(missions, SeparationConfig(h=cfg.h), cap=cap)
    if mode == "optimal":
        return averages.min(keepdims=True)
    return averages


def _mc_worker(args):
    k, cfg, mode, cap = args
    return k, _topology_delays(cfg, mode, cap)


def run_monte_carlo(n_agents: int, n_topologies: int, base_seed: int,
                    mode: str = "pooled", side: float = 20.0, h: float = 1.5,
                    speed_range: tuple[float, float] = (0.66, 1.89),
                    workers: int = 1, cap: int = 9) -> MonteCarloResult:
    """Average-delay samples over seeded random topologies.

    Topology k uses seed base_seed XOR k, so samples are independent of the
    execution order and of `workers`. In "pooled" mode every flight order
    contributes one sample (order_rank = its position in the lexicographic
    permutation table); in "optimal" mode only the best order's average
    delay is recorded. Rejected topologies are logged and reported, never
    silently dropped.
    """
    if mode not in ("pooled", "optimal"):
        raise ValueError(f"mode must be 'pooled' or 'optimal', got {mode!r}")
    if n_topologies < 1:
        raise ValueError(f"n_topologies must be >= 1, got {n_topologies}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    jobs = [(k, AirspaceConfig(n_agents=n_agents, seed=(base_seed ^ k) & _U64,
                               side=side, h=h, speed_range=speed_range),
             mode, cap)
            for k in range(n_topologies)]
    if workers > 1:
        with get_context("fork").Pool(workers) as pool:
            raw = pool.map(_mc_worker, jobs)
    else:
        raw = [_mc_worker(j) for j in jobs]

    kept: list[int] = []
    columns: list[np.ndarray] = []
    rejected: list[int] = []
    for k, delays in sorted(raw):
        if delays is None:
            log.warning("topology %d rejected (seed %d)", k, base_seed ^ k)
            rejected.append(k)
        else:
            kept.append(k)
            columns.append(delays)
    per_topology = len(columns[0]) if columns else 0  # N!, or 1 when optimal
    return MonteCarloResult(
        delays=np.concatenate(columns) if columns else np.empty(0),
        topology_index=np.repeat(np.array(kept, dtype=int), per_topology),
        order_rank=(None if mode == "optimal"
                    else np.tile(np.arange(per_topology), len(kept))),
        rejected_topologies=tuple(rejected),
        n_agents=n_agents, mode=mode, base_seed=base_seed)
