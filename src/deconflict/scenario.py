"""Seeded random airspace topologies and the Monte Carlo delay harness.

Topologies follow the scaled simulation environment: a square airspace of
side SIDE = 20 m with 2N vertiports placed uniformly on its perimeter, N
crossing missions between them, and cruise speeds drawn uniformly from
SPEED_RANGE = 0.66-1.89 m/s. The box and the speed range are fixed
constants; the agent count, the seed and the spacing h vary. Every pair of
nominal routes intersects, so every pair is a potential conflict.

Chords of a convex boundary are pairwise crossing exactly when each chord
connects cyclically opposite endpoints, i.e. in the perimeter ordering of
the 2N vertiports, point k is matched with point k+N. The generator
therefore samples the vertiport positions and builds that matching directly;
randomness enters through the positions, each mission's flight direction,
the cruise speeds, and the listing order. (Rejection-sampling uniformly
random matchings would almost never find the unique crossing one: there are
135,135 matchings at N=7.)

Vertiports are drawn one at a time; one that lands closer than h to a
vertiport already placed is redrawn, up to MAX_POINT_ATTEMPTS times. A
vertiport that finds no place rejects the whole topology: the generator
raises TopologyRejectionExhausted, and the Monte Carlo harness logs and
reports that topology instead of drawing it again.
"""

import logging
import math
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from .errors import TopologyRejectionExhausted
from .kinematics import Mission, SeparationConfig, Vec2
from .optimizer import order_averages
# unused here, but perfbench/spans.py patches scenario.per_order_table
from .optimizer import per_order_table  # noqa: F401

log = logging.getLogger(__name__)

#: side of the square airspace (m)
SIDE = 20.0
#: cruise speeds are drawn uniformly from this range (m/s)
SPEED_RANGE = (0.66, 1.89)
#: draws of one vertiport before it rejects the topology
MAX_POINT_ATTEMPTS = 1_000

_U64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class AirspaceConfig:
    """Traffic parameters of one random topology in the SIDE-meter box."""
    n_agents: int
    seed: int
    h: float = 1.5

    def __post_init__(self):
        if self.n_agents < 1:
            raise ValueError(f"n_agents must be >= 1, got {self.n_agents}")
        if not self.h > 0.0:
            raise ValueError(f"h must be positive, got {self.h}")
        # 2N vertiports with pairwise spacing >= h must fit on the perimeter
        if 2 * self.n_agents * self.h >= 4.0 * SIDE:
            raise ValueError(
                f"{2 * self.n_agents} vertiports with spacing {self.h} m "
                f"cannot fit on a {SIDE} m square's perimeter")


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


def _perimeter_point(u: float) -> tuple[float, float]:
    """Map arc length u in [0, 4*SIDE) to (x, y) on the square's boundary."""
    if u < SIDE:
        return u, 0.0
    if u < 2.0 * SIDE:
        return SIDE, u - SIDE
    if u < 3.0 * SIDE:
        return 3.0 * SIDE - u, SIDE
    return 0.0, 4.0 * SIDE - u


def generate_topology(cfg: AirspaceConfig) -> list[Mission]:
    """Build N mutually crossing missions, deterministic under cfg.seed.

    Draw order (one PCG64 stream): vertiport positions, per-mission
    direction flips, cruise speeds, listing shuffle. The missions cross by
    construction. A vertiport closer than h to one already placed is
    redrawn, up to MAX_POINT_ATTEMPTS times; one that still finds no place
    rejects the topology with TopologyRejectionExhausted.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed & _U64))
    n = cfg.n_agents
    placed: list[tuple[float, float, float]] = []  # (arc length, x, y)
    for k in range(2 * n):
        for _attempt in range(MAX_POINT_ATTEMPTS):
            u = 4.0 * SIDE * rng.random()
            x, y = _perimeter_point(u)
            if all(math.hypot(x - qx, y - qy) >= cfg.h for _, qx, qy in placed):
                placed.append((u, x, y))
                break
        else:
            raise TopologyRejectionExhausted(
                f"vertiport {k + 1} of {2 * n} found no place {cfg.h} m from "
                f"the others in {MAX_POINT_ATTEMPTS} draws (seed {cfg.seed})")
    ordered = [Vec2(x, y) for _, x, y in sorted(placed)]
    flips = [rng.random() < 0.5 for _ in range(n)]
    smin, smax = SPEED_RANGE
    speeds = [smin + (smax - smin) * rng.random() for _ in range(n)]
    missions = []
    for rank, k in enumerate(rng.permutation(n)):
        a, b = ordered[k], ordered[k + n]
        if flips[k]:
            a, b = b, a
        missions.append(Mission(id=f"M{rank + 1}", origin=a, destination=b,
                                speed=speeds[k]))
    return missions


def _topology_job(job):
    """Delays for the job (cfg, mode), or None if the topology is rejected.

    Pooled mode gives every order's average delay, optimal mode the least.
    """
    cfg, mode = job
    try:
        missions = generate_topology(cfg)
    except TopologyRejectionExhausted:
        return None
    averages = order_averages(missions, SeparationConfig(h=cfg.h))
    if mode == "optimal":
        return averages.min(keepdims=True)
    return averages


def run_monte_carlo(n_agents: int, n_topologies: int, base_seed: int,
                    mode: str = "pooled", h: float = 1.5,
                    workers: int = 1) -> MonteCarloResult:
    """Average-delay samples over seeded random topologies.

    Topology k uses seed base_seed XOR k, so samples are independent of the
    execution order and of `workers`. In "pooled" mode every flight order
    contributes one sample (order_rank = its position in the lexicographic
    permutation table); in "optimal" mode only the best order's average
    delay is recorded. Rejected topologies are logged and reported, never
    silently dropped. A pool of min(workers, n_topologies) processes is
    forked when that is two or more; a single topology runs in this process.
    """
    if mode not in ("pooled", "optimal"):
        raise ValueError(f"mode must be 'pooled' or 'optimal', got {mode!r}")
    if n_topologies < 1:
        raise ValueError(f"n_topologies must be >= 1, got {n_topologies}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    jobs = [(AirspaceConfig(n_agents=n_agents, seed=(base_seed ^ k) & _U64,
                            h=h), mode)
            for k in range(n_topologies)]
    workers = min(workers, n_topologies)
    if workers > 1:
        with get_context("fork").Pool(workers) as pool:
            raw = pool.map(_topology_job, jobs)
    else:
        raw = [_topology_job(j) for j in jobs]

    kept: list[int] = []
    columns: list[np.ndarray] = []
    rejected: list[int] = []
    for k, delays in enumerate(raw):
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
