import itertools
import logging

import numpy as np
import pytest

from deconflict import oracle, scenario
from deconflict.errors import TopologyRejectionExhausted
from deconflict.kinematics import SeparationConfig
from deconflict.optimizer import optimize_order
from deconflict.scenario import (AirspaceConfig, generate_topology,
                                 run_monte_carlo)
from helpers import segments_intersect


class TestAirspaceConfig:
    def test_defaults_match_scaled_environment(self):
        cfg = AirspaceConfig(n_agents=4, seed=0)
        assert cfg.side == 20.0
        assert cfg.h == 1.5
        assert cfg.speed_range == (0.66, 1.89)

    def test_rejects_overcrowded_perimeter(self):
        with pytest.raises(ValueError):
            AirspaceConfig(n_agents=30, seed=0)

    def test_rejects_bad_speed_range(self):
        with pytest.raises(ValueError):
            AirspaceConfig(n_agents=4, seed=0, speed_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            AirspaceConfig(n_agents=4, seed=0, speed_range=(2.0, 1.0))


class TestGenerateTopology:
    def test_structure(self):
        # every pair of routes crosses, also at the tightest spacing the
        # config admits, where 2N vertiports h apart fill half the perimeter
        for n in range(2, 8):
            for h in (1.5, 20.0 / n):
                for seed in range(12):
                    missions = generate_topology(
                        AirspaceConfig(n_agents=n, seed=seed, h=h))
                    assert len(missions) == n
                    points = ([m.origin for m in missions]
                              + [m.destination for m in missions])
                    assert len({(p.x, p.y) for p in points}) == 2 * n
                    for a, b in itertools.combinations(missions, 2):
                        assert segments_intersect(a.origin, a.destination,
                                                  b.origin, b.destination)

    def test_vertiports_on_perimeter_and_spaced(self):
        cfg = AirspaceConfig(n_agents=5, seed=3)
        missions = generate_topology(cfg)
        points = [m.origin for m in missions] + [m.destination for m in missions]
        for p in points:
            on_edge = (p.x in (0.0, cfg.side) or p.y in (0.0, cfg.side))
            assert on_edge and 0.0 <= p.x <= cfg.side and 0.0 <= p.y <= cfg.side
        for p, q in itertools.combinations(points, 2):
            assert (p - q).norm() >= cfg.h

    def test_speeds_within_range(self):
        cfg = AirspaceConfig(n_agents=6, seed=8)
        for m in generate_topology(cfg):
            assert 0.66 <= m.speed <= 1.89

    def test_seed_determinism(self):
        cfg = AirspaceConfig(n_agents=4, seed=42)
        assert generate_topology(cfg) == generate_topology(cfg)
        other = generate_topology(AirspaceConfig(n_agents=4, seed=43))
        assert other != generate_topology(cfg)

    def test_rejection_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(scenario, "_draw_vertiports", lambda rng, cfg: None)
        with pytest.raises(TopologyRejectionExhausted):
            generate_topology(AirspaceConfig(n_agents=4, seed=0))


class TestRunMonteCarlo:
    def test_optimal_mode_matches_direct_optimization(self):
        result = run_monte_carlo(4, 1, base_seed=42, mode="optimal")
        assert len(result.delays) == 1
        missions = generate_topology(AirspaceConfig(n_agents=4, seed=42 ^ 0))
        direct = optimize_order(missions, SeparationConfig(h=1.5))
        assert result.delays[0] == \
            pytest.approx(direct.best.average_delay, abs=1e-9)

    def test_pooled_mode_counts(self):
        result = run_monte_carlo(3, 4, base_seed=9, mode="pooled")
        assert len(result.delays) == 4 * 6
        assert result.topology_index.tolist() == [k for k in range(4) for _ in range(6)]
        assert result.order_rank.tolist() == list(range(6)) * 4

    def test_optimal_mode_has_no_rank(self):
        result = run_monte_carlo(3, 2, base_seed=9, mode="optimal")
        assert result.order_rank is None
        assert result.topology_index.tolist() == [0, 1]

    def test_determinism_and_worker_independence(self):
        a = run_monte_carlo(4, 6, base_seed=7, mode="pooled")
        b = run_monte_carlo(4, 6, base_seed=7, mode="pooled")
        c = run_monte_carlo(4, 6, base_seed=7, mode="pooled", workers=2)
        for column in ("delays", "topology_index", "order_rank"):
            x, y, z = (getattr(r, column) for r in (a, b, c))
            assert x.dtype == y.dtype == z.dtype
            assert np.array_equal(x, y) and np.array_equal(x, z)
        assert a.delays.dtype == np.float64

    def test_rejections_logged_and_reported(self, monkeypatch, caplog):
        real = scenario.generate_topology

        def flaky(cfg):
            if cfg.seed == (7 ^ 1):
                raise TopologyRejectionExhausted("forced")
            return real(cfg)

        monkeypatch.setattr(scenario, "generate_topology", flaky)
        with caplog.at_level(logging.WARNING, logger="deconflict.scenario"):
            result = run_monte_carlo(3, 3, base_seed=7, mode="optimal")
        assert result.rejected_topologies == (1,)
        assert len(result.delays) == 2
        assert result.topology_index.tolist() == [0, 2]
        assert any("rejected" in r.message for r in caplog.records)
        pooled = run_monte_carlo(3, 3, base_seed=7, mode="pooled")
        assert pooled.rejected_topologies == (1,)
        assert pooled.topology_index.tolist() == [0] * 6 + [2] * 6
        assert pooled.order_rank.tolist() == list(range(6)) * 2

    def test_all_rejected_gives_empty_columns(self, monkeypatch):
        def reject(cfg):
            raise TopologyRejectionExhausted("forced")

        monkeypatch.setattr(scenario, "generate_topology", reject)
        for mode in ("pooled", "optimal"):
            result = run_monte_carlo(3, 2, base_seed=7, mode=mode)
            assert result.rejected_topologies == (0, 1)
            assert result.delays.dtype == np.float64
            assert result.delays.shape == (0,)
            assert result.topology_index.shape == (0,)
            assert result.topology_index.dtype.kind == "i"
        order_rank = run_monte_carlo(3, 2, base_seed=7).order_rank
        assert order_rank.shape == (0,) and order_rank.dtype.kind == "i"

    def test_samples_nonnegative_and_schedules_safe(self):
        result = run_monte_carlo(4, 10, base_seed=31, mode="optimal")
        assert (result.delays >= 0.0).all()
        # spot-check the underlying optimal schedules against the oracle
        for k in (0, 5, 9):
            missions = generate_topology(AirspaceConfig(n_agents=4, seed=31 ^ k))
            best = optimize_order(missions, SeparationConfig(h=1.5)).best
            by_id = {m.id: m for m in missions}
            ordered = [by_id[mid] for mid in best.order]
            assert oracle.schedule_is_safe(ordered, best.departures,
                                           1.5, 0.01)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            run_monte_carlo(4, 1, 0, mode="both")
        with pytest.raises(ValueError):
            run_monte_carlo(4, 0, 0)
        with pytest.raises(ValueError):
            run_monte_carlo(4, 1, 0, workers=0)

    def test_density_trend_smoke(self):
        # the full density trend is an acceptance criterion; this is a
        # light version at small TN
        mean4 = run_monte_carlo(4, 30, base_seed=5, mode="pooled").delays.mean()
        mean6 = run_monte_carlo(6, 10, base_seed=5, mode="pooled").delays.mean()
        assert mean4 < mean6
