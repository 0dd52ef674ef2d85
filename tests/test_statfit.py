import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest

from deconflict import statfit
from deconflict.errors import DegenerateSamples, FitDomainError, NonConvergence
from deconflict.statfit import (DistributionFamily, fit, fit_report,
                                make_histogram, pdf, select_best)
from helpers import child_env


class TestMakeHistogram:
    def test_two_equal_mass_bins(self):
        hist = make_histogram([1.0, 1.0, 3.0, 3.0], bins=2)
        assert hist.bin_edges.tolist() == [1.0, 2.0, 3.0]
        assert hist.densities.tolist() == [0.5, 0.5]
        assert np.sum(hist.densities * np.diff(hist.bin_edges)) == pytest.approx(
            1.0, abs=1e-12)

    def test_constant_samples_rejected(self):
        with pytest.raises(DegenerateSamples):
            make_histogram([2.0] * 10, bins=5)

    def test_integral_is_one_for_gamma_draws(self):
        x = np.random.default_rng(0).gamma(9.0, 2.0, 100_000)
        hist = make_histogram(x, bins=50)
        assert np.sum(hist.densities * np.diff(hist.bin_edges)) == pytest.approx(
            1.0, abs=1e-9)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            make_histogram([1.0], bins=2)
        with pytest.raises(ValueError):
            make_histogram([1.0, 2.0], bins=1)


class TestFit:
    def test_normal_closed_form_mle(self):
        r = fit([-1.0, 0.0, 1.0], DistributionFamily.NORMAL, bins=2)
        assert r.params["mu"] == pytest.approx(0.0)
        assert r.params["sigma"] ** 2 == pytest.approx(2.0 / 3.0)

    def test_gamma_recovery(self):
        x = np.random.default_rng(1).gamma(9.0, 2.0, 100_000)
        r = fit(x, DistributionFamily.GAMMA)
        assert abs(r.params["shape"] - 9.0) <= 0.3
        assert abs(r.params["scale"] - 2.0) <= 0.1

    @pytest.mark.parametrize("shape", [2.0, 9.0, 20.0])
    def test_gamma_round_trip_within_5_percent(self, shape):
        x = np.random.default_rng(int(shape)).gamma(shape, 2.0, 100_000)
        r = fit(x, DistributionFamily.GAMMA)
        assert abs(r.params["shape"] - shape) / shape <= 0.05
        assert abs(r.params["scale"] - 2.0) / 2.0 <= 0.05

    def test_log_normal_recovery(self):
        rng = np.random.default_rng(2)
        x = np.exp(rng.normal(1.2, 0.4, 100_000))
        r = fit(x, DistributionFamily.LOG_NORMAL)
        assert r.params["mu"] == pytest.approx(1.2, abs=0.01)
        assert r.params["sigma"] == pytest.approx(0.4, abs=0.01)

    def test_beta_support_mapping(self):
        rng = np.random.default_rng(3)
        x = rng.beta(2.0, 5.0, 50_000) * 10.0 + 4.0
        r = fit(x, DistributionFamily.BETA)
        assert r.params["alpha"] > 0 and r.params["beta"] > 0
        assert r.params["loc"] < x.min() and r.params["loc"] + r.params["scale"] > x.max()
        # pdf integrates to ~1 over the mapped support
        grid = np.linspace(r.params["loc"], r.params["loc"] + r.params["scale"], 20_001)
        integral = np.trapezoid(pdf(r, grid), grid)
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_nonpositive_samples_rejected_where_required(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        for fam in (DistributionFamily.LOG_NORMAL, DistributionFamily.GAMMA):
            with pytest.raises(FitDomainError):
                fit(x, fam)

    def test_gamma_nonconvergence_surfaces(self, monkeypatch):
        monkeypatch.setattr(statfit, "GAMMA_NEWTON_MAX_ITER", 0)
        x = np.random.default_rng(4).gamma(3.0, 1.0, 1_000)
        with pytest.raises(NonConvergence):
            fit(x, DistributionFamily.GAMMA)

    def test_ssr_nonnegative_and_bin_dependent(self):
        x = np.random.default_rng(5).gamma(4.0, 1.5, 20_000)
        r50 = fit(x, DistributionFamily.GAMMA, bins=50)
        r20 = fit(x, DistributionFamily.GAMMA, bins=20)
        assert r50.ssr >= 0.0 and r20.ssr >= 0.0
        assert r50.ssr != r20.ssr  # SSR is a bin-protocol-dependent score


class TestSelectBest:
    def test_returns_argmin_ssr(self):
        x = np.random.default_rng(6).gamma(9.0, 2.0, 100_000)
        best = select_best(x)
        for fam in DistributionFamily:
            assert best.ssr <= fit(x, fam).ssr

    def test_normal_data_selects_normal(self):
        x = np.random.default_rng(7).normal(50.0, 5.0, 100_000)
        assert select_best(x).family is DistributionFamily.NORMAL

    def test_gamma_like_data_prefers_skewed_family(self):
        # a skewed family beats normal, and the selection is not normal
        x = np.random.default_rng(8).gamma(9.0, 2.0, 100_000)
        skewed = min(fit(x, DistributionFamily.GAMMA).ssr,
                     fit(x, DistributionFamily.LOG_NORMAL).ssr)
        assert skewed < fit(x, DistributionFamily.NORMAL).ssr
        assert select_best(x).family is not DistributionFamily.NORMAL

    def test_domain_errors_propagate(self):
        with pytest.raises(FitDomainError):
            select_best(np.array([-1.0, 0.5, 2.0, 3.0]))


class TestFitReport:
    def test_structure(self):
        x = np.random.default_rng(9).gamma(5.0, 2.0, 5_000)
        report = fit_report(x, bins=40)
        assert report["bins"] == 40
        assert report["n_samples"] == 5000
        assert len(report["curves"]) == 40
        families = {f["family"] for f in report["fits"]}
        assert families == {"normal", "log_normal", "beta", "gamma"}
        best_ssr = min(f["ssr"] for f in report["fits"])
        selected = next(f for f in report["fits"]
                        if f["family"] == report["selected"])
        assert selected["ssr"] == best_ssr

    def test_fits_each_family_once_and_ties_go_to_the_first(self, monkeypatch):
        # every SSR forced equal: normal, the first DistributionFamily member,
        # is selected by fit_report and select_best alike, and each family
        # is fitted once
        real_scored = statfit._scored
        calls = []

        def tied_scored(x, hist, family):
            calls.append(family)
            return dataclasses.replace(real_scored(x, hist, family), ssr=1.0)

        monkeypatch.setattr(statfit, "_scored", tied_scored)
        x = np.random.default_rng(10).gamma(5.0, 2.0, 2_000)
        assert list(DistributionFamily)[0] is DistributionFamily.NORMAL
        assert fit_report(x)["selected"] == "normal"
        assert calls == list(DistributionFamily)
        calls.clear()
        assert select_best(x).family is DistributionFamily.NORMAL
        assert calls == list(DistributionFamily)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        x = np.random.default_rng(11).gamma(5.0, 2.0, 200)
        x[17] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_report(x)


class TestSpecialFunctions:
    def test_closed_forms(self):
        assert statfit._digamma(1.0) == pytest.approx(-np.euler_gamma, abs=1e-13)
        assert statfit._digamma(0.5) == pytest.approx(
            -np.euler_gamma - 2.0 * math.log(2.0), abs=1e-13)
        assert statfit._trigamma(1.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-13)
        assert statfit._trigamma(0.5) == pytest.approx(math.pi ** 2 / 2.0, rel=1e-13)

    def test_recurrences_across_the_series_switch(self):
        # below x = 10 both functions recurse upward; from x = 10 on the
        # identities check the asymptotic series against each other
        for x in np.linspace(0.05, 40.0, 800):
            x = float(x)
            assert statfit._digamma(x + 1.0) - statfit._digamma(x) == pytest.approx(
                1.0 / x, rel=0.0, abs=1e-13)
            assert statfit._trigamma(x) - statfit._trigamma(x + 1.0) == pytest.approx(
                1.0 / (x * x), rel=0.0, abs=1e-13)

    def test_against_scipy_reference(self):
        special = pytest.importorskip("scipy.special")
        for x in np.geomspace(0.05, 1e4, 2001):
            x = float(x)
            psi = float(special.digamma(x))
            assert abs(statfit._digamma(x) - psi) <= 1e-13 * max(1.0, abs(psi))
            tri = float(special.polygamma(1, x))
            assert abs(statfit._trigamma(x) - tri) <= 1e-12 * tri
            lg = float(special.gammaln(x))
            assert abs(math.lgamma(x) - lg) <= 1e-13 * max(1.0, abs(lg))
        grid = np.geomspace(0.05, 1e4, 121)
        for a in grid:
            for b in grid:
                ref = float(special.betaln(a, b))
                assert abs(statfit._betaln(float(a), float(b)) - ref) <= 1e-9


def test_cli_import_loads_no_scipy():
    code = ("import sys, deconflict.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
