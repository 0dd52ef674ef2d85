import math
import re
import subprocess
import sys

import numpy as np
import pytest

from deconflict import statfit
from deconflict.errors import DegenerateSamples
from deconflict.statfit import DistributionFamily, fit_report
from helpers import child_env


def fit_of(report, family):
    """The report's entry for one family: its params and ssr."""
    return next(f for f in report["fits"] if f["family"] == family.value)


def histogram_integral(report):
    centers = [c["bin_center"] for c in report["curves"]]
    width = (centers[-1] - centers[0]) / (len(centers) - 1)
    return sum(c["empirical"] for c in report["curves"]) * width


class TestMakeHistogram:
    def test_two_equal_mass_bins(self):
        report = fit_report([1.0, 1.0, 3.0, 3.0], bins=2)
        assert [c["bin_center"] for c in report["curves"]] == [1.5, 2.5]
        assert [c["empirical"] for c in report["curves"]] == [0.5, 0.5]
        assert histogram_integral(report) == pytest.approx(1.0, abs=1e-12)

    def test_constant_samples_rejected(self):
        with pytest.raises(DegenerateSamples, match="all 10 samples equal 2.0"):
            fit_report([2.0] * 10, bins=5)
        # distinct samples whose variance underflows to 0: the normal fit
        # rejects them
        with pytest.raises(DegenerateSamples, match="^zero variance$"):
            fit_report([1e-170, 2e-170, 1.5e-170], bins=2)
        # 1e100 and its next three floats share one log: the log-normal fit
        # rejects them
        x = [1e100]
        for _ in range(3):
            x.append(math.nextafter(x[-1], math.inf))
        with pytest.raises(DegenerateSamples, match="zero variance of log-samples"):
            fit_report(x, bins=2)
        # two ulps apart, ln(mean) - mean(ln x) rounds to 0: the gamma fit
        # rejects them
        with pytest.raises(DegenerateSamples, match="too close for a gamma fit"):
            fit_report([1.0, 1.0, 1.0000000000000002, 1.0000000000000004], bins=2)
        # one ulp apart, no two uniform bins have finite size; three ulps
        # apart, two do but not the default 50
        with pytest.raises(DegenerateSamples, match=re.escape(
                "2 samples span [1.0, 1.0000000000000002], too narrow for 2 bins")):
            fit_report([1.0, 1.0000000000000002], bins=2)
        x = [1.0, 1.0000000000000002, 1.0000000000000004, 1.0000000000000007]
        assert fit_report(x, bins=2)["n_samples"] == 4
        with pytest.raises(DegenerateSamples, match="too narrow for 50 bins"):
            fit_report(x)

    def test_integral_is_one_for_gamma_draws(self):
        x = np.random.default_rng(0).gamma(9.0, 2.0, 100_000)
        report = fit_report(x, bins=50)
        assert histogram_integral(report) == pytest.approx(1.0, abs=1e-9)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="need at least 2 samples, got 1"):
            fit_report([1.0], bins=2)
        with pytest.raises(ValueError, match="need at least 2 bins, got 1"):
            fit_report([1.0, 2.0], bins=1)


class TestFit:
    def test_normal_closed_form_mle(self):
        # population variance 0.5, not the sample variance 2/3
        report = fit_report([1.0, 2.0, 2.0, 3.0], bins=2)
        p = fit_of(report, DistributionFamily.NORMAL)["params"]
        assert p["mu"] == pytest.approx(2.0)
        assert p["sigma"] ** 2 == pytest.approx(0.5)

    def test_gamma_recovery(self):
        x = np.random.default_rng(1).gamma(9.0, 2.0, 100_000)
        p = fit_of(fit_report(x), DistributionFamily.GAMMA)["params"]
        assert abs(p["shape"] - 9.0) <= 0.3
        assert abs(p["scale"] - 2.0) <= 0.1

    @pytest.mark.parametrize("shape", [2.0, 9.0, 20.0])
    def test_gamma_round_trip_within_5_percent(self, shape):
        x = np.random.default_rng(int(shape)).gamma(shape, 2.0, 100_000)
        p = fit_of(fit_report(x), DistributionFamily.GAMMA)["params"]
        assert abs(p["shape"] - shape) / shape <= 0.05
        assert abs(p["scale"] - 2.0) / 2.0 <= 0.05

    def test_log_normal_recovery(self):
        rng = np.random.default_rng(2)
        x = np.exp(rng.normal(1.2, 0.4, 100_000))
        p = fit_of(fit_report(x), DistributionFamily.LOG_NORMAL)["params"]
        assert p["mu"] == pytest.approx(1.2, abs=0.01)
        assert p["sigma"] == pytest.approx(0.4, abs=0.01)

    def test_beta_support_mapping(self):
        rng = np.random.default_rng(3)
        x = rng.beta(2.0, 5.0, 50_000) * 10.0 + 4.0
        p = fit_of(fit_report(x), DistributionFamily.BETA)["params"]
        assert p["alpha"] > 0 and p["beta"] > 0
        assert p["loc"] < x.min() and p["loc"] + p["scale"] > x.max()
        # pdf integrates to ~1 over the mapped support
        grid = np.linspace(p["loc"], p["loc"] + p["scale"], 20_001)
        integral = np.trapezoid(statfit._beta_pdf(p, grid), grid)
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_gamma_of_a_small_spread_matches_scipy(self):
        # coefficient of variation 0.28 %: the shape is about 1.2e5, where
        # ln k - psi(k) formed as a difference would be rounding noise
        x = 17.0 * (1.0 + 0.01 * np.random.default_rng(0).random(1000))
        shape = fit_of(fit_report(x), DistributionFamily.GAMMA)["params"]["shape"]
        moments = np.mean(x) ** 2 / np.var(x)
        assert abs(shape - moments) <= 0.01 * moments
        stats = pytest.importorskip("scipy.stats")
        reference = stats.gamma.fit(x, floc=0)[0]
        assert abs(shape - reference) <= 1e-9 * reference

    @pytest.mark.parametrize("x,bins,expected", [
        # x/mean - 1 rounds to -1 for a draw below mean * 2**-53
        pytest.param(np.random.default_rng(1).gamma(0.05, 2.0, 10_000), 50,
                     0.0493201, id="gamma-0.05-draws"),
        pytest.param(np.array([1e-300, 1.0, 2.0]), 2, 0.00425683, id="1e-300"),
        # a little further from -1, x/mean - 1 loses digits
        pytest.param(np.array([2.0904210334673485e-19, 5e-4, 4e-4]), 2,
                     0.0740253, id="2e-19"),
        pytest.param(np.array([1e-6, 1.0, 1.0, 1.0, 2.0]), 2, 0.267668, id="1e-6"),
    ])
    def test_gamma_of_samples_far_below_the_mean_matches_scipy(self, x, bins,
                                                                expected):
        shape = fit_of(fit_report(x, bins=bins),
                       DistributionFamily.GAMMA)["params"]["shape"]
        assert shape == pytest.approx(expected, rel=1e-5)
        stats = pytest.importorskip("scipy.stats")
        reference = stats.gamma.fit(x, floc=0)[0]
        assert abs(shape - reference) <= 1e-9 * reference

    def test_ssr_nonnegative_and_bin_dependent(self):
        x = np.random.default_rng(5).gamma(4.0, 1.5, 20_000)
        r50 = fit_of(fit_report(x, bins=50), DistributionFamily.GAMMA)["ssr"]
        r20 = fit_of(fit_report(x, bins=20), DistributionFamily.GAMMA)["ssr"]
        assert r50 >= 0.0 and r20 >= 0.0
        assert r50 != r20  # SSR is a bin-protocol-dependent score


class TestSelectBest:
    def test_returns_argmin_ssr(self):
        x = np.random.default_rng(6).gamma(9.0, 2.0, 100_000)
        report = fit_report(x)
        best = fit_of(report, DistributionFamily(report["selected"]))["ssr"]
        for fam in DistributionFamily:
            assert best <= fit_of(report, fam)["ssr"]

    def test_normal_data_selects_normal(self):
        x = np.random.default_rng(7).normal(50.0, 5.0, 100_000)
        assert fit_report(x)["selected"] == DistributionFamily.NORMAL.value

    def test_gamma_like_data_prefers_skewed_family(self):
        # a skewed family beats normal, and the selection is not normal
        x = np.random.default_rng(8).gamma(9.0, 2.0, 100_000)
        report = fit_report(x)
        skewed = min(fit_of(report, DistributionFamily.GAMMA)["ssr"],
                     fit_of(report, DistributionFamily.LOG_NORMAL)["ssr"])
        assert skewed < fit_of(report, DistributionFamily.NORMAL)["ssr"]
        assert report["selected"] != DistributionFamily.NORMAL.value


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
        # the curves carry the selected family's density at the bin centers
        density = statfit._FAMILIES[DistributionFamily(report["selected"])][1]
        centers = np.array([c["bin_center"] for c in report["curves"]])
        assert [c["fitted"] for c in report["curves"]] == density(
            selected["params"], centers).tolist()

    def test_nonpositive_samples_excluded_and_counted(self):
        pos = np.random.default_rng(12).gamma(3.0, 1.0, 500)
        x = np.concatenate([[0.0, -1.5], pos[:250], [0.0, -0.0], pos[250:]])
        report = fit_report(x)
        assert report["n_samples"] == 500
        assert report["n_excluded_nonpositive"] == 4
        assert [f["family"] for f in report["fits"]] == [
            fam.value for fam in DistributionFamily]
        # the excluded samples take no part in the fits
        assert report == {**fit_report(pos), "n_excluded_nonpositive": 4}

    def test_fits_each_family_once_and_ties_go_to_the_first(self, monkeypatch):
        # every density forced to zero makes every SSR equal: normal, the
        # first DistributionFamily member, is selected, and each family is
        # fitted and evaluated once
        calls = []

        def counted(family, fitter):
            def fit(x):
                calls.append(("fit", family))
                return fitter(x)

            def density(params, x):
                calls.append(("pdf", family))
                return np.zeros_like(x)
            return fit, density

        monkeypatch.setattr(statfit, "_FAMILIES", {
            fam: counted(fam, fitter)
            for fam, (fitter, _) in statfit._FAMILIES.items()})
        x = np.random.default_rng(10).gamma(5.0, 2.0, 2_000)
        assert list(DistributionFamily)[0] is DistributionFamily.NORMAL
        report = fit_report(x)
        assert report["selected"] == "normal"
        assert len({f["ssr"] for f in report["fits"]}) == 1
        assert calls == [(kind, fam) for fam in DistributionFamily
                         for kind in ("fit", "pdf")]
        assert all(c["fitted"] == 0.0 for c in report["curves"])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        x = np.random.default_rng(11).gamma(5.0, 2.0, 200)
        x[17] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_report(x)


class TestSpecialFunctions:
    """g(x) = ln x - psi(x) and g'(x) = 1/x - psi'(x), the gamma fit's
    likelihood equation and its derivative."""

    def test_closed_forms(self):
        assert statfit._g(1.0) == pytest.approx(np.euler_gamma, rel=1e-14)
        assert statfit._g(0.5) == pytest.approx(
            np.euler_gamma + math.log(2.0), rel=1e-14)
        assert statfit._g_prime(1.0) == pytest.approx(1.0 - math.pi ** 2 / 6.0,
                                                      rel=1e-14)
        assert statfit._g_prime(0.5) == pytest.approx(2.0 - math.pi ** 2 / 2.0,
                                                      rel=1e-14)

    def test_recurrences_across_the_series_switch(self):
        # below x = 10 both functions recurse upward; from x = 10 on the
        # recurrences check the asymptotic series against each other
        for x in np.linspace(0.05, 40.0, 800):
            x = float(x)
            step = 1.0 / x - math.log1p(1.0 / x)
            assert statfit._g(x) - statfit._g(x + 1.0) == pytest.approx(
                step, rel=1e-12)
            assert statfit._g_prime(x) - statfit._g_prime(x + 1.0) == pytest.approx(
                -1.0 / (x * x * (x + 1.0)), rel=1e-12)

    def test_gamma_shape_newton_climbs_to_the_root(self, monkeypatch):
        # from the start 1/(2s) below the root, the steps stop within 12
        # and leave the residual within a few ulps of s. The residual is
        # bounded by the rounding of _g itself: near k = 3.2, where _g sums
        # seven recurrence terms, it reads -6.2 eps s at
        # s = 0.1623304527765459 on this grid, and -3.1 eps s one ulp below k
        real = statfit._g_prime
        depth = 0
        steps = 0

        def counted(x):
            # _g_prime recurses through the module name: count only the
            # outermost call, one per Newton step
            nonlocal depth, steps
            steps += depth == 0
            depth += 1
            try:
                return real(x)
            finally:
                depth -= 1

        monkeypatch.setattr(statfit, "_g_prime", counted)
        eps = np.finfo(float).eps
        for s in np.geomspace(1e-30, 1e6, 20_001):
            s = float(s)
            steps = 0
            k = statfit._gamma_shape(s)
            assert 0.5 / s <= k < 1.0 / s
            assert steps <= 12
            assert abs(statfit._g(k) - s) <= 12.0 * eps * s

    def test_against_mpmath_reference(self):
        # 40-digit references on a grid across the series switch at 10 and
        # log-spaced on to 1e6: the series to B16 keep both functions within
        # 3.8 and 4.4 eps (relative) on this grid, and within 4.6 and 4.7 eps
        # on a grid ten times as fine; to B12 they read 70 eps for g and
        # 959 eps for g' at x = 10
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        grid = [*np.linspace(0.05, 12.0, 400), 10.0, *np.geomspace(12.0, 1e6, 40)]
        with mpmath.workdps(40):
            for x in map(float, grid):
                g = mpmath.log(x) - mpmath.digamma(x)
                g_prime = 1 / mpmath.mpf(x) - mpmath.polygamma(1, x)
                assert abs(statfit._g(x) - g) <= 8 * eps * abs(g), x
                assert abs(statfit._g_prime(x) - g_prime) <= 8 * eps * abs(g_prime), x

    def test_against_scipy_reference(self):
        # the references subtract nearly equal numbers, so they carry an
        # error of a few ulps of ln x and of 1/x
        special = pytest.importorskip("scipy.special")
        for x in np.geomspace(0.05, 1e6, 2001):
            x = float(x)
            psi = float(special.digamma(x))
            g = math.log(x) - psi
            assert abs(statfit._g(x) - g) <= 1e-14 * (abs(math.log(x)) + abs(psi))
            g_prime = 1.0 / x - float(special.polygamma(1, x))
            assert abs(statfit._g_prime(x) - g_prime) <= 1e-13 / x
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
