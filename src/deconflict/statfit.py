"""Histograms, distribution fitting, and SSR-based model selection.

The fitting protocol is fixed so SSR values are comparable across runs:
50 uniform density-normalized bins, residuals taken at bin centers between
the empirical density and the fitted pdf. Normal and log-normal use
closed-form maximum likelihood; gamma uses method of moments with Newton
refinement of the shape likelihood equation; beta uses method of moments on
samples affinely mapped into (0, 1) over the 1%-padded sample range (delays
are unbounded above, so a beta fit needs an explicit support choice).

Special functions need only `math`: ln Γ is `math.lgamma`, ln B(a, b) is
ln Γ(a) + ln Γ(b) − ln Γ(a + b), and ψ, ψ′ are recurrences plus asymptotic series.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateSamples, FitDomainError, NonConvergence

DEFAULT_BINS = 50
GAMMA_NEWTON_MAX_ITER = 50
GAMMA_NEWTON_TOL = 1e-10
BETA_SUPPORT_PAD = 0.01


class DistributionFamily(Enum):
    # enum definition order is the tie-break order of select_best
    NORMAL = "normal"
    LOG_NORMAL = "log_normal"
    BETA = "beta"
    GAMMA = "gamma"


ALL_FAMILIES = tuple(DistributionFamily)


@dataclass(frozen=True, eq=False)
class Histogram:
    """Uniform-bin density histogram; densities integrate to one."""
    bin_edges: np.ndarray
    densities: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.bin_edges)

    @property
    def integral(self) -> float:
        return float(np.sum(self.densities * self.widths))


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters of one family plus its goodness-of-fit SSR."""
    family: DistributionFamily
    params: dict
    ssr: float


def make_histogram(samples, bins: int) -> Histogram:
    """Density-normalized histogram with `bins` uniform bins over [min, max]."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 2:
        raise ValueError(f"need at least 2 samples, got {x.size}")
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    lo = float(np.min(x))
    hi = float(np.max(x))
    if lo == hi:
        raise DegenerateSamples(f"all {x.size} samples equal {lo}")
    densities, edges = np.histogram(x, bins=bins, range=(lo, hi), density=True)
    return Histogram(bin_edges=edges, densities=densities)


def pdf(fit: FitResult, x) -> np.ndarray:
    """Evaluate the fitted probability density at x."""
    x = np.asarray(x, dtype=np.float64)
    p = fit.params
    if fit.family is DistributionFamily.NORMAL:
        mu, sigma = p["mu"], p["sigma"]
        z = (x - mu) / sigma
        return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))
    if fit.family is DistributionFamily.LOG_NORMAL:
        mu, sigma = p["mu"], p["sigma"]
        out = np.zeros_like(x)
        pos = x > 0.0
        z = (np.log(x[pos]) - mu) / sigma
        out[pos] = np.exp(-0.5 * z * z) / (x[pos] * sigma * math.sqrt(2.0 * math.pi))
        return out
    if fit.family is DistributionFamily.GAMMA:
        k, theta = p["shape"], p["scale"]
        out = np.zeros_like(x)
        pos = x > 0.0
        xp = x[pos]
        out[pos] = np.exp((k - 1.0) * np.log(xp) - xp / theta
                          - math.lgamma(k) - k * math.log(theta))
        return out
    if fit.family is DistributionFamily.BETA:
        a, b, loc, scale = p["alpha"], p["beta"], p["loc"], p["scale"]
        out = np.zeros_like(x)
        u = (x - loc) / scale
        inside = (u > 0.0) & (u < 1.0)
        ui = u[inside]
        out[inside] = np.exp((a - 1.0) * np.log(ui) + (b - 1.0) * np.log1p(-ui)
                             - _betaln(a, b)) / scale
        return out
    raise ValueError(f"unknown family {fit.family}")


def _betaln(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _digamma(x: float) -> float:
    """ψ(x) for x > 0: ψ(x) = ψ(x + 1) − 1/x up to x ≥ 10, then the series."""
    if x < 10.0:
        return _digamma(x + 1.0) - 1.0 / x
    f = 1.0 / (x * x)
    return math.log(x) - 0.5 / x - f * (
        1 / 12 - f * (1 / 120 - f * (1 / 252 - f * (1 / 240 - f / 132))))


def _trigamma(x: float) -> float:
    """ψ′(x) for x > 0: ψ′(x) = ψ′(x + 1) + 1/x² up to x ≥ 10, then the series."""
    if x < 10.0:
        return _trigamma(x + 1.0) + 1.0 / (x * x)
    f = 1.0 / (x * x)
    return 1.0 / x + 0.5 * f + (f / x) * (
        1 / 6 - f * (1 / 30 - f * (1 / 42 - f * (1 / 30 - 5 * f / 66))))


def _fit_normal(x: np.ndarray) -> dict:
    mu = float(np.mean(x))
    sigma = float(np.sqrt(np.var(x)))  # MLE: population variance
    if sigma == 0.0:
        raise DegenerateSamples("zero variance")
    return {"mu": mu, "sigma": sigma}


def _fit_log_normal(x: np.ndarray) -> dict:
    if np.any(x <= 0.0):
        raise FitDomainError("log-normal requires strictly positive samples")
    lx = np.log(x)
    sigma = float(np.sqrt(np.var(lx)))
    if sigma == 0.0:
        raise DegenerateSamples("zero variance of log-samples")
    return {"mu": float(np.mean(lx)), "sigma": sigma}


def _fit_gamma(x: np.ndarray) -> dict:
    if np.any(x <= 0.0):
        raise FitDomainError("gamma requires strictly positive samples")
    mean = float(np.mean(x))
    var = float(np.var(x))
    if var == 0.0:
        raise DegenerateSamples("zero variance")
    # s > 0 by Jensen unless all samples are equal
    s = math.log(mean) - float(np.mean(np.log(x)))
    shape = mean * mean / var  # method-of-moments start
    # Newton on the profile likelihood equation  ln(k) - psi(k) = s
    converged = False
    for _ in range(GAMMA_NEWTON_MAX_ITER):
        f = math.log(shape) - _digamma(shape) - s
        fp = 1.0 / shape - _trigamma(shape)
        step = f / fp
        new_shape = shape - step
        if new_shape <= 0.0:
            new_shape = shape / 2.0
        if abs(new_shape - shape) <= GAMMA_NEWTON_TOL * max(1.0, shape):
            shape = new_shape
            converged = True
            break
        shape = new_shape
    if not converged:
        raise NonConvergence(
            f"gamma shape refinement did not converge in {GAMMA_NEWTON_MAX_ITER} steps")
    return {"shape": shape, "scale": mean / shape}


def _fit_beta(x: np.ndarray) -> dict:
    lo = float(np.min(x))
    hi = float(np.max(x))
    if lo == hi:
        raise DegenerateSamples(f"all samples equal {lo}")
    pad = BETA_SUPPORT_PAD * (hi - lo)
    loc = lo - pad
    scale = (hi - lo) + 2.0 * pad
    u = (x - loc) / scale
    m = float(np.mean(u))
    v = float(np.var(u))
    if v <= 0.0 or v >= m * (1.0 - m):
        raise FitDomainError(
            f"beta moments out of range (mean {m:.4g}, var {v:.4g})")
    common = m * (1.0 - m) / v - 1.0
    return {"alpha": m * common, "beta": (1.0 - m) * common,
            "loc": loc, "scale": scale}


_FITTERS = {
    DistributionFamily.NORMAL: _fit_normal,
    DistributionFamily.LOG_NORMAL: _fit_log_normal,
    DistributionFamily.GAMMA: _fit_gamma,
    DistributionFamily.BETA: _fit_beta,
}


def fit(samples, family: DistributionFamily, bins: int = DEFAULT_BINS) -> FitResult:
    """Fit one family and score it against the sample histogram.

    SSR is the sum over bins of the squared gap between the empirical
    density and the fitted pdf at the bin center.
    """
    x = np.asarray(samples, dtype=np.float64)
    hist = make_histogram(x, bins)
    params = _FITTERS[family](x)
    fitted = FitResult(family=family, params=params, ssr=0.0)
    residuals = hist.densities - pdf(fitted, hist.centers)
    return FitResult(family=family, params=params,
                     ssr=float(np.sum(residuals * residuals)))


def _least_ssr(fits) -> FitResult:
    """The fit with minimal SSR; ties go to the one listed first."""
    return min(fits, key=lambda r: r.ssr)


def select_best(samples, families=ALL_FAMILIES, bins: int = DEFAULT_BINS) -> FitResult:
    """Fit every family and return the one with minimal SSR.

    Ties go to the family listed first in `families`, by default the
    DistributionFamily order.
    """
    return _least_ssr([fit(samples, fam, bins) for fam in families])


def fit_report(samples, families=ALL_FAMILIES, bins: int = DEFAULT_BINS) -> dict:
    """JSON-ready report: all fits, the selection, and plot-ready curves.

    Zero delays are a legitimate outcome (a schedule with no binding
    conflicts), but half the candidate families have positive support. So
    that every family is scored against the same histogram, nonpositive
    samples are dropped first; n_excluded_nonpositive in the report counts
    them.
    """
    x = np.asarray(samples, dtype=np.float64)
    n_raw = int(x.size)
    x = x[x > 0.0]
    hist = make_histogram(x, bins)
    fits = [fit(x, fam, bins) for fam in families]
    best = _least_ssr(fits)
    return {
        "bins": bins,
        "n_samples": int(x.size),
        "n_excluded_nonpositive": n_raw - int(x.size),
        "selected": best.family.value,
        "fits": [
            {
                "family": r.family.value,
                "params": {k: float(v) for k, v in r.params.items()},
                "ssr": r.ssr,
            }
            for r in fits
        ],
        "curves": [
            {
                "bin_center": float(c),
                "empirical": float(d),
                "fitted": float(f),
            }
            for c, d, f in zip(hist.centers, hist.densities,
                               pdf(best, hist.centers))
        ],
    }
