"""Distribution fitting and SSR-based model selection of delay samples.

`fit_report` is the one entry: it builds one histogram, fits every
family once, scores each against the histogram and selects the least SSR.
The fitting protocol is fixed so SSR values are comparable across runs:
50 uniform density-normalized bins, residuals taken at bin centers between
the empirical density and the fitted pdf. Normal and log-normal use
closed-form maximum likelihood; gamma solves the shape likelihood equation
ln k − ψ(k) = s by Newton's method from 1/(2s), a start proven to lie below
the root; beta uses method of moments on samples affinely mapped into (0, 1)
over the 1%-padded sample range (delays are unbounded above, so a beta fit
needs an explicit support choice).

Special functions need only `math`: ln Γ is `math.lgamma`, ln B(a, b) is
ln Γ(a) + ln Γ(b) − ln Γ(a + b), and ln x − ψ(x) and its derivative are
recurrences plus asymptotic series, formed with no cancellation.
"""

import math
from enum import Enum

import numpy as np

from .errors import DegenerateSamples

DEFAULT_BINS = 50
BETA_SUPPORT_PAD = 0.01


class DistributionFamily(Enum):
    # enum definition order is the tie-break order of fit_report
    NORMAL = "normal"
    LOG_NORMAL = "log_normal"
    BETA = "beta"
    GAMMA = "gamma"


def _histogram(x: np.ndarray, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Densities and bin centers of `bins` uniform bins over [min, max].

    The densities integrate to one.
    """
    if x.size < 2:
        raise ValueError(f"need at least 2 samples, got {x.size}")
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    lo = float(np.min(x))
    hi = float(np.max(x))
    if lo == hi:
        raise DegenerateSamples(f"all {x.size} samples equal {lo}")
    # np.histogram's own test: the uniform edges must strictly increase
    edges = np.linspace(lo, hi, bins + 1)
    if not np.all(edges[:-1] < edges[1:]):
        raise DegenerateSamples(f"{x.size} samples span [{lo!r}, {hi!r}], "
                                f"too narrow for {bins} bins")
    densities, edges = np.histogram(x, bins=bins, range=(lo, hi), density=True)
    return densities, 0.5 * (edges[:-1] + edges[1:])


def _normal_pdf(p: dict, x: np.ndarray) -> np.ndarray:
    mu, sigma = p["mu"], p["sigma"]
    z = (x - mu) / sigma
    return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def _log_normal_pdf(p: dict, x: np.ndarray) -> np.ndarray:
    mu, sigma = p["mu"], p["sigma"]
    out = np.zeros_like(x)
    pos = x > 0.0
    z = (np.log(x[pos]) - mu) / sigma
    out[pos] = np.exp(-0.5 * z * z) / (x[pos] * sigma * math.sqrt(2.0 * math.pi))
    return out


def _gamma_pdf(p: dict, x: np.ndarray) -> np.ndarray:
    k, theta = p["shape"], p["scale"]
    out = np.zeros_like(x)
    pos = x > 0.0
    xp = x[pos]
    out[pos] = np.exp((k - 1.0) * np.log(xp) - xp / theta
                      - math.lgamma(k) - k * math.log(theta))
    return out


def _beta_pdf(p: dict, x: np.ndarray) -> np.ndarray:
    a, b, loc, scale = p["alpha"], p["beta"], p["loc"], p["scale"]
    out = np.zeros_like(x)
    u = (x - loc) / scale
    inside = (u > 0.0) & (u < 1.0)
    ui = u[inside]
    out[inside] = np.exp((a - 1.0) * np.log(ui) + (b - 1.0) * np.log1p(-ui)
                         - _betaln(a, b)) / scale
    return out


def _betaln(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _g(x: float) -> float:
    """g(x) = ln x − ψ(x) for x > 0: g(x) = g(x + 1) + 1/x − log1p(1/x) up
    to x ≥ 10, then the asymptotic series of ψ without its ln x term."""
    if x < 10.0:
        return _g(x + 1.0) + 1.0 / x - math.log1p(1.0 / x)
    f = 1.0 / (x * x)
    return 0.5 / x + f * (1 / 12 - f * (
        1 / 120 - f * (1 / 252 - f * (1 / 240 - f * (1 / 132 - f * (
            691 / 32760 - f * (1 / 12 - f * 3617 / 8160)))))))


def _g_prime(x: float) -> float:
    """g′(x) = 1/x − ψ′(x) for x > 0: g′(x) = g′(x + 1) − 1/(x²(x + 1)) up
    to x ≥ 10, then the asymptotic series of ψ′ without its 1/x term."""
    if x < 10.0:
        return _g_prime(x + 1.0) - 1.0 / (x * x * (x + 1.0))
    f = 1.0 / (x * x)
    return -0.5 * f - (f / x) * (1 / 6 - f * (
        1 / 30 - f * (1 / 42 - f * (1 / 30 - f * (5 / 66 - f * (
            691 / 2730 - f * (7 / 6 - f * 3617 / 510)))))))


def _fit_normal(x: np.ndarray) -> dict:
    mu = float(np.mean(x))
    sigma = float(np.sqrt(np.var(x)))  # MLE: population variance
    if sigma == 0.0:
        raise DegenerateSamples("zero variance")
    return {"mu": mu, "sigma": sigma}


def _fit_log_normal(x: np.ndarray) -> dict:
    lx = np.log(x)
    sigma = float(np.sqrt(np.var(lx)))
    if sigma == 0.0:
        raise DegenerateSamples("zero variance of log-samples")
    return {"mu": float(np.mean(lx)), "sigma": sigma}


def _gamma_shape(s: float) -> float:
    """The root k of g(k) = s for s > 0, by Newton's method.

    g is convex and decreasing with 1/(2k) < g(k) < 1/k, so the start
    1/(2s) lies below the root, and from below the root each Newton step
    climbs toward it and never passes it. The loop stops at the first step
    that does not climb, which in floats is within a few ulps of the root.
    """
    shape = 0.5 / s
    while True:
        new_shape = shape - (_g(shape) - s) / _g_prime(shape)
        if not new_shape > shape:
            return shape
        shape = new_shape


def _fit_gamma(x: np.ndarray) -> dict:
    mean = float(np.mean(x))
    # s = ln(mu) − mean(ln x), mu the exact mean, without subtracting nearly
    # equal logs: with d = x/mean − 1, mu = mean (1 + mean(d)), so
    # s = log1p(mean(d)) − mean(ln(x/mean)), and the first term takes out
    # the rounding of mean. From x = mean/2 up, ln(x/mean) is log1p(d): up
    # to 2 mean, x − mean is exact (Sterbenz), and above, d > 1. Below
    # mean/2, d nears −1 and loses digits, so ln(x/mean) is ln x − ln mean,
    # which is at least ln 2 in size. s > 0 by Jensen unless the samples
    # are equal, but rounding can take it to 0 or below for samples a few
    # ulps apart
    d = (x - mean) / mean
    log_ratio = np.log(x) - math.log(mean)
    np.log1p(d, out=log_ratio, where=x >= 0.5 * mean)
    s = math.log1p(float(np.mean(d))) - float(np.mean(log_ratio))
    if not s > 0.0:
        raise DegenerateSamples(f"samples too close for a gamma fit: "
                                f"ln(mean) - mean(ln x) = {s!r}")
    shape = _gamma_shape(s)
    return {"shape": shape, "scale": mean / shape}


def _fit_beta(x: np.ndarray) -> dict:
    # fit_report has rejected equal samples, so v > 0; every u lies in
    # [0, 1] and u = 0 and u = 1 never occur together, so v < m (1 - m)
    # and both shapes are > 0
    lo = float(np.min(x))
    hi = float(np.max(x))
    pad = BETA_SUPPORT_PAD * (hi - lo)
    loc = lo - pad
    scale = (hi - lo) + 2.0 * pad
    u = (x - loc) / scale
    m = float(np.mean(u))
    v = float(np.var(u))
    common = m * (1.0 - m) / v - 1.0
    return {"alpha": m * common, "beta": (1.0 - m) * common,
            "loc": loc, "scale": scale}


# (fitter, density) of each family
_FAMILIES = {
    DistributionFamily.NORMAL: (_fit_normal, _normal_pdf),
    DistributionFamily.LOG_NORMAL: (_fit_log_normal, _log_normal_pdf),
    DistributionFamily.GAMMA: (_fit_gamma, _gamma_pdf),
    DistributionFamily.BETA: (_fit_beta, _beta_pdf),
}


def fit_report(samples, bins: int = DEFAULT_BINS) -> dict:
    """JSON-ready report: all fits, the selection, and plot-ready curves.

    Zero delays are a legitimate outcome (a schedule with no binding
    conflicts), but half the candidate families have positive support. So
    that every family is scored against the same histogram, nonpositive
    samples are dropped first; n_excluded_nonpositive in the report counts
    them. A non-finite sample raises ValueError.

    Each family's SSR is the sum over bins of the squared gap between the
    empirical density and the fitted pdf at the bin center. The family
    with the least SSR is selected; ties go to the one listed first in
    DistributionFamily.
    """
    x = np.asarray(samples, dtype=np.float64)
    n_raw = int(x.size)
    if not np.isfinite(x).all():
        raise ValueError(f"samples must be finite, got {x[~np.isfinite(x)][0]}")
    x = x[x > 0.0]
    densities, centers = _histogram(x, bins)
    fits = []
    for family in DistributionFamily:
        fitter, density = _FAMILIES[family]
        params = fitter(x)
        fitted = density(params, centers)
        residuals = densities - fitted
        fits.append((family, params, float(np.sum(residuals * residuals)), fitted))
    best, _, _, best_fitted = min(fits, key=lambda f: f[2])
    return {
        "bins": bins,
        "n_samples": int(x.size),
        "n_excluded_nonpositive": n_raw - int(x.size),
        "selected": best.value,
        "fits": [
            {
                "family": family.value,
                "params": {k: float(v) for k, v in params.items()},
                "ssr": ssr,
            }
            for family, params, ssr, _ in fits
        ],
        "curves": [
            {
                "bin_center": float(c),
                "empirical": float(d),
                "fitted": float(f),
            }
            for c, d, f in zip(centers, densities, best_fitted)
        ],
    }
