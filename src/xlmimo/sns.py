"""Spatially correlated amplitude attenuation factors (AAFs).

Across a physically large array, individual multipath components appear and
fade with element position (partial blockage, varying surface interaction),
so each path carries a per-element amplitude attenuation factor in [0, 1].
This module generates such factors statistically: Beta-distributed
marginals coupled to an exponentially correlated Gaussian copula by rank
matching, with hyper-parameters (Beta shape p, correlation decay d_corr)
drawn from fitted distributions.  The latent Gaussian has covariance
``exp(-d_corr * |i - j|)``, which is exactly a first-order autoregressive
(AR(1)) process with coefficient ``exp(-d_corr)``; it is sampled by that
recursion in O(M), with no M x M matrix.

Besides generation, the module estimates the spatial autocorrelation of a
sequence and fits its decay rate (``acf``, ``fit_dcorr``), classifies a
per-element amplitude profile as stationary or not (``identify_sns``), and
builds the attenuation-factor matrix of a path list (``build_aaf_matrix``).

Correlation lags are in element-index units throughout; ``d_corr`` is the
exponential decay rate per element.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import NumericError
from .nearfield import PathRecord, Stationarity


@dataclass
class AAFStatParams:
    """Hyper-parameter distributions for statistical AAF generation.

    The Beta shape ``p`` is log-normal (``mu_p``/``sigma_p`` are mean and
    standard deviation of ``ln p``) truncated to ``p_range``; the second
    shape follows ``q = xi * ln(p) + gamma``; the correlation decay is
    exponential with rate ``lambda_corr`` truncated to ``dcorr_range``.
    """

    mu_p: float = 0.37
    sigma_p: float = 0.58
    xi: float = 0.48
    gamma: float = 1.03
    lambda_corr: float = 40.61
    p_range: tuple = (0.2, 5.0)
    dcorr_range: tuple = (0.018, 0.12)

    def __post_init__(self):
        self.mu_p = float(self.mu_p)
        self.sigma_p = float(self.sigma_p)
        self.xi = float(self.xi)
        self.gamma = float(self.gamma)
        self.lambda_corr = float(self.lambda_corr)
        self.p_range = (float(self.p_range[0]), float(self.p_range[1]))
        self.dcorr_range = (float(self.dcorr_range[0]), float(self.dcorr_range[1]))
        values = (self.mu_p, self.sigma_p, self.xi, self.gamma, self.lambda_corr)
        if not np.all(np.isfinite(values + self.p_range + self.dcorr_range)):
            raise ValueError("aaf hyper-parameters must be finite")
        if self.sigma_p <= 0.0:
            raise ValueError(f"sigma_p must be > 0, got {self.sigma_p}")
        if self.lambda_corr <= 0.0:
            raise ValueError(f"lambda_corr must be > 0, got {self.lambda_corr}")
        for name, (lo, hi) in (
            ("p_range", self.p_range),
            ("dcorr_range", self.dcorr_range),
        ):
            if not 0.0 < lo < hi:
                raise ValueError(f"{name} must satisfy 0 < low < high, got {lo, hi}")
        # q must stay positive over the admissible p interval.
        q_lo = self.xi * np.log(self.p_range[0]) + self.gamma
        q_hi = self.xi * np.log(self.p_range[1]) + self.gamma
        if min(q_lo, q_hi) <= 0.0:
            raise ValueError("q = xi*ln(p) + gamma must be > 0 over p_range")
        for name, law, (lo, hi) in (
            ("p_range", _LogNormal(self.mu_p, self.sigma_p), self.p_range),
            ("dcorr_range", _Exponential(self.lambda_corr), self.dcorr_range),
        ):
            if _inverse_interval(law, lo, hi)[2] == 0.0:
                raise ValueError(
                    f"{name} {lo, hi} lies so far in the tail that its "
                    f"probability underflows"
                )


@dataclass
class ACFSeries:
    """Spatial autocorrelation values per integer element lag."""

    lags: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.lags = np.asarray(self.lags, dtype=int)
        self.values = np.asarray(self.values, dtype=float)
        if self.lags.shape != self.values.shape or self.lags.ndim != 1:
            raise ValueError("lags and values must be 1-D arrays of equal length")


def acf(sequence) -> ACFSeries:
    """Spatial autocorrelation of an attenuation-factor sequence.

    The value at lag dx is the sum of ``(s_m - mean)(s_{m+dx} - mean)`` over
    the ``M - dx`` available element pairs, divided by the full-sequence
    centered energy ``sum((s_m - mean)**2)``; lag 0 is exactly 1 and the
    estimate is biased toward 0 at large lags.

    Raises
    ------
    ValueError
        If the sequence has fewer than two elements or is constant.
    """
    s = np.asarray(sequence, dtype=float)
    if s.ndim != 1 or s.size < 2:
        raise ValueError("sequence must be 1-D with at least two elements")
    if not np.all(np.isfinite(s)):
        raise ValueError("sequence must be finite")
    centered = s - s.mean()
    energy = float(np.dot(centered, centered))
    if energy == 0.0:
        raise ValueError("constant sequence has no autocorrelation")
    num = np.correlate(centered, centered, mode="full")[s.size - 1 :]
    return ACFSeries(lags=np.arange(s.size), values=num / energy)


def fit_dcorr(series: ACFSeries, max_lag: int = None) -> float:
    """Least-squares exponential decay rate of an autocorrelation series.

    Minimizes ``sum((acf(dx) - exp(-d * dx))**2)`` over lags 1..max_lag for
    ``d`` in [1e-4, 10] with a bounded scalar minimizer.

    Parameters
    ----------
    series : ACFSeries
        Autocorrelation values including lag 0.
    max_lag : int, optional
        Largest lag used in the fit, >= 2; defaults to
        ``min(len(series) - 1, 100)``.
    """
    if max_lag is None:
        max_lag = min(series.lags.size - 1, 100)
    max_lag = int(max_lag)
    if max_lag < 2:
        raise ValueError(f"max_lag must be >= 2, got {max_lag}")
    if max_lag > series.lags.size - 1:
        raise ValueError(
            f"max_lag {max_lag} exceeds available lags {series.lags.size - 1}"
        )
    mask = (series.lags >= 1) & (series.lags <= max_lag)
    lags = series.lags[mask].astype(float)
    values = series.values[mask]

    def objective(d):
        return float(np.sum((values - np.exp(-d * lags)) ** 2))

    import scipy.optimize  # deferred: no other command needs scipy

    result = scipy.optimize.minimize_scalar(
        objective, bounds=(1e-4, 10.0), method="bounded", options={"xatol": 1e-10}
    )
    if not result.success:
        raise NumericError(f"decay-rate fit failed: {result.message}")
    return float(result.x)


_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class _LogNormal:
    """Law of ``exp(N(mu, sigma**2))``: sampler and closed-form tails."""

    mu: float
    sigma: float

    def sample(self, rng):
        return rng.lognormal(self.mu, self.sigma)

    def _z(self, x):
        return (math.log(x) - self.mu) / (self.sigma * math.sqrt(2.0))

    def cdf(self, x):
        return 0.5 * math.erfc(-self._z(x))

    def sf(self, x):
        return 0.5 * math.erfc(self._z(x))

    def ppf(self, u):
        return math.exp(self.mu + self.sigma * _STANDARD_NORMAL.inv_cdf(u))

    def isf(self, u):
        return math.exp(self.mu - self.sigma * _STANDARD_NORMAL.inv_cdf(u))


@dataclass(frozen=True)
class _Exponential:
    """Exponential law with rate ``rate``: sampler and closed-form tails."""

    rate: float

    def sample(self, rng):
        return rng.exponential(1.0 / self.rate)

    def cdf(self, x):
        return -math.expm1(-self.rate * x)

    def sf(self, x):
        return math.exp(-self.rate * x)

    def ppf(self, u):
        return -math.log1p(-u) / self.rate

    def isf(self, u):
        return -math.log(u) / self.rate


def _inverse_interval(law, low, high):
    """The inverse function and probability interval of ``[low, high]``.

    In the upper tail, ``cdf`` rounds to 1 and leaves few (or no) distinct
    values between ``cdf(low)`` and ``cdf(high)``; there the survival
    function and its inverse are used instead, which keep full relative
    precision.  Returns ``(inverse, u_low, u_high)``.
    """
    if law.cdf(low) > 0.5:
        return law.isf, law.sf(high), law.sf(low)
    return law.ppf, law.cdf(low), law.cdf(high)


def _truncated_draw(rng, law, low, high, max_tries=1000):
    """One draw from a truncated law: rejection with inverse-CDF fallback."""
    for _ in range(max_tries):
        x = law.sample(rng)
        if low <= x <= high:
            return float(x)
    inverse, u_low, u_high = _inverse_interval(law, low, high)
    return float(inverse(rng.uniform(u_low, u_high)))


def sample_aaf_params(params: AAFStatParams, rng: np.random.Generator):
    """Draw one (p, q, d_corr) hyper-parameter triple.

    Returns
    -------
    tuple of float
        Beta shapes ``(p, q)`` and the correlation decay rate ``d_corr``.
    """
    p = _truncated_draw(rng, _LogNormal(params.mu_p, params.sigma_p), *params.p_range)
    q = params.xi * np.log(p) + params.gamma
    d_corr = _truncated_draw(rng, _Exponential(params.lambda_corr), *params.dcorr_range)
    return p, float(q), d_corr


def _ar1_filter(w: np.ndarray, rho: float) -> np.ndarray:
    """The recursion ``y_0 = w_0``, ``y_i = w_i + rho * y_(i-1)``.

    It performs the operations of ``scipy.signal.lfilter([1], [1, -rho], w)``
    (transposed direct form) in the same order, so the result is
    bit-identical to it.
    """
    rho = float(rho)
    y = []
    acc = 0.0
    for wi in w.tolist():
        acc = wi + rho * acc
        y.append(acc)
    return np.array(y)


def generate_aaf(
    num_elements: int, p: float, q: float, d_corr: float, rng: np.random.Generator
) -> np.ndarray:
    """Generate one spatially correlated attenuation-factor sequence.

    Rank matching: M independent Beta(p, q) draws are reordered by the ranks
    of a zero-mean Gaussian vector with covariance ``exp(-d_corr * |i - j|)``.
    That vector is sampled by the AR(1) recursion ``y_0 = z_0``,
    ``y_i = rho * y_(i-1) + sqrt(1 - rho**2) * z_i`` with
    ``rho = exp(-d_corr)``, the closed form of ``L @ z`` for the
    covariance's Cholesky factor ``L``, at O(M) cost.  The output therefore
    has exactly the Beta draws as values and Spearman correlation 1 with the
    Gaussian vector.

    Consumes ``rng.beta(p, q, num_elements)`` first, then
    ``rng.standard_normal(num_elements)``; callers relying on reproducing
    intermediate draws can count on that order.

    Parameters
    ----------
    num_elements : int
        Sequence length M, >= 1.
    p, q : float
        Beta shape parameters, > 0.
    d_corr : float
        Correlation decay rate per element lag, > 0.
    rng : numpy.random.Generator
    """
    num_elements = int(num_elements)
    if num_elements < 1:
        raise ValueError(f"num_elements must be >= 1, got {num_elements}")
    for name, value in (("p", p), ("q", q), ("d_corr", d_corr)):
        if not np.isfinite(value) or value <= 0.0:
            raise ValueError(f"{name} must be finite and > 0, got {value}")

    x = rng.beta(p, q, size=num_elements)
    z = rng.standard_normal(num_elements)
    z[1:] *= np.sqrt(-np.expm1(-2.0 * d_corr))
    y = _ar1_filter(z, np.exp(-d_corr))
    ranks = np.empty(num_elements, dtype=int)
    ranks[np.argsort(y, kind="stable")] = np.arange(num_elements)
    return np.sort(x)[ranks]


def identify_sns(amplitudes, threshold_db: float = 3.0) -> Stationarity:
    """Classify a per-element amplitude profile as stationary or not.

    A path is spatially non-stationary when its power variation across the
    array, ``20*log10(max/min)``, exceeds ``threshold_db``.  A zero minimum
    (element fully shadowed) is unbounded variation and classifies as
    non-stationary with a warning.
    """
    a = np.asarray(amplitudes, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("amplitudes must be a non-empty 1-D array")
    if np.any(a < 0.0) or not np.all(np.isfinite(a)):
        raise ValueError("amplitudes must be finite and >= 0")
    if a.max() <= 0.0:
        raise ValueError("amplitudes must have a positive maximum")
    low = a.min()
    if low == 0.0:
        warnings.warn("zero amplitude element: unbounded power variation")
        return Stationarity.NON_STATIONARY
    variation_db = 20.0 * np.log10(a.max() / low)
    if variation_db > threshold_db:
        return Stationarity.NON_STATIONARY
    return Stationarity.STATIONARY


def build_aaf_matrix(
    paths,
    num_elements: int,
    params: AAFStatParams = None,
    seed: int = None,
    stream_key: tuple = (),
    draw=None,
) -> np.ndarray:
    """Per-element attenuation factors for a path list, shape (M, L).

    Stationary paths get all-ones columns.  Non-stationary paths use their
    fixed ``aaf`` override when present, otherwise a column from ``draw``.
    Each drawn column uses an independent random stream derived from
    ``(seed, *stream_key, path_index)``, so results do not depend on path
    evaluation order.

    Parameters
    ----------
    paths : sequence of PathRecord
    num_elements : int
        Array size M.
    params : AAFStatParams, optional
        Hyper-parameter distributions of the default draw; defaults to the
        fitted values.
    seed : int, optional
        Root seed; required when any column is drawn.
    stream_key : tuple of int
        Extra stream-derivation key (e.g. the user index).
    draw : callable, optional
        ``draw(num_elements, rng)`` returns one column of shape (M,).  The
        default is the statistical generator: hyper-parameters from
        ``sample_aaf_params``, then a sequence from ``generate_aaf``.
    """
    paths = list(paths)
    num_elements = int(num_elements)
    if num_elements < 1:
        raise ValueError(f"num_elements must be >= 1, got {num_elements}")
    if not paths:
        raise ValueError("paths must be non-empty")
    if draw is None:
        if params is None:
            params = AAFStatParams()

        def draw(m, rng):
            p, q, d_corr = sample_aaf_params(params, rng)
            return generate_aaf(m, p, q, d_corr, rng)

    out = np.ones((num_elements, len(paths)))
    for l, path in enumerate(paths):
        if path.aaf is not None:
            if path.aaf.size != num_elements:
                raise ValueError(
                    f"path {l}: fixed aaf length {path.aaf.size} != "
                    f"num_elements {num_elements}"
                )
            out[:, l] = path.aaf
        elif path.stationarity is Stationarity.NON_STATIONARY:
            if seed is None:
                raise ValueError(
                    "seed is required to generate attenuation factors "
                    "for non-stationary paths"
                )
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(*stream_key, l))
            )
            out[:, l] = draw(num_elements, rng)
    return out
