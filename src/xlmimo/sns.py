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

``channel.build_variant_aaf`` draws each non-stationary path's column of a
user's attenuation-factor matrix by ``sample_aaf_params`` and then
``generate_aaf``.  Besides generation, the module estimates the spatial
autocorrelation of a sequence and fits its decay rate (``acf``,
``fit_dcorr``) and classifies a per-element amplitude profile as stationary
or not (``identify_sns``).

Correlation lags are in element-index units throughout; ``d_corr`` is the
exponential decay rate per element.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import NumericError
from .nearfield import Stationarity


def _number(name, value) -> float:
    """``value`` as a float; booleans and non-numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


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
        for name in ("mu_p", "sigma_p", "xi", "gamma", "lambda_corr"):
            setattr(self, name, _number(name, getattr(self, name)))
        for name in ("p_range", "dcorr_range"):
            pair = getattr(self, name)
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ValueError(f"{name} must be a pair [low, high], got {pair!r}")
            setattr(self, name, tuple(_number(name, v) for v in pair))
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


def acf(sequence) -> np.ndarray:
    """Spatial autocorrelation of an attenuation-factor sequence.

    Entry dx is the sum of ``(s_m - mean)(s_{m+dx} - mean)`` over the
    ``M - dx`` available element pairs, divided by the full-sequence
    centered energy ``sum((s_m - mean)**2)``, for lags dx = 0..M-1; lag 0 is
    exactly 1 and the estimate is biased toward 0 at large lags.

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
    return num / energy


def fit_dcorr(acf_values) -> float:
    """Least-squares exponential decay rate of an autocorrelation curve.

    Minimizes ``sum((acf(dx) - exp(-d * dx))**2)`` over lags
    ``1..min(len(acf_values) - 1, 100)`` for ``d`` in [1e-4, 10] with
    Brent's bounded scalar search.

    Parameters
    ----------
    acf_values : array_like
        Autocorrelation values at lags 0, 1, 2, ..., as :func:`acf` returns
        them; at least three.
    """
    values = np.asarray(acf_values, dtype=float)
    if values.ndim != 1 or values.size < 3:
        raise ValueError("need a 1-D autocorrelation curve of at least three lags")
    max_lag = min(values.size - 1, 100)
    lags = np.arange(1, max_lag + 1, dtype=float)
    values = values[1 : max_lag + 1]

    def objective(d):
        return float(np.sum((values - np.exp(-d * lags)) ** 2))

    return _bounded_minimum(objective, 1e-4, 10.0, xatol=1e-10, max_evals=500)


def _bounded_minimum(func, low, high, xatol, max_evals):
    """Minimizer of ``func`` on ``[low, high]`` by Brent's bounded search.

    Golden-section steps, replaced by parabolic interpolation where that is
    acceptable (Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 5).  The operations are those of
    ``scipy.optimize.minimize_scalar(method="bounded")`` in the same order,
    so the result is the same float.  Raises ``NumericError`` when
    ``max_evals`` evaluations do not converge or a value is nan.
    """

    def step_sign(v):  # np.sign(v) + (v == 0): zero counts as positive
        return -1.0 if v < 0.0 else 1.0

    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = low, high
    fulc = a + golden_mean * (b - a)
    nfc = xf = x = fulc
    rat = e = 0.0
    fx = func(x)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit through the last three points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * step_sign(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + step_sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= max_evals:
            raise NumericError(f"decay-rate fit did not converge in {max_evals} evaluations")
    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        raise NumericError("decay-rate fit produced nan")
    return xf


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
