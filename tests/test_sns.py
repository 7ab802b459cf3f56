import tracemalloc

import numpy as np
import pytest
import scipy.optimize
import scipy.signal
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import erfc

from xlmimo import sns
from xlmimo.errors import NumericError
from xlmimo.nearfield import Stationarity
from xlmimo.sns import (
    AAFStatParams,
    acf,
    fit_dcorr,
    generate_aaf,
    identify_sns,
    sample_aaf_params,
)


class TestACF:
    def test_hand_example(self):
        # s = [1, 2, 3]: centered [-1, 0, 1], energy 2,
        # lag 1 -> (-1*0 + 0*1)/2 = 0, lag 2 -> (-1*1)/2 = -0.5
        assert_allclose(acf([1.0, 2.0, 3.0]), [1.0, 0.0, -0.5], atol=1e-15)

    def test_brute_force_double_loop(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            m = int(rng.integers(3, 40))
            s = rng.uniform(0.0, 1.0, m)
            values = acf(s)
            assert values.shape == (m,)
            c = s - s.mean()
            energy = np.sum(c * c)
            for dx in range(m):
                want = sum(c[i] * c[i + dx] for i in range(m - dx)) / energy
                assert_allclose(values[dx], want, atol=1e-12)

    def test_lag_zero_is_one(self):
        assert acf(np.random.default_rng(3).uniform(size=50))[0] == 1.0

    def test_matches_exponential_for_ar1_sequence(self):
        # oracle: AR(1) recursion with decay a = exp(-d) has autocorrelation
        # exp(-d*dx); the biased estimate tracks it at small lags
        d = 0.1
        a = np.exp(-d)
        rng = np.random.default_rng(42)
        m = 8192
        y = np.empty(m)
        y[0] = rng.standard_normal()
        innov = rng.standard_normal(m) * np.sqrt(1 - a * a)
        for i in range(1, m):
            y[i] = a * y[i - 1] + innov[i]
        values = acf(y)
        lags = np.arange(1, 21)
        assert np.max(np.abs(values[lags] - np.exp(-d * lags))) < 0.08

    def test_validation(self):
        with pytest.raises(ValueError):
            acf([1.0])
        with pytest.raises(ValueError):
            acf([2.0, 2.0, 2.0])
        with pytest.raises(ValueError):
            acf([1.0, np.nan])


def scipy_fit_dcorr(acf_values):
    """The decay fit through ``scipy.optimize``, the reference of the port."""
    max_lag = min(len(acf_values) - 1, 100)
    lags = np.arange(1, max_lag + 1, dtype=float)
    values = np.asarray(acf_values[1 : max_lag + 1], dtype=float)
    result = scipy.optimize.minimize_scalar(
        lambda d: float(np.sum((values - np.exp(-d * lags)) ** 2)),
        bounds=(1e-4, 10.0),
        method="bounded",
        options={"xatol": 1e-10},
    )
    assert result.success
    return float(result.x)


class TestFitDcorr:
    def test_exact_recovery_from_synthetic_series(self):
        lags = np.arange(0, 101)
        for d in (0.018, 0.05, 0.12, 1.5):
            assert abs(fit_dcorr(np.exp(-d * lags)) - d) < 1e-6

    def test_default_max_lag_caps_at_100(self):
        lags = np.arange(0, 301)
        values = np.exp(-0.04 * lags)
        # corrupt lags beyond 100: ignored by the fit window
        values[101:] = 0.9
        assert abs(fit_dcorr(values) - 0.04) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_dcorr([1.0, 0.5])
        with pytest.raises(ValueError):
            fit_dcorr(np.ones((3, 3)))

    def test_nan_and_evaluation_cap_raise(self):
        with pytest.raises(NumericError):
            fit_dcorr([1.0, np.nan, 0.5])
        with pytest.raises(NumericError):
            sns._bounded_minimum(lambda x: (x - 3.0) ** 2, 0.0, 10.0, 1e-10, 5)

    @pytest.mark.parametrize(
        "func, low, high",
        [
            (lambda x: (x - 3.0) ** 2, 0.0, 10.0),
            (lambda x: x, -1.0, 2.0),  # minimum on the lower bound
            (lambda x: -x, -1.0, 2.0),  # minimum on the upper bound
            (lambda x: 1.0, 0.0, 1.0),  # flat: ties everywhere
            (lambda x: float(np.cos(3.0 * x) + 0.1 * x), -4.0, 4.0),  # several minima
            (lambda x: abs(x - 0.3), 0.0, 1.0),  # a kink, no parabola fits
        ],
        ids=["quadratic", "lower-bound", "upper-bound", "flat", "multimodal", "kink"],
    )
    def test_search_matches_scipy_bounded(self, func, low, high):
        want = scipy.optimize.minimize_scalar(
            func, bounds=(low, high), method="bounded", options={"xatol": 1e-10}
        )
        assert sns._bounded_minimum(func, low, high, 1e-10, 500) == float(want.x)


@settings(max_examples=200, deadline=None)
@given(
    centre=st.floats(-1.0, 3.0),
    scale=st.sampled_from([1.0, 10.0, 100.0, 1000.0]),
    power=st.sampled_from([1, 2]),
    bounds=st.sampled_from([(0.0, 1.0), (-1.0, 2.0), (0.5, 4.0), (0.0, 4.0)]),
)
def test_search_matches_scipy_on_plateaus(centre, scale, power, bounds):
    # rounding leaves flat steps and ties, which reach the zero-step and
    # tie-breaking branches that smooth objectives seldom reach
    def func(x):
        return round(abs(x - centre) ** power * scale) / scale

    want = scipy.optimize.minimize_scalar(
        func, bounds=bounds, method="bounded", options={"xatol": 1e-10}
    )
    assert sns._bounded_minimum(func, *bounds, 1e-10, 500) == float(want.x)


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(3, 2048),
    seed=st.integers(0, 2**32 - 1),
    fitted_laws=st.booleans(),
    shapes=st.tuples(st.floats(0.05, 8.0), st.floats(0.05, 8.0), st.floats(1e-4, 10.0)),
)
def test_fit_dcorr_returns_scipy_bounded_result(m, seed, fitted_laws, shapes):
    # the hyper-parameters come from the fitted laws or from wide ranges
    rng = np.random.default_rng(seed)
    p, q, d_corr = sample_aaf_params(AAFStatParams(), rng) if fitted_laws else shapes
    s = generate_aaf(m, p, q, d_corr, rng)
    assume(np.ptp(s) > 0.0)  # a constant draw has no autocorrelation
    values = acf(s)
    assert fit_dcorr(values) == scipy_fit_dcorr(values)


def truncated_cdf(name, params):
    """Closed-form CDF of a truncated hyper-parameter law, for either tail.

    ``d_corr`` is exponential, so its truncated CDF is memoryless; ``p`` is
    log-normal and uses ``erfc`` of the standardized log, taken on the side
    of the median the range lies on so that no difference rounds to 0.
    """
    if name == "d_corr":
        lam, (lo, hi) = params.lambda_corr, params.dcorr_range
        return lambda x: np.expm1(-lam * (x - lo)) / np.expm1(-lam * (hi - lo))

    def z(x):
        return (np.log(x) - params.mu_p) / (params.sigma_p * np.sqrt(2.0))

    lo, hi = z(params.p_range[0]), z(params.p_range[1])
    if lo > 0.0:
        return lambda x: (erfc(lo) - erfc(z(x))) / (erfc(lo) - erfc(hi))
    return lambda x: (erfc(-z(x)) - erfc(-lo)) / (erfc(-hi) - erfc(-lo))


class TestSampleAAFParams:
    def test_ranges_and_shape_relation(self):
        params = AAFStatParams()
        rng = np.random.default_rng(9)
        for _ in range(500):
            p, q, d_corr = sample_aaf_params(params, rng)
            assert params.p_range[0] <= p <= params.p_range[1]
            assert params.dcorr_range[0] <= d_corr <= params.dcorr_range[1]
            assert q == params.xi * np.log(p) + params.gamma
            assert q > 0

    def test_deterministic_for_seed(self):
        params = AAFStatParams()
        a = sample_aaf_params(params, np.random.default_rng(77))
        b = sample_aaf_params(params, np.random.default_rng(77))
        assert a == b

    @pytest.mark.parametrize(
        "name, bounds",
        [
            ("d_corr", (1.0, 2.0)),
            ("d_corr", (0.8, 0.9)),
            ("p", (40.0, 50.0)),
            ("p", (1e-3, 2e-3)),
        ],
    )
    def test_inverse_cdf_fallback_in_both_tails(self, name, bounds):
        # Each range is far beyond the reach of rejection sampling, so every
        # draw comes from the inverse-CDF fallback.
        if name == "d_corr":
            params = AAFStatParams(dcorr_range=bounds)
        else:
            params = AAFStatParams(p_range=bounds, xi=0.0)  # q = gamma > 0
        rng = np.random.default_rng(3)
        column = 2 if name == "d_corr" else 0
        draws = np.array([sample_aaf_params(params, rng)[column] for _ in range(400)])
        assert np.all((draws >= bounds[0]) & (draws <= bounds[1]))
        assert np.unique(draws).size == draws.size  # a continuous law
        cdf = truncated_cdf(name, params)
        assert scipy.stats.kstest(draws, cdf).statistic < 0.1
        # The closed-form laws behind the fallback agree with scipy.stats at
        # both bounds and at the probabilities the fallback inverts.
        if name == "d_corr":
            law = sns._Exponential(params.lambda_corr)
            ref = scipy.stats.expon(scale=1.0 / params.lambda_corr)
        else:
            law = sns._LogNormal(params.mu_p, params.sigma_p)
            ref = scipy.stats.lognorm(s=params.sigma_p, scale=np.exp(params.mu_p))
        probabilities = []
        for x in bounds:
            for fn in ("cdf", "sf"):
                value = getattr(law, fn)(x)
                assert_allclose(value, getattr(ref, fn)(x), rtol=1e-12, atol=0)
                if 0.0 < value < 1.0:
                    probabilities.append(value)
        assert len(probabilities) >= 2  # both tails' probabilities are exercised
        for u in probabilities:
            for fn in ("ppf", "isf"):
                want = getattr(ref, fn)(u)
                assert_allclose(getattr(law, fn)(u), want, rtol=1e-12, atol=0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            AAFStatParams(sigma_p=0.0)
        with pytest.raises(ValueError):
            AAFStatParams(p_range=(5.0, 0.2))
        with pytest.raises(ValueError):
            # q turns negative at the low end of p_range
            AAFStatParams(xi=2.0, gamma=0.1, p_range=(0.2, 5.0))
        # ranges whose probability underflows: the fallback could only draw
        # inf or 0 there
        with pytest.raises(ValueError, match="underflows"):
            AAFStatParams(dcorr_range=(20.0, 30.0))
        with pytest.raises(ValueError, match="underflows"):
            AAFStatParams(p_range=(1e-30, 2e-30), xi=0.0)
        # ranges are exactly two numbers, and booleans are not numbers
        with pytest.raises(ValueError, match="p_range"):
            AAFStatParams(p_range=[0.2])
        with pytest.raises(ValueError, match="dcorr_range"):
            AAFStatParams(dcorr_range=[0.02, 0.05, 9])
        with pytest.raises(ValueError, match="mu_p"):
            AAFStatParams(mu_p=True)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 4096),
    d_corr=st.floats(1e-6, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_ar1_latent_is_bit_identical_to_lfilter(m, d_corr, seed):
    w = np.random.default_rng(seed).standard_normal(m)
    w[1:] *= np.sqrt(-np.expm1(-2.0 * d_corr))
    rho = np.exp(-d_corr)
    want = scipy.signal.lfilter([1.0], [1.0, -rho], w)
    assert np.array_equal(sns._ar1_filter(w, rho), want)


class TestGenerateAAF:
    def test_values_are_the_beta_draws(self):
        # documented stream order: beta first, then standard normals
        for seed in (0, 1, 99):
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            s = generate_aaf(301, 1.0, 1.03, 0.05, rng)
            rng2 = np.random.default_rng(np.random.SeedSequence(seed))
            x = rng2.beta(1.0, 1.03, size=301)
            assert np.array_equal(np.sort(s), np.sort(x))
            assert np.all((s >= 0.0) & (s <= 1.0))

    def test_spearman_one_with_latent_gaussian(self):
        m, d = 200, 0.05
        rng = np.random.default_rng(np.random.SeedSequence(5))
        s = generate_aaf(m, 0.8, 1.2, d, rng)
        rng2 = np.random.default_rng(np.random.SeedSequence(5))
        rng2.beta(0.8, 1.2, size=m)
        idx = np.arange(m, dtype=float)
        sigma = np.exp(-d * np.abs(idx[:, None] - idx[None, :]))
        y = np.linalg.cholesky(sigma) @ rng2.standard_normal(m)
        rho = scipy.stats.spearmanr(s, y).statistic
        assert rho == 1.0

    def test_adjacent_rank_correlation_matches_copula_theory(self):
        # oracle: for a Gaussian copula with lag-1 correlation r the
        # population Spearman correlation is (6/pi)*asin(r/2)
        d = 0.3
        m = 2000
        vals = []
        for seed in range(30):
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            s = generate_aaf(m, 1.0, 1.0, d, rng)
            vals.append(scipy.stats.spearmanr(s[:-1], s[1:]).statistic)
        want = 6.0 / np.pi * np.arcsin(np.exp(-d) / 2.0)
        assert abs(np.mean(vals) - want) < 0.03

    def test_latent_covariance_dual_route(self):
        # route A: reproduce the generator's latent vectors and check their
        # sample covariance; route B: independent AR(1) recursion targeting
        # the same covariance. Both must match exp(-d|i-j|).
        m, d, n = 16, 0.25, 20000
        idx = np.arange(m, dtype=float)
        sigma = np.exp(-d * np.abs(idx[:, None] - idx[None, :]))

        root = np.random.SeedSequence(123)
        keys = root.spawn(n)
        lat = np.empty((n, m))
        chol = np.linalg.cholesky(sigma)
        for i, key in enumerate(keys):
            rng = np.random.default_rng(key)
            generate_aaf(m, 1.0, 1.0, d, rng)
            rng2 = np.random.default_rng(keys[i])
            rng2.beta(1.0, 1.0, size=m)
            lat[i] = chol @ rng2.standard_normal(m)
        cov_a = lat.T @ lat / n
        assert np.max(np.abs(cov_a - sigma)) < 0.05

        a = np.exp(-d)
        rng = np.random.default_rng(99)
        y = np.empty((n, m))
        y[:, 0] = rng.standard_normal(n)
        for j in range(1, m):
            y[:, j] = a * y[:, j - 1] + np.sqrt(1 - a * a) * rng.standard_normal(n)
        cov_b = y.T @ y / n
        assert np.max(np.abs(cov_b - sigma)) < 0.05

    def test_weak_correlation_decouples_neighbours(self):
        # d_corr = 5: lag-1 latent correlation exp(-5) ~ 0.007
        vals = []
        for seed in range(200):
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            s = generate_aaf(301, 1.0, 1.03, 5.0, rng)
            vals.append(scipy.stats.spearmanr(s[:-1], s[1:]).statistic)
        assert abs(np.mean(vals)) < 0.05

    def test_fitted_decay_tracks_slow_generator(self):
        # long-memory setting: with a correlation length of ~56 elements in a
        # 512-element window the truncated/centered estimator inflates the
        # decay rate roughly twofold; the band is frozen from a standalone
        # reimplementation of the generator/estimator round trip
        fits = []
        for seed in range(200):
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            s = generate_aaf(512, 1.0, 1.03, 0.018, rng)
            fits.append(fit_dcorr(acf(s)))
        assert 0.030 <= np.mean(fits) <= 0.046

    def test_extreme_decay_rates_stay_positive_definite(self):
        rng = np.random.default_rng(0)
        s1 = generate_aaf(4096, 1.0, 1.0, 1e-4, rng)
        s2 = generate_aaf(4096, 1.0, 1.0, 10.0, rng)
        for s in (s1, s2):
            assert s.shape == (4096,)
            assert np.all((s >= 0.0) & (s <= 1.0))

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 600),
        d=st.floats(1e-4, 10.0),
        p=st.floats(0.05, 20.0),
        q=st.floats(0.05, 20.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ranks_match_cholesky_reference(self, m, d, p, q, seed):
        s = generate_aaf(m, p, q, d, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        x = rng.beta(p, q, size=m)
        idx = np.arange(m, dtype=float)
        sigma = np.exp(-d * np.abs(idx[:, None] - idx[None, :]))
        y = np.linalg.cholesky(sigma) @ rng.standard_normal(m)
        assert np.array_equal(np.sort(s), np.sort(x))
        ranks = np.empty(m, dtype=int)
        ranks[np.argsort(y, kind="stable")] = np.arange(m)
        assert np.array_equal(s, np.sort(x)[ranks])

    def test_memory_is_linear_in_elements(self):
        # an M x M covariance at M=4096 alone would take 134 MB
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            generate_aaf(4096, 1.0, 1.03, 0.05, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_decay_beyond_cholesky_reach_gives_valid_sequence(self):
        # exp(-1e-16) rounds to 1, so exp(-d|i-j|) is the singular all-ones
        # matrix; the recursion needs no factorization, so the output is
        # still a permutation of the draws
        s = generate_aaf(2048, 1.0, 1.03, 1e-16, np.random.default_rng(3))
        x = np.random.default_rng(3).beta(1.0, 1.03, size=2048)
        assert np.array_equal(np.sort(s), np.sort(x))

    def test_deterministic_for_seed(self):
        a = generate_aaf(64, 0.5, 0.9, 0.05, np.random.default_rng(11))
        b = generate_aaf(64, 0.5, 0.9, 0.05, np.random.default_rng(11))
        assert np.array_equal(a, b)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_aaf(0, 1.0, 1.0, 0.05, rng)
        with pytest.raises(ValueError):
            generate_aaf(8, 0.0, 1.0, 0.05, rng)
        with pytest.raises(ValueError):
            generate_aaf(8, 1.0, -1.0, 0.05, rng)
        with pytest.raises(ValueError):
            generate_aaf(8, 1.0, 1.0, np.inf, rng)


class TestIdentifySnS:
    def test_ratio_two_is_non_stationary(self):
        assert identify_sns([1.0, 2.0]) is Stationarity.NON_STATIONARY

    def test_constant_is_stationary(self):
        assert identify_sns([0.7, 0.7, 0.7]) is Stationarity.STATIONARY

    def test_threshold_is_strict(self):
        thr = 20.0 * np.log10(2.0)
        assert identify_sns([1.0, 2.0], threshold_db=thr) is Stationarity.STATIONARY

    def test_zero_amplitude_warns_non_stationary(self):
        with pytest.warns(UserWarning):
            out = identify_sns([0.0, 1.0])
        assert out is Stationarity.NON_STATIONARY

    def test_validation(self):
        with pytest.raises(ValueError):
            identify_sns([0.0, 0.0])
        with pytest.raises(ValueError):
            identify_sns([-1.0, 1.0])
