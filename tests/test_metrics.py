import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from xlmimo import metrics
from xlmimo.errors import NumericError
from xlmimo.metrics import (
    avg_spatial_correlation,
    cvm_distance,
    demmel_condition,
    entropy_capacity,
    multiuser_trials,
    path_gain_db,
    rician_k_db,
    rms_delay_spread,
    stream_gram,
)


def dft_rows(num_users, num_elements):
    # orthogonal equal-gain rows: |entries| = 1, H H^H = M I
    n = np.arange(num_users)[:, None]
    m = np.arange(num_elements)[None, :]
    return np.exp(2j * np.pi * n * m / num_elements)[:, :, None]


def random_channel(rng, n=3, m=16, k=4):
    return rng.standard_normal((n, m, k)) + 1j * rng.standard_normal((n, m, k))


class TestEntropyCapacity:
    def test_orthogonal_rows_closed_form(self):
        # eta = 1, each signal power M, so C = N * log2(1 + snr)
        for snr_db in (0.0, 15.0, 20.0):
            h = dft_rows(4, 8)
            want = 4.0 * np.log2(1.0 + 10.0 ** (snr_db / 10.0))
            assert abs(entropy_capacity(h, snr_db=snr_db) - want) < 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        h = random_channel(rng)
        assert_allclose(
            entropy_capacity(17.3 * h), entropy_capacity(h), rtol=1e-9
        )

    def test_unitary_invariance(self):
        rng = np.random.default_rng(3)
        h = random_channel(rng, n=4, m=12, k=3)
        q, _ = np.linalg.qr(
            rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        )
        rotated = np.einsum("ij,jmk->imk", q, h)
        assert_allclose(
            entropy_capacity(rotated), entropy_capacity(h), rtol=1e-9
        )

    def test_capacity_grows_with_snr(self):
        rng = np.random.default_rng(4)
        h = random_channel(rng)
        caps = [entropy_capacity(h, snr_db=s) for s in (-10, 0, 10, 20, 30)]
        assert np.all(np.diff(caps) > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            entropy_capacity(np.ones((2, 3)))
        with pytest.raises(NumericError):
            entropy_capacity(np.zeros((1, 2, 2), dtype=complex))
        with pytest.raises(ValueError):
            entropy_capacity(np.full((1, 2, 2), np.nan + 0j))
        with pytest.raises(ValueError, match="overflows"):
            entropy_capacity(np.ones((1, 2, 2), dtype=complex), snr_db=4000.0)


class TestDemmelCondition:
    def test_orthogonal_rows_closed_form(self):
        # kappa = ||H||_F / sigma_min = sqrt(N * M) / sqrt(M) = sqrt(N)
        for n in (2, 4):
            h = dft_rows(n, 8)
            assert abs(demmel_condition(h) - np.sqrt(n)) < 1e-9

    def test_lower_bound_is_sqrt_rank(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            h = random_channel(rng, n=4, m=10, k=2)
            assert demmel_condition(h) >= np.sqrt(4) * (1 - 1e-12)

    def test_rank_deficient_warns_inf(self):
        h = np.ones((3, 8, 2), dtype=complex)  # identical rows
        with pytest.warns(UserWarning):
            out = demmel_condition(h)
        assert out == np.inf

    def test_unitary_invariance(self):
        rng = np.random.default_rng(6)
        h = random_channel(rng, n=4, m=12, k=3)
        q, _ = np.linalg.qr(
            rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        )
        rotated = np.einsum("ij,jmk->imk", q, h)
        assert_allclose(demmel_condition(rotated), demmel_condition(h), rtol=1e-9)


class TestMultiuserTrials:
    def test_full_pool_subset_matches_direct_metrics(self):
        rng = np.random.default_rng(7)
        pool = random_channel(rng, n=4, m=16, k=3)
        cap, dem = multiuser_trials(pool, 4, 5, np.random.default_rng(0))
        assert_allclose(cap, entropy_capacity(pool), rtol=1e-9)
        assert_allclose(dem, demmel_condition(pool), rtol=1e-9)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(8)
        pool = random_channel(rng, n=8, m=16, k=2)
        c1, d1 = multiuser_trials(pool, 3, 40, np.random.default_rng(11))
        c2, d2 = multiuser_trials(pool, 3, 40, np.random.default_rng(11))
        assert np.array_equal(c1, c2) and np.array_equal(d1, d2)

    def test_validation(self):
        pool = np.ones((2, 4, 2), dtype=complex)
        with pytest.raises(ValueError):
            multiuser_trials(pool, 3, 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            multiuser_trials(pool, 1, 0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="overflows"):
            multiuser_trials(pool, 1, 2, np.random.default_rng(0), snr_db=4000.0)


_svd = np.linalg.svd  # the reference keeps the real SVD while it is counted


def svd_metrics(h, snr_db=15.0):
    """Reference (capacity, demmel) of one (N, M, K) channel from its SVD."""
    sigma = _svd(np.moveaxis(h, 2, 0), compute_uv=False)
    m = h.shape[1]
    gain = 10.0 ** (snr_db / 10.0) / (m * np.mean(np.abs(h) ** 2))
    capacity = np.mean(np.sum(np.log2(1.0 + gain * sigma**2), axis=1))
    eps = np.finfo(float).eps
    if np.any(sigma[:, -1] <= sigma[:, 0] * max(h.shape[:2]) * eps):
        return capacity, np.inf
    return capacity, np.mean(np.sqrt(np.sum(sigma**2, axis=1)) / sigma[:, -1])


def svd_trials(pool, num_ues, num_trials, seed, snr_db=15.0):
    """Per-trial reference, each trial's users in ascending order.

    Both metrics are invariant to the users' order in exact arithmetic, but
    the SVD of a reordered ill-conditioned matrix agrees only to about
    ``eps * cond``; ``multiuser_trials`` evaluates each set in ascending
    order, so the reference does too.
    """
    rng = np.random.default_rng(seed)
    subsets = [
        np.sort(rng.choice(len(pool), size=num_ues, replace=False))
        for _ in range(num_trials)
    ]
    return np.array([svd_metrics(pool[s], snr_db) for s in subsets]).T


def assert_matches_svd(pool, num_ues, num_trials, seed, snr_db=15.0):
    want_cap, want_dem = svd_trials(pool, num_ues, num_trials, seed, snr_db)
    cap, dem = multiuser_trials(
        pool, num_ues, num_trials, np.random.default_rng(seed), snr_db=snr_db
    )
    assert_allclose(cap, want_cap, rtol=1e-12)
    assert np.array_equal(np.isinf(dem), np.isinf(want_dem))
    assert_allclose(dem, want_dem, rtol=1e-12)
    return dem


def assert_direct_matches_svd(h, snr_db=15.0):
    want_cap, want_dem = svd_metrics(h, snr_db)
    assert_allclose(entropy_capacity(h, snr_db=snr_db), want_cap, rtol=1e-12)
    assert_allclose(demmel_condition(h), want_dem, rtol=1e-12)


def count_svd_calls(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return _svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def prescribed_channel(spectrum, m, k, seed):
    """(N, M, K) channel whose Gram at every frequency has ``spectrum``.

    ``H = U diag(sqrt(spectrum)) V^H`` with, per frequency, a random unitary
    U (N, N) and random orthonormal columns V (M, N).
    """
    rng = np.random.default_rng(seed)
    n = len(spectrum)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    u = np.linalg.qr(gaussian(k, n, n))[0]
    v = np.linalg.qr(gaussian(k, m, n))[0]
    h = (u * np.sqrt(spectrum)) @ v.conj().swapaxes(-1, -2)
    return np.moveaxis(h, 0, 2)


SPECTRUM_KINDS = (
    "spread", "equal", "double-min", "near-double-min", "double-max",
    "near-double-max", "ratio-above", "ratio-below",
)
SPECTRUM_SIZES = (1, 2, 3, 8, 16)


def prescribed_spectrum(kind, positions, low_exponent, scale_exponent):
    """Ascending spectrum of ``len(positions)`` eigenvalues of one kind.

    Eigenvalues sit at ``low ** positions`` between ``low`` and 1, with
    ``low = 10**low_exponent``, except for the ratio kinds, whose ``low`` is
    1e-3 * (1 +- 1e-6), on either side of ``_GRAM_MIN_RATIO``.  A double
    pair is equal and a near-double pair 1e-9 apart, relatively.  The whole
    spectrum is then scaled by ``10**scale_exponent``.
    """
    low = {"ratio-above": 1e-3 * (1 + 1e-6), "ratio-below": 1e-3 * (1 - 1e-6)}.get(
        kind, 10.0**low_exponent
    )
    spectrum = np.sort(low ** np.asarray(positions, dtype=float))
    spectrum[0], spectrum[-1] = low, 1.0
    if kind == "equal":
        spectrum[:] = 1.0
    elif len(spectrum) > 1 and kind.endswith("double-min"):
        spectrum[1] = spectrum[0] * (1.0 if kind == "double-min" else 1.0 + 1e-9)
    elif len(spectrum) > 1 and kind.endswith("double-max"):
        spectrum[-2] = 1.0 if kind == "double-max" else 1.0 - 1e-9
    return spectrum * 10.0**scale_exponent


@st.composite
def prescribed_spectra(draw):
    """(kind, spectrum) of every kind and size, scaled by up to 10**+-30."""
    kind = draw(st.sampled_from(SPECTRUM_KINDS))
    n = draw(st.sampled_from(SPECTRUM_SIZES))
    positions = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    low, scale = draw(st.floats(-2.9, 0.0)), draw(st.floats(-30.0, 30.0))
    return kind, prescribed_spectrum(kind, positions, low, scale)


def assert_prescribed_matches_svd(kind, spectrum, m, k, seed):
    """Both routes at 1e-12 of the SVD, and the SVD only below the ratio."""
    n = len(spectrum)
    h = prescribed_channel(spectrum, m, k, seed)
    with pytest.MonkeyPatch.context() as patch:
        calls = count_svd_calls(patch)
        assert_direct_matches_svd(h)
        assert_matches_svd(h, n, 2, seed)
    assert (calls != []) == (kind == "ratio-below" and n > 1)


class TestGramRoute:
    """Gram-eigenvalue metrics against an SVD route written out in the test."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda p: st.tuples(
                st.just(p),
                st.integers(1, p),
                st.integers(1, 40),
                st.integers(1, 5),
                st.integers(0, 2**32 - 1),
            )
        )
    )
    def test_random_pools(self, shape):
        p, n, m, k, seed = shape
        pool = random_channel(np.random.default_rng(seed), n=p, m=m, k=k)
        assert_matches_svd(pool, n, 6, seed)
        assert_direct_matches_svd(pool)

    def test_nearly_collinear_users(self):
        rng = np.random.default_rng(21)
        base = random_channel(rng, n=1, m=24, k=3)
        pool = base + 1e-7 * random_channel(rng, n=5, m=24, k=3)
        dem = assert_matches_svd(pool, 3, 10, 5)
        assert np.all(np.isfinite(dem)) and np.all(dem > 1e6)
        assert_direct_matches_svd(pool)

    def test_more_users_than_elements(self):
        pool = random_channel(np.random.default_rng(22), n=6, m=3, k=4)
        dem = assert_matches_svd(pool, 4, 8, 6)
        assert np.all(np.isfinite(dem))  # sigma_min of the M nonzero values
        assert_direct_matches_svd(pool)

    @pytest.mark.parametrize("n, m", [(1, 4), (2, 8), (4, 8), (3, 16), (8, 8)])
    def test_dft_rows(self, n, m):
        h = dft_rows(n, m)
        assert_direct_matches_svd(h, snr_db=20.0)
        assert_matches_svd(h, n, 3, 0, snr_db=20.0)

    def test_co_located_users_give_inf(self):
        pool = random_channel(np.random.default_rng(23), n=6, m=10, k=2)
        pool[4] = pool[1]
        dem = assert_matches_svd(pool, 2, 40, 8)
        assert np.any(np.isinf(dem)) and np.any(np.isfinite(dem))
        with pytest.warns(UserWarning, match="rank-deficient"):
            assert demmel_condition(pool) == np.inf

    def test_well_conditioned_pool_needs_no_svd(self, monkeypatch):
        pool = random_channel(np.random.default_rng(24), n=8, m=32, k=3)
        calls = count_svd_calls(monkeypatch)
        multiuser_trials(pool, 3, 50, np.random.default_rng(1))
        assert calls == []

    def test_svd_only_for_ill_conditioned_subset(self, monkeypatch):
        rng = np.random.default_rng(25)
        pool = random_channel(rng, n=5, m=32, k=3)
        pool[3] = pool[0] + 1e-4 * random_channel(rng, n=1, m=32, k=3)[0]
        replay = np.random.default_rng(2)
        ill = sum(
            set(replay.choice(5, size=2, replace=False)) == {0, 3}
            for _ in range(30)
        )
        assert ill >= 2
        calls = count_svd_calls(monkeypatch)
        assert_matches_svd(pool, 2, 30, 2)
        assert calls == [(3, 2, 32)]  # once for the set, however often drawn

    @pytest.mark.parametrize("case", ["gram", "svd-fallback", "co-located"])
    def test_complex64_pool_gives_the_numbers_of_its_upcast(self, monkeypatch, case):
        # channel.bin pools are complex64; every route must compute in
        # complex128, so the pool and its exact upcast agree bit for bit
        rng = np.random.default_rng(27)
        pool = random_channel(rng, n=5, m=24, k=3).astype(np.complex64)
        if case == "svd-fallback":
            pool[3] = pool[0] + 1e-4 * pool[2]  # nearly collinear users
        elif case == "co-located":
            pool[4] = pool[1]
        calls = count_svd_calls(monkeypatch)
        results = []
        for p in (pool, pool.astype(complex)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # rank-deficient pools warn
                capacity, demmel = multiuser_trials(p, 2, 30, np.random.default_rng(2))
                results.append(
                    (capacity, demmel, entropy_capacity(p), demmel_condition(p))
                )
        for got, want in zip(*results):
            assert np.array_equal(got, want)
        assert (calls == []) == (case == "gram")
        if case == "co-located":
            assert np.any(np.isinf(results[0][1])) and results[0][3] == np.inf

    def test_non_finite_pool_rejected_up_front(self):
        pool = random_channel(np.random.default_rng(26), n=6, m=8, k=2)
        pool[5, 0, 0] = np.nan
        assert np.random.default_rng(1).choice(6, 1, replace=False) != 5  # not drawn
        with pytest.raises(ValueError, match="finite"):
            multiuser_trials(pool, 1, 1, np.random.default_rng(1))

    @pytest.mark.parametrize(
        "bad",
        [complex(np.nan, 0.0), complex(0.0, np.nan), complex(1.0, np.inf),
         complex(-np.inf, 2.0), complex(np.inf, np.nan)],
    )
    @pytest.mark.parametrize("where", [(0, 0, 0), (5, 0, 1), (2, 36, 3), (5, 36, 0)])
    def test_non_finite_part_rejected_in_any_chunk(self, monkeypatch, bad, where):
        # 5 element rows per chunk: row 36 is in the last chunk, of one row;
        # user 5 is drawn by no trial
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 8 * 6 * 4 * 5)
        rng = np.random.default_rng(27)
        pool = random_channel(rng, n=6, m=37, k=4).astype(np.complex64)
        pool[where] = bad
        assert np.random.default_rng(1).choice(6, 1, replace=False) != 5
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the ValueError alone reports it
            with pytest.raises(ValueError, match="^values must be finite$"):
                multiuser_trials(pool, 1, 1, np.random.default_rng(1))

    def test_largest_complex64_values_are_finite(self):
        # |h|**2 of the largest complex64 values, summed over 8 elements,
        # is about 1.9e78 and exact in float64
        top = np.finfo(np.float32).max
        signs = np.random.default_rng(28).choice([-1.0, 1.0], (2, 3, 8, 2))
        pool = (top * signs[0] + 1j * top * signs[1]).astype(np.complex64)
        gram = stream_gram(lambda users, lo, hi: pool[users, lo:hi], pool.shape).gram
        diagonal = np.diagonal(gram, axis1=1, axis2=2)
        assert np.all(diagonal.real == 16 * float(top) ** 2)


    @settings(max_examples=120, deadline=None)
    @given(
        prescribed_spectra(),
        st.integers(0, 8),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_prescribed_spectra(self, case, extra_elements, k, seed):
        kind, spectrum = case
        assert_prescribed_matches_svd(
            kind, spectrum, len(spectrum) + extra_elements, k, seed
        )

    @pytest.mark.parametrize("n", SPECTRUM_SIZES)
    @pytest.mark.parametrize("kind", SPECTRUM_KINDS)
    def test_every_spectrum_kind(self, kind, n):
        spectrum = prescribed_spectrum(kind, np.linspace(0.0, 1.0, n), -2.5, 3.0)
        assert_prescribed_matches_svd(kind, spectrum, n + 2, 2, n)

    def test_all_zero_set_gives_nan_capacity(self):
        pool = random_channel(np.random.default_rng(29), n=4, m=8, k=3)
        pool[[1, 3]] = 0.0
        capacity, demmel = metrics._subset_metrics(
            metrics._gram(pool), np.array([[1, 3], [0, 1]]), 15.0
        )
        assert np.isnan(capacity[0]) and demmel[0] == np.inf
        assert np.isfinite(capacity[1]) and demmel[1] == np.inf
        with pytest.raises(NumericError, match="all-zero"):
            multiuser_trials(pool[[1, 3]], 2, 3, np.random.default_rng(0))
        with pytest.raises(NumericError, match="all-zero"):
            entropy_capacity(pool[[1, 3]])

    def test_no_route_calls_an_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver called")

        for name in ("eigvalsh", "eigh", "eigvals", "eig"):
            monkeypatch.setattr(np.linalg, name, refuse)
        rng = np.random.default_rng(33)
        pool = random_channel(rng, n=6, m=16, k=3)
        pool[3] = pool[0] + 1e-5 * pool[2]  # an ill-conditioned set
        pool[5] = pool[1]  # and a rank-deficient one
        for n in (1, 2, 3, 6):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # rank-deficient pools warn
                assert_matches_svd(pool, n, 12, n)
                assert_direct_matches_svd(pool[:n])

    def test_trials_peak_memory(self):
        # a case3-sized Gram: 12 users, 2001 frequencies, 24 trials of 4;
        # the batched-eigvalsh route this replaced peaked 5.13 MB above it
        rng = np.random.default_rng(34)
        a = random_channel(rng, n=2001, m=12, k=16)
        pool = metrics.PoolGram(a @ a.conj().swapaxes(-1, -2), (12, 16, 2001), None)
        del a
        tracemalloc.start()
        try:
            multiuser_trials(pool, 4, 24, np.random.default_rng(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.13e6


class TestDistinctSets:
    """Trials that draw one user set, in any order, share its bits."""

    def test_permuted_users_give_identical_bits(self):
        pool = random_channel(np.random.default_rng(30), n=3, m=12, k=4)
        # every trial draws all three users, in one of six orders
        capacity, demmel = multiuser_trials(pool, 3, 20, np.random.default_rng(3))
        assert np.all(capacity == capacity[0]) and np.all(demmel == demmel[0])

    @pytest.mark.parametrize("case", ["random", "ill-conditioned", "rank-deficient"])
    def test_draws_of_one_set_share_their_bits(self, case):
        rng = np.random.default_rng(31)
        pool = random_channel(rng, n=5, m=12, k=3)
        if case == "ill-conditioned":
            pool[3] = pool[0] + 1e-6 * pool[2]
        elif case == "rank-deficient":
            pool[4] = pool[1]
        replay = np.random.default_rng(4)
        draws = [tuple(replay.choice(5, size=3, replace=False)) for _ in range(60)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # trials never warn
            capacity, demmel = multiuser_trials(pool, 3, 60, np.random.default_rng(4))
        first, orders = {}, {}
        for t, draw in enumerate(draws):
            key = tuple(sorted(draw))
            t0 = first.setdefault(key, t)
            orders.setdefault(key, set()).add(draw)
            assert capacity[t] == capacity[t0] and demmel[t] == demmel[t0]
        assert max(len(o) for o in orders.values()) > 1
        if case == "rank-deficient":
            assert np.any(np.isinf(demmel)) and np.any(np.isfinite(demmel))


class TestStreamGram:
    def test_chunked_sum_matches_one_chunk(self, monkeypatch):
        pool = random_channel(np.random.default_rng(40), n=5, m=37, k=6)
        whole = metrics._gram(pool).gram
        # 4 element rows per chunk and 2 frequencies per block
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 8 * 5 * 6 * 4)
        monkeypatch.setattr(metrics, "_CACHE_BYTES", 16 * 5 * 4 * 2)
        rows = []
        chunked = stream_gram(
            lambda users, lo, hi: rows.append(hi - lo) or pool[users, lo:hi], pool.shape
        ).gram
        assert rows == [4] * 9 + [1]
        assert_allclose(chunked, whole, rtol=0, atol=1e-14 * np.abs(whole).max())

    def test_reads_all_users_once_then_only_ill_conditioned_sets(self):
        rng = np.random.default_rng(25)
        pool = random_channel(rng, n=5, m=32, k=3)
        pool[3] = pool[0] + 1e-4 * random_channel(rng, n=1, m=32, k=3)[0]
        reads = []

        def read(users, lo, hi):
            reads.append((users.tolist(), lo, hi))
            return pool[users, lo:hi]

        gram = stream_gram(read, pool.shape)
        assert reads == [([0, 1, 2, 3, 4], 0, 32)]
        del reads[:]
        capacity, demmel = multiuser_trials(gram, 2, 30, np.random.default_rng(2))
        assert reads == [([0, 3], 0, 32)]  # the SVD fallback's one set
        want = multiuser_trials(pool, 2, 30, np.random.default_rng(2))
        assert np.array_equal(capacity, want[0]) and np.array_equal(demmel, want[1])

    def test_svd_fallback_upcasts_a_block_of_frequencies_at_a_time(self, monkeypatch):
        rng = np.random.default_rng(41)
        pool = random_channel(rng, n=3, m=32, k=512).astype(np.complex64)
        pool[2] = pool[0] + np.complex64(1e-4) * pool[1]  # {0, 2} is ill-conditioned
        gram = metrics._gram(pool)
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 16 * 2 * 32 * 16)  # 16 frequencies
        calls = count_svd_calls(monkeypatch)
        tracemalloc.start()
        try:
            _, demmel = multiuser_trials(gram, 2, 20, np.random.default_rng(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [(16, 2, 32)] * 32
        # the set's complex64 rows and one block, not its complex128 upcast
        assert peak < 2 * 32 * 512 * 16
        _, want = svd_trials(pool.astype(complex), 2, 20, 5)
        assert_allclose(demmel, want, rtol=1e-12)


class TestAmplitudeMetrics:
    def test_path_gain_db_oracle(self):
        amp = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert_allclose(
            path_gain_db(amp), 10 * np.log10([5.0, 25.0]), rtol=1e-12
        )

    def test_rician_k_oracle(self):
        # strongest power 1, remainder 0.25 -> K = 4 -> 6.02 dB
        out = rician_k_db(np.array([1.0, 0.5]))
        assert_allclose(out, 10 * np.log10(4.0), rtol=1e-12)
        # L equal paths -> K = 1/(L-1)
        out = rician_k_db(np.ones((3, 4)))
        assert_allclose(out, 10 * np.log10(1.0 / 3.0), rtol=1e-12)

    def test_rician_k_single_path_warns_inf(self):
        with pytest.warns(UserWarning):
            out = rician_k_db(np.array([[0.7]]))
        assert np.all(np.isinf(out))

    def test_rician_k_validation(self):
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                rician_k_db(np.array([bad, 1.0]))

    def test_rician_k_zero_power_element_is_nan(self):
        # a shadowed element (every path's AAF 0) next to a regular one
        amp = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = rician_k_db(amp)
        assert np.isnan(out[0])
        assert_allclose(out[1], 10 * np.log10(4.0), rtol=1e-12)
        assert [str(w.message) for w in caught] == [
            "zero-power elements give nan K-factor"
        ]


class TestRmsDelaySpread:
    def test_two_equal_rays(self):
        out = rms_delay_spread(np.array([1.0, 1.0]), np.array([0.0, 10e-9]))
        assert out == 5e-9

    def test_three_equal_rays(self):
        out = rms_delay_spread(
            np.array([1.0, 1.0, 1.0]), np.array([0.0, 1e-9, 2e-9])
        )
        assert_allclose(out, np.sqrt(2.0 / 3.0) * 1e-9, rtol=1e-12)

    def test_translation_invariance(self):
        p = np.array([0.5, 1.0, 0.2])
        d = np.array([1e-9, 4e-9, 9e-9])
        assert_allclose(
            rms_delay_spread(p, d), rms_delay_spread(p, d + 7e-9), rtol=1e-12
        )

    def test_dynamic_range_cut(self):
        # second ray 50 dB below the peak: excluded at the default 40 dB
        p = np.array([1.0, 1e-5])
        d = np.array([0.0, 10e-9])
        assert rms_delay_spread(p, d) == 0.0
        # inside a wider window it contributes again
        assert rms_delay_spread(p, d, dynamic_range_db=60.0) > 0.0

    def test_batched_rows(self):
        p = np.array([[1.0, 1.0], [1.0, 0.0]])
        d = np.array([0.0, 10e-9])
        out = rms_delay_spread(p, d)
        assert_allclose(out, [5e-9, 0.0])

    def test_validation(self):
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                rms_delay_spread(np.array([1.0, bad]), np.array([0.0, 1e-9]))
        with pytest.raises(ValueError):
            rms_delay_spread(np.array([1.0, 1.0]), np.array([0.0, 1e-9]),
                             dynamic_range_db=0.0)


    def test_zero_power_element_is_nan(self):
        p = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        d = np.array([0.0, 10e-9])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = rms_delay_spread(p, d)
        assert np.isnan(out[0]) and np.isnan(out[2])
        assert out[1] == 5e-9
        assert [str(w.message) for w in caught] == [
            "zero-power elements give nan delay spread"
        ]


def path_order_sum(products):
    """Each row of the (n, L) products summed one path after the other."""
    num = products[:, 0]
    for path in range(1, products.shape[1]):
        num = num + products[:, path]
    return num


def row_sum(products):
    """Each row of the products summed by numpy: left to right below 8
    paths, pairwise from 8 up."""
    return np.sum(products, axis=1)


def per_lag_correlation(matrix, delta, sum_paths=path_order_sum):
    """The per-lag body ``avg_spatial_correlation`` replaced: each lag
    centres its own row slices and sums each pair's products with
    ``sum_paths``; ``nan`` where that body raised."""
    x = matrix[: matrix.shape[0] - delta]
    y = matrix[delta:]
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    den = np.sqrt(np.sum(xc**2, axis=1) * np.sum(yc**2, axis=1))
    valid = den > 0.0
    if np.any(~valid):
        warnings.warn(
            f"skipping {int(np.sum(~valid))} constant-row pairs in "
            f"spatial correlation"
        )
    if not np.any(valid):
        return float("nan")
    num = sum_paths(xc * yc)
    return float(np.mean(num[valid] / den[valid]))


@st.composite
def correlation_inputs(draw):
    """Amplitude matrices with planted constant rows, some all constant,
    scaled by 1e-100 to 1e6, lags that always include 0 and M - 1, and
    whether to pass the matrix in Fortran order."""
    m = draw(st.integers(2, 300))
    num_paths = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # below about 1e-80 the products of two rows' sums of squares underflow
    scale = 10.0 ** draw(st.integers(-100, 6))
    matrix = rng.uniform(0.0, 1.0, (m, num_paths)) * scale
    if draw(st.booleans()):
        matrix[:] = draw(st.sampled_from([0.0, 1.0, 0.3]))
    else:
        rows = draw(st.lists(st.integers(0, m - 1), max_size=8))
        matrix[rows] = rng.uniform(0.0, 1.0, (len(rows), 1)) * scale
    lags = draw(st.lists(st.integers(0, m - 1), max_size=20)) + [0, m - 1]
    lags = np.array(draw(st.permutations(lags)), dtype=np.int64)
    return matrix, lags, draw(st.booleans())


class TestSpatialCorrelation:
    @settings(max_examples=150, deadline=None)
    @given(correlation_inputs())
    def test_curve_matches_per_lag_reference(self, inputs):
        matrix, lags, fortran = inputs
        with warnings.catch_warnings(record=True) as want_warnings:
            warnings.simplefilter("always")
            want = np.array([per_lag_correlation(matrix, lag) for lag in lags])
        with warnings.catch_warnings(record=True) as got_warnings:
            warnings.simplefilter("always")
            got = avg_spatial_correlation(
                np.asfortranarray(matrix) if fortran else matrix, lags
            )
        assert np.array_equal(got, want, equal_nan=True)
        assert [str(w.message) for w in got_warnings] == [
            str(w.message) for w in want_warnings
        ]

    @pytest.mark.parametrize("num_paths", range(2, 25))
    def test_path_order_against_the_row_sum(self, num_paths):
        # the numerator numpy's row sum gave: the same bits below 8 paths;
        # from 8 up a different summation order, |num| <= den bounds the
        # change of each ratio, and so of their mean, by about L * eps
        rng = np.random.default_rng(num_paths)
        scales = 10.0 ** rng.integers(-12, 7, (300, 1))
        matrix = rng.uniform(0.0, 1.0, (300, num_paths)) * scales
        lags = np.arange(300)
        got = avg_spatial_correlation(matrix, lags)
        want = np.array([per_lag_correlation(matrix, lag, row_sum) for lag in lags])
        if num_paths < 8:
            assert np.array_equal(got, want)
        else:
            eps = np.finfo(float).eps
            assert np.max(np.abs(got - want)) <= num_paths * eps

    def test_peak_allocation_is_order_m_times_l(self):
        # a few (M, L) and (M,) arrays; a table over all 100 lags would
        # take 2048 * 100 * 8 bytes, 33 times the matrix
        matrix = np.random.default_rng(3).uniform(0.0, 1.0, (2048, 3))
        lags = np.arange(1, 101)
        tracemalloc.start()
        try:
            avg_spatial_correlation(matrix, lags)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * matrix.nbytes

    def test_identical_rows_give_one(self):
        m = np.tile([1.0, 2.0, 3.0], (6, 1))
        assert np.all(np.abs(avg_spatial_correlation(m, [1, 5]) - 1.0) < 1e-12)

    def test_delta_zero_is_one(self):
        rng = np.random.default_rng(9)
        m = rng.uniform(0.1, 1.0, (8, 5))
        assert abs(avg_spatial_correlation(m, [0])[0] - 1.0) < 1e-12

    def test_anticorrelated_rows(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 2.0], [2.0, 1.0]])
        assert abs(avg_spatial_correlation(m, [1])[0] + 1.0) < 1e-12

    def test_constant_rows_skipped_with_warning(self):
        # at lag 1 the constant middle row spoils pairs (0,1) and (1,2);
        # only (2,3) survives, with correlation -1
        m = np.array([[1.0, 2.0], [3.0, 3.0], [1.0, 2.0], [2.0, 1.0]])
        with pytest.warns(UserWarning, match="skipping 2 constant-row pairs"):
            out = avg_spatial_correlation(m, [1])
        assert abs(out[0] + 1.0) < 1e-12

    def test_all_constant_rows_give_nan(self):
        m = np.ones((4, 3))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = avg_spatial_correlation(m, [0, 1, 3])
        assert out.shape == (3,) and np.all(np.isnan(out))
        assert [str(w.message) for w in caught] == [
            f"skipping {n} constant-row pairs in spatial correlation"
            for n in (4, 3, 1)
        ]

    def test_validation(self):
        m = np.random.default_rng(0).uniform(size=(4, 3))
        with pytest.raises(ValueError):
            avg_spatial_correlation(m, [4])
        with pytest.raises(ValueError):
            avg_spatial_correlation(m, [-1])
        with pytest.raises(ValueError):
            avg_spatial_correlation(m, [1.0])
        with pytest.raises(ValueError):
            avg_spatial_correlation(m, [[1]])
        with pytest.raises(ValueError):
            avg_spatial_correlation(m[:, :1], [1])


def assert_matches_per_lag_reference(matrix, lags):
    """The curve and the warnings of ``per_lag_correlation``, bit for bit."""
    with warnings.catch_warnings(record=True) as want_warnings:
        warnings.simplefilter("always")
        want = np.array([per_lag_correlation(matrix, lag) for lag in lags])
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        got = avg_spatial_correlation(matrix, lags)
    assert np.array_equal(got, want, equal_nan=True)
    assert [str(w.message) for w in got_warnings] == [
        str(w.message) for w in want_warnings
    ]
    return got, [str(w.message) for w in got_warnings]


class TestCorrelationRoutes:
    """A matrix whose smallest sum of squares has a positive square takes
    the lag loop without masks; any other keeps the mask, the count and the
    warnings.  Both give the per-lag reference's bits."""

    @pytest.mark.parametrize("num_paths", range(2, 25))
    def test_no_constant_row(self, num_paths):
        rng = np.random.default_rng(100 + num_paths)
        scales = 10.0 ** rng.integers(-12, 7, (200, 1))
        matrix = rng.uniform(0.0, 1.0, (200, num_paths)) * scales
        _, caught = assert_matches_per_lag_reference(matrix, np.arange(200))
        assert caught == []

    @pytest.mark.parametrize("num_paths", [2, 7, 8, 24])
    def test_sums_of_squares_whose_products_underflow(self, num_paths):
        # every sum of squares is positive, but a pair of rows scaled below
        # about 1e-80 has a product of 0, and so a constant-row warning
        rng = np.random.default_rng(200 + num_paths)
        scales = 10.0 ** rng.integers(-100, 7, (200, 1))
        matrix = rng.uniform(0.0, 1.0, (200, num_paths)) * scales
        assert np.all(np.sum((matrix - matrix.mean(axis=1, keepdims=True)) ** 2, 1) > 0)
        curve, caught = assert_matches_per_lag_reference(matrix, np.arange(200))
        assert caught and np.all(np.isfinite(curve[:150]))

    def test_no_rows_and_no_lags(self):
        assert avg_spatial_correlation(np.empty((0, 3)), np.array([], int)).size == 0

    def test_all_products_underflow(self):
        matrix = np.random.default_rng(300).uniform(0.0, 1.0, (50, 4)) * 1e-100
        curve, caught = assert_matches_per_lag_reference(matrix, np.arange(50))
        assert np.all(np.isnan(curve)) and len(caught) == 50


class TestCvmDistance:
    def test_identical_samples_give_zero(self):
        a = np.array([0.3, 1.7, -2.0, 5.0])
        assert cvm_distance(a, a.copy()) == 0.0

    def test_disjoint_support_oracle(self):
        # hand evaluation: sum of squared ECDF gaps over the pooled sample
        a = np.arange(100.0)
        b = np.arange(1000.0, 1100.0)
        want = 0.25 * (
            np.sum((np.arange(1, 101) / 100.0) ** 2)
            + np.sum((np.arange(0, 100) / 100.0) ** 2)
        )
        assert_allclose(cvm_distance(a, b), want, rtol=1e-12)
        assert_allclose(cvm_distance(a, b), 16.6675, rtol=1e-12)

    def test_brute_force_double_loop(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n, m = int(rng.integers(3, 30)), int(rng.integers(3, 30))
            a = rng.standard_normal(n)
            b = rng.standard_normal(m)
            pooled = np.concatenate([a, b])
            total = 0.0
            for x in pooled:
                fa = np.sum(a <= x) / n
                fb = np.sum(b <= x) / m
                total += (fa - fb) ** 2
            want = n * m / (n + m) ** 2 * total
            assert_allclose(cvm_distance(a, b), want, rtol=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(11)
        for n, m in ((50, 80), (100, 100), (37, 211)):
            a = rng.standard_normal(n)
            b = rng.standard_normal(m) + 0.3
            sp = scipy.stats.cramervonmises_2samp(a, b).statistic
            assert_allclose(cvm_distance(a, b), sp, rtol=1e-10)

    def test_same_distribution_per_sample_gap_vanishes(self):
        n = 10000
        a = np.random.default_rng(1).standard_normal(n)
        b = np.random.default_rng(2).standard_normal(n)
        t = cvm_distance(a, b)
        gap = t * (n + n) / (n * n)
        assert gap < 0.05

    def test_symmetry(self):
        a = np.array([1.0, 2.0, 5.0])
        b = np.array([0.5, 3.0])
        assert_allclose(cvm_distance(a, b), cvm_distance(b, a), rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            cvm_distance([], [1.0])
        with pytest.raises(ValueError):
            cvm_distance([1.0], [np.inf])

