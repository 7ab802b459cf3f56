"""Validation metrics for synthesized channels.

Covers link-level summaries (entropy capacity without water-filling, Demmel
condition number, per-element path gain, Rician K-factor, RMS delay spread),
the inter-element spatial correlation of path amplitudes, and a two-sample
Cramer-von Mises distance for comparing metric distributions.

Capacity and Demmel depend on a channel only through the spectra of its
per-frequency Gram matrices ``H H^H`` (users x users).  :func:`stream_gram`
reduces a user pool to its (K, P, P) Gram tensor a chunk of element rows of
all users at a time, so the pool itself is never held: ``evaluate`` feeds it
from ``channel.bin``, and :func:`_gram` from an in-memory array; its real
diagonal shows whether every value was finite.  One route,
``_subset_metrics``, reduces each user subset's blocks of that tensor to
real tridiagonals and takes both metrics from their pivots, with no
eigensolver; :func:`multiuser_trials` runs it once per distinct user set,
and :func:`entropy_capacity` and :func:`demmel_condition` wrap it.  A
subset whose eigenvalue ratio ``lambda_min / lambda_max`` drops below
``_GRAM_MIN_RATIO`` (1e-3) at some frequency takes its Demmel value from
the SVD of H instead, which also decides rank deficiency (``inf``); only
that subset's users are read again for it.

:func:`avg_spatial_correlation` centres the (M, L) amplitude matrix once and
sums each lag's numerator path by path: L multiply-adds of contiguous (M,)
path rows, in path order, into one reused buffer.  A lag costs L vector
operations, and a mask of its pairs only when one can be invalid; the
working set stays O(M L) however many lags are asked for.
"""

from __future__ import annotations

import warnings
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericError


#: Smallest per-frequency eigenvalue ratio ``lambda_min / lambda_max`` at
#: which a subset's Demmel value is taken from its Gram eigenvalues.
#: Forming ``H H^H`` and reducing it perturb ``lambda_min`` by about
#: ``c * eps * lambda_max``, a relative error of ``c * eps / ratio``;
#: Demmel goes as ``lambda_min**-0.5``, so its error is half of that.  The
#: bound has ``c ~ N``: at 1e-3 that is 8.9e-13 for N = 4.  Measured on
#: random, nearly collinear and prescribed-spectrum pools (N <= 16), ``c``
#: stays below 3, i.e. under 3.4e-13.  Subsets below the ratio, which
#: include every rank-deficient one and every N > M, take the SVD route.
_GRAM_MIN_RATIO = 1e-3

#: Byte budget of one complex64 chunk of element rows of all users, of one
#: block of Gram lower triangles with its reduction's work arrays, or of one
#: complex128 frequency block of the SVD fallback.
_BLOCK_BYTES = 4 * 2**20

#: Byte budget of the complex128 copy of one frequency block of a chunk:
#: small enough to stay in cache while its ``a a^H`` is formed.
_CACHE_BYTES = 2**18


class PoolGram(NamedTuple):
    """A pool of P users' (M, K) responses as the trial metrics read it.

    ``gram`` is the (K, P, P) complex128 tensor of per-frequency Gram
    matrices ``H H^H``, summed over the M elements; ``shape`` is (P, M, K);
    ``read(users, lo, hi)`` returns element rows lo..hi-1 of the given
    users, shape (len(users), hi - lo, K), complex64 or complex128.
    """

    gram: np.ndarray
    shape: tuple
    read: Callable


@np.errstate(invalid="ignore")  # a non-finite value raises ValueError instead
def stream_gram(read, shape) -> PoolGram:
    """Reduce a pool to its Gram tensor, one chunk of element rows at a time.

    ``read(users, lo, hi)`` gives element rows lo..hi-1 of the given users
    of a pool of ``shape`` (P, M, K).  Every chunk holds all P users and as
    many rows as fit ``_BLOCK_BYTES`` in complex64 (at least one).  Its
    ``a a^H`` is added into the complex128 Gram a block of frequencies at a
    time, each block's complex128 copy within ``_CACHE_BYTES``.  Besides the
    Gram, one chunk and one block's copies are held; the pool never is.
    Every value must be finite (``ValueError`` otherwise): a finite complex64
    value squares to at most about 1.2e77, so the Gram's real diagonal, the
    sums of ``|h|**2``, is finite exactly when each value is.
    """
    p, m, k = (int(n) for n in shape)
    gram = np.zeros((k, p, p), dtype=complex)
    rows = max(1, _BLOCK_BYTES // (8 * max(1, p * k)))
    step = max(1, _CACHE_BYTES // (16 * max(1, p * min(rows, m))))
    users = np.arange(p)
    for lo in range(0, m, rows):
        chunk = read(users, lo, min(lo + rows, m))
        for k0 in range(0, k, step):
            a = np.ascontiguousarray(
                chunk[:, :, k0 : k0 + step].transpose(2, 0, 1), dtype=complex
            )
            gram[k0 : k0 + step] += a @ a.conj().swapaxes(-1, -2)
        del chunk  # before the next chunk is read
    if not np.all(np.isfinite(np.diagonal(gram, axis1=1, axis2=2).real)):
        raise ValueError("values must be finite")
    return PoolGram(gram, (p, m, k), read)


def _gram(pool) -> PoolGram:
    """:func:`stream_gram` of an in-memory (P, M, K) pool."""
    pool = np.asarray(pool)
    if pool.ndim != 3:
        raise ValueError(
            f"values must have shape (users, elements, frequencies), "
            f"got {pool.shape}"
        )
    return stream_gram(lambda users, lo, hi: pool[users, lo:hi], pool.shape)


def _tridiagonal(tri, n: int):
    """Diagonal (n, ...) and |subdiagonal| (n-1, ...) of Hermitian blocks,
    reduced by Householder reflections in the lower triangles ``tri`` (held
    column by column, batch-last, and overwritten): reflection k maps the
    block S below column k to ``S - v w^H - w v^H``, ``p = tau S v``,
    ``w = p - (tau/2)(v^H p) v``."""
    start = [j * n - j * (j - 1) // 2 for j in range(n + 1)]
    e = np.empty((n - 1,) + tri.shape[1:])
    for k in range(n - 2):
        v = tri[start[k] + 1 : start[k + 1]]  # x, then v in place
        e[k] = alpha = np.linalg.norm(v, axis=0)
        x0 = np.abs(v[0])
        tau = 1.0 / np.where(alpha > 0.0, alpha * (alpha + x0), np.inf)
        v[0] += alpha * np.where(x0 > 0.0, v[0] / x0, 1.0)
        columns = [tri[start[j] : start[j + 1]] for j in range(k + 1, n)]
        p = np.zeros_like(v)
        for j, column in enumerate(columns):  # S v from S's lower triangle
            p[j:] += column * v[j]
            p[j] += np.sum(column[1:].conj() * v[j + 1 :], axis=0)
        p *= tau
        p -= (0.5 * tau * np.sum((v.conj() * p).real, axis=0)) * v  # w
        for j, column in enumerate(columns):
            column -= v[j:] * p[j].conj()
            column -= p[j:] * v[j].conj()
    if n > 1:
        e[-1] = np.abs(tri[start[n - 2] + 1])
    return tri.real[start[:-1]], e


def _sturm(d, e2, x):
    """Lowest pivot q of ``T - xI = L diag(q) L^T`` and a bracket of the gap.

    T has diagonal ``d`` (n, ...) and squared subdiagonal ``e2``.  With
    ``s1 = sum_j 1/(lambda_j - x) = -sum q'/q``, ``s2 = d s1 / dx`` and all
    pivots positive, ``lambda_1 - x`` is at least Laguerre's step
    ``n / (s1 + sqrt((n-1)(n s2 - s1**2)))`` and at most ``s1 / s2``."""
    n = len(d)
    lowest, inverse = np.inf, 0.0
    r = u = s1 = s2 = 0.0
    for i in range(n):
        t = e2[i - 1] * inverse if i else 0.0
        q = d[i] - x - t
        inverse = 1.0 / q
        u = t * (u - 2.0 * r * r) * inverse
        r = (t * r - 1.0) * inverse
        s1, s2 = s1 - r, s2 + (r * r - u)
        lowest = np.minimum(lowest, q)
    root = np.sqrt(np.maximum((n - 1) * (n * s2 - s1 * s1), 0.0))
    return lowest, n / (s1 + root), s1 / s2


def _smallest_eigenvalue(d, e2, x):
    """Smallest eigenvalue of tridiagonals (``d``, ``e2``) from ``x`` below it.

    Laguerre steps, exact at an n-fold root, run until :func:`_sturm`'s
    bracket is within 4 eps or a pivot turns non-positive (a step past the
    root by rounding).  They are linear at a root of lower multiplicity:
    blocks still open after 10 steps bisect their bracket by pivot sign."""
    tol = 4.0 * np.finfo(float).eps
    moving = np.ones(x.shape, dtype=bool)
    for _ in range(10):
        lowest, step, bound = _sturm(d, e2, x)
        moving &= lowest > 0.0
        hi = x + bound
        x = np.where(moving, x + step, x)
        moving &= bound - step > tol * np.abs(hi)
        if not moving.any():
            return x
    lo, hi, d, e2 = x[moving], hi[moving], d[:, moving], e2[:, moving]
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = _sturm(d, e2, mid)[0] > 0.0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    x[moving] = lo
    return x


def _block_metrics(gram, sets, gain):
    """Mean capacity, mean Demmel and least eigenvalue ratio of user sets.

    ``sets`` (T, n) index the (K, P, P) ``gram``; ``gain`` (T,) is
    ``snr / (M eta)``.  Each block, scaled by the power of two that puts its
    trace in [0.5, 1), becomes a tridiagonal T: capacity sums the log2 of
    the LDL^T pivots of ``I + gain T``, Demmel is ``sqrt(trace/lambda_min)``.
    Gershgorin bounds start both eigenvalue searches; the upper one serves
    as ``lambda_max`` where it already gives a ratio >= ``_GRAM_MIN_RATIO``."""
    n = sets.shape[1]
    cols, rows = np.triu_indices(n)  # (row, column) of the lower triangle
    tri = gram.transpose(1, 2, 0)[sets[:, rows].T, sets[:, cols].T]
    trace, exponent = np.frexp(tri.real[rows == cols].sum(axis=0))
    tri *= np.ldexp(1.0, -exponent)
    d, e = _tridiagonal(tri, n)
    del tri
    c, e2 = np.ldexp(gain[:, None], exponent), e * e
    pivot = 1.0 + c * d[0]
    capacity = np.log2(pivot)
    for i in range(1, n):
        pivot = 1.0 + c * (d[i] - c * e2[i - 1] / pivot)
        capacity += np.log2(pivot)
    reach = 2.0 * np.max(e, axis=0, initial=0.0)  # bounds each Gershgorin radius
    lam_min = _smallest_eigenvalue(d, e2, np.maximum(np.min(d, axis=0) - reach, 0.0))
    upper = np.max(d, axis=0) + reach
    ratio = lam_min / upper
    open_ = ~(ratio >= _GRAM_MIN_RATIO)
    ratio[open_] = lam_min[open_] / -_smallest_eigenvalue(
        -d[:, open_], e2[:, open_], -upper[open_]
    )
    demmel = np.sqrt(trace / lam_min)
    return np.mean(capacity, axis=1), np.mean(demmel, axis=1), np.min(ratio, axis=1)


def _subset_metrics(pool: PoolGram, subsets: np.ndarray, snr_db: float):
    """Capacity and Demmel of each user subset of a pool.

    ``subsets`` is an int array (T, N) of pool users.  Both metrics come
    from the subset's block of the pool's Gram tensor (:func:`_block_metrics`).
    A subset whose smallest ``lambda_min / lambda_max`` over frequency is
    below ``_GRAM_MIN_RATIO`` takes its Demmel value from the singular
    values of its (N, M) matrices instead, ``inf`` when one is rank
    deficient: its users are read with ``pool.read`` and upcast to
    complex128 a block of frequencies at a time, within ``_BLOCK_BYTES``.
    Capacity is ``nan`` for an all-zero subset.  Returns two arrays (T,).
    """
    _, m, k = pool.shape
    n = subsets.shape[1]
    try:
        snr = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db {snr_db} overflows the linear SNR") from None
    gram = pool.gram
    power = np.einsum("kpp->p", gram).real
    eta = power[subsets].sum(axis=1) / (n * m * k)
    capacity = np.empty(len(subsets))
    demmel = np.empty(len(subsets))
    ill = []
    # a block's triangles take half of _BLOCK_BYTES, its work arrays the rest
    step = max(1, _BLOCK_BYTES // (16 * k * n * (n + 1)))
    with np.errstate(all="ignore"):
        for t0 in range(0, len(subsets), step):
            capacity[t0 : t0 + step], demmel[t0 : t0 + step], ratio = _block_metrics(
                gram, subsets[t0 : t0 + step], snr / (m * eta[t0 : t0 + step])
            )
            # a nan ratio (an all-zero matrix) also takes the SVD route
            ill.extend(t0 + np.flatnonzero(~(ratio >= _GRAM_MIN_RATIO)))
    block = max(1, _BLOCK_BYTES // (16 * n * m))
    for t in ill:
        users = pool.read(subsets[t], 0, m)
        sigma = np.concatenate(
            [
                np.linalg.svd(
                    np.moveaxis(users[:, :, k0 : k0 + block], 2, 0).astype(complex),
                    compute_uv=False,
                )
                for k0 in range(0, k, block)
            ]
        )
        # numerically rank deficient at some frequency
        if np.any(sigma[:, -1] <= sigma[:, 0] * max(n, m) * np.finfo(float).eps):
            demmel[t] = float("inf")
        else:
            lam = sigma[:, ::-1] ** 2
            demmel[t] = np.mean(np.sqrt(np.sum(lam, axis=1) / lam[:, 0]))
    return capacity, demmel


def _all_users(values):
    """The in-memory pool of ``values`` and its one subset of all users."""
    pool = _gram(values)
    return pool, np.arange(pool.shape[0])[None]


def entropy_capacity(values, snr_db: float = 15.0) -> float:
    """Frequency-averaged open-loop MIMO capacity in bits/s/Hz.

    Equal power over the M transmit elements, channel normalized by the
    mean entry power:

    ``mean_k sum_i log2(1 + snr * lambda_ik / (M * eta))``

    with ``eta = mean(|H|**2)`` over all entries and ``lambda_ik`` the
    eigenvalues of the (users x users) Gram matrix ``H H^H`` at frequency
    k, summed as the log2 of the LDL^T pivots of a tridiagonal similar to
    ``I + snr H H^H / (M eta)``.  No SVD fallback is needed: a backward
    error of ``eps * lambda_max`` moves each term by at most about
    ``N * snr * eps``, however ill-conditioned H is.

    Parameters
    ----------
    values : ndarray, shape (N, M, K)
    snr_db : float
        Signal-to-noise ratio in dB.
    """
    capacity, _ = _subset_metrics(*_all_users(values), snr_db)
    if np.isnan(capacity[0]):
        raise NumericError("all-zero channel has no capacity normalization")
    return float(capacity[0])


def demmel_condition(values) -> float:
    """Frequency-averaged Demmel condition number (linear).

    ``mean_k ||H(f_k)||_F / sigma_min(f_k)``, computed as
    ``sqrt(trace G_k / lambda_min,k)``, ``G_k = H H^H``, with ``lambda_min``
    from Laguerre steps on a tridiagonal.  When ``lambda_min / lambda_max``
    drops below ``_GRAM_MIN_RATIO`` (1e-3) at some frequency, the Gram route
    would lose more than 1e-12 relative accuracy, and the singular values of
    H are used instead.  Frequencies whose matrix is then numerically rank
    deficient (``sigma_min <= sigma_max * max(N, M) * eps``) make the
    average infinite; that is returned as ``inf`` with a warning.
    """
    _, demmel = _subset_metrics(*_all_users(values), 0.0)
    if demmel[0] == np.inf:
        warnings.warn("rank-deficient channel matrix: infinite condition number")
    return float(demmel[0])


def multiuser_trials(
    pool,
    num_ues: int,
    num_trials: int,
    rng: np.random.Generator,
    snr_db: float = 15.0,
):
    """Capacity and Demmel samples over random user subsets.

    Each trial draws ``num_ues`` users uniformly without replacement from
    the pool of per-user channels (all subsets are drawn first, in trial
    order) and evaluates both metrics on the stacked matrix.  Both metrics
    depend only on the set of users drawn, so each distinct set is
    evaluated once, with its users in ascending order, and every trial that
    drew it gets the same bits.  Each set's (N, N) blocks of the pool's
    Gram tensor are reduced to tridiagonals, batched across sets.  Sets whose
    ``lambda_min / lambda_max`` falls below ``_GRAM_MIN_RATIO`` (1e-3) take
    their Demmel value from an SVD, as :func:`demmel_condition` does.

    Parameters
    ----------
    pool : ndarray, shape (P, M, K), or PoolGram
        Per-user channel responses, all finite; complex64 or complex128.
        A :class:`PoolGram` (from :func:`stream_gram`) is used as it is.
    num_ues : int
        Users per trial, 1 <= num_ues <= P.
    num_trials : int
    rng : numpy.random.Generator

    Returns
    -------
    (capacity, demmel) : tuple of ndarray, each shape (num_trials,)
    """
    if not isinstance(pool, PoolGram):
        pool = _gram(pool)
    num_users = pool.shape[0]
    num_ues = int(num_ues)
    num_trials = int(num_trials)
    if not 1 <= num_ues <= num_users:
        raise ValueError(f"num_ues must be in [1, {num_users}], got {num_ues}")
    if num_trials < 1:
        raise ValueError(f"num_trials must be >= 1, got {num_trials}")
    draws = np.array(
        [
            rng.choice(num_users, size=num_ues, replace=False)
            for _ in range(num_trials)
        ]
    )
    sets, inverse = np.unique(np.sort(draws, axis=1), axis=0, return_inverse=True)
    capacity, demmel = _subset_metrics(pool, sets, snr_db)
    if np.any(np.isnan(capacity)):
        raise NumericError("all-zero channel in trial subset")
    inverse = inverse.reshape(-1)
    return capacity[inverse], demmel[inverse]


def avg_spatial_correlation(matrix, lags) -> np.ndarray:
    """Mean Pearson correlation between element rows at each lag.

    Rows of ``matrix`` (shape (M, L)) are per-element path amplitude
    vectors; for each lag the correlation is computed across the L paths
    for every pair (i, i + lag) and averaged.  Each row is centred and its
    sum of squares taken once.  The centred matrix is then held path-major,
    and a lag's numerator ``sum_l xc[i, l] * xc[i + lag, l]`` is summed in
    path order: L vector multiply-adds of contiguous (M,) rows into one
    reused buffer.  The floats are those of centring each lag's row slices
    of the C-ordered matrix on their own and adding each pair's products
    path by path, whatever the input's memory layout.  Below 8 paths that
    is also the bits of numpy's row sum; from 8 up the row sum is pairwise
    and differs by about ``L * eps``.  A pair whose product of sums of
    squares is 0 (a zero-variance row, or underflow) is skipped with a
    warning per lag, and a lag with no valid pair gives ``nan``; no lag is
    masked when the smallest sum of squares has a positive square.

    Parameters
    ----------
    matrix : array_like, shape (M, L), L >= 2
    lags : array_like of int
        Each in [0, M).

    Returns
    -------
    ndarray, shape (len(lags),)
    """
    # C order fixes the summation order of the mean and sum of squares
    matrix = np.ascontiguousarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] < 2:
        raise ValueError(
            f"matrix must be (M, L) with L >= 2, got {matrix.shape}"
        )
    num_rows = matrix.shape[0]
    lags = np.asarray(lags)
    if lags.ndim != 1 or lags.dtype.kind not in "iu":
        raise ValueError(f"lags must be a 1-D integer array, got {lags!r}")
    if np.any((lags < 0) | (lags >= num_rows)):
        raise ValueError(f"lags must be in [0, {num_rows}), got {lags}")
    xc = matrix - matrix.mean(axis=1, keepdims=True)
    ss = np.sum(xc**2, axis=1)
    all_valid = np.square(ss.min(initial=np.inf)) > 0.0
    # path-major: each path's centred amplitudes are one contiguous row
    paths = np.ascontiguousarray(xc.T)
    scratch = np.empty(num_rows)
    curve = np.empty(lags.size)
    for i, lag in enumerate(lags.tolist()):
        n = num_rows - lag
        den = np.sqrt(ss[:n] * ss[lag:])
        if not all_valid:
            valid = den > 0.0
            skipped = n - int(np.count_nonzero(valid))
            if skipped:
                warnings.warn(
                    f"skipping {skipped} constant-row pairs in spatial correlation"
                )
            if skipped == n:
                curve[i] = np.nan
                continue
        num = np.multiply(paths[0, :n], paths[0, lag:], out=scratch[:n])
        for row in paths[1:]:
            num += row[:n] * row[lag:]
        if not all_valid:
            num, den = num[valid], den[valid]
        # the sum and division of np.mean, the ratios made in place
        curve[i] = np.add.reduce(np.divide(num, den, out=num)) / num.size
    return curve


def path_gain_db(amplitudes) -> np.ndarray:
    """Per-element total path power in dB, summed over the last axis."""
    amplitudes = np.asarray(amplitudes, dtype=float)
    power = np.sum(amplitudes**2, axis=-1)
    if np.any(power == 0.0):
        warnings.warn("zero-power entries give -inf gain")
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(power)


def rician_k_db(amplitudes) -> np.ndarray:
    """Per-element Rician K-factor in dB from path amplitudes (..., L).

    Ratio of the strongest path's power to the summed power of the others.
    A single path (or all-zero remainder) gives ``inf``, and an element
    with zero total power (every path shadowed) gives ``nan``; each case
    warns once.
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    if amplitudes.ndim < 1 or amplitudes.shape[-1] < 1:
        raise ValueError("amplitudes must have at least one path")
    if np.any(amplitudes < 0.0) or not np.all(np.isfinite(amplitudes)):
        raise ValueError("amplitudes must be finite and >= 0")
    power = amplitudes**2
    total = np.sum(power, axis=-1)
    strongest = np.max(power, axis=-1)
    rest = total - strongest
    if np.any(total == 0.0):
        warnings.warn("zero-power elements give nan K-factor")
    if np.any((rest == 0.0) & (total > 0.0)):
        warnings.warn("dominant-path-only elements give infinite K-factor")
    with np.errstate(divide="ignore", invalid="ignore"):
        return 10.0 * np.log10(strongest / rest)


def rms_delay_spread(powers, delays, dynamic_range_db: float = 40.0) -> np.ndarray:
    """Power-weighted RMS delay spread in seconds.

    Paths more than ``dynamic_range_db`` (power dB) below the per-element
    peak are excluded before computing the power-weighted delay standard
    deviation.  An element with zero peak power (every path shadowed) gives
    ``nan`` with one warning.

    Parameters
    ----------
    powers : ndarray, shape (..., L)
        Non-negative path powers.
    delays : ndarray
        Path delays in seconds, broadcastable to ``powers``.
    dynamic_range_db : float
        Inclusion window below the peak, > 0.
    """
    powers = np.asarray(powers, dtype=float)
    delays = np.broadcast_to(np.asarray(delays, dtype=float), powers.shape)
    if np.any(powers < 0.0) or not np.all(np.isfinite(powers)):
        raise ValueError("powers must be finite and >= 0")
    if float(dynamic_range_db) <= 0.0:
        raise ValueError(f"dynamic_range_db must be > 0, got {dynamic_range_db}")
    peak = np.max(powers, axis=-1, keepdims=True)
    if np.any(peak == 0.0):
        warnings.warn("zero-power elements give nan delay spread")
    cut = peak * 10.0 ** (-float(dynamic_range_db) / 10.0)
    kept = np.where(powers >= cut, powers, 0.0)
    norm = np.sum(kept, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = np.sum(kept * delays, axis=-1) / norm
        var = np.sum(kept * (delays - mean[..., None]) ** 2, axis=-1) / norm
    return np.sqrt(var)


def cvm_distance(a, b) -> float:
    """Two-sample Cramer-von Mises statistic.

    ``(n*m/(n+m)**2) * sum((F_a(x) - F_b(x))**2)`` with the sum over the
    pooled sample and F the empirical CDFs.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("samples must be finite")
    pooled = np.concatenate([a, b])
    f_a = np.searchsorted(a, pooled, side="right") / a.size
    f_b = np.searchsorted(b, pooled, side="right") / b.size
    scale = a.size * b.size / (a.size + b.size) ** 2
    return float(scale * np.sum((f_a - f_b) ** 2))

