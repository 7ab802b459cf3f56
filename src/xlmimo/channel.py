"""Wideband channel assembly.

The frequency response at element m is the sum over paths of
``amplitude * gain_m * aaf_m * exp(-j(2*pi*f*tau_m + phase_ref))``: the
reference-element path amplitude, the per-element gain of the wavefront
expansion, the per-element amplitude attenuation factor, and the path's
delay at that element, ``tau_m = delay + excess_length_m / c``.  Each path
is expanded once in :func:`path_table`, whose table gives both the
per-element path parameters and the coefficients and excess lengths that
:func:`assemble` reads.  On the uniform frequency grid each term is a
geometric sequence in frequency, so :func:`assemble` evaluates one exact
complex ``exp`` per element, path and block of b frequencies (b chosen from
the grid size by :func:`_block_length`) and reaches the rest of the block
by one multiply with a per-path table of exact step phasors.  Every step is
elementwise per element, so a row slice of the table gives those rows of
the response.  ``synthesize`` has each user's response written in chunks
of element rows (``_CHUNK_BYTES`` of complex64 each) into one reusable
chunk that is streamed to ``channel.bin``, so neither a (users, elements,
frequencies) pool nor one user's (elements, frequencies) row is held.

:func:`build_variant_aaf` builds a user's (M, L) attenuation-factor matrix
for every variant, drawing each non-stationary path's column on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import sns
from .geometry import SPEED_OF_LIGHT, ArrayGeometry
from .nearfield import AntennaPattern, Stationarity, expand_path
# Kept for the tests' reference route of ``assemble``; perfbench/worker.py
# wraps it by this name.
from .nearfield import build_a_tensor  # noqa: F401

#: Supported synthesis variants: wavefront axis (nf = per-path spherical
#: models, ff = plane waves) crossed with the stationarity axis (sns =
#: generated attenuation factors, ss = none), plus the classical abrupt
#: baseline (vr = plane waves with binary on/off visibility intervals).
VARIANTS = ("nf-sns", "nf-ss", "ff-sns", "ff-ss", "vr")

#: Bounds of the uniform array fraction that a ``vr`` visibility interval
#: covers.
_VR_MIN_FRACTION = 0.3
_VR_MAX_FRACTION = 0.8

#: Most frequencies per block of the wideband kernel in :func:`assemble`.
_MAX_BLOCK = 64

#: Bytes of complex64 output per chunk of element rows that ``synthesize``
#: has :func:`assemble` write (see :func:`_chunk_rows`).
_CHUNK_BYTES = 2**20


def _plane_wave(variant: str) -> bool:
    """Whether ``variant`` expands every path as a plane wave."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return variant.startswith("ff-") or variant == "vr"


@dataclass
class FrequencyGrid:
    """Uniform frequency sampling of the band of interest."""

    f_low_hz: float
    f_high_hz: float
    num_points: int

    def __post_init__(self):
        self.f_low_hz = float(self.f_low_hz)
        self.f_high_hz = float(self.f_high_hz)
        self.num_points = int(self.num_points)
        if not 0.0 < self.f_low_hz <= self.f_high_hz < np.inf:
            raise ValueError(
                f"need 0 < f_low_hz <= f_high_hz < inf, got "
                f"({self.f_low_hz}, {self.f_high_hz})"
            )
        if self.num_points < 1:
            raise ValueError(f"num_points must be >= 1, got {self.num_points}")

    @property
    def carrier_hz(self) -> float:
        """Band-center frequency."""
        return 0.5 * (self.f_low_hz + self.f_high_hz)

    def points(self) -> np.ndarray:
        """The K sampled frequencies in Hz."""
        return np.linspace(self.f_low_hz, self.f_high_hz, self.num_points)


def _vr_column(num_elements: int, rng: np.random.Generator) -> np.ndarray:
    """One binary column: 1 on a random visibility interval, 0 elsewhere.

    The interval covers a uniform fraction in [0.3, 0.8] of the array,
    rounded to at least one element, at a uniformly drawn start.
    """
    fraction = rng.uniform(_VR_MIN_FRACTION, _VR_MAX_FRACTION)
    length = max(1, int(round(fraction * num_elements)))
    start = int(rng.integers(0, num_elements - length + 1))
    out = np.zeros(num_elements)
    out[start : start + length] = 1.0
    return out


def build_variant_aaf(
    paths,
    num_elements: int,
    variant: str,
    params: sns.AAFStatParams = None,
    seed: int = None,
    stream_key: tuple = (),
) -> np.ndarray:
    """Attenuation-factor matrix (M, L) of a path list for a synthesis variant.

    ``*-ss`` variants return ones.  Otherwise a path's fixed ``aaf`` override
    is used as given, a stationary path gets ones, and non-stationary path l
    draws its column from its own random stream, keyed by
    ``(seed, *stream_key, l)``, so ``seed`` is then required and no column
    depends on path order: under ``*-sns`` hyper-parameters from
    ``sns.sample_aaf_params`` (``params`` defaults to the fitted values) and
    then a sequence from ``sns.generate_aaf``, under ``vr`` a binary
    visibility interval.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    paths = list(paths)
    if variant.endswith("-ss"):
        return np.ones((int(num_elements), len(paths)))
    num_elements = int(num_elements)
    if num_elements < 1:
        raise ValueError(f"num_elements must be >= 1, got {num_elements}")
    if not paths:
        raise ValueError("paths must be non-empty")
    if params is None:
        params = sns.AAFStatParams()
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
            if variant == "vr":
                out[:, l] = _vr_column(num_elements, rng)
            else:
                p, q, d_corr = sns.sample_aaf_params(params, rng)
                out[:, l] = sns.generate_aaf(num_elements, p, q, d_corr, rng)
    return out


def multi_user(responses) -> np.ndarray:
    """Stack per-user (M, K) responses into the (U, M, K) complex64 pool.

    Each value is rounded to complex64 exactly as ``astype("<c8")`` rounds
    it, so the pool holds the bytes that ``channel.bin`` stores.  This is the
    reference route for ``synthesize``, which has :func:`assemble` write each
    user's response in chunks of element rows into one complex64 chunk and
    streams each to ``channel.bin``.
    """
    responses = list(responses)
    if not responses:
        raise ValueError("responses must be non-empty")
    shape = np.shape(responses[0])
    if len(shape) != 2 or any(np.shape(r) != shape for r in responses):
        raise ValueError(
            f"responses must share one (elements, frequencies) shape, got "
            f"{[np.shape(r) for r in responses]}"
        )
    pool = np.empty((len(responses), *shape), dtype="<c8")
    for user, response in enumerate(responses):
        pool[user] = response
    return pool


@dataclass
class PathTable:
    """One user's paths expanded across the array: (M, L) arrays.

    ``aaf`` is the checked attenuation-factor matrix, ``amplitudes``
    include wavefront spreading, pattern weighting and the attenuation
    factors, and ``phases`` are the carrier-frequency per-element phases
    including the reference phase.  :func:`assemble` reads
    ``coefficients``, ``amplitude * gain_m * aaf_m * exp(-1j*phase_ref)``,
    and ``excess_lengths``, the path lengths beyond the reference element's.
    Each array other than ``aaf`` is column-major, one contiguous column per
    path.  ``table[lo:hi]`` is the table of elements lo..hi-1 (views), a
    complete input to :func:`assemble`.
    """

    aaf: np.ndarray
    amplitudes: np.ndarray
    delays: np.ndarray
    phases: np.ndarray
    distances: np.ndarray
    coefficients: np.ndarray
    excess_lengths: np.ndarray

    def __getitem__(self, rows):
        return PathTable(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})


def path_table(
    paths,
    geometry: ArrayGeometry,
    tx_pattern: AntennaPattern,
    rx_pattern: AntennaPattern,
    carrier_hz: float,
    aaf: np.ndarray,
    variant: str = "nf-sns",
) -> PathTable:
    """Expand each path once: per-element amplitudes, delays, phases,
    distances, and the coefficients and excess lengths of :func:`assemble`.

    Each path goes through :func:`expand_path` under its own wavefront
    model, or as a plane wave when ``variant`` forces one (``ff-*``/``vr``);
    its expansion is dropped once its columns are filled.

    Parameters
    ----------
    paths : sequence of PathRecord
    geometry : ArrayGeometry
    tx_pattern, rx_pattern : AntennaPattern
    carrier_hz : float
        Carrier of the per-element phase bookkeeping, e.g.
        ``FrequencyGrid.carrier_hz``.
    aaf : ndarray (M, L)
        Finite, non-negative attenuation factors, e.g. from
        :func:`build_variant_aaf`.
    variant : str
        One of ``VARIANTS``.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("paths must be non-empty")
    plane_wave = _plane_wave(variant)
    aaf = np.asarray(aaf, dtype=float)
    shape = (geometry.num_elements, len(paths))
    if aaf.shape != shape:
        raise ValueError(f"aaf shape {aaf.shape} != {shape}")
    if np.any(aaf < 0.0) or not np.all(np.isfinite(aaf)):
        raise ValueError("aaf entries must be finite and >= 0")
    table = PathTable(
        aaf,
        *(np.empty(shape, order="F") for _ in range(4)),
        np.empty(shape, dtype=complex, order="F"),
        np.empty(shape, order="F"),
    )
    for l, path in enumerate(paths):
        e = expand_path(path, geometry, carrier_hz, tx_pattern, rx_pattern, plane_wave)
        table.amplitudes[:, l] = e.amplitudes * aaf[:, l]
        table.delays[:, l] = e.delays
        table.phases[:, l] = e.phases
        table.distances[:, l] = e.distances
        table.coefficients[:, l] = (
            path.amplitude * e.gains * aaf[:, l] * np.exp(-1j * e.phases[e.reference_index])
        )
        table.excess_lengths[:, l] = e.excess_lengths
    return table


def _block_length(num_points: int) -> int:
    """Frequencies per block of :func:`assemble` for a K-point grid.

    A block of b costs b exact ``exp`` per element and path for its step
    table plus one per block start, ``b + ceil(K/b)`` in all; the smallest
    cost for b in [1, 64] wins, the largest b on ties (17 at K=201, 49 at
    K=2001).
    """
    return min(
        range(1, _MAX_BLOCK + 1), key=lambda b: (b - (-num_points // b), -b)
    )


def _chunk_rows(num_elements: int, num_points: int) -> int:
    """Element rows per chunk of a response: as many complex64 rows of K
    values as fit in ``_CHUNK_BYTES``, at least one and at most M."""
    return max(1, min(num_elements, _CHUNK_BYTES // (8 * num_points)))


def _assemble_bytes(num_rows: int, num_points: int, num_paths: int) -> int:
    """Most memory :func:`assemble` holds besides its output for a table of
    r element rows, all complex128 unless noted: the (L, r, b) step phasors
    and their products; the (blocks, L, r) start phasors, and three more
    tables of that size while they are built (the rotation and numpy's
    iteration buffers); the (r, b) accumulator; two (L, r) tables' worth
    of per-path temporaries; the grid's K float64 frequencies; and 64 KiB
    of small objects."""
    width = _block_length(num_points)
    blocks = -(-num_points // width)
    return (
        8 * num_points
        + 16 * num_rows * (num_paths * (2 * width + 4 * blocks + 2) + width)
        + 2**16
    )


def _working_set_bytes(num_elements: int, num_points: int, num_paths: int) -> int:
    """Most memory one user's synthesis holds besides what it streams out:
    its :class:`PathTable` (six float64 and one complex128 (M, L) arrays,
    64 B per element and path), the expansion of the path being added
    (twelve float64 per element), one complex64 chunk of
    r = ``_chunk_rows(M, K)`` element rows, and :func:`assemble`'s tables
    for that chunk."""
    rows = _chunk_rows(num_elements, num_points)
    return (
        64 * num_elements * num_paths
        + 96 * num_elements
        + 8 * rows * num_points
        + _assemble_bytes(rows, num_points, num_paths)
    )


def assemble(paths, table: PathTable, grid: FrequencyGrid, out=None) -> np.ndarray:
    """Synthesize one user's channel, an array of shape (M, K).

    ``table`` is the :func:`path_table` of ``paths``, or a row slice of it
    (``table[lo:hi]`` gives the response's rows lo..hi-1).  Path l
    contributes ``coef_m * exp(-2j*pi*f_k*tau_m)`` at element m and
    frequency k, with ``tau_m = delay + excess_length_m / c`` and
    ``coef_m`` the table's coefficient.  On the uniform grid this is a
    geometric sequence in k, evaluated in blocks of b = ``_block_length(K)``
    frequencies:

    - per path, one (M, b) table of exact step phasors
      ``exp(-2j*pi*df*tau_m*j)``, j < b, with ``df`` the grid spacing (0
      for a single point);
    - per path and block, one exact start phasor
      ``coef_m * exp(-2j*pi*f_k0*tau_m)`` at the block's first grid point
      ``f_k0``, all of them computed at once;
    - per block, the step tables times their start phasors, summed over the
      paths in order into a zeroed (M, b) complex128 accumulator, which then
      goes to ``out[:, k0:k1]``.

    The start phase is split as ``f_k0*delay`` (about 1e4 rad, rounded once
    per path and block and shared by every element) plus
    ``f_k0*excess_length_m/c``, so each entry carries the rounding of the
    per-entry ``exp`` route it replaces, not more.  Every operation is
    elementwise per element, so a row slice of the table gives exactly the
    same rows as the whole table.

    ``out`` is an (M, K) array to write into, e.g. a reusable complex64
    chunk; each entry is rounded as ``astype`` rounds the complex128 sum, so
    ``assemble(..., out=c64)`` equals ``assemble(...).astype("<c8")``.
    Without ``out`` a new complex128 array is returned.  Besides ``out`` the
    working set is the tables counted by ``_assemble_bytes``, which grow
    with the table's rows: ``synthesize`` passes chunks of
    ``_chunk_rows(M, K)`` rows.
    """
    paths = list(paths)
    num_elements, num_paths = table.coefficients.shape
    if len(paths) != num_paths:
        raise ValueError(f"{len(paths)} paths for a table of {num_paths}")
    frequencies = grid.points()
    num_points = frequencies.size
    if out is None:
        out = np.empty((num_elements, num_points), dtype=complex)
    elif out.shape != (num_elements, num_points):
        raise ValueError(f"out shape {out.shape} != {(num_elements, num_points)}")
    df = (
        (grid.f_high_hz - grid.f_low_hz) / (num_points - 1) if num_points > 1 else 0.0
    )
    width = _block_length(num_points)
    delays = np.array([path.delay for path in paths])
    excess = table.excess_lengths.T
    # (L, M, b) step phasors exp(-2j*pi*df*tau_m*j).
    tau = delays[:, None] + excess / SPEED_OF_LIGHT
    steps = np.empty((num_paths, num_elements, width), dtype=complex)
    steps.real = 0.0
    np.multiply(tau[:, :, None], -2.0 * np.pi * df * np.arange(width), out=steps.imag)
    np.exp(steps, out=steps)
    # (blocks, L, M) start phasors at each block's first frequency f_k0.
    firsts = frequencies[::width]
    starts = (
        np.exp(-2j * np.pi * np.multiply.outer(firsts, delays))[:, :, None]
        * table.coefficients.T
    )
    rotation = np.empty_like(starts)
    rotation.real = 0.0
    np.multiply(-2.0 * np.pi / SPEED_OF_LIGHT * excess, firsts[:, None, None],
                out=rotation.imag)
    starts *= np.exp(rotation, out=rotation)
    del rotation
    # Whole-width blocks keep every operand contiguous; the last block's
    # columns past K are computed and dropped.
    terms = np.empty_like(steps)
    block = np.empty((num_elements, width), dtype=complex)
    for k0, start in zip(range(0, num_points, width), starts):
        np.multiply(steps, start[:, :, None], out=terms)
        # ((0 + term_0) + term_1) + ..., path by path as numpy reduces an
        # outer axis; the +0 start fixes the sign of an all-zero sum.
        np.add.reduce(terms, axis=0, out=block, initial=0.0)
        out[:, k0 : k0 + width] = block[:, : num_points - k0]
    return out
