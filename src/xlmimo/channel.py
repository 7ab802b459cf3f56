"""Wideband channel assembly.

The frequency response at element m is the sum over paths of
``amplitude * gain_m * aaf_m * exp(-j(2*pi*f*tau_m + phase_ref))``: the
reference-element path amplitude, the per-element gain of the wavefront
expansion, the per-element amplitude attenuation factor, and the path's
delay at that element, ``tau_m = delay + excess_length_m / c``.  Each path
is expanded once in :func:`path_table`, whose table gives both the
per-element path parameters and the gains and excess lengths that
:func:`assemble` reads.  On the uniform frequency grid each term is a
geometric sequence in frequency, so :func:`assemble` evaluates one exact
complex ``exp`` per element, path and block of b frequencies (b chosen from
the grid size by :func:`_block_length`) and reaches the rest of the block
by one multiply with a per-path table of exact step phasors.  One user's
response is an (elements, frequencies) array, summed block by block in one
(elements, b) accumulator; ``synthesize`` has each user's response written
into one reusable complex64 row and streamed to ``channel.bin``, so no
(users, elements, frequencies) pool is held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SPEED_OF_LIGHT, ArrayGeometry
from .nearfield import AntennaPattern, expand_path
# Kept for the tests' reference route of ``assemble``; perfbench/worker.py
# wraps it by this name.
from .nearfield import build_a_tensor  # noqa: F401
from .sns import AAFStatParams, build_aaf_matrix

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
    params: AAFStatParams = None,
    seed: int = None,
    stream_key: tuple = (),
) -> np.ndarray:
    """Attenuation-factor matrix (M, L) for a synthesis variant.

    ``*-ss`` variants return ones; ``*-sns`` variants generate correlated
    factors per non-stationary path; ``vr`` replaces generation with binary
    visibility intervals per non-stationary path.  Both draw their columns
    in the loop of ``build_aaf_matrix``, so fixed per-path ``aaf`` overrides
    and per-path random streams behave alike in all variants except
    ``*-ss``.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    paths = list(paths)
    if variant.endswith("-ss"):
        return np.ones((int(num_elements), len(paths)))
    return build_aaf_matrix(
        paths,
        num_elements,
        params=params,
        seed=seed,
        stream_key=stream_key,
        draw=_vr_column if variant == "vr" else None,
    )


def multi_user(responses) -> np.ndarray:
    """Stack per-user (M, K) responses into the (U, M, K) complex64 pool.

    Each value is rounded to complex64 exactly as ``astype("<c8")`` rounds
    it, so the pool holds the bytes that ``channel.bin`` stores.  This is the
    reference route for ``synthesize``, which has :func:`assemble` write each
    user's response into one complex64 row and streams it to
    ``channel.bin``.
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
    """One user's paths expanded across the array.

    ``expansions`` holds each path's :class:`NearFieldExpansion`, whose
    gains and excess lengths :func:`assemble` reads.  The other arrays
    have shape (M, L): ``aaf`` is the checked attenuation-factor matrix,
    ``amplitudes`` include wavefront spreading, pattern weighting and the
    attenuation factors, and ``phases`` are the carrier-frequency
    per-element phases including the reference phase.
    """

    aaf: np.ndarray
    expansions: list
    amplitudes: np.ndarray
    delays: np.ndarray
    phases: np.ndarray
    distances: np.ndarray


def path_table(
    paths,
    geometry: ArrayGeometry,
    tx_pattern: AntennaPattern,
    rx_pattern: AntennaPattern,
    carrier_hz: float,
    aaf: np.ndarray,
    variant: str = "nf-sns",
) -> PathTable:
    """Expand each path once: per-element amplitudes, delays, phases, distances.

    Each path goes through :func:`expand_path` under its own wavefront
    model, or as a plane wave when ``variant`` forces one (``ff-*``/``vr``).

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
    if aaf.shape != (geometry.num_elements, len(paths)):
        raise ValueError(
            f"aaf shape {aaf.shape} != {(geometry.num_elements, len(paths))}"
        )
    if np.any(aaf < 0.0) or not np.all(np.isfinite(aaf)):
        raise ValueError("aaf entries must be finite and >= 0")
    expansions = [
        expand_path(path, geometry, carrier_hz, tx_pattern, rx_pattern, plane_wave)
        for path in paths
    ]

    def column(name):
        return np.stack([getattr(e, name) for e in expansions], axis=1)

    return PathTable(
        aaf=aaf,
        expansions=expansions,
        amplitudes=column("amplitudes") * aaf,
        delays=column("delays"),
        phases=column("phases"),
        distances=column("distances"),
    )


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


def _working_set_bytes(num_elements: int, num_points: int, num_paths: int) -> int:
    """Most memory :func:`assemble` holds besides its output: one (M, b)
    complex128 step table per path, the (M, b) accumulator and scratch, and
    two more (M, b) tables' worth of per-block temporaries and numpy
    iteration buffers."""
    return 16 * num_elements * _block_length(num_points) * (num_paths + 4)


def assemble(paths, table: PathTable, grid: FrequencyGrid, out=None) -> np.ndarray:
    """Synthesize one user's channel, an array of shape (M, K).

    ``table`` is the :func:`path_table` of ``paths``.  Path l contributes
    ``coef_m * exp(-2j*pi*f_k*tau_m)`` at element m and frequency k, with
    ``tau_m = delay + excess_length_m / c`` and
    ``coef_m = amplitude * gain_m * aaf_ml * exp(-1j*phase_ref)``.  On the
    uniform grid this is a geometric sequence in k, evaluated in blocks of
    b = ``_block_length(K)`` frequencies:

    - per path, one (M, b) table of exact step phasors
      ``exp(-2j*pi*df*tau_m*j)``, j < b, with ``df`` the grid spacing (0
      for a single point);
    - per block, a zeroed (M, b) complex128 accumulator; for each path in
      order, one exact ``coef_m * exp(-2j*pi*f_k0*tau_m)`` at the block's
      first grid point ``f_k0``, multiplied into the step table and added
      to the accumulator, which then goes to ``out[:, k0:k1]``.

    The block-start phase is split as ``f_k0*delay`` (about 1e4 rad, rounded
    once per path and block and shared by every element) plus
    ``f_k0*excess_length_m/c``, so each entry carries the rounding of the
    per-entry ``exp`` route it replaces, not more.

    ``out`` is an (M, K) array to write into, e.g. a reusable complex64
    row; each entry is rounded as ``astype`` rounds the complex128 sum, so
    ``assemble(..., out=c64)`` equals ``assemble(...).astype("<c8")``.
    Without ``out`` a new complex128 array is returned.  Besides ``out`` the
    working set is the L step tables and two (M, b) tables.
    """
    paths = list(paths)
    if len(paths) != len(table.expansions):
        raise ValueError(
            f"{len(paths)} paths for a table of {len(table.expansions)}"
        )
    frequencies = grid.points()
    num_points = frequencies.size
    num_elements = table.aaf.shape[0]
    if out is None:
        out = np.empty((num_elements, num_points), dtype=complex)
    elif out.shape != (num_elements, num_points):
        raise ValueError(f"out shape {out.shape} != {(num_elements, num_points)}")
    df = (
        (grid.f_high_hz - grid.f_low_hz) / (num_points - 1) if num_points > 1 else 0.0
    )
    width = _block_length(num_points)
    offsets = -2.0 * np.pi * df * np.arange(width)
    steps = np.empty((len(paths), num_elements, width), dtype=complex)
    for step, path, expansion in zip(steps, paths, table.expansions):
        tau = path.delay + expansion.excess_lengths / SPEED_OF_LIGHT
        step.real = 0.0
        np.multiply.outer(tau, offsets, out=step.imag)
        np.exp(step, out=step)
    # Whole-width blocks keep every operand contiguous; the last block's
    # columns past K are computed and dropped.
    block = np.empty((num_elements, width), dtype=complex)
    term = np.empty_like(block)
    for k0 in range(0, num_points, width):
        block[...] = 0.0
        for l, (step, path, expansion) in enumerate(
            zip(steps, paths, table.expansions)
        ):
            coef = path.amplitude * expansion.gains * table.aaf[:, l] * np.exp(
                -1j * expansion.phases[expansion.reference_index]
            )
            rate = -2.0 * np.pi / SPEED_OF_LIGHT * expansion.excess_lengths
            start = np.exp(-2j * np.pi * (path.delay * frequencies[k0])) * coef
            start *= np.exp(1j * (rate * frequencies[k0]))
            np.multiply(step, start[:, None], out=term)
            block += term
        out[:, k0 : k0 + width] = block[:, : num_points - k0]
    return out
