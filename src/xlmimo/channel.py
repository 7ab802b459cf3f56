"""Wideband channel assembly.

The frequency response at element m is the sum over paths of three factors:
the reference-element path response ``alpha_l * exp(-2j*pi*f*tau_l)``, the
per-element propagation weight from the wavefront expansion, and the
per-element amplitude attenuation factor.  Each path is expanded once in
:func:`path_table`, whose table gives both the per-element path parameters
and, read by :func:`assemble`, the wideband weights.  One user's response
is an (elements, frequencies) array, summed path by path so that no
per-path tensor is held; users sharing the array and frequency grid fill
the (users, elements, frequencies) complex64 pool that ``channel.bin``
stores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry
from . import nearfield
from .nearfield import AntennaPattern, expand_path
# The reference route of ``assemble``; perfbench/worker.py wraps it by this name.
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
    reference route for ``synthesize``, which assigns each user's response
    into its preallocated pool as soon as :func:`assemble` returns it.
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

    ``expansions`` holds each path's :class:`NearFieldExpansion`, from
    which :func:`assemble` takes the wideband weights.  The other arrays
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


def assemble(paths, table: PathTable, grid: FrequencyGrid) -> np.ndarray:
    """Synthesize one user's channel, a complex128 array of shape (M, K).

    ``table`` is the :func:`path_table` of ``paths``.  The paths are summed
    one at a time into one (M, K) accumulator, so the working set is a few
    (M, K) arrays whatever the path count.  Each step is the einsum
    ``"mk,m,k->mk"`` of the path's :func:`nearfield.nf_path_matrix`, its
    ``table.aaf`` column and its reference-element response
    ``amplitude * exp(-2j*pi*f*delay)``.  That gives the bits of the
    reference route ``einsum("mlk,ml,lk->mk", build_a_tensor(...), aaf,
    h_ref)``; plain ``w * aaf * h`` products do not.
    """
    paths = list(paths)
    if len(paths) != len(table.expansions):
        raise ValueError(
            f"{len(paths)} paths for a table of {len(table.expansions)}"
        )
    frequencies = grid.points()
    amplitudes = np.array([p.amplitude for p in paths])
    delays = np.array([p.delay for p in paths])
    h_ref = amplitudes[:, None] * np.exp(-2j * np.pi * np.outer(delays, frequencies))
    response = np.zeros((table.aaf.shape[0], frequencies.size), dtype=complex)
    for l, expansion in enumerate(table.expansions):
        # nf_path_matrix is looked up on its module at call time, so a
        # wrapped kernel is seen; its matrix is freed before the next path's.
        response += np.einsum(
            "mk,m,k->mk",
            nearfield.nf_path_matrix(expansion, frequencies),
            table.aaf[:, l],
            h_ref[l],
        )
    return response
