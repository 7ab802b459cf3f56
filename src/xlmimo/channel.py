"""Wideband channel assembly.

The frequency response at element m is the sum over paths of three factors:
the reference-element path response ``alpha_l * exp(-2j*pi*f*tau_l)``, the
per-element propagation weight from the wavefront expansion, and the
per-element amplitude attenuation factor.  Channels for several users share
the array and frequency grid and stack into a (users, elements,
frequencies) tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry
from .nearfield import AntennaPattern, build_a_tensor, expand_path
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

    @property
    def bandwidth_hz(self) -> float:
        return self.f_high_hz - self.f_low_hz

    def points(self) -> np.ndarray:
        """The K sampled frequencies in Hz."""
        return np.linspace(self.f_low_hz, self.f_high_hz, self.num_points)


@dataclass
class ChannelTensor:
    """Synthesized frequency responses, shape (users, elements, frequencies)."""

    values: np.ndarray
    grid: FrequencyGrid
    variant: str = "nf-sns"
    seed: int | None = None
    geometry: ArrayGeometry | None = None
    config_sha256: str | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 3:
            raise ValueError(
                f"values must have shape (users, elements, frequencies), "
                f"got {self.values.shape}"
            )
        if not np.iscomplexobj(self.values):
            self.values = self.values.astype(complex)
        if self.values.shape[2] != self.grid.num_points:
            raise ValueError(
                f"frequency axis {self.values.shape[2]} does not match "
                f"grid num_points {self.grid.num_points}"
            )
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")

    @property
    def num_users(self) -> int:
        return self.values.shape[0]

    @property
    def num_elements(self) -> int:
        return self.values.shape[1]


def reference_response(paths, frequencies) -> np.ndarray:
    """Reference-element path responses, shape (L, K).

    Entry (l, k) is ``amplitude_l * exp(-2j*pi*f_k*delay_l)``; the reference
    phase is carried by the per-element weights instead.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("paths must be non-empty")
    frequencies = np.atleast_1d(np.asarray(frequencies, dtype=float))
    amplitudes = np.array([p.amplitude for p in paths])
    delays = np.array([p.delay for p in paths])
    return amplitudes[:, None] * np.exp(
        -2j * np.pi * np.outer(delays, frequencies)
    )


def vr_aaf(num_elements: int, interval) -> np.ndarray:
    """Binary visibility-interval attenuation factors.

    Elements inside ``interval = (start, stop)`` (half-open, 0-based) get 1,
    the rest 0.
    """
    num_elements = int(num_elements)
    start, stop = int(interval[0]), int(interval[1])
    if not 0 <= start < stop <= num_elements:
        raise ValueError(
            f"interval must satisfy 0 <= start < stop <= {num_elements}, "
            f"got ({start}, {stop})"
        )
    out = np.zeros(num_elements)
    out[start:stop] = 1.0
    return out


def random_visibility_interval(num_elements: int, rng: np.random.Generator) -> tuple:
    """Draw a random visibility interval covering a fraction of the array."""
    fraction = rng.uniform(_VR_MIN_FRACTION, _VR_MAX_FRACTION)
    length = max(1, int(round(fraction * num_elements)))
    start = int(rng.integers(0, num_elements - length + 1))
    return start, start + length


def _vr_column(num_elements: int, rng: np.random.Generator) -> np.ndarray:
    """One binary column with a random visibility interval."""
    return vr_aaf(num_elements, random_visibility_interval(num_elements, rng))


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


def assemble(
    paths,
    geometry: ArrayGeometry,
    tx_pattern: AntennaPattern,
    rx_pattern: AntennaPattern,
    grid: FrequencyGrid,
    aaf: np.ndarray = None,
    variant: str = "nf-sns",
    seed: int = None,
) -> ChannelTensor:
    """Synthesize one user's channel, shape (1, M, K).

    Parameters
    ----------
    paths : sequence of PathRecord
    geometry : ArrayGeometry
    tx_pattern, rx_pattern : AntennaPattern
    grid : FrequencyGrid
    aaf : ndarray (M, L), optional
        Attenuation factors; built per ``variant`` when omitted.
    variant : str
        One of ``VARIANTS``; ``ff-*``/``vr`` force plane-wave weights.
    seed : int, optional
        Root seed for attenuation-factor generation (recorded in the
        output either way).
    """
    paths = list(paths)
    frequencies = grid.points()
    a = build_a_tensor(
        paths,
        geometry,
        tx_pattern,
        rx_pattern,
        frequencies,
        carrier_hz=grid.carrier_hz,
        force_ff=_plane_wave(variant),
    )
    if aaf is None:
        aaf = build_variant_aaf(paths, geometry.num_elements, variant, seed=seed)
    else:
        aaf = np.asarray(aaf, dtype=float)
    if aaf.shape != (geometry.num_elements, len(paths)):
        raise ValueError(
            f"aaf shape {aaf.shape} != {(geometry.num_elements, len(paths))}"
        )
    if np.any(aaf < 0.0) or not np.all(np.isfinite(aaf)):
        raise ValueError("aaf entries must be finite and >= 0")
    h_ref = reference_response(paths, frequencies)
    values = np.einsum("mlk,ml,lk->mk", a, aaf, h_ref)
    return ChannelTensor(
        values=values[None, :, :],
        grid=grid,
        variant=variant,
        seed=seed,
        geometry=geometry,
    )


def multi_user(tensors) -> ChannelTensor:
    """Stack per-user channels sharing the array and grid along the user axis."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("tensors must be non-empty")
    first = tensors[0]
    for t in tensors[1:]:
        if t.values.shape[1:] != first.values.shape[1:]:
            raise ValueError("tensors must share (elements, frequencies) shape")
        if (
            t.grid.f_low_hz != first.grid.f_low_hz
            or t.grid.f_high_hz != first.grid.f_high_hz
            or t.grid.num_points != first.grid.num_points
        ):
            raise ValueError("tensors must share the frequency grid")
        if t.variant != first.variant:
            raise ValueError("tensors must share the variant")
    return ChannelTensor(
        values=np.concatenate([t.values for t in tensors], axis=0),
        grid=first.grid,
        variant=first.variant,
        seed=first.seed,
        geometry=first.geometry,
        config_sha256=first.config_sha256,
    )


@dataclass
class PathTable:
    """Per-element path parameters, all arrays of shape (M, L).

    ``amplitudes`` include wavefront spreading, pattern weighting, and the
    attenuation factors; ``phases`` are the carrier-frequency per-element
    phases including the reference phase.
    """

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
    """Per-element path amplitudes, delays, phases, and distances.

    Each row comes from :func:`expand_path` under the path's wavefront
    model, or as a plane wave when ``variant`` forces one (``ff-*``/``vr``,
    as in :func:`assemble`).
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
    amplitudes = np.empty_like(aaf)
    delays = np.empty_like(aaf)
    phases = np.empty_like(aaf)
    distances = np.empty_like(aaf)
    for l, path in enumerate(paths):
        expansion = expand_path(
            path, geometry, carrier_hz, tx_pattern, rx_pattern, plane_wave
        )
        amplitudes[:, l] = expansion.amplitudes
        delays[:, l] = expansion.delays
        phases[:, l] = expansion.phases
        distances[:, l] = expansion.distances
    return PathTable(
        amplitudes=amplitudes * aaf,
        delays=delays,
        phases=phases,
        distances=distances,
    )
