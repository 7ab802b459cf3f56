"""Per-element expansion of reference path parameters across a large array.

Every propagation path is described once at a reference element (amplitude,
phase, delay, distance, departure/arrival directions).  For arrays whose
aperture is comparable to the link distance the plane-wave assumption breaks
down, so the reference parameters are expanded element by element under a
spherical-wave model.  Reflected paths use the mirror image of the receiver
as the effective source (specular reflections preserve the spherical
wavefront); scattered paths treat the scattering point itself as the source
and keep the arrival direction fixed.

Arrival directions are propagation directions at the receiver (pointing away
from the array), so for a direct path the arrival direction equals the
departure direction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, NumericError
from .geometry import (
    SPEED_OF_LIGHT,
    Angles,
    ArrayGeometry,
    _as_unit_vec3,
    angles_from_vector,
    direction_vector,
)

_DEGENERATE_DISTANCE = 1e-12


class WavefrontModel(enum.Enum):
    """How a path's wavefront is expanded across the array.

    LOS
        Direct path; spherical wavefront from the receiver position.
    SRM
        Specular reflection; spherical wavefront from the mirror image of
        the receiver, arrival direction follows the departure increment.
    SPM
        Point scattering; spherical wavefront from the scattering point,
        arrival direction fixed at its reference value.
    FF
        Plane wave; no per-element expansion.
    """

    LOS = "los"
    SRM = "srm"
    SPM = "spm"
    FF = "ff"


class Stationarity(enum.Enum):
    """Whether a path's power is uniform across the array (SS) or not (SnS)."""

    STATIONARY = "ss"
    NON_STATIONARY = "sns"


@dataclass
class AntennaPattern:
    """Element field pattern.

    ``omnidirectional`` applies a constant gain.  ``gaussian_lobe`` is a
    single main lobe with quadratic (dB) roll-off: the attenuation at an
    azimuth/elevation offset from boresight is
    ``12 * ((d_az / hpbw_az)**2 + (d_el / hpbw_el)**2)`` dB, capped at
    ``floor_db`` below the peak, which puts the half-power points at half a
    beamwidth off boresight on each principal cut.

    Attributes
    ----------
    kind : str
        "omnidirectional" or "gaussian_lobe".
    gain_dbi : float
        Peak gain in dBi.
    boresight : ndarray, shape (3,), optional
        Unit pointing vector (gaussian_lobe only).
    hpbw_az, hpbw_el : float
        Half-power beamwidths in radians (gaussian_lobe only).
    floor_db : float
        Maximum attenuation below the peak, dB.
    """

    kind: str = "omnidirectional"
    gain_dbi: float = 0.0
    boresight: np.ndarray | None = None
    hpbw_az: float = 0.0
    hpbw_el: float = 0.0
    floor_db: float = 30.0

    def __post_init__(self):
        if self.kind not in ("omnidirectional", "gaussian_lobe"):
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        self.gain_dbi = float(self.gain_dbi)
        self.floor_db = float(self.floor_db)
        if self.kind == "gaussian_lobe":
            if self.boresight is None:
                raise ValueError("gaussian_lobe pattern requires a boresight")
            self.boresight = _as_unit_vec3(self.boresight, "boresight")
            self.hpbw_az = float(self.hpbw_az)
            self.hpbw_el = float(self.hpbw_el)
            if self.hpbw_az <= 0.0 or self.hpbw_el <= 0.0:
                raise ValueError("gaussian_lobe beamwidths must be > 0")
            if self.floor_db <= 0.0:
                raise ValueError("floor_db must be > 0")

    def gain_db(self, direction) -> np.ndarray:
        """Power gain in dB toward unit direction(s) of shape (..., 3)."""
        direction = np.asarray(direction, dtype=float)
        if self.kind == "omnidirectional":
            return np.full(direction.shape[:-1], self.gain_dbi)
        bs = angles_from_vector(self.boresight)
        az = np.arctan2(direction[..., 1], direction[..., 0])
        el = np.arccos(np.clip(direction[..., 2], -1.0, 1.0))
        d_az = np.mod(az - bs.azimuth + np.pi, 2.0 * np.pi) - np.pi
        d_el = el - bs.elevation
        att = 12.0 * ((d_az / self.hpbw_az) ** 2 + (d_el / self.hpbw_el) ** 2)
        return self.gain_dbi - np.minimum(att, self.floor_db)

    def field_gain(self, direction) -> np.ndarray:
        """Linear field (amplitude) gain toward unit direction(s)."""
        return 10.0 ** (self.gain_db(direction) / 20.0)


@dataclass
class PathRecord:
    """One propagation path, described at the reference element.

    Attributes
    ----------
    model : WavefrontModel
        Expansion model for the path.
    amplitude : float
        Path amplitude at the reference element, linear, > 0.
    phase : float
        Reference phase in radians.
    delay : float
        Propagation delay at the reference element in seconds, >= 0.
    distance : float
        Source distance from the reference element in metres, > 0.  For
        reflections this is the distance to the mirror image (the full path
        length); for scattering it is the transmitter-to-scatterer leg.
    aod : Angles
        Departure direction at the reference element.
    aoa : Angles
        Arrival direction at the receiver (propagation direction).
    stationarity : Stationarity
        SS or SnS tag, drives amplitude-attenuation-factor generation.
    aaf : ndarray or None
        Optional fixed per-element amplitude attenuation factors (length M),
        used instead of statistical generation when set.
    """

    model: WavefrontModel
    amplitude: float
    phase: float
    delay: float
    distance: float
    aod: Angles
    aoa: Angles
    stationarity: Stationarity = Stationarity.STATIONARY
    aaf: np.ndarray | None = None

    def __post_init__(self):
        self.model = WavefrontModel(self.model)
        self.stationarity = Stationarity(self.stationarity)
        self.amplitude = float(self.amplitude)
        self.phase = float(self.phase)
        self.delay = float(self.delay)
        self.distance = float(self.distance)
        if self.amplitude <= 0.0:
            raise ValueError(f"amplitude must be > 0, got {self.amplitude}")
        if self.delay < 0.0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")
        if self.distance <= 0.0:
            raise ValueError(f"distance must be > 0, got {self.distance}")
        if not isinstance(self.aod, Angles) or not isinstance(self.aoa, Angles):
            raise ValueError("aod and aoa must be Angles")
        if self.aaf is not None:
            self.aaf = np.asarray(self.aaf, dtype=float)
            if self.aaf.ndim != 1:
                raise ValueError("per-path aaf must be one-dimensional")
            if np.any(self.aaf < 0.0) or not np.all(np.isfinite(self.aaf)):
                raise ValueError("per-path aaf must be finite and >= 0")


@dataclass
class NearFieldExpansion:
    """Per-element path parameters produced by :func:`expand_path`.

    All arrays have the array's M elements along the first axis.  The row at
    ``reference_index`` reproduces the reference parameters exactly.
    """

    distances: np.ndarray  # metres, (M,)
    amplitudes: np.ndarray  # linear, (M,)
    phases: np.ndarray  # radians at carrier_hz, (M,)
    delays: np.ndarray  # seconds, (M,)
    aod: np.ndarray  # unit vectors, (M, 3)
    aoa: np.ndarray  # unit vectors, (M, 3)
    reference_index: int
    carrier_hz: float


def expand_path(
    path: PathRecord, geometry: ArrayGeometry, carrier_hz: float
) -> NearFieldExpansion:
    """Expand reference path parameters to every array element.

    The source point sits at ``path.distance`` along ``path.aod`` from the
    reference element.  Element m at offset r_m sees distance
    ``d_m = ||distance * aod - r_m||``; amplitudes scale with ``distance /
    d_m``, phases advance by ``2*pi*carrier_hz*(d_m - distance)/c`` and
    delays by ``(d_m - distance)/c``.  Departure directions point from each
    element to the source.  Arrival directions follow the departure
    increment for LOS/SRM paths (renormalized) and stay fixed for SPM.

    Parameters
    ----------
    path : PathRecord
        Reference path description; ``path.model`` must not be FF.
    geometry : ArrayGeometry
        The array to expand over.
    carrier_hz : float
        Carrier frequency used for the per-element phase bookkeeping.

    Raises
    ------
    ValueError
        If the path is a plane-wave (FF) path.
    GeometryError
        If an element coincides with the source or the arrival-direction
        update degenerates.
    """
    if path.model is WavefrontModel.FF:
        raise ValueError("plane-wave paths have no per-element expansion")
    carrier_hz = float(carrier_hz)
    if carrier_hz <= 0.0:
        raise ValueError(f"carrier_hz must be > 0, got {carrier_hz}")

    aod_ref = direction_vector(path.aod)
    aoa_ref = direction_vector(path.aoa)
    offsets = geometry.element_offsets()
    diff = path.distance * aod_ref - offsets
    distances = np.linalg.norm(diff, axis=1)
    if np.any(distances < _DEGENERATE_DISTANCE):
        raise GeometryError("array element coincides with the path source")

    delta = distances - path.distance
    amplitudes = path.amplitude * path.distance / distances
    phases = path.phase + 2.0 * np.pi * carrier_hz / SPEED_OF_LIGHT * delta
    delays = path.delay + delta / SPEED_OF_LIGHT
    aod = diff / distances[:, None]

    if path.model is WavefrontModel.SPM:
        aoa = np.broadcast_to(aoa_ref, aod.shape).copy()
    else:
        raw = aod - aod_ref + aoa_ref
        norms = np.linalg.norm(raw, axis=1)
        if np.any(norms < _DEGENERATE_DISTANCE):
            raise GeometryError("arrival-direction update degenerated")
        aoa = raw / norms[:, None]

    return NearFieldExpansion(
        distances=distances,
        amplitudes=amplitudes,
        phases=phases,
        delays=delays,
        aod=aod,
        aoa=aoa,
        reference_index=geometry.reference_index,
        carrier_hz=carrier_hz,
    )


def nf_path_matrix(
    expansion: NearFieldExpansion,
    tx_pattern: AntennaPattern,
    rx_pattern: AntennaPattern,
    frequencies,
) -> np.ndarray:
    """Per-element complex weights of one expanded path, shape (M, K).

    Entry (m, k) is the ratio of element m's response to the reference
    element's response at frequency k:

    ``(d_ref / d_m) * (Ft(aod_m) / Ft(aod_ref)) * (Fr(aoa_m) / Fr(aoa_ref))
    * exp(-1j * (2*pi*f_k*(d_m - d_ref)/c + phase_ref))``

    where ``phase_ref`` is the expansion's phase at the reference element.

    Raises
    ------
    NumericError
        If a pattern gain at the reference directions is zero.
    """
    frequencies = np.atleast_1d(np.asarray(frequencies, dtype=float))
    if np.any(frequencies <= 0.0):
        raise ValueError("frequencies must be > 0")
    ref = expansion.reference_index
    d_ref = expansion.distances[ref]
    phase_ref = expansion.phases[ref]

    ft = tx_pattern.field_gain(expansion.aod)
    fr = rx_pattern.field_gain(expansion.aoa)
    if ft[ref] == 0.0 or fr[ref] == 0.0:
        raise NumericError("pattern gain at the reference direction is zero")

    amp = (d_ref / expansion.distances) * (ft / ft[ref]) * (fr / fr[ref])
    delta = expansion.distances - d_ref
    phase = (
        -2.0 * np.pi / SPEED_OF_LIGHT * np.outer(delta, frequencies) - phase_ref
    )
    return amp[:, None] * np.exp(1j * phase)


def ff_path_matrix(
    path: PathRecord, geometry: ArrayGeometry, frequencies
) -> np.ndarray:
    """Plane-wave per-element weights of one path, shape (M, K).

    Unit-magnitude entries with linear phase along the array: element m at
    frequency f gets phase
    ``2*pi*f*spacing*(m - reference_index)*(aod . axis)/c - phase_ref``,
    the infinite-distance limit of the spherical-wave weights.
    """
    frequencies = np.atleast_1d(np.asarray(frequencies, dtype=float))
    if np.any(frequencies <= 0.0):
        raise ValueError("frequencies must be > 0")
    u = float(np.dot(direction_vector(path.aod), geometry.axis))
    m_idx = np.arange(geometry.num_elements) - geometry.reference_index
    phase = (
        2.0 * np.pi * geometry.spacing * u / SPEED_OF_LIGHT
    ) * np.outer(m_idx, frequencies) - path.phase
    return np.exp(1j * phase)


def build_a_tensor(
    paths,
    geometry: ArrayGeometry,
    tx_pattern: AntennaPattern,
    rx_pattern: AntennaPattern,
    frequencies,
    carrier_hz: float,
    force_ff: bool = False,
) -> np.ndarray:
    """Per-element weight tensor for a list of paths, shape (M, L, K).

    Paths tagged FF (or all paths, when ``force_ff`` is set) use the
    plane-wave weights; the rest are expanded under their spherical-wave
    model.

    Parameters
    ----------
    paths : sequence of PathRecord
    geometry : ArrayGeometry
    tx_pattern, rx_pattern : AntennaPattern
    frequencies : ndarray, shape (K,)
    carrier_hz : float
        Carrier used for the expansion phase bookkeeping.
    force_ff : bool
        Treat every path as a plane wave regardless of its model tag.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("paths must be non-empty")
    frequencies = np.atleast_1d(np.asarray(frequencies, dtype=float))
    out = np.empty(
        (geometry.num_elements, len(paths), frequencies.size), dtype=complex
    )
    for l, path in enumerate(paths):
        if force_ff or path.model is WavefrontModel.FF:
            out[:, l, :] = ff_path_matrix(path, geometry, frequencies)
        else:
            expansion = expand_path(path, geometry, carrier_hz)
            out[:, l, :] = nf_path_matrix(
                expansion, tx_pattern, rx_pattern, frequencies
            )
    return out


def ff_phase_delta(azimuth) -> np.ndarray | float:
    """Plane-wave inter-element phase difference at half-wavelength spacing.

    ``pi * sin(azimuth)`` radians, independent of element index.
    """
    return np.pi * np.sin(azimuth)


def nf_phase_delta(
    azimuth,
    distance,
    element_index: int = 1,
    wavelength: float = None,
    spacing: float = None,
):
    """Spherical-wave phase difference between elements m-1 and m.

    Second-order expansion of the element-to-source distance for a source at
    ``distance`` and azimuth ``azimuth`` from the reference end of the
    array:

    ``(2*pi/wavelength) * (-spacing*sin(azimuth)
      + (2*m - 1) * spacing**2 * cos(azimuth)**2 / (2*distance))``

    At half-wavelength spacing and m = 1 this is
    ``-pi*sin(azimuth) + pi*wavelength*(1 - sin(azimuth)**2)/(4*distance)``.

    Parameters
    ----------
    azimuth : float or ndarray
        Source azimuth in radians measured in the array plane.
    distance : float
        Source distance in metres, > 0.
    element_index : int
        m >= 1; the difference is between elements m-1 and m.
    wavelength : float
        Carrier wavelength in metres, > 0.
    spacing : float, optional
        Element spacing in metres; defaults to ``wavelength / 2``.
    """
    if wavelength is None or wavelength <= 0.0:
        raise ValueError("wavelength must be > 0")
    distance = float(distance)
    if distance <= 0.0:
        raise ValueError(f"distance must be > 0, got {distance}")
    element_index = int(element_index)
    if element_index < 1:
        raise ValueError(f"element_index must be >= 1, got {element_index}")
    if spacing is None:
        spacing = wavelength / 2.0
    spacing = float(spacing)
    if spacing <= 0.0:
        raise ValueError(f"spacing must be > 0, got {spacing}")
    sin_az = np.sin(azimuth)
    curv = (2.0 * element_index - 1.0) * spacing * spacing / (2.0 * distance)
    return 2.0 * np.pi / wavelength * (-spacing * sin_az + curv * (1.0 - sin_az**2))
