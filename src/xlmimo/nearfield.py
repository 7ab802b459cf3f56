"""Per-element expansion of reference path parameters across a large array.

Every propagation path is described once at a reference element (amplitude,
phase, delay, distance, departure/arrival directions).  For arrays whose
aperture is comparable to the link distance the plane-wave assumption breaks
down, so the reference parameters are expanded element by element under a
spherical-wave model.  Reflected paths use the mirror image of the receiver
as the effective source (specular reflections preserve the spherical
wavefront); scattered paths treat the scattering point itself as the source
and keep the arrival direction fixed.  Plane waves, the far-field baseline,
are the infinite-distance limit of the same expansion.  One function,
:func:`expand_path`, expands a path under any of these models.  A synthesis
expands each path once, in ``channel.path_table``, which keeps each
element's coefficient (amplitude, gain, attenuation factor and reference
phase) and excess length; ``channel.assemble`` sums the wideband response
from them by a frequency recurrence, one exact ``exp`` per element, path
and block of up to 64 frequencies.  :func:`nf_path_matrix` and
:func:`build_a_tensor`, one complex ``exp`` per (element, path, frequency),
remain as the reference route of that kernel.

Arrival directions are propagation directions at the receiver (pointing away
from the array), so for a direct path the arrival direction equals the
departure direction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, NumericError
from .geometry import (
    SPEED_OF_LIGHT,
    Angles,
    ArrayGeometry,
    _as_unit_vec3,
    _azimuth_elevation,
    angles_from_vector,
    direction_vector,
)

# Distances below this are treated as coincident points.
_DEGENERATE_DISTANCE = 1e-12

# Largest attenuation of a gaussian_lobe pattern below its peak, dB.
_FLOOR_DB = 30.0


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
        Plane wave; linear phase ramp from the reference element, with
        amplitude, delay and distance kept at their reference values.
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
    ``_FLOOR_DB`` below the peak, which puts the half-power points at half a
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
    """

    kind: str = "omnidirectional"
    gain_dbi: float = 0.0
    boresight: np.ndarray | None = None
    hpbw_az: float = 0.0
    hpbw_el: float = 0.0

    def __post_init__(self):
        if self.kind not in ("omnidirectional", "gaussian_lobe"):
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        self.gain_dbi = float(self.gain_dbi)
        if not np.isfinite(self.gain_dbi):
            raise ValueError(f"gain_dbi must be finite, got {self.gain_dbi}")
        if self.kind == "gaussian_lobe":
            if self.boresight is None:
                raise ValueError("gaussian_lobe pattern requires a boresight")
            self.boresight = _as_unit_vec3(self.boresight, "boresight")
            self.hpbw_az = float(self.hpbw_az)
            self.hpbw_el = float(self.hpbw_el)
            if not (0.0 < self.hpbw_az < np.inf and 0.0 < self.hpbw_el < np.inf):
                raise ValueError("gaussian_lobe beamwidths must be finite and > 0")

    def gain_db(self, direction) -> np.ndarray:
        """Power gain in dB toward unit direction(s) of shape (..., 3)."""
        direction = np.asarray(direction, dtype=float)
        if self.kind == "omnidirectional":
            return np.full(direction.shape[:-1], self.gain_dbi)
        bs = angles_from_vector(self.boresight)
        az, el = _azimuth_elevation(direction)
        d_az = np.mod(az - bs.azimuth + np.pi, 2.0 * np.pi) - np.pi
        d_el = el - bs.elevation
        att = 12.0 * ((d_az / self.hpbw_az) ** 2 + (d_el / self.hpbw_el) ** 2)
        return self.gain_dbi - np.minimum(att, _FLOOR_DB)

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
        if not 0.0 < self.amplitude < np.inf:
            raise ValueError(f"amplitude must be finite and > 0, got {self.amplitude}")
        if not np.isfinite(self.phase):
            raise ValueError(f"phase must be finite, got {self.phase}")
        if not 0.0 <= self.delay < np.inf:
            raise ValueError(f"delay must be finite and >= 0, got {self.delay}")
        if not 0.0 < self.distance < np.inf:
            raise ValueError(f"distance must be finite and > 0, got {self.distance}")
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
    ``reference_index`` reproduces the reference parameters; ``gains`` is 1
    and ``excess_lengths`` is 0 there.  The path table reads ``amplitudes``,
    ``delays``, ``phases`` and ``distances``, and keeps ``excess_lengths``
    and the coefficients built from ``gains`` and the reference phase for
    the wideband kernel ``channel.assemble``; its reference route
    :func:`nf_path_matrix` reads the same three.
    """

    distances: np.ndarray  # metres, (M,)
    amplitudes: np.ndarray  # linear, with pattern ratios, (M,)
    gains: np.ndarray  # amplitude relative to the reference element, (M,)
    excess_lengths: np.ndarray  # c * excess delay over the reference, metres, (M,)
    phases: np.ndarray  # radians at carrier_hz, (M,)
    delays: np.ndarray  # seconds, (M,)
    aod: np.ndarray  # unit vectors, (M, 3)
    aoa: np.ndarray  # unit vectors, (M, 3)
    reference_index: int


def expand_path(
    path: PathRecord,
    geometry: ArrayGeometry,
    carrier_hz: float,
    tx_pattern: AntennaPattern = None,
    rx_pattern: AntennaPattern = None,
    force_ff: bool = False,
) -> NearFieldExpansion:
    """Expand reference path parameters to every array element.

    Spherical waves (LOS/SRM/SPM): the source point sits at
    ``path.distance`` along ``path.aod`` from the reference element.
    Element m at offset r_m sees distance ``d_m = ||distance * aod - r_m||``;
    amplitudes scale with ``distance / d_m``, phases advance by
    ``2*pi*carrier_hz*(d_m - distance)/c`` and delays by
    ``(d_m - distance)/c``.  Departure directions point from each element to
    the source.  Arrival directions follow the departure increment for
    LOS/SRM paths (renormalized) and stay fixed for SPM.

    Plane waves (FF, or any model when ``force_ff`` is set), the
    infinite-distance limit: the excess length is
    ``-(m - reference_index) * spacing * (aod . axis)``, the gain is 1, the
    carrier phase ramps by ``2*pi*carrier_hz/c`` times the excess length,
    and amplitude, delay, distance and directions keep their reference
    values.

    Both models then scale amplitudes and gains by the element-pattern
    ratios ``Ft(aod_m) / Ft(aod_ref) * Fr(aoa_m) / Fr(aoa_ref)``.

    Parameters
    ----------
    path : PathRecord
    geometry : ArrayGeometry
    carrier_hz : float
        Carrier frequency used for the per-element phase bookkeeping.
    tx_pattern, rx_pattern : AntennaPattern, optional
        Element patterns; None is omnidirectional (no ratio).
    force_ff : bool
        Expand as a plane wave regardless of ``path.model``.

    Raises
    ------
    GeometryError
        If an element coincides with the source or the arrival-direction
        update degenerates.
    NumericError
        If a pattern gain at the reference directions is zero.
    """
    carrier_hz = float(carrier_hz)
    if not 0.0 < carrier_hz < np.inf:
        raise ValueError(f"carrier_hz must be finite and > 0, got {carrier_hz}")
    m = geometry.num_elements
    ref = geometry.reference_index
    aod_ref = direction_vector(path.aod)
    aoa_ref = direction_vector(path.aoa)

    if force_ff or path.model is WavefrontModel.FF:
        u = float(np.dot(aod_ref, geometry.axis))
        excess = (np.arange(m) - ref) * (-geometry.spacing * u)
        distances = np.full(m, path.distance)
        amplitudes = np.full(m, path.amplitude)
        gains = np.ones(m)
        delays = np.full(m, path.delay)
        aod = np.broadcast_to(aod_ref, (m, 3))
        aoa = np.broadcast_to(aoa_ref, (m, 3))
    else:
        diff = path.distance * aod_ref - geometry.element_offsets()
        distances = np.linalg.norm(diff, axis=1)
        distances[ref] = path.distance  # the norm can miss it by an ulp
        if np.any(distances < _DEGENERATE_DISTANCE):
            raise GeometryError("array element coincides with the path source")
        excess = distances - path.distance
        amplitudes = path.amplitude * path.distance / distances
        amplitudes[ref] = path.amplitude  # (a * d) / d can miss a by an ulp
        gains = distances[ref] / distances
        delays = path.delay + excess / SPEED_OF_LIGHT
        aod = diff / distances[:, None]
        if path.model is WavefrontModel.SPM:
            aoa = np.broadcast_to(aoa_ref, aod.shape).copy()
        else:
            raw = aod - aod_ref + aoa_ref
            norms = np.linalg.norm(raw, axis=1)
            if np.any(norms < _DEGENERATE_DISTANCE):
                raise GeometryError("arrival-direction update degenerated")
            aoa = raw / norms[:, None]

    for pattern, directions in ((tx_pattern, aod), (rx_pattern, aoa)):
        if pattern is not None:
            field_gain = pattern.field_gain(directions)
            if field_gain[ref] == 0.0:
                raise NumericError("pattern gain at the reference direction is zero")
            ratio = field_gain / field_gain[ref]
            amplitudes = amplitudes * ratio
            gains = gains * ratio

    return NearFieldExpansion(
        distances=distances,
        amplitudes=amplitudes,
        gains=gains,
        excess_lengths=excess,
        phases=path.phase + 2.0 * np.pi * carrier_hz / SPEED_OF_LIGHT * excess,
        delays=delays,
        aod=aod,
        aoa=aoa,
        reference_index=ref,
    )


def nf_path_matrix(expansion: NearFieldExpansion, frequencies) -> np.ndarray:
    """Per-element complex weights of one expanded path, shape (M, K).

    Entry (m, k) is the ratio of element m's response to the reference
    element's response at frequency k, for every wavefront model:

    ``gain_m * exp(-1j * (2*pi*f_k*excess_length_m/c + phase_ref))``

    where ``phase_ref`` is the expansion's phase at the reference element.
    The exponential and the gains are applied in place, so the call holds
    one complex (M, K) array and, briefly, the real phases.

    This is a reference route, one complex ``exp`` per entry, kept for the
    tests of the recurrence in ``channel.assemble`` and for the benchmark
    worker, which looks it up by name.  Synthesis does not call it.
    """
    frequencies = np.atleast_1d(np.asarray(frequencies, dtype=float))
    if not np.all(frequencies > 0.0):
        raise ValueError("frequencies must be > 0")
    phase_ref = expansion.phases[expansion.reference_index]
    weights = 1j * (
        -2.0 * np.pi / SPEED_OF_LIGHT * np.outer(expansion.excess_lengths, frequencies)
        - phase_ref
    )
    np.exp(weights, out=weights)
    np.multiply(expansion.gains[:, None], weights, out=weights)
    return weights


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

    Each path is expanded under its own wavefront model, or as a plane wave
    when ``force_ff`` is set; see :func:`expand_path`.  Its einsum with the
    attenuation factors and the reference-element responses is the
    reference route for :func:`xlmimo.channel.assemble`, which sums the same
    response by a frequency recurrence and never holds this tensor.

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
        expansion = expand_path(
            path, geometry, carrier_hz, tx_pattern, rx_pattern, force_ff
        )
        out[:, l, :] = nf_path_matrix(expansion, frequencies)
    return out

