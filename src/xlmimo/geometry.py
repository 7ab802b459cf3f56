"""Array and propagation geometry primitives.

Positions and direction vectors are numpy arrays of shape ``(3,)`` in
metres.  Spherical angles follow the physics convention: ``elevation`` is
the polar angle measured from the +z axis in ``[0, pi]``, ``azimuth`` is
measured from the +x axis in the xy plane in ``(-pi, pi]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Speed of light in vacuum, m/s (exact by the SI definition of the metre).
SPEED_OF_LIGHT = 299792458.0

# Tolerance for "is a unit vector" checks.
_UNIT_TOL = 1e-9


def _as_vec3(v, name: str = "vector") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must have shape (3,), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite, got {v}")
    return v


def _as_unit_vec3(v, name: str = "vector") -> np.ndarray:
    v = _as_vec3(v, name)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > _UNIT_TOL:
        raise ValueError(f"{name} must be a unit vector, got norm {norm!r}")
    return v


@dataclass(frozen=True)
class Angles:
    """Propagation direction in spherical coordinates.

    Attributes
    ----------
    azimuth : float
        Angle from the +x axis in the xy plane, in ``(-pi, pi]`` rad.
    elevation : float
        Polar angle from the +z axis, in ``[0, pi]`` rad.
    """

    azimuth: float
    elevation: float

    def __post_init__(self):
        object.__setattr__(self, "azimuth", float(self.azimuth))
        object.__setattr__(self, "elevation", float(self.elevation))
        if not np.isfinite(self.azimuth) or not np.isfinite(self.elevation):
            raise ValueError("angles must be finite")
        if not -np.pi < self.azimuth <= np.pi:
            raise ValueError(f"azimuth {self.azimuth} outside (-pi, pi]")
        if not 0.0 <= self.elevation <= np.pi:
            raise ValueError(f"elevation {self.elevation} outside [0, pi]")


def direction_vector(angles: Angles) -> np.ndarray:
    """Unit direction vector for spherical ``angles``.

    Returns ``[sin(el)cos(az), sin(el)sin(az), cos(el)]``.
    """
    sin_el = np.sin(angles.elevation)
    return np.array(
        [
            sin_el * np.cos(angles.azimuth),
            sin_el * np.sin(angles.azimuth),
            np.cos(angles.elevation),
        ]
    )


def _azimuth_elevation(v):
    """Azimuth and elevation of direction(s) ``v`` of shape (..., 3).

    Both come from ``arctan2``, which keeps full precision near the poles,
    where ``arccos(z)`` does not.
    """
    v = np.asarray(v, dtype=float)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return np.arctan2(y, x), np.arctan2(np.hypot(x, y), z)


def angles_from_vector(v) -> Angles:
    """Spherical angles of a unit vector ``v``.

    Raises ``ValueError`` if ``v`` is not unit length within 1e-9.  At the
    poles (``v`` parallel to z) the azimuth is 0 by convention.
    """
    v = _as_unit_vec3(v, "direction")
    azimuth, elevation = map(float, _azimuth_elevation(v))
    if azimuth <= -np.pi:
        azimuth = np.pi
    return Angles(azimuth=azimuth, elevation=elevation)


@dataclass
class ArrayGeometry:
    """Uniform linear array of antenna elements.

    Attributes
    ----------
    num_elements : int
        Number of elements, >= 1.
    spacing : float
        Inter-element spacing in metres, > 0.
    axis : ndarray, shape (3,)
        Unit vector along the array line (direction of increasing index).
    origin : ndarray, shape (3,)
        Position of the reference element.
    reference_index : int
        Index of the reference element, in ``[0, num_elements)``.
    """

    num_elements: int
    spacing: float
    axis: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0]))
    origin: np.ndarray = field(default_factory=lambda: np.zeros(3))
    reference_index: int = 0

    def __post_init__(self):
        self.num_elements = int(self.num_elements)
        self.spacing = float(self.spacing)
        self.axis = _as_unit_vec3(self.axis, "axis")
        self.origin = _as_vec3(self.origin, "origin")
        self.reference_index = int(self.reference_index)
        if self.num_elements < 1:
            raise ValueError(f"num_elements must be >= 1, got {self.num_elements}")
        if not 0.0 < self.spacing < np.inf:
            raise ValueError(f"spacing must be finite and > 0, got {self.spacing}")
        if not 0 <= self.reference_index < self.num_elements:
            raise ValueError(
                f"reference_index {self.reference_index} outside "
                f"[0, {self.num_elements})"
            )

    @property
    def aperture(self) -> float:
        """Physical aperture ``(num_elements - 1) * spacing`` in metres."""
        return (self.num_elements - 1) * self.spacing

    def element_offsets(self) -> np.ndarray:
        """Element positions relative to the reference element, shape (M, 3)."""
        steps = np.arange(self.num_elements) - self.reference_index
        return steps[:, None] * (self.spacing * self.axis)


@dataclass
class Plane:
    """Infinite plane given by a point on it and a unit normal."""

    point: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        self.point = _as_vec3(self.point, "point")
        self.normal = _as_unit_vec3(self.normal, "normal")

    def signed_distance(self, p) -> float:
        """Signed distance of ``p`` from the plane, positive on the normal side."""
        return float(np.dot(_as_vec3(p, "p") - self.point, self.normal))


def mirror_point(point, plane: Plane) -> np.ndarray:
    """Mirror image of ``point`` with respect to ``plane``."""
    p = _as_vec3(point, "point")
    return p - 2.0 * plane.signed_distance(p) * plane.normal


def reflect_direction(direction, plane: Plane) -> np.ndarray:
    """Reflect a propagation direction off ``plane``."""
    d = _as_vec3(direction, "direction")
    return d - 2.0 * float(np.dot(d, plane.normal)) * plane.normal


def rayleigh_distance(aperture: float, frequency: float) -> float:
    """Far-field boundary ``2 * aperture**2 * frequency / c`` in metres.

    Parameters
    ----------
    aperture : float
        Physical aperture in metres, >= 0.
    frequency : float
        Frequency in Hz, > 0.
    """
    aperture = float(aperture)
    frequency = float(frequency)
    if aperture < 0.0:
        raise ValueError(f"aperture must be >= 0, got {aperture}")
    if frequency <= 0.0:
        raise ValueError(f"frequency must be > 0, got {frequency}")
    return 2.0 * aperture * aperture * frequency / SPEED_OF_LIGHT
