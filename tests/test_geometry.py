import numpy as np
import pytest
import scipy.constants
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from xlmimo.geometry import (
    SPEED_OF_LIGHT,
    Angles,
    ArrayGeometry,
    Plane,
    angles_from_vector,
    direction_vector,
    mirror_point,
    rayleigh_distance,
    reflect_direction,
)


class TestAngles:
    def test_validation_bounds(self):
        Angles(np.pi, 0.0)
        Angles(-np.pi + 1e-9, np.pi)
        with pytest.raises(ValueError):
            Angles(-np.pi, 0.5)
        with pytest.raises(ValueError):
            Angles(3.5, 0.5)
        with pytest.raises(ValueError):
            Angles(0.0, -0.1)
        with pytest.raises(ValueError):
            Angles(0.0, np.pi + 0.1)
        with pytest.raises(ValueError):
            Angles(np.nan, 0.5)


class TestDirectionVector:
    def test_cardinal_directions(self):
        assert_allclose(
            direction_vector(Angles(0.0, np.pi / 2)), [1.0, 0.0, 0.0], atol=1e-15
        )
        assert_allclose(
            direction_vector(Angles(np.pi / 2, np.pi / 2)), [0.0, 1.0, 0.0], atol=1e-15
        )
        assert_allclose(direction_vector(Angles(0.3, 0.0)), [0.0, 0.0, 1.0], atol=1e-15)

    def test_unit_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = Angles(rng.uniform(-np.pi, np.pi), rng.uniform(0.0, np.pi))
            assert abs(np.linalg.norm(direction_vector(a)) - 1.0) < 1e-12

    def test_component_oracle(self):
        # independent spherical-coordinate arithmetic
        az, el = 0.7, 1.1
        v = direction_vector(Angles(az, el))
        assert_allclose(
            v,
            [np.sin(el) * np.cos(az), np.sin(el) * np.sin(az), np.cos(el)],
            rtol=1e-15,
        )


class TestAnglesFromVector:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            back = direction_vector(angles_from_vector(v))
            assert_allclose(back, v, atol=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-12.0, 0.19).map(lambda e: 10.0**e),  # polar offset, rad
        st.floats(-np.pi, np.pi),
        st.booleans(),
    )
    def test_round_trip_is_exact_near_the_poles(self, offset, azimuth, south):
        # arccos(z) loses up to ~1e-8 rad here: z rounds to +-1 within 1e-8
        sin, cos = np.sin(offset), np.cos(offset)
        v = np.array([sin * np.cos(azimuth), sin * np.sin(azimuth), -cos if south else cos])
        back = direction_vector(angles_from_vector(v))
        assert np.max(np.abs(back - v)) <= 1e-15

    def test_poles_use_zero_azimuth(self):
        assert angles_from_vector([0.0, 0.0, 1.0]).azimuth == 0.0
        assert angles_from_vector([0.0, 0.0, -1.0]).azimuth == 0.0
        assert angles_from_vector([0.0, 0.0, 1.0]).elevation == 0.0
        assert_allclose(angles_from_vector([0.0, 0.0, -1.0]).elevation, np.pi)

    def test_negative_x_maps_to_pi(self):
        assert angles_from_vector([-1.0, 0.0, 0.0]).azimuth == np.pi

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            angles_from_vector([1.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            angles_from_vector([0.5, 0.0, 0.0])
        with pytest.raises(ValueError):
            angles_from_vector([1.0, 0.0])


class TestArrayGeometry:
    def test_positions_oracle(self):
        geom = ArrayGeometry(
            num_elements=4,
            spacing=0.5,
            axis=[0.0, 1.0, 0.0],
            origin=[1.0, 2.0, 3.0],
            reference_index=1,
        )
        pos = geom.origin + geom.element_offsets()
        expected = np.array(
            [
                [1.0, 1.5, 3.0],
                [1.0, 2.0, 3.0],
                [1.0, 2.5, 3.0],
                [1.0, 3.0, 3.0],
            ]
        )
        assert_allclose(pos, expected, rtol=1e-15)
        assert_allclose(pos[geom.reference_index], geom.origin)

    def test_aperture(self):
        geom = ArrayGeometry(num_elements=301, spacing=1.364e-3)
        assert_allclose(geom.aperture, 300 * 1.364e-3, rtol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrayGeometry(num_elements=0, spacing=0.1)
        with pytest.raises(ValueError):
            ArrayGeometry(num_elements=4, spacing=0.0)
        with pytest.raises(ValueError):
            ArrayGeometry(num_elements=4, spacing=0.1, axis=[1.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            ArrayGeometry(num_elements=4, spacing=0.1, reference_index=4)
        for spacing in (np.nan, np.inf):
            with pytest.raises(ValueError):
                ArrayGeometry(num_elements=4, spacing=spacing)


class TestMirror:
    def test_xy_plane_flips_z(self):
        plane = Plane(point=[0.0, 0.0, 0.0], normal=[0.0, 0.0, 1.0])
        assert_allclose(mirror_point([1.0, 2.0, 3.0], plane), [1.0, 2.0, -3.0])

    def test_involution_and_signed_distance(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            plane = Plane(point=rng.standard_normal(3), normal=n)
            p = rng.standard_normal(3) * 4.0
            m = mirror_point(p, plane)
            assert_allclose(mirror_point(m, plane), p, atol=1e-12)
            assert_allclose(
                plane.signed_distance(m), -plane.signed_distance(p), atol=1e-12
            )

    def test_reflect_direction_preserves_norm_and_tangent(self):
        plane = Plane(point=[0.0, 1.0, 0.0], normal=[0.0, 1.0, 0.0])
        d = np.array([0.6, 0.8, 0.0])
        r = reflect_direction(d, plane)
        assert_allclose(r, [0.6, -0.8, 0.0], atol=1e-15)
        assert_allclose(np.linalg.norm(r), 1.0, rtol=1e-15)


def test_speed_of_light_matches_scipy_constants():
    assert SPEED_OF_LIGHT == scipy.constants.c


class TestRayleighDistance:
    def test_formula_oracle(self):
        # hand evaluation of 2 D^2 f / c
        assert_allclose(
            rayleigh_distance(0.409, 100e9),
            2.0 * 0.409**2 * 100e9 / SPEED_OF_LIGHT,
            rtol=1e-15,
        )

    def test_zero_aperture(self):
        assert rayleigh_distance(0.0, 1e9) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            rayleigh_distance(-0.1, 1e9)
        with pytest.raises(ValueError):
            rayleigh_distance(0.1, 0.0)
