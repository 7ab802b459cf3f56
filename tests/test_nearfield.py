import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from xlmimo.errors import GeometryError, NumericError
from xlmimo.geometry import (
    SPEED_OF_LIGHT,
    Angles,
    ArrayGeometry,
    Plane,
    angles_from_vector,
    direction_vector,
    mirror_point,
    reflect_direction,
)
from xlmimo.nearfield import (
    AntennaPattern,
    PathRecord,
    Stationarity,
    WavefrontModel,
    build_a_tensor,
    expand_path,
    nf_path_matrix,
)


def los_path(distance=2.0, azimuth=0.4, elevation=np.pi / 2, **kw):
    ang = Angles(azimuth, elevation)
    defaults = dict(
        model=WavefrontModel.LOS,
        amplitude=1.0,
        phase=0.3,
        delay=distance / SPEED_OF_LIGHT,
        distance=distance,
        aod=ang,
        aoa=ang,
    )
    defaults.update(kw)
    return PathRecord(**defaults)


def plane_wave_weights(path, geom, freqs):
    """Closed form: exp(j(2*pi*f*spacing*u*(m - ref)/c - phase))."""
    u = np.dot(direction_vector(path.aod), geom.axis)
    m = np.arange(geom.num_elements) - geom.reference_index
    return np.exp(1j * (2 * np.pi * np.outer(m, freqs) * geom.spacing * u
                        / SPEED_OF_LIGHT - path.phase))


def plane_wave_matrix(path, geom, freqs):
    """Plane-wave weights through the shared kernel."""
    return nf_path_matrix(expand_path(path, geom, 100e9, force_ff=True), freqs)


class TestAntennaPattern:
    def test_omni_constant(self):
        pat = AntennaPattern(kind="omnidirectional", gain_dbi=5.0)
        rng = np.random.default_rng(0)
        dirs = rng.standard_normal((40, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        assert_allclose(pat.gain_db(dirs), 5.0)
        assert_allclose(pat.field_gain(dirs), 10 ** (5.0 / 20.0))

    def test_boresight_peak_and_half_power_points(self):
        hp = np.deg2rad(14.6)
        pat = AntennaPattern(
            kind="gaussian_lobe",
            gain_dbi=23.0,
            boresight=[1.0, 0.0, 0.0],
            hpbw_az=hp,
            hpbw_el=hp,
        )
        assert_allclose(pat.gain_db([1.0, 0.0, 0.0]), 23.0)
        # half a beamwidth off boresight on the azimuth cut: -3 dB
        off = direction_vector(Angles(hp / 2.0, np.pi / 2))
        assert_allclose(pat.gain_db(off), 20.0, rtol=1e-12)
        # elevation cut
        off_el = direction_vector(Angles(0.0, np.pi / 2 - hp / 2.0))
        assert_allclose(pat.gain_db(off_el), 20.0, rtol=1e-12)

    def test_attenuation_floor(self):
        pat = AntennaPattern(
            kind="gaussian_lobe",
            gain_dbi=10.0,
            boresight=[1.0, 0.0, 0.0],
            hpbw_az=0.1,
            hpbw_el=0.1,
        )
        assert_allclose(pat.gain_db([-1.0, 0.0, 0.0]), -20.0)
        assert_allclose(pat.gain_db([0.0, 0.0, 1.0]), -20.0)

    def test_azimuth_wraps_through_pi(self):
        pat = AntennaPattern(
            kind="gaussian_lobe",
            gain_dbi=0.0,
            boresight=direction_vector(Angles(np.pi - 0.05, np.pi / 2)),
            hpbw_az=0.5,
            hpbw_el=0.5,
        )
        near = direction_vector(Angles(-np.pi + 0.05, np.pi / 2))
        # 0.1 rad away through the branch cut, not 2*pi - 0.1
        assert_allclose(pat.gain_db(near), -12.0 * (0.1 / 0.5) ** 2, rtol=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(
        pole=st.sampled_from([1.0, -1.0]),
        offset=st.floats(1e-12, 1e-2),
        azimuth=st.floats(-np.pi, np.pi),
    )
    @example(pole=1.0, offset=1e-8, azimuth=0.0)
    def test_elevation_keeps_full_precision_near_the_poles(self, pole, offset, azimuth):
        # the azimuth term underflows to 0 under so wide an azimuth beam, so
        # the gain -12*(d_el/width)**2 gives back |d_el| to a few ulps
        width = 2.0 * offset
        pat = AntennaPattern(kind="gaussian_lobe", boresight=[0.0, 0.0, pole],
                             hpbw_az=1e300, hpbw_el=width)
        direction = np.array([
            np.sin(offset) * np.cos(azimuth),
            np.sin(offset) * np.sin(azimuth),
            pole * np.cos(offset),
        ])
        d_el = width * np.sqrt(-pat.gain_db(direction) / 12.0)
        elevation = np.arctan2(np.hypot(direction[0], direction[1]), direction[2])
        want = abs(elevation - np.arctan2(0.0, pole))
        assert abs(d_el - want) <= 1e-15, (d_el, want)

    def test_validation(self):
        with pytest.raises(ValueError):
            AntennaPattern(kind="isotropic")
        with pytest.raises(ValueError):
            AntennaPattern(kind="gaussian_lobe", gain_dbi=1.0)
        with pytest.raises(ValueError):
            AntennaPattern(
                kind="gaussian_lobe",
                gain_dbi=1.0,
                boresight=[1, 0, 0],
                hpbw_az=0.0,
                hpbw_el=0.1,
            )
        for gain in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                AntennaPattern(gain_dbi=gain)
        with pytest.raises(ValueError):
            AntennaPattern(kind="gaussian_lobe", boresight=[1, 0, 0],
                           hpbw_az=np.nan, hpbw_el=0.1)


class TestPathRecord:
    def test_string_coercion(self):
        p = los_path(model="los", stationarity="sns")
        assert p.model is WavefrontModel.LOS
        assert p.stationarity is Stationarity.NON_STATIONARY

    def test_validation(self):
        with pytest.raises(ValueError):
            los_path(amplitude=0.0)
        with pytest.raises(ValueError):
            los_path(delay=-1e-9)
        with pytest.raises(ValueError):
            los_path(distance=0.0)
        with pytest.raises(ValueError):
            los_path(aaf=np.array([0.5, -0.1]))
        with pytest.raises(ValueError):
            los_path(aaf=np.ones((2, 2)))
        for field in ("amplitude", "phase", "delay", "distance"):
            for bad in (np.nan, np.inf):
                with pytest.raises(ValueError):
                    los_path(**{field: bad})


class TestExpandPath:
    def test_brute_force_coordinates(self):
        # oracle: explicit source/element coordinates, norms and ratios
        rng = np.random.default_rng(19)
        for _ in range(50):
            m = int(rng.integers(2, 24))
            ref = int(rng.integers(0, m))
            geom = ArrayGeometry(num_elements=m, spacing=rng.uniform(0.01, 0.2),
                                 reference_index=ref)
            d = rng.uniform(0.5, 8.0)
            az = rng.uniform(-np.pi, np.pi)
            el = rng.uniform(0.2, np.pi - 0.2)
            path = los_path(distance=d, azimuth=az, elevation=el,
                            amplitude=rng.uniform(0.1, 2.0),
                            phase=rng.uniform(-np.pi, np.pi))
            fc = rng.uniform(50e9, 300e9)
            exp = expand_path(path, geom, fc)

            source = d * direction_vector(path.aod)
            offsets = geom.element_offsets()
            dist = np.linalg.norm(source - offsets, axis=1)
            assert_allclose(exp.distances, dist, rtol=1e-12)
            assert_allclose(exp.amplitudes, path.amplitude * d / dist, rtol=1e-12)
            assert_allclose(
                exp.phases,
                path.phase + 2 * np.pi * fc / SPEED_OF_LIGHT * (dist - d),
                rtol=0, atol=1e-8,
            )
            assert_allclose(
                exp.delays, path.delay + (dist - d) / SPEED_OF_LIGHT, rtol=1e-12
            )
            assert_allclose(
                exp.aod, (source - offsets) / dist[:, None], atol=1e-12
            )

    def test_reference_row_reproduces_inputs(self):
        geom = ArrayGeometry(num_elements=11, spacing=0.03, reference_index=5)
        path = los_path(distance=1.7, azimuth=-0.8)
        exp = expand_path(path, geom, 100e9)
        r = exp.reference_index
        assert exp.distances[r] == path.distance
        assert exp.amplitudes[r] == path.amplitude
        assert exp.phases[r] == path.phase
        assert exp.delays[r] == path.delay
        assert_allclose(exp.aod[r], direction_vector(path.aod), atol=1e-15)
        assert_allclose(exp.aoa[r], direction_vector(path.aoa), atol=1e-15)

    def test_delay_profile_is_convex_along_array(self):
        # distance to a fixed point is a convex function of element index
        geom = ArrayGeometry(num_elements=64, spacing=0.01)
        path = los_path(distance=0.9, azimuth=1.1)
        exp = expand_path(path, geom, 140e9)
        second = np.diff(exp.delays, n=2)
        assert np.all(second >= -1e-24)

    def test_direct_path_arrival_tracks_departure(self):
        geom = ArrayGeometry(num_elements=32, spacing=0.02)
        path = los_path(distance=1.2, azimuth=0.5)
        exp = expand_path(path, geom, 100e9)
        assert_allclose(exp.aoa, exp.aod, atol=1e-12)

    def test_reflected_arrival_follows_departure_increment(self):
        # contract: aoa_m is the normalized aod increment applied to aoa_ref
        geom = ArrayGeometry(num_elements=16, spacing=0.02)
        plane = Plane(point=[0.0, 1.2, 0.0], normal=[0.0, -1.0, 0.0])
        rx = np.array([0.2, 0.645, 0.0])
        image = mirror_point(rx, plane)
        d = float(np.linalg.norm(image))
        aod = angles_from_vector(image / d)
        aoa = angles_from_vector(reflect_direction(image / d, plane))
        path = PathRecord(
            model=WavefrontModel.SRM, amplitude=1.0, phase=0.0,
            delay=d / SPEED_OF_LIGHT, distance=d, aod=aod, aoa=aoa,
        )
        exp = expand_path(path, geom, 100e9)
        raw = exp.aod - direction_vector(aod) + direction_vector(aoa)
        assert_allclose(
            exp.aoa, raw / np.linalg.norm(raw, axis=1, keepdims=True), atol=1e-12
        )
        assert_allclose(np.linalg.norm(exp.aoa, axis=1), 1.0, rtol=1e-12)
        # stays within first order of the exact mirrored direction
        exact = np.array([reflect_direction(v, plane) for v in exp.aod])
        ang = np.arccos(np.clip(np.sum(exp.aoa * exact, axis=1), -1, 1))
        assert np.max(ang) < 2.0 * geom.aperture / d

    def test_scattered_arrival_is_fixed(self):
        geom = ArrayGeometry(num_elements=16, spacing=0.02)
        aoa = Angles(2.0, 1.0)
        path = los_path(distance=1.0, azimuth=0.3, model=WavefrontModel.SPM, aoa=aoa)
        exp = expand_path(path, geom, 100e9)
        assert_allclose(exp.aoa, np.tile(direction_vector(aoa), (16, 1)), atol=1e-15)

    def test_plane_wave_keeps_reference_values(self):
        # FF-tagged paths and forced spherical ones expand alike
        geom = ArrayGeometry(num_elements=9, spacing=0.004, reference_index=6)
        u = np.cos(0.7)
        m = np.arange(9) - 6
        for model, forced in ((WavefrontModel.FF, False), (WavefrontModel.SRM, True)):
            path = los_path(distance=1.3, azimuth=0.7, amplitude=0.4, phase=0.9,
                            model=model)
            exp = expand_path(path, geom, 100e9, force_ff=forced)
            assert np.all(exp.distances == path.distance)
            assert np.all(exp.amplitudes == path.amplitude)
            assert np.all(exp.delays == path.delay)
            assert np.all(exp.gains == 1.0)
            assert_allclose(exp.excess_lengths, -m * 0.004 * u, rtol=1e-14)
            assert_allclose(
                exp.phases,
                0.9 - 2 * np.pi * 100e9 * 0.004 * u / SPEED_OF_LIGHT * m,
                rtol=1e-13,
            )
            assert exp.phases[6] == path.phase

    def test_source_on_element_raises(self):
        geom = ArrayGeometry(num_elements=4, spacing=0.05)
        path = los_path(distance=0.05, azimuth=0.0, elevation=np.pi / 2)
        with pytest.raises(GeometryError):
            expand_path(path, geom, 100e9)


class TestNfPathMatrix:
    def test_magnitude_is_distance_ratio_for_omni(self):
        geom = ArrayGeometry(num_elements=32, spacing=0.01, reference_index=7)
        path = los_path(distance=1.5, azimuth=0.9)
        exp = expand_path(path, geom, 100e9, AntennaPattern(), AntennaPattern())
        mat = nf_path_matrix(exp, np.array([90e9, 100e9]))
        want = exp.distances[7] / exp.distances
        assert_allclose(np.abs(mat), np.tile(want[:, None], (1, 2)), rtol=1e-12)

    def test_reference_row_is_unit_with_reference_phase(self):
        geom = ArrayGeometry(num_elements=8, spacing=0.01, reference_index=3)
        path = los_path(distance=2.0, azimuth=-0.4, phase=1.1)
        exp = expand_path(path, geom, 100e9, AntennaPattern(), AntennaPattern())
        mat = nf_path_matrix(exp, np.linspace(90e9, 110e9, 5))
        assert_allclose(mat[3], np.exp(-1j * 1.1) * np.ones(5), atol=1e-12)

    def test_phase_wraps_with_wavelength_offset(self):
        # distance offset of one wavelength leaves only the reference phase
        from xlmimo.nearfield import NearFieldExpansion

        f = 100e9
        lam = SPEED_OF_LIGHT / f
        exp = NearFieldExpansion(
            distances=np.array([1.0, 1.0 + lam]),
            amplitudes=np.array([1.0, 1.0 / (1.0 + lam)]),
            gains=np.array([1.0, 1.0 / (1.0 + lam)]),
            excess_lengths=np.array([0.0, lam]),
            phases=np.array([0.7, 0.7 + 2 * np.pi]),
            delays=np.array([0.0, lam / SPEED_OF_LIGHT]),
            aod=np.tile([1.0, 0.0, 0.0], (2, 1)),
            aoa=np.tile([1.0, 0.0, 0.0], (2, 1)),
            reference_index=0,
        )
        mat = nf_path_matrix(exp, np.array([f]))
        assert_allclose(mat[1, 0], (1.0 / (1.0 + lam)) * np.exp(-1j * 0.7), rtol=1e-9)

    def test_pattern_ratio_applied(self):
        # reference at boresight, a far element near the -3 dB direction
        geom = ArrayGeometry(num_elements=2, spacing=0.2)
        path = los_path(distance=1.0, azimuth=0.0, elevation=np.pi / 2)
        hp = 0.3
        pat = AntennaPattern(
            kind="gaussian_lobe", gain_dbi=7.0, boresight=[1.0, 0.0, 0.0],
            hpbw_az=hp, hpbw_el=hp,
        )
        exp = expand_path(path, geom, 100e9, pat, AntennaPattern())
        mat = nf_path_matrix(exp, np.array([100e9]))
        az1 = np.arctan2(exp.aod[1, 1], exp.aod[1, 0])
        expected_ratio = 10 ** (-12.0 * (az1 / hp) ** 2 / 20.0)
        d_ratio = exp.distances[0] / exp.distances[1]
        assert_allclose(np.abs(mat[1, 0]), d_ratio * expected_ratio, rtol=1e-10)

    def test_zero_reference_gain_raises(self):
        # 10**(-8000/20) underflows to a zero field gain; every model checks
        geom = ArrayGeometry(num_elements=4, spacing=0.01)
        dead = AntennaPattern(kind="omnidirectional", gain_dbi=-8000.0)
        for model in WavefrontModel:
            path = los_path(model=model)
            with pytest.raises(NumericError):
                expand_path(path, geom, 100e9, dead, AntennaPattern())
            with pytest.raises(NumericError):
                expand_path(path, geom, 100e9, AntennaPattern(), dead)

    def test_rejects_bad_frequencies(self):
        geom = ArrayGeometry(num_elements=4, spacing=0.01)
        exp = expand_path(los_path(), geom, 100e9)
        for bad in (0.0, np.nan):
            with pytest.raises(ValueError):
                nf_path_matrix(exp, np.array([bad]))

    def test_spherical_wavefront_tracks_local_angle(self):
        # The phase step between neighbours m and m+1 is 2*pi*s*u/lambda,
        # with u the direction cosine from their midpoint to the source.
        lam = 3e-3
        f = SPEED_OF_LIGHT / lam
        geom = ArrayGeometry(num_elements=301, spacing=lam / 2)
        path = los_path(distance=1.0, azimuth=0.35)
        h = nf_path_matrix(expand_path(path, geom, f), np.array([f]))[:, 0]
        step = np.angle(h[1:] * np.conj(h[:-1]))
        got = np.arcsin(step * lam / (2 * np.pi * geom.spacing))
        offsets = geom.element_offsets()
        midpoints = (offsets[1:] + offsets[:-1]) / 2
        vec = path.distance * direction_vector(path.aod) - midpoints
        want = np.arcsin(vec @ geom.axis / np.linalg.norm(vec, axis=1))
        assert np.ptp(want) > 0.25  # the local angle sweeps along the array
        assert_allclose(got, want, rtol=0, atol=1e-5)


class TestFfPathMatrix:
    """Plane-wave weights from the shared kernel against the closed form."""

    def test_unit_magnitude_and_anchor(self):
        geom = ArrayGeometry(num_elements=16, spacing=0.0015, reference_index=5)
        path = los_path(azimuth=0.7, phase=0.4)
        freqs = np.array([90e9, 110e9])
        mat = plane_wave_matrix(path, geom, freqs)
        assert_allclose(np.abs(mat), 1.0, rtol=1e-12)
        # anchored at the reference element, like the spherical-wave weights
        assert_allclose(mat[5], np.exp(-1j * 0.4) * np.ones(2), atol=1e-14)
        assert_allclose(mat, plane_wave_weights(path, geom, freqs), atol=1e-12)

    def test_endfire_alternates_sign_at_half_wavelength(self):
        f = 100e9
        lam = SPEED_OF_LIGHT / f
        geom = ArrayGeometry(num_elements=6, spacing=lam / 2)
        path = los_path(azimuth=0.0, elevation=np.pi / 2, phase=0.0)
        mat = plane_wave_matrix(path, geom, np.array([f]))
        assert_allclose(mat[:, 0], [1, -1, 1, -1, 1, -1], atol=1e-9)

    def test_broadside_is_constant(self):
        geom = ArrayGeometry(num_elements=8, spacing=0.002)
        path = los_path(azimuth=np.pi / 2, elevation=np.pi / 2, phase=0.2)
        mat = plane_wave_matrix(path, geom, np.array([100e9]))
        assert_allclose(mat, np.exp(-1j * 0.2) * np.ones((8, 1)), atol=1e-12)


ANGLES = st.builds(
    Angles, st.floats(-np.pi, np.pi, exclude_min=True), st.floats(0.0, np.pi)
)


class TestPlaneWaveLimit:
    def test_nf_matches_ff_at_extreme_distance(self):
        f = 100e9
        lam = SPEED_OF_LIGHT / f
        geom = ArrayGeometry(num_elements=8, spacing=lam / 2)
        d = 1e6 * geom.aperture
        path = los_path(distance=d, azimuth=np.deg2rad(20.0), elevation=np.pi / 2,
                        phase=0.5, delay=d / SPEED_OF_LIGHT)
        exp = expand_path(path, geom, f)
        nf = nf_path_matrix(exp, np.array([f]))[:, 0]
        ff = plane_wave_weights(path, geom, np.array([f]))[:, 0]
        dphi = np.angle(nf * np.conj(ff))
        assert np.max(np.abs(dphi)) < 1e-3
        assert_allclose(np.abs(nf), 1.0, atol=1e-5)

    @pytest.mark.parametrize("reference", ["first", "middle", "last"])
    def test_nf_tends_to_ff_for_any_reference_index(self, reference):
        m = 101
        ref = {"first": 0, "middle": m // 2, "last": m - 1}[reference]
        geom = ArrayGeometry(num_elements=m, spacing=0.0015, reference_index=ref)
        path = los_path(distance=1e6, azimuth=np.deg2rad(35.0), phase=0.7)
        freqs = np.array([90e9, 100e9, 110e9])
        nf = nf_path_matrix(expand_path(path, geom, 100e9), freqs)
        ff = plane_wave_matrix(path, geom, freqs)
        assert np.max(np.abs(nf - ff)) < 1e-4
        assert_allclose(ff, plane_wave_weights(path, geom, freqs), atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        num_elements=st.integers(1, 600),
        spacing=st.floats(1e-4, 1e-2),
        axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
            lambda v: np.linalg.norm(v) > 1e-3
        ),
        reference=st.floats(0.0, 1.0),
        model=st.sampled_from(
            [WavefrontModel.LOS, WavefrontModel.SRM, WavefrontModel.SPM]
        ),
        aod=ANGLES,
        aoa=ANGLES,
        phase=st.floats(-np.pi, np.pi),
        carrier=st.floats(60e9, 300e9),
    )
    def test_every_spherical_model_tends_to_the_plane_wave(
        self, num_elements, spacing, axis, reference, model, aod, aoa, phase, carrier
    ):
        """At 1e6 apertures a spherical expansion's excess lengths and phases
        are the plane wave's to within the second-order term
        aperture**2 / distance (times 2*pi*f/c for the phases) plus rounding,
        and its reference row reproduces the path's inputs."""
        geom = ArrayGeometry(
            num_elements=num_elements,
            spacing=spacing,
            axis=np.array(axis) / np.linalg.norm(axis),
            reference_index=round(reference * (num_elements - 1)),
        )
        # a single element has no aperture: place it as a two-element array
        distance = 1e6 * max(geom.aperture, geom.spacing)
        path = PathRecord(
            model=model,
            amplitude=0.7,
            phase=phase,
            delay=distance / SPEED_OF_LIGHT,
            distance=distance,
            aod=aod,
            aoa=aoa,
        )
        nf = expand_path(path, geom, carrier)
        ff = expand_path(path, geom, carrier, force_ff=True)
        wavenumber = 2.0 * np.pi * carrier / SPEED_OF_LIGHT
        length_tol = geom.aperture**2 / distance + 8 * np.spacing(distance)
        assert np.max(np.abs(nf.excess_lengths - ff.excess_lengths)) <= length_tol
        phase_tol = wavenumber * length_tol + 8 * np.spacing(np.abs(ff.phases).max())
        assert np.max(np.abs(nf.phases - ff.phases)) <= phase_tol

        r = geom.reference_index
        assert nf.excess_lengths[r] == 0.0
        assert_allclose(
            [nf.distances[r], nf.amplitudes[r], nf.delays[r], nf.gains[r]],
            [distance, path.amplitude, path.delay, 1.0],
            rtol=4e-16,
        )
        phase_ulps = wavenumber * 4 * np.spacing(distance) + 4e-16
        assert abs(nf.phases[r] - phase) <= phase_ulps
        assert_allclose(nf.aod[r], direction_vector(path.aod), atol=4e-16)
        assert_allclose(nf.aoa[r], direction_vector(path.aoa), atol=4e-16)

    @settings(max_examples=200, deadline=None)
    @given(
        num_elements=st.integers(1, 600),
        spacing=st.floats(1e-4, 1e-2),
        axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
            lambda v: np.linalg.norm(v) > 1e-3
        ),
        reference=st.floats(0.0, 1.0),
        model=st.sampled_from(
            [WavefrontModel.LOS, WavefrontModel.SRM, WavefrontModel.SPM]
        ),
        aod=ANGLES,
        aoa=ANGLES,
        amplitude=st.floats(1e-6, 10.0),
        phase=st.floats(-np.pi, np.pi),
        apertures=st.floats(2.0, 1e6),
        carrier=st.floats(60e9, 300e9),
    )
    def test_spherical_reference_row_is_exact(
        self, num_elements, spacing, axis, reference, model, aod, aoa, amplitude,
        phase, apertures, carrier,
    ):
        """The reference element reproduces the path's distance, amplitude,
        phase and delay bit for bit, with gain 1 and excess length 0."""
        geom = ArrayGeometry(
            num_elements=num_elements,
            spacing=spacing,
            axis=np.array(axis) / np.linalg.norm(axis),
            reference_index=round(reference * (num_elements - 1)),
        )
        distance = apertures * max(geom.aperture, geom.spacing)
        path = PathRecord(
            model=model,
            amplitude=amplitude,
            phase=phase,
            delay=distance / SPEED_OF_LIGHT,
            distance=distance,
            aod=aod,
            aoa=aoa,
        )
        exp = expand_path(path, geom, carrier)
        r = geom.reference_index
        assert exp.distances[r] == path.distance
        assert exp.amplitudes[r] == path.amplitude
        assert exp.phases[r] == path.phase
        assert exp.delays[r] == path.delay
        assert exp.gains[r] == 1.0
        assert exp.excess_lengths[r] == 0.0


class TestBuildATensor:
    def test_dispatch_by_model(self):
        f = np.array([100e9])
        geom = ArrayGeometry(num_elements=8, spacing=0.0015)
        omni = AntennaPattern()
        near = los_path(distance=1.0, azimuth=0.3)
        far = los_path(model=WavefrontModel.FF, azimuth=0.3)
        a = build_a_tensor([near, far], geom, omni, omni, f, 100e9)
        assert a.shape == (8, 2, 1)
        exp = expand_path(near, geom, 100e9)
        assert_allclose(a[:, 0, :], nf_path_matrix(exp, f))
        assert_allclose(a[:, 1, :], plane_wave_weights(far, geom, f), atol=1e-12)

    def test_force_ff_overrides_model(self):
        f = np.array([100e9])
        geom = ArrayGeometry(num_elements=8, spacing=0.0015)
        omni = AntennaPattern()
        near = los_path(distance=1.0, azimuth=0.3)
        a = build_a_tensor([near], geom, omni, omni, f, 100e9, force_ff=True)
        assert_allclose(a[:, 0, :], plane_wave_weights(near, geom, f), atol=1e-12)

    def test_empty_paths_rejected(self):
        geom = ArrayGeometry(num_elements=4, spacing=0.01)
        omni = AntennaPattern()
        with pytest.raises(ValueError):
            build_a_tensor([], geom, omni, omni, np.array([1e9]), 1e9)


def ff_phase_delta(azimuth):
    """The paper's plane-wave inter-element phase difference at
    half-wavelength spacing, ``pi * sin(azimuth)``, azimuth from broadside."""
    return np.pi * np.sin(azimuth)


def nf_phase_delta(azimuth, distance, element_index, wavelength):
    """The paper's second-order spherical-wave phase difference between
    elements m-1 and m at half-wavelength spacing, for a source at
    ``distance`` and ``azimuth`` (from broadside) seen from element 0:

    ``(2*pi/wavelength) * (-spacing*sin(azimuth)
      + (2*m - 1) * spacing**2 * cos(azimuth)**2 / (2*distance))``
    """
    spacing = wavelength / 2.0
    sin_az = np.sin(azimuth)
    curv = (2.0 * element_index - 1.0) * spacing * spacing / (2.0 * distance)
    return 2.0 * np.pi / wavelength * (-spacing * sin_az + curv * (1.0 - sin_az**2))


def phase_increments(distance, azimuth, wavelength, num_elements, force_ff=False):
    """Carrier-phase steps between neighbouring elements of a half-wavelength
    array, from ``expand_path``; ``azimuth`` is measured from broadside."""
    geom = ArrayGeometry(num_elements=num_elements, spacing=wavelength / 2.0)
    path = los_path(distance=distance, azimuth=np.pi / 2 - azimuth)
    carrier = SPEED_OF_LIGHT / wavelength
    return np.diff(expand_path(path, geom, carrier, force_ff=force_ff).phases)


class TestPhaseDeltaDiagnostics:
    def test_plane_wave_delta_closed_form(self):
        for az in (-1.2, -0.3, 0.0, 0.4, 1.5):
            got = phase_increments(2.0, az, 3e-3, 16, force_ff=True)
            assert_allclose(got, -ff_phase_delta(az), rtol=0, atol=1e-12)
            # the spherical formula tends to the plane-wave one far away
            assert_allclose(nf_phase_delta(az, 1e9, 1, 3e-3), -ff_phase_delta(az),
                            rtol=0, atol=1e-8)

    def test_quoted_broadside_value(self):
        # half-wavelength spacing at 3 mm wavelength, 1 m range, first pair
        got = nf_phase_delta(0.0, 1.0, element_index=1, wavelength=3e-3)
        assert_allclose(got, np.pi * 3e-3 / 4.0, rtol=1e-15)
        assert_allclose(got, 2.356e-3, rtol=1e-3)
        assert_allclose(phase_increments(1.0, 0.0, 3e-3, 2), got, rtol=1e-6)

    def test_matches_exact_distance_difference(self):
        # the quadratic form holds to O(spacing^3 / distance^2) against the
        # exact per-element distances of the spherical expansion
        lam = 3e-3
        delta = lam / 2.0
        for d in (0.5, 1.0, 2.0, 5.0):
            for az in (-1.0, -0.3, 0.0, 0.5, 1.2):
                exact = phase_increments(d, az, lam, 11)
                for m in (1, 2, 10):
                    approx = nf_phase_delta(az, d, element_index=m, wavelength=lam)
                    tol = 2 * np.pi / lam * (m * delta) ** 3 / d**2 + 1e-12
                    assert abs(exact[m - 1] - approx) < tol

    def test_reduces_to_quoted_half_wavelength_form(self):
        lam = 2.4e-3
        for az in (-0.9, 0.0, 0.7):
            for d in (0.4, 3.0):
                got = nf_phase_delta(az, d, element_index=1, wavelength=lam)
                want = -np.pi * np.sin(az) + np.pi * lam * (
                    1.0 - np.sin(az) ** 2
                ) / (4.0 * d)
                assert_allclose(got, want, rtol=1e-12)
