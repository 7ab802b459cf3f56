import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from xlmimo import channel, scenario
from xlmimo.channel import (
    FrequencyGrid,
    VARIANTS,
    assemble,
    build_variant_aaf,
    multi_user,
    path_table,
)
from xlmimo.geometry import (
    SPEED_OF_LIGHT,
    Angles,
    ArrayGeometry,
    direction_vector,
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


def los_path(distance=1.5, azimuth=0.4, amplitude=1.0, phase=0.2,
             model=WavefrontModel.LOS, stationarity=Stationarity.STATIONARY,
             aaf=None):
    ang = Angles(azimuth, np.pi / 2)
    return PathRecord(
        model=model, amplitude=amplitude, phase=phase,
        delay=distance / SPEED_OF_LIGHT, distance=distance,
        aod=ang, aoa=ang, stationarity=stationarity, aaf=aaf,
    )


OMNI = AntennaPattern()


def synth(paths, geom, tx, rx, grid, aaf, variant="nf-sns"):
    """``assemble`` from the ``path_table`` of the same arguments."""
    table = path_table(paths, geom, tx, rx, grid.carrier_hz, aaf, variant)
    return assemble(paths, table, grid)


def reference_response(paths, f):
    """Reference-element responses ``amplitude * exp(-2j*pi*f*delay)``, (L, K)."""
    return np.array([p.amplitude for p in paths])[:, None] * np.exp(
        -2j * np.pi * np.outer([p.delay for p in paths], f)
    )


def assert_near_reference(got, want):
    """``got`` is within 5e-12 of max|want| of the reference route's
    ``want`` everywhere, and each complex64 component within one float32
    spacing of that entry's |want|."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.abs(got - want).max() <= 5e-12 * np.abs(want).max()
    spacing = np.spacing(np.abs(want).astype(np.float32))
    got32, want32 = got.astype("<c8"), want.astype("<c8")
    assert np.all(np.abs(got32.real - want32.real) <= spacing)
    assert np.all(np.abs(got32.imag - want32.imag) <= spacing)


class TestFrequencyGrid:
    def test_points_and_derived_quantities(self):
        grid = FrequencyGrid(90e9, 110e9, 2001)
        pts = grid.points()
        assert pts.shape == (2001,)
        assert pts[0] == 90e9 and pts[-1] == 110e9
        assert_allclose(np.diff(pts), 10e6, rtol=1e-12)
        assert grid.carrier_hz == 100e9

    def test_single_point_grid(self):
        grid = FrequencyGrid(100e9, 100e9, 1)
        assert_allclose(grid.points(), [100e9])

    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyGrid(110e9, 90e9, 10)
        with pytest.raises(ValueError):
            FrequencyGrid(0.0, 90e9, 10)
        with pytest.raises(ValueError):
            FrequencyGrid(90e9, 110e9, 0)
        for low, high in ((np.nan, 90e9), (90e9, np.nan), (90e9, np.inf)):
            with pytest.raises(ValueError):
                FrequencyGrid(low, high, 10)


class TestReferenceResponse:
    """A one-element array sums the paths' reference-element responses."""

    @staticmethod
    def response(paths, grid):
        geom = ArrayGeometry(num_elements=1, spacing=0.001)
        return synth(paths, geom, OMNI, OMNI, grid, np.ones((1, len(paths))), "ff-ss")[0]

    def test_full_turn_phase_is_identity(self):
        paths = [los_path(amplitude=1.0, phase=0.0)]
        paths[0].delay = 1e-9
        out = self.response(paths, FrequencyGrid(1e9, 1e9, 1))
        assert_allclose(out[0], 1.0 + 0.0j, atol=1e-12)

    def test_amplitude_and_phase_oracle(self):
        p1, p2 = los_path(amplitude=0.5, phase=0.0), los_path(amplitude=2.0, phase=0.0)
        p1.delay, p2.delay = 3e-9, 7e-9
        grid = FrequencyGrid(92e9, 100e9, 2)
        f = grid.points()
        out = np.array([self.response([p], grid) for p in (p1, p2)])
        want = np.array(
            [0.5 * np.exp(-2j * np.pi * f * 3e-9),
             2.0 * np.exp(-2j * np.pi * f * 7e-9)]
        )
        assert_allclose(out, want, rtol=1e-12)

    def test_two_path_response_periodic_in_delay_gap(self):
        # combined response repeats every 1/delta_tau in frequency
        p1, p2 = los_path(amplitude=1.0), los_path(amplitude=0.7)
        p1.delay, p2.delay = 0.0, 1e-9
        grid = FrequencyGrid(100e9, 101e9, 11)  # 0.1 GHz steps, period 1 GHz
        total = self.response([p1, p2], grid)
        assert_allclose(total[0], total[10], rtol=1e-9)

    def test_empty_paths_rejected(self):
        geom = ArrayGeometry(num_elements=1, spacing=0.001)
        table = path_table([los_path()], geom, OMNI, OMNI, 1e9, np.ones((1, 1)))
        with pytest.raises(ValueError):
            assemble([], table, FrequencyGrid(1e9, 1e9, 1))


def visibility_column(m, rng):
    """The paper's visibility-region column: 1 on a contiguous interval that
    covers a uniform fraction in [0.3, 0.8] of the array, 0 elsewhere."""
    length = max(1, int(round(rng.uniform(0.3, 0.8) * m)))
    start = int(rng.integers(0, m - length + 1))
    out = np.zeros(m)
    out[start : start + length] = 1.0
    return out


class FixedDraws:
    """A generator stand-in returning fixed uniform and integer draws."""

    def __init__(self, fraction, start):
        self.fraction, self.start = fraction, start

    def uniform(self, low, high):
        assert (low, high) == (0.3, 0.8)
        return self.fraction

    def integers(self, low, high):
        assert low == 0 and self.start < high
        return self.start


class TestVisibilityIntervals:
    def test_vr_aaf_pattern(self):
        assert_allclose(channel._vr_column(6, FixedDraws(0.5, 2)), [0, 0, 1, 1, 1, 0])
        assert_allclose(channel._vr_column(3, FixedDraws(0.8, 0)), [1, 1, 0])
        assert_allclose(channel._vr_column(3, FixedDraws(0.3, 2)), [0, 0, 1])

    def test_random_interval_bounds_and_fractions(self):
        m = 100
        for seed in range(300):
            column = channel._vr_column(m, np.random.default_rng(seed))
            on = np.flatnonzero(column)
            assert set(np.unique(column)) == {0.0, 1.0}
            assert np.array_equal(on, np.arange(on[0], on[-1] + 1))  # contiguous
            assert 29 <= on.size <= 81


class TestBuildVariantAAF:
    def test_ss_variants_are_ones(self):
        paths = [los_path(stationarity=Stationarity.NON_STATIONARY)]
        for variant in ("nf-ss", "ff-ss"):
            out = build_variant_aaf(paths, 8, variant)
            assert np.all(out == 1.0)

    def test_vr_is_binary_with_stationary_passthrough(self):
        paths = [
            los_path(stationarity=Stationarity.STATIONARY),
            los_path(stationarity=Stationarity.NON_STATIONARY),
        ]
        out = build_variant_aaf(paths, 64, "vr", seed=3)
        assert np.all(out[:, 0] == 1.0)
        assert set(np.unique(out[:, 1])) <= {0.0, 1.0}
        on = np.flatnonzero(out[:, 1])
        assert on.size >= 1
        assert np.array_equal(on, np.arange(on[0], on[-1] + 1))  # contiguous

    def test_vr_matches_per_column_stream_recomputation(self):
        paths = [
            los_path(stationarity=Stationarity.NON_STATIONARY),
            los_path(stationarity=Stationarity.STATIONARY),
            los_path(stationarity=Stationarity.NON_STATIONARY),
        ]
        m, seed, key = 97, 13, (2,)
        out = build_variant_aaf(paths, m, "vr", seed=seed, stream_key=key)
        want = np.ones((m, 3))
        for l in (0, 2):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(*key, l)))
            want[:, l] = visibility_column(m, rng)
        assert np.array_equal(out, want)

    def test_fixed_override_honored(self):
        aaf = np.linspace(0.2, 1.0, 16)
        paths = [los_path(stationarity=Stationarity.NON_STATIONARY, aaf=aaf)]
        for variant in ("vr", "nf-sns"):
            out = build_variant_aaf(paths, 16, variant, seed=1)
            assert_allclose(out[:, 0], aaf)

    def test_sns_variant_generates_unit_interval_values(self):
        paths = [los_path(stationarity=Stationarity.NON_STATIONARY)]
        out = build_variant_aaf(paths, 128, "nf-sns", seed=5)
        assert np.all((out >= 0.0) & (out <= 1.0))
        again = build_variant_aaf(paths, 128, "nf-sns", seed=5)
        assert np.array_equal(out, again)

    def test_seed_required(self):
        paths = [los_path(stationarity=Stationarity.NON_STATIONARY)]
        for variant in ("vr", "nf-sns"):
            with pytest.raises(ValueError):
                build_variant_aaf(paths, 8, variant)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            build_variant_aaf([los_path()], 8, "nf")


class TestAssemble:
    def test_brute_force_small_case(self):
        # fully independent assembly: explicit positions, distances, ratios
        # and phases, summed with python loops
        geom = ArrayGeometry(num_elements=3, spacing=0.05, reference_index=1)
        grid = FrequencyGrid(95e9, 105e9, 4)
        paths = [
            los_path(distance=1.1, azimuth=0.3, amplitude=0.8, phase=0.5),
            los_path(distance=2.4, azimuth=-0.9, amplitude=0.3, phase=-1.2),
        ]
        out = synth(paths, geom, OMNI, OMNI, grid, np.ones((3, 2)), "nf-ss")
        freqs = grid.points()
        want = np.zeros((3, 4), dtype=complex)
        for l, p in enumerate(paths):
            src = p.distance * direction_vector(p.aod)
            for m in range(3):
                offset = (m - 1) * 0.05 * np.array([1.0, 0.0, 0.0])
                d_m = np.linalg.norm(src - offset)
                for k, f in enumerate(freqs):
                    prop = 2 * np.pi * f * (d_m - p.distance) / SPEED_OF_LIGHT
                    want[m, k] += (
                        p.amplitude
                        * (p.distance / d_m)
                        * np.exp(-1j * (prop + p.phase))
                        * np.exp(-2j * np.pi * f * p.delay)
                    )
        assert out.shape == (3, 4) and out.dtype == complex
        assert_allclose(out, want, rtol=1e-10)

    def test_reference_element_sums_reference_responses(self):
        geom = ArrayGeometry(num_elements=8, spacing=0.002, reference_index=2)
        grid = FrequencyGrid(90e9, 110e9, 5)
        paths = [
            los_path(distance=1.0, azimuth=0.2, amplitude=0.9, phase=0.4),
            los_path(distance=2.0, azimuth=-0.5, amplitude=0.4, phase=1.7,
                     model=WavefrontModel.SPM),
        ]
        out = synth(paths, geom, OMNI, OMNI, grid, np.ones((8, 2)), "nf-ss")
        f = grid.points()
        want = sum(
            p.amplitude * np.exp(-1j * (2 * np.pi * f * p.delay + p.phase))
            for p in paths
        )
        assert_allclose(out[2, :], want, rtol=1e-10)

    def test_single_plane_wave_magnitude_is_flat(self):
        geom = ArrayGeometry(num_elements=16, spacing=0.0015)
        grid = FrequencyGrid(100e9, 100e9, 1)
        out = synth([los_path(amplitude=0.7)], geom, OMNI, OMNI, grid,
                       np.ones((16, 1)), "ff-ss")
        assert_allclose(np.abs(out), 0.7, rtol=1e-12)

    def test_ff_variant_matches_plane_wave_weights(self):
        geom = ArrayGeometry(num_elements=8, spacing=0.0015)
        grid = FrequencyGrid(95e9, 105e9, 3)
        p = los_path(distance=1.2, azimuth=0.6, amplitude=0.5)
        out = synth([p], geom, OMNI, OMNI, grid, np.ones((8, 1)), "ff-ss")
        f = grid.points()
        # closed form: exp(j(2*pi*f*spacing*u*(m - ref)/c - phase))
        u = np.dot(direction_vector(p.aod), geom.axis)
        ramp = 2 * np.pi * np.outer(np.arange(8), f) * 0.0015 * u / SPEED_OF_LIGHT
        want = np.exp(1j * (ramp - p.phase)) * reference_response([p], f)[0][None, :]
        assert_allclose(out, want, rtol=1e-12)

    def test_zeroed_attenuation_removes_path(self):
        geom = ArrayGeometry(num_elements=4, spacing=0.01)
        grid = FrequencyGrid(90e9, 110e9, 3)
        paths = [los_path(distance=1.0, azimuth=0.1),
                 los_path(distance=2.0, azimuth=0.7, amplitude=0.5)]
        aaf = np.ones((4, 2))
        aaf[:, 0] = 0.0
        masked = synth(paths, geom, OMNI, OMNI, grid, aaf)
        only_second = synth([paths[1]], geom, OMNI, OMNI, grid, np.ones((4, 1)))
        assert_allclose(masked, only_second, rtol=1e-12)

    def test_generated_variant_is_deterministic(self):
        geom = ArrayGeometry(num_elements=32, spacing=0.002)
        grid = FrequencyGrid(90e9, 110e9, 4)
        paths = [los_path(stationarity=Stationarity.NON_STATIONARY)]
        a, b = (
            synth(paths, geom, OMNI, OMNI, grid,
                     build_variant_aaf(paths, 32, "nf-sns", seed=9), "nf-sns")
            for _ in range(2)
        )
        assert np.array_equal(a, b)

    def test_validation(self):
        geom = ArrayGeometry(num_elements=4, spacing=0.01)
        grid = FrequencyGrid(90e9, 110e9, 3)
        with pytest.raises(ValueError):
            synth([los_path()], geom, OMNI, OMNI, grid, np.ones((4, 1)), "bogus")
        with pytest.raises(ValueError):
            synth([los_path()], geom, OMNI, OMNI, grid, np.ones((3, 1)))
        with pytest.raises(ValueError):
            synth([los_path()], geom, OMNI, OMNI, grid, -np.ones((4, 1)))
        with pytest.raises(ValueError):
            synth([los_path()], geom, OMNI, OMNI, grid, np.full((4, 1), np.nan))


class TestStreamingAssembly:
    """``assemble`` against the reference route, the einsum of the (M, L, K)
    weight tensor with the AAF and the reference-element responses."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize(
        "elements, num_paths, points",
        [(301, 5, 201), (2048, 3, 21), (7, 1, 5)],
        ids=["301x5x201", "2048x3x21", "7x1x5"],
    )
    def test_bit_identical_to_tensor_route(self, variant, elements, num_paths, points):
        rng = np.random.default_rng(elements + num_paths)
        models = (WavefrontModel.LOS, WavefrontModel.SRM, WavefrontModel.SPM,
                  WavefrontModel.FF)
        paths = [
            los_path(
                distance=rng.uniform(1.0, 6.0), azimuth=rng.uniform(-1.2, 1.2),
                amplitude=rng.uniform(0.05, 1.0), phase=rng.uniform(-np.pi, np.pi),
                model=models[l % 4], stationarity=Stationarity.NON_STATIONARY,
            )
            for l in range(num_paths)
        ]
        geom = ArrayGeometry(num_elements=elements, spacing=1.364e-3,
                             reference_index=elements // 3)
        grid = FrequencyGrid(90e9, 110e9, points)
        tx = AntennaPattern("gaussian_lobe", 10.0, np.array([0.0, 1.0, 0.0]), 1.0, 1.0)
        rx = AntennaPattern("gaussian_lobe", 4.0, np.array([0.6, -0.8, 0.0]), 0.7, 1.3)
        aaf = build_variant_aaf(paths, elements, variant, seed=4)
        aaf[:, 0] = 0.0  # a path no element sees
        f = grid.points()
        tensor = build_a_tensor(paths, geom, tx, rx, f, grid.carrier_hz,
                                force_ff=variant in ("ff-sns", "ff-ss", "vr"))
        want = np.einsum("mlk,ml,lk->mk", tensor, aaf, reference_response(paths, f))
        table = path_table(paths, geom, tx, rx, grid.carrier_hz, aaf, variant)
        assert_near_reference(assemble(paths, table, grid), want)

    def test_peak_memory_is_response_plus_block_tables(self):
        paths, table, grid = preset_user("case3", "nf-sns")
        response = table.aaf.shape[0] * grid.num_points * 16
        tracemalloc.start()
        try:
            assemble(paths, table, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # synthesize's size guard budgets the response and four (M, 64)
        # complex128 tables per user; a padded (M, K/64, 64) block tensor
        # would double the response.
        assert response < peak < response + 4 * table.aaf.shape[0] * 64 * 16


def preset_user(name, variant, reference=None, num_points=None, flat=False):
    """The first user of a preset as ``(paths, table, grid)``, with optional
    overrides of the reference element ("first", "middle" or "last"), the
    grid size, and a single-frequency band (``f_high == f_low``)."""
    cfg = scenario.preset(name)
    cfg["variant"], cfg["seed"] = variant, 11
    m = cfg["array"]["num_elements"]
    if reference is not None:
        cfg["array"]["reference_index"] = {"first": 0, "middle": m // 2, "last": m - 1}[reference]
    if num_points is not None:
        cfg["grid"]["num_points"] = num_points
    if flat:
        cfg["grid"]["f_high_hz"] = cfg["grid"]["f_low_hz"]
    cfg = scenario.validate_config(cfg)
    geometry, grid = scenario.build_geometry(cfg), scenario.build_grid(cfg)
    tx, rx = scenario.build_patterns(cfg)
    paths = scenario.build_all_paths(cfg)[0]
    aaf = build_variant_aaf(paths, m, variant, params=scenario.build_aaf_params(cfg),
                            seed=cfg["seed"], stream_key=(0,))
    return paths, path_table(paths, geometry, tx, rx, grid.carrier_hz, aaf, variant), grid


def einsum_route(paths, table, grid):
    """The per-path reference: ``nf_path_matrix`` times the AAF column times
    the reference-element response, one einsum per path."""
    f = grid.points()
    h_ref = reference_response(paths, f)
    out = np.zeros((table.aaf.shape[0], f.size), dtype=complex)
    for l, expansion in enumerate(table.expansions):
        out += np.einsum("mk,m,k->mk", nf_path_matrix(expansion, f), table.aaf[:, l], h_ref[l])
    return out


def longdouble_oracle(paths, table, grid):
    """``sum_l amplitude * gain_m * aaf_ml * exp(-j(2*pi*f_k*tau_m + phase_ref))``
    with ``tau_m = delay + excess_m / c``, summed in ``np.clongdouble`` from
    the same float64 inputs and the frequencies of ``grid.points()``.  The
    phase (up to about 1e4 rad) is formed and reduced to [-pi, pi] in
    extended precision; float64 cosine and sine of the reduced phase are
    then accurate to about 1e-16."""
    ld = np.longdouble
    two_pi = 8 * np.arctan(ld(1))
    f = grid.points().astype(ld)
    real = np.zeros((table.aaf.shape[0], f.size), dtype=ld)
    imag = np.zeros_like(real)
    for l, (p, e) in enumerate(zip(paths, table.expansions)):
        tau = ld(p.delay) + e.excess_lengths.astype(ld) / ld(SPEED_OF_LIGHT)
        coef = (ld(p.amplitude) * e.gains.astype(ld) * table.aaf[:, l].astype(ld))[:, None]
        cycles = np.multiply.outer(tau, f)
        cycles -= np.round(cycles)
        phase = (two_pi * cycles + ld(e.phases[e.reference_index])).astype(float)
        real += coef * np.cos(phase)
        imag -= coef * np.sin(phase)
    return real + 1j * imag


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="np.longdouble is no wider than float64 here",
)
class TestRecurrenceOracle:
    """The block recurrence of ``assemble`` against an extended-precision
    oracle: at most twice the reference route's error and 5e-12 of max|H|,
    and within one float32 spacing of the reference route in complex64."""

    @staticmethod
    def check(paths, table, grid):
        got = assemble(paths, table, grid)
        want = einsum_route(paths, table, grid)
        oracle = longdouble_oracle(paths, table, grid)
        error = np.abs((got - oracle).astype(complex)).max()
        assert error <= 2 * np.abs((want - oracle).astype(complex)).max()
        assert error <= 5e-12 * np.abs(got).max()
        assert_near_reference(got, want)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("name", scenario.preset_names())
    def test_every_preset_and_variant(self, name, variant):
        self.check(*preset_user(name, variant))

    @pytest.mark.parametrize("variant", ["nf-sns", "vr"])
    @pytest.mark.parametrize("num_points", [1, 63, 64, 65, 129, 2001])
    @pytest.mark.parametrize("reference", ["first", "middle", "last"])
    def test_reference_element_and_grid_size(self, reference, num_points, variant):
        self.check(*preset_user("case4", variant, reference, num_points))

    @pytest.mark.parametrize("reference", ["first", "middle", "last"])
    def test_single_frequency_band_with_many_points(self, reference):
        self.check(*preset_user("case4", "nf-sns", reference, num_points=65, flat=True))



class TestMultiUser:
    def test_stacking(self):
        geom = ArrayGeometry(num_elements=4, spacing=0.01)
        grid = FrequencyGrid(90e9, 110e9, 3)
        h1, h2 = (
            synth([los_path(azimuth=az)], geom, OMNI, OMNI, grid,
                     np.ones((4, 1)), "nf-ss")
            for az in (0.1, 0.9)
        )
        pool = multi_user([h1, h2])
        assert pool.shape == (2, 4, 3) and pool.dtype == np.dtype("<c8")
        # rounded exactly as the channel.bin writer rounds
        assert np.array_equal(pool[0], h1.astype("<c8"))
        assert np.array_equal(pool[1], h2.astype("<c8"))

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            multi_user([np.ones((4, 3)), np.ones((4, 2))])
        with pytest.raises(ValueError):
            multi_user([np.ones((4, 3)), np.ones((5, 3))])
        with pytest.raises(ValueError):
            multi_user([np.ones((1, 4, 3))])
        with pytest.raises(ValueError):
            multi_user([])


class TestPathTable:
    def test_spherical_rows_match_expansion(self):
        geom = ArrayGeometry(num_elements=8, spacing=0.01, reference_index=3)
        p = los_path(distance=1.3, azimuth=0.5, amplitude=0.6)
        aaf = np.linspace(0.5, 1.0, 8)[:, None]
        table = path_table([p], geom, OMNI, OMNI, 100e9, aaf)
        exp = expand_path(p, geom, 100e9)
        assert_allclose(table.amplitudes[:, 0], exp.amplitudes * aaf[:, 0],
                        rtol=1e-12)
        assert_allclose(table.delays[:, 0], exp.delays, rtol=1e-12)
        assert_allclose(table.phases[:, 0], exp.phases, rtol=1e-12)
        assert_allclose(table.distances[:, 0], exp.distances, rtol=1e-12)

    def test_plane_wave_rows_are_constant_with_linear_phase(self):
        geom = ArrayGeometry(num_elements=6, spacing=0.0015)
        p = los_path(distance=2.0, azimuth=0.4, amplitude=0.3, phase=0.9,
                     model=WavefrontModel.FF)
        table = path_table([p], geom, OMNI, OMNI, 100e9, np.ones((6, 1)))
        assert np.all(table.amplitudes == 0.3)
        assert np.all(table.delays == p.delay)
        assert np.all(table.distances == 2.0)
        u = np.dot(direction_vector(p.aod), [1.0, 0.0, 0.0])
        step = 2 * np.pi * 100e9 * 0.0015 * u / SPEED_OF_LIGHT
        assert_allclose(table.phases[:, 0], 0.9 - step * np.arange(6), rtol=1e-12)

    @pytest.mark.parametrize("reference", ["first", "middle", "last"])
    def test_plane_wave_phases_are_far_limit_of_spherical(self, reference):
        m = 101
        ref = {"first": 0, "middle": m // 2, "last": m - 1}[reference]
        geom = ArrayGeometry(num_elements=m, spacing=0.0015, reference_index=ref)
        p = los_path(distance=1e6, azimuth=0.6, phase=-0.4)
        ones = np.ones((m, 1))
        nf = path_table([p], geom, OMNI, OMNI, 100e9, ones)
        ff = path_table([p], geom, OMNI, OMNI, 100e9, ones, variant="ff-ss")
        assert np.max(np.abs(np.exp(1j * nf.phases) - np.exp(1j * ff.phases))) < 1e-4
        assert ff.phases[ref, 0] == p.phase

    @settings(max_examples=60, deadline=None)
    @given(
        num_elements=st.integers(1, 12),
        reference=st.floats(0.0, 1.0),
        paths=st.lists(
            st.tuples(
                st.sampled_from(list(WavefrontModel)),
                st.floats(0.3, 3.0),  # distance
                st.floats(-np.pi + 0.01, np.pi),  # aod azimuth
                st.floats(0.3, np.pi - 0.3),  # aod elevation
                st.floats(-np.pi + 0.01, np.pi),  # aoa azimuth
                st.floats(0.01, 2.0),  # amplitude
                st.floats(-np.pi, np.pi),  # phase
            ),
            min_size=1,
            max_size=4,
        ),
        lobes=st.booleans(),
        variant=st.sampled_from(["nf-sns", "ff-sns"]),
        carrier=st.floats(60e9, 300e9),
        aaf_seed=st.integers(0, 2**16),
    )
    def test_consistent_with_assembled_channel_at_carrier(
        self, num_elements, reference, paths, lobes, variant, carrier, aaf_seed
    ):
        # reconstruction identity: H(f_c) = sum_l amp * exp(-j(phase +
        # 2*pi*f_c*delay_ref)) for every wavefront model, with or without
        # plane-wave forcing
        ref = min(int(reference * num_elements), num_elements - 1)
        geom = ArrayGeometry(num_elements=num_elements, spacing=0.002,
                             reference_index=ref)
        grid = FrequencyGrid(carrier, carrier, 1)
        records = [
            PathRecord(
                model=model, amplitude=amp, phase=phase,
                delay=d / SPEED_OF_LIGHT, distance=d,
                aod=Angles(az, el), aoa=Angles(aoa_az, np.pi / 2),
            )
            for model, d, az, el, aoa_az, amp, phase in paths
        ]
        if lobes:
            tx = AntennaPattern(kind="gaussian_lobe", gain_dbi=5.0,
                                boresight=[0.0, 1.0, 0.0], hpbw_az=0.5, hpbw_el=0.5)
            rx = AntennaPattern(kind="gaussian_lobe", gain_dbi=3.0,
                                boresight=[0.0, -1.0, 0.0], hpbw_az=0.4, hpbw_el=0.6)
        else:
            tx = rx = OMNI
        aaf = np.random.default_rng(aaf_seed).uniform(0.0, 1.0, (num_elements, len(records)))
        table = path_table(records, geom, tx, rx, grid.carrier_hz, aaf, variant=variant)
        chan = assemble(records, table, grid)
        delays_ref = np.array([p.delay for p in records])
        terms = table.amplitudes * np.exp(
            -1j * (table.phases + 2 * np.pi * grid.carrier_hz * delays_ref)
        )
        scale = np.sum(np.abs(terms), axis=1)
        assert_allclose(chan[:, 0], terms.sum(axis=1), rtol=1e-10,
                        atol=1e-10 * scale.max())

    def test_pattern_ratio_in_amplitudes(self):
        geom = ArrayGeometry(num_elements=2, spacing=0.2)
        p = los_path(distance=1.0, azimuth=0.0)
        pat = AntennaPattern(kind="gaussian_lobe", gain_dbi=5.0,
                             boresight=[1.0, 0.0, 0.0], hpbw_az=0.3, hpbw_el=0.3)
        table = path_table([p], geom, pat, OMNI, 100e9, np.ones((2, 1)))
        exp = expand_path(p, geom, 100e9)
        ft = pat.field_gain(exp.aod)
        assert_allclose(table.amplitudes[:, 0],
                        exp.amplitudes * ft / ft[0], rtol=1e-12)

    def test_validation(self):
        geom = ArrayGeometry(num_elements=4, spacing=0.01)
        with pytest.raises(ValueError):
            path_table([], geom, OMNI, OMNI, 100e9, np.ones((4, 0)))
        with pytest.raises(ValueError):
            path_table([los_path()], geom, OMNI, OMNI, 100e9, np.ones((3, 1)))


def test_variant_registry_is_stable():
    assert VARIANTS == ("nf-sns", "nf-ss", "ff-sns", "ff-ss", "vr")
