"""End-to-end acceptance checks for the synthesis library.

One test per headline property, covering the boundary-distance table,
the phase-expansion diagnostics, hybrid reflected/scattered wavefront
separation, the correlated-attenuation generator, capacity closed forms,
near-field versus far-field model ordering, non-stationarity model
comparison, metric unit values, and CLI byte determinism.

Each test prints the measured values it asserts against; run
``pytest tests/test_acceptance.py -v -s`` to see them alongside the
per-criterion pass/fail lines.
"""

import time
import warnings

import numpy as np
import scipy.stats

from xlmimo import channel as ch
from xlmimo import scenario as sc
from xlmimo.channel import build_variant_aaf, path_table
from xlmimo.cli import main
from xlmimo.geometry import (
    SPEED_OF_LIGHT,
    Angles,
    ArrayGeometry,
    Plane,
    angles_from_vector,
    direction_vector,
    mirror_point,
    rayleigh_distance,
)
from xlmimo.metrics import (
    avg_spatial_correlation,
    cvm_distance,
    demmel_condition,
    entropy_capacity,
    multiuser_trials,
    path_gain_db,
    rician_k_db,
    rms_delay_spread,
)
from xlmimo.nearfield import (
    AntennaPattern,
    PathRecord,
    Stationarity,
    WavefrontModel,
    expand_path,
)
from xlmimo.scenario import build_aaf_params
from xlmimo.sns import acf, fit_dcorr, generate_aaf


def los_record(distance, azimuth, carrier_hz=100e9, **overrides):
    lam = SPEED_OF_LIGHT / carrier_hz
    fields = dict(
        model=WavefrontModel.LOS,
        stationarity=Stationarity.STATIONARY,
        amplitude=lam / (4 * np.pi * distance),
        phase=0.0,
        delay=distance / SPEED_OF_LIGHT,
        distance=distance,
        aod=Angles(azimuth, np.pi / 2),
        aoa=Angles(azimuth, np.pi / 2),
    )
    fields.update(overrides)
    return PathRecord(**fields)


def test_01_rayleigh_distances_match_quoted_values():
    start = time.time()
    cases = [
        (301, 1.364e-3, 100e9, 111.6),
        (531, 1.136e-3, 132e9, 319.2),
    ]
    computed = []
    for num_elements, spacing, carrier, quoted in cases:
        geom = ArrayGeometry(num_elements=num_elements, spacing=spacing)
        got = rayleigh_distance(geom.aperture, carrier)
        computed.append(got)
        print(
            f"ACCEPTANCE 1 rayleigh: M={num_elements} spacing={spacing*1e3:.3f}mm "
            f"-> {got:.3f} m (quoted {quoted} m, "
            f"rel err {abs(got - quoted) / quoted:.2e})"
        )
    for (_, _, _, quoted), got in zip(cases, computed):
        assert abs(got - quoted) / quoted < 0.005
    assert time.time() - start < 1.0


def ff_phase_delta(azimuth):
    """The paper's plane-wave phase difference between neighbouring elements
    at half-wavelength spacing, azimuth from broadside."""
    return np.pi * np.sin(azimuth)


def nf_phase_delta(azimuth, distance, wavelength):
    """The paper's second-order spherical-wave phase difference between
    elements 0 and 1 at half-wavelength spacing, for a source at
    ``distance`` and ``azimuth`` (from broadside) seen from element 0."""
    return -np.pi * np.sin(azimuth) + np.pi * wavelength * (
        1.0 - np.sin(azimuth) ** 2
    ) / (4.0 * distance)


def test_02_phase_delta_diagnostics_match_exact_geometry():
    start = time.time()
    lam = SPEED_OF_LIGHT / 100e9
    delta = lam / 2.0
    geom = ArrayGeometry(num_elements=301, spacing=delta)

    # plane-wave branch: the expansion's phase ramp is the paper's expression
    plane_worst = 0.0
    for phi in np.linspace(-np.pi / 2, np.pi / 2, 721):
        exp = expand_path(los_record(2.0, np.pi / 2 - phi), geom, 100e9, force_ff=True)
        plane_worst = max(
            plane_worst, np.max(np.abs(np.diff(exp.phases) + ff_phase_delta(phi)))
        )
    assert plane_worst < 1e-9

    # spherical branch: compare the quadratic expansion, evaluated with the
    # local distance/angle seen from the previous element, against phase
    # increments from exact per-element distances
    worst = 0.0
    for d in (0.5, 0.75, 1.0, 2.0, 3.5, 5.0):
        for phi in (-1.1, -0.7, -0.2, 0.0, 0.4, 0.9, 1.1):
            # phi is measured from broadside; the array runs along +x
            path = los_record(d, np.pi / 2 - phi)
            exp = expand_path(path, geom, 100e9)
            increments = 2 * np.pi / lam * np.diff(exp.distances)
            source = d * direction_vector(path.aod)
            for m in range(1, geom.num_elements):
                local = source - (geom.origin + geom.element_offsets()[m - 1])
                local_d = float(np.linalg.norm(local))
                local_phi = float(np.arcsin(local[0] / local_d))
                pred = nf_phase_delta(local_phi, local_d, lam)
                worst = max(worst, abs(pred - increments[m - 1]))
    print(
        f"ACCEPTANCE 2 phase deltas: plane-wave worst {plane_worst:.2e} rad; "
        f"spherical worst "
        f"deviation {worst:.2e} rad over d in [0.5, 5] m, M=301 (tol 1e-3)"
    )
    assert worst < 1e-3
    assert time.time() - start < 5.0


def test_03_reflected_wavefront_beats_scattered_point_source():
    start = time.time()
    carrier = 100e9
    lam = SPEED_OF_LIGHT / carrier
    geom = ArrayGeometry(num_elements=301, spacing=1.364e-3)
    rx = np.array([0.2, 0.645, 0.0])
    plane = Plane(point=[0.0, 1.2, 0.0], normal=[0.0, -1.0, 0.0])

    # mirror-image description of the reflected path
    image = mirror_point(rx, plane)
    image_dist = float(np.linalg.norm(image))
    reflected = PathRecord(
        model=WavefrontModel.SRM,
        stationarity=Stationarity.NON_STATIONARY,
        amplitude=lam / (4 * np.pi * image_dist),
        phase=0.0,
        delay=image_dist / SPEED_OF_LIGHT,
        distance=image_dist,
        aod=angles_from_vector(image / image_dist),
        aoa=angles_from_vector((rx - image) / np.linalg.norm(rx - image)),
    )

    # the same bounce recast as a point source at the specular point
    bounce = (plane.point[1] / image[1]) * image
    leg_tx = float(np.linalg.norm(bounce))
    leg_rx = float(np.linalg.norm(rx - bounce))
    scattered = PathRecord(
        model=WavefrontModel.SPM,
        stationarity=Stationarity.NON_STATIONARY,
        amplitude=lam / (4 * np.pi * (leg_tx + leg_rx)),
        phase=0.0,
        delay=(leg_tx + leg_rx) / SPEED_OF_LIGHT,
        distance=leg_tx,
        aod=angles_from_vector(bounce / leg_tx),
        aoa=angles_from_vector((rx - bounce) / leg_rx),
    )

    # exact per-element lengths via an independent construction: mirror the
    # element instead of the receiver
    exact_lengths = np.array(
        [
            np.linalg.norm(mirror_point(p, plane) - rx)
            for p in geom.origin + geom.element_offsets()
        ]
    )
    phase_exact = 2 * np.pi / lam * exact_lengths
    phase_srm = 2 * np.pi / lam * expand_path(reflected, geom, carrier).distances
    phase_spm = 2 * np.pi / lam * (
        expand_path(scattered, geom, carrier).distances + leg_rx
    )

    dev_phase = np.max(np.abs(phase_srm - phase_exact))
    curv_exact = np.abs(np.diff(phase_exact, 2))
    curv_srm = np.abs(np.diff(phase_srm, 2))
    curv_spm = np.abs(np.diff(phase_spm, 2))
    dev_curv = np.max(np.abs(curv_srm - curv_exact))
    ratio = np.min(curv_spm / curv_srm)
    print(
        f"ACCEPTANCE 3 hybrid separation: mirror-model phase matches exact "
        f"two-segment geometry to {dev_phase:.2e} rad (curvature to "
        f"{dev_curv:.2e}); point-source curvature exceeds it everywhere "
        f"(min ratio {ratio:.2f})"
    )
    assert dev_phase < 1e-3
    assert dev_curv < 1e-3
    assert np.all(curv_spm > curv_srm)
    assert time.time() - start < 10.0


def test_04_correlated_attenuation_generator_statistics():
    start = time.time()
    p, q, d_corr = 1.0, 1.03, 0.05
    num_elements = 2048
    num_seeds = 200

    pooled = []
    fits = []
    for seed in range(num_seeds):
        values = generate_aaf(num_elements, p, q, d_corr, np.random.default_rng(seed))
        draws = np.random.default_rng(seed).beta(p, q, num_elements)
        # the output is a spatial rearrangement of the marginal draws
        assert np.array_equal(np.sort(values), np.sort(draws)), seed
        pooled.append(values)
        fits.append(fit_dcorr(acf(values)))
    pooled = np.concatenate(pooled)
    ks = scipy.stats.kstest(pooled, scipy.stats.beta(p, q).cdf)
    mean_fit = float(np.mean(fits))
    elapsed = time.time() - start
    print(
        f"ACCEPTANCE 4 attenuation generator: multiset exact over "
        f"{num_seeds} seeds; pooled KS p={ks.pvalue:.3f} (alpha 0.01); "
        f"mean fitted decay {mean_fit:.4f} for true {d_corr} "
        f"(allowed [{0.6 * d_corr:.3f}, {1.4 * d_corr:.3f}]); {elapsed:.1f} s"
    )
    assert ks.pvalue > 0.01
    assert 0.6 * d_corr <= mean_fit <= 1.4 * d_corr
    assert elapsed < 60.0


def test_05_capacity_and_demmel_closed_forms():
    start = time.time()
    num_users, num_elements = 4, 8
    n = np.arange(num_users)[:, None]
    m = np.arange(num_elements)[None, :]
    # orthogonal equal-gain rows: discrete-Fourier steering across users
    values = np.exp(2j * np.pi * n * m / num_elements)[:, :, None]

    capacity = entropy_capacity(values, snr_db=15.0)
    closed_form = num_users * np.log2(1.0 + 10.0**1.5)
    demmel = demmel_condition(values)
    print(
        f"ACCEPTANCE 5 closed forms: capacity {capacity:.4f} bps/Hz "
        f"(closed form {closed_form:.4f}, quoted 20.11); "
        f"Demmel {demmel:.12f} (closed form {np.sqrt(num_users):.0f})"
    )
    assert abs(capacity - closed_form) < 1e-9
    assert abs(capacity - 20.11) < 0.01
    assert abs(demmel - np.sqrt(num_users)) < 1e-9
    assert time.time() - start < 5.0


def test_06_far_field_model_underestimates_capacity():
    start = time.time()
    cfg = sc.preset("case3")
    cfg["grid"]["num_points"] = 201

    results = {}
    for variant in ("nf-ss", "ff-ss"):
        vcfg = sc.validate_config(dict(cfg, variant=variant))
        geom = sc.build_geometry(vcfg)
        grid = sc.build_grid(vcfg)
        tx, rx = sc.build_patterns(vcfg)
        values = np.stack(
            [
                ch.assemble(
                    paths,
                    path_table(paths, geom, tx, rx, grid.carrier_hz,
                               np.ones((geom.num_elements, len(paths))), variant),
                    grid,
                )
                for paths in sc.build_all_paths(vcfg)
            ]
        )
        rng = np.random.default_rng(np.random.SeedSequence(7))
        capacity, demmel = multiuser_trials(values, 4, 200, rng)
        results[variant] = (np.sort(capacity), np.sort(demmel))

    nf_cap, nf_dem = results["nf-ss"]
    ff_cap, ff_dem = results["ff-ss"]
    cap_gap = np.min(nf_cap - ff_cap)
    dem_gap = np.min(ff_dem - nf_dem)
    elapsed = time.time() - start
    print(
        f"ACCEPTANCE 6 model ordering: plane-wave capacity CDF sits below "
        f"spherical everywhere (min sorted gap {cap_gap:.2f} bps/Hz; means "
        f"{ff_cap.mean():.2f} vs {nf_cap.mean():.2f}); plane-wave Demmel "
        f"exceeds spherical (min sorted gap {dem_gap:.2f}); {elapsed:.1f} s"
    )
    assert np.all(ff_cap < nf_cap)
    assert ff_dem.mean() > nf_dem.mean()
    assert np.all(ff_dem > nf_dem)
    assert elapsed < 300.0


def test_07_nonstationarity_statistics_beat_baseline_models():
    start = time.time()
    carrier = 100e9
    lam = SPEED_OF_LIGHT / carrier
    geom = ArrayGeometry(num_elements=301, spacing=lam / 2)
    omni = AntennaPattern()
    params = build_aaf_params({})

    rng = np.random.default_rng(123)
    paths = [los_record(2.0, 0.3)]
    for _ in range(19):
        dist = float(rng.uniform(2.2, 5.0))
        total = dist * float(rng.uniform(1.0, 1.6))
        loss = float(rng.uniform(5.0, 15.0))
        ang = Angles(float(rng.uniform(-1.1, 1.1)), np.pi / 2)
        paths.append(
            PathRecord(
                model=WavefrontModel.SRM,
                stationarity=Stationarity.NON_STATIONARY,
                amplitude=lam / (4 * np.pi * total) * 10 ** (-loss / 20),
                phase=float(rng.uniform(0.0, 2 * np.pi)),
                delay=total / SPEED_OF_LIGHT,
                distance=dist,
                aod=ang,
                aoa=ang,
            )
        )

    def pooled_metrics(variant, seed, reps=10):
        # pool per-element metrics over independent realizations; a single
        # 301-element realization is too correlated for stable CDF distances
        pools = {"gain": [], "kfactor": [], "delay_spread": []}
        for rep in range(reps):
            aaf = build_variant_aaf(
                paths, geom.num_elements, variant,
                params=params, seed=seed, stream_key=(rep,),
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                table = path_table(
                    paths, geom, omni, omni, carrier, aaf, variant=variant
                )
                pools["gain"].append(path_gain_db(table.amplitudes))
                pools["kfactor"].append(rician_k_db(table.amplitudes))
                pools["delay_spread"].append(
                    rms_delay_spread(table.amplitudes**2, table.delays)
                )
        return {key: np.concatenate(value) for key, value in pools.items()}

    proposed = pooled_metrics("nf-sns", 1)
    reseeded = pooled_metrics("nf-sns", 2)
    visibility = pooled_metrics("vr", 3)
    stationary = pooled_metrics("ff-ss", None)

    def finite(x):
        return x[np.isfinite(x)]

    elapsed = time.time() - start
    for key in ("gain", "kfactor", "delay_spread"):
        same_model = cvm_distance(finite(proposed[key]), finite(reseeded[key]))
        vs_visibility = cvm_distance(finite(proposed[key]), finite(visibility[key]))
        vs_stationary = cvm_distance(finite(proposed[key]), finite(stationary[key]))
        spread = np.ptp(finite(stationary[key]))
        print(
            f"ACCEPTANCE 7 {key}: reseeded CvM {same_model:.2f} < "
            f"visibility-region {vs_visibility:.2f} and < stationary "
            f"{vs_stationary:.2f}; stationary per-element spread {spread}"
        )
        assert same_model < vs_visibility
        assert same_model < vs_stationary
        assert spread == 0.0
    assert elapsed < 120.0


def test_08_metric_unit_values():
    start = time.time()
    two_ray = rms_delay_spread(np.array([[1.0, 1.0]]), np.array([[0.0, 10e-9]]))
    three_ray = rms_delay_spread(
        np.array([[1.0, 1.0, 1.0]]), np.array([[0.0, 1e-9, 2e-9]])
    )
    x = np.linspace(0.0, 1.0, 50)
    identical_cvm = cvm_distance(x, x)
    rows = np.tile(np.array([0.3, 0.9, 0.1, 0.7]), (5, 1))
    identical_corr = avg_spatial_correlation(rows, [1])[0]
    print(
        f"ACCEPTANCE 8 metric units: two-ray spread {two_ray[0] * 1e9:.1f} ns "
        f"(want 5 exactly); three-ray {three_ray[0] * 1e9:.6f} ns "
        f"(want sqrt(2/3)); identical-sample CvM {identical_cvm}; "
        f"identical-row correlation {identical_corr}"
    )
    assert two_ray[0] == 5e-9
    assert abs(three_ray[0] - np.sqrt(2.0 / 3.0) * 1e-9) < 1e-12 * 1e-9
    assert identical_cvm == 0.0
    assert abs(identical_corr - 1.0) < 1e-12
    assert time.time() - start < 5.0


def test_09_cli_reruns_are_byte_identical(tmp_path):
    def assert_same_tree(a, b):
        names_a = sorted(p.name for p in a.iterdir())
        names_b = sorted(p.name for p in b.iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        return len(names_a)

    synth = []
    for run in ("a", "b"):
        out = tmp_path / f"synth_{run}"
        argv = [
            "synthesize", "--preset", "case1-concrete",
            "--seed", "3", "--out", str(out),
        ]
        assert main(argv) == 0
        synth.append(out)
    n_synth = assert_same_tree(*synth)

    evals = []
    for run in ("a", "b"):
        out = tmp_path / f"eval_{run}"
        argv = [
            "evaluate", "--channel", str(synth[0] / "channel"),
            "--out", str(out), "--metrics",
            "capacity,demmel,gain,kfactor,delay-spread,spatial-correlation",
            "--num-ues", "1", "--trials", "50", "--seed", "2",
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(argv) == 0
        evals.append(out)
    n_eval = assert_same_tree(*evals)

    aafs = []
    for run in ("a", "b"):
        out = tmp_path / f"aaf_{run}"
        argv = [
            "generate-aaf", "--elements", "301", "--sequences", "4",
            "--seed", "17", "--out", str(out),
        ]
        assert main(argv) == 0
        aafs.append(out)
    n_aaf = assert_same_tree(*aafs)
    print(
        f"ACCEPTANCE 9 determinism: synthesize/evaluate/generate-aaf reruns "
        f"byte-identical across {n_synth}/{n_eval}/{n_aaf} output files"
    )
