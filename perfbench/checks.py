"""Output checks that recompute each result from the files an op wrote.

None of these use xlmimo code: the channel is rebuilt by the image-source
sum from ``scenario.yaml``, and the metrics from ``pathtable.csv`` and
``channel.bin`` with plain numpy.  Each check raises ``CheckFailed`` on the
first mismatch.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import yaml

from workloads import MAX_LAG, NUM_UES, SNR_DB, TRIALS

SPEED_OF_LIGHT = 299_792_458.0

# channel.bin is complex64, whose rounding is at most 6e-8 of each entry; the
# measured worst case on every workload is 5.95e-8.
CHANNEL_RTOL = 2e-7
TRIAL_CHECKS = 3


class CheckFailed(Exception):
    """An output disagrees with its independent recomputation."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _close(name, got, want, rtol, atol=0.0):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}")
    bad = ~np.isclose(got, want, rtol=rtol, atol=atol, equal_nan=True)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise CheckFailed(
            f"{name}: {int(bad.sum())} values differ, first at {i}: "
            f"{float(got.flat[i])!r} != {float(want.flat[i])!r}"
        )


def read_table(path):
    """Numeric CSV body (header skipped) as a 2-D float array."""
    _require(os.path.exists(path), f"missing output {path}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_pathtable(directory):
    """pathtable.csv columns as (users, paths, elements) grids."""
    data = read_table(os.path.join(directory, "pathtable.csv"))
    ue, path, elem = (data[:, i].astype(int) for i in range(3))
    shape = (ue.max() + 1, path.max() + 1, elem.max() + 1)
    count = np.zeros(shape, dtype=int)
    np.add.at(count, (ue, path, elem), 1)
    _require(np.all(count == 1), "pathtable.csv: rows missing or repeated")
    columns = ("alpha_ref", "aaf", "amplitude", "delay_s", "phase_rad", "distance_m")
    grids = {}
    for i, name in enumerate(columns, start=3):
        grid = np.empty(shape)
        grid[ue, path, elem] = data[:, i]
        grids[name] = grid
    return grids


def read_channel(directory):
    with open(os.path.join(directory, "channel.json")) as fh:
        meta = json.load(fh)
    values = np.fromfile(os.path.join(directory, "channel.bin"), dtype="<c8")
    shape = tuple(meta["shape"])
    _require(values.size == math.prod(shape), "channel.bin size does not match shape")
    return values.reshape(shape), meta


def _field_gain(pattern, directions):
    """Linear field gain ratio to the peak: 12 dB quadratic roll-off, 30 dB floor."""
    if pattern["kind"] == "omnidirectional":
        return np.ones(directions.shape[:-1])
    bs = np.asarray(pattern["boresight"], dtype=float)
    az = np.arctan2(directions[..., 1], directions[..., 0])
    el = np.arccos(np.clip(directions[..., 2], -1.0, 1.0))
    d_az = np.mod(az - math.atan2(bs[1], bs[0]) + math.pi, 2 * math.pi) - math.pi
    d_el = el - math.acos(max(-1.0, min(1.0, bs[2])))
    att = 12.0 * ((d_az / pattern["hpbw_az_rad"]) ** 2 + (d_el / pattern["hpbw_el_rad"]) ** 2)
    return 10.0 ** (-np.minimum(att, 30.0) / 20.0)


def image_sources(cfg, ue):
    """Per path, in the program's order: (source, loss_db, phase, arrival_ref, sns).

    The direct path's source is the receiver; a reflection's is the
    receiver's mirror image, and its reference arrival direction is the
    reference departure direction mirrored in the plane.
    """
    _require(not cfg.get("scatterers"), "scatterer paths are outside this check")
    rx = np.asarray(ue, dtype=float)
    out = []
    if cfg["los"]["enabled"]:
        out.append((rx, 0.0, 0.0, lambda aod: aod, cfg["los"]["sns"]))
    for ref in cfg["reflectors"]:
        n = np.asarray(ref["normal"], dtype=float)
        image = rx - 2.0 * np.dot(rx - np.asarray(ref["point"], dtype=float), n) * n
        out.append(
            (image, ref["loss_db"], ref["phase_rad"],
             lambda aod, n=n: aod - 2.0 * np.dot(aod, n) * n, ref["sns"])
        )
    return out


def expected_paths(cfg, ue):
    """Per-element reference quantities of every path of one user.

    Returns a list of dicts with the distances ``d`` (M,), the reference
    amplitude ``alpha``, the source distance ``D``, the pattern ratio
    ``pattern`` (M,), the phase ``phi`` and the ``carrier`` frequency.
    """
    arr = cfg["array"]
    axis = np.asarray(arr["axis"], dtype=float)
    origin = np.asarray(arr["origin"], dtype=float)
    steps = np.arange(arr["num_elements"]) - arr["reference_index"]
    positions = origin + steps[:, None] * (arr["spacing_m"] * axis)
    carrier = 0.5 * (cfg["grid"]["f_low_hz"] + cfg["grid"]["f_high_hz"])
    wavelength = SPEED_OF_LIGHT / carrier
    tx, rx = cfg["patterns"]["tx"], cfg["patterns"]["rx"]
    paths = []
    for source, loss_db, phi, arrival, _sns in image_sources(cfg, ue):
        big_d = float(np.linalg.norm(source - origin))
        diff = source - positions
        d = np.linalg.norm(diff, axis=1)
        aod = diff / d[:, None]
        aod_ref = (source - origin) / big_d
        aoa_ref = arrival(aod_ref)
        raw = aod - aod_ref + aoa_ref
        aoa = raw / np.linalg.norm(raw, axis=1)[:, None]
        pattern = (
            _field_gain(tx, aod) / _field_gain(tx, aod_ref)
            * _field_gain(rx, aoa) / _field_gain(rx, aoa_ref)
        )
        alpha = wavelength / (4.0 * math.pi * big_d) * 10.0 ** (-loss_db / 20.0)
        paths.append(
            {"d": d, "D": big_d, "alpha": alpha, "pattern": pattern, "phi": phi,
             "carrier": carrier}
        )
    return paths


def _phasors(d, grid, phi):
    """``exp(-j(2π f d/c + φ))`` over the uniform grid, shape (M, K).

    A running product over frequency: its rounding error grows by about
    1e-16 per step, far below the channel tolerance.
    """
    k = 2 * math.pi / SPEED_OF_LIGHT * d
    out = np.empty((d.size, grid["num_points"]), dtype=complex)
    out[:, 0] = np.exp(-1j * (k * grid["f_low_hz"] + phi))
    if grid["num_points"] > 1:
        step = (grid["f_high_hz"] - grid["f_low_hz"]) / (grid["num_points"] - 1)
        out[:, 1:] = np.exp(-1j * k * step)[:, None]
    return np.cumprod(out, axis=1, out=out)


def check_synthesize(directory):
    """channel.bin against the image-source sum; pathtable geometry columns."""
    with open(os.path.join(directory, "scenario.yaml")) as fh:
        cfg = yaml.safe_load(fh)
    table = read_pathtable(directory)
    values, _ = read_channel(directory)
    _require(cfg["variant"].startswith("nf-"), "plane-wave variants are outside this check")
    grid = cfg["grid"]
    num_ues, num_elements = len(cfg["ues"]), cfg["array"]["num_elements"]
    _require(
        values.shape == (num_ues, num_elements, grid["num_points"]),
        f"channel shape {values.shape} does not match scenario.yaml",
    )
    for u, ue in enumerate(cfg["ues"]):
        paths = expected_paths(cfg, ue)
        _require(
            table["aaf"].shape[1] == len(paths),
            f"ue {u}: {table['aaf'].shape[1]} paths in pathtable, expected {len(paths)}",
        )
        h = np.zeros((num_elements, grid["num_points"]), dtype=complex)
        for l, p in enumerate(paths):
            aaf = table["aaf"][u, l]
            amp = p["alpha"] * p["D"] / p["d"] * p["pattern"]
            _close(f"ue {u} path {l} amplitude", table["amplitude"][u, l], amp * aaf, 1e-9)
            _close(f"ue {u} path {l} distance", table["distance_m"][u, l], p["d"], 1e-12)
            _close(f"ue {u} path {l} delay", table["delay_s"][u, l], p["d"] / SPEED_OF_LIGHT, 1e-12)
            phase = p["phi"] + 2 * math.pi * p["carrier"] * (p["d"] - p["D"]) / SPEED_OF_LIGHT
            _close(f"ue {u} path {l} phase", table["phase_rad"][u, l], phase, 0.0, 1e-8)
            h += (amp * aaf)[:, None] * _phasors(p["d"], grid, p["phi"])
        diff = np.abs(values[u] - h)
        limit = CHANNEL_RTOL * (np.abs(h) + 1e-6 * float(np.max(np.abs(h))))
        _require(
            np.all(diff <= limit),
            f"ue {u}: channel differs from the image-source sum by up to "
            f"{float(np.max(diff / np.abs(h))):.3g} relative",
        )
    return cfg, table


def check_aaf(cfg, table):
    """Fixed columns are exactly 1; generated ones lie in [0, 1] and are correlated."""
    for u, ue in enumerate(cfg["ues"]):
        for l, (*_, sns) in enumerate(image_sources(cfg, ue)):
            col = table["aaf"][u, l]
            where = f"ue {u} path {l} aaf"
            if not sns or cfg["variant"].endswith("-ss"):
                _require(np.all(col == 1.0), f"{where}: stationary column is not all 1")
                continue
            _require(
                np.all(np.isfinite(col)) and col.min() >= 0.0 and col.max() <= 1.0,
                f"{where}: values outside [0, 1]",
            )
            x, y = col[:-1] - col[:-1].mean(), col[1:] - col[1:].mean()
            den = math.sqrt(float(np.dot(x, x) * np.dot(y, y)))
            rho = float(np.dot(x, y)) / den if den > 0 else 0.0
            _require(rho > 0.5, f"{where}: lag-1 autocorrelation {rho:.3f} <= 0.5")


def _label(out_dir):
    with open(os.path.join(out_dir, "meta.json")) as fh:
        return json.load(fh)["channels"][0]


def read_samples(out_dir, metric):
    path = os.path.join(out_dir, f"{_label(out_dir)}_{metric.replace('-', '_')}_samples.csv")
    data = read_table(path)
    _require(np.array_equal(data[:, 0], np.arange(len(data))), f"{path}: bad index column")
    return data[:, 1]


def check_cdf(out_dir, metric):
    """The CDF file is the sorted sample with probabilities (i + 1) / n."""
    samples = read_samples(out_dir, metric)
    path = os.path.join(out_dir, f"{_label(out_dir)}_{metric.replace('-', '_')}_cdf.csv")
    cdf = read_table(path)
    n = samples.size
    _require(cdf.shape == (n, 2), f"{path}: {cdf.shape[0]} rows for {n} samples")
    _require(
        np.array_equal(cdf[:, 0], np.sort(samples), equal_nan=True),
        f"{path}: values are not the sorted samples",
    )
    _require(
        np.array_equal(cdf[:, 1], (np.arange(n) + 1) / n), f"{path}: probabilities are wrong"
    )


def check_trials(fixture_dir, out_dir, seed):
    """Capacity of the first trials by log-det; Demmel bounds, and exact on those trials."""
    pool, _meta = read_channel(fixture_dir)
    capacity = read_samples(out_dir, "capacity")
    demmel = read_samples(out_dir, "demmel")
    _require(capacity.size == TRIALS and demmel.size == TRIALS, "wrong number of trials")
    _require(
        np.all(np.isfinite(demmel)) and np.all(demmel >= math.sqrt(NUM_UES) * (1 - 1e-12)),
        "a Demmel sample is non-finite or below sqrt(num_ues)",
    )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    snr = 10.0 ** (SNR_DB / 10.0)
    for t in range(TRIAL_CHECKS):
        h = pool[rng.choice(pool.shape[0], NUM_UES, replace=False)].astype(complex)
        eta = float(np.mean(np.abs(h) ** 2))
        gram = np.einsum("nmk,pmk->knp", h, h.conj())
        scaled = np.eye(NUM_UES) + snr / (h.shape[1] * eta) * gram
        sign, logdet = np.linalg.slogdet(scaled)
        _require(np.all(sign.real > 0), f"trial {t}: non-positive determinant")
        _close(f"trial {t} capacity", capacity[t], np.mean(logdet) / math.log(2.0), 1e-9)
        lam = np.linalg.eigvalsh(gram)
        want = np.mean(np.sqrt(lam.sum(axis=1) / lam[:, 0]))
        _close(f"trial {t} demmel", demmel[t], want, 1e-6)


def check_path_metrics(fixture_dir, out_dir, metrics):
    """Gain, K-factor and 40 dB-window delay spread from pathtable.csv."""
    table = read_pathtable(fixture_dir)
    power = np.transpose(table["amplitude"], (0, 2, 1)) ** 2  # (U, M, L)
    delay = np.transpose(table["delay_s"], (0, 2, 1))
    total = power.sum(axis=-1)
    strongest = power.max(axis=-1)
    with np.errstate(divide="ignore"):
        want = {
            "gain": 10.0 * np.log10(total),
            "kfactor": 10.0 * np.log10(strongest / (total - strongest)),
        }
    kept = np.where(power >= strongest[..., None] * 1e-4, power, 0.0)
    norm = kept.sum(axis=-1)
    mean = (kept * delay).sum(axis=-1) / norm
    want["delay-spread"] = np.sqrt(
        (kept * (delay - mean[..., None]) ** 2).sum(axis=-1) / norm
    )
    for metric in ("gain", "kfactor", "delay-spread"):
        if metric in metrics:
            atol = 1e-18 if metric == "delay-spread" else 0.0
            _close(metric, read_samples(out_dir, metric), want[metric].ravel(), 1e-9, atol)


def check_spatial_correlation(fixture_dir, out_dir):
    """Lags 1..min(max_lag, M-1); values in [-1, 1] and equal to a recomputation."""
    path = os.path.join(out_dir, f"{_label(out_dir)}_spatial_correlation.csv")
    curve = read_table(path)
    table = read_pathtable(fixture_dir)
    num_elements = table["aaf"].shape[2]
    lags = np.arange(1, min(MAX_LAG, num_elements - 1) + 1)
    _require(np.array_equal(curve[:, 0], lags), f"{path}: lags are not 1..{lags.size}")
    values = curve[:, 1]
    _require(
        np.all(np.isfinite(values)) and np.all(np.abs(values) <= 1.0),
        f"{path}: a value is outside [-1, 1]",
    )
    rows = np.transpose(table["aaf"] * table["alpha_ref"][:, :, :1], (0, 2, 1))  # (U, M, L)
    want = []
    for lag in lags:
        x = rows[:, : num_elements - lag]
        y = rows[:, lag:]
        xc = x - x.mean(axis=2, keepdims=True)
        yc = y - y.mean(axis=2, keepdims=True)
        den = np.sqrt((xc**2).sum(axis=2) * (yc**2).sum(axis=2))
        num = (xc * yc).sum(axis=2)
        per_user = [
            float(np.mean(n[d > 0] / d[d > 0])) if np.any(d > 0) else math.nan
            for n, d in zip(num, den)
        ]
        want.append(np.nanmean(per_user))
    _close("spatial-correlation", values, want, 1e-9, 1e-12)


def check_call(call):
    """Run every check that applies to one CLI call's output."""
    if call["kind"] == "synthesize":
        cfg, table = check_synthesize(call["out"])
        check_aaf(cfg, table)
        return
    metrics = call["metrics"]
    for metric in metrics:
        if metric != "spatial-correlation":
            check_cdf(call["out"], metric)
    if "capacity" in metrics:
        check_trials(call["fixture"], call["out"], call["seed"])
    check_path_metrics(call["fixture"], call["out"], metrics)
    if "spatial-correlation" in metrics:
        check_spatial_correlation(call["fixture"], call["out"])
