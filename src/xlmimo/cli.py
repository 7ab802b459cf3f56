"""Command-line interface.

Subcommands cover the synthesis pipeline end to end: ``scenario`` resolves
a preset or YAML configuration into explicit path lists, ``synthesize``
assembles channel tensors, ``generate-aaf`` produces standalone
attenuation-factor sequences, ``evaluate`` computes metrics (with CDF data
files), and ``compare`` reports pairwise distribution distances between
channels.

Exit codes: 0 on success, 2 for configuration errors, 3 for numerical or
geometric failures.  Identical configuration and seed reproduce output
files byte for byte.

The environment variable ``XLMIMO_NUM_THREADS`` caps the linear-algebra
thread pools; it is applied before numpy is first imported, so the heavy
imports in this module are deliberately deferred.
"""

from __future__ import annotations

import argparse
import os
import sys

from ._threads import apply_thread_env
from .errors import ConfigError, GeometryError, NumericError

#: Largest ``--trials`` x ``--num-ues`` of ``evaluate``/``compare``: every
#: trial's user subset is drawn before any metric runs, so larger requests
#: are rejected up front.  The paper's set-up, 800 trials of 4 users, is
#: 3,200.
_MAX_TRIAL_USERS = 1_000_000

#: Largest estimated memory of ``synthesize``: the (users, elements,
#: frequencies) complex64 pool, one user's working set (the complex128
#: (elements, frequencies) response of ``channel.assemble`` and its
#: (elements, 64) block tables), and the nine 8-byte ``pathtable.csv``
#: columns of elements x paths rows.  The pool and working set are checked
#: before any path is built, the columns once the paths are known; both
#: before the pool is allocated or ``--out`` is made.  The case3 preset
#: needs about 69 MB.
_MAX_SYNTH_BYTES = 4 * 2**30

_PATHTABLE_HEADER = (
    "ue",
    "path",
    "element",
    "alpha_ref",
    "aaf",
    "amplitude",
    "delay_s",
    "phase_rad",
    "distance_m",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xlmimo",
        description=(
            "Near-field, spatially non-stationary channel synthesis for "
            "extremely large aperture arrays"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    out_parent = argparse.ArgumentParser(add_help=False)
    out_parent.add_argument("--out", required=True, help="output directory")
    out_parent.add_argument(
        "--seed", type=int, default=None, help="override the configuration seed"
    )

    config_parent = argparse.ArgumentParser(add_help=False)
    group = config_parent.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="named scenario preset")
    group.add_argument("--config", help="scenario configuration YAML file")
    config_parent.add_argument(
        "--variant",
        default=None,
        help="override the synthesis variant (nf-sns, nf-ss, ff-sns, ff-ss, vr)",
    )

    p = sub.add_parser(
        "scenario",
        parents=[out_parent, config_parent],
        help="resolve a scenario into explicit per-user path lists",
    )
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser(
        "synthesize",
        parents=[out_parent, config_parent],
        help="synthesize the channel tensor for a scenario",
    )
    p.add_argument(
        "--paths",
        action="append",
        default=None,
        help="path-list CSV (repeat per user) instead of scenario-built paths",
    )
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser(
        "generate-aaf",
        parents=[out_parent],
        help="generate spatially correlated amplitude attenuation factors",
    )
    p.add_argument("--elements", type=int, required=True, help="sequence length")
    p.add_argument("--sequences", type=int, default=1, help="number of sequences")
    p.add_argument("--p", type=float, default=None, help="fixed Beta shape p")
    p.add_argument("--q", type=float, default=None, help="fixed Beta shape q")
    p.add_argument(
        "--dcorr", type=float, default=None, help="fixed correlation decay rate"
    )
    p.add_argument(
        "--config", default=None, help="YAML file with an aaf hyper-parameter block"
    )
    p.set_defaults(func=_cmd_generate_aaf)

    for name, helptext, func in (
        ("evaluate", "compute metrics for one or more channels", _cmd_evaluate),
        ("compare", "pairwise distribution distances between channels", _cmd_compare),
    ):
        p = sub.add_parser(name, parents=[out_parent], help=helptext)
        p.add_argument(
            "--channel",
            action="append",
            required=True,
            help="channel basepath (the .json/.bin pair from synthesize)",
        )
        p.add_argument(
            "--metrics",
            default="capacity,demmel",
            help=(
                "comma list from: capacity, demmel, gain, kfactor, "
                "delay-spread, spatial-correlation"
            ),
        )
        p.add_argument("--num-ues", type=int, default=4, help="users per trial")
        p.add_argument("--trials", type=int, default=800, help="number of trials")
        p.add_argument("--snr-db", type=float, default=15.0, help="SNR in dB")
        p.add_argument(
            "--max-lag", type=int, default=100, help="largest spatial-correlation lag"
        )
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    try:
        apply_thread_env()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GeometryError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _resolve_config(args) -> dict:
    from .scenario import preset, validate_config
    from .serialization import read_yaml

    if args.preset:
        cfg = preset(args.preset)
    else:
        cfg = read_yaml(args.config)
    if getattr(args, "variant", None):
        cfg["variant"] = args.variant
    if args.seed is not None:
        cfg["seed"] = args.seed
    try:
        return validate_config(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_scenario(args) -> int:
    import numpy as np

    from . import scenario
    from .geometry import rayleigh_distance
    from .serialization import write_json, write_paths_csv, write_yaml

    cfg = _resolve_config(args)
    out = _ensure_out(args)
    geometry = scenario.build_geometry(cfg)
    grid = scenario.build_grid(cfg)
    all_paths = scenario.build_all_paths(cfg)

    write_yaml(os.path.join(out, "scenario.yaml"), cfg)
    for ue, paths in enumerate(all_paths):
        write_paths_csv(os.path.join(out, f"paths_ue{ue:03d}.csv"), paths)
    distances = [
        float(np.linalg.norm(np.asarray(u) - geometry.origin)) for u in cfg["ues"]
    ]
    write_json(
        os.path.join(out, "summary.json"),
        {
            "name": cfg["name"],
            "num_ues": len(all_paths),
            "paths_per_ue": [len(p) for p in all_paths],
            "aperture_m": geometry.aperture,
            "carrier_hz": grid.carrier_hz,
            "rayleigh_distance_m": rayleigh_distance(
                geometry.aperture, grid.carrier_hz
            ),
            "min_ue_distance_m": min(distances),
            "max_ue_distance_m": max(distances),
        },
    )
    return 0


def _needs_seed(variant: str, all_paths) -> bool:
    from .nearfield import Stationarity

    if variant.endswith("-ss"):
        return False
    return any(
        p.stationarity is Stationarity.NON_STATIONARY and p.aaf is None
        for paths in all_paths
        for p in paths
    )


def _check_synth_size(estimate: int, what: str) -> None:
    if estimate > _MAX_SYNTH_BYTES:
        raise ConfigError(
            f"synthesize would need about {estimate / 2**30:.1f} GiB for "
            f"{what}; the limit is {_MAX_SYNTH_BYTES / 2**30:.0f} GiB"
        )


def _cmd_synthesize(args) -> int:
    import numpy as np

    from . import scenario
    from .channel import _working_set_bytes, assemble, build_variant_aaf, path_table
    from .serialization import (
        config_sha256,
        read_paths_csv,
        write_channel,
        write_json,
        write_paths_csv,
        write_table,
        write_yaml,
    )

    cfg = _resolve_config(args)
    geometry = scenario.build_geometry(cfg)
    grid = scenario.build_grid(cfg)
    num_elements = geometry.num_elements
    num_ues = len(args.paths) if args.paths else len(cfg["ues"])
    estimate = num_ues * num_elements * grid.num_points * 8 + _working_set_bytes(
        num_elements, grid.num_points
    )
    _check_synth_size(
        estimate,
        f"{num_ues} users x {num_elements} elements x {grid.num_points} frequencies",
    )
    tx_pattern, rx_pattern = scenario.build_patterns(cfg)
    params = scenario.build_aaf_params(cfg)
    variant = cfg["variant"]
    seed = cfg["seed"]

    if args.paths:
        all_paths = [read_paths_csv(path) for path in args.paths]
        for fn, paths in zip(args.paths, all_paths):
            for i, p in enumerate(paths):
                if p.aaf is not None and p.aaf.size != num_elements:
                    raise ConfigError(
                        f"{fn}: row {i + 1}: fixed aaf length {p.aaf.size} != "
                        f"num_elements {num_elements}"
                    )
    else:
        all_paths = scenario.build_all_paths(cfg)
    num_rows = num_elements * sum(len(paths) for paths in all_paths)
    estimate += num_rows * 8 * len(_PATHTABLE_HEADER)
    _check_synth_size(estimate, f"{num_rows} path-table rows and the channel")
    if _needs_seed(variant, all_paths) and seed is None:
        raise ConfigError(
            "seed is required: the variant generates random attenuation factors"
        )

    sha = config_sha256(cfg)
    out = _ensure_out(args)
    pool = np.empty((num_ues, num_elements, grid.num_points), dtype="<c8")
    # pathtable.csv, one row per (ue, path, element) in that order
    ints = [np.empty(num_rows, dtype=np.int64) for _ in range(3)]
    floats = [np.empty(num_rows) for _ in range(6)]
    lo = 0
    for ue, paths in enumerate(all_paths):
        aaf = build_variant_aaf(
            paths,
            num_elements,
            variant,
            params=params,
            seed=seed,
            stream_key=(ue,),
        )
        table = path_table(
            paths,
            geometry,
            tx_pattern,
            rx_pattern,
            grid.carrier_hz,
            aaf,
            variant=variant,
        )
        pool[ue] = assemble(paths, table, grid)
        hi = lo + num_elements * len(paths)
        ints[0][lo:hi] = ue
        ints[1][lo:hi] = np.repeat(np.arange(len(paths)), num_elements)
        ints[2][lo:hi] = np.tile(np.arange(num_elements), len(paths))
        floats[0][lo:hi] = np.repeat([p.amplitude for p in paths], num_elements)
        for column, values in zip(
            floats[1:],
            (table.aaf, table.amplitudes, table.delays, table.phases, table.distances),
        ):
            column[lo:hi] = values.T.ravel()
        lo = hi

    write_channel(
        os.path.join(out, "channel"),
        pool,
        grid,
        geometry,
        variant,
        seed,
        sha,
        cfg["name"],
    )
    write_yaml(os.path.join(out, "scenario.yaml"), cfg)
    for ue, paths in enumerate(all_paths):
        write_paths_csv(os.path.join(out, f"paths_ue{ue:03d}.csv"), paths)
    write_table(
        os.path.join(out, "pathtable.csv"), _PATHTABLE_HEADER, ints + floats
    )
    write_json(
        os.path.join(out, "meta.json"),
        {
            "name": cfg["name"],
            "variant": variant,
            "seed": seed,
            "config_sha256": sha,
            "num_ues": len(all_paths),
            "num_paths": [len(p) for p in all_paths],
        },
    )
    return 0


def _cmd_generate_aaf(args) -> int:
    import numpy as np

    from .scenario import build_aaf_params
    from .serialization import read_yaml, write_json, write_table
    from .sns import acf, fit_dcorr, generate_aaf, sample_aaf_params

    if args.elements < 1:
        raise ConfigError(f"--elements must be >= 1, got {args.elements}")
    if args.sequences < 1:
        raise ConfigError(f"--sequences must be >= 1, got {args.sequences}")
    if args.seed is None:
        raise ConfigError("--seed is required: generation is stochastic")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    fixed = (args.p, args.q, args.dcorr)
    if any(v is not None for v in fixed) and not all(v is not None for v in fixed):
        raise ConfigError("--p, --q, and --dcorr must be given together")
    for flag, value in zip(("--p", "--q", "--dcorr"), fixed):
        if value is not None and not (np.isfinite(value) and value > 0.0):
            raise ConfigError(f"{flag} must be finite and > 0, got {value}")
    try:
        params = build_aaf_params(read_yaml(args.config) if args.config else {})
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"aaf: {exc}") from exc

    out = _ensure_out(args)
    shape = (args.sequences, args.elements)
    values = np.empty(shape)
    acf_values = np.empty(shape)
    param_columns = {"sequence": [], "p": [], "q": [], "d_corr": [], "fitted_dcorr": []}
    for seq in range(args.sequences):
        rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(seq,)))
        if args.p is not None:
            p, q, d_corr = args.p, args.q, args.dcorr
        else:
            p, q, d_corr = sample_aaf_params(params, rng)
        try:
            values[seq] = generate_aaf(args.elements, p, q, d_corr, rng)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        try:
            curve = acf(values[seq]) if args.elements >= 3 else None
        except ValueError:  # constant draws (e.g. p >> q) have no ACF
            curve = None
        if curve is not None:
            fitted = fit_dcorr(curve)
            acf_values[seq] = curve
        else:
            fitted = float("nan")
            acf_values[seq] = np.nan
        for column, value in zip(param_columns.values(), (seq, p, q, d_corr, fitted)):
            column.append(value)

    sequence = np.repeat(np.arange(args.sequences), args.elements)
    element = np.tile(np.arange(args.elements), args.sequences)
    write_table(
        os.path.join(out, "aaf.csv"),
        ["sequence", "element", "value"],
        [sequence, element, values.ravel()],
    )
    write_table(
        os.path.join(out, "aaf_params.csv"),
        list(param_columns),
        list(param_columns.values()),
    )
    if args.elements >= 3:
        write_table(
            os.path.join(out, "acf.csv"),
            ["sequence", "lag", "value"],
            [sequence, element, acf_values.ravel()],
        )
    write_json(
        os.path.join(out, "meta.json"),
        {
            "elements": args.elements,
            "sequences": args.sequences,
            "seed": args.seed,
            "fixed_params": None
            if args.p is None
            else {"p": args.p, "q": args.q, "d_corr": args.dcorr},
        },
    )
    return 0


_METRICS = ("capacity", "demmel", "gain", "kfactor", "delay-spread", "spatial-correlation")


def _parse_metrics(spec: str) -> list:
    metrics = [m.strip() for m in spec.split(",") if m.strip()]
    if not metrics:
        raise ConfigError("--metrics must name at least one metric")
    unknown = [m for m in metrics if m not in _METRICS]
    if unknown:
        raise ConfigError(
            f"unknown metrics: {', '.join(unknown)}; available: {', '.join(_METRICS)}"
        )
    return metrics


def _load_channels(args, with_values: bool) -> list:
    """Load channels as (label, values, meta, directory) tuples.

    Every header and file size is checked; without ``with_values`` no tensor
    value is read and ``values`` is None.
    """
    from .serialization import read_channel, read_channel_header

    loaded = []
    seen = {}
    for path in args.channel:
        if with_values:
            values, meta = read_channel(path)
        else:
            values, meta = None, read_channel_header(path)
        base = os.path.basename(path)
        if base.endswith(".json"):
            base = base[: -len(".json")]
        label = f"{base}_{meta.get('variant', 'unknown')}"
        seen[label] = seen.get(label, 0) + 1
        if seen[label] > 1:
            label = f"{label}_{seen[label]}"
        directory = os.path.dirname(os.path.abspath(path))
        loaded.append((label, values, meta, directory))
    return loaded


_PATH_METRICS = ("gain", "kfactor", "delay-spread", "spatial-correlation")


def _read_pathtable(directory: str):
    """Per-user amplitude/delay/aaf/alpha matrices from pathtable.csv.

    Every user shares the element count; each user's rows must cover every
    (path, element) pair exactly once, in any order, with finite,
    non-negative values.
    """
    import warnings

    import numpy as np

    table_path = os.path.join(directory, "pathtable.csv")
    if not os.path.exists(table_path):
        raise ConfigError(
            f"{table_path} not found: per-path metrics need the synthesize "
            f"output directory"
        )
    names = ("ue", "path", "element", "alpha_ref", "aaf", "amplitude", "delay_s")
    with open(table_path, newline="") as fh:
        header = fh.readline().strip().split(",")
        try:
            columns = [header.index(name) for name in names]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty body is reported below
                data = np.loadtxt(fh, delimiter=",", usecols=columns, ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{table_path}: {exc}") from exc
    if data.shape[0] == 0:
        raise ConfigError(f"{table_path}: empty table")
    fields = data[:, 3:]
    if not np.all(np.isfinite(fields) & (fields >= 0.0)):
        raise ConfigError(
            f"{table_path}: alpha_ref, aaf, amplitude and delay_s must be "
            f"finite and >= 0"
        )
    rows = data.shape[0]
    index = data[:, :3]
    if not np.all((index >= 0) & (index < rows) & (index == np.floor(index))):
        raise ConfigError(f"{table_path}: invalid ue/path/element index")
    ue, path, element = index.astype(int).T
    num_elements = int(element.max()) + 1
    num_paths = np.zeros(int(ue.max()) + 1, dtype=int)
    np.maximum.at(num_paths, ue, path + 1)
    bounds = np.concatenate([[0], np.cumsum(num_paths * num_elements)])
    slot = bounds[ue] + path * num_elements + element
    if (
        bounds[-1] != rows
        or np.any(num_paths == 0)
        or np.any(np.bincount(slot, minlength=rows) != 1)
    ):
        raise ConfigError(
            f"{table_path}: rows must cover every (ue, path, element) exactly "
            f"once for {num_elements} elements"
        )
    ordered = np.empty_like(data[:, 3:])
    ordered[slot] = data[:, 3:]
    out = []
    for lo, hi, paths in zip(bounds[:-1], bounds[1:], num_paths):
        # (paths, elements, field) -> per-field (elements, paths) matrices
        block = ordered[lo:hi].reshape(paths, num_elements, 4)
        aaf, amplitude, delay = (
            np.ascontiguousarray(block[:, :, i].T) for i in (1, 2, 3)
        )
        alpha = block[:, 0, 0].copy()  # alpha_ref repeats on every element
        out.append(
            {"amplitude": amplitude, "delay": delay, "aaf": aaf, "alpha": alpha}
        )
    return out


def _checked_tables(loaded, metrics, args) -> list:
    """Each channel's path tables (None without per-path metrics).

    Every channel is checked against the trial arguments and the metrics
    here, before ``evaluate`` makes ``--out`` or writes any file.
    """
    trials = "capacity" in metrics or "demmel" in metrics
    if trials and args.seed is None:
        raise ConfigError("--seed is required for capacity/demmel trials")
    all_tables = []
    for label, pool, _meta, directory in loaded:
        if trials and not 1 <= args.num_ues <= pool.shape[0]:
            raise ConfigError(
                f"--num-ues must be in [1, {pool.shape[0]}] for {label}"
            )
        tables = None
        if any(m in _PATH_METRICS for m in metrics):
            tables = _read_pathtable(directory)
        if "spatial-correlation" in metrics:
            num_paths = min(t["aaf"].shape[1] for t in tables)
            if num_paths < 2:
                raise ConfigError(
                    f"spatial-correlation needs at least two paths per user, "
                    f"got {num_paths} in {label}"
                )
        all_tables.append(tables)
    return all_tables


def _metric_samples(pool, tables, metrics, args):
    """Sample vectors per metric for one channel; None for curve metrics."""
    import numpy as np

    from . import metrics as mx

    samples = {}
    if "capacity" in metrics or "demmel" in metrics:
        rng = np.random.default_rng(np.random.SeedSequence(args.seed))
        capacity, demmel = mx.multiuser_trials(
            pool, args.num_ues, args.trials, rng, snr_db=args.snr_db
        )
        if "capacity" in metrics:
            samples["capacity"] = capacity
        if "demmel" in metrics:
            samples["demmel"] = demmel
    if "gain" in metrics:
        samples["gain"] = np.concatenate(
            [mx.path_gain_db(t["amplitude"]) for t in tables]
        )
    if "kfactor" in metrics:
        samples["kfactor"] = np.concatenate(
            [mx.rician_k_db(t["amplitude"]) for t in tables]
        )
    if "delay-spread" in metrics:
        samples["delay-spread"] = np.concatenate(
            [mx.rms_delay_spread(t["amplitude"] ** 2, t["delay"]) for t in tables]
        )
    return samples


def _spatial_correlation_curve(tables, max_lag):
    """Lags 1..min(max_lag, M - 1) and the user-averaged correlation at each."""
    import numpy as np

    from . import metrics as mx

    num_elements = tables[0]["aaf"].shape[0]
    matrices = [mx.sns_amplitude_matrix(t["aaf"], t["alpha"]) for t in tables]
    lags = np.arange(1, min(int(max_lag), num_elements - 1) + 1)
    per_user = [mx.avg_spatial_correlation(m, lags).tolist() for m in matrices]
    curve = np.array([np.nanmean(values) for values in zip(*per_user)])
    return lags, curve


def _write_samples(out, label, metric, values) -> None:
    import numpy as np

    from .serialization import write_table

    safe = metric.replace("-", "_")
    write_table(
        os.path.join(out, f"{label}_{safe}_samples.csv"),
        ["index", "value"],
        [np.arange(values.size), values],
    )
    finite = np.sort(values[np.isfinite(values)])
    probs = (np.arange(finite.size) + 1) / finite.size
    write_table(
        os.path.join(out, f"{label}_{safe}_cdf.csv"),
        ["value", "probability"],
        [finite, probs],
    )


def _evaluate_channels(args, write_per_channel: bool) -> int:
    import warnings

    import numpy as np

    from . import metrics as mx
    from .serialization import write_json, write_table

    metrics = _parse_metrics(args.metrics)
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if args.trials * args.num_ues > _MAX_TRIAL_USERS:
        raise ConfigError(
            f"--trials x --num-ues must be <= {_MAX_TRIAL_USERS}, got "
            f"{args.trials} x {args.num_ues}"
        )
    try:
        finite_snr = np.isfinite(args.snr_db) and np.isfinite(10.0 ** (args.snr_db / 10.0))
    except OverflowError:
        finite_snr = False
    if not finite_snr:
        raise ConfigError(
            f"--snr-db must be finite in dB and in linear scale, got {args.snr_db}"
        )
    if args.max_lag < 1:
        raise ConfigError(f"--max-lag must be >= 1, got {args.max_lag}")
    loaded = _load_channels(args, "capacity" in metrics or "demmel" in metrics)
    all_tables = _checked_tables(loaded, metrics, args)
    out = _ensure_out(args)
    all_samples = {}
    summary = {"label": [], "metric": [], "count": [], "non_finite": [], "mean": []}
    for (label, pool, _meta, _directory), tables in zip(loaded, all_tables):
        samples = _metric_samples(pool, tables, metrics, args)
        all_samples[label] = samples
        for metric in metrics:
            if metric == "spatial-correlation":
                lags, curve = _spatial_correlation_curve(tables, args.max_lag)
                if write_per_channel:
                    write_table(
                        os.path.join(out, f"{label}_spatial_correlation.csv"),
                        ["lag", "value"],
                        [lags, curve],
                    )
                continue
            values = np.asarray(samples[metric], dtype=float)
            if write_per_channel:
                _write_samples(out, label, metric, values)
            finite = values[np.isfinite(values)]
            row = (
                label,
                metric,
                values.size,
                int(values.size - finite.size),
                float(np.mean(finite)) if finite.size else float("nan"),
            )
            for column, value in zip(summary.values(), row):
                column.append(value)

    write_table(
        os.path.join(out, "metrics_summary.csv"),
        list(summary),
        list(summary.values()),
    )

    if len(loaded) >= 2:
        labels = [label for label, *_ in loaded]
        pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1 :]]
        for metric in metrics:
            if metric == "spatial-correlation":
                continue
            distances = []
            for label_a, label_b in pairs:
                a = np.asarray(all_samples[label_a][metric], dtype=float)
                b = np.asarray(all_samples[label_b][metric], dtype=float)
                fa, fb = a[np.isfinite(a)], b[np.isfinite(b)]
                if fa.size < a.size or fb.size < b.size:
                    warnings.warn(
                        f"{metric}: dropping non-finite samples before "
                        f"distance computation"
                    )
                if fa.size == 0 or fb.size == 0:
                    warnings.warn(
                        f"{metric}: no finite samples, recording nan distance"
                    )
                    distances.append(float("nan"))
                else:
                    distances.append(mx.cvm_distance(fa, fb))
            write_table(
                os.path.join(out, f"cvm_{metric.replace('-', '_')}.csv"),
                ["label_a", "label_b", "distance"],
                [[a for a, _ in pairs], [b for _, b in pairs], distances],
            )

    write_json(
        os.path.join(out, "meta.json"),
        {
            "channels": [label for label, *_ in loaded],
            "metrics": metrics,
            "num_ues": args.num_ues,
            "trials": args.trials,
            "snr_db": args.snr_db,
            "seed": args.seed,
        },
    )
    return 0


def _cmd_evaluate(args) -> int:
    return _evaluate_channels(args, write_per_channel=True)


def _cmd_compare(args) -> int:
    if len(args.channel) < 2:
        raise ConfigError("compare needs at least two --channel inputs")
    return _evaluate_channels(args, write_per_channel=False)


if __name__ == "__main__":
    sys.exit(main())
