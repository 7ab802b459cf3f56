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
thread pools; the package root applies it before this module imports numpy.
Library functions are called as module attributes (``channel.assemble``),
so they are looked up at call time and a wrapper set on the module after
this import sees every call.  ``serialization`` is imported inside each
command: it loads yaml and orjson, which ``import xlmimo.cli`` does not.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import warnings

import numpy as np

from . import channel, metrics as mx, scenario, sns
from ._threads import apply_thread_env
from .errors import ConfigError, GeometryError, NumericError
from .geometry import rayleigh_distance
from .nearfield import Stationarity

#: Largest ``--trials`` x ``--num-ues`` of ``evaluate``/``compare``: every
#: trial's user subset is drawn before any metric runs, so larger requests
#: are rejected up front.  The paper's set-up, 800 trials of 4 users, is
#: 3,200.
_MAX_TRIAL_USERS = 1_000_000

#: Largest estimate of ``synthesize``.  Two terms are streamed output: the
#: users x elements x frequencies complex64 values of ``channel.bin`` and one
#: ``serialization.PATHTABLE_DTYPE`` record (72 bytes) per path-table row
#: (elements x paths of every user).  The rest is what one user holds
#: (``channel._working_set_bytes``): its path table, one complex64 chunk of
#: element rows with ``channel.assemble``'s tables for it, complex128 step
#: phasors per path and block frequency (b <= 64) and start phasors per
#: path and block.  The channel values and
#: the path-free part of the working set are checked before any path is
#: built, the rest once the paths are known; both before ``--out`` is made.
#: The trials of ``evaluate`` and ``compare`` hold every channel's (K, P, P)
#: complex128 Gram tensor at once, 16 K P^2 bytes each; their sum is checked
#: against the same limit before any tensor value is read.
_MAX_SYNTH_BYTES = 4 * 2**30

#: Bytes ``generate-aaf`` holds per element of the one sequence it draws,
#: fits and appends before the next: its float64 values and ACF, int64
#: ``sequence`` column and the shared ``element`` column (32), the Beta and
#: normal draws, ``sns._ar1_filter``'s two lists of Python floats and result,
#: the argsort, rank, arange and sorted arrays and ``sns.acf``'s work arrays
#: (152); checked against ``_MAX_SYNTH_BYTES`` before ``--out`` is made.
_AAF_BYTES_PER_ELEMENT = 32 + 152


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
    from .serialization import read_yaml

    if args.preset:
        cfg = scenario.preset(args.preset)
    else:
        cfg = read_yaml(args.config)
    if getattr(args, "variant", None):
        cfg["variant"] = args.variant
    if args.seed is not None:
        cfg["seed"] = args.seed
    try:
        return scenario.validate_config(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_scenario(args) -> int:
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
    if variant.endswith("-ss"):
        return False
    return any(
        p.stationarity is Stationarity.NON_STATIONARY and p.aaf is None
        for paths in all_paths
        for p in paths
    )


def _check_size(estimate: int, what: str, command: str = "synthesize") -> None:
    if estimate > _MAX_SYNTH_BYTES:
        raise ConfigError(
            f"{command} would need about {estimate / 2**30:.1f} GiB for "
            f"{what}; the limit is {_MAX_SYNTH_BYTES / 2**30:.0f} GiB"
        )


def _cmd_synthesize(args) -> int:
    from .serialization import (
        PATHTABLE_DTYPE,
        config_sha256,
        pathtable_writer,
        read_paths_csv,
        write_channel,
        write_json,
        write_paths_csv,
        write_yaml,
    )

    cfg = _resolve_config(args)
    geometry = scenario.build_geometry(cfg)
    grid = scenario.build_grid(cfg)
    num_elements = geometry.num_elements
    num_ues = len(args.paths) if args.paths else len(cfg["ues"])
    streamed = num_ues * num_elements * grid.num_points * 8
    _check_size(
        streamed + channel._working_set_bytes(num_elements, grid.num_points, 0),
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
    max_paths = max(len(paths) for paths in all_paths)
    _check_size(
        streamed
        + channel._working_set_bytes(num_elements, grid.num_points, max_paths)
        + num_rows * PATHTABLE_DTYPE.itemsize,
        f"{num_rows} path-table rows and the channel",
    )
    if _needs_seed(variant, all_paths) and seed is None:
        raise ConfigError(
            "seed is required: the variant generates random attenuation factors"
        )

    sha = config_sha256(cfg)
    out = _ensure_out(args)
    rows = channel._chunk_rows(num_elements, grid.num_points)
    chunk = np.empty((rows, grid.num_points), dtype="<c8")

    def responses(append_table):
        """Each user's response as complex64 chunks of element rows, all
        written into ``chunk``, after its path-table records are appended."""
        for ue, paths in enumerate(all_paths):
            table = channel.path_table(
                paths,
                geometry,
                tx_pattern,
                rx_pattern,
                grid.carrier_hz,
                channel.build_variant_aaf(
                    paths,
                    num_elements,
                    variant,
                    params=params,
                    seed=seed,
                    stream_key=(ue,),
                ),
                variant=variant,
            )
            append_table(ue, paths, table)
            for lo in range(0, num_elements, rows):
                hi = min(lo + rows, num_elements)
                yield channel.assemble(paths, table[lo:hi], grid, out=chunk[: hi - lo])
            del table  # before the next user's is built

    with pathtable_writer(out, num_rows) as append_table:
        write_channel(
            os.path.join(out, "channel"),
            responses(append_table),
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
    from .serialization import _csv_appender, _replacing, read_yaml, write_json

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
        params = scenario.build_aaf_params(read_yaml(args.config) if args.config else {})
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"aaf: {exc}") from exc
    _check_size(
        args.elements * _AAF_BYTES_PER_ELEMENT,
        f"{args.elements} elements per sequence",
        "generate-aaf",
    )

    out = _ensure_out(args)
    element = np.arange(args.elements)
    with contextlib.ExitStack() as stack:

        def appender(name, header):
            fh = stack.enter_context(_replacing(os.path.join(out, name), newline=""))
            return _csv_appender(fh, header)

        append_aaf = appender("aaf.csv", ["sequence", "element", "value"])
        append_params = appender(
            "aaf_params.csv", ["sequence", "p", "q", "d_corr", "fitted_dcorr"]
        )
        if args.elements >= 3:
            append_acf = appender("acf.csv", ["sequence", "lag", "value"])
        for seq in range(args.sequences):
            rng = np.random.default_rng(
                np.random.SeedSequence(args.seed, spawn_key=(seq,))
            )
            if args.p is not None:
                p, q, d_corr = args.p, args.q, args.dcorr
            else:
                p, q, d_corr = sns.sample_aaf_params(params, rng)
            try:
                values = sns.generate_aaf(args.elements, p, q, d_corr, rng)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            sequence = np.full(args.elements, seq)
            append_aaf([sequence, element, values])
            fitted = float("nan")
            if args.elements >= 3:
                try:
                    curve = sns.acf(values)
                except ValueError:  # constant draws (e.g. p >> q) have no ACF
                    curve = np.full(args.elements, np.nan)
                else:
                    fitted = sns.fit_dcorr(curve)
                append_acf([sequence, element, curve])
            append_params([[seq], [p], [q], [d_corr], [fitted]])
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


#: Metrics of the multi-user trials on the channel tensor, in the order
#: that ``mx.multiuser_trials`` returns them.
_TRIAL_METRICS = ("capacity", "demmel")

#: Per-element metrics of the path table, each a function of one user's
#: table.  The ``mx`` functions are looked up at call time, as the module
#: docstring says.
_ELEMENT_METRICS = {
    "gain": lambda t: mx.path_gain_db(t["amplitude"]),
    "kfactor": lambda t: mx.rician_k_db(t["amplitude"]),
    "delay-spread": lambda t: mx.rms_delay_spread(t["amplitude"] ** 2, t["delay"]),
}

_METRICS = (*_TRIAL_METRICS, *_ELEMENT_METRICS, "spatial-correlation")


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


def _load_channels(args, metrics, trials: bool) -> list:
    """Load channels as (label, path, meta, tables) tuples; ``tables`` are
    the per-user path tables, None without per-path metrics.

    Every header and file size is checked first, then the trial arguments
    and each channel's path table against the metrics, all before
    ``evaluate`` makes ``--out``.  No tensor value is read.
    """
    from .serialization import read_channel_header, read_pathtable

    headers = [read_channel_header(path) for path in args.channel]
    if trials and args.seed is None:
        raise ConfigError("--seed is required for capacity/demmel trials")
    loaded = []
    seen = {}
    for path, meta in zip(args.channel, headers):
        label = f"{os.path.basename(path).removesuffix('.json')}_{meta['variant']}"
        seen[label] = seen.get(label, 0) + 1
        if seen[label] > 1:
            label = f"{label}_{seen[label]}"
        num_users = meta["shape"][0]
        if trials and not 1 <= args.num_ues <= num_users:
            raise ConfigError(f"--num-ues must be in [1, {num_users}] for {label}")
        tables = None
        if any(m not in _TRIAL_METRICS for m in metrics):
            tables = read_pathtable(os.path.dirname(os.path.abspath(path)))
        if "spatial-correlation" in metrics:
            num_paths = min(t["aaf"].shape[1] for t in tables)
            if num_paths < 2:
                raise ConfigError(
                    f"spatial-correlation needs at least two paths per user, "
                    f"got {num_paths} in {label}"
                )
        loaded.append((label, path, meta, tables))
    return loaded


def _channel_gram(path, meta):
    """The trial metrics' :class:`xlmimo.metrics.PoolGram` of a channel,
    streamed from its ``.bin`` file; a non-finite value exits 2."""
    from .serialization import _channel_files, read_channel_rows

    shape = meta["shape"]
    try:
        return mx.stream_gram(functools.partial(read_channel_rows, path, shape), shape)
    except ValueError as exc:
        raise ConfigError(f"{_channel_files(path)[1]}: {exc}") from exc


def _metric_samples(gram, tables, metrics, args):
    """Sample vectors per metric for one channel; ``gram`` is None without
    trial metrics."""
    samples = {}
    if gram is not None:
        rng = np.random.default_rng(np.random.SeedSequence(args.seed))
        drawn = mx.multiuser_trials(
            gram, args.num_ues, args.trials, rng, snr_db=args.snr_db
        )
        samples.update(zip(_TRIAL_METRICS, drawn))
    for metric, per_user in _ELEMENT_METRICS.items():
        if metric in metrics:
            samples[metric] = np.concatenate([per_user(t) for t in tables])
    return samples


def _spatial_correlation_curve(tables, max_lag):
    """Lags 1..min(max_lag, M - 1) and the user-averaged correlation at each."""
    num_elements = tables[0]["aaf"].shape[0]
    lags = np.arange(1, min(int(max_lag), num_elements - 1) + 1)
    # (lags, users), C-contiguous: each lag's users are averaged as one row
    per_user = np.column_stack(
        [mx.avg_spatial_correlation(t["aaf"] * t["alpha"], lags) for t in tables]
    )
    return lags, np.nanmean(per_user, axis=1)


def _write_samples(out, label, metric, values) -> None:
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
    trials = any(m in _TRIAL_METRICS for m in metrics)
    loaded = _load_channels(args, metrics, trials)
    grams = [None] * len(loaded)
    if trials:
        # every channel's (K, P, P) complex128 Gram tensor is held at once
        _check_size(
            sum(16 * m["shape"][2] * m["shape"][0] ** 2 for _, _, m, _ in loaded),
            "the per-frequency Gram tensors of the trials",
            args.command,
        )
        grams = [_channel_gram(path, meta) for _, path, meta, _ in loaded]
    out = _ensure_out(args)
    all_samples = {}
    summary = {"label": [], "metric": [], "count": [], "non_finite": [], "mean": []}
    for (label, _, _, tables), gram in zip(loaded, grams):
        samples = _metric_samples(gram, tables, metrics, args)
        all_samples[label] = samples
        for metric in metrics:
            if metric == "spatial-correlation":
                if write_per_channel:
                    lags, curve = _spatial_correlation_curve(tables, args.max_lag)
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
