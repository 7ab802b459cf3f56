"""Deterministic on-disk formats.

All writers are byte-deterministic for identical inputs: floats are
serialized with ``repr`` (shortest round-trip form), JSON keys are sorted,
and no timestamps or environment details are recorded.  Channel tensors are
stored as little-endian complex64 binaries in C order next to a JSON header
describing shape, grid, and provenance (seed and configuration hash).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np
import yaml

from .channel import VARIANTS, FrequencyGrid
from .errors import ConfigError
from .geometry import Angles, ArrayGeometry
from .nearfield import PathRecord, Stationarity, WavefrontModel

TENSOR_FORMAT_VERSION = 1
PATHS_FORMAT_VERSION = 1

PATH_COLUMNS = [
    "model",
    "stationarity",
    "amplitude",
    "phase_rad",
    "delay_s",
    "distance_m",
    "aod_azimuth_rad",
    "aod_elevation_rad",
    "aoa_azimuth_rad",
    "aoa_elevation_rad",
    "aaf",
]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_table(path, header, rows) -> None:
    """Write a CSV table with deterministic float formatting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def config_sha256(config: dict) -> str:
    """Hash of the canonical JSON form of a configuration dict."""
    canonical = json.dumps(
        config, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_yaml(path, config: dict) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(config, fh, sort_keys=True, default_flow_style=False)


def read_yaml(path) -> dict:
    try:
        with open(path) as fh:
            loaded = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError(f"{path}: expected a mapping at the top level")
    return loaded


def write_paths_csv(path, paths) -> None:
    """Serialize a path list; ``read_paths_csv`` round-trips it losslessly."""
    rows = []
    for p in paths:
        aaf = ";".join(repr(float(v)) for v in p.aaf) if p.aaf is not None else ""
        rows.append(
            [
                p.model.value,
                p.stationarity.value,
                p.amplitude,
                p.phase,
                p.delay,
                p.distance,
                p.aod.azimuth,
                p.aod.elevation,
                p.aoa.azimuth,
                p.aoa.elevation,
                aaf,
            ]
        )
    write_table(path, PATH_COLUMNS, rows)


def read_paths_csv(path) -> list:
    """Parse a path list written by :func:`write_paths_csv`."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != PATH_COLUMNS:
            raise ConfigError(
                f"{path}: expected columns {PATH_COLUMNS}, got {reader.fieldnames}"
            )
        paths = []
        for i, row in enumerate(reader):
            try:
                aaf = (
                    np.array([float(v) for v in row["aaf"].split(";")])
                    if row["aaf"]
                    else None
                )
                paths.append(
                    PathRecord(
                        model=WavefrontModel(row["model"]),
                        stationarity=Stationarity(row["stationarity"]),
                        amplitude=float(row["amplitude"]),
                        phase=float(row["phase_rad"]),
                        delay=float(row["delay_s"]),
                        distance=float(row["distance_m"]),
                        aod=Angles(
                            float(row["aod_azimuth_rad"]),
                            float(row["aod_elevation_rad"]),
                        ),
                        aoa=Angles(
                            float(row["aoa_azimuth_rad"]),
                            float(row["aoa_elevation_rad"]),
                        ),
                        aaf=aaf,
                    )
                )
            except (ValueError, KeyError) as exc:
                raise ConfigError(f"{path}: row {i + 1}: {exc}") from exc
    if not paths:
        raise ConfigError(f"{path}: no paths found")
    return paths


def write_channel(
    basepath,
    values,
    grid: FrequencyGrid,
    geometry: ArrayGeometry,
    variant: str,
    seed,
    config_sha256,
    name,
) -> None:
    """Write ``<basepath>.bin`` (little-endian complex64) and ``<basepath>.json``.

    ``values`` has shape (users, elements, frequencies); a ``<c8`` C-order
    array, such as the pool ``synthesize`` fills, is written without a
    copy.  The header records the shape, the grid and array, and the
    provenance: variant, seed, configuration hash and scenario name.
    """
    values = np.ascontiguousarray(values, "<c8")
    if values.shape[1:] != (geometry.num_elements, grid.num_points):
        raise ValueError(
            f"values shape {values.shape} does not match "
            f"({geometry.num_elements} elements, {grid.num_points} frequencies)"
        )
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    with open(f"{basepath}.bin", "wb") as fh:
        values.tofile(fh)
    meta = {
        "format_version": TENSOR_FORMAT_VERSION,
        "dtype": "complex64",
        "byte_order": "little",
        "order": "C",
        "shape": list(values.shape),
        "axes": ["user", "element", "frequency"],
        "grid": {
            "f_low_hz": grid.f_low_hz,
            "f_high_hz": grid.f_high_hz,
            "num_points": grid.num_points,
        },
        "array": {
            "num_elements": geometry.num_elements,
            "spacing_m": geometry.spacing,
            "axis": [float(v) for v in geometry.axis],
            "origin": [float(v) for v in geometry.origin],
            "reference_index": geometry.reference_index,
        },
        "variant": variant,
        "seed": seed,
        "config_sha256": config_sha256,
        "name": name,
        "num_ues": values.shape[0],
    }
    write_json(f"{basepath}.json", meta)


def _channel_files(basepath) -> tuple:
    base = str(basepath)
    if base.endswith(".json"):
        base = base[: -len(".json")]
    return f"{base}.json", f"{base}.bin"


def read_channel_header(basepath) -> dict:
    """Validated header of a channel written by :func:`write_channel`.

    Checks the encoding and the variant, that ``shape`` is three
    non-negative ints agreeing with the grid and the array, that the grid
    and array values are valid, and that the ``.bin`` file has exactly the
    size the shape implies.  No tensor value is read.
    """
    meta_path, bin_path = _channel_files(basepath)
    for p in (meta_path, bin_path):
        if not os.path.exists(p):
            raise ConfigError(f"missing channel file {p}")
    try:
        meta = read_json(meta_path)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{meta_path}: invalid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise ConfigError(f"{meta_path}: expected a JSON object")
    if meta.get("format_version") != TENSOR_FORMAT_VERSION:
        raise ConfigError(
            f"{meta_path}: unsupported format_version {meta.get('format_version')!r}"
        )
    if meta.get("dtype") != "complex64" or meta.get("byte_order") != "little":
        raise ConfigError(f"{meta_path}: unsupported encoding")
    if meta.get("variant", "nf-sns") not in VARIANTS:
        raise ConfigError(f"{meta_path}: unknown variant {meta['variant']!r}")
    shape = meta.get("shape")
    if not (
        isinstance(shape, list)
        and len(shape) == 3
        and all(type(n) is int and n >= 0 for n in shape)
    ):
        raise ConfigError(
            f"{meta_path}: shape must be three non-negative ints, got {shape!r}"
        )
    grid = meta.get("grid")
    if not isinstance(grid, dict) or grid.get("num_points") != shape[2]:
        raise ConfigError(f"{meta_path}: shape {shape} does not match the grid")
    array = meta.get("array")
    if "array" in meta and (
        not isinstance(array, dict) or array.get("num_elements") != shape[1]
    ):
        raise ConfigError(f"{meta_path}: shape {shape} does not match the array")
    try:
        FrequencyGrid(**grid)
        if "array" in meta:
            ArrayGeometry(
                num_elements=array["num_elements"],
                spacing=array["spacing_m"],
                axis=np.asarray(array["axis"]),
                origin=np.asarray(array["origin"]),
                reference_index=array["reference_index"],
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{meta_path}: invalid grid or array: {exc!r}") from exc
    size = os.path.getsize(bin_path)
    if size != shape[0] * shape[1] * shape[2] * 8:
        raise ConfigError(f"{bin_path}: size {size} does not match shape {shape}")
    return meta


def read_channel(basepath) -> tuple:
    """Read a channel written by :func:`write_channel`.

    ``basepath`` may include the ``.json`` suffix.  Returns ``(values,
    meta)``: the (users, elements, frequencies) ``<c8`` array as stored,
    read in one call, and the header dict, checked by
    :func:`read_channel_header` before anything is allocated.
    """
    meta = read_channel_header(basepath)
    _, bin_path = _channel_files(basepath)
    shape = meta["shape"]
    values = np.fromfile(bin_path, "<c8", count=shape[0] * shape[1] * shape[2])
    return values.reshape(shape), meta
