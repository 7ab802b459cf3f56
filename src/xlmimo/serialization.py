"""Deterministic on-disk formats.

All writers are byte-deterministic for identical inputs: CSV numbers are
written in the form of ``repr`` (shortest round-trip for floats), through
one ``orjson`` call per block of values and the fixes that one scan per
span of blocks finds, JSON keys are sorted, and no timestamps or
environment details are recorded.  Channel tensors are stored as
little-endian complex64 binaries in C order next to a JSON header
describing shape, grid, and provenance (seed and configuration hash).
The path table is a 1-D structured ``.npy`` array of ``PATHTABLE_DTYPE``
records with the same values as CSV text next to it, both written from one
append per user.

Every writer is atomic: it writes a temporary file in the target's
directory and renames it over the target only once it is complete, so a
failed write leaves no partial file and an existing target unchanged.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import os

import numpy as np
import orjson
import yaml

from .channel import VARIANTS, FrequencyGrid
from .errors import ConfigError
from .geometry import Angles, ArrayGeometry
from .nearfield import PathRecord, Stationarity, WavefrontModel

TENSOR_FORMAT_VERSION = 1

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


@contextlib.contextmanager
def _replacing(path, mode="x", **kwargs):
    """Create a temporary file next to ``path`` (``mode`` "x" or "xb"); rename
    it over ``path`` when the block completes, delete it when the block
    raises."""
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


#: Rows formatted at a time: one block's strings are alive at once, never a
#: whole column's.
_BLOCK_ROWS = 512

#: Rows of a float column whose magnitudes one pass of numpy calls scans.
_SPAN_ROWS = 2**15

#: Magnitude edges where orjson's text parts from ``repr``'s.  A float in
#: [1e-9, 1e-5) or >= 1e16 has an exponent that orjson writes as ``e-7`` or
#: ``e16`` and ``repr`` as ``e-07`` or ``e+16``; one in [1e-5, 1e-4) orjson
#: writes in full (``0.000015`` for ``1.5e-05``).  For a double ``x`` and the
#: double ``D`` nearest a power of ten, ``x >= D`` decides the exponent
#: of both texts.
_EDGES = np.array([1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e16])
_IN_FULL = 5
#: The exponent rewrites of each interval that needs one; interval ``i``
#: holds [_EDGES[i - 1], _EDGES[i]).  A negative exponent is matched with
#: the ``,`` after its token, so that ``e-6,`` cannot match ``e-60``.  No
#: rewrite matches the text of a value outside its interval.
_EXPONENTS = {
    1: [("e-9,", "e-09,")],
    2: [("e-8,", "e-08,")],
    3: [("e-7,", "e-07,")],
    4: [("e-6,", "e-06,")],
    7: [(f"e{d}", f"e+{d}") for d in "123456789"],
}


def _scan(values):
    """What turns orjson's text of the floats ``values`` into ``repr``'s:
    the exponent rewrites of the intervals that some value falls in, the
    ascending positions of the values with 1e-5 <= |x| < 1e-4 or not
    finite, and where the positions of each block of ``_BLOCK_ROWS`` start."""
    magnitude = np.abs(values, dtype=float)
    nulls = ~np.isfinite(magnitude)
    magnitude[nulls] = 0.0
    interval = np.searchsorted(_EDGES, magnitude, "right")
    counts = np.bincount(interval, minlength=len(_EDGES) + 1)
    rewrites = [r for i, pair in _EXPONENTS.items() if counts[i] for r in pair]
    fixes = np.flatnonzero((interval == _IN_FULL) | nulls)
    blocks = np.arange(0, len(values) + _BLOCK_ROWS, _BLOCK_ROWS)
    return rewrites, fixes, np.searchsorted(fixes, blocks).tolist()


def _tokens(span, lo, scan):
    """The block of a 1-D float or int array ``span`` at row ``lo``: one
    ``orjson.dumps`` call, as float64 or 64-bit ints, split into tokens.
    Float text is rewritten into ``repr``'s form with ``scan``, the
    :func:`_scan` of the whole span: its exponent rewrites, the digits of
    each value with 1e-5 <= |x| < 1e-4 moved into exponent form, and
    ``repr`` itself for the non-finite values, which orjson writes as
    ``null``."""
    values = np.ascontiguousarray(span[lo : lo + _BLOCK_ROWS], f"<{span.dtype.kind}8")
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
    if scan is None:
        return text.split(",")
    rewrites, fixes, cuts = scan
    text += ","
    for old, new in rewrites:
        text = text.replace(old, new)
    tokens = text[:-1].split(",")
    block = lo // _BLOCK_ROWS
    for i in fixes[cuts[block] : cuts[block + 1]].tolist():
        if tokens[i - lo] == "null":
            tokens[i - lo] = repr(float(span[i]))
        else:  # the same shortest digits: [-]0.0000DIGITS to [-]D.IGITSe-05
            sign, digits = tokens[i - lo].split("0.0000")
            point = "." if len(digits) > 1 else ""
            tokens[i - lo] = f"{sign}{digits[0]}{point}{digits[1:]}e-05"
    return tokens


def _column_blocks(column):
    """The cells of ``column`` as strings formatted like ``_fmt``, one list
    per block of ``_BLOCK_ROWS`` rows (:func:`_tokens` for a 1-D float or
    int array).  Blocks restart at each span of ``_SPAN_ROWS`` rows, so that
    the columns of a table stay in step; a float span is scanned once."""
    array = isinstance(column, np.ndarray) and column.ndim == 1
    kind = column.dtype.kind if array else None
    for start in range(0, len(column), _SPAN_ROWS):
        span = column[start : start + _SPAN_ROWS]
        scan = _scan(span) if kind == "f" else None
        for lo in range(0, len(span), _BLOCK_ROWS):
            if kind in ("f", "i", "u"):
                yield _tokens(span, lo, scan)
            else:
                yield list(map(_fmt, span[lo : lo + _BLOCK_ROWS]))


def _formatted(column):
    """Every cell of ``column`` as a string (see :func:`_column_blocks`)."""
    return itertools.chain.from_iterable(_column_blocks(column))


def _csv_appender(fh, header):
    """Write the CSV ``header`` row to ``fh``; return ``append(columns)``,
    which writes rows with deterministic float formatting.

    ``columns`` holds one sequence per ``header`` name (a numpy array or a
    list), all of the same length.  Float and int arrays are formatted a
    block of rows at a time, one ``orjson`` call per block, into the strings
    ``repr`` and ``str`` give (see :func:`_column_blocks`); other cells are
    formatted one by one with ``_fmt``.  When
    every column is a 1-D float or int array, no cell can need quoting, so
    each block's rows are joined with ``,`` and newlines directly; rows with
    any list, string or bool column go through ``csv`` quoting.  Both give
    the same bytes, and so do rows split over several appends.
    """
    # No csv writer outlives its write: each holds a 128 KiB record buffer.
    csv.writer(fh, lineterminator="\n").writerow(header)

    def append(columns):
        columns = list(columns)
        if len(columns) != len(header):
            raise ValueError(f"{len(columns)} columns for {len(header)} header names")
        num_rows = len(columns[0]) if columns else 0
        if any(len(c) != num_rows for c in columns):
            raise ValueError(f"column lengths differ: {[len(c) for c in columns]}")
        numeric = all(
            isinstance(c, np.ndarray) and c.ndim == 1 and c.dtype.kind in "fiu"
            for c in columns
        )
        for blocks in zip(*map(_column_blocks, columns)):
            if numeric:
                fh.write("\n".join(map(",".join, zip(*blocks))) + "\n")
            else:
                csv.writer(fh, lineterminator="\n").writerows(zip(*blocks))
            del blocks  # before the next blocks are formatted

    return append


def write_table(path, header, columns) -> None:
    """Write a CSV table (see :func:`_csv_appender`); it replaces ``path``
    once complete, and a failed write leaves ``path`` as it was."""
    with _replacing(path, newline="") as fh:
        _csv_appender(fh, header)(columns)


#: The path table's records: one per (user, path, element), the
#: ``pathtable.npy`` dtype and the ``pathtable.csv`` columns.
PATHTABLE_DTYPE = np.dtype(
    [(name, "<i8") for name in ("ue", "path", "element")]
    + [
        (name, "<f8")
        for name in ("alpha_ref", "aaf", "amplitude", "delay_s", "phase_rad", "distance_m")
    ]
)


@contextlib.contextmanager
def pathtable_writer(directory, num_rows):
    """Write ``pathtable.npy`` and ``pathtable.csv`` in ``directory``, users
    appended as they come; yields ``append(ue, paths, table)``.

    Each call builds the records of user ``ue`` once, one per (path,
    element) in that order, from its path list and its
    :class:`xlmimo.channel.PathTable`, and appends them to both files.  The
    ``.npy`` format 1.0 header goes first and gives the total row count, so
    the complete file has the bytes of ``np.save`` on the whole table; the
    ``.csv`` file has the bytes of one :func:`write_table`.  Both files
    replace their targets once ``num_rows`` records are written; more or
    fewer raise ``ValueError`` and leave both targets as they were.
    """
    with _replacing(
        os.path.join(directory, "pathtable.csv"), newline=""
    ) as csv_fh, _replacing(os.path.join(directory, "pathtable.npy"), "xb") as npy_fh:
        append_csv = _csv_appender(csv_fh, PATHTABLE_DTYPE.names)
        np.lib.format.write_array_header_1_0(
            npy_fh,
            {
                "descr": np.lib.format.dtype_to_descr(PATHTABLE_DTYPE),
                "fortran_order": False,
                "shape": (num_rows,),
            },
        )
        written = 0

        def append(ue, paths, table):
            nonlocal written
            num_elements = table.amplitudes.shape[0]
            if written + len(paths) * num_elements > num_rows:
                raise ValueError(f"more than {num_rows} records")
            records = np.empty((len(paths), num_elements), PATHTABLE_DTYPE)
            records["ue"] = ue
            records["path"] = np.arange(len(paths))[:, None]
            records["element"] = np.arange(num_elements)
            records["alpha_ref"] = np.array([p.amplitude for p in paths])[:, None]
            columns = (table.aaf, table.amplitudes, table.delays, table.phases, table.distances)
            for name, column in zip(PATHTABLE_DTYPE.names[4:], columns):
                records[name] = column.T
            records = records.ravel()
            append_csv([records[name] for name in PATHTABLE_DTYPE.names])
            records.tofile(npy_fh)
            written += records.size

        yield append
        if written != num_rows:
            raise ValueError(f"{written} of {num_rows} records written")


def read_pathtable(directory) -> list:
    """Per-user amplitude/delay/aaf/alpha matrices from pathtable.npy.

    The file must be ``.npy`` format 1.0, as :func:`pathtable_writer` and
    ``np.save`` write it, and hold a 1-D array of ``PATHTABLE_DTYPE``
    records.  Every
    user shares the element count; each user's rows must cover every
    (path, element) pair exactly once, in any order, with finite,
    non-negative values.
    """
    table_path = os.path.join(directory, "pathtable.npy")
    if not os.path.exists(table_path):
        raise ConfigError(
            f"{table_path} not found: per-path metrics need the synthesize "
            f"output directory"
        )
    # The header is checked against the file size before any record is
    # read, so a header that declares more rows than the file holds fails
    # here instead of allocating them.
    try:
        with open(table_path, "rb") as fh:
            version = np.lib.format.read_magic(fh)
            if version != (1, 0):
                raise ValueError(f"unsupported .npy format version {version}")
            shape, _, stored = np.lib.format.read_array_header_1_0(fh)
            if len(shape) != 1 or stored != PATHTABLE_DTYPE:
                raise ConfigError(
                    f"{table_path}: expected a 1-D array of {PATHTABLE_DTYPE}, got "
                    f"{stored} of shape {shape}"
                )
            expected = fh.tell() + shape[0] * PATHTABLE_DTYPE.itemsize
            size = os.fstat(fh.fileno()).st_size
            if size != expected:
                raise ConfigError(
                    f"{table_path}: {size} bytes where the header's "
                    f"{shape[0]} rows take {expected}"
                )
            data = np.fromfile(fh, dtype=PATHTABLE_DTYPE, count=shape[0])
    except (ValueError, EOFError, OSError) as exc:
        raise ConfigError(f"{table_path}: not a readable .npy table: {exc}") from exc
    if data.size == 0:
        raise ConfigError(f"{table_path}: empty table")
    fields = ("alpha_ref", "aaf", "amplitude", "delay_s")
    if not all(np.all(np.isfinite(data[f]) & (data[f] >= 0.0)) for f in fields):
        raise ConfigError(
            f"{table_path}: alpha_ref, aaf, amplitude and delay_s must be "
            f"finite and >= 0"
        )
    rows = data.size
    ue, path, element = data["ue"], data["path"], data["element"]
    if not all(np.all((i >= 0) & (i < rows)) for i in (ue, path, element)):
        raise ConfigError(f"{table_path}: invalid ue/path/element index")
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
    row_of = np.empty(rows, dtype=int)
    row_of[slot] = np.arange(rows)
    out = []
    for lo, hi, paths in zip(bounds[:-1], bounds[1:], num_paths):
        # the (elements, paths) rows of one user's records, C-ordered so that
        # every field gathered by it is too
        index = np.ascontiguousarray(row_of[lo:hi].reshape(paths, num_elements).T)
        aaf, amplitude, delay = (
            data[name][index] for name in ("aaf", "amplitude", "delay_s")
        )
        alpha = data["alpha_ref"][index[0]]  # repeats on every element
        out.append(
            {"amplitude": amplitude, "delay": delay, "aaf": aaf, "alpha": alpha}
        )
    return out


def _dump_json(fh, obj) -> None:
    json.dump(obj, fh, sort_keys=True, indent=2)
    fh.write("\n")


def write_json(path, obj) -> None:
    with _replacing(path) as fh:
        _dump_json(fh, obj)


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
    with _replacing(path) as fh:
        yaml.safe_dump(config, fh, sort_keys=True, default_flow_style=False)


def read_yaml(path) -> dict:
    try:
        with open(path) as fh:
            loaded = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError(f"{path}: expected a mapping at the top level")
    return loaded


def write_paths_csv(path, paths) -> None:
    """Serialize a path list; ``read_paths_csv`` round-trips it losslessly."""
    paths = list(paths)
    columns = [
        [p.model.value for p in paths],
        [p.stationarity.value for p in paths],
        [p.amplitude for p in paths],
        [p.phase for p in paths],
        [p.delay for p in paths],
        [p.distance for p in paths],
        [p.aod.azimuth for p in paths],
        [p.aod.elevation for p in paths],
        [p.aoa.azimuth for p in paths],
        [p.aoa.elevation for p in paths],
        [";".join(_formatted(p.aaf)) if p.aaf is not None else "" for p in paths],
    ]
    write_table(path, PATH_COLUMNS, columns)


def read_paths_csv(path) -> list:
    """Parse a path list written by :func:`write_paths_csv`.

    A fixed ``aaf`` cell holds one float per element, so for the read the
    ``csv`` field limit is raised to the file size and restored after.
    """
    limit = csv.field_size_limit()
    try:
        with open(path, newline="") as fh:
            csv.field_size_limit(max(limit, os.fstat(fh.fileno()).st_size))
            reader = csv.DictReader(fh)
            if reader.fieldnames != PATH_COLUMNS:
                raise ConfigError(
                    f"{path}: expected columns {PATH_COLUMNS}, got {reader.fieldnames}"
                )
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from exc
    finally:
        csv.field_size_limit(limit)
    paths = []
    for i, row in enumerate(rows):
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

    ``values`` is an iterable of (rows, frequencies) arrays, each the next
    element rows of the current user, users in order: a (users, elements,
    frequencies) array gives one whole user at a time, and the generator
    that ``synthesize`` feeds gives chunks of element rows.  Each is cast to
    ``<c8`` (a C-order ``<c8`` array without a copy), checked to fit in the
    current user and appended to the temporary ``.bin`` as it arrives.  The
    header records the shape and the number of users written, the grid and
    array, and the provenance: variant, seed, configuration hash and
    scenario name.  Both files replace their targets only once every user
    is written; a chunk of the wrong shape, a last user left incomplete, or
    an iterable that raises leaves no file behind.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    num_elements, num_points = geometry.num_elements, grid.num_points
    # Both files are complete before either replaces its target.
    with _replacing(f"{basepath}.bin", "xb") as bin_fh, _replacing(
        f"{basepath}.json"
    ) as json_fh:
        num_rows = 0
        for chunk in values:
            chunk = np.ascontiguousarray(chunk, "<c8")
            user, done = divmod(num_rows, num_elements)
            left = num_elements - done
            if chunk.ndim != 2 or chunk.shape[0] > left or chunk.shape[1] != num_points:
                raise ValueError(
                    f"user {user} values shape {chunk.shape} does not fit its "
                    f"{left} remaining of {num_elements} elements x "
                    f"{num_points} frequencies"
                )
            chunk.tofile(bin_fh)
            num_rows += chunk.shape[0]
        num_ues, done = divmod(num_rows, num_elements)
        if done:
            raise ValueError(
                f"user {num_ues} has {done} of {num_elements} element rows"
            )
        meta = {
            "format_version": TENSOR_FORMAT_VERSION,
            "dtype": "complex64",
            "byte_order": "little",
            "order": "C",
            "shape": [num_ues, num_elements, num_points],
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
            "num_ues": num_ues,
        }
        _dump_json(json_fh, meta)


def _channel_files(basepath) -> tuple:
    base = str(basepath).removesuffix(".json")
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{meta_path}: cannot read: {exc}") from exc
    if not isinstance(meta, dict):
        raise ConfigError(f"{meta_path}: expected a JSON object")
    if meta.get("format_version") != TENSOR_FORMAT_VERSION:
        raise ConfigError(
            f"{meta_path}: unsupported format_version {meta.get('format_version')!r}"
        )
    if meta.get("dtype") != "complex64" or meta.get("byte_order") != "little":
        raise ConfigError(f"{meta_path}: unsupported encoding")
    if meta.get("variant") not in VARIANTS:
        raise ConfigError(f"{meta_path}: unknown variant {meta.get('variant')!r}")
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
    if not isinstance(array, dict) or array.get("num_elements") != shape[1]:
        raise ConfigError(f"{meta_path}: shape {shape} does not match the array")
    try:
        FrequencyGrid(**grid)
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
    read by :func:`read_channel_rows`, and the header dict, checked by
    :func:`read_channel_header` before anything is allocated.
    """
    meta = read_channel_header(basepath)
    shape = meta["shape"]
    return read_channel_rows(basepath, shape, range(shape[0]), 0, shape[1]), meta


def read_channel_rows(basepath, shape, users, lo, hi) -> np.ndarray:
    """Element rows lo..hi-1 of some users of a channel, as stored.

    ``shape`` is the (users, elements, frequencies) shape that
    :func:`read_channel_header` checked against the ``.bin`` size.  Returns
    a (len(users), hi - lo, frequencies) ``<c8`` array, each user's rows
    read straight into it with one ``readinto``; a file that has shrunk
    since is a ``ConfigError``.
    """
    _, bin_path = _channel_files(basepath)
    _, num_elements, num_points = shape
    out = np.empty((len(users), hi - lo, num_points), "<c8")
    with open(bin_path, "rb") as fh:
        for i, user in enumerate(users):
            fh.seek((int(user) * num_elements + lo) * num_points * 8)
            if fh.readinto(out[i]) != out[i].nbytes:
                raise ConfigError(f"{bin_path}: ends before user {user} row {hi}")
    return out
