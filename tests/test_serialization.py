import csv
import dataclasses
import hashlib
import json
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from xlmimo import serialization
from xlmimo.channel import FrequencyGrid, PathTable
from xlmimo.errors import ConfigError
from xlmimo.geometry import Angles, ArrayGeometry
from xlmimo.nearfield import PathRecord, Stationarity, WavefrontModel
from xlmimo.serialization import (
    PATH_COLUMNS,
    PATHTABLE_DTYPE,
    _BLOCK_ROWS,
    _csv_appender,
    _fmt,
    _formatted,
    config_sha256,
    pathtable_writer,
    read_channel,
    read_channel_header,
    read_channel_rows,
    read_json,
    read_paths_csv,
    read_yaml,
    write_channel,
    write_json,
    write_paths_csv,
    write_table,
    write_yaml,
)


def sample_paths():
    rng = np.random.default_rng(7)
    los = PathRecord(
        model=WavefrontModel.LOS,
        stationarity=Stationarity.STATIONARY,
        amplitude=0.0123456789,
        phase=0.0,
        delay=6.7e-9,
        distance=2.009,
        aod=Angles(0.4, np.pi / 2),
        aoa=Angles(0.4, np.pi / 2),
    )
    srm = PathRecord(
        model=WavefrontModel.SRM,
        stationarity=Stationarity.NON_STATIONARY,
        amplitude=1e-3,
        phase=2.1,
        delay=9.9e-9,
        distance=2.97,
        aod=Angles(-1.1, 1.2),
        aoa=Angles(3.141592653589793, 0.9),
        aaf=rng.random(5),
    )
    return [los, srm]


class TestPathsCsv:
    def test_round_trip_is_exact(self, tmp_path):
        paths = sample_paths()
        fn = tmp_path / "paths.csv"
        write_paths_csv(fn, paths)
        back = read_paths_csv(fn)
        assert len(back) == 2
        for orig, got in zip(paths, back):
            assert got.model is orig.model
            assert got.stationarity is orig.stationarity
            # repr round-trips doubles exactly
            assert got.amplitude == orig.amplitude
            assert got.phase == orig.phase
            assert got.delay == orig.delay
            assert got.distance == orig.distance
            assert got.aod == orig.aod
            assert got.aoa == orig.aoa
        assert back[0].aaf is None
        assert np.array_equal(back[1].aaf, paths[1].aaf)

    def test_round_trip_of_a_long_fixed_aaf(self, tmp_path):
        # 10,000 repr floats take about 190,000 characters in one cell, more
        # than csv's default field limit of 131,072
        los, srm = sample_paths()
        srm = dataclasses.replace(srm, aaf=np.random.default_rng(4).random(10_000))
        fn = tmp_path / "paths.csv"
        write_paths_csv(fn, [los, srm])
        limit = csv.field_size_limit()
        back = read_paths_csv(fn)
        assert csv.field_size_limit() == limit  # restored after the read
        assert back[0].aaf is None
        assert np.array_equal(back[1].aaf, srm.aaf)

    def test_write_is_byte_deterministic(self, tmp_path):
        paths = sample_paths()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_paths_csv(a, paths)
        write_paths_csv(b, paths)
        assert a.read_bytes() == b.read_bytes()

    def test_header_mismatch(self, tmp_path):
        fn = tmp_path / "bad.csv"
        fn.write_text("model,foo\nlos,1\n")
        with pytest.raises(ConfigError, match="columns"):
            read_paths_csv(fn)

    def test_empty_table(self, tmp_path):
        fn = tmp_path / "empty.csv"
        write_table(fn, PATH_COLUMNS, [[] for _ in PATH_COLUMNS])
        with pytest.raises(ConfigError, match="no paths"):
            read_paths_csv(fn)

    def test_corrupt_row_reports_line(self, tmp_path):
        fn = tmp_path / "corrupt.csv"
        write_paths_csv(fn, sample_paths())
        lines = fn.read_text().splitlines()
        lines[2] = lines[2].replace("srm", "bounce")
        fn.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="row 2"):
            read_paths_csv(fn)

    def test_unparseable_number(self, tmp_path):
        fn = tmp_path / "nan.csv"
        write_paths_csv(fn, sample_paths())
        text = fn.read_text().replace("2.009", "oops")
        fn.write_text(text)
        with pytest.raises(ConfigError, match="row 1"):
            read_paths_csv(fn)


def reference_write_table(path, header, rows):
    """The row-wise writer ``write_table`` replaced: ``_fmt`` on every cell,
    one ``writerow`` per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


SPECIAL_FLOATS = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
    5e-324, 2.2250738585072e-309, 1e300, -1e300, 1.7976931348623157e308,
]
WORDS = ["a", "", " ", "x,y", 'say "hi"', "two\nlines", "cr\rlf", "é"]


def random_column(kind, rng, n):
    if kind == "float64":
        return rng.standard_normal(n) * 10.0 ** rng.uniform(-320.0, 300.0, n)
    if kind == "float32":
        return (rng.standard_normal(n) * 10.0 ** rng.uniform(-40.0, 38.0, n)).astype(
            np.float32
        )
    if kind == "int64":
        return rng.integers(-(2**63), 2**63, n, dtype=np.int64)
    if kind == "bool":
        return rng.random(n) < 0.5
    if kind == "str":
        return [WORDS[i] for i in rng.integers(0, len(WORDS), n)]
    # a list of mixed cells
    pool = [True, 3, -(2**70), 0.1, np.float32(0.1), np.int16(-7), "x,y", float("nan")]
    return [pool[i] for i in rng.integers(0, len(pool), n)]


SPECIALS = {
    "float64": st.sampled_from(SPECIAL_FLOATS) | st.floats(),
    "float32": st.floats(width=32),
    "int64": st.integers(-(2**63), 2**63 - 1),
    "bool": st.booleans(),
    "str": st.text(),
    "mixed": st.one_of(st.floats(), st.integers(), st.booleans(), st.text()),
}


@st.composite
def tables(draw):
    """Columns of every kind around a block edge (2048 rows are four
    blocks), with special values planted at random rows."""
    n = draw(st.sampled_from([0, 1, 2047, 2048, 2049]))
    kinds = draw(st.lists(st.sampled_from(sorted(SPECIALS)), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in kinds:
        column = random_column(kind, rng, n)
        for value in draw(st.lists(SPECIALS[kind], max_size=6 if n else 0)):
            column[int(rng.integers(0, n))] = value
        columns.append(column)
    return [f"c{i}" for i in range(len(kinds) - 1)] + ["last,col"], columns


class TestTableFormatting:
    def test_fmt_types(self, tmp_path):
        fn = tmp_path / "t.csv"
        write_table(fn, ["a", "b", "c", "d", "e"], [[True], [False], [3], [0.1], ["x"]])
        assert fn.read_text() == "a,b,c,d,e\ntrue,false,3,0.1,x\n"

    def test_float_shortest_repr(self, tmp_path):
        fn = tmp_path / "f.csv"
        write_table(fn, ["v"], [[1e-9, np.float64(0.30000000000000004)]])
        assert fn.read_text() == "v\n1e-09\n0.30000000000000004\n"


    @settings(max_examples=60, deadline=None)
    @given(tables())
    def test_matches_row_wise_reference(self, tmp_path_factory, table):
        header, columns = table
        tmp = tmp_path_factory.mktemp("table")
        want, got = tmp / "want.csv", tmp / "got.csv"
        reference_write_table(want, header, zip(*columns))
        write_table(got, header, columns)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("n", [2047, 2048, 2049])
    def test_numeric_columns_match_row_wise_reference(self, tmp_path, n):
        # every column a numeric array: the blocks are joined, not csv-written
        rng = np.random.default_rng(n)
        f64 = rng.standard_normal(n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
        f64[[0, n // 2, n - 1]] = [float("nan"), float("inf"), -0.0]
        f64[2047 % n] = float("-inf")
        columns = [
            np.arange(n, dtype=np.int64) - 2**62,
            f64,
            rng.standard_normal(n).astype(np.float32),
            rng.integers(-(2**63), 2**63, n, dtype=np.int64),
        ]
        header = ["ue", "value", "single", "last,col"]
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        reference_write_table(want, header, zip(*columns))
        write_table(got, header, columns)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("n", [2047, 2048, 2049, 5000])
    def test_runs_match_row_wise_reference(self, tmp_path, n):
        # Columns constant over stretches; the stretches cross the
        # 2047/2048/2049 block edges.
        nans = np.array([0x7FF8000000000001, 0xFFF8000000000000], np.uint64)
        f64 = np.repeat(
            [0.1, -0.0, 0.0, np.nan, *nans.view(np.float64), np.inf, 1e-300, -2.5],
            [2040, 5, 2, 1, 1, 1, 1, 3, n],
        )[:n]
        f32 = np.repeat(
            np.array([1.5, -0.0, 0.0, 3e-39, 1 / 3], np.float32), [2047, 1, 1, 2, n]
        )[:n]
        columns = [
            np.arange(n, dtype=np.int64) // 1000 - 2**62,
            f64,
            f32,
            np.repeat(np.array([-1, 0, 2**63 - 1], np.int64), [2048, 1, n])[:n],
            np.full(n, 0.25),
            np.random.default_rng(n).standard_normal(n),
        ]
        header = ["ue", "f64", "f32", "i64", "constant", "distinct"]
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        reference_write_table(want, header, zip(*columns))
        write_table(got, header, columns)
        assert got.read_bytes() == want.read_bytes()
        assert ",-0.0,1.5," in got.read_text() and ",0.0,1.5," in got.read_text()

    @pytest.mark.parametrize("cuts", [(0, 5000), (1, 2048, 2049, 4999), (903, 1806)])
    def test_appended_rows_give_the_bytes_of_one_table(self, tmp_path, cuts):
        # Each user's append formats its own blocks; runs and blocks restart
        # at every user, the bytes do not change.
        rng = np.random.default_rng(5)

        def fill(shape):
            # runs of equal values in even paths, distinct values in odd ones
            values = rng.standard_normal(shape)
            values[..., ::2] = rng.choice([0.5, -0.0, np.nan], shape[-1])[::2]
            return values

        users, want = path_table_users(cut_users(cuts, 5000), fill)
        with pathtable_writer(tmp_path, want.size) as append:
            for ue, (paths, table) in enumerate(users):
                append(ue, paths, table)
        write_table(
            tmp_path / "want.csv", PATHTABLE_DTYPE.names,
            [want[name] for name in PATHTABLE_DTYPE.names],
        )
        assert (tmp_path / "pathtable.csv").read_bytes() == (
            tmp_path / "want.csv"
        ).read_bytes()

    def test_column_count_and_lengths_checked(self, tmp_path):
        with pytest.raises(ValueError, match="2 columns for 3"):
            write_table(tmp_path / "a.csv", ["a", "b", "c"], [[1], [2]])
        with pytest.raises(ValueError, match="lengths differ"):
            write_table(tmp_path / "b.csv", ["a", "b"], [[1, 2], np.arange(3)])
        assert list(tmp_path.iterdir()) == []


def repr_tokens(block):
    """What ``_formatted`` must give: ``repr`` of every value as a float64,
    ``str`` of every int."""
    if block.dtype.kind == "f":
        return list(map(repr, block.astype(float).tolist()))
    return list(map(str, block.tolist()))


#: Bit patterns of quiet and signalling NaNs with payloads, of both signs.
PAYLOAD_NANS = np.array(
    [0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF],
    np.uint64,
).view(np.float64)

#: Where orjson and ``repr`` part ways, and their neighbours: the 1e-5 and
#: 1e-4 ends of the range orjson writes in full, the 1e16 switch to an
#: exponent, the extremes, and one value per exponent -4..-10, 15..17, 308.
BOUNDARY_FLOATS = [
    *(v for x in (1e-5, 1e-4, 1e16)
      for v in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf))),
    5e-324, -5e-324, np.finfo(np.float64).max, -np.finfo(np.float64).max,
    *(1.25 * 10.0**e for e in range(-10, -3)),
    *(-1.5 * 10.0**e for e in (15, 16, 17, 308)),
]

float64_values = (
    st.floats(allow_subnormal=True)
    | st.sampled_from([*PAYLOAD_NANS, *SPECIAL_FLOATS, *BOUNDARY_FLOATS])
    | st.integers(0, 2**64 - 1).map(lambda b: np.uint64(b).view(np.float64))
)


class TestReprTokens:
    """``_formatted`` writes float and int blocks through orjson into the
    tokens of ``repr`` and ``str``."""

    @settings(max_examples=150, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 80), elements=float64_values))
    def test_float64(self, block):
        assert list(_formatted(block)) == repr_tokens(block)

    @settings(max_examples=100, deadline=None)
    @given(
        hnp.arrays(
            np.float32, st.integers(0, 80),
            elements=st.floats(width=32, allow_subnormal=True)
            | st.integers(0, 2**32 - 1).map(lambda b: np.uint32(b).view(np.float32)),
        )
    )
    def test_float32_prints_its_float64_value(self, block):
        assert list(_formatted(block)) == repr_tokens(block)

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            hnp.arrays(np.int64, st.integers(0, 80)),
            hnp.arrays(np.uint64, st.integers(0, 80)),
            hnp.arrays(hnp.integer_dtypes(endianness="="), st.integers(0, 80)),
        )
    )
    def test_ints(self, block):
        assert list(_formatted(block)) == repr_tokens(block)

    def test_boundary_values(self):
        values = np.array(BOUNDARY_FLOATS + [-v for v in BOUNDARY_FLOATS])
        assert list(_formatted(values)) == repr_tokens(values)
        assert "1e-05" in _formatted(values) and "1e+16" in _formatted(values)

    def test_strided_columns_of_records(self):
        records = np.zeros(5, PATHTABLE_DTYPE)
        records["ue"] = [0, 1, -2, 2**62, 7]
        records["aaf"] = [1.5e-5, np.nan, -np.inf, 1e16, 0.1]
        for name in ("ue", "aaf"):
            assert list(_formatted(records[name])) == repr_tokens(records[name])

    @pytest.mark.parametrize("rows", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    def test_random_bit_patterns_across_block_edges(self, tmp_path, rows):
        # About 200,000 random doubles in all, written in columns whose
        # lengths are multiples of 511, 512 and 513 rows, so that values sit
        # on every side of the block edges; next to them, log-uniform values
        # in +-1e+-30, which fall in every interval of ``_formatted``.
        rng = np.random.default_rng(rows)
        bits = rng.integers(0, 2**64, rows * 130, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64)
        spread = rng.choice([-1.0, 1.0], bits.size) * 10.0 ** rng.uniform(-30, 30, bits.size)
        fn = tmp_path / "bits.csv"
        write_table(fn, ["bits", "value", "spread"], [bits, values, spread])
        want = "".join(
            f"{b},{v!r},{w!r}\n"
            for b, v, w in zip(bits.tolist(), values.tolist(), spread.tolist())
        )
        assert fn.read_text() == "bits,value,spread\n" + want


#: Values whose orjson text needs each kind of fix: in full, each exponent
#: rewrite, and the non-finite ones.
FIXED_FLOATS = [1.5e-5, -9.75e-5, 2.5e-9, -4e-8, 1.25e-7, 6e-6, 3e20, -1e16,
                np.nan, np.inf, -np.inf]


def planted_columns(num_rows, span):
    """A float64 and a float32 column of ``num_rows`` rows with a value of
    ``FIXED_FLOATS`` on both sides of every block edge and span edge, each
    edge a different one, so that neighbouring spans need different
    rewrites; the same values reversed in a strided record field; and an
    int field."""
    edges = [  # the first row of every block; blocks restart at every span
        start + lo
        for start in range(0, num_rows, span)
        for lo in range(0, min(span, num_rows - start), _BLOCK_ROWS)
    ]
    rng = np.random.default_rng(num_rows)
    f64 = rng.uniform(0.5, 2.0, num_rows)
    for i, edge in enumerate(edges[1:]):
        f64[[edge - 1, edge]] = FIXED_FLOATS[i % len(FIXED_FLOATS)]
    records = np.zeros(num_rows, PATHTABLE_DTYPE)
    records["aaf"] = f64[::-1]
    records["ue"] = rng.integers(-(2**40), 2**40, num_rows)
    return [f64, f64.astype(np.float32), records["aaf"], records["ue"]]


class TestSpanScan:
    """Float columns are scanned once per span of ``_SPAN_ROWS`` rows and
    formatted a block at a time with the span's fixes."""

    @pytest.mark.parametrize("span", [700, 1300, 2 * _BLOCK_ROWS])
    def test_columns_longer_than_a_span(self, tmp_path, monkeypatch, span):
        monkeypatch.setattr(serialization, "_SPAN_ROWS", span)
        columns = planted_columns(4500, span)
        header = ["f64", "f32", "field", "ue"]
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        reference_write_table(want, header, zip(*columns))
        write_table(got, header, columns)
        assert got.read_bytes() == want.read_bytes()
        for column in columns:
            assert list(_formatted(column)) == repr_tokens(column)

    def test_peak_allocation_is_about_one_block(self, tmp_path):
        # one block's strings and text, and a span's scan; not also the
        # previous block's strings, which would take it to about 3x
        rng = np.random.default_rng(6)
        columns = [rng.standard_normal(8 * _BLOCK_ROWS) for _ in range(9)]
        block = sum(
            sys.getsizeof(t) for c in columns for t in repr_tokens(c[:_BLOCK_ROWS])
        )
        write_table(tmp_path / "warm.csv", list("abcdefghi"), columns)
        tracemalloc.start()
        try:
            write_table(tmp_path / "t.csv", list("abcdefghi"), columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.3 * block

    @pytest.mark.parametrize("span", [serialization._SPAN_ROWS, 300])
    @pytest.mark.parametrize("numeric", [True, False])
    def test_appends_of_any_size_give_one_table(
        self, tmp_path, monkeypatch, span, numeric
    ):
        monkeypatch.setattr(serialization, "_SPAN_ROWS", span)
        columns = planted_columns(1212, min(span, 1212))
        if not numeric:
            columns.append([f"w,{i}" for i in range(1212)])
        header = [f"c{i}" for i in range(len(columns))]
        write_table(tmp_path / "want.csv", header, columns)
        with open(tmp_path / "got.csv", "w", newline="") as fh:
            append = _csv_appender(fh, header)
            lo = 0
            for rows in (0, 1, 511, 700):
                append([c[lo : lo + rows] for c in columns])
                lo += rows
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()


class TestJsonYaml:
    def test_json_round_trip_sorted(self, tmp_path):
        fn = tmp_path / "cfg.json"
        write_json(fn, {"b": 2, "a": [1, 2]})
        text = fn.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")
        assert read_json(fn) == {"a": [1, 2], "b": 2}

    def test_yaml_round_trip(self, tmp_path):
        fn = tmp_path / "cfg.yaml"
        cfg = {"name": "freespace", "seed": 3, "ues": [[0.1, 0.2, 0.0]]}
        write_yaml(fn, cfg)
        assert read_yaml(fn) == cfg

    def test_yaml_write_deterministic(self, tmp_path):
        a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
        write_yaml(a, {"z": 1, "a": 2})
        write_yaml(b, {"a": 2, "z": 1})
        assert a.read_bytes() == b.read_bytes()

    def test_yaml_invalid(self, tmp_path):
        fn = tmp_path / "bad.yaml"
        fn.write_text("foo: [unclosed\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            read_yaml(fn)

    def test_yaml_non_mapping(self, tmp_path):
        fn = tmp_path / "list.yaml"
        fn.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping"):
            read_yaml(fn)


class TestConfigSha:
    def test_key_order_invariant(self):
        assert config_sha256({"a": 1, "b": [2, 3]}) == config_sha256(
            {"b": [2, 3], "a": 1}
        )

    def test_value_sensitive(self):
        assert config_sha256({"a": 1}) != config_sha256({"a": 2})

    def test_matches_canonical_json(self):
        cfg = {"b": 0.05, "a": "x"}
        canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
        assert config_sha256(cfg) == hashlib.sha256(canonical.encode()).hexdigest()


GRID = FrequencyGrid(f_low_hz=90e9, f_high_hz=110e9, num_points=3)
GEOM = ArrayGeometry(num_elements=4, spacing=0.0015)
GEOM_META = {
    "num_elements": 4,
    "spacing_m": 0.0015,
    "axis": [1.0, 0.0, 0.0],
    "origin": [0.0, 0.0, 0.0],
    "reference_index": 0,
}


def channel_values():
    rng = np.random.default_rng(11)
    return rng.standard_normal((2, 4, 3)) + 1j * rng.standard_normal((2, 4, 3))


def write_test_channel(base, values=None, grid=GRID, geometry=GEOM):
    if values is None:
        values = channel_values()
    write_channel(base, values, grid, geometry, "nf-sns", 5, "ab" * 32, "unit")


class TestChannelIO:
    def test_round_trip(self, tmp_path):
        values = channel_values()
        base = tmp_path / "chan"
        write_test_channel(base, values)
        back, meta = read_channel(base)
        # storage is single precision; the quantization is the only loss
        assert back.dtype == np.dtype("<c8")
        assert np.array_equal(back, values.astype("<c8"))
        assert FrequencyGrid(**meta["grid"]) == GRID
        assert meta["variant"] == "nf-sns" and meta["seed"] == 5
        assert meta["config_sha256"] == "ab" * 32
        assert meta["name"] == "unit" and meta["num_ues"] == 2
        assert meta["array"]["num_elements"] == 4
        assert meta["array"]["origin"] == [0.0, 0.0, 0.0]
        assert meta["axes"] == ["user", "element", "frequency"]

    def test_write_rejects_values_that_disagree_with_the_header(self, tmp_path):
        for values, variant in (
            (np.zeros((2, 4, 2)), "nf-sns"),
            (np.zeros((2, 5, 3)), "nf-sns"),
            (np.zeros((4, 3)), "nf-sns"),
            (np.zeros((2, 4, 3)), "bogus"),
        ):
            with pytest.raises(ValueError):
                write_channel(tmp_path / "c", values, GRID, GEOM, variant, 1, None, "x")
        assert not (tmp_path / "c.json").exists()

    def test_streamed_users_write_the_bytes_of_the_array(self, tmp_path):
        values = channel_values()
        write_test_channel(tmp_path / "array", values)
        write_test_channel(tmp_path / "stream", (user for user in values))
        # chunks of 3 and 1 element rows per 4-element user
        write_test_channel(
            tmp_path / "chunks", (part for user in values for part in (user[:3], user[3:]))
        )
        for name in ("stream", "chunks"):
            for suffix in (".bin", ".json"):
                assert (tmp_path / f"{name}{suffix}").read_bytes() == (
                    tmp_path / f"array{suffix}"
                ).read_bytes()

    @pytest.mark.parametrize(
        "parts, match",
        [((3, 3), "user 0 values shape \\(3, 3\\) does not fit its 1 remaining"),
         ((4, 3), "user 1 has 3 of 4 element rows")],
        ids=["across-users", "incomplete-user"],
    )
    def test_element_rows_must_make_whole_users(self, tmp_path, parts, match):
        rows = channel_values().reshape(8, 3)
        chunks = np.split(rows[: sum(parts)], np.cumsum(parts)[:-1])
        with pytest.raises(ValueError, match=match):
            write_test_channel(tmp_path / "c", chunks)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize(
        "failure, error, match",
        [("raises", RuntimeError, "user 1 failed"), ("shape", ValueError, "user 1")],
    )
    def test_failed_stream_leaves_both_files(
        self, tmp_path, existing, failure, error, match
    ):
        base = tmp_path / "chan"
        if existing:
            write_test_channel(base)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        values = channel_values()

        def users():
            yield values[0]
            if failure == "raises":
                raise RuntimeError("user 1 failed")
            yield values[1][:, :2]

        with pytest.raises(error, match=match):
            write_test_channel(base, users())
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_write_makes_no_copy_of_a_complex64_pool(self, tmp_path):
        rng = np.random.default_rng(3)
        pool = (rng.standard_normal((4, 64, 512)) + 0j).astype("<c8")
        grid = FrequencyGrid(f_low_hz=90e9, f_high_hz=110e9, num_points=512)
        geometry = ArrayGeometry(num_elements=64, spacing=0.0015)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write_test_channel(tmp_path / "chan", pool, grid, geometry)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert (tmp_path / "chan.bin").read_bytes() == pool.tobytes()
        assert peak < pool.nbytes // 8

    def test_read_accepts_json_suffix(self, tmp_path):
        base = tmp_path / "chan"
        write_test_channel(base)
        back, _ = read_channel(f"{base}.json")
        assert back.shape == (2, 4, 3)

    def test_write_is_byte_deterministic(self, tmp_path):
        write_test_channel(tmp_path / "a")
        write_test_channel(tmp_path / "b")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_missing_files(self, tmp_path):
        with pytest.raises(ConfigError, match="missing"):
            read_channel(tmp_path / "nope")
        write_test_channel(tmp_path / "chan")
        (tmp_path / "chan.bin").unlink()
        with pytest.raises(ConfigError, match="missing"):
            read_channel(tmp_path / "chan")

    def test_bad_format_version(self, tmp_path):
        base = tmp_path / "chan"
        write_test_channel(base)
        meta = read_json(f"{base}.json")
        meta["format_version"] = 2
        write_json(f"{base}.json", meta)
        with pytest.raises(ConfigError, match="format_version"):
            read_channel(base)

    def test_bad_encoding(self, tmp_path):
        base = tmp_path / "chan"
        write_test_channel(base)
        meta = read_json(f"{base}.json")
        meta["dtype"] = "complex128"
        write_json(f"{base}.json", meta)
        with pytest.raises(ConfigError, match="encoding"):
            read_channel(base)

    def test_size_mismatch(self, tmp_path):
        base = tmp_path / "chan"
        write_test_channel(base)
        raw = (base.parent / "chan.bin").read_bytes()
        (base.parent / "chan.bin").write_bytes(raw[:-8])
        with pytest.raises(ConfigError, match="size"):
            read_channel(base)

    def test_truncated_file_rejected_before_reading(self, tmp_path, monkeypatch):
        base = tmp_path / "chan"
        write_test_channel(base)
        raw = (tmp_path / "chan.bin").read_bytes()
        (tmp_path / "chan.bin").write_bytes(raw[: len(raw) // 2])
        reads = []
        monkeypatch.setattr(np, "fromfile", lambda *a, **k: reads.append(a))
        for reader in (read_channel, read_channel_header):
            with pytest.raises(ConfigError, match="size"):
                reader(base)
        assert reads == []

    @pytest.mark.parametrize(
        "key, value, match",
        [
            ("shape", [2, 4], "shape"),
            ("shape", [2, -4, 3], "shape"),
            ("shape", [2, 4.0, 3], "shape"),
            ("shape", "2x4x3", "shape"),
            ("grid", {"f_low_hz": 90e9, "f_high_hz": 110e9, "num_points": 4}, "grid"),
            ("array", {"num_elements": 5}, "array"),
            ("grid", {"num_points": 3}, "grid"),
            ("variant", "bogus", "variant"),
            ("array", {"num_elements": 4, "spacing_m": -1.0}, "array"),
            pytest.param("variant", None, "variant", id="missing-variant"),
            pytest.param("array", None, "array", id="missing-array"),
        ],
    )
    def test_bad_header_rejected(self, tmp_path, key, value, match):
        base = tmp_path / "chan"
        write_test_channel(base)
        meta = read_json(f"{base}.json")
        meta[key] = value
        if value is None:  # every header write_channel writes has the key
            del meta[key]
        write_json(f"{base}.json", meta)
        with pytest.raises(ConfigError, match=match):
            read_channel(base)

    @pytest.mark.parametrize("text", ["{not json", "[2, 4, 3]"])
    def test_unparseable_header_rejected(self, tmp_path, text):
        base = tmp_path / "chan"
        write_test_channel(base)
        (tmp_path / "chan.json").write_text(text)
        with pytest.raises(ConfigError, match="JSON"):
            read_channel(base)

    def test_header_shape_and_size_agree_but_grid_does_not(self, tmp_path):
        # a consistent .bin for shape (2, 4, 6) under a 3-point grid
        base = tmp_path / "chan"
        write_test_channel(base)
        meta = read_json(f"{base}.json")
        meta["shape"] = [2, 4, 6]
        write_json(f"{base}.json", meta)
        (tmp_path / "chan.bin").write_bytes(bytes(2 * 4 * 6 * 8))
        with pytest.raises(ConfigError, match="grid"):
            read_channel_header(base)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("grid", {"f_low_hz": -90e9, "f_high_hz": 110e9, "num_points": 3}),
            ("grid", {"f_low_hz": 110e9, "f_high_hz": 90e9, "num_points": 3}),
            ("array", dict(GEOM_META, spacing_m=0.0)),
            ("array", dict(GEOM_META, reference_index=4)),
            ("array", dict(GEOM_META, axis=[1.0, 1.0, 0.0])),
        ],
        ids=["negative-f-low", "inverted-band", "zero-spacing", "bad-reference", "axis-not-unit"],
    )
    def test_bad_grid_or_array_values_rejected_by_both_readers(
        self, tmp_path, key, value
    ):
        base = tmp_path / "chan"
        write_test_channel(base)
        meta = read_json(f"{base}.json")
        meta[key] = value
        write_json(f"{base}.json", meta)
        for reader in (read_channel, read_channel_header):
            with pytest.raises(ConfigError, match="invalid grid or array"):
                reader(base)

    def test_rows_of_some_users(self, tmp_path):
        values = channel_values()
        base = tmp_path / "chan"
        write_test_channel(base, values)
        got = read_channel_rows(base, (2, 4, 3), [1, 0], 1, 3)
        assert got.dtype == np.dtype("<c8")
        assert np.array_equal(got, values.astype("<c8")[[1, 0], 1:3])
        # a file that has shrunk since its header was checked
        (tmp_path / "chan.bin").write_bytes((tmp_path / "chan.bin").read_bytes()[:-8])
        with pytest.raises(ConfigError, match="ends before user 1 row 4"):
            read_channel_rows(base, (2, 4, 3), [0, 1], 0, 4)

    def test_read_peak_memory_is_the_file_size(self, tmp_path):
        users, elements, points = 4, 64, 512
        rng = np.random.default_rng(12)
        values = rng.standard_normal((users, elements, points)) + 0j
        grid = FrequencyGrid(f_low_hz=90e9, f_high_hz=110e9, num_points=points)
        geometry = ArrayGeometry(num_elements=elements, spacing=0.0015)
        write_test_channel(tmp_path / "chan", values, grid, geometry)
        size = (tmp_path / "chan.bin").stat().st_size
        del values
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            pool, _ = read_channel(tmp_path / "chan")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert pool.dtype == np.dtype("<c8") and pool.nbytes == size
        # the header and Python objects take a few kB on top
        assert size <= peak <= size + 64 * 1024


def path_table_users(shapes, fill):
    """One user per (paths, elements) shape: the ``(paths, table)`` that
    :func:`pathtable_writer` appends, each field drawn by ``fill(shape)``,
    and the records a row-by-row loop makes of them, users in order."""
    users, rows = [], []
    for ue, (num_paths, num_elements) in enumerate(shapes):
        alpha = fill((num_paths,))
        fields = [fill((num_elements, num_paths)) for _ in range(5)]
        paths = [SimpleNamespace(amplitude=a) for a in alpha]
        users.append((paths, PathTable(*fields, None, None)))
        rows += [
            (ue, l, m, alpha[l], *(f[m, l] for f in fields))
            for l in range(num_paths)
            for m in range(num_elements)
        ]
    return users, np.array(rows, PATHTABLE_DTYPE)


def cut_users(cuts, num_rows):
    """(paths, elements) shapes of users whose rows lie between ``cuts`` in
    0..num_rows: two paths where the row count is even, else one."""
    counts = np.diff((0, *cuts, num_rows)).tolist()
    return [(2, n // 2) if n % 2 == 0 else (1, n) for n in counts]


def normal_fill():
    rng = np.random.default_rng(0)
    return lambda shape: rng.standard_normal(shape)


class TestNpyWriter:
    """pathtable.npy as :func:`pathtable_writer` writes it next to
    pathtable.csv."""

    @pytest.mark.parametrize("cuts", [(), (1,), (7, 8, 300), (0, 0, 500)])
    def test_appended_records_give_the_bytes_of_np_save(self, tmp_path, cuts):
        users, want = path_table_users(cut_users(cuts, 500), normal_fill())
        np.save(tmp_path / "want.npy", want, allow_pickle=False)
        with pathtable_writer(tmp_path, want.size) as append:
            for ue, (paths, table) in enumerate(users):
                append(ue, paths, table)
        got = tmp_path / "pathtable.npy"
        assert got.read_bytes() == (tmp_path / "want.npy").read_bytes()
        assert np.array_equal(np.load(got, allow_pickle=False), want)

    def test_empty_table(self, tmp_path):
        with pathtable_writer(tmp_path, 0):
            pass
        table = np.load(tmp_path / "pathtable.npy")
        assert table.shape == (0,) and table.dtype == PATHTABLE_DTYPE
        header = ",".join(PATHTABLE_DTYPE.names)
        assert (tmp_path / "pathtable.csv").read_text() == header + "\n"

    @pytest.mark.parametrize(
        "shapes, message",
        [([(1, 3)], "3 of 4 records"), ([(1, 3), (2, 1)], "more than 4")],
        ids=["too-few", "too-many"],
    )
    @pytest.mark.parametrize("existing", [False, True])
    def test_wrong_records_leave_target(self, tmp_path, shapes, message, existing):
        names = ["pathtable.csv", "pathtable.npy"]
        if existing:
            for name in names:
                (tmp_path / name).write_bytes(b"previous\n")
        users, _ = path_table_users(shapes, normal_fill())
        with pytest.raises(ValueError, match=message):
            with pathtable_writer(tmp_path, 4) as append:
                for ue, (paths, table) in enumerate(users):
                    append(ue, paths, table)
        assert sorted(p.name for p in tmp_path.iterdir()) == (names if existing else [])
        if existing:
            assert all((tmp_path / n).read_bytes() == b"previous\n" for n in names)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 40)), max_size=4),
        st.integers(0, 2**32 - 1),
    )
    def test_csv_cells_parse_to_the_npy_bits(self, tmp_path_factory, shapes, seed):
        # every pathtable.csv cell is float() or int() of its pathtable.npy
        # field, bit for bit, in the same rows and order
        rng = np.random.default_rng(seed)
        special = np.array(
            [0.0, -0.0, 5e-324, 2.2250738585072e-309, 1e-300, 1.0, 1e300,
             1.7976931348623157e308, np.inf, -np.inf, np.nan]
        )

        def fill(shape):
            values = rng.standard_normal(shape) * 10.0 ** rng.uniform(-320, 300, shape)
            return np.where(rng.random(shape) < 0.3, rng.choice(special, shape), values)

        users, _ = path_table_users(shapes, fill)
        directory = tmp_path_factory.mktemp("table")
        with pathtable_writer(directory, sum(p * m for p, m in shapes)) as append:
            for ue, (paths, table) in enumerate(users):
                append(ue, paths, table)
        records = np.load(directory / "pathtable.npy", allow_pickle=False)
        with open(directory / "pathtable.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert tuple(header) == PATHTABLE_DTYPE.names
        assert records.shape == (len(rows),)
        for name, cells in zip(header, zip(*rows)):
            kind = int if records.dtype[name].kind == "i" else float
            parsed = np.array([kind(cell) for cell in cells], records.dtype[name])
            got = np.ascontiguousarray(records[name])
            assert np.array_equal(parsed.view(np.uint64), got.view(np.uint64)), name


class Unprintable:
    def __str__(self):
        raise RuntimeError("cell cannot be formatted")


class TestAtomicWriters:
    """A writer that fails midway leaves no partial target and no temporary
    file, and an existing target keeps its bytes."""

    @staticmethod
    def failing_writes():
        # Each call fails after part of its output is written.
        column = [1.5] * 3000
        column[2500] = Unprintable()  # in a later block
        yield "t.csv", lambda p: write_table(p, ["a", "b"], [np.arange(3000), column])
        yield "t.json", lambda p: write_json(p, {"a": 1, "z": object()})
        yield "t.yaml", lambda p: write_yaml(p, {"a": 1, "z": object()})

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_table_json_yaml_writes_leave_target(self, tmp_path, existing):
        for name, write in self.failing_writes():
            target = tmp_path / name
            if existing:
                target.write_bytes(b"previous\n")
            with pytest.raises(Exception):
                write(target)
            assert sorted(p.name for p in tmp_path.iterdir()) == (
                [name] if existing else []
            ), name
            if existing:
                assert target.read_bytes() == b"previous\n"
                target.unlink()

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_channel_write_leaves_both_files(self, tmp_path, existing):
        base = tmp_path / "chan"
        if existing:
            write_test_channel(base)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(TypeError):
            # The header fails to serialize after the tensor is written.
            write_channel(
                base, channel_values() * 2, GRID, GEOM, "nf-sns", 5, "ab" * 32, object()
            )
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_success_replaces_target_and_leaves_no_temporary(self, tmp_path):
        target = tmp_path / "t.csv"
        target.write_text("previous\n")
        write_table(target, ["v"], [np.array([0.5, 2.0])])
        write_json(tmp_path / "t.json", {"a": 1})
        write_test_channel(tmp_path / "chan")
        assert target.read_text() == "v\n0.5\n2.0\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "chan.bin", "chan.json", "t.csv", "t.json",
        ]
