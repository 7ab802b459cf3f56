import csv
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from xlmimo._threads import apply_thread_env
from xlmimo.cli import main
from xlmimo.errors import ConfigError
from xlmimo.serialization import (
    config_sha256,
    read_channel,
    read_json,
    write_yaml,
)
from xlmimo.scenario import preset_names, validate_config


def tiny_config(**overrides):
    cfg = {
        "name": "tiny",
        "array": {"num_elements": 8, "spacing_m": 0.0015},
        "grid": {"f_low_hz": 99.0e9, "f_high_hz": 101.0e9, "num_points": 3},
        "ues": [[0.2, 0.645, 0.0], [-0.1, 0.9, 0.0]],
        "variant": "nf-ss",
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, **overrides):
    fn = tmp_path / "config.yaml"
    write_yaml(fn, tiny_config(**overrides))
    return str(fn)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestScenarioCommand:
    def test_preset(self, tmp_path):
        out = tmp_path / "out"
        assert main(["scenario", "--preset", "freespace", "--out", str(out)]) == 0
        assert (out / "scenario.yaml").exists()
        assert (out / "paths_ue000.csv").exists()
        summary = read_json(out / "summary.json")
        assert summary["num_ues"] == 1
        assert summary["paths_per_ue"] == [1]
        assert summary["rayleigh_distance_m"] > summary["max_ue_distance_m"]

    def test_config_file(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path)
        assert main(["scenario", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "paths_ue001.csv").exists()

    def test_unknown_preset(self, tmp_path, capsys):
        code = main(["scenario", "--preset", "nope", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_config(self, tmp_path, capsys):
        cfg = tmp_path / "broken.yaml"
        cfg.write_text("array: {num_elements: 8}\n")
        code = main(["scenario", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "spacing_m" in capsys.readouterr().err

    def test_invalid_yaml_syntax(self, tmp_path):
        cfg = tmp_path / "broken.yaml"
        cfg.write_text("foo: [unclosed\n")
        assert main(["scenario", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_geometry_failure_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ues=[[0.0, 0.0, 0.0]])
        code = main(["scenario", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "error:" in capsys.readouterr().err


class TestSynthesizeCommand:
    def test_small_run_matches_library(self, tmp_path):
        from xlmimo import channel as ch
        from xlmimo import scenario as sc

        out = tmp_path / "out"
        cfg_file = write_config(tmp_path)
        assert main(["synthesize", "--config", cfg_file, "--out", str(out)]) == 0
        pool, meta = read_channel(out / "channel")
        assert pool.shape == (2, 8, 3) and pool.dtype == np.dtype("<c8")
        assert meta["num_ues"] == 2 and meta["name"] == "tiny"

        cfg = validate_config(tiny_config())
        geometry = sc.build_geometry(cfg)
        grid = sc.build_grid(cfg)
        tx, rx = sc.build_patterns(cfg)
        paths = sc.build_all_paths(cfg)
        want = np.stack(
            [
                ch.assemble(
                    p,
                    ch.path_table(p, geometry, tx, rx, grid.carrier_hz,
                                  np.ones((8, len(p))), "nf-ss"),
                    grid,
                )
                for p in paths
            ]
        )
        assert np.array_equal(pool, want.astype("<c8"))
        assert meta["config_sha256"] == config_sha256(cfg)

        rows = read_rows(out / "pathtable.csv")
        assert len(rows) == 2 * 1 * 8
        assert {r["ue"] for r in rows} == {"0", "1"}

    def test_variant_and_seed_override(self, tmp_path):
        out = tmp_path / "out"
        cfg_file = write_config(tmp_path)
        code = main(
            [
                "synthesize", "--config", cfg_file, "--out", str(out),
                "--variant", "ff-ss", "--seed", "7",
            ]
        )
        assert code == 0
        meta = read_json(out / "meta.json")
        assert meta["variant"] == "ff-ss" and meta["seed"] == 7
        pool, _ = read_channel(out / "channel")
        mags = np.abs(pool)
        assert_allclose(mags, np.tile(mags[:, :1, :], (1, 8, 1)), rtol=1e-6)

    def test_seed_required_for_random_variants(self, tmp_path, capsys):
        cfg_file = write_config(
            tmp_path,
            variant="nf-sns",
            reflectors=[
                {"point": [0.0, 1.2, 0.0], "normal": [0.0, -1.0, 0.0], "loss_db": 7.0}
            ],
        )
        code = main(["synthesize", "--config", cfg_file, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "seed is required" in capsys.readouterr().err

    def test_far_tail_dcorr_range_gives_finite_channel(self, tmp_path):
        # P(d_corr >= 1) = exp(-40.61) under the default law, so every draw
        # takes the inverse-CDF fallback
        cfg_file = write_config(
            tmp_path,
            variant="nf-sns",
            seed=1,
            los={"enabled": True, "sns": True},
            aaf={"dcorr_range": [1.0, 2.0]},
        )
        out = tmp_path / "o"
        assert main(["synthesize", "--config", cfg_file, "--out", str(out)]) == 0
        values = np.fromfile(out / "channel.bin", dtype="<c8")
        assert values.size == 2 * 8 * 3 and np.all(np.isfinite(values))

    def test_paths_csv_input_equivalent(self, tmp_path):
        cfg_file = write_config(tmp_path, ues=[[0.2, 0.645, 0.0]])
        direct = tmp_path / "direct"
        assert main(["synthesize", "--config", cfg_file, "--out", str(direct)]) == 0
        staged = tmp_path / "staged"
        code = main(
            [
                "synthesize", "--config", cfg_file, "--out", str(staged),
                "--paths", str(direct / "paths_ue000.csv"),
            ]
        )
        assert code == 0
        assert (direct / "channel.bin").read_bytes() == (staged / "channel.bin").read_bytes()
        for fn in ("pathtable.csv", "pathtable.npy"):
            assert (direct / fn).read_bytes() == (staged / fn).read_bytes(), fn

    def test_paths_with_a_long_fixed_aaf_round_trip(self, tmp_path):
        import dataclasses

        from xlmimo.nearfield import Stationarity
        from xlmimo.serialization import read_paths_csv, write_paths_csv

        # a 10,000-element aaf cell is longer than csv's default field limit
        cfg_file = write_config(
            tmp_path,
            ues=[[0.2, 0.645, 0.0]],
            array={"num_elements": 10_000, "spacing_m": 0.0015},
            variant="nf-sns",
        )
        staged = tmp_path / "staged"
        assert main(["scenario", "--config", cfg_file, "--out", str(staged)]) == 0
        (los,) = read_paths_csv(staged / "paths_ue000.csv")
        aaf = np.random.default_rng(5).random(10_000)
        fn = tmp_path / "long.csv"
        write_paths_csv(
            fn,
            [dataclasses.replace(los, stationarity=Stationarity.NON_STATIONARY, aaf=aaf)],
        )
        out = tmp_path / "out"
        argv = ["synthesize", "--config", cfg_file, "--paths", str(fn), "--out", str(out)]
        assert main(argv) == 0
        assert (out / "paths_ue000.csv").read_bytes() == fn.read_bytes()
        records = np.load(out / "pathtable.npy", allow_pickle=False)
        assert np.array_equal(records["aaf"], aaf)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_file = write_config(
            tmp_path,
            variant="nf-sns",
            seed=11,
            reflectors=[
                {"point": [0.0, 1.2, 0.0], "normal": [0.0, -1.0, 0.0], "loss_db": 7.0}
            ],
        )
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["synthesize", "--config", cfg_file, "--out", str(out)]) == 0
            outs.append(out)
        for fn in (
            "channel.bin", "channel.json", "pathtable.csv", "pathtable.npy",
            "scenario.yaml", "paths_ue000.csv", "paths_ue001.csv", "meta.json",
        ):
            assert (outs[0] / fn).read_bytes() == (outs[1] / fn).read_bytes(), fn

    def test_expands_each_path_once(self, tmp_path, monkeypatch):
        # case3: 12 users x 3 paths, each expanded by path_table alone
        from xlmimo import channel as ch

        calls = []
        original = ch.expand_path
        monkeypatch.setattr(
            ch, "expand_path", lambda *a, **k: calls.append(a[0]) or original(*a, **k)
        )
        out = tmp_path / "out"
        assert main(["synthesize", "--preset", "case3", "--out", str(out)]) == 0
        assert len(calls) == 36


def streaming_config(tmp_path, variant, points, users=6):
    """Six users (or ``users``, in rows of six) with three paths each (line
    of sight and two SnS reflections) on a 301-element array."""
    return write_config(
        tmp_path,
        variant=variant,
        seed=5,
        array={"num_elements": 301, "spacing_m": 0.0015},
        grid={"f_low_hz": 90.0e9, "f_high_hz": 110.0e9, "num_points": points},
        ues=[
            [0.1 * (u % 6) - 0.25 + 0.01 * (u // 6), 0.7 + 0.1 * (u % 6), 0.0]
            for u in range(users)
        ],
        reflectors=[
            {"point": [0.0, 1.5, 0.0], "normal": [0.0, -1.0, 0.0],
             "loss_db": 7.0, "sns": True},
            {"point": [-0.6, 0.0, 0.0], "normal": [1.0, 0.0, 0.0],
             "loss_db": 9.0, "sns": True},
        ],
    )


class TestStreamingSynthesis:
    @pytest.mark.parametrize("variant", ["nf-sns", "ff-sns", "vr"])
    def test_pool_matches_tensor_route(self, tmp_path, variant):
        from xlmimo import channel as ch
        from xlmimo import nearfield as nf
        from xlmimo import scenario as sc
        from xlmimo.serialization import read_yaml

        cfg_file = streaming_config(tmp_path, variant, points=101)
        out = tmp_path / "out"
        assert main(["synthesize", "--config", cfg_file, "--out", str(out)]) == 0
        pool, _ = read_channel(out / "channel")

        cfg = validate_config(read_yaml(cfg_file))
        geometry = sc.build_geometry(cfg)
        grid = sc.build_grid(cfg)
        tx, rx = sc.build_patterns(cfg)
        f = grid.points()
        all_paths = sc.build_all_paths(cfg)
        assert [len(p) for p in all_paths] == [3] * 6
        responses = []
        for ue, paths in enumerate(all_paths):
            aaf = ch.build_variant_aaf(
                paths, geometry.num_elements, variant,
                params=sc.build_aaf_params(cfg), seed=cfg["seed"], stream_key=(ue,),
            )
            tensor = nf.build_a_tensor(paths, geometry, tx, rx, f, grid.carrier_hz,
                                       force_ff=variant != "nf-sns")
            h_ref = np.array([p.amplitude for p in paths])[:, None] * np.exp(
                -2j * np.pi * np.outer([p.delay for p in paths], f)
            )
            responses.append(np.einsum("mlk,ml,lk->mk", tensor, aaf, h_ref))
        want = ch.multi_user(responses)
        assert pool.dtype == want.dtype and pool.shape == want.shape
        # each component within one float32 spacing of the entry's |H|
        spacing = np.spacing(np.abs(np.stack(responses)).astype(np.float32))
        assert np.all(np.abs(pool.real - want.real) <= spacing)
        assert np.all(np.abs(pool.imag - want.imag) <= spacing)

    def test_peak_memory_is_one_user(self, tmp_path):
        import tracemalloc

        from xlmimo import channel

        def peak(users):
            run = tmp_path / f"users{users}"
            run.mkdir()
            argv = ["synthesize", "--config",
                    streaming_config(run, "nf-sns", points=1001, users=users)]
            assert main(argv + ["--out", str(run / "warm-up")]) == 0
            tracemalloc.start()
            try:
                assert main(argv + ["--out", str(run / "out")]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            meta = json.loads((run / "out" / "meta.json").read_text())
            assert meta["num_paths"] == [3] * users
            return peak

        rows = channel._chunk_rows(301, 1001)
        assert rows == 130  # three chunks of at most 1 MiB
        chunk = rows * 1001 * 8
        steps = 16 * rows * 3 * channel._block_length(1001)
        six, twenty_four = peak(6), peak(24)
        # One complex64 chunk with assemble's tables for it, and one user's
        # path table: less than one (M, K) complex64 response.
        assert chunk + steps < six < min(
            channel._working_set_bytes(301, 1001, 3), 301 * 1001 * 8
        )
        # 18 more users add only a little bookkeeping: their path-table
        # rows are written as each user is built.
        assert twenty_four - six < 128 * 1024

    @pytest.mark.parametrize("variant", ["nf-sns", "vr"])
    @pytest.mark.parametrize("points", [1, 201, 2001])
    def test_chunk_budget_leaves_every_byte(self, tmp_path, monkeypatch, variant, points):
        # case4, M=531 elements: chunks of 1 row, of 100 rows (5 chunks
        # and a last one of 31) and of the whole array write the bytes of
        # the default budget.
        from xlmimo import channel
        from xlmimo.scenario import preset

        calls = []
        original = channel.assemble
        monkeypatch.setattr(
            channel, "assemble", lambda *a, **k: calls.append(0) or original(*a, **k)
        )
        cfg = preset("case4")
        cfg["variant"], cfg["seed"] = variant, 4
        cfg["grid"]["num_points"] = points
        write_yaml(tmp_path / "case4.yaml", cfg)
        argv = ["synthesize", "--config", str(tmp_path / "case4.yaml")]
        assert main(argv + ["--out", str(tmp_path / "default")]) == 0
        want = {
            fn: (tmp_path / "default" / fn).read_bytes()
            for fn in ("channel.bin", "pathtable.csv", "pathtable.npy")
        }
        for rows in (1, 100, 531):
            monkeypatch.setattr(channel, "_CHUNK_BYTES", rows * points * 8)
            calls.clear()
            out = tmp_path / f"rows{rows}"
            assert main(argv + ["--out", str(out)]) == 0
            assert len(calls) == -(-531 // rows)
            for fn, data in want.items():
                assert (out / fn).read_bytes() == data, (rows, fn)

    @pytest.mark.parametrize("existing", [False, True])
    def test_failure_in_a_late_user_leaves_no_partial_output(
        self, tmp_path, monkeypatch, existing
    ):
        # Six users of three paths: the fifth user's first path fails to
        # expand after four users' rows and chunks are written.
        from xlmimo import channel
        from xlmimo.errors import NumericError

        argv = ["synthesize", "--config", streaming_config(tmp_path, "nf-sns", 201)]
        out = tmp_path / "out"
        if existing:
            assert main(argv + ["--out", str(out)]) == 0
            (out / "pathtable.csv").write_text("previous\n")
            (out / "pathtable.npy").write_text("previous\n")
        before = {p.name: p.read_bytes() for p in out.iterdir()} if existing else {}
        calls = []
        original = channel.expand_path

        def expand(*args, **kwargs):
            calls.append(0)
            if len(calls) == 13:
                raise NumericError("late user failed")
            return original(*args, **kwargs)

        monkeypatch.setattr(channel, "expand_path", expand)
        assert main(argv + ["--out", str(out)]) == 3
        assert len(calls) == 13
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("source", ["scenario", "paths"])
    def test_oversized_request_exits_2_before_paths(
        self, tmp_path, capsys, monkeypatch, source
    ):
        from xlmimo import scenario, serialization

        def refuse(*args, **kwargs):
            raise AssertionError("paths built for an oversized request")

        monkeypatch.setattr(scenario, "build_all_paths", refuse)
        monkeypatch.setattr(serialization, "read_paths_csv", refuse)
        cfg_file = write_config(
            tmp_path,
            grid={"f_low_hz": 90.0e9, "f_high_hz": 110.0e9, "num_points": 10**9},
        )
        out = tmp_path / "out"
        argv = ["synthesize", "--config", cfg_file, "--out", str(out)]
        if source == "paths":
            argv += ["--paths", str(tmp_path / "p0.csv"), "--paths", str(tmp_path / "p1.csv")]
        assert main(argv) == 2
        assert "the limit is 4 GiB" in capsys.readouterr().err
        assert not out.exists()

    def test_path_table_columns_count_toward_the_limit(
        self, tmp_path, capsys, monkeypatch
    ):
        from xlmimo import cli

        # tiny_config: 2 users with one path each, 8 elements, 3 frequencies
        # (one block of b=3, one chunk of all 8 rows).  Streamed: the
        # complex64 values of channel.bin.  Held: one user's path table (64
        # B per element and path) and the expansion being built (96 B per
        # element), the complex64 chunk, and assemble's tables for it: the
        # frequencies, 16 B x 8 rows x (1 path x (2 x 3 step columns + 4 x 1
        # block + 2) + 3 accumulator columns), and 64 KiB of small objects.
        pool_and_working_set = (
            2 * 8 * 3 * 8
            + 64 * 8 + 96 * 8
            + 8 * 8 * 3
            + 8 * 3 + 16 * 8 * (1 * (2 * 3 + 4 * 1 + 2) + 3) + 2**16
        )
        columns = 9 * 8 * (8 * 2)
        argv = ["synthesize", "--config", write_config(tmp_path)]
        out = tmp_path / "out"
        monkeypatch.setattr(cli, "_MAX_SYNTH_BYTES", pool_and_working_set + columns - 1)
        assert main(argv + ["--out", str(out)]) == 2
        assert "16 path-table rows" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setattr(cli, "_MAX_SYNTH_BYTES", pool_and_working_set + columns)
        assert main(argv + ["--out", str(out)]) == 0


@pytest.mark.parametrize(
    "command", ["synthesize-config", "synthesize-paths", "generate-aaf", "evaluate"]
)
def test_unreadable_input_file_exits_2(tmp_path, capsys, command):
    """A missing file, a directory or a non-UTF-8 header is a bad input file,
    reported with its path before ``--out`` is made."""
    missing = tmp_path / "missing.yaml"
    if command == "synthesize-config":
        bad, argv = missing, ["synthesize", "--config", str(missing)]
    elif command == "synthesize-paths":
        bad = tmp_path / "a-directory"
        bad.mkdir()
        argv = ["synthesize", "--preset", "case1-concrete", "--paths", str(bad)]
    elif command == "generate-aaf":
        bad = missing
        argv = ["generate-aaf", "--elements", "8", "--seed", "1", "--config", str(bad)]
    else:
        bad = tmp_path / "channel.json"
        bad.write_bytes(b"\xff\xfe{")
        (tmp_path / "channel.bin").write_bytes(b"")
        argv = ["evaluate", "--channel", str(tmp_path / "channel"), "--metrics", "gain"]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: "), err
    assert "Traceback" not in err
    assert not out.exists()


def staged_paths(tmp_path, **row_edits):
    """The freespace path list as a --paths file, its first row edited."""
    staged = tmp_path / "staged"
    assert main(["scenario", "--preset", "freespace", "--out", str(staged)]) == 0
    fn = staged / "paths_ue000.csv"
    rows = read_rows(fn)
    rows[0].update(row_edits)
    with open(fn, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return str(fn)


def two_path_scenario(tmp_path):
    """A one-user config with a line-of-sight and a reflected path, and the
    user's path list from ``scenario``."""
    cfg = write_config(
        tmp_path,
        ues=[[0.2, 0.645, 0.0]],
        reflectors=[
            {"point": [0.0, 1.2, 0.0], "normal": [0.0, -1.0, 0.0], "loss_db": 7.0}
        ],
    )
    staged = tmp_path / "staged"
    assert main(["scenario", "--config", cfg, "--out", str(staged)]) == 0
    return cfg, staged / "paths_ue000.csv"


class TestSynthesizeInputErrors:
    @pytest.mark.parametrize(
        "where, keys, value",
        [
            ("config", ("array", "spacing_m"), float("nan")),
            ("config", ("patterns", "tx", "gain_dbi"), float("nan")),
            ("config", ("grid", "f_high_hz"), float("inf")),
            ("paths", ("amplitude",), "nan"),
            ("paths", ("phase_rad",), "inf"),
        ],
        ids=["spacing-nan", "tx-gain-nan", "f-high-inf", "amplitude-nan", "phase-inf"],
    )
    def test_non_finite_inputs_exit_2(self, tmp_path, capsys, where, keys, value):
        from xlmimo.scenario import preset

        out = tmp_path / "out"
        argv = ["synthesize", "--out", str(out), "--seed", "1"]
        if where == "paths":
            argv += ["--preset", "freespace",
                     "--paths", staged_paths(tmp_path, **{keys[0]: value})]
        else:
            cfg = preset("freespace")
            section = cfg
            for key in keys[:-1]:
                section = section[key]
            section[keys[-1]] = value
            write_yaml(tmp_path / "cfg.yaml", cfg)
            argv += ["--config", str(tmp_path / "cfg.yaml")]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err
        assert not (out / "channel.bin").exists()

    def test_wrong_length_fixed_aaf_exits_2(self, tmp_path, capsys):
        fn = staged_paths(tmp_path, stationarity="sns", aaf="0.5;0.5;0.5")
        out = tmp_path / "out"
        argv = ["synthesize", "--preset", "freespace", "--seed", "1",
                "--paths", fn, "--out", str(out)]
        assert main(argv) == 2
        assert "fixed aaf length 3 != num_elements 301" in capsys.readouterr().err
        assert not (out / "channel.bin").exists()


_ROBUST_FIELDS = (
    ("seed",),
    ("array", "num_elements"),
    ("array", "spacing_m"),
    ("array", "reference_index"),
    ("grid", "f_low_hz"),
    ("grid", "f_high_hz"),
    ("grid", "num_points"),
    ("patterns", "tx", "gain_dbi"),
    ("patterns", "rx", "gain_dbi"),
    ("ues", 0, 0),
    ("ues", 0, 1),
    ("reflectors", 0, "loss_db"),
    ("reflectors", 0, "phase_rad"),
    ("reflectors", 0, "point", 1),
    ("reflectors", 0, "normal", 1),
    ("aaf", "mu_p"),
    ("aaf", "lambda_corr"),
)


@settings(max_examples=80, deadline=None)
@given(
    edits=st.dictionaries(
        st.sampled_from(_ROBUST_FIELDS),
        st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -1.0, None]),
        min_size=1,
        max_size=3,
    ),
    variant=st.sampled_from(["nf-sns", "ff-ss", "vr"]),
)
def test_synthesize_never_crashes_on_bad_numbers(edits, variant):
    """Every edited config either synthesizes a finite channel or exits 2/3.

    ``None`` keeps the field's typical value from a small case1-concrete.
    """
    import tempfile

    from xlmimo.scenario import preset

    cfg = preset("case1-concrete")
    cfg["array"]["num_elements"] = 16
    cfg["grid"]["num_points"] = 8
    cfg["variant"] = variant
    for keys, value in edits.items():
        if value is None:
            continue
        section = cfg
        for key in keys[:-1]:
            section = section[key]
        section[keys[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg_file = f"{tmp}/cfg.yaml"
        write_yaml(cfg_file, cfg)
        code = main(["synthesize", "--config", cfg_file, "--out", f"{tmp}/out"])
        assert code in (0, 2, 3)
        if code == 0:
            values = np.fromfile(f"{tmp}/out/channel.bin", dtype="<c8")
            assert values.size == 16 * 8 and np.all(np.isfinite(values))


class TestGenerateAafCommand:
    def test_basic_run(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "generate-aaf", "--out", str(out),
                "--elements", "64", "--sequences", "2", "--seed", "3",
            ]
        )
        assert code == 0
        values = read_rows(out / "aaf.csv")
        assert len(values) == 128
        nums = np.array([float(r["value"]) for r in values])
        assert np.all((nums >= 0.0) & (nums <= 1.0))
        params = read_rows(out / "aaf_params.csv")
        assert len(params) == 2
        assert (out / "acf.csv").exists()
        assert read_json(out / "meta.json")["fixed_params"] is None

    def test_fixed_params_match_library(self, tmp_path):
        from xlmimo.sns import generate_aaf

        out = tmp_path / "out"
        code = main(
            [
                "generate-aaf", "--out", str(out), "--elements", "32",
                "--seed", "5", "--p", "1.0", "--q", "1.03", "--dcorr", "0.05",
            ]
        )
        assert code == 0
        params = read_rows(out / "aaf_params.csv")[0]
        assert float(params["p"]) == 1.0 and float(params["d_corr"]) == 0.05
        rng = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(0,)))
        want = generate_aaf(32, 1.0, 1.03, 0.05, rng)
        got = np.array([float(r["value"]) for r in read_rows(out / "aaf.csv")])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("elements", [16, 2])
    def test_rerun_is_byte_identical(self, tmp_path, elements):
        argv = ["generate-aaf", "--elements", str(elements), "--sequences", "3",
                "--seed", "9"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        files = {p.name: p.read_bytes() for p in a.iterdir()}
        assert set(files) == {"aaf.csv", "aaf_params.csv", "meta.json"} | (
            {"acf.csv"} if elements >= 3 else set()
        )
        assert {p.name: p.read_bytes() for p in b.iterdir()} == files

    @pytest.mark.parametrize(
        "flags",
        [
            ["--elements", "301", "--sequences", "10", "--seed", "17"],
            # format blocks straddle sequences
            ["--elements", "5000", "--sequences", "3", "--seed", "3"],
            ["--elements", "2", "--sequences", "3", "--seed", "3"],
            # constant draws: NaN ACF rows and fitted decay
            ["--elements", "8", "--sequences", "2", "--seed", "1",
             "--p", "1e10", "--q", "1e-10", "--dcorr", "1"],
            ["--elements", "40", "--sequences", "4", "--seed", "11", "--config"],
        ],
        ids=["301x10", "5000x3", "2x3", "constant", "config"],
    )
    def test_streamed_tables_equal_whole_run_tables(self, tmp_path, flags):
        """Each sequence's rows are appended as it is drawn; the files have
        the bytes of whole-run tables written by ``write_table``."""
        from xlmimo.scenario import build_aaf_params
        from xlmimo.serialization import write_table
        from xlmimo.sns import acf, fit_dcorr, generate_aaf, sample_aaf_params

        config = {}
        if flags[-1] == "--config":
            config = {"aaf": {"mu_p": 0.9, "sigma_p": 0.3, "dcorr_range": [0.01, 0.2]}}
            write_yaml(tmp_path / "aaf.yaml", config)
            flags = flags + [str(tmp_path / "aaf.yaml")]
        out = tmp_path / "out"
        assert main(["generate-aaf", *flags, "--out", str(out)]) == 0

        opts = dict(zip(flags[::2], flags[1::2]))
        elements, sequences = int(opts["--elements"]), int(opts["--sequences"])
        params = build_aaf_params(config)
        values = np.empty((sequences, elements))
        acf_values = np.full((sequences, elements), np.nan)
        rows = []
        for seq in range(sequences):
            rng = np.random.default_rng(
                np.random.SeedSequence(int(opts["--seed"]), spawn_key=(seq,))
            )
            if "--p" in opts:
                p, q, d_corr = (float(opts[k]) for k in ("--p", "--q", "--dcorr"))
            else:
                p, q, d_corr = sample_aaf_params(params, rng)
            values[seq] = generate_aaf(elements, p, q, d_corr, rng)
            fitted = float("nan")
            try:
                curve = acf(values[seq]) if elements >= 3 else None
            except ValueError:  # constant draws
                curve = None
            if curve is not None:
                acf_values[seq] = curve
                fitted = fit_dcorr(curve)
            rows.append([seq, p, q, d_corr, fitted])
        sequence = np.repeat(np.arange(sequences), elements)
        element = np.tile(np.arange(elements), sequences)
        ref = tmp_path / "ref"
        ref.mkdir()
        write_table(ref / "aaf.csv", ["sequence", "element", "value"],
                    [sequence, element, values.ravel()])
        write_table(ref / "aaf_params.csv",
                    ["sequence", "p", "q", "d_corr", "fitted_dcorr"],
                    [list(column) for column in zip(*rows)])
        if elements >= 3:
            write_table(ref / "acf.csv", ["sequence", "lag", "value"],
                        [sequence, element, acf_values.ravel()])
        for p in ref.iterdir():
            assert (out / p.name).read_bytes() == p.read_bytes(), p.name
        assert (out / "acf.csv").exists() == (elements >= 3)

    def test_size_guard_counts_one_sequence(self, tmp_path, capsys, monkeypatch):
        from xlmimo import cli

        argv = ["generate-aaf", "--elements", "2", "--sequences", "50", "--seed", "1",
                "--out", str(tmp_path / "out")]
        monkeypatch.setattr(cli, "_MAX_SYNTH_BYTES", 2 * cli._AAF_BYTES_PER_ELEMENT - 1)
        assert main(argv) == 2
        assert "2 elements per sequence" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        monkeypatch.setattr(cli, "_MAX_SYNTH_BYTES", 2 * cli._AAF_BYTES_PER_ELEMENT)
        assert main(argv) == 0
        assert len(read_rows(tmp_path / "out" / "aaf.csv")) == 100

    def test_peak_memory_is_one_sequence(self, tmp_path):
        from xlmimo.cli import _AAF_BYTES_PER_ELEMENT

        def peak(sequences):
            argv = ["generate-aaf", "--elements", "5000", "--sequences",
                    str(sequences), "--seed", "1", "--out", str(tmp_path / str(sequences))]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # warm-up: first-call imports and caches
        two, eight = peak(2), peak(8)
        assert eight <= two + 64 * 2**10, (two, eight)
        assert max(two, eight) < 5000 * _AAF_BYTES_PER_ELEMENT, (two, eight)

    @pytest.mark.parametrize("existing", [False, True])
    def test_failure_in_a_late_sequence_leaves_no_file(
        self, tmp_path, monkeypatch, existing
    ):
        from xlmimo import sns
        from xlmimo.errors import NumericError

        argv = ["generate-aaf", "--elements", "64", "--sequences", "4", "--seed", "2",
                "--out", str(tmp_path / "out")]
        out = tmp_path / "out"
        if existing:
            assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()} if existing else {}
        calls = []
        original = sns.fit_dcorr

        def fit(curve):
            calls.append(0)
            if len(calls) == 3:
                raise NumericError("third sequence failed")
            return original(curve)

        monkeypatch.setattr(sns, "fit_dcorr", fit)
        assert main(argv) == 3
        assert len(calls) == 3
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate-aaf", "--elements", "16"],  # no seed
            ["generate-aaf", "--elements", "0", "--seed", "1"],
            ["generate-aaf", "--elements", "16", "--sequences", "0", "--seed", "1"],
            ["generate-aaf", "--elements", "16", "--seed", "1", "--p", "1.0"],
        ],
    )
    def test_invalid_arguments(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2

    def test_oversized_request_exits_2_before_allocating(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["generate-aaf", "--elements", "1000000000000", "--sequences", "1",
                "--seed", "1", "--out", str(out)]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2, err
        assert "the limit is 4 GiB" in err and "Traceback" not in err
        assert not out.exists()
        assert peak < 2**20


@pytest.fixture(scope="module")
def synthesized(tmp_path_factory):
    """One small nf-ss channel and one ff-ss channel from the same scenario.

    The reflector gives every user a second path so the K-factor is finite
    and spatial correlation is defined.
    """
    root = tmp_path_factory.mktemp("chan")
    cfg_file = root / "config.yaml"
    write_yaml(
        cfg_file,
        tiny_config(
            ues=[[0.2, 0.645, 0.0], [-0.1, 0.9, 0.0],
                 [0.05, 1.1, 0.0], [0.3, 0.8, 0.0]],
            reflectors=[
                {"point": [0.0, 1.2, 0.0], "normal": [0.0, -1.0, 0.0], "loss_db": 7.0}
            ],
        ),
    )
    nf, ff = root / "nf", root / "ff"
    assert main(["synthesize", "--config", str(cfg_file), "--out", str(nf)]) == 0
    assert main(
        ["synthesize", "--config", str(cfg_file), "--out", str(ff), "--variant", "ff-ss"]
    ) == 0
    return nf, ff


@pytest.fixture(scope="module")
def single_path_channel(tmp_path_factory):
    """A pure line-of-sight channel: one path, so K-factor is infinite."""
    root = tmp_path_factory.mktemp("los")
    cfg_file = root / "config.yaml"
    write_yaml(cfg_file, tiny_config(ues=[[0.2, 0.645, 0.0]]))
    out = root / "out"
    assert main(["synthesize", "--config", str(cfg_file), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("command", ["evaluate", "compare"])
def test_gram_tensors_count_toward_the_limit(
    synthesized, tmp_path, capsys, monkeypatch, command
):
    from xlmimo import cli

    # two channels of 4 users x 3 frequencies: each trial Gram tensor is
    # (3, 4, 4) complex128, and both are held at once
    grams = 2 * 16 * 3 * 4 * 4
    nf, ff = synthesized
    argv = [
        command, "--channel", str(nf / "channel"), "--channel", str(ff / "channel"),
        "--metrics", "capacity", "--num-ues", "2", "--trials", "4", "--seed", "1",
    ]
    out = tmp_path / "out"
    monkeypatch.setattr(cli, "_MAX_SYNTH_BYTES", grams - 1)
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{command} would need about" in err
    assert "per-frequency Gram tensors" in err and "Traceback" not in err
    assert not out.exists()
    monkeypatch.setattr(cli, "_MAX_SYNTH_BYTES", grams)
    assert main(argv + ["--out", str(out)]) == 0


class TestEvaluateCommand:
    def test_all_metrics(self, synthesized, tmp_path):
        nf, _ = synthesized
        out = tmp_path / "out"
        code = main(
            [
                "evaluate", "--channel", str(nf / "channel"), "--out", str(out),
                "--metrics",
                "capacity,demmel,gain,kfactor,delay-spread,spatial-correlation",
                "--num-ues", "2", "--trials", "16", "--seed", "1", "--max-lag", "5",
            ]
        )
        assert code == 0
        label = "channel_nf-ss"
        for metric in ("capacity", "demmel", "gain", "kfactor", "delay_spread"):
            assert (out / f"{label}_{metric}_samples.csv").exists()
            cdf = read_rows(out / f"{label}_{metric}_cdf.csv")
            probs = [float(r["probability"]) for r in cdf]
            assert probs == sorted(probs) and probs[-1] == 1.0
        corr = read_rows(out / f"{label}_spatial_correlation.csv")
        assert [int(r["lag"]) for r in corr] == [1, 2, 3, 4, 5]
        summary = read_rows(out / "metrics_summary.csv")
        assert len(summary) == 5
        assert all(r["label"] == label for r in summary)

    def test_capacity_samples_match_library(self, synthesized, tmp_path):
        from xlmimo.metrics import multiuser_trials

        nf, _ = synthesized
        out = tmp_path / "out"
        code = main(
            [
                "evaluate", "--channel", str(nf / "channel"), "--out", str(out),
                "--metrics", "capacity", "--num-ues", "2", "--trials", "8",
                "--seed", "4", "--snr-db", "12.5",
            ]
        )
        assert code == 0
        pool, _ = read_channel(nf / "channel")
        rng = np.random.default_rng(np.random.SeedSequence(4))
        want, _ = multiuser_trials(pool, 2, 8, rng, snr_db=12.5)
        got = np.array(
            [
                float(r["value"])
                for r in read_rows(out / "channel_nf-ss_capacity_samples.csv")
            ]
        )
        assert np.array_equal(got, want)

    def test_seed_required_for_trials(self, synthesized, tmp_path, capsys):
        nf, _ = synthesized
        code = main(
            [
                "evaluate", "--channel", str(nf / "channel"),
                "--out", str(tmp_path / "o"), "--metrics", "capacity",
            ]
        )
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_gain_only_needs_no_seed(self, synthesized, tmp_path):
        nf, _ = synthesized
        code = main(
            [
                "evaluate", "--channel", str(nf / "channel"),
                "--out", str(tmp_path / "o"), "--metrics", "gain",
            ]
        )
        assert code == 0

    def test_unknown_metric(self, synthesized, tmp_path):
        nf, _ = synthesized
        code = main(
            [
                "evaluate", "--channel", str(nf / "channel"),
                "--out", str(tmp_path / "o"), "--metrics", "capacity,bogus",
                "--seed", "1",
            ]
        )
        assert code == 2

    def test_num_ues_out_of_range(self, synthesized, tmp_path):
        nf, _ = synthesized
        code = main(
            [
                "evaluate", "--channel", str(nf / "channel"),
                "--out", str(tmp_path / "o"), "--metrics", "capacity",
                "--num-ues", "5", "--seed", "1",
            ]
        )
        assert code == 2

    def test_spatial_correlation_needs_multiple_paths(
        self, single_path_channel, tmp_path, capsys
    ):
        code = main(
            [
                "evaluate", "--channel", str(single_path_channel / "channel"),
                "--out", str(tmp_path / "o"), "--metrics", "spatial-correlation",
            ]
        )
        assert code == 2
        assert "two paths" in capsys.readouterr().err

    def test_pathtable_required_for_per_path_metrics(self, synthesized, tmp_path):
        nf, _ = synthesized
        moved = tmp_path / "moved"
        moved.mkdir()
        for suffix in (".bin", ".json"):
            (moved / f"channel{suffix}").write_bytes(
                (nf / f"channel{suffix}").read_bytes()
            )
        code = main(
            [
                "evaluate", "--channel", str(moved / "channel"),
                "--out", str(tmp_path / "o"), "--metrics", "gain",
            ]
        )
        assert code == 2

    def test_pathtable_parsed_once_per_channel(self, synthesized, tmp_path, monkeypatch):
        import xlmimo.serialization as serialization

        calls = []
        original = serialization.read_pathtable
        monkeypatch.setattr(
            serialization, "read_pathtable", lambda d: calls.append(d) or original(d)
        )
        nf, ff = synthesized
        code = main(
            [
                "evaluate", "--channel", str(nf / "channel"),
                "--channel", str(ff / "channel"), "--out", str(tmp_path / "o"),
                "--metrics", "gain,kfactor,delay-spread,spatial-correlation",
                "--max-lag", "3",
            ]
        )
        assert code == 0
        assert sorted(calls) == sorted([str(nf), str(ff)])

    @pytest.mark.parametrize(
        "metrics, streams, passes",
        [("gain,kfactor,delay-spread,spatial-correlation", 0, 0), ("demmel", 1, 1)],
    )
    def test_tensor_values_read_only_for_trials(
        self, synthesized, tmp_path, monkeypatch, metrics, streams, passes
    ):
        import xlmimo.metrics as mx
        import xlmimo.serialization as serialization

        calls = []
        bytes_read = []

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        class CountedFile:
            """A channel.bin handle that records the bytes each read returns."""

            def __init__(self, fh):
                self.fh = fh

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def readinto(self, buffer):
                bytes_read.append(self.fh.readinto(buffer))
                return bytes_read[-1]

        def counted_open(file, *args, **kwargs):
            fh = open(file, *args, **kwargs)
            return CountedFile(fh) if str(file).endswith("channel.bin") else fh

        counted(serialization, "read_channel")
        counted(mx, "stream_gram")
        monkeypatch.setattr(serialization, "open", counted_open, raising=False)
        nf, _ = synthesized
        code = main(
            [
                "evaluate", "--channel", str(nf / "channel"),
                "--out", str(tmp_path / "o"), "--metrics", metrics,
                "--seed", "1", "--max-lag", "3",
            ]
        )
        assert code == 0
        # the values stream into the Gram tensor in one pass over the file,
        # never through read_channel; without trials no value is read
        assert calls.count("read_channel") == 0
        assert calls.count("stream_gram") == streams
        assert sum(bytes_read) == passes * (nf / "channel.bin").stat().st_size

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_non_finite_channel_exits_2_before_out(
        self, synthesized, tmp_path, capsys, command
    ):
        nf, ff = synthesized
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "channel.json").write_bytes((nf / "channel.json").read_bytes())
        values = np.fromfile(nf / "channel.bin", "<c8")
        values[-1] = np.nan  # the last chunk's last value
        values.tofile(bad / "channel.bin")
        channels = [bad] if command == "evaluate" else [ff, bad]
        out = tmp_path / "o"
        argv = [command, "--metrics", "capacity", "--seed", "1", "--out", str(out)]
        for c in channels:
            argv += ["--channel", str(c / "channel")]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert f"error: {bad / 'channel.bin'}: values must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_peak_memory_is_below_one_pool(self, tmp_path, command):
        from xlmimo.channel import FrequencyGrid
        from xlmimo.geometry import ArrayGeometry
        from xlmimo.serialization import write_channel

        # 16 MiB pools, four times the 4 MiB chunk that streams into the Gram
        users, elements, points = 4, 512, 1024
        grid = FrequencyGrid(f_low_hz=90e9, f_high_hz=110e9, num_points=points)
        geometry = ArrayGeometry(num_elements=elements, spacing=0.0015)
        channels = []
        for seed in range(1 if command == "evaluate" else 3):
            rng = np.random.default_rng(seed)
            values = (
                rng.standard_normal((users, elements, points), np.float32)
                + 1j * rng.standard_normal((users, elements, points), np.float32)
            )
            base = tmp_path / f"chan{seed}" / "channel"
            base.parent.mkdir()
            write_channel(base, values, grid, geometry, "nf-ss", seed, "0" * 64, "rand")
            channels += ["--channel", str(base)]
        del values
        pool_bytes = users * elements * points * 8
        argv = [command, *channels, "--metrics", "capacity,demmel", "--trials", "20",
                "--seed", "1", "--out", str(tmp_path / "o")]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert (tmp_path / "o" / "metrics_summary.csv").exists()
        # one 4 MiB chunk and one user's rows of it, not a pool (let alone
        # three)
        assert peak < pool_bytes / 2

    def test_truncated_channel_exits_2_without_trials(
        self, synthesized, tmp_path, capsys
    ):
        nf, _ = synthesized
        cut = tmp_path / "cut"
        cut.mkdir()
        for name in ("channel.json", "pathtable.npy"):
            (cut / name).write_bytes((nf / name).read_bytes())
        (cut / "channel.bin").write_bytes((nf / "channel.bin").read_bytes()[:-8])
        code = main(
            [
                "evaluate", "--channel", str(cut / "channel"),
                "--out", str(tmp_path / "o"), "--metrics", "gain",
            ]
        )
        assert code == 2
        assert "size" in capsys.readouterr().err

    def test_pathtable_matches_row_loop_reference(self, synthesized):
        from xlmimo.serialization import read_pathtable

        nf, _ = synthesized
        tables = read_pathtable(str(nf))
        rows = read_rows(nf / "pathtable.csv")
        assert sum(t["amplitude"].size for t in tables) == len(rows)
        for r in rows:
            t = tables[int(r["ue"])]
            l, m = int(r["path"]), int(r["element"])
            assert t["amplitude"][m, l] == float(r["amplitude"])
            assert t["delay"][m, l] == float(r["delay_s"])
            assert t["aaf"][m, l] == float(r["aaf"])
            assert t["alpha"][l] == float(r["alpha_ref"])

    @staticmethod
    def _copy_with_table(nf, dest, edit):
        """The channel of ``nf`` in ``dest``, with ``edit`` applied to the
        records of its pathtable.npy."""
        dest.mkdir()
        for suffix in (".bin", ".json"):
            (dest / f"channel{suffix}").write_bytes(
                (nf / f"channel{suffix}").read_bytes()
            )
        records = np.load(nf / "pathtable.npy", allow_pickle=False)
        np.save(dest / "pathtable.npy", edit(records), allow_pickle=False)

    def test_pathtable_rows_in_any_order(self, synthesized, tmp_path):
        nf, _ = synthesized
        self._copy_with_table(nf, tmp_path / "shuffled", lambda rows: rows[::-1])
        argv = ["--metrics", "gain,spatial-correlation", "--max-lag", "3"]
        for name, src in (("a", nf), ("b", tmp_path / "shuffled")):
            out = tmp_path / name
            assert main(
                ["evaluate", "--channel", str(src / "channel"), "--out", str(out)]
                + argv
            ) == 0
        for fn in (
            "channel_nf-ss_gain_samples.csv",
            "channel_nf-ss_spatial_correlation.csv",
        ):
            assert (tmp_path / "a" / fn).read_bytes() == (tmp_path / "b" / fn).read_bytes()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda rows: np.delete(rows, 5),  # missing row
            lambda rows: np.concatenate([rows, rows[-1:]]),  # duplicated row
        ],
        ids=["missing", "duplicate"],
    )
    def test_pathtable_gaps_rejected(self, synthesized, tmp_path, capsys, edit):
        nf, _ = synthesized
        self._copy_with_table(nf, tmp_path / "gap", edit)
        code = main(
            [
                "evaluate", "--channel", str(tmp_path / "gap" / "channel"),
                "--out", str(tmp_path / "o"), "--metrics", "gain",
            ]
        )
        assert code == 2
        assert "exactly once" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("amplitude", np.nan), ("delay_s", np.inf), ("aaf", -0.5)],
        ids=["amplitude-nan", "delay-inf", "aaf-negative"],
    )
    def test_pathtable_bad_values_rejected(
        self, synthesized, tmp_path, capsys, field, value
    ):
        def edit(rows):
            rows[3][field] = value
            return rows

        nf, _ = synthesized
        self._copy_with_table(nf, tmp_path / "bad", edit)
        code = main(
            [
                "evaluate", "--channel", str(tmp_path / "bad" / "channel"),
                "--out", str(tmp_path / "o"), "--metrics", "gain,kfactor,delay-spread",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "pathtable.npy" in err and "finite and >= 0" in err

    def test_shadowed_elements_give_nan_samples(self, tmp_path):
        # both paths of the only user get a fixed AAF that is 0 on the first
        # two elements, so those elements receive no power at all
        cfg, fn = two_path_scenario(tmp_path)
        rows = read_rows(fn)
        assert len(rows) == 2
        for row in rows:
            row.update(stationarity="sns", aaf="0.0;0.0" + ";1.0" * 6)
        with open(fn, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        chan = tmp_path / "chan"
        assert main(
            ["synthesize", "--config", cfg, "--variant", "nf-sns", "--seed", "1",
             "--paths", str(fn), "--out", str(chan)]
        ) == 0
        out, cmp = tmp_path / "o", tmp_path / "cmp"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                ["evaluate", "--channel", str(chan / "channel"), "--out", str(out),
                 "--metrics", "gain,kfactor,delay-spread"]
            )
            compare_code = main(
                ["compare", "--channel", str(chan / "channel"), "--channel",
                 str(chan / "channel"), "--out", str(cmp),
                 "--metrics", "kfactor,delay-spread"]
            )
        assert code == 0 and compare_code == 0
        messages = {str(w.message) for w in caught}
        assert "zero-power elements give nan K-factor" in messages
        assert "zero-power elements give nan delay spread" in messages
        summary = {r["metric"]: r for r in read_rows(out / "metrics_summary.csv")}
        for metric in ("gain", "kfactor", "delay-spread"):
            assert summary[metric]["count"] == "8"
            assert summary[metric]["non_finite"] == "2"
        for metric in ("kfactor", "delay_spread"):
            values = [
                r["value"] for r in read_rows(out / f"channel_nf-sns_{metric}_samples.csv")
            ]
            assert values[:2] == ["nan", "nan"]
            assert all(np.isfinite(float(v)) for v in values[2:])
        # compare drops the nan samples, as it drops other non-finite ones
        for metric in ("kfactor", "delay_spread"):
            assert float(read_rows(cmp / f"cvm_{metric}.csv")[0]["distance"]) == 0.0

    def test_cdf_holds_only_finite_samples(self, tmp_path):
        # vr leaves elements with no power (nan) or only the LoS path (inf)
        chan, out = tmp_path / "c2", tmp_path / "o"
        assert main(
            ["synthesize", "--preset", "case2", "--variant", "vr", "--seed", "1",
             "--out", str(chan)]
        ) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(
                ["evaluate", "--channel", str(chan / "channel"), "--out", str(out),
                 "--metrics", "kfactor"]
            )
        assert code == 0
        samples = [float(r["value"]) for r in read_rows(out / "channel_vr_kfactor_samples.csv")]
        cdf = read_rows(out / "channel_vr_kfactor_cdf.csv")
        assert len(samples) == 301 and len(cdf) == 176
        finite = np.sort([v for v in samples if np.isfinite(v)])
        assert np.array_equal([float(r["value"]) for r in cdf], finite)
        probs = [float(r["probability"]) for r in cdf]
        assert probs == [(i + 1) / 176 for i in range(176)] and probs[-1] == 1.0

    @pytest.mark.parametrize("order", [(2, 1), (1, 2)], ids=["two-then-one", "one-then-two"])
    def test_spatial_correlation_checks_every_user(self, tmp_path, capsys, order):
        cfg, two = two_path_scenario(tmp_path)
        one = tmp_path / "one_path.csv"
        header, first, *_ = two.read_text().splitlines(keepends=True)
        one.write_text(header + first)
        files = {2: two, 1: one}
        argv = ["synthesize", "--config", cfg, "--out", str(tmp_path / "chan")]
        for n in order:
            argv += ["--paths", str(files[n])]
        assert main(argv) == 0
        code = main(
            ["evaluate", "--channel", str(tmp_path / "chan" / "channel"),
             "--out", str(tmp_path / "o"), "--metrics", "spatial-correlation"]
        )
        assert code == 2
        assert "two paths" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "channels, metrics, extra, message",
        [
            ("single", "gain,kfactor,spatial-correlation", [], "two paths"),
            ("nf,single", "gain,spatial-correlation", [], "two paths"),
            ("nf,single", "capacity", ["--num-ues", "2", "--seed", "1"], "--num-ues"),
        ],
        ids=["spatial-correlation", "spatial-correlation-second", "num-ues-second"],
    )
    def test_rejected_request_writes_no_metric_file(
        self, synthesized, single_path_channel, tmp_path, capsys,
        channels, metrics, extra, message,
    ):
        dirs = {"nf": synthesized[0], "single": single_path_channel}
        out = tmp_path / "o"
        argv = ["evaluate", "--metrics", metrics, "--out", str(out), *extra]
        for name in channels.split(","):
            argv += ["--channel", str(dirs[name] / "channel")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_is_byte_identical(self, synthesized, tmp_path):
        nf, _ = synthesized
        argv = [
            "evaluate", "--channel", str(nf / "channel"), "--metrics",
            "capacity,gain,kfactor,delay-spread,spatial-correlation",
            "--num-ues", "2", "--trials", "8", "--seed", "2",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        for fn in (
            "metrics_summary.csv",
            "channel_nf-ss_capacity_samples.csv",
            "channel_nf-ss_gain_cdf.csv",
            "channel_nf-ss_kfactor_samples.csv",
            "channel_nf-ss_kfactor_cdf.csv",
            "channel_nf-ss_delay_spread_samples.csv",
            "channel_nf-ss_delay_spread_cdf.csv",
            "channel_nf-ss_spatial_correlation.csv",
            "meta.json",
        ):
            assert (a / fn).read_bytes() == (b / fn).read_bytes(), fn

    def test_spatial_correlation_with_constant_rows(self, tmp_path):
        # three SnS paths per user; user 0 loses elements 0 and 3 and user 1
        # every element (aaf 0), so those rows are constant, and the curve is
        # the user nanmean of the per-lag reference at every lag
        from test_metrics import per_lag_correlation

        def edit(rows):
            flat = (rows["ue"] == 1) | (
                (rows["ue"] == 0) & np.isin(rows["element"], [0, 3])
            )
            rows["aaf"][flat] = 0.0
            return rows

        chan = tmp_path / "chan"
        cfg = streaming_config(tmp_path, "nf-sns", 2)
        assert main(["synthesize", "--config", cfg, "--out", str(chan)]) == 0
        self._copy_with_table(chan, tmp_path / "flat", edit)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(
                ["evaluate", "--channel", str(tmp_path / "flat" / "channel"),
                 "--out", str(out), "--metrics", "spatial-correlation"]
            ) == 0
        messages = {str(w.message) for w in caught}
        assert "skipping 3 constant-row pairs in spatial correlation" in messages
        assert "skipping 300 constant-row pairs in spatial correlation" in messages
        users = {}
        for r in np.load(tmp_path / "flat" / "pathtable.npy").tolist():
            ue, path, element, alpha_ref, aaf = r[:5]
            matrix = users.setdefault(ue, np.empty((301, 3)))
            matrix[element, path] = aaf * alpha_ref
        lines = ["lag,value"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for lag in range(1, 101):
                values = [per_lag_correlation(users[u], lag) for u in sorted(users)]
                assert np.isnan(values[1]) and not np.isnan(values[0])
                lines.append(f"{lag},{float(np.nanmean(values))!r}")
        got = (out / "channel_nf-sns_spatial_correlation.csv").read_text()
        assert got == "\n".join(lines) + "\n"


class TestSpatialCorrelationCurve:
    @staticmethod
    def tables(num_users, flat_users=()):
        # (M, L) = (40, 3) amplitudes per user; a flat user's rows are all
        # zero, so its correlation is nan at every lag
        rng = np.random.default_rng(num_users)
        tables = []
        for u in range(num_users):
            aaf = rng.uniform(0.0, 1.0, (40, 3)) * (u not in flat_users)
            tables.append({"aaf": aaf, "alpha": rng.uniform(0.5, 2.0, 3)})
        return tables

    @pytest.mark.parametrize("num_users", [1, 2, 7, 8, 9, 17, 40])
    def test_user_mean_matches_per_lag_nanmean(self, num_users):
        # one nanmean over the (lags, users) rows gives each lag the bits of
        # the nanmean of that lag's per-user values on their own
        from xlmimo import metrics
        from xlmimo.cli import _spatial_correlation_curve

        tables = self.tables(num_users, flat_users=range(0, num_users, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lags, curve = _spatial_correlation_curve(tables, 100)
            per_user = [
                metrics.avg_spatial_correlation(t["aaf"] * t["alpha"], lags).tolist()
                for t in tables
            ]
            want = [np.nanmean(values) for values in zip(*per_user)]
        assert np.array_equal(lags, np.arange(1, 40))
        assert np.array_equal(curve, want, equal_nan=True)
        assert np.all(np.isnan(curve)) == (num_users == 1)

    def test_lags_with_no_finite_user_warn_mean_of_empty_slice(self):
        from xlmimo.cli import _spatial_correlation_curve

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lags, curve = _spatial_correlation_curve(
                self.tables(3, flat_users=range(3)), 5
            )
        assert lags.tolist() == [1, 2, 3, 4, 5]
        assert np.all(np.isnan(curve))
        empty = [w for w in caught if str(w.message) == "Mean of empty slice"]
        assert empty and all(w.category is RuntimeWarning for w in empty)


PATHTABLE_DTYPE = np.dtype(
    [("ue", "<i8"), ("path", "<i8"), ("element", "<i8")]
    + [(name, "<f8") for name in (
        "alpha_ref", "aaf", "amplitude", "delay_s", "phase_rad", "distance_m"
    )]
)


@st.composite
def path_table_records(draw):
    """A valid path table of random size with random finite, non-negative
    values (``alpha_ref`` constant per path), rows shuffled."""
    num_elements = draw(st.integers(1, 6))
    num_paths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = np.array([0.0, 5e-324, 1e-300, 1.0, 1e300])
    users = []
    for ue, paths in enumerate(num_paths):
        records = np.empty((paths, num_elements), PATHTABLE_DTYPE)
        records["ue"] = ue
        records["path"] = np.arange(paths)[:, None]
        records["element"] = np.arange(num_elements)
        records["alpha_ref"] = rng.choice(special, paths)[:, None]
        for name in PATHTABLE_DTYPE.names[4:]:
            records[name] = np.where(
                rng.random(records.shape) < 0.2,
                rng.choice(special, records.shape),
                rng.exponential(size=records.shape),
            )
        users.append(records.ravel())
    table = np.concatenate(users)[rng.permutation(sum(num_paths) * num_elements)]
    return table, num_paths, num_elements


class TestPathTableFile:
    """pathtable.npy: the records that evaluate reads, the same values as
    the pathtable.csv text."""

    @settings(max_examples=60, deadline=None)
    @given(path_table_records())
    def test_shuffled_tables_round_trip(self, tmp_path_factory, drawn):
        from xlmimo.serialization import read_pathtable

        table, num_paths, num_elements = drawn
        directory = tmp_path_factory.mktemp("table")
        np.save(directory / "pathtable.npy", table, allow_pickle=False)
        got = read_pathtable(str(directory))

        assert len(got) == len(num_paths)
        for ue, (tables, paths) in enumerate(zip(got, num_paths)):
            want = {key: np.full((num_elements, paths), np.nan)
                    for key in ("amplitude", "delay", "aaf")}
            alpha = np.full(paths, np.nan)
            for row in table.tolist():
                if row[0] != ue:
                    continue
                _, l, m, alpha_ref, aaf, amplitude, delay, *_ = row
                want["amplitude"][m, l] = amplitude
                want["delay"][m, l] = delay
                want["aaf"][m, l] = aaf
                alpha[l] = alpha_ref
            assert sorted(tables) == ["aaf", "alpha", "amplitude", "delay"]
            for key, value in want.items():
                assert tables[key].flags.c_contiguous
                assert tables[key].dtype == np.float64
                assert np.array_equal(tables[key], value), (ue, key)
            assert np.array_equal(tables["alpha"], alpha)

    @staticmethod
    def _wrong_names(path, records):
        names = list(records.dtype.names)
        names[5] = "amp"
        renamed = records.copy()
        renamed.dtype.names = names
        np.save(path, renamed)

    @staticmethod
    def _truncated(path, records):
        np.save(path, records)
        path.write_bytes(path.read_bytes()[:-5])

    @staticmethod
    def _huge_row_count(path, records):
        # a header that declares far more rows than follow it
        with open(path, "wb") as fh:
            np.lib.format.write_array_header_1_0(
                fh, {"descr": np.lib.format.dtype_to_descr(records.dtype),
                     "fortran_order": False, "shape": (10**12,)})
            records.tofile(fh)

    @staticmethod
    def _format_2_0(path, records):
        # the records under a format 2.0 header, which pathtable_writer never writes
        with open(path, "wb") as fh:
            np.lib.format.write_array(fh, records, version=(2, 0))

    @pytest.mark.parametrize(
        "write",
        [
            _wrong_names,
            lambda p, r: np.save(p, r.astype(
                [(n, "<i4" if n == "ue" else t) for n, t in r.dtype.descr])),
            lambda p, r: np.save(p, r.astype(
                [(n, ">f8" if t == "<f8" else t) for n, t in r.dtype.descr])),
            lambda p, r: np.save(p, np.stack([r["amplitude"], r["delay_s"]], axis=1)),
            lambda p, r: np.save(p, r.reshape(-1, 2)),
            _truncated,
            _huge_row_count,
            lambda p, r: p.write_bytes(p.read_bytes() + b"\0" * 72),
            lambda p, r: p.write_bytes(p.read_bytes()[:40]),
            lambda p, r: p.write_bytes(b""),
            lambda p, r: np.save(p, np.array([{"ue": 0}], dtype=object), allow_pickle=True),
            lambda p, r: p.write_bytes((p.parent / "pathtable.csv").read_bytes()),
            lambda p, r: np.savez(p.with_suffix(""), table=r) or p.with_suffix(".npz").rename(p),
            lambda p, r: np.save(p, r[:0]),
            lambda p, r: p.unlink(),
            _format_2_0,
        ],
        ids=[
            "wrong-names", "int32-ue", "big-endian-floats", "plain-2-d",
            "2-d-records", "truncated-data", "huge-row-count", "trailing-record", "truncated-header",
            "empty-file",
            "object-pickle", "csv-text", "npz", "no-rows", "missing", "format-2.0",
        ],
    )
    def test_malformed_file_exits_2(self, synthesized, tmp_path, capsys, write):
        nf, _ = synthesized
        copy = tmp_path / "copy"
        copy.mkdir()
        for name in ("channel.bin", "channel.json", "pathtable.csv", "pathtable.npy"):
            (copy / name).write_bytes((nf / name).read_bytes())
        target = copy / "pathtable.npy"
        write(target, np.load(target))
        out = tmp_path / "o"
        code = main(
            ["evaluate", "--channel", str(copy / "channel"), "--out", str(out),
             "--metrics", "gain"]
        )
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"error: {target}") and "Traceback" not in err
        assert not out.exists()

    @staticmethod
    def assert_files_agree(directory):
        """Every pathtable.npy field is float() or int() of its
        pathtable.csv cell, bit for bit, in the same rows and order."""
        with open(directory / "pathtable.npy", "rb") as fh:
            assert np.lib.format.read_magic(fh) == (1, 0)
        records = np.load(directory / "pathtable.npy", allow_pickle=False)
        with open(directory / "pathtable.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert records.dtype == PATHTABLE_DTYPE
        assert tuple(header) == PATHTABLE_DTYPE.names
        assert records.shape == (len(rows),)
        for name, cells in zip(header, zip(*rows)):
            kind = int if records.dtype[name].kind == "i" else float
            want = np.array([kind(cell) for cell in cells], dtype=records.dtype[name])
            got = np.ascontiguousarray(records[name])
            assert np.array_equal(want.view(np.uint64), got.view(np.uint64)), name

    @pytest.mark.parametrize("name", preset_names())
    def test_npy_and_csv_hold_the_same_values(self, tmp_path, name):
        from xlmimo.scenario import preset

        cfg = preset(name)
        cfg["grid"]["num_points"] = 1  # the path table uses only the carrier
        cfg["seed"] = 9
        write_yaml(tmp_path / "cfg.yaml", cfg)
        for variant in ("nf-sns", "nf-ss", "ff-sns", "ff-ss", "vr"):
            out = tmp_path / variant
            assert main(
                ["synthesize", "--config", str(tmp_path / "cfg.yaml"),
                 "--variant", variant, "--out", str(out)]
            ) == 0
            self.assert_files_agree(out)

    def test_npy_and_csv_hold_the_same_values_from_paths(self, tmp_path):
        # two case3 users' path lists, the second staged with a fixed aaf
        assert main(["scenario", "--preset", "case3", "--out", str(tmp_path / "scn")]) == 0
        staged = tmp_path / "staged.csv"
        rows = read_rows(tmp_path / "scn" / "paths_ue001.csv")
        rows[1].update(stationarity="sns", aaf=";".join(
            repr(v) for v in np.linspace(0.0, 1.0, 301).tolist()))
        with open(staged, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        out = tmp_path / "out"
        assert main(
            ["synthesize", "--preset", "case3", "--seed", "2",
             "--paths", str(tmp_path / "scn" / "paths_ue000.csv"),
             "--paths", str(staged), "--out", str(out)]
        ) == 0
        self.assert_files_agree(out)
        records = np.load(out / "pathtable.npy")
        fixed = records[(records["ue"] == 1) & (records["path"] == 1)]
        assert np.array_equal(fixed["aaf"], np.linspace(0.0, 1.0, 301))


class TestCompareCommand:
    def test_pairwise_distances(self, synthesized, tmp_path):
        nf, ff = synthesized
        out = tmp_path / "out"
        code = main(
            [
                "compare", "--channel", str(nf / "channel"),
                "--channel", str(ff / "channel"), "--out", str(out),
                "--metrics", "gain,kfactor",
            ]
        )
        assert code == 0
        rows = read_rows(out / "cvm_gain.csv")
        assert len(rows) == 1
        assert rows[0]["label_a"] == "channel_nf-ss"
        assert rows[0]["label_b"] == "channel_ff-ss"
        assert float(rows[0]["distance"]) >= 0.0
        assert (out / "cvm_kfactor.csv").exists()
        # compare writes no per-channel sample files
        assert not list(out.glob("*_samples.csv"))

    def test_spatial_correlation_is_checked_but_not_computed(
        self, synthesized, tmp_path, monkeypatch
    ):
        # compare writes no correlation curve, so it computes none
        import xlmimo.metrics as mx

        calls = []
        monkeypatch.setattr(mx, "avg_spatial_correlation", lambda *a: calls.append(a))
        nf, ff = synthesized
        out = tmp_path / "out"
        code = main(
            [
                "compare", "--channel", str(nf / "channel"),
                "--channel", str(ff / "channel"), "--out", str(out),
                "--metrics", "gain,spatial-correlation",
            ]
        )
        assert code == 0 and calls == []
        assert sorted(p.name for p in out.iterdir()) == [
            "cvm_gain.csv", "meta.json", "metrics_summary.csv"
        ]

    def test_duplicate_labels_disambiguated(self, synthesized, tmp_path):
        nf, _ = synthesized
        out = tmp_path / "out"
        code = main(
            [
                "compare", "--channel", str(nf / "channel"),
                "--channel", str(nf / "channel"), "--out", str(out),
                "--metrics", "gain",
            ]
        )
        assert code == 0
        row = read_rows(out / "cvm_gain.csv")[0]
        assert row["label_a"] == "channel_nf-ss"
        assert row["label_b"] == "channel_nf-ss_2"
        assert float(row["distance"]) == 0.0

    def test_all_nonfinite_samples_give_nan_distance(
        self, single_path_channel, tmp_path
    ):
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                [
                    "compare", "--channel", str(single_path_channel / "channel"),
                    "--channel", str(single_path_channel / "channel"),
                    "--out", str(out), "--metrics", "kfactor",
                ]
            )
        assert code == 0
        assert any("nan distance" in str(w.message) for w in caught)
        row = read_rows(out / "cvm_kfactor.csv")[0]
        assert np.isnan(float(row["distance"]))

    def test_needs_two_channels(self, synthesized, tmp_path):
        nf, _ = synthesized
        code = main(
            [
                "compare", "--channel", str(nf / "channel"),
                "--out", str(tmp_path / "o"), "--metrics", "gain",
            ]
        )
        assert code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["evaluate", "--metrics", "capacity", "--seed", "-1"], "--seed"),
        (["generate-aaf", "--elements", "16", "--seed", "-1"], "--seed"),
        (["evaluate", "--metrics", "capacity", "--seed", "1", "--trials", "0"], "--trials"),
        (["compare", "--metrics", "capacity", "--seed", "1", "--trials", "0"], "--trials"),
        (["evaluate", "--metrics", "capacity", "--seed", "1", "--snr-db", "nan"], "--snr-db"),
        (["evaluate", "--metrics", "capacity", "--seed", "1", "--snr-db", "inf"], "--snr-db"),
        (["evaluate", "--metrics", "spatial-correlation", "--max-lag", "0"], "--max-lag"),
        (["evaluate", "--metrics", "spatial-correlation", "--max-lag", "-5"], "--max-lag"),
        (["evaluate", "--metrics", "capacity", "--seed", "1", "--snr-db", "4000"], "--snr-db"),
        (["compare", "--metrics", "capacity", "--seed", "1", "--snr-db", "3083"], "--snr-db"),
        (
            ["evaluate", "--metrics", "capacity", "--seed", "1",
             "--num-ues", "4", "--trials", "250001"],
            "--trials",
        ),
        # a dict stands for a --config file holding tiny_config(aaf=dict)
        (["generate-aaf", "--elements", "16", "--seed", "1", "--config",
          {"p_range": [0.2]}], "p_range"),
        (["synthesize", "--config", {"dcorr_range": [0.02, 0.05, 9]}], "dcorr_range"),
        (["generate-aaf", "--elements", "16", "--seed", "1", "--config",
          {"mu_p": True}], "mu_p"),
    ],
    ids=[
        "evaluate-seed", "generate-aaf-seed", "evaluate-trials", "compare-trials",
        "snr-nan", "snr-inf", "max-lag-zero", "max-lag-negative",
        "snr-overflow", "compare-snr-overflow", "trial-users-bound",
        "aaf-short-range", "aaf-long-range", "aaf-bool-number",
    ],
)
def test_bad_arguments_exit_2_before_writing(synthesized, tmp_path, capsys, argv, flag):
    nf, ff = synthesized
    channels = {"evaluate": [nf], "compare": [nf, ff]}.get(argv[0], [])
    for channel in channels:
        argv = argv + ["--channel", str(channel / "channel")]
    argv = [write_config(tmp_path, aaf=a) if isinstance(a, dict) else a for a in argv]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@st.composite
def argument_sets(draw, specs):
    """``--flag=value`` for every flag of ``specs`` (flag -> (valid, invalid)
    strategies), all valid or one drawn invalid; and whether all are valid."""
    bad = draw(st.sampled_from([None, *specs]))
    argv = [
        f"{flag}={draw(invalid if flag == bad else valid)!r}"
        for flag, (valid, invalid) in specs.items()
    ]
    return argv, bad is None


NOT_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
SEED = (st.integers(0, 2**64), st.integers(max_value=-1))
TRIAL_ARGS = {
    # the `synthesized` channels have four users
    "--num-ues": (st.integers(1, 4), st.integers(max_value=0) | st.integers(min_value=5)),
    "--trials": (
        st.integers(1, 4),
        st.integers(max_value=0) | st.integers(min_value=1_000_001),
    ),
    # 10 ** (3083 / 10) overflows a double
    "--snr-db": (
        st.floats(-1e4, 3000.0),
        NOT_FINITE | st.floats(min_value=3083.0, allow_infinity=False),
    ),
    "--max-lag": (st.integers(1, 10**6), st.integers(max_value=0)),
    "--seed": SEED,
}
AAF_ARGS = {
    "--elements": (st.integers(1, 64), st.integers(max_value=0)),
    "--sequences": (st.integers(1, 4), st.integers(max_value=0)),
    "--seed": SEED,
}
SHAPE = (
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.floats(max_value=0.0) | NOT_FINITE,
)
FIXED_ARGS = {"--p": SHAPE, "--q": SHAPE, "--dcorr": SHAPE}


@settings(max_examples=80, deadline=None)
@given(command=st.sampled_from(["evaluate", "compare"]), args=argument_sets(TRIAL_ARGS))
def test_trial_arguments_exit_0_or_2_without_writing(synthesized, command, args):
    """A valid argument set exits 0; an invalid value exits 2 and leaves
    --out absent."""
    import tempfile

    flags, valid = args
    channels = synthesized if command == "compare" else synthesized[:1]
    with tempfile.TemporaryDirectory() as tmp:
        out = f"{tmp}/out"
        argv = [command, "--metrics", "capacity,demmel,spatial-correlation"]
        for channel in channels:
            argv += ["--channel", str(channel / "channel")]
        assert main(argv + flags + ["--out", out]) == (0 if valid else 2)
        assert os.path.exists(out) == valid


@settings(max_examples=80, deadline=None)
@example(  # generate_aaf rejects it only after --out would be made
    args=(["--elements=8", "--sequences=1", "--seed=1"], True),
    fixed=(["--p=-1.0", "--q=1.0", "--dcorr=1.0"], False),
    num_fixed=3,
)
@example(  # every Beta draw is 1.0, a constant sequence without an ACF
    args=(["--elements=8", "--sequences=1", "--seed=1"], True),
    fixed=(["--p=10000000000.0", "--q=1e-10", "--dcorr=1.0"], True),
    num_fixed=3,
)
@given(
    args=argument_sets(AAF_ARGS),
    fixed=argument_sets(FIXED_ARGS),
    num_fixed=st.sampled_from([0, 1, 2, 3]),
)
def test_generate_aaf_arguments_exit_0_or_2_without_writing(args, fixed, num_fixed):
    """As above; --p, --q and --dcorr are valid only all together."""
    import tempfile

    flags, valid = args
    fixed_flags, fixed_valid = fixed
    valid = valid and (num_fixed == 0 or (num_fixed == 3 and fixed_valid))
    with tempfile.TemporaryDirectory() as tmp:
        out = f"{tmp}/out"
        argv = ["generate-aaf", *flags, *fixed_flags[:num_fixed], "--out", out]
        assert main(argv) == (0 if valid else 2)
        assert os.path.exists(out) == valid


class TestThreadEnv:
    def test_invalid_value_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("XLMIMO_NUM_THREADS", "zero")
        code = main(["scenario", "--preset", "freespace", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "XLMIMO_NUM_THREADS" in capsys.readouterr().err

    def test_apply_sets_backend_vars(self, monkeypatch):
        for var in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
        ):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "8")
        monkeypatch.setenv("XLMIMO_NUM_THREADS", "2")
        apply_thread_env()
        import os

        assert os.environ["OMP_NUM_THREADS"] == "8"  # existing setting wins
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
        assert os.environ["MKL_NUM_THREADS"] == "2"

    def test_apply_rejects_bad_values(self, monkeypatch):
        # "²" and "٣" are str.isdigit() digits but not ASCII decimals
        for value in ("0", "-3", "²", "٣"):
            monkeypatch.setenv("XLMIMO_NUM_THREADS", value)
            with pytest.raises(ConfigError):
                apply_thread_env()

    def test_unset_is_noop(self, monkeypatch):
        monkeypatch.delenv("XLMIMO_NUM_THREADS", raising=False)
        apply_thread_env()

    @pytest.mark.parametrize(
        "value", ["0", "abc", "²", "٣"], ids=["0", "abc", "superscript-2", "arabic-indic-3"]
    )
    def test_invalid_value_exits_2_from_a_fresh_process(self, tmp_path, value):
        # a fresh interpreter imports the package with the bad value set, as
        # `python -m xlmimo.cli` and the installed script do
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "xlmimo.cli", "scenario", "--preset", "freespace",
             "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "XLMIMO_NUM_THREADS": value},
        )
        assert proc.returncode == 2, proc.stderr
        assert "XLMIMO_NUM_THREADS" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_valid_value_set_before_numpy_loads(self):
        # the package root loads no numpy; these are the two routes that do
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["XLMIMO_NUM_THREADS"] = "3"
        for module in ("xlmimo.cli", "xlmimo.channel"):
            code = (
                "import os, sys, builtins\n"
                "real_import = builtins.__import__\n"
                "def guard(name, *args, **kwargs):\n"
                "    if name == 'numpy' or name.startswith('numpy.'):\n"
                "        assert os.environ.get('OPENBLAS_NUM_THREADS') == '3'\n"
                "    return real_import(name, *args, **kwargs)\n"
                "builtins.__import__ = guard\n"
                f"import {module}\n"
                "assert 'numpy' in sys.modules\n"
                "print(os.environ['OMP_NUM_THREADS'], os.environ['MKL_NUM_THREADS'])\n"
            )
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, (module, proc.stderr)
            assert proc.stdout.split() == ["3", "3"], module


_SCIPY_FREE_RUN = """
import sys
from xlmimo.cli import main

config, out = sys.argv[1:]
for variant in ("nf-sns", "vr"):
    argv = ["synthesize", "--config", config, "--variant", variant, "--seed", "1"]
    assert main(argv + ["--out", f"{out}/{variant}"]) == 0
assert main([
    "evaluate", "--channel", f"{out}/nf-sns/channel", "--channel", f"{out}/vr/channel",
    "--metrics", "capacity,demmel,gain,kfactor,delay-spread,spatial-correlation",
    "--num-ues", "2", "--trials", "8", "--seed", "1", "--max-lag", "3",
    "--out", f"{out}/eval",
]) == 0
print(",".join(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


_SCIPY_BLOCKED_RUN = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from xlmimo.cli import main

config, out = sys.argv[1:]
runs = {
    "scenario": ["scenario", "--config", config],
    "synthesize-nf": ["synthesize", "--config", config, "--variant", "nf-sns", "--seed", "1"],
    "synthesize-vr": ["synthesize", "--config", config, "--variant", "vr", "--seed", "1"],
    "generate-aaf": ["generate-aaf", "--elements", "50", "--sequences", "3", "--seed", "1"],
    "evaluate": [
        "evaluate", "--channel", f"{out}/synthesize-nf/channel",
        "--metrics", "capacity,demmel,gain,kfactor,delay-spread,spatial-correlation",
        "--num-ues", "2", "--trials", "4", "--seed", "1", "--max-lag", "3",
    ],
    "compare": [
        "compare", "--channel", f"{out}/synthesize-nf/channel",
        "--channel", f"{out}/synthesize-vr/channel", "--metrics", "capacity,gain",
        "--num-ues", "2", "--trials", "4", "--seed", "1",
    ],
}
for name, argv in runs.items():
    assert main(argv + ["--out", f"{out}/{name}"]) == 0, name
"""


class TestScipyFree:
    """No command loads scipy; the tests use it only as a reference."""

    def test_every_command_runs_with_scipy_blocked(self, tmp_path):
        sns_reflector = {
            "point": [0.0, 1.2, 0.0], "normal": [0.0, -1.0, 0.0],
            "loss_db": 7.0, "sns": True,
        }
        config = write_config(tmp_path, reflectors=[sns_reflector])
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-c", _SCIPY_BLOCKED_RUN, config, str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        fitted = [row["fitted_dcorr"] for row in read_rows(out / "generate-aaf" / "aaf_params.csv")]
        assert len(fitted) == 3 and all(0.0 < float(v) < 10.0 for v in fitted)
        assert (out / "compare" / "metrics_summary.csv").exists()

    def test_synthesize_and_evaluate_never_import_scipy(self, tmp_path):
        sns_reflector = {
            "point": [0.0, 1.2, 0.0], "normal": [0.0, -1.0, 0.0],
            "loss_db": 7.0, "sns": True,
        }
        config = write_config(tmp_path, reflectors=[sns_reflector])
        proc = subprocess.run(
            [sys.executable, "-c", _SCIPY_FREE_RUN, config, str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""
        aaf = np.loadtxt(tmp_path / "out" / "nf-sns" / "pathtable.csv",
                         delimiter=",", skiprows=1, usecols=4)
        assert np.any((aaf > 0.0) & (aaf < 1.0))  # the AAF generator ran

    def test_bare_import_does_not_load_scipy(self):
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "import sys, xlmimo; "
                "print(','.join(m for m in sys.modules if m.startswith('scipy')))",
            ],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""


class TestEntryPoint:
    def test_package_root_loads_no_submodule_or_numpy(self):
        # names are imported from their submodules; the root exports none
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "import sys, xlmimo; print(','.join(sorted(m for m in sys.modules "
                "if m.startswith('xlmimo') or m.split('.')[0] == 'numpy')))",
            ],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "xlmimo,xlmimo._threads,xlmimo.errors"

    def test_cli_import_defers_serialization_and_yaml(self):
        # the writers and their yaml import load with the first command
        # that needs them, not with the module
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "import sys, xlmimo.cli; print(','.join(sorted(m for m in sys.modules "
                "if m == 'xlmimo.serialization' or m.split('.')[0] in ('yaml', '_yaml'))))",
            ],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""

    def test_orjson_loads_with_the_first_command_not_the_import(self, tmp_path):
        # the cold import alone stays as cheap as before; the CSV formatter's
        # orjson loads once a command writes a table
        code = (
            "import sys, xlmimo, xlmimo.cli\n"
            "def loaded():\n"
            "    print(','.join(sorted(m for m in sys.modules if m in "
            "('orjson', 'xlmimo.serialization'))))\n"
            "loaded()\n"
            "argv = ['generate-aaf', '--elements', '5', '--sequences', '1', "
            "'--seed', '1', '--out', sys.argv[1]]\n"
            "assert xlmimo.cli.main(argv) == 0\n"
            "loaded()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "aaf")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == ["", "orjson,xlmimo.serialization", ""]

    def test_module_invocation(self, tmp_path):
        out = tmp_path / "out"
        proc = subprocess.run(
            [
                sys.executable, "-m", "xlmimo.cli",
                "scenario", "--preset", "freespace", "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "summary.json").exists()

    def test_missing_subcommand_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "xlmimo.cli"], capture_output=True, text=True
        )
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()


class TestCallTimeLookup:
    def test_commands_call_library_functions_through_their_modules(
        self, tmp_path, monkeypatch
    ):
        # a wrapper set on a module after xlmimo.cli is imported sees every
        # call: the CLI looks library functions up when it calls them
        from collections import Counter

        from xlmimo import channel, metrics, scenario, serialization, sns

        calls = Counter()

        def counting(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        targets = (
            (channel, "assemble"),
            (channel, "build_variant_aaf"),
            (channel, "path_table"),
            (scenario, "build_all_paths"),
            (sns, "generate_aaf"),
            (sns, "sample_aaf_params"),
            (metrics, "multiuser_trials"),
            (metrics, "avg_spatial_correlation"),
            (metrics, "path_gain_db"),
            (metrics, "rician_k_db"),
            (metrics, "rms_delay_spread"),
            (serialization, "write_table"),
        )
        for module, name in targets:
            key = f"{module.__name__}.{name}"
            monkeypatch.setattr(module, name, counting(getattr(module, name), key))
        sns_reflector = {
            "point": [0.0, 1.2, 0.0], "normal": [0.0, -1.0, 0.0],
            "loss_db": 7.0, "sns": True,
        }
        config = write_config(tmp_path, variant="nf-sns", reflectors=[sns_reflector])
        out = tmp_path / "syn"
        argv = ["synthesize", "--config", config, "--seed", "1", "--out", str(out)]
        assert main(argv) == 0
        assert main([
            "evaluate", "--channel", str(out / "channel"),
            "--metrics", "capacity,gain,kfactor,delay-spread,spatial-correlation",
            "--num-ues", "1", "--trials", "2", "--seed", "1", "--out", str(tmp_path / "ev"),
        ]) == 0
        expected = {f"{module.__name__}.{name}" for module, name in targets}
        assert set(calls) == expected, calls
        assert all(count > 0 for count in calls.values())


class TestReadmeLibraryExample:
    def test_runs_in_a_fresh_interpreter(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
            readme = fh.read()
        section = readme.split("## Library example", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
        )
        assert proc.returncode == 0, proc.stderr
        values = [float(v) for v in proc.stdout.split()]
        assert len(values) == 2 and all(np.isfinite(values)), proc.stdout
