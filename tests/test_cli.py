import csv
import os
import subprocess
import sys
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
from xlmimo.scenario import validate_config


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
        assert (direct / "pathtable.csv").read_bytes() == (staged / "pathtable.csv").read_bytes()

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
            "channel.bin", "channel.json", "pathtable.csv",
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


def streaming_config(tmp_path, variant, points):
    """Six users with three paths each (line of sight and two SnS
    reflections) on a 301-element array."""
    return write_config(
        tmp_path,
        variant=variant,
        seed=5,
        array={"num_elements": 301, "spacing_m": 0.0015},
        grid={"f_low_hz": 90.0e9, "f_high_hz": 110.0e9, "num_points": points},
        ues=[[0.1 * u - 0.25, 0.7 + 0.1 * u, 0.0] for u in range(6)],
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

    def test_peak_memory_is_pool_plus_one_user(self, tmp_path):
        import tracemalloc

        cfg_file = streaming_config(tmp_path, "nf-sns", points=1001)
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            assert main(["synthesize", "--config", cfg_file, "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        values = 301 * 1001
        pool = 6 * values * 8
        # Holding every user's complex128 response, or a user's (M, L, K)
        # weight tensor next to the finished responses, exceeds this.
        assert pool < peak < pool + 5 * values * 16

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

        # tiny_config: 2 users with one path each, 8 elements, 3 frequencies:
        # the complex64 pool, one complex128 response and four (8, 3)
        # complex128 block tables.
        pool_and_working_set = 2 * 8 * 3 * 8 + 16 * 8 * (3 + 4 * 3)
        columns = 9 * 8 * (8 * 2)
        argv = ["synthesize", "--config", write_config(tmp_path)]
        out = tmp_path / "out"
        monkeypatch.setattr(cli, "_MAX_SYNTH_BYTES", pool_and_working_set + columns - 1)
        assert main(argv + ["--out", str(out)]) == 2
        assert "16 path-table rows" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setattr(cli, "_MAX_SYNTH_BYTES", pool_and_working_set + columns)
        assert main(argv + ["--out", str(out)]) == 0


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

    def test_rerun_is_byte_identical(self, tmp_path):
        argv = ["generate-aaf", "--elements", "16", "--sequences", "3", "--seed", "9"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert (a / "aaf.csv").read_bytes() == (b / "aaf.csv").read_bytes()
        assert (a / "aaf_params.csv").read_bytes() == (b / "aaf_params.csv").read_bytes()

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
        import xlmimo.cli as cli

        calls = []
        original = cli._read_pathtable
        monkeypatch.setattr(
            cli, "_read_pathtable", lambda d: calls.append(d) or original(d)
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
        "metrics, loads, reads",
        [("gain,kfactor,delay-spread,spatial-correlation", 0, 0), ("demmel", 1, 1)],
    )
    def test_tensor_values_read_only_for_trials(
        self, synthesized, tmp_path, monkeypatch, metrics, loads, reads
    ):
        import xlmimo.serialization as serialization

        calls = {"read_channel": 0, "fromfile": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(serialization, "read_channel")
        counted(np, "fromfile")
        nf, _ = synthesized
        code = main(
            [
                "evaluate", "--channel", str(nf / "channel"),
                "--out", str(tmp_path / "o"), "--metrics", metrics,
                "--seed", "1", "--max-lag", "3",
            ]
        )
        assert code == 0
        # the 4-user channel is read in one call
        assert calls == {"read_channel": loads, "fromfile": reads}

    def test_truncated_channel_exits_2_without_trials(
        self, synthesized, tmp_path, capsys
    ):
        nf, _ = synthesized
        cut = tmp_path / "cut"
        cut.mkdir()
        for name in ("channel.json", "pathtable.csv"):
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
        import xlmimo.cli as cli

        nf, _ = synthesized
        tables = cli._read_pathtable(str(nf))
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
        dest.mkdir()
        for suffix in (".bin", ".json"):
            (dest / f"channel{suffix}").write_bytes(
                (nf / f"channel{suffix}").read_bytes()
            )
        header, *rows = (nf / "pathtable.csv").read_text().splitlines(keepends=True)
        (dest / "pathtable.csv").write_text(header + "".join(edit(rows)))

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
            lambda rows: rows[:5] + rows[6:],  # missing row
            lambda rows: rows + rows[-1:],  # duplicated row
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
        "column, value",
        [(5, "nan"), (6, "inf"), (4, "-0.5")],
        ids=["amplitude-nan", "delay-inf", "aaf-negative"],
    )
    def test_pathtable_bad_values_rejected(
        self, synthesized, tmp_path, capsys, column, value
    ):
        def edit(rows):
            cells = rows[3].rstrip("\n").split(",")
            cells[column] = value
            return rows[:3] + [",".join(cells) + "\n"] + rows[4:]

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
        assert "pathtable.csv" in err and "finite and >= 0" in err

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
            for i, row in enumerate(rows):
                cells = row.split(",")
                if cells[0] == "1" or (cells[0], cells[2]) in (("0", "0"), ("0", "3")):
                    cells[4] = "0.0"
                    rows[i] = ",".join(cells)
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
        for r in read_rows(tmp_path / "flat" / "pathtable.csv"):
            matrix = users.setdefault(int(r["ue"]), np.empty((301, 3)))
            matrix[int(r["element"]), int(r["path"])] = (
                float(r["aaf"]) * float(r["alpha_ref"])
            )
        lines = ["lag,value"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for lag in range(1, 101):
                values = [per_lag_correlation(users[u], lag) for u in sorted(users)]
                assert np.isnan(values[1]) and not np.isnan(values[0])
                lines.append(f"{lag},{float(np.nanmean(values))!r}")
        got = (out / "channel_nf-sns_spatial_correlation.csv").read_text()
        assert got == "\n".join(lines) + "\n"


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
        monkeypatch.setenv("XLMIMO_NUM_THREADS", "0")
        with pytest.raises(ConfigError):
            apply_thread_env()
        monkeypatch.setenv("XLMIMO_NUM_THREADS", "-3")
        with pytest.raises(ConfigError):
            apply_thread_env()

    def test_unset_is_noop(self, monkeypatch):
        monkeypatch.delenv("XLMIMO_NUM_THREADS", raising=False)
        apply_thread_env()

    @pytest.mark.parametrize("value", ["0", "abc"])
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
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["XLMIMO_NUM_THREADS"] = "3"
        code = (
            "import os, sys, builtins\n"
            "real_import = builtins.__import__\n"
            "def guard(name, *args, **kwargs):\n"
            "    if name == 'numpy' or name.startswith('numpy.'):\n"
            "        assert os.environ.get('OPENBLAS_NUM_THREADS') == '3'\n"
            "    return real_import(name, *args, **kwargs)\n"
            "builtins.__import__ = guard\n"
            "import xlmimo\n"
            "assert 'numpy' in sys.modules\n"
            "print(os.environ['OMP_NUM_THREADS'], os.environ['MKL_NUM_THREADS'])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["3", "3"]


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
