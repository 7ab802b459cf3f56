"""Workload definitions: configs, fixtures and the CLI calls of one op.

An op is one or more ``xlmimo`` CLI calls, each an argv list for
``xlmimo.cli.main``; synth-presets' op synthesizes its three presets in
turn, so the op's median covers all three.  Each op gets its own seeds,
derived from the workload seed, so no op can reuse an in-process cache entry
that a fresh CLI process would not have.
"""

from __future__ import annotations

import hashlib
import math
import os

import yaml

WORKLOADS = ("synth-presets", "synth-wide", "evaluate-case3", "evaluate-wide-paths")

PRESETS = ("case1-concrete", "case3", "case4")

# evaluate settings, passed explicitly so CLI default changes do not move them.
NUM_UES = 4
TRIALS = 24
SNR_DB = 15.0
MAX_LAG = 100
ALL_METRICS = ("capacity", "demmel", "gain", "kfactor", "delay-spread", "spatial-correlation")
PATH_METRICS = ("gain", "kfactor", "delay-spread", "spatial-correlation")

# The case3 preset's user line: 50 degrees from the array axis, from 1.5 m out.
_CASE3_AZIMUTH = 0.8726646259971648
WIDE_USERS = 16
WIDE_ELEMENTS = 2048
WIDE_POINTS = 201


def derive_seed(*parts) -> int:
    """A 32-bit seed that depends only on ``parts``."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "little")


def wide_config() -> dict:
    """case3 scaled to M=2048 elements, 16 users on its radial line, K=201."""
    direction = (math.cos(_CASE3_AZIMUTH), math.sin(_CASE3_AZIMUTH))
    offsets = [5.8 * i / (WIDE_USERS - 1) for i in range(WIDE_USERS)]
    ues = [[(1.5 + o) * direction[0], (1.5 + o) * direction[1], 0.0] for o in offsets]
    return {
        "format_version": 1,
        "name": "case3-wide",
        "seed": 1,
        "variant": "nf-sns",
        "array": {
            "num_elements": WIDE_ELEMENTS,
            "spacing_m": 1.364e-3,
            "axis": [1.0, 0.0, 0.0],
            "origin": [0.0, 0.0, 0.0],
            "reference_index": 0,
        },
        "grid": {"f_low_hz": 90.0e9, "f_high_hz": 110.0e9, "num_points": WIDE_POINTS},
        "patterns": {
            "tx": {"kind": "omnidirectional", "gain_dbi": 5.0},
            "rx": {"kind": "omnidirectional", "gain_dbi": 5.0},
        },
        "ues": ues,
        "los": {"enabled": True, "sns": False},
        "reflectors": [
            {
                "point": [-1.0, 0.0, 0.0],
                "normal": [1.0, 0.0, 0.0],
                "loss_db": 12.0,
                "phase_rad": 0.0,
                "sns": True,
            },
            {
                "point": [0.0, 6.05, 0.0],
                "normal": [0.0, -1.0, 0.0],
                "loss_db": 12.0,
                "phase_rad": 0.0,
                "sns": True,
            },
        ],
        "scatterers": [],
        "aaf": {},
    }


def write_config(path: str, config: dict) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(config, fh, sort_keys=True)


def prepare(workdir: str) -> None:
    """Write the config files the ops read."""
    write_config(os.path.join(workdir, "wide.yaml"), wide_config())


def synthesize_call(out, seed, source):
    """A synthesize call; ``source`` is a preset name or a YAML config path."""
    config = ["--config", source] if source.endswith(".yaml") else ["--preset", source]
    return {
        "kind": "synthesize",
        "seed": seed,
        "out": out,
        "argv": ["synthesize", *config, "--seed", str(seed), "--out", out],
    }


def evaluate_call(fixture_dir, out, seed, metrics):
    """An evaluate call on the channel that ``fixture_dir`` holds."""
    return {
        "kind": "evaluate",
        "seed": seed,
        "out": out,
        "fixture": fixture_dir,
        "metrics": list(metrics),
        "argv": [
            "evaluate",
            "--channel", os.path.join(fixture_dir, "channel"),
            "--metrics", ",".join(metrics),
            "--num-ues", str(NUM_UES),
            "--trials", str(TRIALS),
            "--snr-db", repr(SNR_DB),
            "--max-lag", str(MAX_LAG),
            "--seed", str(seed),
            "--out", out,
        ],
    }


def fixture(workload: str, seed: int, workdir: str):
    """The synthesize op whose output an evaluate workload reads, or None."""
    out = os.path.join(workdir, "fixture")
    fseed = derive_seed(workload, seed, "fixture")
    if workload == "evaluate-case3":
        return synthesize_call(out, fseed, "case3")
    if workload == "evaluate-wide-paths":
        return synthesize_call(out, fseed, os.path.join(workdir, "wide.yaml"))
    return None


def op_calls(workload: str, seed: int, index, workdir: str) -> list:
    """The CLI calls of op ``index`` (an int, or "warmup" for the untimed op)."""
    def out(name):
        return os.path.join(workdir, "ops", f"{index}-{name}")

    def op_seed(name):
        return derive_seed(workload, seed, index, name)

    fixture_dir = os.path.join(workdir, "fixture")
    if workload == "synth-presets":
        return [synthesize_call(out(p), op_seed(p), p) for p in PRESETS]
    if workload == "synth-wide":
        wide = os.path.join(workdir, "wide.yaml")
        return [synthesize_call(out("wide"), op_seed("wide"), wide)]
    if workload == "evaluate-case3":
        return [evaluate_call(fixture_dir, out("eval"), op_seed("eval"), ALL_METRICS)]
    if workload == "evaluate-wide-paths":
        return [evaluate_call(fixture_dir, out("eval"), op_seed("eval"), PATH_METRICS)]
    raise ValueError(f"unknown workload {workload!r}")
