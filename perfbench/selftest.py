"""Self-test of the benchmark's checks and of its in-process runner.

Usage: python3 perfbench/selftest.py   (from the repository root)

1. Synthesizes a small case3-like scenario (M=64, K=33, 16 users) and the
   case4 preset with the CLI in a fresh process, and evaluates the small
   one with all six metrics.
2. Runs the same calls in this process through ``xlmimo.cli.main``, first
   as the benchmark worker runs them and then traced, and requires
   byte-identical output files.
3. Requires every check to pass on the clean outputs, then plants one wrong
   sample in each kind of output and requires the matching check to reject
   it.

Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from run import pinned_env  # noqa: E402

ENV, _ = pinned_env()
os.environ.clear()
os.environ.update(ENV)
sys.path.insert(0, os.path.join(ROOT, "src"))

import xlmimo.cli  # noqa: E402  (applies the thread setting before numpy loads)
import numpy as np  # noqa: E402

import yaml  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import Tracer, run_op  # noqa: E402


def small_config():
    cfg = workloads.wide_config()
    cfg["name"] = "selftest-small"
    cfg["array"]["num_elements"] = 64
    cfg["grid"]["num_points"] = 33
    return cfg


def calls_in(workdir, tag):
    """The synthesize and evaluate calls, writing under ``workdir/tag``."""
    base = os.path.join(workdir, tag)
    small = workloads.synthesize_call(os.path.join(base, "small"), 7, os.path.join(workdir, "small.yaml"))
    case4 = workloads.synthesize_call(os.path.join(base, "case4"), 8, "case4")
    # Every evaluate reads the fresh-process channel, so outputs compare byte for byte.
    fixture = os.path.join(workdir, "cli", "small")
    evaluate = workloads.evaluate_call(fixture, os.path.join(base, "eval"), 9, workloads.ALL_METRICS)
    return [small, case4, evaluate]


def digest_tree(directory):
    out = {}
    for dirpath, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def edit_csv(path, match, column, change):
    """Apply ``change`` to ``column`` of the first data row for which ``match(fields)``."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    col = header.index(column)
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if match(fields):
            fields[col] = repr(change(float(fields[col])))
            lines[i] = ",".join(fields)
            break
    else:
        raise LookupError(f"{path}: no matching row")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def drop_last_row(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")


def plant_channel(directory):
    values, _ = checks.read_channel(directory)
    values = values.copy()
    values[3, 10, 5] *= 1 + 1e-5
    values.tofile(os.path.join(directory, "channel.bin"))


def shuffle_aaf_column(directory):
    """Replace ue 0's first generated column by a fixed shuffle of itself."""
    path = os.path.join(directory, "pathtable.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = [i for i, line in enumerate(lines[1:], start=1) if line.startswith("0,1,")]
    fields = [lines[i].split(",") for i in rows]
    order = np.random.default_rng(0).permutation(len(rows))
    for i, src in zip(rows, order):
        f = lines[i].split(",")
        f[4] = fields[src][4]
        lines[i] = ",".join(f)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def aaf_check(directory):
    with open(os.path.join(directory, "scenario.yaml")) as fh:
        cfg = yaml.safe_load(fh)
    checks.check_aaf(cfg, checks.read_pathtable(directory))


def output_file(directory, suffix):
    """An evaluate output named ``<label>_<suffix>``."""
    with open(os.path.join(directory, "meta.json")) as fh:
        label = json.load(fh)["channels"][0]
    return os.path.join(directory, f"{label}_{suffix}")


def row(index):
    return lambda fields: fields[0] == str(index)


def plants(synth, evald):
    """(kind, directory to copy, how to plant, check that must reject it).

    ``synth`` is the small scenario's synthesize output, which ``evald``
    evaluated.
    """
    table = "pathtable.csv"

    def in_eval(metric, kind="samples"):
        return lambda d: output_file(d, f"{metric.replace('-', '_')}_{kind}.csv")

    corr = lambda d: output_file(d, "spatial_correlation.csv")  # noqa: E731

    return [
        ("channel sample", synth, plant_channel, checks.check_synthesize),
        ("pathtable amplitude", synth,
         lambda d: edit_csv(os.path.join(d, table), lambda f: f[:3] == ["2", "1", "30"], "amplitude", lambda v: v * 1.001),
         checks.check_synthesize),
        ("stationary AAF", synth,
         lambda d: edit_csv(os.path.join(d, table), lambda f: f[:3] == ["1", "0", "7"], "aaf", lambda v: 0.999),
         aaf_check),
        ("generated AAF range", synth,
         lambda d: edit_csv(os.path.join(d, table), lambda f: f[:3] == ["1", "2", "7"], "aaf", lambda v: 1.5),
         aaf_check),
        ("generated AAF correlation", synth, shuffle_aaf_column, aaf_check),
        ("capacity sample", evald,
         lambda d: edit_csv(in_eval("capacity")(d), row(0), "value", lambda v: v * (1 + 1e-6)),
         lambda d: checks.check_trials(synth, d, 9)),
        ("demmel sample (exact)", evald,
         lambda d: edit_csv(in_eval("demmel")(d), row(1), "value", lambda v: v * 1.001),
         lambda d: checks.check_trials(synth, d, 9)),
        ("demmel sample (bound)", evald,
         lambda d: edit_csv(in_eval("demmel")(d), row(workloads.TRIALS - 1), "value", lambda v: 1.0),
         lambda d: checks.check_trials(synth, d, 9)),
        ("gain sample", evald,
         lambda d: edit_csv(in_eval("gain")(d), row(100), "value", lambda v: v + 0.01),
         lambda d: checks.check_path_metrics(synth, d, ["gain"])),
        ("kfactor sample", evald,
         lambda d: edit_csv(in_eval("kfactor")(d), row(200), "value", lambda v: v + 0.01),
         lambda d: checks.check_path_metrics(synth, d, ["kfactor"])),
        ("delay-spread sample", evald,
         lambda d: edit_csv(in_eval("delay-spread")(d), row(300), "value", lambda v: v * 1.01),
         lambda d: checks.check_path_metrics(synth, d, ["delay-spread"])),
        ("CDF row", evald,
         lambda d: edit_csv(in_eval("gain", "cdf")(d), lambda f: True, "probability", lambda v: v * 1.5),
         lambda d: checks.check_cdf(d, "gain")),
        ("spatial-correlation value", evald,
         lambda d: edit_csv(corr(d), row(5), "value", lambda v: v + 1e-6),
         lambda d: checks.check_spatial_correlation(synth, d)),
        ("spatial-correlation range", evald,
         lambda d: edit_csv(corr(d), row(6), "value", lambda v: 1.5),
         lambda d: checks.check_spatial_correlation(synth, d)),
        ("spatial-correlation lags", evald,
         lambda d: drop_last_row(corr(d)),
         lambda d: checks.check_spatial_correlation(synth, d)),
    ]


def main() -> int:
    workdir = os.path.join(HERE, ".runs", f"selftest-p{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    failures = []
    try:
        workloads.write_config(os.path.join(workdir, "small.yaml"), small_config())
        for call in calls_in(workdir, "cli"):
            subprocess.run(
                [sys.executable, "-m", "xlmimo.cli", *call["argv"]],
                env=ENV, cwd=ROOT, check=True, timeout=120,
            )
        tracer = Tracer()
        for tag, op_tracer in (("worker", None), ("traced", tracer)):
            if op_tracer:
                op_tracer.install()
            ok, _, _ = run_op(xlmimo.cli.main, calls_in(workdir, tag), op_tracer)
            if not ok:
                failures.append(f"{tag} op failed")
        reference = digest_tree(os.path.join(workdir, "cli"))
        for tag in ("worker", "traced"):
            same = digest_tree(os.path.join(workdir, tag)) == reference
            print(f"{tag:>6} outputs byte-identical to a fresh CLI process: {same}")
            if not same:
                failures.append(f"{tag} outputs differ from the CLI's")

        for call in calls_in(workdir, "cli"):
            try:
                checks.check_call(call)
                print(f"clean {call['kind']} {os.path.basename(call['out'])}: all checks pass")
            except checks.CheckFailed as exc:
                failures.append(f"clean output rejected: {exc}")

        cli = os.path.join(workdir, "cli")
        for i, (kind, source, plant, check) in enumerate(
            plants(os.path.join(cli, "small"), os.path.join(cli, "eval"))
        ):
            copy = os.path.join(workdir, "planted", str(i))
            shutil.copytree(source, copy)
            plant(copy)
            try:
                check(copy)
            except checks.CheckFailed as exc:
                print(f"planted {kind:<28} rejected: {exc}")
            else:
                print(f"planted {kind:<28} NOT rejected")
                failures.append(f"planted {kind} not rejected")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
