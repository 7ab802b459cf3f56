"""xlmimo benchmark: CLI workloads timed end to end, and per layer when traced.

Usage:
    python3 perfbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]

NAME is one of the workloads in workloads.py, or ``all`` to run each in
turn.  Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics (setup_s, op_p50_s, cpu_per_op_s, peak_rss_mb); with
``--trace 1`` it holds the per-layer metrics instead.  Every op's output is
checked against an independent recomputation (checks.py).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

# Fresh interpreters per run for setup_s and for the import-time breakdown.
COLD_STARTS = 3
IMPORT_TRACES = 3
TIME_LIMIT_S = 170.0

_BACKEND_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

SPAN_LAYERS = (
    "cli.self",
    "scenario.validate_config",
    "scenario.build_all_paths",
    "nearfield.expand_path",
    "nearfield.nf_path_matrix",
    "nearfield.build_a_tensor",
    "sns.sample_aaf_params",
    "sns.generate_aaf",
    "channel.build_variant_aaf",
    "channel.assemble",
    "channel.path_table",
    "channel.multi_user",
    "serialization.write_channel",
    "serialization.write_table",
    "serialization.read_channel",
    "metrics.multiuser_trials",
    "metrics.path_metrics",
    "metrics.avg_spatial_correlation",
)
COUNTERS = (
    ("nearfield.weight_bytes", "bytes"),
    ("sns.generate_aaf_calls", "count"),
    ("serialization.table_rows", "count"),
    ("serialization.bytes_written", "bytes"),
    ("metrics.trials", "count"),
    ("metrics.avg_spatial_correlation_calls", "count"),
)
IMPORT_GROUPS = (("import.numpy_s", "numpy"), ("import.scipy_s", "scipy"), ("import.xlmimo_self_s", "xlmimo"))


def pinned_env():
    """The environment for every program process: threads pinned, src importable."""
    nproc = len(os.sched_getaffinity(0))
    env = {k: v for k, v in os.environ.items() if k not in _BACKEND_VARS}
    env["XLMIMO_NUM_THREADS"] = str(min(2, nproc))
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env, nproc


def cold_start(env) -> float:
    """Wall time of a fresh interpreter that imports xlmimo.cli."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import xlmimo.cli"],
        env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=60,
    )
    return time.perf_counter() - start


def import_breakdown(env) -> dict:
    """Self import time in seconds of numpy, scipy and xlmimo modules."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import xlmimo.cli"],
        env=env, cwd=ROOT, check=True, capture_output=True, text=True, timeout=60,
    )
    totals = {metric: 0.0 for metric, _ in IMPORT_GROUPS}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
        if not m:
            continue
        for metric, package in IMPORT_GROUPS:
            if m.group(2) == package or m.group(2).startswith(package + "."):
                totals[metric] += int(m.group(1)) * 1e-6
    return totals


def check_outputs(calls) -> bool:
    ok = True
    for call in calls:
        try:
            checks.check_call(call)
        except (checks.CheckFailed, ValueError, KeyError, OSError) as exc:
            ok = False
            print(f"check failed for {call['argv'][:3]}: {exc}", file=sys.stderr)
    return ok


def ask(proc, command) -> dict:
    proc.stdin.write(command + "\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"worker exited during {command!r}")
    return json.loads(line)


def run_workload(name, seed, seconds, trace):
    """Measure one workload; returns the result object printed as the last line.

    Cold starts (or import traces) and output checks run between the timed
    ops, while the worker waits, so the samples spread over the whole run.
    """
    began = time.perf_counter()
    env, nproc = pinned_env()
    workdir = os.path.join(HERE, ".runs", f"{name}-s{seed}-p{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    sample = (lambda: import_breakdown(env)) if trace else (lambda: cold_start(env))
    wanted = IMPORT_TRACES if trace else COLD_STARTS
    samples, records, correct = [], [], True
    try:
        workloads.prepare(workdir)
        fixture = workloads.fixture(name, seed, workdir)
        if fixture:
            argv = [sys.executable, "-m", "xlmimo.cli", *fixture["argv"]]
            if subprocess.run(argv, env=env, cwd=ROOT, timeout=120, stdout=subprocess.DEVNULL).returncode:
                raise RuntimeError(f"fixture synthesis failed: {fixture['argv']}")
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), name, str(seed), str(int(trace)), workdir],
            env=env, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        watchdog = threading.Timer(TIME_LIMIT_S - (time.perf_counter() - began), proc.kill)
        watchdog.start()
        try:
            if proc.stdout.readline().strip() != "ready":
                raise RuntimeError("worker failed to start")
            while not records or sum(r["wall_s"] for r in records) < seconds:
                if len(samples) < wanted:
                    samples.append(sample())
                index = len(records)
                records.append(ask(proc, f"op {index}"))
                if records[-1]["ok"]:
                    correct = check_outputs(workloads.op_calls(name, seed, index, workdir)) and correct
                shutil.rmtree(os.path.join(workdir, "ops"), ignore_errors=True)
            while len(samples) < wanted:
                samples.append(sample())
            result = ask(proc, "end")
            proc.wait(timeout=30)
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [r["wall_s"] for r in records]
    n = len(records)
    print(
        f"{name}: seed {seed}, {n} ops, {time.perf_counter() - began:.1f} s in all, "
        f"XLMIMO_NUM_THREADS={env['XLMIMO_NUM_THREADS']} (nproc {nproc}), "
        f"{'traced' if trace else 'untraced'} op_p50_s {statistics.median(walls):.4f}"
    )
    print("op wall times (s): " + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    if trace:
        metrics = {}
        for layer in SPAN_LAYERS:
            metrics[f"{layer}_s"] = {"value": result["self_s"].get(layer, 0.0) / n, "unit": "s"}
        for counter, unit in COUNTERS:
            metrics[counter] = {"value": result["counts"].get(counter, 0.0) / n, "unit": unit}
        for metric, _ in IMPORT_GROUPS:
            metrics[metric] = {"value": statistics.median(s[metric] for s in samples), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(samples), "unit": "s"},
            "op_p50_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_per_op_s": {"value": sum(r["cpu_s"] for r in records) / n, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "correct": correct,
        "attempted": n,
        "failed": sum(not r["ok"] for r in records),
        "metrics": metrics,
    }


def report(name, out):
    print(f"{name}: attempted {out['attempted']}, failed {out['failed']}, correct {out['correct']}")
    for metric, m in sorted(out["metrics"].items()):
        print(f"  {metric:<40} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=9.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "xlmimo", "cli.py")):
        print(f"error: no xlmimo sources under {ROOT}/src", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(name, results[name])
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": m for name, r in results.items() for metric, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
