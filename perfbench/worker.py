"""Run one workload's ops, one at a time, through ``xlmimo.cli.main``.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE WORKDIR

Runs one untimed warm-up op and prints ``ready``.  Then reads commands on
stdin: ``op N`` runs op N and prints its result as one JSON line (ok, wall
and CPU time); ``end`` prints the process's peak RSS and, with TRACE=1,
the per-layer totals, and exits.  The harness decides when to stop, so it
can do its own work between ops.  The thread setting comes from the
environment the harness sets up.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import resource
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import op_calls  # noqa: E402

# (module, attribute, layer name): each function is patched where its
# caller looks it up, so nested calls are seen too.
TRACED = (
    ("scenario", "validate_config", "scenario.validate_config"),
    ("scenario", "build_all_paths", "scenario.build_all_paths"),
    ("nearfield", "expand_path", "nearfield.expand_path"),
    ("channel", "expand_path", "nearfield.expand_path"),
    ("nearfield", "nf_path_matrix", "nearfield.nf_path_matrix"),
    ("channel", "build_a_tensor", "nearfield.build_a_tensor"),
    ("sns", "sample_aaf_params", "sns.sample_aaf_params"),
    ("sns", "generate_aaf", "sns.generate_aaf"),
    ("channel", "build_variant_aaf", "channel.build_variant_aaf"),
    ("channel", "assemble", "channel.assemble"),
    ("channel", "path_table", "channel.path_table"),
    ("channel", "multi_user", "channel.multi_user"),
    ("serialization", "write_channel", "serialization.write_channel"),
    ("serialization", "write_table", "serialization.write_table"),
    ("serialization", "read_channel", "serialization.read_channel"),
    ("metrics", "multiuser_trials", "metrics.multiuser_trials"),
    ("metrics", "path_gain_db", "metrics.path_metrics"),
    ("metrics", "rician_k_db", "metrics.path_metrics"),
    ("metrics", "rms_delay_spread", "metrics.path_metrics"),
    ("metrics", "avg_spatial_correlation", "metrics.avg_spatial_correlation"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _weight_bytes(a, k):
    paths, geometry = _arg(a, k, 0, "paths"), _arg(a, k, 1, "geometry")
    frequencies = _arg(a, k, 4, "frequencies")
    return {"nearfield.weight_bytes": geometry.num_elements * len(paths) * len(frequencies) * 16}


def _file_bytes(*paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


# Counters taken from a call's arguments before it runs, or after it returns.
BEFORE = {
    "nearfield.build_a_tensor": _weight_bytes,
    "sns.generate_aaf": lambda a, k: {"sns.generate_aaf_calls": 1},
    "metrics.avg_spatial_correlation": lambda a, k: {"metrics.avg_spatial_correlation_calls": 1},
    "metrics.multiuser_trials": lambda a, k: {"metrics.trials": int(_arg(a, k, 2, "num_trials"))},
    "serialization.write_table": lambda a, k: {"serialization.table_rows": len(_arg(a, k, 2, "rows"))},
}
AFTER = {
    "serialization.write_table": lambda a, k: {
        "serialization.bytes_written": _file_bytes(_arg(a, k, 0, "path"))
    },
    "serialization.write_channel": lambda a, k: {
        "serialization.bytes_written": _file_bytes(
            f"{_arg(a, k, 0, 'basepath')}.bin", f"{_arg(a, k, 0, 'basepath')}.json"
        )
    },
}


class Tracer:
    """Self time per layer: a call's wall time minus its traced children's."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []

    def _count(self, table, name, args, kwargs):
        if name in table:
            for key, value in table[name](args, kwargs).items():
                self.counts[key] += value

    def span(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count(BEFORE, name, args, kwargs)
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] += elapsed - self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
                self._count(AFTER, name, args, kwargs)

        return traced

    def install(self):
        wrapped = {}  # one wrapper per function, however many names it has
        for module, attr, name in TRACED:
            mod = importlib.import_module(f"xlmimo.{module}")
            original = getattr(mod, attr)
            if original not in wrapped:
                wrapped[original] = self.span(name, original)
            setattr(mod, attr, wrapped[original])

    def reset(self):
        self.self_s.clear()
        self.counts.clear()


def run_op(main, calls, tracer):
    """The CLI calls of one op; returns (ok, wall_s, cpu_s)."""
    main = tracer.span("cli.self", main) if tracer else main
    ok = True
    start, cpu = time.perf_counter(), time.process_time()
    for call in calls:
        try:
            ok = main(call["argv"]) == 0 and ok
        except Exception as exc:  # a crashing call fails its op, the loop goes on
            print(f"{call['argv'][:3]} raised {exc!r}", file=sys.stderr)
            ok = False
    return ok, time.perf_counter() - start, time.process_time() - cpu


def main(argv):
    workload, seed, trace, workdir = argv
    seed, trace = int(seed), trace == "1"
    from xlmimo.cli import main as cli_main

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    protocol = sys.stdout
    # Anything the program prints goes to stderr, keeping stdout for replies.
    with contextlib.redirect_stdout(sys.stderr):
        run_op(cli_main, op_calls(workload, seed, "warmup", workdir), tracer)
        if tracer:
            tracer.reset()
        print("ready", file=protocol, flush=True)
        for line in sys.stdin:
            command = line.split()
            if command[0] == "op":
                calls = op_calls(workload, seed, int(command[1]), workdir)
                ok, wall, cpu = run_op(cli_main, calls, tracer)
                reply = {"ok": ok, "wall_s": wall, "cpu_s": cpu}
            else:
                reply = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
                if tracer:
                    reply["self_s"] = dict(tracer.self_s)
                    reply["counts"] = dict(tracer.counts)
            print(json.dumps(reply), file=protocol, flush=True)
            if command[0] == "end":
                break
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
