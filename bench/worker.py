"""Measuring process: one workload's op in a loop, in a fresh interpreter.

    python3 bench/worker.py --workload W --inputs DIR --work DIR \
        --seconds S --trace 0|1 --result FILE

The first op writes into WORK/first and is left for run.py to check
against its reference; every later op writes into WORK/out and must
produce byte-identical files. With --trace 0 a fresh interpreter times
``import citenoise, citenoise.cli`` twice after each op, so that setup time is
sampled over the same stretch of time as the ops. With --trace 1 ops
alternate untraced and traced, so both medians come from the same stretch of
time. The measuring process imports nothing from the generator.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings

import tracing

# citenoise must come from the src/ next to the benchmark's directory.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# At least this many measured ops per kind, however slow the op.
MIN_OPS = 3
# Fresh-interpreter imports after each untraced op; setup_s is their median.
SETUP_PROBES_PER_OP = 2
SETUP_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import citenoise, citenoise.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


class OpFailed(Exception):
    pass


def _cli(cli, argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run_cli(argv)
    if code != 0:
        raise OpFailed(f"{argv[0]} exited {code}: {err.getvalue().strip()}")


def make_op(workload, inputs, meta):
    """(op(out_dir) -> None, paths of the input files one op reads)."""
    import citenoise.cli
    import citenoise.simulate

    cli = citenoise.cli

    def path(name):
        return os.path.join(inputs, name)

    if workload == "analyze_json":
        def op(out):
            _cli(cli, ["analyze", "--input", path("system.json"), "--format", "json",
                       "--out", os.path.join(out, "report.json")])
        return op, [path("system.json")]

    if workload == "analyze_csv":
        def op(out):
            _cli(cli, ["analyze", "--input", path("realized.csv"), path("accurate.csv"),
                       "--format", "table", "--out", os.path.join(out, "report.txt")])
        return op, [path("realized.csv"), path("accurate.csv")]

    if workload == "simulate_retest":
        config = path("config.json")
        trials = meta["shape"]["trials"]

        def op(out):
            _cli(cli, ["simulate", "--config", config, "--out", os.path.join(out, "system.json"),
                       "--latent", os.path.join(out, "latent.json")])
            _cli(cli, ["retest", "--config", config, "--out", os.path.join(out, "retest.json")])
            # bias_recovery has no subcommand: call it as a library user would.
            with open(config, "r", encoding="utf-8") as fh:
                cfg = citenoise.simulate.GenerativeConfig(**json.load(fh))
            expected, measured = citenoise.simulate.bias_recovery(cfg, trials)
            with open(os.path.join(out, "bias_recovery.json"), "w", encoding="utf-8") as fh:
                json.dump({"expected": expected, "measured": measured}, fh)
        return op, [config] * 3

    if workload == "omissions":
        def op(out):
            _cli(cli, ["omissions", "--sim", path("sim.json"), "--citations", path("cites.json"),
                       "--k", str(meta["shape"]["k"]), "--out", os.path.join(out, "flags.json")])
        return op, [path("sim.json"), path("cites.json")]

    raise ValueError(f"unknown workload {workload!r}")


def run_op(op, out):
    """Run one op into a fresh ``out``; return (seconds, UserWarnings, error)."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    gc.collect()
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            op(out)
        except Exception as exc:  # any failure of the program counts against the op
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, sum(issubclass(w.category, UserWarning) for w in caught), error


def setup_probe():
    """Seconds a fresh interpreter takes to import citenoise and citenoise.cli."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE], check=True, capture_output=True, text=True, timeout=60,
    )
    return float(done.stdout.strip())


def digest(out):
    """SHA-256 of every output file, by name."""
    result = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            result[name] = hashlib.sha256(fh.read()).hexdigest()
    return result


def layer_metrics(spans, n_ops, untraced_p50, traced_p50, bytes_read, bytes_written):
    """Every per-layer metric of the traced ops, per op."""
    stats = tracing.summarize(spans, n_ops)

    def get(name, key):
        return stats.get(name, {}).get(key, 0.0)

    def count(name, key):
        return stats.get(name, {}).get("counts", {}).get(key, 0.0)

    analyze_s = get("metrics.analyze", "s")
    values = {
        "cli.run_cli.s": get("cli.run_cli", "s"),
        "cli.run_cli.self_s": get("cli.run_cli", "self_s"),
        "io.load_system.s": get("io.load_system", "s"),
        "io.load_system.self_s": get("io.load_system", "self_s"),
        "io.load_system_csv.s": get("io.load_system_csv", "s"),
        "io.load_system_csv.self_s": get("io.load_system_csv", "self_s"),
        "io.dump_json.s": get("io.dump_json", "s"),
        "io.report_to_document.s": get("io.report_to_document", "s"),
        "io.report_to_table.s": get("io.report_to_table", "s"),
        "io.system_to_document.s": get("io.system_to_document", "s"),
        "io.bytes_read": bytes_read,
        "io.bytes_written": bytes_written,
        "model.build_system.s": get("model.build_system", "s"),
        "model.build_system.calls": get("model.build_system", "calls"),
        "model.build_system.cells": count("model.build_system", "cells"),
        "metrics.analyze.s": analyze_s,
        "metrics.analyze.cells_per_s": count("metrics.analyze", "cells") / analyze_s if analyze_s else 0.0,
        "simulate.generate_system.s": get("simulate.generate_system", "s"),
        "simulate.replicate_decisions.s": get("simulate.replicate_decisions", "s"),
        "simulate.decompose_pattern_noise.s": get("simulate.decompose_pattern_noise", "s"),
        "simulate.bias_recovery.s": get("simulate.bias_recovery", "s"),
        "simulate.bias_recovery.build_share": tracing.nested_share(
            spans, "simulate.bias_recovery", "model.build_system"
        ),
        "audit.build_similarity.s": get("audit.build_similarity", "s"),
        "audit.omission_indicator.s": get("audit.omission_indicator", "s"),
        "audit.omission_indicator.pairs": count("audit.omission_indicator", "pairs"),
        "audit.omission_indicator.flagged": count("audit.omission_indicator", "flagged"),
        "audit.omission_indicator.warnings": count("audit.omission_indicator", "warnings"),
        "op.untraced_s_p50": untraced_p50,
        "op.traced_s_p50": traced_p50,
        "trace.overhead_s": traced_p50 - untraced_p50,
        "trace.spans": len(spans) / n_ops,
    }
    return values, stats


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    import citenoise

    src = os.path.realpath(SRC)
    if os.path.commonpath([os.path.realpath(citenoise.__file__), src]) != src:
        sys.exit(f"citenoise imported from {citenoise.__file__}, not from {src}")

    with open(os.path.join(args.inputs, "inputs.json"), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    op, reads = make_op(args.workload, args.inputs, meta)
    first, out = os.path.join(args.work, "first"), os.path.join(args.work, "out")

    first_s, first_warnings, first_error = run_op(op, first)
    # Peak RSS of one op in a fresh process, as a CLI user runs it. The peak
    # over the whole loop is not used: from the second op on, glibc's
    # dynamic mmap threshold may keep freed blocks resident, and whether it
    # does changes from run to run of the same code and input.
    first_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures = [f"op 0: {first_error}"] if first_error else []
    reference = digest(first)

    tracer = tracing.Tracer() if args.trace else None
    times = {False: [], True: []}
    setup_s = []
    n_failed = 0
    loop_start = time.perf_counter()
    i = 0
    while (
        time.perf_counter() - loop_start < args.seconds
        or len(times[False]) < MIN_OPS
        or (tracer and len(times[True]) < MIN_OPS)
    ):
        i += 1
        traced = bool(tracer) and i % 2 == 0
        if traced:
            tracer.op = i
            tracer.install()
        try:
            elapsed, n_warnings, error = run_op(op, out)
        finally:
            if traced:
                tracer.uninstall()
        times[traced].append(elapsed)
        if error is None and digest(out) != reference:
            error = "output differs from the first op's"
        if error is None and n_warnings != first_warnings:
            error = f"{n_warnings} warnings, first op had {first_warnings}"
        if error:
            n_failed += 1
            failures.append(f"op {i}: {error}")
        if not tracer:
            setup_s.extend(setup_probe() for _ in range(SETUP_PROBES_PER_OP))

    result = {
        "first_op_s": first_s,
        "first_op_failed": first_error is not None,
        "first_warnings": first_warnings,
        "op_s": times[False],
        "setup_s": setup_s,
        "attempted": 1 + i,
        "later_failed": n_failed,
        "failures": failures[:20],
        "peak_rss_kb": first_rss_kb,
        "loop_peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "output_sha256": reference,
    }
    if tracer:
        bytes_read = sum(os.path.getsize(p) for p in reads)
        bytes_written = sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
        values, stats = layer_metrics(
            tracer.spans, len(times[True]), statistics.median(times[False]),
            statistics.median(times[True]), bytes_read, bytes_written,
        )
        result.update(traced_op_s=times[True], per_layer=values, layers=stats)
        with open(os.path.join(args.work, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump([s.to_dict() for s in tracer.spans], fh)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)


if __name__ == "__main__":
    main()
