"""citenoise benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload analyze_json --seed 1 --seconds 10 --trace 0

Steps, each in its own process so that no step's state leaks into another's
measurement:

1. gen.py writes the workload's inputs from the seed, cached under
   bench/.cache by (workload, seed, generator version);
2. worker.py runs the op in a loop for --seconds and records op times,
   peak RSS and output digests; with --trace 0 a fresh interpreter times
   ``import citenoise, citenoise.cli`` twice after each op (setup_s is their
   median), with --trace 1 ops alternate untraced and traced and the
   worker records per-layer spans;
3. checks.py verifies the first op's output against the benchmark's own
   reference; later ops must have produced byte-identical output.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
metrics' names and units are those listed in BENCHMARK.json. The full
record, with environment and input shapes, goes to
bench/.results/<workload>-s<seed>-t<trace>.json.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(BENCH, ".cache")
WORK = os.path.join(BENCH, ".work")
RESULTS = os.path.join(BENCH, ".results")

# Numerical libraries must not start thread pools: runs are single-threaded.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Cached input sets kept per workload; older ones are removed.
CACHE_KEEP = 3
GEN_TIMEOUT = 120
WORKER_TIMEOUT = 150

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.update({var: "1" for var in THREAD_VARS})
    return env


def load_inputs(workload, seed):
    """Cached input directory of (workload, seed), generated if missing."""
    from gen import GEN_VERSION

    path = os.path.join(CACHE, f"{workload}-s{seed}-g{GEN_VERSION}")
    meta_path = os.path.join(path, "inputs.json")
    gen_s = None
    if not os.path.exists(meta_path):
        tmp = path + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.join(BENCH, "gen.py"), "--workload", workload,
             "--seed", str(seed), "--dir", tmp],
            env=child_env(), cwd=ROOT, check=True, timeout=GEN_TIMEOUT,
        )
        gen_s = time.perf_counter() - start
        shutil.rmtree(path, ignore_errors=True)
        os.replace(tmp, path)
    os.utime(path)
    stale = sorted(
        (p for p in glob.glob(os.path.join(CACHE, f"{workload}-s*-g*")) if not p.endswith(".tmp")),
        key=os.path.getmtime,
    )[:-CACHE_KEEP]
    for old in stale:
        shutil.rmtree(old, ignore_errors=True)
    with open(meta_path, "r", encoding="utf-8") as fh:
        return path, json.load(fh), gen_s


def environment():
    import numpy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "citenoise", "*.py"))):
        with open(path, "rb") as fh:
            src_hash.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def run_worker(workload, inputs, seconds, trace):
    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result_path = os.path.join(work, "worker.json")
    subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
         "--inputs", inputs, "--work", work, "--seconds", str(seconds),
         "--trace", str(trace), "--result", result_path],
        env=child_env(), cwd=ROOT, check=True, timeout=WORKER_TIMEOUT, stdout=sys.stderr,
    )
    with open(result_path, "r", encoding="utf-8") as fh:
        return work, json.load(fh)


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main():
    from gen import WORKLOADS

    parser = argparse.ArgumentParser(description="Run one citenoise benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the op loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "citenoise", "__init__.py")):
        sys.exit(f"error: no citenoise sources under {SRC}")

    import checks

    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        specs = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    inputs, meta, gen_s = load_inputs(args.workload, args.seed)
    work, res = run_worker(args.workload, inputs, args.seconds, args.trace)

    problems = []
    if not res["first_op_failed"]:
        problems = checks.check_first_op(
            args.workload, inputs, os.path.join(work, "first"), res["first_warnings"]
        )
    # A wrong first output makes every op that reproduced it wrong as well.
    failed = res["attempted"] if res["first_op_failed"] or problems else res["later_failed"]
    op_s = res["op_s"]
    values = {
        "op_s_p50": statistics.median(op_s),
        "cells_per_s": meta["cells"] * len(op_s) / sum(op_s),
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "setup_s": None if args.trace else statistics.median(res["setup_s"]),
    }
    reported = res["per_layer"] if args.trace else values
    metrics = {m["name"]: {"value": reported[m["name"]], "unit": m["unit"]} for m in specs}

    env = environment()
    shape = " ".join(f"{k}={v}" for k, v in meta["shape"].items())
    origin = f"generated in {gen_s:.1f} s" if gen_s is not None else "cached"
    print(f"citenoise benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={fmt(args.seconds)}")
    print(f"inputs   {shape} cells={meta['cells']} input_bytes={meta['input_bytes']} ({origin})")
    print(f"env      python {env['python']} numpy {env['numpy']} nproc {env['nproc']} "
          f"threads pinned to 1 ({', '.join(THREAD_VARS)}) commit {env['commit']} "
          f"src sha256 {env['src_sha256'][:12]}")
    for line in res["failures"] + problems:
        print(f"FAILED   {line}")
    if not problems and not res["first_op_failed"]:
        print(f"check    first op matches the reference; "
              f"{res['attempted'] - 1 - res['later_failed']} later ops byte-identical")
    print(f"{'op_s_p50':<14}{fmt(values['op_s_p50']):>14} s        ({len(op_s)} untraced ops; "
          f"first op {res['first_op_s']:.3f} s)")
    print(f"{'cells_per_s':<14}{fmt(values['cells_per_s']):>14} cells/s")
    print(f"{'peak_rss_mb':<14}{fmt(values['peak_rss_mb']):>14} MiB      (after the first op; "
          f"{res['loop_peak_rss_kb'] / 1024.0:.1f} MiB after the loop)")
    if not args.trace:
        print(f"{'setup_s':<14}{fmt(values['setup_s']):>14} s        "
              f"(median of {len(res['setup_s'])} fresh imports, two after each op)")
    print(f"{'failed_share':<14}{fmt(failed / res['attempted']):>14} ratio    "
          f"({failed} of {res['attempted']} ops)")
    if args.trace:
        traced = res["traced_op_s"]
        mean_traced = sum(traced) / len(traced)
        print(f"per-layer, per traced op ({len(traced)} traced ops, mean {mean_traced:.4f} s):")
        for name, unit in [(m["name"], m["unit"]) for m in specs] + [("trace.overhead_s", "s")]:
            value = res["per_layer"][name]
            share = f"{value / mean_traced:7.1%} of op" if unit == "s" and not name.startswith(("op.", "trace.")) else ""
            print(f"  {name:<38}{fmt(value):>14} {unit:<8}{share}")

    os.makedirs(RESULTS, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        "inputs": meta,
        "gen_s": gen_s,
        "tolerances": checks.TOLERANCES,
        "problems": problems,
        "failures": res["failures"],
        "e2e": values,
        "worker": res,
    }
    with open(os.path.join(RESULTS, f"{args.workload}-s{args.seed}-t{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"], "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
