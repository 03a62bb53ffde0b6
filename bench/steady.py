"""Run the benchmark over several seeds and summarise its spread.

    python3 bench/steady.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads W ...] [--out FILE]

Runs bench/run.py once per (workload, seed), one at a time, with the
run_seconds of BENCHMARK.json and tracing off. For every end-to-end metric
it prints the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median beside a third of the metric's bound. --out
writes the same summary as JSON; bench/BASELINE.json is such a file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run_once(workload, seed, seconds):
    """(result line, full record) of one untraced run."""
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=600,
    )
    with open(os.path.join(BENCH, ".results", f"{workload}-s{seed}-t0.json"), "r", encoding="utf-8") as fh:
        record = json.load(fh)
    return json.loads(done.stdout.strip().splitlines()[-1]), record


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description="Spread of the benchmark over seeds.")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out")
    args = parser.parse_args()

    summary = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs, records = zip(*(run_once(workload, seed, bench["run_seconds"]) for seed in args.seeds))
        summary["env"] = records[-1]["env"]
        failed = [r for r in runs if not r["correct"]]
        metrics = {}
        print(f"{workload}: {len(runs)} runs, {len(failed)} incorrect, "
              f"{sum(r['attempted'] for r in runs)} ops attempted, {sum(r['failed'] for r in runs)} failed")
        for spec in bench["end_to_end"]:
            name = spec["name"]
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = spec["unit"]
            metrics[name] = stats
            ok = stats["spread"] < spec["bound"] / 3
            steady = steady and ok and not failed
            print(f"  {name:<14}median {stats['median']:<12.6g}q1 {stats['q1']:<12.6g}q3 {stats['q3']:<12.6g}"
                  f"spread {stats['spread']:7.2%}  bound/3 {spec['bound'] / 3:6.2%}  {'ok' if ok else 'WIDE'}")
        summary["workloads"][workload] = {
            "shape": records[-1]["inputs"]["shape"],
            "input_bytes": [r["inputs"]["input_bytes"] for r in records],
            "failed_share": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    print("steady" if steady else "not steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
