"""Run a workload once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload sweep --runs 10 --seconds 25

The spread is the distance between the first and third quartile of the
runs' values (statistics.quantiles, n=4) as a share of their median; for
an end-to-end metric it is printed beside a third of the metric's bound
from BENCHMARK.json.  Runs are made one after another, each in its own
process; every result line is kept in perfbench/out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        results.append({"seed": seed, **result, "report": lines[:-1]})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}",
              flush=True)
    out = ROOT / "perfbench" / "out" / f"spread-{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
        share = (q3 - q1) / median if median else 0.0
        limit = f"  bound/3 {bounds[name] / 3:.4f}" if name in bounds else ""
        flag = "  WIDE" if name in bounds and name != "setup_s" and share >= bounds[name] / 3 else ""
        print(f"{name:32s} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {share:.4f}{limit}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
