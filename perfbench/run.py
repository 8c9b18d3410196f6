"""Run one workload of the commitfsm benchmark and print its metrics.

    python3 perfbench/run.py --workload family --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the program is imported from ./src, not
from any installed copy.  With --trace 0 the last line of standard output
is a JSON object holding the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of the traced run, whose spans are also written to
perfbench/out/spans-<workload>.bin.  Lines before it give the same figures,
and the workload's own named figures, for a reader.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("small_op_ms", "ms"),
    ("large_op_ms", "ms"),
    ("ops_per_s", "1/s"),
)
WORKLOADS = ("family", "sweep", "codegen")
EXIT_NO_PROGRAM = 2


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> bool:
    """Import commitfsm from this checkout's src directory, and nowhere else."""
    if not (SRC / "commitfsm" / "__init__.py").is_file():
        print(f"error: no commitfsm sources under {SRC}", file=sys.stderr)
        return False
    sys.path[:0] = [str(SRC), str(ROOT)]
    import commitfsm

    if Path(commitfsm.__file__).resolve().parent != SRC / "commitfsm":
        print(f"error: commitfsm was imported from {commitfsm.__file__}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = _parse(argv)
    if not _import_program():
        return EXIT_NO_PROGRAM
    from perfbench import layers, workloads

    if args.trace:
        result = layers.run(args.workload, args.seed, args.seconds, ROOT / "perfbench" / "out")
        units = layers.UNITS
    else:
        result = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
        units = dict(END_TO_END)
    checks = result["checks"]
    for name, value, unit, samples in result["report"]:
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={samples})")
    for name, value in result["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} fail_ratio = {checks.failed}/{checks.attempted}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
