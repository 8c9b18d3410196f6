"""Command line front end: generate machines, render artefacts, run simulations,
and benchmark generation across the family.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import bft, render, sim
from .fsm import DocumentError, deserialize, serialize, validate

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_SIM_FAIL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commitfsm",
        description="Generate, render and simulate replicated-commit protocol state machines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a machine document")
    gen.add_argument("-r", "--replication-factor", type=int, required=True)
    gen.add_argument("-o", "--output", required=True)

    ren = sub.add_parser("render", help="render a machine document as an artefact")
    ren.add_argument("-i", "--input", required=True)
    ren.add_argument("--format", choices=render.FORMATS, required=True)
    ren.add_argument("-o", "--output", required=True)
    ren.add_argument("--module-name", default="commit_machine")
    ren.add_argument("--no-annotations", action="store_true")

    simp = sub.add_parser("simulate", help="run seeded fault-injection simulations")
    simp.add_argument("-r", "--replication-factor", type=int, required=True)
    simp.add_argument("--scenario", choices=sim.SCENARIOS, default=sim.SINGLE_UPDATE)
    simp.add_argument("--silent", type=int, default=0)
    simp.add_argument("--crash", type=int, default=0)
    simp.add_argument("--byzantine", type=int, default=0)
    simp.add_argument("--seeds", type=int, default=1)
    simp.add_argument("--seed", type=int, default=0, help="base seed; run i uses seed+i")
    simp.add_argument("--delivery", choices=sim.DELIVERY_MODES, default=sim.FIFO_PER_LINK)
    simp.add_argument("--trace-dir", help="write every trace into this directory")

    ben = sub.add_parser("bench", help="state counts and generation times per fault tolerance")
    ben.add_argument("--f", default="1,2,4,8,15", help="comma-separated fault tolerances")
    return parser


def _write(path: Path, text: str) -> bool:
    """Write text to path as UTF-8; on failure print one error line and return False."""
    try:
        path.write_bytes(text.encode("utf-8"))
    except (OSError, UnicodeEncodeError) as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_generate(args) -> int:
    machine, stats = bft.generate_with_stats(args.replication_factor)
    diags = validate(machine)
    if diags:
        for d in diags:
            print(f"error: {d}", file=sys.stderr)
        return EXIT_FAILURE
    if not _write(Path(args.output), serialize(machine)):
        return EXIT_FAILURE
    print(stats.csv_row())
    return EXIT_OK


def _cmd_render(args) -> int:
    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    try:
        machine = deserialize(text)
    except DocumentError as exc:
        print(f"error: invalid machine document: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    diags = validate(machine)
    if diags:
        for d in diags:
            print(f"error: {d}", file=sys.stderr)
        return EXIT_FAILURE
    annotate = not args.no_annotations
    try:
        if args.format == render.TEXT:
            artefact = render.render_text(machine, annotate)
        elif args.format == render.DOT:
            artefact = render.render_dot(machine)
        else:
            artefact = render.render_source(machine, args.module_name, annotate)
    except render.SourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    if not _write(Path(args.output), artefact):
        return EXIT_FAILURE
    return EXIT_OK


# Each fault flag and the kind of node it adds; nodes are numbered in this order.
_FAULT_FLAGS = (("silent", sim.SILENT), ("crash", sim.CRASH), ("byzantine", sim.BYZANTINE))


def _fault_plan(args) -> tuple[tuple[sim.Fault, ...], str]:
    """The fault plan the flags ask for, and its CSV label such as "silent=1|crash=2"."""
    counts = [(flag, kind, getattr(args, flag)) for flag, kind in _FAULT_FLAGS]
    kinds = [kind for _, kind, count in counts for _ in range(count)]
    label = "|".join(f"{flag}={count}" for flag, _, count in counts if count)
    return tuple(sim.Fault(node, kind) for node, kind in enumerate(kinds)), label or "none"


def _cmd_simulate(args) -> int:
    r = args.replication_factor
    if min(args.silent, args.crash, args.byzantine, args.seeds) < 0:
        print("error: fault counts and --seeds must be non-negative", file=sys.stderr)
        return EXIT_USAGE
    faults, label = _fault_plan(args)
    base = sim.SimConfig(
        replication_factor=r, seed=args.seed, scenario=args.scenario,
        faults=faults, delivery=args.delivery,
    )
    machine = bft.generate(r)
    trace_dir = Path(args.trace_dir) if args.trace_dir else None
    if trace_dir:
        try:
            trace_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot create trace directory {trace_dir}: {exc}", file=sys.stderr)
            return EXIT_FAILURE
    first_failure = None
    stall_lines: list[str] = []
    for seed in range(args.seed, args.seed + args.seeds):
        config = replace(base, seed=seed)
        trace = sim.run_simulation(machine, config)
        verdict = sim.check_agreement(trace, config)
        print(f"{args.scenario},{r},{label},{seed},{verdict}")
        # with --trace-dir every trace is kept, without it the first failing one
        path = (trace_dir or Path()) / f"trace-{args.scenario}-r{r}-seed{seed}.txt"
        first = not verdict.ok and first_failure is None
        if (trace_dir or first) and not _write(path, trace.serialize()):
            return EXIT_FAILURE
        if first:
            first_failure = path
            stall_lines = sim.stall_report(trace, config)
    if first_failure is not None:
        print(f"first failing trace: {first_failure}", file=sys.stderr)
        for line in stall_lines:
            print(f"  {line}", file=sys.stderr)
        return EXIT_SIM_FAIL
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        fs = [int(part) for part in args.f.split(",") if part.strip()]
    except ValueError:
        print(f"error: --f expects comma-separated integers, got {args.f!r}", file=sys.stderr)
        return EXIT_USAGE
    if not fs or any(f < 1 for f in fs):
        print("error: every fault tolerance must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    print("f,r,initial,final,seconds")
    for f in fs:
        r = 3 * f + 1
        _, stats = bft.generate_with_stats(r)
        seconds = float(f"{stats.millis / 1000:.2g}")
        print(f"{f},{r},{stats.initial},{stats.final},{seconds:g}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handlers = {
        "generate": _cmd_generate,
        "render": _cmd_render,
        "simulate": _cmd_simulate,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except (bft.ParameterError, sim.ConfigError, render.OptionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
