"""The traced run: per-layer metrics of each workload and the cost of tracing.

A traced run repeats a fixed unit of the workload's work in pairs, first
untraced and then traced, until the measuring time is used up.  The traced
half records a span around every call into a layer (see tracer.py); the
untraced half is the baseline for the tracing overhead.  Counts must repeat
exactly from one unit to the next, which is itself checked; times are the
median over the units.  Work done once in set-up (the machines of sweep and
codegen) is traced once and added to every unit.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from collections import defaultdict
from pathlib import Path

from . import workloads as wl
from .tracer import Tracer

# Layers of the generation pipeline: reported for all the work of a unit,
# and again for the one generation of each row in SUFFIXES.
GENERATION = (
    ("bft.rule_calls", "count", "lower"),
    ("bft.rules_s", "s", "lower"),
    ("bft.annotate_calls", "count", "lower"),
    ("bft.annotate_s", "s", "lower"),
    ("engine.enumerate_s", "s", "lower"),
    ("engine.states_enumerated", "count", "lower"),
    ("engine.transitions_s", "s", "lower"),
    ("engine.prune_s", "s", "lower"),
    ("engine.states_pruned", "count", "lower"),
    ("engine.prune_yield", "ratio", "higher"),
    ("engine.merge_s", "s", "lower"),
    ("engine.merge_passes", "count", "lower"),
    ("engine.merge_yield", "ratio", "higher"),
    ("engine.reprune_s", "s", "lower"),
    ("engine.states_final", "count", "lower"),
    ("fsm.validate_s", "s", "lower"),
    ("fsm.serialize_s", "s", "lower"),
    ("fsm.doc_bytes", "bytes", "lower"),
    ("py.gc_s", "s", "lower"),
    ("py.gc_collections.gen0", "count", "lower"),
    ("py.gc_collections.gen1", "count", "lower"),
    ("py.gc_collections.gen2", "count", "lower"),
)
SUFFIXES = ("r4", "r46")
RUNTIME = (
    ("fsm.step_calls", "count", "lower"),
    ("fsm.step_s", "s", "lower"),
    ("fsm.deserialize_s", "s", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.self_s", "s", "lower"),
    ("sim.check_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("render.source_s", "s", "lower"),
    ("render.text_s", "s", "lower"),
    ("render.dot_s", "s", "lower"),
    ("module.load_s", "s", "lower"),
    ("module.steps", "count", "lower"),
    ("module.step_s", "s", "lower"),
    ("module.bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)
PER_LAYER = (
    GENERATION
    + tuple((f"{name}.{sfx}", unit, better) for sfx in SUFFIXES for name, unit, better in GENERATION)
    + RUNTIME
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}

# span name -> (metric counting its calls, metric of its total time, metric of its self time)
SPAN_METRICS = {
    "bft.rule": ("bft.rule_calls", "bft.rules_s", None),
    "bft.annotate": ("bft.annotate_calls", "bft.annotate_s", None),
    "engine.enumerate_states": (None, "engine.enumerate_s", None),
    "engine.generate_transitions": (None, None, "engine.transitions_s"),
    "engine.prune_unreachable": (None, "engine.prune_s", None),
    "engine.merge_equivalent_once": (None, "engine.merge_s", None),
    "engine.prune_unreachable.reprune": (None, "engine.reprune_s", None),
    "fsm.validate": (None, "fsm.validate_s", None),
    "fsm.serialize": (None, "fsm.serialize_s", None),
    "fsm.deserialize": (None, "fsm.deserialize_s", None),
    "fsm.step": (None, "fsm.step_s", None),
    "sim.run_simulation": (None, "sim.run_s", None),
    "sim.check_agreement": (None, "sim.check_s", None),
    "sim.check_quorum_safety": (None, "sim.check_s", None),
    "render.render_source": (None, "render.source_s", None),
    "render.render_text": (None, "render.text_s", None),
    "render.render_dot": (None, "render.dot_s", None),
    "module.load": (None, "module.load_s", None),
    "op.drive": (None, "module.step_s", None),
}
# tracer counter -> metric
COUNT_METRICS = {
    "states_enumerated": "engine.states_enumerated",
    "states_pruned": "engine.states_pruned",
    "states_final": "engine.states_final",
    "merge_passes": "engine.merge_passes",
    "merge_signatures": "merge_signatures",
    "merge_retired": "merge_retired",
    "doc_bytes": "fsm.doc_bytes",
    "step_calls": "fsm.step_calls",
    "events": "sim.events",
    "module_steps": "module.steps",
    "module_bytes": "module.bytes",
    "gc_s": "py.gc_s",
    "gc0": "py.gc_collections.gen0",
    "gc1": "py.gc_collections.gen1",
    "gc2": "py.gc_collections.gen2",
}


def raw_metrics(groups) -> dict[str, float]:
    """Additive metrics summed over the given per-label groups of Tracer.per_label."""
    raw: dict[str, float] = defaultdict(float)
    for group in groups:
        for span, entry in group["spans"].items():
            calls, total, own = SPAN_METRICS.get(span, (None, None, None))
            if calls:
                raw[calls] += entry["calls"]
            if total:
                raw[total] += entry["total_s"]
            if own:
                raw[own] += entry["self_s"]
        for key, value in group["counts"].items():
            raw[COUNT_METRICS[key]] += value
    return raw


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def derive(raw: dict[str, float]) -> dict[str, float]:
    out = dict(raw)
    out["engine.prune_yield"] = _ratio(raw["engine.states_pruned"], raw["engine.states_enumerated"])
    out["engine.merge_yield"] = _ratio(raw["merge_retired"], raw["merge_signatures"])
    out["sim.self_s"] = raw["sim.run_s"] - raw["fsm.step_s"]
    out["sim.events_per_s"] = _ratio(raw["sim.events"], raw["sim.run_s"])
    return out


def unit_metrics(groups: dict[str, dict]) -> dict[str, float]:
    total = derive(raw_metrics(groups.values()))
    metrics = {name: total.get(name, 0.0) for name, _, _ in GENERATION + RUNTIME
               if not name.startswith("trace.")}
    for sfx in SUFFIXES:
        row = derive(raw_metrics([groups[sfx]] if sfx in groups else []))
        for name, _, _ in GENERATION:
            metrics[f"{name}.{sfx}"] = row.get(name, 0.0)
    return metrics


def combine(checks: wl.Checks, units: list[dict[str, float]]) -> dict[str, float]:
    """Times: the median over units.  Counts and ratios of counts: must repeat exactly."""
    out = {}
    for name in units[0]:
        values = [u[name] for u in units]
        if UNITS[name] in ("s", "1/s"):
            out[name] = statistics.median(values)
        else:
            checks.expect(len(set(values)) == 1, f"{name} differs between traced units: {values}")
            out[name] = values[0]
    return out


def _busy(times) -> float:
    return sum(t for t in times if t is not None)


def traced_pairs(checks: wl.Checks, tracer: Tracer, unit, setup_groups, seconds: float):
    """Run unit untraced and traced, in alternating order, until seconds are used.

    Returns the per-layer metrics and report lines of the traced units.
    """
    units = []
    pairs = []
    start = time.perf_counter()
    while True:
        if len(pairs) % 2:
            mark = tracer.mark
            traced = _busy(unit(tracer))
            plain = _busy(unit(None))
        else:
            plain = _busy(unit(None))
            mark = tracer.mark
            traced = _busy(unit(tracer))
        groups = dict(setup_groups)
        unit_groups = tracer.per_label(mark)
        groups.update(unit_groups)
        metrics = unit_metrics(groups)
        metrics["trace.spans"] = sum(
            entry["calls"] for group in unit_groups.values() for entry in group["spans"].values()
        )
        units.append(metrics)
        pairs.append((traced, plain))
        if time.perf_counter() - start >= seconds:
            break
    metrics = combine(checks, units)
    metrics["trace.overhead_s"] = statistics.median(t - p for t, p in pairs)
    metrics["trace.overhead_ratio"] = statistics.median(_ratio(t, p) - 1 for t, p in pairs)
    report = [
        ("traced_unit_s", statistics.median(t for t, _ in pairs), "s", len(pairs)),
        ("untraced_unit_s", statistics.median(p for _, p in pairs), "s", len(pairs)),
    ]
    return metrics, report


def family(checks: wl.Checks, tracer: Tracer, rng: random.Random, seconds: float):
    wl.warm_up()
    order = list(wl.ROWS)
    rng.shuffle(order)

    def unit(tr):
        return [wl.family_op(checks, r, tr) for r in order]

    return traced_pairs(checks, tracer, unit, {}, seconds)


def sweep(checks: wl.Checks, tracer: Tracer, rng: random.Random, seconds: float):
    configs = wl.sweep_inputs(rng, rng.randrange(2**31), wl.SWEEP_SEEDS_PER_CELL)
    mark = tracer.mark
    gc.collect()
    machines = {}
    for r in wl.SWEEP_ROWS:
        machine, *document = wl.generate_traced(tracer, r)
        wl.check_document(checks, r, *document)
        machines[r] = machine
    setup_groups = tracer.per_label(mark)

    outcomes: dict[int, tuple] = {}

    def unit(tr):
        gc.collect()
        times = []
        for i, config in enumerate(configs):
            out = wl.sweep_op(checks, machines[config.replication_factor], config, tr, outcomes.get(i))
            if out is not None:
                times.append(out[0])
                outcomes.setdefault(i, out[1])
        return times

    return traced_pairs(checks, tracer, unit, setup_groups, seconds)


def codegen(checks: wl.Checks, tracer: Tracer, rng: random.Random, seconds: float):
    sequence_seed = rng.randrange(2**31)
    mark = tracer.mark
    gc.collect()
    reference, *document = wl.generate_traced(tracer, wl.CODEGEN_ROW)
    wl.check_document(checks, wl.CODEGEN_ROW, *document)
    doc = document[-1]
    document = None
    setup_groups = tracer.per_label(mark)

    def unit(tr):
        loads: list[float] = []
        drives: list[float] = []
        wl.codegen_round(checks, reference, doc, sequence_seed, loads, drives, tr)
        return loads + drives

    return traced_pairs(checks, tracer, unit, setup_groups, seconds)


TRACED = {"family": family, "sweep": sweep, "codegen": codegen}


def run(workload: str, seed: int, seconds: float, out_dir: Path) -> dict:
    checks = wl.Checks()
    tracer = Tracer()
    with tracer.gc_accounting():
        metrics, report = TRACED[workload](checks, tracer, random.Random(seed), seconds)
    tracer.write(out_dir / f"spans-{workload}.bin")
    return {"checks": checks, "metrics": metrics, "report": report}
