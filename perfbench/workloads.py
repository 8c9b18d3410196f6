"""The benchmark's three workloads, each a closed loop in one process.

One operation runs at a time and the next starts when it returns; every
operation starts from a collected heap (``gc.collect()`` first, collector
left on; for the millisecond runs of the sweep, every pass of them), so
collection counts repeat and a full collection falls in the same place on
every run.  Outputs are checked outside the timed region; a
failed check or an operation that raises is counted and the run goes on.

- ``family``: the ``commitfsm generate`` path (``bft.generate_with_stats``,
  ``fsm.validate``, ``fsm.serialize``) for every paper-table row.
- ``sweep``: the fault-injection matrix of acceptance criterion 7 for
  r in {4, 7, 13}, one ``sim.run_simulation`` plus its checks per run.
- ``codegen``: the ``commitfsm render`` path for the r = 46 document, then
  the generated module driven with seeded message sequences.

Each workload has an untraced form, which gives the end-to-end metrics, and
a traced form, which repeats a fixed unit of work with spans around every
call into a layer and gives the per-layer metrics.
"""

from __future__ import annotations

import gc
import hashlib
import random
import resource
import statistics
import sys
import time
import traceback
import types
from contextlib import nullcontext

from commitfsm import bft, engine, fsm, render, sim

from .speed import COMPILE_REFERENCE_S, Speed, compile_probe
from .tracer import Tracer

ROWS = (4, 7, 13, 25, 46)

# Recorded from the serialized documents of this commit.  r: (enumerated,
# pruned, final including FINISH, merge passes, SHA-256 of the document).
TABLE = {
    4: (512, 48, 33, 6, "d9366ab1bab739f4a6dd16dbf50b74a77ad6bfd9c460f77cb731b0c660526f4f"),
    7: (1568, 126, 85, 10, "1bd6119e8d97f96a63c2da5ed13b372a8650aa8bde8e02ff2d18d5ea030e2695"),
    13: (5408, 390, 261, 18, "57061341380f3b6a10425d0da7e24b45cc4fe63b0166af3560daa3d9b20aa28a"),
    25: (20000, 1350, 901, 34, "7df481bbe130787523a7a10e1c38cb7ac8bacc6b7964ba93e306cd6d0205955b"),
    46: (67712, 4416, 2945, 62, "d46ce164cdfabaaea6ba191e02b65ddb6f889236d4c67205d9d866c993f5362e"),
}

# How often each row runs in one pass of the family loop: enough samples of
# the cheap rows for a steady median, one of the 4 s row.
FAMILY_REPEATS = {4: 16, 7: 8, 13: 4, 25: 6, 46: 1}

SWEEP_ROWS = (4, 7, 13)
SWEEP_SEEDS_PER_CELL = 100
# Cells of the matrix the sweep leaves out, as (scenario, fault kind,
# delivery).  Concurrent updates with crash faults under random_interleave
# end FAIL(safety) on a few seeds in a thousand at r = 4 and r = 7: correct
# nodes finish the two updates in different orders.  That is a defect of the
# program, not of the benchmark (reproduce it with ``commitfsm simulate -r 4
# --scenario concurrent_updates --crash 1 --delivery random_interleave
# --seed 125``); a benchmark's workload must not fail, so the cell stays out
# until the defect is fixed.  Every other cell passed 1,000 seeds per row.
SWEEP_EXCLUDED = {(sim.CONCURRENT_UPDATES, sim.CRASH, sim.RANDOM_INTERLEAVE)}
# Total events of the reference sweep (seeds 0 .. 29 per cell, faulty nodes
# 0 .. f-1, as in acceptance criterion 7), recorded at this commit.
SWEEP_REFERENCE_SEEDS = 30
SWEEP_REFERENCE_EVENTS = 119811

CODEGEN_ROW = 46
CODEGEN_SEQUENCES = 1000
CODEGEN_MAX_LENGTH = 40
MODULE_NAME = "commit_machine"
MODULE_BYTES = 3674447

# Set-ups per run, for the median set-up time: fewer for the 4 s one of codegen.
SETUP_REPEATS = {"family": 5, "sweep": 5, "codegen": 3}
# Rows of the family whose generations give ops_per_s, and the row of
# large_op_ms.  r = 46 is generated, checked and printed but not bounded:
# its 4 s generations vary with the host's memory system more than any
# probe or median over a run's few samples can steady.
FAMILY_RATE_ROWS = (4, 7, 13, 25)
FAMILY_LARGE_ROW = 25
# Probe the host's speed before every this many sweep runs or module sequences.
RUNS_PER_PROBE = 150


class Checks:
    """Counts output checks; a failure is reported on stderr, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 20:
                print(f"check failed: {what}", file=sys.stderr)
        return ok

    def call(self, what: str, fn, *args):
        """fn(*args), or None when it raises; a raise counts as a failed check."""
        try:
            return fn(*args)
        except Exception:
            self.attempted += 1
            self.failed += 1
            if self.failed <= 20:
                print(f"check failed: {what} raised", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def median_setup(speed: Speed, setup, repeats: int) -> tuple[float, object]:
    """Run setup from a collected heap, repeats times; median scaled seconds, last result."""
    seconds = []
    result = None
    for _ in range(repeats):
        result = None
        gc.collect()
        speed.calibrate()
        t0 = time.perf_counter()
        result = setup()
        seconds.append(speed.tag(time.perf_counter() - t0))
    speed.calibrate()
    return statistics.median(speed.scaled(seconds)), result


def end_to_end(setup_s: float, small_s: float, large_s: float, ops_per_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "small_op_ms": small_s * 1e3,
        "large_op_ms": large_s * 1e3,
        "ops_per_s": ops_per_s,
    }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def p99(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=100)[98]


_NO_SPAN = nullcontext()


def no_span(name: str):
    """Stands in for Tracer.span in the untraced run."""
    return _NO_SPAN


# --- generation (family, and the set-up of sweep and codegen) ---------------

def generate_document(r: int):
    """The ``commitfsm generate`` path: (machine, counts, diagnostics, document)."""
    machine, stats = bft.generate_with_stats(r)
    diags = fsm.validate(machine)
    counts = (stats.initial, stats.after_prune, stats.final, stats.passes)
    return machine, counts, diags, fsm.serialize(machine)


def generate_traced(tracer: Tracer, r: int):
    """generate_document, decomposed into the public engine calls it makes.

    The rule and annotator callables passed to engine.generate_transitions
    are the ones bft.generate_with_stats passes, each wrapped in a span.
    The loop mirrors engine.generate_with_stats; the document is checked
    against the recorded hash, so a drift between the two shows as a
    failed check.
    """
    with tracer.operation("generate", f"r{r}"):
        spec = bft.bft_spec(r)
        p = bft.BftParameters.for_replication_factor(r)
        rules = {m: tracer.wrap1("bft.rule", rule) for m, rule in bft.transition_rules(p).items()}
        with tracer.span("engine.enumerate_states"):
            vectors = engine.enumerate_states(spec)
        with tracer.span("engine.generate_transitions"):
            machine = engine.generate_transitions(
                spec,
                rules,
                vectors,
                annotate_state=tracer.wrap1("bft.annotate", lambda s: bft.annotate(s, p)),
                annotate_transition=tracer.wrap4("bft.annotate", bft.annotate_transition),
                finish_annotations=bft.FINISH_ANNOTATIONS,
            )
        initial = fsm.state_counts(machine)[1]
        with tracer.span("engine.prune_unreachable"):
            machine = engine.prune_unreachable(machine)
        after_prune = fsm.state_counts(machine)[1]
        passes = 0
        while True:
            before = len(machine.states)
            tracer.add("merge_signatures", fsm.state_counts(machine)[1])
            with tracer.span("engine.merge_equivalent_once"):
                machine, changed = engine.merge_equivalent_once(machine)
            passes += 1
            tracer.add("merge_retired", before - len(machine.states))
            if not changed:
                break
            with tracer.span("engine.prune_unreachable.reprune"):
                machine = engine.prune_unreachable(machine)
        with tracer.span("fsm.validate"):
            diags = fsm.validate(machine)
        with tracer.span("fsm.serialize"):
            doc = fsm.serialize(machine)
        counts = (initial, after_prune, len(machine.states), passes)
        tracer.add("states_enumerated", initial)
        tracer.add("states_pruned", after_prune)
        tracer.add("states_final", counts[2])
        tracer.add("merge_passes", passes)
        tracer.add("doc_bytes", len(doc.encode()))
    return machine, counts, diags, doc


def check_document(checks: Checks, r: int, counts, diags, doc: str) -> None:
    want = TABLE[r]
    checks.expect(counts == want[:4], f"r={r}: counts {counts}, recorded {want[:4]}")
    checks.expect(not diags, f"r={r}: validate reports {diags[:3]}")
    digest = hashlib.sha256(doc.encode()).hexdigest()
    checks.expect(digest == want[4], f"r={r}: document sha256 {digest}, recorded {want[4]}")


def warm_up():
    """Run the small rows once, so lazy set-up is done before timing."""
    for r in (4, 7):
        generate_document(r)


def family_op(checks: Checks, r: int, tracer: Tracer | None = None) -> float | None:
    """Seconds of one checked generation; None when it raised."""
    gc.collect()
    t0 = time.perf_counter()
    if tracer is None:
        out = checks.call(f"generate r={r}", generate_document, r)
    else:
        out = checks.call(f"generate r={r}", generate_traced, tracer, r)
    dt = time.perf_counter() - t0
    if out is None:
        return None
    check_document(checks, r, *out[1:])
    return dt


def family(seed: int, seconds: float) -> dict:
    checks = Checks()
    speed = Speed()
    rng = random.Random(seed)
    setup_s, _ = median_setup(speed, warm_up, SETUP_REPEATS["family"])
    schedule = [r for r in ROWS for _ in range(FAMILY_REPEATS[r])]
    samples: dict[int, list[tuple[int, float]]] = {r: [] for r in ROWS}
    # A pass takes ten seconds or more, so after the first one the loop
    # stops at the first generation past the deadline, not at a pass's end.
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        rng.shuffle(schedule)
        for r in schedule:
            if passes and time.perf_counter() >= deadline:
                break
            speed.calibrate()
            dt = family_op(checks, r)
            if dt is not None:
                samples[r].append(speed.tag(dt))
        passes += 1
    speed.calibrate()
    scaled = {r: speed.scaled(v) for r, v in samples.items()}
    # Generations per second in the mix of one pass, from each row's median:
    # the last pass stops part way, so the run's own mix of rows varies.
    rate_ops = sum(FAMILY_REPEATS[r] for r in FAMILY_RATE_ROWS)
    rate_busy = sum(FAMILY_REPEATS[r] * median(scaled[r]) for r in FAMILY_RATE_ROWS)
    return {
        "checks": checks,
        "metrics": end_to_end(setup_s, median(scaled[4]), median(scaled[FAMILY_LARGE_ROW]),
                              rate_ops / rate_busy if rate_busy else 0.0),
        "report": [
            (f"generate_s.r{r}", median([dt for _, dt in samples[r]]), "s", len(samples[r]))
            for r in ROWS
        ] + [speed.report()],
    }


# --- sweep ------------------------------------------------------------------

def sweep_configurations() -> list[tuple[int, str, str, str]]:
    """(r, scenario, fault kind, delivery) for every cell of the criterion-7 matrix.

    The cells of SWEEP_EXCLUDED are left out: see its comment.
    """
    cells = []
    for r in SWEEP_ROWS:
        for delivery in sim.DELIVERY_MODES:
            for scenario in (sim.SINGLE_UPDATE, sim.CONCURRENT_UPDATES):
                for kind in (sim.SILENT, sim.CRASH):
                    if (scenario, kind, delivery) not in SWEEP_EXCLUDED:
                        cells.append((r, scenario, kind, delivery))
            cells.append((r, sim.SINGLE_UPDATE, sim.BYZANTINE, delivery))
    return cells


def sweep_inputs(rng: random.Random | None, base: int, seeds: int) -> list[sim.SimConfig]:
    """One pass: runs of seeds base .. base+seeds-1 in every cell.

    With an rng the faulty nodes are drawn from it; without one they are
    0 .. f-1, as in acceptance criterion 7.
    """
    configs = []
    for r, scenario, kind, delivery in sweep_configurations():
        f = bft.fault_tolerance(r)
        for i in range(seeds):
            nodes = rng.sample(range(r), f) if rng else range(f)
            configs.append(sim.SimConfig(
                replication_factor=r,
                seed=base + i,
                scenario=scenario,
                faults=tuple(sim.Fault(n, kind) for n in nodes),
                delivery=delivery,
            ))
    return configs


def sweep_setup() -> dict[int, fsm.StateMachine]:
    """The machines as ``commitfsm simulate`` builds them."""
    return {r: bft.generate(r) for r in SWEEP_ROWS}


def check_sweep_machines(checks: Checks, machines) -> None:
    for r, machine in machines.items():
        digest = hashlib.sha256(fsm.serialize(machine).encode()).hexdigest()
        checks.expect(digest == TABLE[r][4], f"r={r}: set-up machine differs from the recorded document")


def simulate(machine, config: sim.SimConfig, span=no_span):
    """One run as ``commitfsm simulate`` does it, plus the Byzantine quorum check."""
    with span("sim.run_simulation"):
        trace = sim.run_simulation(machine, config)
    with span("sim.check_agreement"):
        verdict = sim.check_agreement(trace, config)
    quorum = []
    if config.faults[0].kind == sim.BYZANTINE:
        p = bft.BftParameters.for_replication_factor(config.replication_factor)
        with span("sim.check_quorum_safety"):
            quorum = sim.check_quorum_safety(trace, p.vote_threshold, p.commit_threshold)
    return trace, verdict, quorum


def replay(machine, trace) -> None:
    """Step each event's (state_before, message) through fsm.step again, for timing."""
    step = fsm.step
    for e in trace.events:
        step(machine, e.state_before, e.message)


def replay_mismatches(machine, trace) -> int:
    """Events whose replay through fsm.step gives other actions or another state."""
    step = fsm.step
    return sum(step(machine, e.state_before, e.message) != (e.actions, e.state_after)
               for e in trace.events)


def check_run(checks: Checks, machine, config, trace, verdict, quorum) -> None:
    where = f"r={config.replication_factor} seed={config.seed} {config.scenario} {config.faults[0].kind}"
    checks.expect(verdict.ok, f"{where}: verdict {verdict}")
    checks.expect(not quorum, f"{where}: quorum safety {quorum[:2]}")
    bad = checks.call(f"{where}: replay", replay_mismatches, machine, trace)
    checks.expect(bad == 0, f"{where}: {bad} events differ when replayed through fsm.step")


def check_reference_sweep(checks: Checks, machines) -> None:
    events = 0
    for config in sweep_inputs(None, 0, SWEEP_REFERENCE_SEEDS):
        out = checks.call(f"reference run {config}", simulate, machines[config.replication_factor], config)
        if out is not None:
            events += len(out[0].events)
    checks.expect(
        events == SWEEP_REFERENCE_EVENTS,
        f"reference sweep: {events} events, recorded {SWEEP_REFERENCE_EVENTS}",
    )


def sweep_op(checks: Checks, machine, config, tracer: Tracer | None = None,
             expected: tuple | None = None) -> tuple[float, tuple] | None:
    """Seconds and outcome (events, verdict, quorum violations) of one run; None when it raised.

    The first run of an input is checked in full.  A repeat of it, given the
    first outcome as expected, is only checked to end the same way, so an
    input counts once however often the timing loop repeats it.  Traced,
    the replay through fsm.step is its own operation and span, so the
    simulator's self time is its run time minus the replayed steps.
    """
    t0 = time.perf_counter()
    if tracer is None:
        out = checks.call(f"run {config}", simulate, machine, config)
    else:
        with tracer.operation("sim", "sim"):
            out = checks.call(f"run {config}", simulate, machine, config, tracer.span)
    dt = time.perf_counter() - t0
    if out is None:
        return None
    trace, verdict, quorum = out
    outcome = (len(trace.events), verdict.ok, len(quorum))
    if tracer is not None:
        with tracer.operation("replay", "sim"), tracer.span("fsm.step"):
            checks.call("replay", replay, machine, trace)
            tracer.add("step_calls", len(trace.events))
            tracer.add("events", len(trace.events))
    if expected is None:
        check_run(checks, machine, config, trace, verdict, quorum)
    else:
        checks.expect(outcome == expected, f"run {config} ended {outcome}, before {expected}")
    return dt, outcome


def sweep(seed: int, seconds: float) -> dict:
    """Runs per second over all runs; p50 and p99 over the inputs, each input's median run."""
    checks = Checks()
    speed = Speed()
    rng = random.Random(seed)
    base = rng.randrange(2**31)
    setup_s, machines = median_setup(speed, sweep_setup, SETUP_REPEATS["sweep"])
    check_sweep_machines(checks, machines)
    configs = sweep_inputs(rng, base, SWEEP_SEEDS_PER_CELL)
    outcomes: dict[int, tuple] = {}
    times: list[list[tuple[int, float]]] = [[] for _ in configs]
    order = list(range(len(configs)))
    events = 0
    start = time.perf_counter()
    while True:
        rng.shuffle(order)
        # A run takes about a millisecond and a full collection ten, so the
        # heap is collected once per pass rather than once per run.
        gc.collect()
        for n, i in enumerate(order):
            if n % RUNS_PER_PROBE == 0:
                speed.calibrate()
            config = configs[i]
            out = sweep_op(checks, machines[config.replication_factor], config, expected=outcomes.get(i))
            if out is not None:
                times[i].append(speed.tag(out[0]))
                events += out[1][0]
                outcomes.setdefault(i, out[1])
        if time.perf_counter() - start >= seconds:
            break
    check_reference_sweep(checks, machines)
    speed.calibrate()
    scaled = [speed.scaled(t) for t in times if t]
    per_input = [statistics.median(t) for t in scaled]
    runs = sum(len(t) for t in scaled)
    busy = sum(sum(t) for t in scaled)
    raw_busy = sum(dt for t in times for _, dt in t)
    raw_per_input = [statistics.median(dt for _, dt in t) for t in times if t]
    return {
        "checks": checks,
        "metrics": end_to_end(setup_s, median(per_input), p99(per_input) if len(per_input) > 1 else 0.0,
                              runs / busy if busy else 0.0),
        "report": [
            ("sim_runs_per_s", runs / raw_busy if raw_busy else 0.0, "1/s", runs),
            ("sim_run_p50_ms", median(raw_per_input) * 1e3, "ms", len(raw_per_input)),
            ("sim_run_p99_ms", (p99(raw_per_input) if len(raw_per_input) > 1 else 0.0) * 1e3, "ms",
             len(raw_per_input)),
            ("sim_events_per_s", events / raw_busy if raw_busy else 0.0, "1/s", runs),
            speed.report(),
        ],
    }


# --- codegen ----------------------------------------------------------------

def load_module(source: str) -> types.ModuleType:
    """Import generated source from memory, as a file import would run it."""
    module = types.ModuleType(MODULE_NAME)
    exec(compile(source, f"<{MODULE_NAME}>", "exec"), module.__dict__)
    return module


def render_path(doc: str, span=no_span):
    """The ``commitfsm render`` path for every format, then the module import."""
    with span("fsm.deserialize"):
        machine = fsm.deserialize(doc)
    with span("fsm.validate"):
        diags = fsm.validate(machine)
    with span("render.render_source"):
        source = render.render_source(machine, module_name=MODULE_NAME)
    with span("render.render_text"):
        render.render_text(machine)
    with span("render.render_dot"):
        render.render_dot(machine)
    with span("module.load"):
        module = load_module(source)
    return machine, diags, source, module


def drive(module, sequence) -> int:
    """Feed one message sequence to a fresh machine of the module; steps taken."""
    sink = sim.RecordingSink()
    machine = module.create(sink)
    steps = 0
    for message in sequence:
        if sink.finished:
            break
        machine.receive(message)
        steps += 1
    return steps


def codegen_setup():
    """The r = 46 document as ``commitfsm generate`` writes it."""
    return generate_document(CODEGEN_ROW)


def check_codegen(checks: Checks, reference, machine, diags, source, module, sequences, steps) -> None:
    checks.expect(not diags, f"deserialized r={CODEGEN_ROW} document: validate reports {diags[:3]}")
    checks.expect(machine == reference, "deserialized machine differs from the generated one")
    size = len(source.encode())
    checks.expect(size == MODULE_BYTES, f"module is {size} bytes, recorded {MODULE_BYTES}")
    result = checks.call("co_simulate", sim.co_simulate, machine, module, sequences)
    if result is not None:
        checks.expect(result.ok, f"co_simulate divergences {result.divergences[:3]}")
        checks.expect(result.steps_checked == steps,
                      f"co_simulate checked {result.steps_checked} steps, module took {steps}")


def codegen_round(checks: Checks, reference, doc: str, sequence_seed: int,
                  loads: list, drives: list,
                  tracer: Tracer | None = None, speed: Speed | None = None,
                  load_speed: Speed | None = None) -> tuple[int, int]:
    """One render path, then the loaded module driven with seeded sequences.

    Appends the render-path seconds to loads, tagged with the host's speed
    by the compile probe when load_speed is given, and one entry per
    sequence to drives, tagged by the plain probe when speed is given;
    returns (module steps taken, module bytes).  The heap is collected before the render path and before
    the batch of sequences, not before each sub-millisecond sequence.
    """
    gc.collect()
    t0 = time.perf_counter()
    if tracer is None:
        out = checks.call("render path", render_path, doc)
    else:
        with tracer.operation("render", "codegen"):
            out = checks.call("render path", render_path, doc, tracer.span)
            if out is not None:
                tracer.add("module_bytes", len(out[2].encode()))
    dt = time.perf_counter() - t0
    if out is None:
        return 0, 0
    if load_speed:
        # The probe before this render path is the one after the previous
        # one (or after set-up); probe again for the one after it.
        loads.append(load_speed.tag(dt))
        load_speed.calibrate()
    else:
        loads.append(dt)
    machine, diags, source, module = out
    sequences = sim.random_sequences(machine, CODEGEN_SEQUENCES, CODEGEN_MAX_LENGTH, sequence_seed)
    gc.collect()
    steps = 0
    for n, sequence in enumerate(sequences):
        if speed and n % RUNS_PER_PROBE == 0:
            speed.calibrate()
        t0 = time.perf_counter()
        if tracer is None:
            taken = checks.call("module drive", drive, module, sequence)
        else:
            with tracer.operation("drive", "codegen"):
                taken = checks.call("module drive", drive, module, sequence)
                tracer.add("module_steps", taken or 0)
        dt = time.perf_counter() - t0
        if taken is not None:
            drives.append(speed.tag(dt) if speed else dt)
            steps += taken
    check_codegen(checks, reference, machine, diags, source, module, sequences, steps)
    return steps, len(source.encode())


def codegen(seed: int, seconds: float) -> dict:
    checks = Checks()
    speed = Speed()
    load_speed = Speed(compile_probe, COMPILE_REFERENCE_S, repeats=1)
    rng = random.Random(seed)
    setup_s, (reference, *document) = median_setup(load_speed, codegen_setup, SETUP_REPEATS["codegen"])
    check_document(checks, CODEGEN_ROW, *document)
    doc = document[-1]
    loads: list[tuple[int, float]] = []
    drives: list[tuple[int, float]] = []
    steps_total = 0
    module_bytes = 0
    start = time.perf_counter()
    while True:
        steps, module_bytes = codegen_round(checks, reference, doc, rng.randrange(2**31),
                                            loads, drives, speed=speed, load_speed=load_speed)
        steps_total += steps
        if time.perf_counter() - start >= seconds:
            break
    speed.calibrate()
    drive_s = sum(speed.scaled(drives))
    raw_drive_s = sum(dt for _, dt in drives)
    return {
        "checks": checks,
        "metrics": end_to_end(setup_s, median(speed.scaled(drives)), median(load_speed.scaled(loads)),
                              steps_total / drive_s if drive_s else 0.0),
        "report": [
            ("module_steps_per_s", steps_total / raw_drive_s if raw_drive_s else 0.0, "1/s", len(drives)),
            ("module_load_s", median([dt for _, dt in loads]), "s", len(loads)),
            ("module_bytes", module_bytes, "bytes", len(loads)),
            speed.report(),
            load_speed.report("compile_probe_ms"),
        ],
    }


WORKLOADS = {"family": family, "sweep": sweep, "codegen": codegen}
