"""A SHA-256 pin over the simulator's traces for a fixed matrix of runs.

The matrix covers r in {4, 7, 13} under both delivery modes: single and
concurrent updates with silent and with crash faults (the cell the
benchmark's sweep leaves out, concurrent updates with crash faults under
random_interleave, included), and single updates with Byzantine faults;
seeds 0..29 with faulty nodes 0..f-1, then a few explicit crash steps.
Each run adds ``repr((events, statuses, finish_orders, faulty))`` to the
digest, so any change in delivery order, random draws or machine steps
changes it.

A second matrix mixes the fault kinds: node 0 is Byzantine and nodes
1..max(f, 1) crash, so crash-faulted nodes receive the repeats a Byzantine
sender forges.  Each of its runs adds its whole ``SimTrace.serialize()``
text, counters line included, to MIXED_DIGEST; it pins what a crash step
counts (distinct deliveries processed, discarded repeats not counted).

Standard library only, so it also runs on interpreters without pytest:

    PYTHONPATH=src python tests/trace_digest.py

prints each digest with its run count and event count, and exits 1 when
either differs from its pinned value.
"""

from __future__ import annotations

import hashlib
import sys

from commitfsm import bft, sim

# Recorded from the simulator before its event loop was flattened.
TRACE_DIGEST = "523014ab58e342317c8acc61805ed6c8d060f2aaf812c97ad377909f43948c7c"

ROWS = (4, 7, 13)
SEEDS = range(30)
CRASH_STEPS = (0, 1, 3, 8, 20)
CRASH_STEP_SEEDS = range(3)

# Recorded when a node's history became its slot controller's priority order
# up to the first update not finished; only one run's `finished=` field moved.
MIXED_DIGEST = "8af052601f8fe0dae17ca21b71e3fe4d4399570954006935075d548f994e136f"
MIXED_CRASH_STEPS = (None, 0, 2, 5, 12)
MIXED_SEEDS = range(20)


def matrix():
    """Every SimConfig of the pinned matrix, in a fixed order."""
    cells = [(scenario, kind) for scenario in sim.SCENARIOS for kind in (sim.SILENT, sim.CRASH)]
    cells.append((sim.SINGLE_UPDATE, sim.BYZANTINE))
    for r in ROWS:
        f = bft.fault_tolerance(r)
        for delivery in sim.DELIVERY_MODES:
            for scenario, kind in cells:
                for seed in SEEDS:
                    faults = tuple(sim.Fault(n, kind) for n in range(f))
                    yield sim.SimConfig(r, seed, scenario, faults, delivery)
            for scenario in sim.SCENARIOS:
                for crash_step in CRASH_STEPS:
                    for seed in CRASH_STEP_SEEDS:
                        faults = tuple(sim.Fault(n, sim.CRASH, crash_step) for n in range(f))
                        yield sim.SimConfig(r, seed, scenario, faults, delivery)


def mixed_matrix():
    """Every SimConfig of the mixed-fault matrix, in a fixed order."""
    for r in ROWS:
        crashing = range(1, max(bft.fault_tolerance(r), 1) + 1)
        for delivery in sim.DELIVERY_MODES:
            for scenario in sim.SCENARIOS:
                for crash_step in MIXED_CRASH_STEPS:
                    faults = (sim.Fault(0, sim.BYZANTINE),) + tuple(
                        sim.Fault(n, sim.CRASH, crash_step) for n in crashing
                    )
                    for seed in MIXED_SEEDS:
                        yield sim.SimConfig(r, seed, scenario, faults, delivery)


def _digest(configs, record) -> tuple[str, int, int]:
    """(SHA-256 hex digest, runs, events) over record(trace) of each run."""
    machines = {r: bft.generate(r) for r in ROWS}
    h = hashlib.sha256()
    runs = events = 0
    for config in configs:
        t = sim.run_simulation(machines[config.replication_factor], config)
        h.update(record(t).encode())
        runs += 1
        events += len(t.events)
    return h.hexdigest(), runs, events


def digest() -> tuple[str, int, int]:
    """(SHA-256 hex digest, runs, events) of the pinned matrix."""
    return _digest(matrix(), lambda t: repr((t.events, t.statuses, t.finish_orders, t.faulty)))


def mixed_digest() -> tuple[str, int, int]:
    """(SHA-256 hex digest, runs, events) of the mixed-fault matrix."""
    return _digest(mixed_matrix(), sim.SimTrace.serialize)


if __name__ == "__main__":
    failed = False
    for name, compute, pinned in (
        ("TRACE_DIGEST", digest, TRACE_DIGEST),
        ("MIXED_DIGEST", mixed_digest, MIXED_DIGEST),
    ):
        value, runs, events = compute()
        ok = value == pinned
        failed |= not ok
        print(f"{name} {value} runs={runs} events={events} python={sys.version.split()[0]} "
              f"{'matches' if ok else 'DIFFERS from'} the pinned digest")
    sys.exit(1 if failed else 0)
