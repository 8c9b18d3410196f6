"""A SHA-256 pin over the simulator's traces for a fixed matrix of runs.

The matrix covers r in {4, 7, 13} under both delivery modes: single and
concurrent updates with silent and with crash faults (the cell the
benchmark's sweep leaves out, concurrent updates with crash faults under
random_interleave, included), and single updates with Byzantine faults;
seeds 0..29 with faulty nodes 0..f-1, then a few explicit crash steps.
Each run adds ``repr((events, statuses, finish_orders, faulty))`` to the
digest, so any change in delivery order, random draws or machine steps
changes it.

Standard library only, so it also runs on interpreters without pytest:

    PYTHONPATH=src python tests/trace_digest.py

prints the digest, the run count and the event count, and exits 1 when the
digest differs from TRACE_DIGEST.
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


def digest() -> tuple[str, int, int]:
    """(SHA-256 hex digest, runs, events) of the pinned matrix."""
    machines = {r: bft.generate(r) for r in ROWS}
    h = hashlib.sha256()
    runs = events = 0
    for config in matrix():
        t = sim.run_simulation(machines[config.replication_factor], config)
        h.update(repr((t.events, t.statuses, t.finish_orders, t.faulty)).encode())
        runs += 1
        events += len(t.events)
    return h.hexdigest(), runs, events


if __name__ == "__main__":
    value, runs, events = digest()
    ok = value == TRACE_DIGEST
    print(f"{value} runs={runs} events={events} python={sys.version.split()[0]} "
          f"{'matches' if ok else 'DIFFERS from'} the pinned digest")
    sys.exit(0 if ok else 1)
