"""Acceptance suite: every criterion prints one PASS/FAIL line when it runs."""

import hashlib
import itertools
import time
from contextlib import contextmanager

import pytest

from commitfsm import bft, engine, sim
from commitfsm.fsm import FINISH, serialize, state_counts, validate
from commitfsm.sim import BYZANTINE, CONCURRENT_UPDATES, CRASH, SILENT, SINGLE_UPDATE
from reference import (
    action_trace,
    bisimulation_oracle,
    merge_rounds,
    raw_machine,
    signature_groups,
)

TABLE_ROWS = {
    # r: (initial, final including the finish state)
    4: (512, 33),
    7: (1568, 85),
    13: (5408, 261),
    25: (20000, 901),
    46: (67712, 2945),
}


@contextmanager
def report(criterion, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {criterion}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {criterion}: PASS - {description}")


@pytest.fixture(scope="module")
def timed_family():
    """Generate every reference row once, recording wall-clock seconds."""
    results = {}
    for r in TABLE_ROWS:
        start = time.perf_counter()
        machine, stats = bft.generate_with_stats(r)
        results[r] = (machine, stats, time.perf_counter() - start)
    return results


def test_criterion_1_initial_state_counts():
    with report(1, "enumeration sizes for r in {4,7,13,25,46}"):
        for r, (initial, _) in TABLE_ROWS.items():
            assert len(engine.enumerate_states(bft.bft_spec(r))) == initial


def test_criterion_2_pruned_count(pruned4):
    with report(2, "r=4 prunes 512 states to 48 with commit counts bounded by f"):
        assert state_counts(pruned4)[1] == 48
        for name in pruned4.states:
            if name != FINISH:
                assert int(name.split("/")[3]) <= 1


def test_criterion_3_final_state_counts(timed_family):
    with report(3, "minimized sizes 33/85/261/901/2945 across the family"):
        for r, (_, final) in TABLE_ROWS.items():
            machine, stats, _ = timed_family[r]
            assert len(machine.states) == final, f"r={r}"
            assert stats.final == final


def test_criterion_4_documented_r4_transitions(final4):
    with report(4, "documented transitions of state T/2/F/0/F/F/F, exact"):
        st = final4.states["T/2/F/0/F/F/F"]
        assert st.transitions["VOTE"].actions == ("SEND_VOTE", "SEND_COMMIT")
        assert st.transitions["VOTE"].to == "T/3/T/0/T/F/F"
        assert st.transitions["COMMIT"].actions == ()
        assert st.transitions["COMMIT"].to == "T/2/F/1/F/F/F"
        assert st.transitions["FREE"].actions == (
            "SEND_VOTE", "SEND_COMMIT", "SEND_NOT_FREE",
        )
        assert st.transitions["FREE"].to == "T/2/T/0/T/T/T"


def test_criterion_5_generation_time(timed_family):
    with report(5, "f=15 pipeline under 60 s, f=1 under 1 s"):
        assert timed_family[46][2] < 60.0
        assert timed_family[4][2] < 1.0


# r: (initial, after_prune, final, passes, SHA-256 of the serialized
# document), recorded from the enumerate-prune-merge pipeline of the
# paper; generation must reproduce every document byte for byte.
DOCUMENTS = {
    4: (512, 48, 33, 6, "d9366ab1bab739f4a6dd16dbf50b74a77ad6bfd9c460f77cb731b0c660526f4f"),
    7: (1568, 126, 85, 10, "1bd6119e8d97f96a63c2da5ed13b372a8650aa8bde8e02ff2d18d5ea030e2695"),
    13: (5408, 390, 261, 18, "57061341380f3b6a10425d0da7e24b45cc4fe63b0166af3560daa3d9b20aa28a"),
    25: (20000, 1350, 901, 34, "7df481bbe130787523a7a10e1c38cb7ac8bacc6b7964ba93e306cd6d0205955b"),
    46: (67712, 4416, 2945, 62, "d46ce164cdfabaaea6ba191e02b65ddb6f889236d4c67205d9d866c993f5362e"),
    61: (119072, 7686, 5125, 82, "dd56870b62ac432ec7bce33e75d157e90868d96edd1b86ea5ebedd6d5e5c2739"),
}


def _document_record(machine, stats):
    digest = hashlib.sha256(serialize(machine).encode()).hexdigest()
    return (stats.initial, stats.after_prune, stats.final, stats.passes, digest)


def test_documents_byte_identical(timed_family):
    for r in TABLE_ROWS:
        machine, stats, _ = timed_family[r]
        assert _document_record(machine, stats) == DOCUMENTS[r], f"r={r}"
    assert _document_record(*bft.generate_with_stats(61)) == DOCUMENTS[61]


def test_criterion_6_minimization_soundness(raw4, pruned4, final4):
    with report(6, "merge soundness vs bisimulation oracle, idempotence, trace equality"):
        for r in (4, 7):
            rounds = merge_rounds(raw_machine(r))
            parts = bisimulation_oracle(rounds[0])
            cls = {name: i for i, part in enumerate(parts) for name in part}
            for m in rounds:
                for members in signature_groups(m):
                    assert len({cls[name] for name in members}) == 1
        assert merge_rounds(final4) == [final4]
        assert validate(final4) == []
        for sequence in itertools.product(raw4.messages, repeat=6):
            assert action_trace(raw4, sequence) == action_trace(final4, sequence)
        for sequence in sim.random_sequences(raw4, 10_000, 40, seed=20240501):
            assert action_trace(raw4, sequence) == action_trace(final4, sequence)


def test_criterion_7_simulation_sweep():
    with report(7, "100-seed fault sweeps for r in {4,7,13}: tolerated faults never break"):
        for r in (4, 7, 13):
            machine = bft.generate(r)
            f = bft.fault_tolerance(r)
            p = bft.BftParameters.for_replication_factor(r)
            for scenario in (SINGLE_UPDATE, CONCURRENT_UPDATES):
                for kind in (SILENT, CRASH):
                    faults = tuple(sim.Fault(i, kind) for i in range(f))
                    for seed in range(100):
                        config = sim.SimConfig(
                            replication_factor=r, seed=seed,
                            scenario=scenario, faults=faults,
                        )
                        trace = sim.run_simulation(machine, config)
                        verdict = sim.check_agreement(trace, config)
                        assert verdict.ok, (r, scenario, kind, seed, verdict)
            faults = tuple(sim.Fault(i, BYZANTINE) for i in range(f))
            for seed in range(100):
                config = sim.SimConfig(replication_factor=r, seed=seed, faults=faults)
                trace = sim.run_simulation(machine, config)
                correct = [n for n in range(r) if n not in trace.faulty]
                finished = {trace.finish_orders[n] for n in correct
                            if trace.statuses[n] == sim.FINISHED}
                assert len(finished) <= 1, (r, seed)
                assert sim.check_quorum_safety(
                    trace, p.vote_threshold, p.commit_threshold
                ) == [], (r, seed)


def test_criterion_8_co_simulation(final4, generated4):
    with report(8, "generated source matches the interpreter on 1000 random sequences"):
        sequences = sim.random_sequences(final4, 1000, 20, seed=77)
        result = sim.co_simulate(final4, generated4, sequences)
        assert result.ok, result.divergences[:3]
        assert result.steps_checked > 0


def test_criterion_9_determinism(tmp_path):
    with report(9, "generate and simulate are byte-deterministic"):
        from commitfsm.cli import main

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["generate", "-r", "4", "-o", str(a)]) == 0
        assert main(["generate", "-r", "4", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        machine = bft.generate(4)
        config = sim.SimConfig(
            replication_factor=4, seed=42, scenario=CONCURRENT_UPDATES,
            faults=(sim.Fault(1, SILENT),),
        )
        first = sim.run_simulation(machine, config).serialize()
        second = sim.run_simulation(machine, config).serialize()
        assert first.encode() == second.encode()
