import dataclasses
import random

import pytest

import trace_digest
from commitfsm import bft
from commitfsm.fsm import (
    FINISH,
    UnknownStateError,
    action_message,
    deserialize,
    serialize,
    validate,
)
from commitfsm.sim import (
    BYZANTINE,
    CONCURRENT_UPDATES,
    CRASH,
    CRASHED,
    DELIVERY_MODES,
    FINISHED,
    RANDOM_INTERLEAVE,
    SCENARIOS,
    SILENT,
    STUCK,
    ConfigError,
    Fault,
    SimConfig,
    SlotController,
    Verdict,
    _below,
    check_agreement,
    check_quorum_safety,
    co_simulate,
    random_sequences,
    run_simulation,
    stall_report,
)


class TestConfig:
    def test_machine_config_mismatch(self, final4, final7):
        cfg = SimConfig(replication_factor=7, seed=0)
        with pytest.raises(ConfigError):
            run_simulation(final4, cfg)
        run_simulation(final7, cfg)  # matching machine is fine

    def test_duplicate_fault_node_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(replication_factor=4, seed=0, faults=(Fault(1, SILENT), Fault(1, CRASH)))

    def test_fault_node_out_of_range(self):
        with pytest.raises(ConfigError):
            SimConfig(replication_factor=4, seed=0, faults=(Fault(9, SILENT),))

    def test_everyone_faulty_rejected(self):
        faults = tuple(Fault(i, SILENT) for i in range(4))
        with pytest.raises(ConfigError):
            SimConfig(replication_factor=4, seed=0, faults=faults)

    def test_unknown_fault_kind(self):
        with pytest.raises(ConfigError):
            Fault(0, "sleepy")

    @pytest.mark.parametrize("field", ["scenario", "delivery"])
    def test_unknown_scenario_or_delivery_mode(self, field):
        with pytest.raises(ConfigError, match=f"unknown {field}"):
            SimConfig(replication_factor=4, seed=0, **{field: "sideways"})

    def test_scenario_updates(self):
        assert SimConfig(4, 0).updates == ("U0",)
        assert SimConfig(4, 0, scenario=CONCURRENT_UPDATES).updates == ("U0", "U1")


class TestSlotController:
    def test_grants_free_on_first_put(self):
        c = SlotController(("U0",))
        assert c.on_put("U0") == [("FREE", "U0")]
        assert c.granted == "U0"

    def test_grants_in_update_id_order(self):
        c = SlotController(("U0", "U1"))
        assert c.on_put("U1") == []  # waits for the earlier update
        assert c.on_put("U0") == [("FREE", "U0"), ("NOT_FREE", "U1")]

    def test_releases_next_free_on_finish(self):
        c = SlotController(("U0", "U1"))
        c.on_put("U1")
        c.on_put("U0")
        assert c.on_finish("U0") == [("FREE", "U1")]
        assert c.on_finish("U1") == []

    def test_at_most_one_grant(self):
        c = SlotController(("U0", "U1"))
        c.on_put("U0")
        assert c.on_put("U1") == [("NOT_FREE", "U1")] or c.granted == "U0"


class TestRunSimulation:
    def test_fault_free_run_finishes_everywhere(self, final4):
        for seed in range(5):
            cfg = SimConfig(replication_factor=4, seed=seed)
            trace = run_simulation(final4, cfg)
            assert all(s == FINISHED for s in trace.statuses.values())
            assert check_agreement(trace, cfg) == Verdict(True)

    def test_deterministic_traces(self, final4):
        cfg = SimConfig(replication_factor=4, seed=123, faults=(Fault(2, SILENT),))
        a = run_simulation(final4, cfg).serialize()
        b = run_simulation(final4, cfg).serialize()
        assert a == b

    def test_one_silent_node_tolerated(self, final4):
        for seed in range(20):
            cfg = SimConfig(replication_factor=4, seed=seed, faults=(Fault(0, SILENT),))
            trace = run_simulation(final4, cfg)
            for node in (1, 2, 3):
                assert trace.statuses[node] == FINISHED
            assert check_agreement(trace, cfg).ok

    def test_two_silent_nodes_stall_the_rest(self, final4):
        cfg = SimConfig(
            replication_factor=4, seed=5, faults=(Fault(0, SILENT), Fault(1, SILENT)),
        )
        trace = run_simulation(final4, cfg)
        assert trace.statuses[2] == STUCK and trace.statuses[3] == STUCK
        # beyond the fault budget liveness is not required, so this still passes
        assert check_agreement(trace, cfg).ok

    def test_crashed_node_is_reported(self, final4):
        cfg = SimConfig(replication_factor=4, seed=9, faults=(Fault(1, CRASH, crash_step=2),))
        trace = run_simulation(final4, cfg)
        assert trace.statuses[1] == CRASHED
        for node in (0, 2, 3):
            assert trace.statuses[node] == FINISHED

    def test_byzantine_node_cannot_break_quorum(self, final4, params4):
        for seed in range(20):
            cfg = SimConfig(replication_factor=4, seed=seed, faults=(Fault(3, BYZANTINE),))
            trace = run_simulation(final4, cfg)
            assert check_agreement(trace, cfg).ok
            assert check_quorum_safety(
                trace, params4.vote_threshold, params4.commit_threshold
            ) == []

    def test_quorum_check_counts_deliveries_not_state_names(self, final4, params4):
        # drop the VOTE deliveries that led a correct node to its commit: the
        # state names still claim the votes, the trace no longer shows them
        trace = run_simulation(final4, SimConfig(replication_factor=4, seed=0))
        commit = next(
            e for e in trace.events if "SEND_COMMIT" in e.actions and e.state_after != FINISH
        )
        doctored = dataclasses.replace(trace, events=tuple(
            e for e in trace.events
            if not (e.receiver == commit.receiver and e.message == "VOTE" and e.step < commit.step)
        ))
        thresholds = (params4.vote_threshold, params4.commit_threshold)
        assert check_quorum_safety(trace, *thresholds) == []
        # left: the VOTE delivered at the commit step and the node's own vote
        assert check_quorum_safety(doctored, *thresholds) == [
            f"step {commit.step}: SEND_COMMIT with total votes 2 < 3"
        ]

    def test_finishing_echo_needs_the_commit_threshold(self, final4, params4):
        # seed 0 has a node finish on a COMMIT with a SEND_COMMIT echo; drop
        # its earlier COMMIT deliveries and the echo lacks f + 1 commits
        trace = run_simulation(final4, SimConfig(replication_factor=4, seed=0))
        echo = next(
            e for e in trace.events if "SEND_COMMIT" in e.actions and e.state_after == FINISH
        )
        doctored = dataclasses.replace(trace, events=tuple(
            e for e in trace.events
            if not (e.receiver == echo.receiver and e.message == "COMMIT" and e.step < echo.step)
        ))
        thresholds = (params4.vote_threshold, params4.commit_threshold)
        assert check_quorum_safety(trace, *thresholds) == []
        assert check_quorum_safety(doctored, *thresholds) == [
            f"step {echo.step}: commit echo without threshold"
        ]

    @pytest.mark.parametrize("delivery", DELIVERY_MODES)
    def test_quorum_check_reads_no_finish_name(self, final4, params4, delivery):
        # the finishing echo is told by its COMMIT delivery, so a finish
        # state of another name leaves the verdicts as they are
        renamed = deserialize(serialize(final4).replace('"FINISH"', '"DONE"'))
        thresholds = (params4.vote_threshold, params4.commit_threshold)
        for scenario in SCENARIOS:
            for seed in range(10):
                cfg = SimConfig(4, seed, scenario, faults=(Fault(3, BYZANTINE),),
                                delivery=delivery)
                assert check_quorum_safety(run_simulation(renamed, cfg), *thresholds) == []
                assert check_quorum_safety(run_simulation(final4, cfg), *thresholds) == []

    def test_action_that_broadcasts_nothing(self, final4):
        # a declared action without the SEND_ prefix is recorded in the
        # trace but puts no message on the network
        start = final4.states[final4.start_state]
        put = start.transitions["PUT"]
        logged = put._replace(actions=put.actions + ("LOG",))
        machine = dataclasses.replace(
            final4,
            actions=final4.actions + ("LOG",),
            states={**final4.states, start.name: start._replace(
                transitions={**start.transitions, "PUT": logged})},
        )
        assert validate(machine) == []
        cfg = SimConfig(4, 0)
        want = run_simulation(final4, cfg)
        got = run_simulation(machine, cfg)
        assert any(e.actions == put.actions + ("LOG",) for e in got.events)
        assert [e._replace(actions=tuple(a for a in e.actions if a != "LOG"))
                for e in got.events] == list(want.events)
        assert got.counters == want.counters

    def test_dangling_destination_raises_the_interpreters_error(self, final4):
        start = final4.states[final4.start_state]
        put = start.transitions["PUT"]._replace(to="NOWHERE")
        states = {**final4.states, start.name: start._replace(
            transitions={**start.transitions, "PUT": put})}
        with pytest.raises(UnknownStateError, match="NOWHERE"):
            run_simulation(dataclasses.replace(final4, states=states), SimConfig(4, 0))

    @pytest.mark.parametrize("delivery", DELIVERY_MODES)
    def test_finish_state_of_any_name(self, final4, delivery):
        renamed = deserialize(serialize(final4).replace('"FINISH"', '"DONE"'))
        assert renamed.finish_state == "DONE" and validate(renamed) == []
        def unrename(name):
            return FINISH if name == "DONE" else name
        for scenario in SCENARIOS:
            for seed in range(3):
                cfg = SimConfig(4, seed, scenario, delivery=delivery)
                want = run_simulation(final4, cfg)
                got = run_simulation(renamed, cfg)
                assert [e._replace(state_before=unrename(e.state_before),
                                   state_after=unrename(e.state_after))
                        for e in got.events] == list(want.events)
                assert got.statuses == want.statuses
                assert got.finish_orders == want.finish_orders
                assert check_agreement(got, cfg) == check_agreement(want, cfg)

    def test_concurrent_updates_agree_on_order(self, final4):
        for seed in range(10):
            cfg = SimConfig(replication_factor=4, seed=seed, scenario=CONCURRENT_UPDATES)
            trace = run_simulation(final4, cfg)
            orders = {trace.finish_orders[n] for n in range(4)}
            assert orders == {("U0", "U1")}

    def test_concurrent_with_crash_fault(self, final4):
        for seed in range(10):
            cfg = SimConfig(
                replication_factor=4,
                seed=seed,
                scenario=CONCURRENT_UPDATES,
                faults=(Fault(2, CRASH),),
            )
            trace = run_simulation(final4, cfg)
            assert check_agreement(trace, cfg).ok

    def test_random_interleave_single_update(self, final4):
        for seed in range(10):
            cfg = SimConfig(replication_factor=4, seed=seed, delivery=RANDOM_INTERLEAVE)
            trace = run_simulation(final4, cfg)
            assert check_agreement(trace, cfg).ok

    def test_trace_steps_strictly_increase(self, final4):
        cfg = SimConfig(replication_factor=4, seed=0)
        trace = run_simulation(final4, cfg)
        steps = [e.step for e in trace.events]
        assert steps == sorted(steps) and len(set(steps)) == len(steps)

    def test_trace_states_belong_to_the_machine(self, final4):
        cfg = SimConfig(replication_factor=4, seed=1)
        trace = run_simulation(final4, cfg)
        for e in trace.events:
            assert e.state_before in final4.states
            assert e.state_after in final4.states

    def test_serialized_trace_shape(self, final4):
        cfg = SimConfig(replication_factor=4, seed=2)
        text = run_simulation(final4, cfg).serialize()
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines
        for line in lines:
            fields = line.split(",")
            assert len(fields) == 7
            assert ":" in fields[3]


class TestTracePin:
    def test_traces_match_the_pinned_digest(self):
        value, runs, events = trace_digest.digest()
        assert (runs, events) == (1080, 165680)
        assert value == trace_digest.TRACE_DIGEST

    def test_sampler_draws_as_randrange_and_choice(self):
        seq = [f"x{i}" for i in range(300)]
        for seed in range(50):
            ours, ref = random.Random(seed), random.Random(seed)
            for n in range(1, 301):
                assert _below(ours.getrandbits, n) == ref.randrange(n)
                assert seq[_below(ours.getrandbits, n)] == ref.choice(seq[:n])
            assert ours.getrandbits(64) == ref.getrandbits(64)


def _counter_configs():
    for r in (4, 7):
        f = bft.fault_tolerance(r)
        for delivery in DELIVERY_MODES:
            for scenario in SCENARIOS:
                for kind in (None, SILENT, CRASH, BYZANTINE):
                    for seed in range(5):
                        faults = () if kind is None else tuple(Fault(n, kind) for n in range(f))
                        yield SimConfig(r, seed, scenario, faults, delivery)


class TestCounters:
    @pytest.fixture(scope="class")
    def runs(self, final4, final7):
        machines = {4: final4, 7: final7}
        return [(c, run_simulation(machines[c.replication_factor], c)) for c in _counter_configs()]

    def test_every_message_put_is_delivered(self, runs):
        for config, trace in runs:
            c = trace.counters
            client = config.replication_factor * len(config.updates)
            assert client + c.controller + c.sent == c.delivered, config

    def test_sent_and_injected_match_the_broadcasting_events(self, runs):
        for config, trace in runs:
            kinds = {f.node: f.kind for f in config.faults}
            per_node = {}
            for e in trace.events:
                if kinds.get(e.receiver) != SILENT:
                    wire = sum(action_message(a) is not None for a in e.actions)
                    per_node[e.receiver] = per_node.get(e.receiver, 0) + wire
            peers = config.replication_factor - 1
            byzantine = sum(v for n, v in per_node.items() if kinds.get(n) == BYZANTINE)
            assert trace.counters.sent == peers * sum(per_node.values()), config
            assert trace.counters.injected == peers * byzantine, config

    def test_injected_only_with_byzantine_dropped_only_with_crash(self, runs):
        for config, trace in runs:
            kinds = {f.kind for f in config.faults}
            if BYZANTINE not in kinds:
                assert trace.counters.injected == 0, config
            if CRASH not in kinds:
                assert trace.counters.dropped == 0, config
            if CRASHED in trace.statuses.values():
                assert trace.counters.dropped > 0, config

    def test_a_node_crashed_at_once_drops_every_message_to_it(self, final4, final7):
        # with crash_step=0 node 1 never processes a message, so it receives
        # the client's puts and one message of every other node's broadcast
        for machine in (final4, final7):
            r = machine.replication_factor
            for scenario in SCENARIOS:
                for seed in range(5):
                    cfg = SimConfig(r, seed, scenario, (Fault(1, CRASH, crash_step=0),))
                    c = run_simulation(machine, cfg).counters
                    assert c.dropped == len(cfg.updates) + c.sent // (r - 1), cfg

    def test_finish_steps_are_the_last_finishing_events(self, runs):
        for config, trace in runs:
            last = {}
            for e in trace.events:
                if e.state_after == FINISH:
                    last[e.receiver] = e.step
            # a crashed node may have finished before it crashed
            done = {n for n, order in trace.finish_orders.items()
                    if len(order) == len(config.updates)}
            assert trace.counters.finish_steps == {n: last[n] for n in done}, config

    def test_counters_line_follows_the_node_lines(self, final4):
        cfg = SimConfig(replication_factor=4, seed=2, faults=(Fault(1, CRASH, crash_step=3),))
        trace = run_simulation(final4, cfg)
        lines = trace.serialize().splitlines()
        c = trace.counters
        assert lines[-2].startswith("# node=3 ")
        assert lines[-1] == (
            f"# counters sent={c.sent} delivered={c.delivered} "
            f"deduplicated={c.deduplicated} dropped={c.dropped} injected=0 "
            f"controller={c.controller} "
            f"finish_steps={';'.join(f'{n}:{s}' for n, s in sorted(c.finish_steps.items()))}"
        )
        assert c.dropped > 0 and set(c.finish_steps) == {0, 2, 3}


class TestStallReport:
    def test_passing_run_within_budget_reports_nothing(self, final4):
        cfg = SimConfig(replication_factor=4, seed=3, faults=(Fault(0, SILENT),))
        assert stall_report(run_simulation(final4, cfg), cfg) == []

    def test_stalled_nodes_with_counts_from_events(self, final4):
        cfg = SimConfig(
            replication_factor=4, seed=5, faults=(Fault(0, SILENT), Fault(1, SILENT)),
        )
        trace = run_simulation(final4, cfg)
        # the two correct nodes only hear each other: one VOTE each, no COMMIT
        assert stall_report(trace, cfg) == [
            f"liveness: node {n} is STUCK on U0: 1 VOTE delivered for a quorum of "
            f"r-f=3 (own vote included), 0 COMMIT delivered for a quorum of f+1=2"
            for n in (2, 3)
        ]

    def test_stall_names_the_first_unfinished_update(self, final4):
        cfg = SimConfig(replication_factor=4, seed=3, scenario=CONCURRENT_UPDATES)
        trace = run_simulation(final4, cfg)
        doctored = dataclasses.replace(
            trace,
            statuses={**trace.statuses, 1: STUCK},
            finish_orders={**trace.finish_orders, 1: ("U0",)},
        )
        (line,) = stall_report(doctored, cfg)
        votes = sum(e.receiver == 1 and e.update == "U1" and e.message == "VOTE"
                    for e in trace.events)
        assert line.startswith(f"liveness: node 1 is STUCK on U1: {votes} VOTE delivered")

    def test_stuck_node_with_every_update_finished_reports_nothing(self, final4):
        # only a doctored trace has a STUCK node whose finish order is complete
        cfg = SimConfig(replication_factor=4, seed=3)
        trace = run_simulation(final4, cfg)
        doctored = dataclasses.replace(trace, statuses={**trace.statuses, 1: STUCK})
        assert doctored.finish_orders[1] == ("U0",)
        assert stall_report(doctored, cfg) == []

    def test_safety_names_two_nodes(self, final4):
        cfg = SimConfig(replication_factor=4, seed=3, scenario=CONCURRENT_UPDATES)
        trace = run_simulation(final4, cfg)
        doctored = dataclasses.replace(
            trace, finish_orders={**trace.finish_orders, 2: ("U1", "U0")},
        )
        assert stall_report(doctored, cfg) == [
            "safety: node 0 finished U0;U1 but node 2 finished U1;U0"
        ]


@pytest.mark.xfail(
    strict=True,
    reason="known defect: concurrent updates with one crash fault under "
    "random_interleave end FAIL(safety) at r = 4, seed 125; reproduce with "
    "`commitfsm simulate -r 4 --scenario concurrent_updates --crash 1 "
    "--delivery random_interleave --seed 125`",
)
def test_concurrent_crash_random_interleave_agrees(final4):
    cfg = SimConfig(
        replication_factor=4,
        seed=125,
        scenario=CONCURRENT_UPDATES,
        faults=(Fault(0, CRASH),),
        delivery=RANDOM_INTERLEAVE,
    )
    assert check_agreement(run_simulation(final4, cfg), cfg).ok


class TestCheckAgreement:
    def test_doctored_trace_fails_safety(self, final4):
        cfg = SimConfig(replication_factor=4, seed=3)
        trace = run_simulation(final4, cfg)
        doctored = dataclasses.replace(
            trace, finish_orders={**trace.finish_orders, 0: ("U1",)},
        )
        assert check_agreement(doctored, cfg) == Verdict(False, "safety")

    def test_missing_node_fails_liveness_within_budget(self, final4):
        cfg = SimConfig(replication_factor=4, seed=3)
        trace = run_simulation(final4, cfg)
        doctored = dataclasses.replace(
            trace,
            statuses={**trace.statuses, 2: STUCK},
            finish_orders={**trace.finish_orders, 2: ()},
        )
        assert check_agreement(doctored, cfg) == Verdict(False, "liveness")

    def test_verdict_strings(self):
        assert str(Verdict(True)) == "PASS"
        assert str(Verdict(False, "safety")) == "FAIL(safety)"


class TestCoSimulate:
    def test_empty_sequence_passes(self, final4, generated4):
        result = co_simulate(final4, generated4, [[]])
        assert result.ok and result.steps_checked == 0

    def test_mutated_module_fails_with_location(self, final4, tmp_path):
        from commitfsm.render import render_source
        import importlib.util

        src = render_source(final4, include_annotations=False)
        mutated = src.replace(
            "        if state == S_F_0_F_0_F_F_F:\n            self.set_state(S_F_1_F_0_F_F_F)",
            "        if state == S_F_0_F_0_F_F_F:\n            self.set_state(S_F_2_F_0_F_F_F)",
            1,
        )
        assert mutated != src
        path = tmp_path / "mutant.py"
        path.write_text(mutated)
        spec = importlib.util.spec_from_file_location("mutant", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

        result = co_simulate(final4, module, [["VOTE", "VOTE"]])
        assert not result.ok
        div = result.divergences[0]
        assert (div.sequence, div.step, div.message) == (0, 0, "VOTE")

    def test_random_sequences_are_seeded(self, final4):
        a = random_sequences(final4, 10, 15, seed=1)
        b = random_sequences(final4, 10, 15, seed=1)
        c = random_sequences(final4, 10, 15, seed=2)
        assert a == b
        assert a != c
