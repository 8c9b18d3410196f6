import dataclasses
import hashlib
import random

import pytest

import trace_digest
from commitfsm import bft, sim
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
    FAULT_KINDS,
    FIFO_PER_LINK,
    FINISHED,
    RANDOM_INTERLEAVE,
    SCENARIOS,
    SILENT,
    SINGLE_UPDATE,
    STUCK,
    ConfigError,
    Event,
    Fault,
    SimConfig,
    SimTrace,
    SlotController,
    Verdict,
    _below,
    _layout,
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

    @pytest.mark.parametrize("node", ["1", True, 1.0, -1, None])
    def test_fault_node_that_is_no_plain_int_rejected(self, node):
        # "1" raised TypeError in SimConfig; 1.0 silenced node 1
        with pytest.raises(ConfigError, match="fault node"):
            Fault(node, SILENT)

    @pytest.mark.parametrize(
        "kind, crash_step",
        [(SILENT, 2), (BYZANTINE, 0), (CRASH, -1), (CRASH, True), (CRASH, 1.5), (CRASH, "3")],
    )
    def test_invalid_crash_step_rejected(self, kind, crash_step):
        with pytest.raises(ConfigError, match="crash_step"):
            Fault(0, kind, crash_step)

    @pytest.mark.parametrize("crash_step", [None, 0, 7])
    def test_valid_crash_step_accepted(self, crash_step):
        assert Fault(0, CRASH, crash_step).crash_step == crash_step

    @pytest.mark.parametrize(
        "field, value",
        [("replication_factor", 4.0), ("replication_factor", True), ("replication_factor", "4"),
         ("seed", None), ("seed", 0.0), ("seed", "0"), ("seed", False)],
    )
    def test_size_or_seed_that_is_no_plain_int_rejected(self, field, value):
        # a seed of None drew from OS entropy, so one config gave two traces;
        # a size of 4.0 passed here and raised TypeError in run_simulation
        with pytest.raises(ConfigError, match=f"{field} {value!r} must be an int"):
            SimConfig(**{"replication_factor": 4, "seed": 0, field: value})

    @pytest.mark.parametrize("seed", [-1, -3])
    def test_negative_seed_rejected(self, seed):
        # random.Random(-3) seeds as Random(3), so seed -3 replayed seed 3
        with pytest.raises(ConfigError, match=f"seed {seed} must be an int >= 0"):
            SimConfig(4, seed)

    @pytest.mark.parametrize("faults", [((0, SILENT),), (None,), "silent", None])
    def test_fault_plan_that_is_no_tuple_of_faults_rejected(self, faults):
        # a (node, kind) pair raised AttributeError, None TypeError
        with pytest.raises(ConfigError, match="fault plan"):
            SimConfig(4, 0, faults=faults)

    @pytest.mark.parametrize("faults", [[Fault(1, SILENT)], []])
    def test_fault_plan_list_is_stored_as_a_tuple(self, faults):
        # a list was stored as given, and hash(config) raised TypeError
        config = SimConfig(4, 0, faults=faults)
        assert config.faults == tuple(faults)
        assert hash(config) == hash(SimConfig(4, 0, faults=tuple(faults)))

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
        assert c.on_put("U1") == []
        assert c.granted == "U0"

    def test_history_waits_for_the_earlier_update(self):
        c = SlotController(("U0", "U1"))
        c.on_put("U0")
        c.on_put("U1")
        # the node learns of U1's commit before U0's
        assert c.on_finish("U1") == []
        assert (c.finished, c.done, c.granted) == ({"U1"}, 0, "U0")
        assert c.on_finish("U0") == []
        assert (c.done, c.granted) == (2, None)

    def test_put_after_its_finish_grants_the_next_update(self):
        c = SlotController(("U0", "U1"))
        assert c.on_finish("U0") == []
        assert c.on_put("U0") == [] and c.pending == set()
        assert c.on_put("U1") == [("FREE", "U1")]


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

    def test_commit_after_a_put_with_no_vote_delivered(self):
        # a hand-built trace: the node's own vote is the only one it has
        events = (
            Event(1, "client", 0, "PUT", "U0", "A", "B", ("SEND_VOTE",)),
            Event(2, "ctrl", 0, "FREE", "U0", "B", "C", ("SEND_COMMIT",)),
        )
        trace = SimTrace(4, SINGLE_UPDATE, 0, FIFO_PER_LINK, events, {}, {}, ())
        assert check_quorum_safety(trace, 2, 2) == [
            "step 2: SEND_COMMIT with total votes 1 < 2"
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


def _vote_again(machine, trigger):
    """The machine with SEND_VOTE appended to every transition that performs `trigger`."""
    states = {name: s._replace(transitions={
        m: t._replace(actions=t.actions + ("SEND_VOTE",)) if trigger in t.actions else t
        for m, t in s.transitions.items()}) for name, s in machine.states.items()}
    return dataclasses.replace(machine, states=states)


def _repeated_sends(machine):
    """(state, message, action) of each reachable transition that performs a
    broadcasting action twice, or one that some path from the start state to
    it has already performed.

    One fixed-point walk: ``sent[s]`` is the union, over the paths that reach
    s, of the broadcasting actions along them.
    """
    wire = {a for a in machine.actions if action_message(a)}
    sent = {machine.start_state: frozenset()}
    work = [machine.start_state]
    while work:
        name = work.pop()
        for t in machine.states[name].transitions.values():
            after = sent[name].union(a for a in t.actions if a in wire)
            before = sent.get(t.to)
            if before is None or not after <= before:
                sent[t.to] = after | (before or frozenset())
                work.append(t.to)
    return [(name, m, a) for name in sorted(sent)
            for m, t in machine.states[name].transitions.items()
            for a in dict.fromkeys(t.actions)
            if a in wire and (a in sent[name] or t.actions.count(a) > 1)]


class TestAtMostOnceSends:
    """A node's machine for one update broadcasts each message at most once
    along any path, which is why run_simulation checks for repeats only the
    deliveries of Byzantine senders and of nodes that broadcast twice."""

    @pytest.mark.parametrize("r", [4, 7, 13, 25])
    def test_generated_machines_never_send_twice(self, r):
        assert _repeated_sends(bft.generate(r)) == []

    @pytest.fixture
    def checked(self, monkeypatch):
        """The sender of each delivery run_simulation checks for a repeat.

        Every ``set()`` that sim builds becomes one that records its added
        items; the checked deliveries are the (sender, receiver, message,
        update) items that reach a set.
        """
        senders = []

        class Recording(set):
            def add(self, item):
                if type(item) is tuple and len(item) == 4:
                    senders.append(item[0])
                super().add(item)

        monkeypatch.setattr(sim, "set", Recording, raising=False)
        return senders

    @pytest.mark.parametrize("delivery", DELIVERY_MODES)
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_only_byzantine_senders_are_checked(self, final7, checked, scenario, delivery):
        for faults in [(), (Fault(1, CRASH), Fault(2, SILENT)), (Fault(3, BYZANTINE),)]:
            for seed in range(3):
                run_simulation(final7, SimConfig(7, seed, scenario, faults, delivery))
        assert checked and set(checked) == {"3"}

    @pytest.mark.parametrize("delivery", DELIVERY_MODES)
    def test_a_correct_node_is_checked_once_it_repeats(self, final4, checked, delivery):
        config = SimConfig(4, 0, CONCURRENT_UPDATES, delivery=delivery)
        run_simulation(_vote_again(final4, "SEND_COMMIT"), config)
        assert set(checked) == {"0", "1", "2", "3"}

    @pytest.mark.parametrize("trigger", ["SEND_VOTE", "SEND_COMMIT"])
    def test_the_repeating_test_machines_are_caught(self, final4, trigger):
        machine = _vote_again(final4, trigger)
        repeats = _repeated_sends(machine)
        assert repeats and {a for _, _, a in repeats} == {"SEND_VOTE"}
        # only the committing ones vote again a step or more after the first vote
        later = [(name, m) for name, m, a in repeats
                 if machine.states[name].transitions[m].actions.count(a) == 1]
        assert bool(later) == (trigger == "SEND_COMMIT")


class TestTracePin:
    def test_traces_match_the_pinned_digest(self):
        value, runs, events = trace_digest.digest()
        assert (runs, events) == (1080, 165680)
        assert value == trace_digest.TRACE_DIGEST

    def test_mixed_faults_match_the_pinned_digest(self):
        # a crash step counts distinct deliveries: a repeat a Byzantine
        # sender forges, discarded by deduplication, does not spend it
        value, runs, events = trace_digest.mixed_digest()
        assert (runs, events) == (1200, 155732)
        assert value == trace_digest.MIXED_DIGEST

    @pytest.mark.parametrize("scenario, delivery, digest", [
        (SINGLE_UPDATE, FIFO_PER_LINK,
         "d04bd414f1e294718270c51120ed2251da561e8a6877dcb98f262b392b003165"),
        (SINGLE_UPDATE, RANDOM_INTERLEAVE,
         "f8b53f975e7cabb590e51760b43db23ee2ea983e8101f6c661ceeaa5dd57eb9f"),
        (CONCURRENT_UPDATES, FIFO_PER_LINK,
         "bd9d859c35d184ff7cb44bf064c0f8996e4c9a52b2dc68c813769b87adad9b77"),
        (CONCURRENT_UPDATES, RANDOM_INTERLEAVE,
         "74646b118fdb54fdd1d26f3034d7652fd2a7d0302a4543b4f2c7468c9ac137fc"),
    ])
    def test_repeated_broadcast_matches_the_pinned_digest(self, final4, scenario, delivery, digest):
        # every voting transition votes twice, so each correct node puts every
        # VOTE twice on each of its links: the digests pin the shared link
        # queues and the deduplication of repeats, which generated machines
        # never send; recorded before the delivery loop was inlined
        machine = _vote_again(final4, "SEND_VOTE")
        assert validate(machine) == []
        config = SimConfig(4, 0, scenario, delivery=delivery)
        trace = run_simulation(machine, config)
        assert trace.counters.deduplicated == 12 * len(config.updates)
        assert hashlib.sha256(trace.serialize().encode()).hexdigest() == digest

    @pytest.mark.parametrize("r, deduplicated, digest", [
        (4, 562, "eaac06e0d4a1f2ef09b0445bb435e9d17d8f69f94e08b0292003f38ed0ef789e"),
        (7, 2200, "51b5ad79781b34213f2525884f62f104a71b05534077d8ec6e71490d770a8436"),
    ])
    def test_repeat_in_a_later_step_matches_the_pinned_digest(self, r, deduplicated, digest):
        # every committing transition votes again, so a node repeats its VOTE
        # a step or more after the first copies, some of them already delivered:
        # those must still count as seen; recorded before deliveries of senders
        # that cannot repeat skipped the check
        machine = _vote_again(bft.generate(r), "SEND_COMMIT")
        assert validate(machine) == []
        h = hashlib.sha256()
        total = 0
        for scenario in SCENARIOS:
            for delivery in DELIVERY_MODES:
                for seed in range(10):
                    config = SimConfig(r, seed, scenario, (Fault(1, CRASH),), delivery)
                    trace = run_simulation(machine, config)
                    h.update(trace.serialize().encode())
                    total += trace.counters.deduplicated
        assert (total, h.hexdigest()) == (deduplicated, digest)

    def test_mixed_faults_in_reverse_order_match_the_pinned_digest(self):
        # the shared layout is built afresh in the opposite order, r = 13 first;
        # each run's text, hashed back in forward order, is the forward run's
        _layout.cache_clear()
        machines = {r: bft.generate(r) for r in trace_digest.ROWS}
        configs = list(trace_digest.mixed_matrix())[::-1]
        texts = [run_simulation(machines[c.replication_factor], c).serialize() for c in configs]
        assert hashlib.sha256("".join(texts[::-1]).encode()).hexdigest() == trace_digest.MIXED_DIGEST

    @pytest.mark.parametrize("delivery", DELIVERY_MODES)
    def test_a_run_leaves_the_shared_layout_as_built(self, final4, delivery):
        updates = ("U0", "U1")
        layout = _layout(4, updates)
        faults = (Fault(0, BYZANTINE), Fault(1, CRASH))
        for seed in range(5):
            run_simulation(final4, SimConfig(4, seed, CONCURRENT_UPDATES, faults, delivery))
        assert _layout(4, updates) is layout
        assert layout == _layout.__wrapped__(4, updates)

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

    def test_safety_compares_with_the_first_finished_node(self, final4):
        cfg = SimConfig(replication_factor=4, seed=3, scenario=CONCURRENT_UPDATES)
        trace = run_simulation(final4, cfg)
        doctored = dataclasses.replace(
            trace, finish_orders={**trace.finish_orders, 1: ("U1", "U0")},
        )
        assert stall_report(doctored, cfg) == [
            "safety: node 0 finished U0;U1 but node 1 finished U1;U0"
        ]


def test_concurrent_crash_random_interleave_agrees(final4):
    cfg = SimConfig(
        replication_factor=4,
        seed=125,
        scenario=CONCURRENT_UPDATES,
        faults=(Fault(0, CRASH),),
        delivery=RANDOM_INTERLEAVE,
    )
    assert check_agreement(run_simulation(final4, cfg), cfg).ok


@pytest.mark.slow
def test_tolerated_fault_matrix_passes():
    # r in {4, 7, 13}, seeds 0-299, both scenarios, each fault kind on nodes
    # 0..f-1, both delivery modes: 10,800 runs, every history a prefix of the
    # priority order even where a node learns of U1's commit before U0's
    failures = []
    runs = 0
    for r in (4, 7, 13):
        machine = bft.generate(r)
        faulty = range(bft.fault_tolerance(r))
        for scenario in SCENARIOS:
            for kind in FAULT_KINDS:
                for delivery in DELIVERY_MODES:
                    faults = tuple(Fault(n, kind) for n in faulty)
                    for seed in range(300):
                        cfg = SimConfig(r, seed, scenario, faults, delivery)
                        trace = run_simulation(machine, cfg)
                        runs += 1
                        verdict = check_agreement(trace, cfg)
                        if not verdict.ok:
                            failures.append((cfg, str(verdict)))
                        for order in trace.finish_orders.values():
                            assert order == cfg.updates[:len(order)], cfg
    assert runs == 10_800
    assert failures == []


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
