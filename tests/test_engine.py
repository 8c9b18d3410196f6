import functools
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commitfsm import bft
from commitfsm.engine import (
    GenerationError,
    MetaModelSpec,
    SpecError,
    enumerate_states,
    generate_transitions,
    generate_with_stats,
    merge_equivalent_once,
    prune_unreachable,
)
from commitfsm.fsm import (
    FINISH,
    BOOLEAN,
    BOUNDED_INTEGER,
    ComponentSpec,
    State,
    StateMachine,
    Transition,
    serialize,
    state_counts,
    state_name,
    validate,
)
from reference import (
    action_trace,
    bft_pipeline_args,
    bisimulation_oracle,
    machine_spec,
    merge_rounds,
    raw_machine,
    signature_groups,
)
from test_render import _notes, valid_machines


def one_flag_spec():
    return MetaModelSpec(
        components=(ComponentSpec("flag", BOOLEAN),),
        messages=("SET",),
        actions=(),
        replication_factor=4,
        fault_tolerance=1,
        start_vector=(False,),
    )


def pipeline_against_rounds(spec, rules, **kwargs):
    """generate_with_stats' machine and the merge_rounds of the raw machine
    (the name-level reference loop, which shares no merge code), asserted
    equal, with one pass per round; returns the machine and the rounds."""
    machine, stats = generate_with_stats(spec, rules, **kwargs)
    rounds = merge_rounds(generate_transitions(spec, rules, enumerate_states(spec), **kwargs))
    assert machine == rounds[-1]
    assert stats.passes == len(rounds)
    return machine, rounds


class TestEnumerate:
    def test_counts_for_the_family(self):
        assert len(enumerate_states(bft.bft_spec(4))) == 512
        assert len(enumerate_states(bft.bft_spec(7))) == 1568

    def test_single_boolean(self):
        assert enumerate_states(one_flag_spec()) == [(False,), (True,)]

    def test_lexicographic_in_declaration_order(self):
        vectors = enumerate_states(bft.bft_spec(4))
        assert vectors[0] == (False, 0, False, 0, False, False, False)
        assert vectors[-1] == (True, 3, True, 3, True, True, True)
        assert vectors == sorted(vectors)

    def test_empty_components_rejected(self):
        with pytest.raises(SpecError):
            MetaModelSpec(
                components=(),
                messages=("GO",),
                actions=(),
                replication_factor=4,
                fault_tolerance=1,
                start_vector=(),
            )

    def test_empty_messages_rejected(self):
        with pytest.raises(SpecError):
            MetaModelSpec(
                components=(ComponentSpec("flag", BOOLEAN),),
                messages=(),
                actions=(),
                replication_factor=4,
                fault_tolerance=1,
                start_vector=(False,),
            )

    def test_bad_start_vector_rejected(self):
        with pytest.raises(SpecError):
            MetaModelSpec(
                components=(ComponentSpec("flag", BOOLEAN),),
                messages=("GO",),
                actions=(),
                replication_factor=4,
                fault_tolerance=1,
                start_vector=(3,),
            )

    def test_duplicate_component_names_rejected(self):
        with pytest.raises(SpecError, match="duplicate component name 'flag'"):
            MetaModelSpec(
                components=(ComponentSpec("flag", BOOLEAN), ComponentSpec("flag", BOOLEAN)),
                messages=("GO",),
                actions=(),
                replication_factor=4,
                fault_tolerance=1,
                start_vector=(False, False),
            )

    @pytest.mark.parametrize("max_value", [True, False, 2.5, "3"])
    def test_integer_bound_that_is_no_plain_int_rejected(self, max_value):
        # serialize would write True as "max": true, which deserialize rejects.
        with pytest.raises(SpecError, match="needs an int max_value >= 0"):
            MetaModelSpec(
                components=(ComponentSpec("n", BOUNDED_INTEGER, max_value),),
                messages=("GO",),
                actions=(),
                replication_factor=4,
                fault_tolerance=1,
                start_vector=(0,),
            )


class TestGenerateTransitions:
    def test_totality(self, raw4):
        non_finish = [s for n, s in raw4.states.items() if n != FINISH]
        assert len(non_finish) == 512
        assert all(set(s.transitions) == set(raw4.messages) for s in non_finish)
        assert sum(len(s.transitions) for s in non_finish) == 512 * 5

    def test_finish_state_appended(self, raw4):
        assert raw4.states[FINISH].transitions == {}

    def test_documented_vote_transition(self, raw4):
        t = raw4.states["T/2/F/0/F/F/F"].transitions["VOTE"]
        assert t.actions == ("SEND_VOTE", "SEND_COMMIT")
        assert t.to == "T/3/T/0/T/F/F"

    def test_vote_from_start(self, raw4):
        t = raw4.states["F/0/F/0/F/F/F"].transitions["VOTE"]
        assert t.actions == ()
        assert t.to == "F/1/F/0/F/F/F"

    def test_out_of_domain_successor_rejected(self):
        spec = one_flag_spec()
        rules = {"SET": lambda s: ((), (2,))}
        with pytest.raises(GenerationError, match="SET"):
            generate_transitions(spec, rules, enumerate_states(spec))

    def test_undeclared_action_rejected(self):
        spec = one_flag_spec()
        rules = {"SET": lambda s: (("BOOM",), (True,))}
        with pytest.raises(GenerationError, match="BOOM"):
            generate_transitions(spec, rules, enumerate_states(spec))

    def test_missing_rule_rejected(self):
        spec = one_flag_spec()
        with pytest.raises(SpecError, match="SET"):
            generate_transitions(spec, {}, enumerate_states(spec))

    def test_unhashable_successor_rejected(self):
        spec = one_flag_spec()
        rules = {"SET": lambda s: ((), ([True],))}
        with pytest.raises(GenerationError, match="outside the component domain"):
            generate_transitions(spec, rules, enumerate_states(spec))

    def test_string_successor_other_than_finish_rejected(self):
        spec = one_flag_spec()
        rules = {"SET": lambda s: ((), "DONE")}
        with pytest.raises(GenerationError, match="bad successor 'DONE'"):
            generate_transitions(spec, rules, enumerate_states(spec))

    def test_states_without_the_start_vector_rejected(self):
        spec = one_flag_spec()
        rules = {"SET": lambda s: ((), (True,))}
        with pytest.raises(SpecError, match="start_vector is not among"):
            generate_transitions(spec, rules, [(True,)])


class TestGenerateReachable:
    """generate_with_stats runs the rules forward from the start vector only."""

    def test_initial_is_the_component_space(self):
        for r in (4, 7):
            _, stats = bft.generate_with_stats(r)
            assert stats.initial == len(enumerate_states(bft.bft_spec(r)))

    def test_finish_state_only_when_reached(self):
        spec = one_flag_spec()
        machine, _ = generate_with_stats(spec, {"SET": lambda s: ((), (True,))})
        assert set(machine.states) == {"F", "T"}
        machine, _ = generate_with_stats(spec, {"SET": lambda s: ((), FINISH)})
        assert set(machine.states) == {"F", FINISH}

    def test_successor_equal_to_a_domain_vector(self):
        # 1 == True: the successor names state T, as in generate_transitions
        spec = one_flag_spec()
        rules = {"SET": lambda s: ((), (1,))}
        forward, _ = pipeline_against_rounds(spec, rules)
        assert forward.states["F"].transitions["SET"].to == "T"

    @pytest.mark.parametrize(
        "result, match",
        [
            ((("BOOM",), (True,)), "BOOM"),
            (((), (2,)), "outside the component domain"),
            (((), (None,)), "outside the component domain"),
            (((), (True, False)), "outside the component domain"),
            (((), [True]), "outside the component domain"),
            (((), "DONE"), "bad successor"),
            (((), ([True],)), "outside the component domain"),
        ],
    )
    def test_rule_error_on_reachable_state(self, result, match):
        # the start state F reaches T, whose rule misbehaves
        spec = one_flag_spec()
        rules = {"SET": lambda s: result if s[0] else ((), (True,))}
        with pytest.raises(GenerationError, match=match) as info:
            generate_with_stats(spec, rules)
        assert (info.value.state, info.value.message) == ("T", "SET")
        assert "'T'" in str(info.value)

    def test_rule_error_on_unreachable_state_goes_unreported(self):
        # T is never reached from F, so only the full-space stage sees its error
        spec = one_flag_spec()
        rules = {"SET": lambda s: (("BOOM",), (True,)) if s[0] else ((), (False,))}
        machine, stats = generate_with_stats(spec, rules)
        assert set(machine.states) == {"F"}
        assert (stats.initial, stats.after_prune, stats.final) == (2, 1, 1)
        with pytest.raises(GenerationError, match="BOOM"):
            generate_transitions(spec, rules, enumerate_states(spec))

    def test_missing_rule_rejected(self):
        with pytest.raises(SpecError, match="SET"):
            generate_with_stats(one_flag_spec(), {})

    def test_start_vector_given_as_a_list(self):
        # the spec stores it as a tuple, so both paths can look it up
        spec = MetaModelSpec(
            components=(ComponentSpec("flag", BOOLEAN),),
            messages=("SET",),
            actions=(),
            replication_factor=4,
            fault_tolerance=1,
            start_vector=[False],
        )
        assert spec.start_vector == (False,)
        rules = {"SET": lambda s: ((), (not s[0],))}
        machine, _ = pipeline_against_rounds(spec, rules)
        assert set(machine.states) == {"F", "T"}

    @settings(deadline=None)
    @given(st.data())
    def test_equals_the_stage_composition_on_drawn_specs(self, data):
        spec, rules = data.draw(table_specs())
        kwargs = dict(
            annotate_state=lambda v: (f"at {state_name(v, spec.components)}", "shared"),
            # the source, message and actions only: a survivor's successor
            # is its representative on one path and the merged member on the other
            annotate_transition=lambda v, m, a, s: (f"{m} {a} finishes={s == FINISH}",),
            finish_annotations=("done",),
        )
        pipeline_against_rounds(spec, rules, **kwargs)


def _twin(value):
    """The equal value of the other type (1 for True, False for 0), if any."""
    if isinstance(value, bool):
        return int(value)
    return bool(value) if value in (0, 1) else value


@st.composite
def table_specs(draw):
    """A spec of one to three boolean or small integer components and
    table-driven rules.  A rule reads a drawn subset of the components; per
    value of that subset and message it has drawn actions and either FINISH
    or, for some components, a new value or a step to the next value
    (wrapping round), the others kept.  States that differ only in
    components the rule does not read act alike, so merges happen, some
    over several rounds.  Some successor values are swapped for the equal
    value of the other type, which still names the domain's state.

    The table comes from a Random seeded by the draw: Hypothesis' own draws
    shrink towards rules that leave the state as it is, and those rarely
    reach two states that merge.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    components = tuple(
        ComponentSpec(f"c{k}", BOOLEAN)
        if rng.random() < 0.5
        else ComponentSpec(f"c{k}", BOUNDED_INTEGER, rng.randint(0, 3))
        for k in range(rng.randint(1, 3))
    )
    messages = tuple(f"M{k}" for k in range(rng.randint(1, 3)))
    vectors = list(itertools.product(*(c.domain() for c in components)))
    spec = MetaModelSpec(components, messages, ("A", "B"), 4, 1, rng.choice(vectors))
    positions = range(len(components))
    read = [k for k in positions if rng.random() < 0.5]
    table = {}
    for key in sorted({tuple(v[k] for k in read) for v in vectors}):
        for message in messages:
            actions = tuple(rng.choices(spec.actions, k=rng.randint(0, 2)))
            if rng.random() < 0.1:
                table[key, message] = actions, FINISH
                continue
            # per written component: a value, or None for "the next value"
            written = {
                k: rng.choice(components[k].domain() + (None,))
                for k in positions
                if rng.random() < 0.8
            }
            swapped = {k for k in positions if rng.random() < 0.3}
            table[key, message] = actions, (written, swapped)

    def rule(message, v):
        actions, succ = table[tuple(v[k] for k in read), message]
        if succ == FINISH:
            return actions, FINISH
        written, swapped = succ
        new = []
        for k, x in enumerate(v):
            domain = components[k].domain()
            x = written.get(k, x)
            new.append(domain[(domain.index(v[k]) + 1) % len(domain)] if x is None else x)
        return actions, tuple(_twin(x) if k in swapped else x for k, x in enumerate(new))

    return spec, {m: functools.partial(rule, m) for m in messages}


class TestPrune:
    def test_family_r4_prunes_to_48(self, pruned4):
        assert state_counts(pruned4)[1] == 48

    def test_no_commit_count_above_fault_tolerance(self, pruned4):
        for name in pruned4.states:
            if name == FINISH:
                continue
            assert int(name.split("/")[3]) <= 1

    def test_fixpoint_on_pruned_machine(self, pruned4):
        assert prune_unreachable(pruned4) is pruned4

    def test_no_dangling_after_prune(self, pruned4):
        assert validate(pruned4) == []


def chain_machine():
    """A -> B -> C -> FINISH on GO, where B and C behave identically to D/E."""
    def st(name, go_to, actions=()):
        return State(name, {"GO": Transition(tuple(actions), go_to)})

    states = {
        "A": st("A", "B"),
        "B": st("B", "C"),
        "C": st("C", FINISH),
        "D": st("D", "E"),
        "E": st("E", FINISH),
        FINISH: State(FINISH, {}),
    }
    return StateMachine(
        replication_factor=4,
        fault_tolerance=1,
        components=(ComponentSpec("x", BOOLEAN),),
        messages=("GO",),
        actions=(),
        states=states,
        start_state="A",
    )


class TestMerge:
    def test_identical_states_merge(self):
        m = chain_machine()
        merged, changed = merge_equivalent_once(m)
        assert changed
        # C and E both step to FINISH with no actions; C is reached first
        assert "E" not in merged.states
        assert merged.states["B"].transitions["GO"].to == "C"
        assert merged.states["D"].transitions["GO"].to == "C"

    def test_annotations_concatenated_and_deduplicated(self):
        m = chain_machine()
        m.states["C"] = m.states["C"]._replace(annotations=("shared", "c-only"))
        m.states["E"] = m.states["E"]._replace(annotations=("shared", "e-only"))
        merged, _ = merge_equivalent_once(m)
        assert merged.states["C"].annotations == ("shared", "c-only", "e-only")

    def test_all_distinct_machine_unchanged(self, final4):
        merged, changed = merge_equivalent_once(final4)
        assert not changed
        assert merged is final4

    def test_self_loops_do_not_block_merging(self):
        m = chain_machine()
        for name in ("C", "E"):
            m.states[name] = State(
                name,
                {"GO": Transition((), FINISH), "STAY": Transition((), name)},
            )
        for name in ("A", "B", "D"):
            t = m.states[name].transitions["GO"]
            m.states[name] = State(name, {"GO": t, "STAY": Transition((), name)})
        m.states[FINISH] = State(FINISH, {})
        m.messages = ("GO", "STAY")
        merged, changed = merge_equivalent_once(m)
        assert changed
        assert "E" not in merged.states

    def test_representative_is_first_reached(self, final4):
        # the FREE destination documented for the r=4 machine is reached
        # earlier than its lexicographically smaller equivalents
        t = final4.states["T/2/F/0/F/F/F"].transitions["FREE"]
        assert t.to == "T/2/T/0/T/T/T"

    def test_finish_never_merges(self, final4):
        assert FINISH in final4.states


@st.composite
def machines_with_copies(draw):
    """A valid_machines() draw in which every state but the finish has a
    copy with the same actions and notes of its own, and each transition
    leads to the original or the copy of its destination, so that states
    merge, some only after their successors did."""
    machine = draw(valid_machines())
    finish = machine.finish_state
    states = {finish: machine.states[finish]}
    for name, state in machine.states.items():
        if name == finish:
            continue
        for copy in (name, name + "'"):  # drawn names never hold "'"
            transitions = {
                m: t if t.to == finish else t._replace(to=t.to + draw(st.sampled_from(["", "'"])))
                for m, t in state.transitions.items()
            }
            states[copy] = State(copy, transitions, draw(_notes))
    return replace(machine, states=states)


def renamed_by_index(machine):
    """machine's states, each but the finish renamed to its index in
    machine.states and the finish to FINISH, with the start's new name."""
    finish = machine.finish_state
    new = {name: str(i) for i, name in enumerate(n for n in machine.states if n != finish)}
    new[finish] = FINISH
    states = {
        new[name]: State(new[name], {
            m: Transition(t.actions, new[t.to], t.annotations) for m, t in st.transitions.items()
        }, st.annotations)
        for name, st in machine.states.items()
    }
    return states, new[machine.start_state]


class TestMachineSpec:
    """machine_spec replays a machine: its raw machine is the input renamed."""

    @staticmethod
    def check(machine):
        spec, rules, kwargs = machine_spec(machine)
        raw = generate_transitions(spec, rules, enumerate_states(spec), **kwargs)
        states, start = renamed_by_index(machine)
        assert raw.states == states  # every state, transition and annotation
        assert (raw.start_state, raw.finish_state) == (start, FINISH)
        assert (raw.messages, raw.actions) == (machine.messages, machine.actions)

    def test_final4(self, final4):
        self.check(final4)

    def test_raw4(self, raw4):
        self.check(raw4)

    @settings(deadline=None, max_examples=20)
    @given(machines_with_copies())
    def test_drawn_machines(self, machine):
        self.check(machine)


class TestMinimize:
    def test_family_r4_minimizes_to_33(self, final4):
        assert state_counts(final4)[0] == 33

    def test_idempotent(self, final4):
        assert merge_rounds(final4) == [final4]  # nothing to prune or merge

    def test_result_validates(self, final4, final7):
        assert validate(final4) == []
        assert validate(final7) == []

    def test_monotone_shrinkage(self):
        _, stats = bft.generate_with_stats(4)
        counts = [stats.initial, stats.after_prune, *stats.merge_passes]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_behaviour_preserved_exhaustively(self, raw4, final4):
        for seq in itertools.product(raw4.messages, repeat=4):
            assert action_trace(raw4, seq) == action_trace(final4, seq)

    def test_pipeline_equals_stage_composition(self, raw4, final4):
        composed = merge_rounds(prune_unreachable(raw4))[-1]
        assert serialize(composed) == serialize(final4)

    @settings(deadline=None)
    @given(machines_with_copies())
    def test_properties_on_drawn_machines(self, machine):
        spec, rules, kwargs = machine_spec(machine)
        result, _ = pipeline_against_rounds(spec, rules, **kwargs)
        assert validate(result) == []
        spec, rules, kwargs = machine_spec(result)
        _, again = generate_with_stats(spec, rules, **kwargs)
        assert again.merge_passes == ()  # a second pass merges nothing
        for n in range(1, 5):
            for seq in itertools.product(machine.messages, repeat=n):
                assert action_trace(result, seq) == action_trace(machine, seq)


def copied_layers_machine(rng):
    """Random machine with merges several rounds deep.

    A small layered plan (one start state, then up to six layers of plan
    states) fixes per message the actions and the destination: itself, a
    plan state one layer down (FINISH below the last), or now and then one
    of its own layer or above.  Each plan state gets one to three copies,
    each wired to random copies of its destinations.
    """
    layers = [[["s0"]]]
    k = 1
    for _ in range(rng.randint(1, 6)):
        layer = []
        for _ in range(rng.randint(1, 3)):
            n = rng.randint(1, 3)
            layer.append([f"s{k + i}" for i in range(n)])
            k += n
        layers.append(layer)
    states = {}
    for depth, layer in enumerate(layers):
        below = layers[depth + 1] if depth + 1 < len(layers) else [[FINISH]]
        above = [group for upper in layers[: depth + 1] for group in upper]
        for group in layer:
            plan = {}
            for msg in ("A", "B"):
                x = rng.random()
                to = None if x < 0.3 else rng.choice(above if x < 0.4 else below)
                plan[msg] = (("X",) if rng.random() < 0.3 else (), to)
            for name in group:
                states[name] = State(name, {
                    msg: Transition(actions, name if to is None else rng.choice(to), (msg,))
                    for msg, (actions, to) in plan.items()
                }, (name,))
    states[FINISH] = State(FINISH, {})
    return StateMachine(4, 1, (ComponentSpec("x", BOOLEAN),), ("A", "B"), ("X",),
                        states, "s0", FINISH)


class TestMergeRounds:
    @pytest.mark.parametrize("r", range(4, 17))
    def test_equals_the_reprune_loop(self, r):
        raw = raw_machine(r)
        rounds = merge_rounds(raw)
        reference = rounds[-1]
        machine, stats = bft.generate_with_stats(r)
        # == compares every state, transition and annotation
        assert machine == reference
        assert list(stats.merge_passes) == [state_counts(m)[1] for m in rounds[1:]]
        assert stats.passes == len(rounds)
        assert stats.after_prune == state_counts(rounds[0])[1]

    def test_equals_the_reprune_loop_on_random_machines(self):
        rng = random.Random(20261018)
        passes = []
        unpruned = 0
        for _ in range(300):
            m = copied_layers_machine(rng)
            unpruned += prune_unreachable(m) is not m
            spec, rules, kwargs = machine_spec(m)
            _, rounds = pipeline_against_rounds(spec, rules, **kwargs)
            passes.append(len(rounds))
        assert max(passes) >= 4  # the generator does exercise later rounds
        assert unpruned >= 30  # and inputs with unreachable states

    def test_annotates_only_the_survivors(self):
        # r = 25: 1,350 reached states, 901 survive (FINISH included), and
        # only the survivors' transitions are annotated, five messages each
        spec, rules, kwargs = bft_pipeline_args(25)
        calls = []

        def annotate_transition(*args):
            calls.append(args)
            return bft.annotate_transition(*args)

        kwargs["annotate_transition"] = annotate_transition
        machine, stats = generate_with_stats(spec, rules, **kwargs)
        assert (stats.after_prune, stats.final) == (1350, 901)
        assert len(calls) == 5 * (stats.final - 1) == 4500


class TestBisimulationOracle:
    def test_single_state_machine(self):
        st = State("A", {"GO": Transition((), "A")})
        m = StateMachine(4, 1, (ComponentSpec("x", BOOLEAN),), ("GO",), (), {"A": st}, "A", FINISH)
        parts = bisimulation_oracle(m)
        assert parts == (frozenset({"A"}),)

    def test_action_difference_splits(self):
        a = State("A", {"GO": Transition(("ACT",), FINISH)})
        b = State("B", {"GO": Transition((), FINISH)})
        m = StateMachine(
            4, 1, (ComponentSpec("x", BOOLEAN),), ("GO",), ("ACT",),
            {"A": a, "B": b, FINISH: State(FINISH, {})}, "A", FINISH,
        )
        parts = bisimulation_oracle(m)
        assert frozenset({"A"}) in parts and frozenset({"B"}) in parts

    def test_equivalent_chain_tail_in_one_class(self):
        parts = bisimulation_oracle(chain_machine())
        classes = {name: i for i, part in enumerate(parts) for name in part}
        assert classes["C"] == classes["E"]
        assert classes["B"] == classes["D"]

    def test_merged_states_are_bisimilar(self, pruned4):
        # soundness: every pair the pipeline merges is bisimilar in the input
        parts = bisimulation_oracle(pruned4)
        cls = {name: i for i, part in enumerate(parts) for name in part}
        for m in merge_rounds(pruned4):
            for members in signature_groups(m):
                ids = {cls[name] for name in members}
                assert len(ids) == 1, f"merged non-bisimilar states: {members}"

    def test_oracle_may_be_coarser_than_merge(self, pruned4, final4):
        # the slot flags toggle in cycles, which name-based merging cannot
        # collapse; the oracle is allowed to be coarser and this documents it
        oracle_classes = len(bisimulation_oracle(pruned4))
        assert oracle_classes <= len(final4.states)


class TestStats:
    def test_csv_row_shape(self):
        _, stats = bft.generate_with_stats(4)
        parts = stats.csv_row().split(",")
        assert len(parts) == 7
        assert parts[:5] == ["1", "4", "512", "48", "33"]

    def test_stage_seconds_add_up_to_the_total(self):
        _, stats = bft.generate_with_stats(4)
        assert stats.generate_s > 0 and stats.merge_s > 0
        assert abs(stats.generate_s + stats.merge_s - stats.millis / 1000) < 0.0011

