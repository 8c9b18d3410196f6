import json
import sys

import pytest

from commitfsm import bft, engine
from commitfsm.fsm import (
    FINISH,
    BOOLEAN,
    BOUNDED_INTEGER,
    ComponentSpec,
    DocumentParseError,
    DocumentValidationError,
    DomainError,
    State,
    StateMachine,
    TerminalStateError,
    Transition,
    UnknownMessageError,
    UnknownStateError,
    deserialize,
    reachable_names,
    serialize,
    state_counts,
    state_name,
    step,
    validate,
)

# CPython's limit on the digits of an integer literal json.loads converts; 0: none
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

COMPONENTS = bft.components_for(4)


class TestStateName:
    def test_documented_example(self):
        vec = (True, 2, False, 0, False, False, False)
        assert state_name(vec, COMPONENTS) == "T/2/F/0/F/F/F"

    def test_all_zero(self):
        vec = (False, 0, False, 0, False, False, False)
        assert state_name(vec, COMPONENTS) == "F/0/F/0/F/F/F"

    def test_after_vote(self):
        vec = (True, 3, True, 0, True, False, False)
        assert state_name(vec, COMPONENTS) == "T/3/T/0/T/F/F"

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            state_name((True, 2), COMPONENTS)

    def test_out_of_domain_integer(self):
        with pytest.raises(DomainError):
            state_name((True, 4, False, 0, False, False, False), COMPONENTS)

    def test_integer_component_rejects_bool(self):
        with pytest.raises(DomainError):
            state_name((True, True, False, 0, False, False, False), COMPONENTS)

    def test_boolean_component_rejects_int(self):
        with pytest.raises(DomainError):
            state_name((1, 2, False, 0, False, False, False), COMPONENTS)

    def test_injective_over_full_domain(self):
        vectors = engine.enumerate_states(bft.bft_spec(4))
        assert len({state_name(v, COMPONENTS) for v in vectors}) == len(vectors) == 512


class TestStep:
    def test_vote_transition(self, raw4):
        actions, nxt = step(raw4, "T/2/F/0/F/F/F", "VOTE")
        assert actions == ("SEND_VOTE", "SEND_COMMIT")
        assert nxt == "T/3/T/0/T/F/F"

    def test_commit_transition(self, raw4):
        actions, nxt = step(raw4, "T/2/F/0/F/F/F", "COMMIT")
        assert actions == ()
        assert nxt == "T/2/F/1/F/F/F"

    def test_vote_from_start(self, raw4):
        actions, nxt = step(raw4, "F/0/F/0/F/F/F", "VOTE")
        assert actions == ()
        assert nxt == "F/1/F/0/F/F/F"

    def test_unknown_state(self, raw4):
        with pytest.raises(UnknownStateError):
            step(raw4, "T/9/F/0/F/F/F", "VOTE")

    def test_unknown_message(self, raw4):
        with pytest.raises(UnknownMessageError):
            step(raw4, "F/0/F/0/F/F/F", "PING")

    def test_finish_is_terminal(self, raw4):
        with pytest.raises(TerminalStateError):
            step(raw4, FINISH, "VOTE")


def tiny_machine():
    """Two states and a finish, total over two messages."""
    a = State("A", {
        "GO": Transition(("ACT",), "B"),
        "STAY": Transition((), "A"),
    })
    b = State("B", {
        "GO": Transition((), FINISH),
        "STAY": Transition((), "B"),
    })
    fin = State(FINISH, {})
    return StateMachine(
        replication_factor=4,
        fault_tolerance=1,
        components=(ComponentSpec("x", BOOLEAN),),
        messages=("GO", "STAY"),
        actions=("ACT",),
        states={"A": a, "B": b, FINISH: fin},
        start_state="A",
    )


class TestValidate:
    def test_generated_machine_is_clean(self, final4):
        assert validate(final4) == []

    def test_raw_machine_is_clean(self, raw4):
        assert validate(raw4) == []

    def test_tiny_machine_is_clean(self):
        assert validate(tiny_machine()) == []

    def test_dangling_destination(self):
        m = tiny_machine()
        m.states["A"].transitions["GO"] = Transition(("ACT",), "MISSING")
        diags = validate(m)
        assert any("dangling" in d for d in diags)

    def test_missing_message_coverage(self):
        m = tiny_machine()
        del m.states["A"].transitions["STAY"]
        diags = validate(m)
        assert any("incomplete message coverage" in d and "'STAY'" in d for d in diags)

    def test_missing_start_state(self):
        m = tiny_machine()
        m.start_state = "NOPE"
        assert any("start state" in d for d in validate(m))

    def test_missing_finish_state(self):
        m = tiny_machine()
        del m.states[FINISH]
        diags = validate(m)
        assert any("missing finish state" in d for d in diags)

    def test_finish_with_transitions(self):
        m = tiny_machine()
        m.states[FINISH] = State(FINISH, {"GO": Transition((), "A")})
        assert any("no outgoing transitions" in d for d in validate(m))

    def test_undeclared_action(self):
        m = tiny_machine()
        m.states["A"].transitions["GO"] = Transition(("BOOM",), "B")
        assert any("undeclared action" in d for d in validate(m))

    def test_repeated_declarations(self):
        # each is reported, not hidden by the state's transition keys
        m = tiny_machine()
        m.messages = ("GO", "STAY", "GO", "GO")
        m.actions = ("ACT", "ACT")
        assert validate(m) == [
            "message 'GO' declared more than once",
            "message 'GO' declared more than once",
            "action 'ACT' declared more than once",
        ]

    def test_unreachable_finish(self):
        m = tiny_machine()
        m.states["B"].transitions["GO"] = Transition((), "B")
        assert any("unreachable" in d for d in validate(m))

    def test_undeclared_message_reaches_nothing(self):
        # the walk follows declared messages only, breadth-first
        m = tiny_machine()
        m.states["B"].transitions["GO"] = Transition((), "B")
        m.states["B"].transitions["JUMP"] = Transition((), FINISH)
        assert reachable_names(m) == ["A", "B"]
        diags = validate(m)
        assert any("undeclared message 'JUMP'" in d for d in diags)
        assert any("unreachable" in d for d in diags)

    def test_missing_start_reaches_nothing(self):
        m = tiny_machine()
        m.start_state = "NOWHERE"
        assert reachable_names(m) == []


class TestSerialize:
    def test_round_trip_identity(self, final4):
        assert deserialize(serialize(final4)) == final4

    def test_round_trip_raw(self, raw4):
        assert deserialize(serialize(raw4)) == raw4

    def test_two_generator_runs_byte_identical(self):
        a = serialize(bft.generate(4))
        b = serialize(bft.generate(4))
        assert a == b

    def test_canonical_state_order(self, final4):
        doc = json.loads(serialize(final4))
        names = [s["name"] for s in doc["states"]]
        assert names == sorted(names)

    def test_transitions_in_message_order(self, final4):
        doc = json.loads(serialize(final4))
        for entry in doc["states"]:
            if entry["name"] == FINISH:
                assert entry["transitions"] == []
                continue
            msgs = [t["message"] for t in entry["transitions"]]
            assert msgs == list(final4.messages)

    def test_document_shape(self, final4):
        doc = json.loads(serialize(final4))
        assert doc["replication_factor"] == 4
        assert doc["fault_tolerance"] == 1
        assert doc["finish_state"] == FINISH
        assert [c["name"] for c in doc["components"]][0] == "put_received"
        assert doc["components"][1] == {
            "name": "votes_received", "kind": BOUNDED_INTEGER, "max": 3,
        }

    def test_missing_start_state_rejected(self, final4):
        doc = json.loads(serialize(final4))
        del doc["start_state"]
        with pytest.raises(DocumentValidationError, match="start_state"):
            deserialize(json.dumps(doc))

    def test_malformed_json_reports_location(self):
        with pytest.raises(DocumentParseError, match="line"):
            deserialize("{not json")

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="integers have no digit limit")
    def test_integer_past_the_digit_limit(self, final4):
        # json.loads raises a plain ValueError here, not a JSONDecodeError
        huge = "9" * (INT_DIGIT_LIMIT + 1)
        text = serialize(final4).replace('"replication_factor": 4', f'"replication_factor": {huge}')
        with pytest.raises(DocumentParseError, match="invalid JSON: Exceeds the limit"):
            deserialize(text)

    def test_unknown_top_level_key_rejected(self, final4):
        doc = json.loads(serialize(final4))
        doc["extra"] = 1
        with pytest.raises(DocumentValidationError, match="unknown keys"):
            deserialize(json.dumps(doc))

    def test_duplicate_state_rejected(self, final4):
        doc = json.loads(serialize(final4))
        doc["states"].append(doc["states"][0])
        with pytest.raises(DocumentValidationError, match="duplicate state"):
            deserialize(json.dumps(doc))

    def test_duplicate_transition_rejected(self, final4):
        doc = json.loads(serialize(final4))
        entry = next(s for s in doc["states"] if s["transitions"])
        entry["transitions"].append(entry["transitions"][0])
        with pytest.raises(DocumentValidationError, match="duplicate transition"):
            deserialize(json.dumps(doc))

    def test_bad_component_kind_rejected(self, final4):
        doc = json.loads(serialize(final4))
        doc["components"][0]["kind"] = "tristate"
        with pytest.raises(DocumentValidationError):
            deserialize(json.dumps(doc))


class TestStateCounts:
    def test_counts_with_and_without_finish(self, pruned4):
        total, component = state_counts(pruned4)
        assert total == 49
        assert component == 48

    def test_counts_without_finish_state(self):
        m = tiny_machine()
        del m.states[FINISH]
        assert state_counts(m) == (2, 2)
