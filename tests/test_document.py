"""The machine document layout: serialize against a json.dumps reference."""

import json
from typing import Any

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commitfsm import bft
from commitfsm.fsm import (
    BOOLEAN,
    BOUNDED_INTEGER,
    FINISH,
    ComponentSpec,
    State,
    StateMachine,
    Transition,
    deserialize,
    serialize,
    validate,
)
from commitfsm.render import render_dot, render_text


def reference_document(machine: StateMachine) -> str:
    """The layout ``serialize`` must reproduce: the document object, built as
    dicts and lists, through ``json.dumps(doc, indent=2)`` plus a newline."""
    comps = []
    for c in machine.components:
        entry: dict[str, Any] = {"name": c.name, "kind": c.kind}
        if c.kind == BOUNDED_INTEGER:
            entry["max"] = c.max_value
        comps.append(entry)
    states_doc = []
    for name in sorted(machine.states):
        st_ = machine.states[name]
        trans = []
        for msg in machine.messages:
            t = st_.transitions.get(msg)
            if t is None:
                continue
            trans.append(
                {
                    "message": msg,
                    "actions": list(t.actions),
                    "to": t.to,
                    "annotations": list(t.annotations),
                }
            )
        states_doc.append(
            {
                "name": name,
                "annotations": list(st_.annotations),
                "transitions": trans,
            }
        )
    doc = {
        "replication_factor": machine.replication_factor,
        "fault_tolerance": machine.fault_tolerance,
        "components": comps,
        "messages": list(machine.messages),
        "actions": list(machine.actions),
        "start_state": machine.start_state,
        "finish_state": machine.finish_state,
        "states": states_doc,
    }
    return json.dumps(doc, indent=2) + "\n"


# Characters JSON must escape or that ensure_ascii writes as \u escapes,
# mixed with arbitrary code points.
_TRICKY = '"\\/\b\f\n\r\t\x00\x1f\x7f\x80éß€ \U0001d11e'
texts = st.text(
    alphabet=st.one_of(st.sampled_from(_TRICKY), st.characters()), max_size=6
)
text_lists = st.lists(texts, max_size=3).map(tuple)

components = st.lists(
    st.tuples(texts, st.one_of(st.none(), st.integers(0, 5))),
    max_size=4,
    unique_by=lambda pair: pair[0],
).map(
    lambda pairs: tuple(
        ComponentSpec(name, BOOLEAN)
        if top is None
        else ComponentSpec(name, BOUNDED_INTEGER, top)
        for name, top in pairs
    )
)


@st.composite
def machines(draw) -> StateMachine:
    """A small machine that deserialize accepts back: unique messages, and
    each state and transition stored under its own name and message."""
    messages = tuple(draw(st.lists(texts, max_size=3, unique=True)))
    names = draw(st.lists(texts, max_size=4, unique=True))
    states = {}
    for name in names:
        sent = draw(st.lists(st.sampled_from(messages), unique=True)) if messages else []
        states[name] = State(
            name,
            {
                msg: Transition(draw(text_lists), draw(texts), draw(text_lists))
                for msg in sent
            },
            draw(text_lists),
        )
    return StateMachine(
        replication_factor=draw(st.integers(0, 100)),
        fault_tolerance=draw(st.integers(0, 33)),
        components=draw(components),
        messages=messages,
        actions=draw(text_lists),
        states=states,
        start_state=draw(texts),
        finish_state=draw(texts),
    )


# Names drawn from a small pool, and the document's own names, resolve often
# enough for some documents to validate; arbitrary text gives the odd ones.
_names = st.sampled_from(("A", "B", FINISH)) | texts
_messages = st.sampled_from(("GO", "STAY")) | texts
_actions = st.sampled_from(("SEND_GO", "ACT")) | texts


@st.composite
def documents(draw) -> dict:
    """A document object deserialize accepts that may still be no machine:
    repeated, undeclared or missing messages, dangling destinations, a
    finish state with transitions, any start and finish."""
    messages = draw(st.lists(_messages, max_size=3))
    actions = draw(st.lists(_actions, max_size=3))
    names = draw(st.lists(_names, min_size=1, max_size=4, unique=True))
    # a declared name three times in four, any other name the fourth
    name = st.one_of(*[st.sampled_from(names)] * 3, _names)
    message_sets = st.lists(_messages, max_size=3, unique=True)
    if messages:
        message_sets |= st.just(list(dict.fromkeys(messages)))
    states = []
    for state in names:
        transitions = [
            {
                "message": message,
                "actions": draw(st.lists(st.sampled_from(actions) if actions else _actions,
                                         max_size=2)),
                "to": draw(name),
                "annotations": draw(st.lists(texts, max_size=1)),
            }
            for message in draw(message_sets | st.just([]))
        ]
        states.append({"name": state, "annotations": draw(st.lists(texts, max_size=2)),
                       "transitions": transitions})
    return {
        "replication_factor": draw(st.integers(0, 100)),
        "fault_tolerance": draw(st.integers(0, 33)),
        "components": [
            {"name": c.name, "kind": c.kind,
             **({} if c.max_value is None else {"max": c.max_value})}
            for c in draw(components)
        ],
        "messages": messages,
        "actions": actions,
        "start_state": draw(name),
        "finish_state": draw(name),
        "states": states,
    }


FINISH_ONLY = StateMachine(
    replication_factor=4,
    fault_tolerance=1,
    components=(ComponentSpec("decided", BOOLEAN), ComponentSpec("votes", BOUNDED_INTEGER, 0)),
    messages=("GO",),
    actions=(),
    states={FINISH: State(FINISH, {})},
    start_state=FINISH,
)

NO_STATES = StateMachine(
    replication_factor=0,
    fault_tolerance=0,
    components=(ComponentSpec("a", BOOLEAN), ComponentSpec("b", BOOLEAN)),
    messages=(),
    actions=(),
    states={},
    start_state="",
)


@settings(deadline=None)
@given(documents())
@example(json.loads(serialize(NO_STATES)))
def test_validate_reports_and_never_raises(doc):
    machine = deserialize(json.dumps(doc))
    diags = validate(machine)
    assert isinstance(diags, list) and all(isinstance(d, str) for d in diags)
    if not diags:
        assert isinstance(render_text(machine), str)
        assert isinstance(render_dot(machine), str)


@settings(deadline=None)
@given(machines())
@example(FINISH_ONLY)
@example(NO_STATES)
def test_serialize_matches_reference_and_round_trips(machine):
    text = serialize(machine)
    assert text == reference_document(machine)
    assert deserialize(text) == machine


def test_reference_agrees_on_generated_machines(final4, raw4):
    assert reference_document(bft.generate(4)) == serialize(final4)
    assert reference_document(raw4) == serialize(raw4)


@pytest.mark.parametrize(
    "field, value",
    [("start_state", 7), ("messages", ("GO", None)), ("actions", (b"ACT",))],
)
def test_non_string_is_a_type_error(field, value):
    machine = StateMachine(**{**vars(FINISH_ONLY), field: value})
    with pytest.raises(TypeError):
        serialize(machine)
