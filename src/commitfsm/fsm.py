"""Core state machine model.

A machine is a flat collection of named states, one transition per
(state, message) pair, plus a distinguished start state and a terminal
finish state.  State names canonically encode the values of the declared
state components ("T/2/F/0/F/F/F"); the finish state uses the reserved
name "FINISH" because it does not correspond to a component assignment.

Machines are value objects: once constructed they are never mutated, so
they may be shared freely across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, NamedTuple

FINISH = "FINISH"

BOOLEAN = "boolean"
BOUNDED_INTEGER = "bounded-integer"


class DomainError(ValueError):
    """A value falls outside a component's domain."""


class UnknownStateError(LookupError):
    """A state name that is not part of the machine."""


class UnknownMessageError(LookupError):
    """A message that is not part of the machine's message set."""


class TerminalStateError(Exception):
    """The finish state has no outgoing transitions and cannot be stepped."""


class DocumentError(ValueError):
    """Base class for problems with a machine document."""


class DocumentParseError(DocumentError):
    """The document is not syntactically valid JSON."""


class DocumentValidationError(DocumentError):
    """The document parses but does not follow the machine schema."""


class ComponentSpec(NamedTuple):
    """One state component: a boolean flag or an integer in [0, max_value]."""

    name: str
    kind: str
    max_value: int | None = None

    def domain(self) -> tuple:
        if self.kind == BOOLEAN:
            return (False, True)
        return tuple(range(self.max_value + 1))

    def labels(self) -> tuple[str, ...]:
        """Each domain value's field in a state name, indexed by the value."""
        if self.kind == BOOLEAN:
            return ("F", "T")
        return tuple(map(str, range(self.max_value + 1)))

    def contains(self, value: Any) -> bool:
        if self.kind == BOOLEAN:
            return isinstance(value, bool)
        # bool is an int subclass; an integer component must hold a plain int.
        return (
            isinstance(value, int)
            and not isinstance(value, bool)
            and 0 <= value <= self.max_value
        )


def check_components(components: Iterable[ComponentSpec]) -> None:
    """Raise DomainError unless the component declarations are well formed."""
    seen = set()
    for comp in components:
        if not isinstance(comp.name, str):
            raise DomainError(f"component name {comp.name!r} must be a string")
        if comp.name in seen:
            raise DomainError(f"duplicate component name {comp.name!r}")
        seen.add(comp.name)
        if comp.kind == BOOLEAN:
            if comp.max_value is not None:
                raise DomainError(
                    f"boolean component {comp.name!r} must not declare max_value"
                )
        elif comp.kind == BOUNDED_INTEGER:
            top = comp.max_value
            # serialize writes True as "max": true, which deserialize rejects.
            if not isinstance(top, int) or isinstance(top, bool) or top < 0:
                raise DomainError(
                    f"integer component {comp.name!r} needs an int max_value >= 0"
                )
        else:
            raise DomainError(f"unknown component kind {comp.kind!r}")


def state_name(vector: tuple, components: tuple[ComponentSpec, ...]) -> str:
    """Encode component values as a canonical state name such as "T/2/F/0/F/F/F".

    Values appear in declaration order as their ComponentSpec.labels() fields
    (booleans as T/F, integers in decimal), joined by "/": a bijection over
    the component domain that never produces the reserved name "FINISH".
    """
    return state_names([vector], components)[0]


def state_names(vectors: Iterable[tuple], components: tuple[ComponentSpec, ...]) -> list[str]:
    """The state_name of each vector, with the label tables built once."""
    tables = [c.labels() for c in components]
    names = []
    for vector in vectors:
        if len(vector) != len(components):
            raise DomainError(f"vector has {len(vector)} values for {len(components)} components")
        for value, comp in zip(vector, components):
            if not comp.contains(value):
                raise DomainError(f"{comp.name}={value!r} outside its domain")
        names.append("/".join([t[v] for t, v in zip(tables, vector)]))
    return names


class Transition(NamedTuple):
    """The actions and destination of the message that keys it in State.transitions."""

    actions: tuple[str, ...]
    to: str
    annotations: tuple[str, ...] = ()


class State(NamedTuple):
    """A named state with one transition per message (none for the finish state)."""

    name: str
    transitions: dict[str, Transition]
    annotations: tuple[str, ...] = ()


@dataclass(eq=True)
class StateMachine:
    """A deterministic, message-total state machine for one replication factor."""

    replication_factor: int
    fault_tolerance: int
    components: tuple[ComponentSpec, ...]
    messages: tuple[str, ...]
    actions: tuple[str, ...]
    states: dict[str, State]
    start_state: str
    finish_state: str = FINISH


# The action alphabet's naming rule, stated once for every module: an action
# SEND_X broadcasts message X to the peers, a generated module's ActionSink
# performs it as send_x(), and prose calls it "send x message".  Any other
# action broadcasts nothing and reads as its lower-cased words.
def action_message(action: str) -> str | None:
    """The message an action broadcasts (SEND_X sends X), or None."""
    return action[5:] if action.startswith("SEND_") and action != "SEND_" else None


def sink_method(action: str) -> str:
    """The ActionSink method that performs an action: SEND_X is send_x."""
    return action.lower()


def action_prose(action: str) -> str:
    """An action in words: SEND_NOT_FREE is "send not free message"."""
    words = action.lower().replace("_", " ")
    return words + " message" if action_message(action) else words


def state_counts(machine: StateMachine) -> tuple[int, int]:
    """Return (total state count, count excluding the finish state)."""
    total = len(machine.states)
    has_finish = machine.finish_state in machine.states
    return total, total - (1 if has_finish else 0)


def step(machine: StateMachine, state: str, message: str) -> tuple[tuple[str, ...], str]:
    """Interpret one message: return the recorded (actions, destination).

    Pure lookup over the machine; raises for unknown names and for attempts
    to step the terminal finish state.
    """
    st = machine.states.get(state)
    if st is None:
        raise UnknownStateError(state)
    if state == machine.finish_state:
        raise TerminalStateError(f"{state!r} is terminal and has no transitions")
    if message not in machine.messages:
        raise UnknownMessageError(message)
    t = st.transitions[message]
    return t.actions, t.to


def reachable_names(machine: StateMachine) -> list[str]:
    """Names of the states reachable from the start state, in breadth-first order.

    The start state comes first, and each state's transitions are followed
    in declared message order (a transition on an undeclared message is
    not).  Empty when the start state is missing.
    """
    states = machine.states
    if machine.start_state not in states:
        return []
    order = [machine.start_state]
    seen = set(order)
    for name in order:  # appended to while it is read
        transitions = states[name].transitions
        for msg in machine.messages:
            t = transitions.get(msg)
            if t is not None and t.to in states and t.to not in seen:
                seen.add(t.to)
                order.append(t.to)
    return order


def validate(machine: StateMachine) -> list[str]:
    """Check the machine invariants; an empty list means the machine is well formed.

    Each violation yields one human-readable diagnostic.  Checks: start and
    finish states exist, the finish state has no outgoing transitions, no
    message or action is declared twice, every other state covers exactly the
    declared message set, all destinations and actions resolve, and the
    finish state is reachable from the start.
    """
    diags: list[str] = []
    states = machine.states
    if machine.start_state not in states:
        diags.append(f"missing start state {machine.start_state!r}")
    finish = machine.finish_state
    fin = states.get(finish)
    if fin is None:
        diags.append(f"missing finish state {finish!r}")
    elif fin.transitions:
        diags.append(f"finish state {finish!r} must have no outgoing transitions")
    for kind, names in (("message", machine.messages), ("action", machine.actions)):
        seen: set = set()
        for name in names:
            if name in seen:
                diags.append(f"{kind} {name!r} declared more than once")
            seen.add(name)
    declared = set(machine.messages)
    action_set = set(machine.actions)
    declared_rows: set = set()  # action tuples whose every action is declared
    for name, st in states.items():
        if name == finish:
            continue
        exact = st.transitions.keys() == declared  # then no message scan reports
        for msg in () if exact else machine.messages:
            if msg not in st.transitions:
                diags.append(
                    f"incomplete message coverage: state {name!r} lacks a "
                    f"transition for {msg!r}"
                )
        for msg, t in st.transitions.items():
            if not exact and msg not in declared:
                diags.append(f"undeclared message {msg!r} on state {name!r}")
            if t.to not in states:
                diags.append(
                    f"dangling destination: state {name!r} on {msg!r} "
                    f"targets {t.to!r}"
                )
            try:
                if t.actions in declared_rows:
                    continue
                row = t.actions
            except TypeError:  # unhashable, such as a list: scanned every time
                row = None
            undeclared = [a for a in t.actions if a not in action_set]
            for action in undeclared:
                diags.append(f"undeclared action {action!r} on state {name!r} message {msg!r}")
            if row is not None and not undeclared:
                declared_rows.add(row)
    if machine.start_state in states and fin is not None:
        if finish not in set(reachable_names(machine)):
            diags.append(f"finish state {finish!r} unreachable from the start state")
    return diags


_quote = json.encoder.encode_basestring_ascii


def _array(items: Iterable[str], indent: str) -> str:
    """Join encoded items into a JSON array in the ``indent=2`` layout.

    ``indent`` is the indentation of the line holding the opening bracket;
    each item's own continuation lines must already be indented below it.
    """
    inner = indent + "  "
    body = (",\n" + inner).join(items)
    return f"[\n{inner}{body}\n{indent}]" if body else "[]"


def _strings(values: Iterable[str], indent: str) -> str:
    """A JSON array of strings in the ``indent=2`` layout."""
    return _array(map(_quote, values), indent)


class _Quoted(dict):
    """Each string's JSON form, quoted on first lookup."""
    def __missing__(self, text: str) -> str:
        quoted = self[text] = _quote(text)
        return quoted


def serialize(machine: StateMachine) -> str:
    """Render the machine as its canonical UTF-8 JSON document.

    States are sorted by name and transitions follow the declared message
    order, so equal machines always produce byte-identical documents.

    The output is byte for byte ``json.dumps(doc, indent=2) + "\\n"`` of the
    document object: two-space indent, items separated by ``","`` and a
    newline, ``": "`` after keys, ``[]`` for an empty list, and every
    non-ASCII character written as a ``\\u`` escape.  It is emitted
    directly because ``json.dumps`` with an ``indent`` falls back to the
    pure-Python encoder (the C encoder serves only ``indent=None``); strings
    are escaped by the C function that ``json.dumps`` itself uses.  The
    pieces go into one list, joined once; each distinct state name,
    destination and state-annotation line is quoted once, and each distinct
    (message, actions) head and annotations tail of a transition is
    formatted once, in tables that live for this call only.
    A value that is not a ``str`` where the document holds a string (a
    name, kind, message, action, destination or annotation) raises
    ``TypeError``, as does a list where ``Transition`` declares a tuple;
    every machine that ``engine`` or ``deserialize`` builds has ``str`` and
    tuples there.
    """
    comps = []
    for c in machine.components:
        entry = f'{{\n      "name": {_quote(c.name)},\n      "kind": {_quote(c.kind)}'
        if c.kind == BOUNDED_INTEGER:
            entry += f',\n      "max": {json.dumps(c.max_value)}'
        comps.append(entry + "\n    }")
    messages = machine.messages
    states = machine.states
    names = sorted(states)
    quoted = _Quoted()
    # Every state and transition is emitted after its "," separator; the
    # first separator of each array is then swapped for the opening bracket.
    out = [
        f'{{\n  "replication_factor": {json.dumps(machine.replication_factor)},'
        f'\n  "fault_tolerance": {json.dumps(machine.fault_tolerance)},'
        f'\n  "components": {_array(comps, "  ")},'
        f'\n  "messages": {_strings(messages, "  ")},'
        f'\n  "actions": {_strings(machine.actions, "  ")},'
        f'\n  "start_state": {quoted[machine.start_state]},'
        f'\n  "finish_state": {quoted[machine.finish_state]},'
        '\n  "states": '
    ]
    heads = [{} for _ in messages]  # per message: actions -> text up to the "to" value
    tails: dict[tuple[str, ...], str] = {}  # annotations -> the text after it
    for name in names:
        st = states[name]
        notes = ",\n        ".join(map(quoted.__getitem__, st.annotations))
        notes = f"[\n        {notes}\n      ]" if notes else "[]"
        out += (",\n    ", '{\n      "name": ', quoted[name],
                ',\n      "annotations": ', notes, ',\n      "transitions": ')
        first = len(out)
        for msg, known in zip(messages, heads):
            t = st.transitions.get(msg)
            if t is None:
                continue
            head = known.get(t.actions)
            if head is None:
                actions = _strings(t.actions, "          ")
                head = known[t.actions] = (
                    f'{{\n          "message": {_quote(msg)},\n          "actions": {actions},'
                    '\n          "to": '
                )
            to = quoted[t.to]
            tail = tails.get(t.annotations)
            if tail is None:
                notes = _strings(t.annotations, "          ")
                tail = tails[t.annotations] = f',\n          "annotations": {notes}\n        }}'
            out += (",\n        ", head, to, tail)
        if len(out) > first:
            out[first] = "[\n        "
        out.append("\n      ]\n    }" if len(out) > first else "[]\n    }")
    if names:
        out[1] = "[\n    "
    out.append("\n  ]\n}\n" if names else "[]\n}\n")
    return "".join(out)


_TOP_KEYS = {
    "replication_factor",
    "fault_tolerance",
    "components",
    "messages",
    "actions",
    "start_state",
    "finish_state",
    "states",
}
_STATE_KEYS = {"name", "annotations", "transitions"}
_TRANSITION_KEYS = {"message", "actions", "to", "annotations"}


def _require(obj: dict, key: str, kind: type, where: str) -> Any:
    if key not in obj:
        raise DocumentValidationError(f"{where}: missing {key!r}")
    value = obj[key]
    if kind is int and isinstance(value, bool):
        raise DocumentValidationError(f"{where}: {key!r} must be an integer")
    if not isinstance(value, kind):
        raise DocumentValidationError(
            f"{where}: {key!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise DocumentValidationError(f"{where}: unknown keys {sorted(extra)}")


def _str_list(obj: dict, key: str, where: str) -> tuple[str, ...]:
    values = _require(obj, key, list, where)
    for v in values:
        if not isinstance(v, str):
            raise DocumentValidationError(f"{where}: {key!r} entries must be strings")
    return tuple(values)


def deserialize(text: str) -> StateMachine:
    """Parse a machine document; the inverse of serialize on valid machines."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise DocumentParseError("invalid JSON: nested too deeply") from None
    except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
        raise DocumentParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DocumentValidationError("document: top level must be an object")
    _check_keys(doc, _TOP_KEYS, "document")
    rf = _require(doc, "replication_factor", int, "document")
    ft = _require(doc, "fault_tolerance", int, "document")

    components = []
    for i, entry in enumerate(_require(doc, "components", list, "document")):
        where = f"components[{i}]"
        if not isinstance(entry, dict):
            raise DocumentValidationError(f"{where}: must be an object")
        _check_keys(entry, {"name", "kind", "max"}, where)
        name = _require(entry, "name", str, where)
        kind = _require(entry, "kind", str, where)
        max_value = None
        if "max" in entry:
            max_value = _require(entry, "max", int, where)
        components.append(ComponentSpec(name, kind, max_value))
    try:
        check_components(components)
    except DomainError as exc:
        raise DocumentValidationError(f"components: {exc}") from exc

    messages = _str_list(doc, "messages", "document")
    actions = _str_list(doc, "actions", "document")
    start_state = _require(doc, "start_state", str, "document")
    finish_state = _require(doc, "finish_state", str, "document")

    states: dict[str, State] = {}
    for i, entry in enumerate(_require(doc, "states", list, "document")):
        where = f"states[{i}]"
        if not isinstance(entry, dict):
            raise DocumentValidationError(f"{where}: must be an object")
        _check_keys(entry, _STATE_KEYS, where)
        name = _require(entry, "name", str, where)
        if name in states:
            raise DocumentValidationError(f"{where}: duplicate state name {name!r}")
        annotations = _str_list(entry, "annotations", where)
        transitions: dict[str, Transition] = {}
        for j, tr in enumerate(_require(entry, "transitions", list, where)):
            twhere = f"{where}.transitions[{j}]"
            if not isinstance(tr, dict):
                raise DocumentValidationError(f"{twhere}: must be an object")
            _check_keys(tr, _TRANSITION_KEYS, twhere)
            message = _require(tr, "message", str, twhere)
            if message in transitions:
                raise DocumentValidationError(
                    f"{twhere}: duplicate transition for message {message!r}"
                )
            transitions[message] = Transition(
                _str_list(tr, "actions", twhere),
                _require(tr, "to", str, twhere),
                _str_list(tr, "annotations", twhere),
            )
        states[name] = State(name, transitions, annotations)

    return StateMachine(
        replication_factor=rf,
        fault_tolerance=ft,
        components=tuple(components),
        messages=messages,
        actions=actions,
        states=states,
        start_state=start_state,
        finish_state=finish_state,
    )
