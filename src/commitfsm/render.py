"""Concrete artefacts from an abstract machine: annotated text, DOT diagrams,
and a runnable Python module implementing the same protocol.
"""

from __future__ import annotations

import keyword
import unicodedata

from .fsm import StateMachine, action_prose, sink_method

TEXT = "text"
DOT = "dot"
SOURCE = "source"
FORMATS = (TEXT, DOT, SOURCE)


class OptionError(ValueError):
    """An invalid module name for render_source."""


class SourceError(ValueError):
    """A machine name that cannot become a distinct identifier of the generated module."""


def render_text(machine: StateMachine, include_annotations: bool = True) -> str:
    """One annotated block per state, in sorted name order.

    Actionless self-loops are omitted from the listing (a duplicate or
    saturated message changes nothing worth documenting); the machine itself
    remains total over the message set.
    """
    blocks = []
    for name in sorted(machine.states):
        st = machine.states[name]
        lines = [f"state: {name}"]
        if include_annotations:
            lines.extend(st.annotations)
        if name != machine.finish_state:
            lines.append("Transitions:")
            for msg in machine.messages:
                t = st.transitions[msg]
                if t.to == name and not t.actions:
                    continue
                lines.append(f"      message: {msg}")
                for action in t.actions:
                    lines.append(f"          action: {action_prose(action)}")
                lines.append(f"          transition to: {t.to}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _quote(name: str) -> str:
    return '"' + name.replace('"', '\\"') + '"'


def render_dot(machine: StateMachine) -> str:
    """A DOT digraph: every state a node, every transition a labelled edge.

    The start state is marked with an entry arrow and the finish state is
    double-circled; self-loops are drawn like any other edge.
    """
    lines = ["digraph state_machine {", "  rankdir=LR;", '  node [shape=circle];']
    lines.append('  "__start" [shape=point];')
    lines.append(f'  "__start" -> {_quote(machine.start_state)};')
    for name in sorted(machine.states):
        shape = ' [shape=doublecircle]' if name == machine.finish_state else ""
        lines.append(f"  {_quote(name)}{shape};")
    for name in sorted(machine.states):
        st = machine.states[name]
        for msg in machine.messages:
            t = st.transitions.get(msg)
            if t is None:
                continue
            label = msg if not t.actions else f"{msg} / {','.join(t.actions)}"
            lines.append(f"  {_quote(name)} -> {_quote(t.to)} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def state_constant(name: str) -> str:
    """Identifier for a state constant in generated source, e.g. S_T_2_F_0_F_F_F."""
    return "S_" + name.replace("/", "_")


def _identifiers(kind: str, names, make, what: str, taken=()) -> dict[str, str]:
    """Map each name to make(name), or raise SourceError if that is no identifier,
    is a keyword or is taken (Python reads identifiers in NFKC form).
    """
    out = {}
    used = set(taken)
    for name in names:
        ident = make(name)
        key = unicodedata.normalize("NFKC", ident)
        if not ident.isidentifier() or keyword.iskeyword(key) or key in used:
            raise SourceError(f"{kind} {name!r} cannot become {what} {ident!r}")
        used.add(key)
        out[name] = ident
    return out


def _class_name(module_name: str) -> str:
    return "".join(part.capitalize() for part in module_name.split("_")) or "Machine"


def render_source(
    machine: StateMachine,
    module_name: str = "commit_machine",
    include_annotations: bool = True,
) -> str:
    """A self-contained Python module implementing the machine.

    The module defines one constant per state, an ActionSink base class
    with one method per declared action (fsm.sink_method names it), a
    machine class with one receive_<message> handler performing exhaustive
    dispatch on the current state, and a create(sink) factory.  Actions are
    emitted through the sink; reaching the finish state calls on_finish.
    State and transition commentary is included as comments.  A name that
    cannot become its identifier of the module raises SourceError.
    """
    if not module_name.isidentifier() or keyword.iskeyword(module_name):
        raise OptionError(f"invalid module name {module_name!r}")
    methods = _identifiers("action", machine.actions, sink_method, "the sink method",
                           ("on_finish",))
    handlers = _identifiers("message", machine.messages, lambda m: f"receive_{m.lower()}",
                            "the handler")
    names = sorted(machine.states)
    consts = _identifiers("state", names, state_constant, "the constant")
    cls = _class_name(module_name)
    out = []
    w = out.append
    w('"""Generated state machine for a replicated commit protocol '
      f"(r={machine.replication_factor}, f={machine.fault_tolerance}).\n")
    w("Generated file; do not edit by hand.\n")
    w('"""\n\n')
    w("class ActionSink:\n")
    w('    """Receives the protocol actions; subclass and override as needed."""\n\n')
    for method in methods.values():
        w(f"    def {method}(self):\n        pass\n\n")
    w("    def on_finish(self):\n        pass\n\n\n")

    for name in names:
        if include_annotations:
            for line in machine.states[name].annotations:
                w(f"# {line}\n")
        w(f'{consts[name]} = "{name}"\n')
    w("\n")
    w("STATES = (\n")
    for name in names:
        w(f"    {consts[name]},\n")
    w(")\n")
    w(f"MESSAGES = {tuple(machine.messages)!r}\n")
    w(f"START_STATE = {consts[machine.start_state]}\n")
    w(f"FINISH_STATE = {consts[machine.finish_state]}\n")
    w("_STATE_SET = frozenset(STATES)\n\n\n")

    w(f"class {cls}:\n")
    w('    """One protocol run; feed it messages via receive()."""\n\n')
    w("    def __init__(self, sink):\n")
    w("        self._sink = sink\n")
    w("        self._state = START_STATE\n\n")
    w("    def get_state(self):\n")
    w("        return self._state\n\n")
    w("    def set_state(self, state):\n")
    w("        if state not in _STATE_SET:\n")
    w('            raise ValueError("unknown state: %r" % (state,))\n')
    w("        self._state = state\n\n")
    w("    def receive(self, message):\n")
    w("        handler = self._HANDLERS.get(message)\n")
    w("        if handler is None:\n")
    w('            raise ValueError("unknown message: %r" % (message,))\n')
    w("        handler(self)\n\n")

    for msg in machine.messages:
        w(f"    def {handlers[msg]}(self):\n")
        w("        state = self._state\n")
        first = True
        for name in names:
            if name == machine.finish_state:
                continue
            t = machine.states[name].transitions[msg]
            kw = "if" if first else "elif"
            first = False
            w(f"        {kw} state == {consts[name]}:\n")
            if include_annotations and t.annotations:
                for line in t.annotations:
                    w(f"            # {line}\n")
            if t.to == name and not t.actions:
                w("            pass\n")
            else:
                for action in t.actions:
                    w(f"            self._sink.{methods[action]}()\n")
                w(f"            self.set_state({consts[t.to]})\n")
                if t.to == machine.finish_state:
                    w("            self._sink.on_finish()\n")
        w(f"        elif state == {consts[machine.finish_state]}:\n")
        w('            raise RuntimeError("machine already finished")\n')
        w("        else:\n")
        w('            raise ValueError("unknown state: %r" % (state,))\n\n')

    w("    _HANDLERS = {\n")
    for msg in machine.messages:
        w(f'        "{msg}": {handlers[msg]},\n')
    w("    }\n\n\n")
    w("def create(sink):\n")
    w('    """Return a fresh machine wired to the given action sink."""\n')
    w(f"    return {cls}(sink)\n")
    return "".join(out)
