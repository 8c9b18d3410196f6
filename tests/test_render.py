import hashlib
import re
import string
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commitfsm import bft, sim
from commitfsm.fsm import (
    FINISH,
    BOOLEAN,
    ComponentSpec,
    State,
    StateMachine,
    Transition,
    deserialize,
    serialize,
    step,
    validate,
)
from commitfsm.render import (
    OptionError,
    SourceError,
    render_dot,
    render_source,
    render_text,
    state_constant,
)
from conftest import import_generated
from test_fsm import tiny_machine

GOLDEN_BLOCK = """state: T/2/F/0/F/F/F
Have received initial put from client.
Have not voted since another update has already been voted for.
Have received 2 votes and no commits.
Have not sent a commit since neither the vote threshold (3) nor the external commit threshold (2) has been reached.
May not choose since another ongoing update has been voted for.
Have not chosen this update since another ongoing update has been chosen.
Waiting for 1 further vote (including local vote if any) before sending commit.
Waiting for 2 further external commits to finish.
Transitions:
      message: VOTE
          action: send vote message
          action: send commit message
          transition to: T/3/T/0/T/F/F
      message: COMMIT
          transition to: T/2/F/1/F/F/F
      message: FREE
          action: send vote message
          action: send commit message
          action: send not free message
          transition to: T/2/T/0/T/T/T"""


def loop_machine():
    st = State("A", {"GO": Transition((), "A"), "HALT": Transition((), "A")})
    return StateMachine(
        replication_factor=4,
        fault_tolerance=1,
        components=(ComponentSpec("x", BOOLEAN),),
        messages=("GO", "HALT"),
        actions=(),
        states={"A": st},
        start_state="A",
        finish_state=FINISH,
    )


class TestText:
    def test_documented_block(self, final4):
        text = render_text(final4)
        assert GOLDEN_BLOCK in text

    def test_quiet_self_loops_are_omitted(self, final4):
        text = render_text(final4)
        block = text.split("state: T/2/F/0/F/F/F")[1].split("\nstate:")[0]
        assert "message: PUT" not in block
        assert "message: NOT_FREE" not in block

    def test_states_in_sorted_order(self, final4):
        text = render_text(final4)
        names = re.findall(r"^state: (.+)$", text, re.MULTILINE)
        assert names == sorted(final4.states)

    def test_deterministic(self, final4):
        assert render_text(final4) == render_text(final4)

    def test_single_state_machine(self):
        text = render_text(loop_machine())
        assert text.count("state:") == 1
        assert "action:" not in text

    def test_annotations_can_be_suppressed(self, final4):
        text = render_text(final4, include_annotations=False)
        assert "Have received" not in text
        assert "state: T/2/F/0/F/F/F" in text


_NODE_RE = re.compile(r'^  "[^"]+"( \[shape=\w+\])?;$')
_EDGE_RE = re.compile(r'^  "[^"]+" -> "[^"]+"( \[label="[^"]+"\])?;$')


def check_dot_structure(dot):
    lines = dot.strip().splitlines()
    assert lines[0].startswith("digraph ")
    assert lines[0].endswith("{")
    assert lines[-1] == "}"
    for line in lines[1:-1]:
        if line in ("  rankdir=LR;", "  node [shape=circle];"):
            continue
        assert _NODE_RE.match(line) or _EDGE_RE.match(line), line


class TestDot:
    def test_structure_parses(self, final4):
        check_dot_structure(render_dot(final4))

    def test_node_and_edge_counts(self, final4):
        dot = render_dot(final4)
        edges = [l for l in dot.splitlines() if "->" in l and "__start" not in l]
        assert len(edges) == (len(final4.states) - 1) * 5
        nodes = [l for l in dot.splitlines() if _NODE_RE.match(l) and "__start" not in l]
        assert len(nodes) == len(final4.states)

    def test_finish_is_double_circled(self, final4):
        assert '"FINISH" [shape=doublecircle];' in render_dot(final4)

    def test_start_is_marked(self, final4):
        dot = render_dot(final4)
        assert '"__start" [shape=point];' in dot
        assert '"__start" -> "F/0/F/0/F/F/F";' in dot

    def test_documented_free_edge_label(self, final4):
        dot = render_dot(final4)
        assert (
            '"T/2/F/0/F/F/F" -> "T/2/T/0/T/T/T" '
            '[label="FREE / SEND_VOTE,SEND_COMMIT,SEND_NOT_FREE"];'
        ) in dot

    def test_self_loops_rendered(self, final4):
        assert '"T/2/F/0/F/F/F" -> "T/2/F/0/F/F/F" [label="PUT"];' in render_dot(final4)

    def test_single_state_machine(self):
        dot = render_dot(loop_machine())
        check_dot_structure(dot)
        assert dot.count("->") == 3  # entry arrow plus two self-loops

    def test_deterministic(self, final4):
        assert render_dot(final4) == render_dot(final4)

    def test_name_ending_in_a_backslash(self, final4):
        # in DOT, \" inside a quoted string is an escaped quote, so a name
        # ending in a backslash must not be written as "F/1\"
        doc = serialize(final4).replace('"F/1/F/0/F/F/F"', '"F/1\\\\"')
        machine = deserialize(doc)
        assert "F/1\\" in machine.states and validate(machine) == []
        quoted = re.compile(r'"((?:\\.|[^"\\])*)"')
        nodes, ends = set(), set()
        for line in render_dot(machine).splitlines()[3:-1]:
            ids = [re.sub(r"\\(.)", r"\1", m) for m in quoted.findall(line)]
            assert '"' not in quoted.sub("", line), line  # every quoted ID closes
            if " -> " in line:
                ends.update(ids[:2])
            else:
                nodes.add(ids[0])
        assert nodes - {"__start"} == ends - {"__start"} == set(machine.states)


class TestSource:
    def test_compiles(self, final4):
        src = render_source(final4)
        compile(src, "commit_machine.py", "exec")

    def test_state_constants(self, final4, generated4):
        assert generated4.START_STATE == "F/0/F/0/F/F/F"
        assert generated4.FINISH_STATE == "FINISH"
        assert len(generated4.STATES) == len(final4.states)
        assert state_constant("T/2/F/0/F/F/F") == "S_T_2_F_0_F_F_F"
        assert generated4.S_T_2_F_0_F_F_F == "T/2/F/0/F/F/F"

    def test_vote_handler_matches_machine(self, generated4):
        sink = sim.RecordingSink()
        machine = generated4.create(sink)
        machine.receive("VOTE")
        assert machine.get_state() == "F/1/F/0/F/F/F"
        assert sink.calls == []

    def test_actions_flow_through_sink(self, generated4):
        sink = sim.RecordingSink()
        machine = generated4.create(sink)
        machine.set_state(generated4.S_T_2_F_0_F_F_F)
        machine.receive("VOTE")
        assert sink.calls == ["SEND_VOTE", "SEND_COMMIT"]
        assert machine.get_state() == "T/3/T/0/T/F/F"

    def test_finish_calls_on_finish_and_then_raises(self, generated4):
        sink = sim.RecordingSink()
        machine = generated4.create(sink)
        machine.set_state(generated4.S_T_2_F_1_F_F_F)
        machine.receive("COMMIT")
        assert sink.finished
        assert machine.get_state() == "FINISH"
        with pytest.raises(RuntimeError):
            machine.receive("PUT")

    def test_unknown_message_and_state_rejected(self, generated4):
        machine = generated4.create(sim.RecordingSink())
        with pytest.raises(ValueError):
            machine.receive("PING")
        with pytest.raises(ValueError):
            machine.set_state("bogus")

    def test_annotations_appear_as_comments(self, final4):
        src = render_source(final4)
        assert "# Have received initial put from client." in src
        bare = render_source(final4, include_annotations=False)
        assert "# Have received initial put from client." not in bare

    def test_invalid_module_name(self, final4):
        with pytest.raises(OptionError):
            render_source(final4, module_name="9bad")
        with pytest.raises(OptionError):
            render_source(final4, module_name="class")

    @pytest.mark.parametrize("module_name",
                             ["action_sink", "ACTION_SINK", "action__sink", "\uff41ction_sink"])
    def test_module_name_that_names_the_sink_class(self, final4, module_name):
        # The machine class would replace the ActionSink base class.
        with pytest.raises(OptionError, match="ActionSink"):
            render_source(final4, module_name=module_name)

    @pytest.mark.parametrize("module_name,cls", [
        ("value_error", "ValueError"), ("runtime_error", "RuntimeError"),
        ("s_t_a_t_e_s", "STATES"), ("m_e_s_s_a_g_e_s", "MESSAGES")])
    def test_module_name_that_overwrites_a_module_name(self, final4, module_name, cls):
        # The class would replace a tuple the module reads, or an exception
        # class its methods raise.
        with pytest.raises(OptionError, match=repr(cls)):
            render_source(final4, module_name=module_name)

    # Mathematical bold capitals have no lower case and U+FF3F reads as "_",
    # so these reach START_STATE, create and a state constant in NFKC form;
    # "none" and "_1" would give "class None:" and "class 1:".
    @pytest.mark.parametrize("module_name", [
        "none", "true", "_1", "\U0001d41create",
        "\U0001d412\U0001d413\U0001d400\U0001d411\U0001d413\uff3f"
        "\U0001d412\U0001d413\U0001d400\U0001d413\U0001d404",
        "s\uff3f\U0001d405\uff3f0\uff3f\U0001d405\uff3f0"
        "\uff3f\U0001d405\uff3f\U0001d405\uff3f\U0001d405"])
    def test_module_name_that_gives_no_free_class_name(self, final4, module_name):
        with pytest.raises(OptionError, match="machine class"):
            render_source(final4, module_name=module_name)

    def test_co_simulation_sample(self, final4, generated4):
        sequences = sim.random_sequences(final4, 100, 20, seed=7)
        result = sim.co_simulate(final4, generated4, sequences)
        assert result.ok, result.divergences[:1]

    def test_deterministic(self, final4):
        assert render_source(final4) == render_source(final4)

    # Every (state, message) pair once, where criterion 8 samples sequences.
    @pytest.mark.parametrize("r", [4, 7, pytest.param(46, marks=pytest.mark.slow)])
    def test_every_state_and_message_matches_step(self, r, tmp_path):
        machine = bft.generate(r)
        # Each elif nests one level deeper: CPython 3.10 and 3.11 compile the
        # 2,944-branch handlers of r = 46 from a shallow stack only, so the
        # limit is raised for the import (the compile depth is not tested here).
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 10_000))
        try:
            module = import_generated(machine, tmp_path)
        finally:
            sys.setrecursionlimit(limit)
        sink = sim.RecordingSink()
        gen = module.create(sink)
        finish = machine.finish_state
        for state in machine.states:
            for message in machine.messages:
                gen.set_state(state)
                if state == finish:
                    with pytest.raises(RuntimeError, match="already finished"):
                        gen.receive(message)
                    continue
                sink.calls.clear()
                sink.finished = False
                gen.receive(message)
                actions, nxt = step(machine, state, message)
                assert (tuple(sink.calls), gen.get_state(), sink.finished) == (
                    actions, nxt, nxt == finish), (state, message)

    def test_any_declared_action_becomes_a_sink_method(self, tmp_path):
        machine = tiny_machine()
        module = import_generated(machine, tmp_path, module_name="tiny_machine")
        assert [m for m in vars(module.ActionSink) if not m.startswith("_")] == ["act", "on_finish"]
        sink = sim.RecordingSink(machine.actions)
        tiny = module.create(sink)
        tiny.receive("GO")
        assert sink.calls == ["ACT"] and tiny.get_state() == "B"
        sequences = sim.random_sequences(machine, 50, 6, seed=1)
        assert sim.co_simulate(machine, module, sequences).ok

    def test_finish_only_machine(self, tmp_path):
        # every handler opens with the finish branch, so it must be an if
        machine = StateMachine(4, 1, (ComponentSpec("x", BOOLEAN),), ("GO",), (),
                               {FINISH: State(FINISH, {})}, FINISH, FINISH)
        assert validate(machine) == []
        module = import_generated(machine, tmp_path, module_name="finished")
        with pytest.raises(RuntimeError, match="already finished"):
            module.create(module.ActionSink()).receive("GO")


# Names from identifier characters (state names also take "/"): they may
# still collide or form a keyword, which render_source must refuse.
_idents = st.text(string.ascii_letters + "_", min_size=1, max_size=4)
_state_names = st.text("aZ0_/", min_size=1, max_size=4)
# Annotations may hold any text, line breaks and null bytes included.
_notes = st.lists(st.text(max_size=4), max_size=2).map(tuple)


@st.composite
def valid_machines(draw):
    """A small machine that validate accepts: states[0] is the start and
    states[-1] the finish, and the first message leads each other state to
    a later one, so the finish is reachable."""
    messages = tuple(draw(st.lists(_idents, min_size=1, max_size=3, unique=True)))
    actions = tuple(draw(st.lists(_idents | _idents.map("SEND_".__add__),
                                  max_size=3, unique=True)))
    names = draw(st.lists(_state_names, min_size=2, max_size=6, unique=True))
    states = {names[-1]: State(names[-1], {}, draw(_notes))}
    for i, name in enumerate(names[:-1]):
        transitions = {}
        for msg in messages:
            later = names[i + 1:] if msg == messages[0] else names
            acts = draw(st.lists(st.sampled_from(actions), unique=True)) if actions else []
            transitions[msg] = Transition(tuple(acts), draw(st.sampled_from(later)),
                                          draw(_notes))
        states[name] = State(name, transitions, draw(_notes))
    return StateMachine(4, 1, (ComponentSpec("x", BOOLEAN),), messages, actions,
                        states, names[0], names[-1])


@settings(deadline=None)
@given(valid_machines(), st.integers(0, 2**32))
def test_source_co_simulates_or_is_refused(machine, seed):
    assert validate(machine) == []
    try:
        source = render_source(machine, module_name="drawn_machine")
    except SourceError:
        return
    module = types.ModuleType("drawn_machine")
    exec(compile(source, "drawn_machine.py", "exec"), module.__dict__)
    sequences = sim.random_sequences(machine, 20, 8, seed=seed)
    assert sim.co_simulate(machine, module, sequences).ok


class TestDispatch:
    def test_module_name_shapes_class_name(self, final4, tmp_path):
        module = import_generated(final4, tmp_path, module_name="vote_machine")
        assert type(module.create(sim.RecordingSink())).__name__ == "VoteMachine"


# SHA-256 of each renderer's output for the r = 4 and r = 7 machines: a
# refactor must leave every rendered artefact of the family byte-identical.
RENDER_SHA256 = {
    (4, "text"): "ddddd050b060ae1d0c610c5cd45dac7b5bf4fb9eebf014c406030617fb4ae0d9",
    (4, "dot"): "d3a5cf320d66782344419f8d7ca578dbace8316b5981bb64b6f8e9e871f83ecb",
    (4, "source"): "874101c5c2444dd172cf7eeeda3093d3fc532ee2de50f144592f1040b16dc0e9",
    (7, "text"): "85600214f097eba7b4ce23445aefc5433fa9342848d4b19891c6e15b09c71c74",
    (7, "dot"): "81db5a67b031758dfab010d7f59179b5190b0a313f71543c5c403a0272b55bb0",
    (7, "source"): "8a284712e088985b43b20b41349363fba968b1bdb4b8f42bc8aae8b035df5dd5",
}
# Size of the r = 46 module; the codegen benchmark pins the same figure.
MODULE_BYTES_R46 = 3674447


class TestPinnedArtefacts:
    @pytest.mark.parametrize("r,fmt", sorted(RENDER_SHA256))
    def test_render_digest(self, r, fmt, final4, final7):
        machine = {4: final4, 7: final7}[r]
        text = {"text": render_text, "dot": render_dot, "source": render_source}[fmt](machine)
        assert hashlib.sha256(text.encode()).hexdigest() == RENDER_SHA256[r, fmt]

    def test_r46_module_size(self):
        assert len(render_source(bft.generate(46)).encode()) == MODULE_BYTES_R46
