import hashlib
import re

import pytest

from commitfsm import bft, sim
from commitfsm.fsm import FINISH, BOOLEAN, ComponentSpec, State, StateMachine, Transition
from commitfsm.render import (
    OptionError,
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
    st = State("A", {"GO": Transition("GO", (), "A"), "HALT": Transition("HALT", (), "A")})
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

    def test_co_simulation_sample(self, final4, generated4):
        sequences = sim.random_sequences(final4, 100, 20, seed=7)
        result = sim.co_simulate(final4, generated4, sequences)
        assert result.ok, result.divergences[:1]

    def test_deterministic(self, final4):
        assert render_source(final4) == render_source(final4)

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
