import functools
import importlib.util
import json
import operator
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from commitfsm import cli, sim
from commitfsm.cli import main
from commitfsm.fsm import deserialize, validate
from test_fsm import INT_DIGIT_LIMIT


def _assert_one_error_line(capsys) -> str:
    """The command wrote exactly one ``error: ...`` line to stderr; return it."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


@pytest.fixture()
def machine_doc(tmp_path):
    path = tmp_path / "m4.json"
    assert main(["generate", "-r", "4", "-o", str(path)]) == 0
    return path


class TestGenerate:
    def test_stats_line_and_document(self, tmp_path, capsys):
        path = tmp_path / "m4.json"
        rc = main(["generate", "-r", "4", "-o", str(path)])
        assert rc == 0
        line = capsys.readouterr().out.strip()
        fields = line.split(",")
        assert fields[:5] == ["1", "4", "512", "48", "33"]
        machine = deserialize(path.read_text())
        assert len(machine.states) == 33

    def test_r7_stats(self, tmp_path, capsys):
        rc = main(["generate", "-r", "7", "-o", str(tmp_path / "m7.json")])
        assert rc == 0
        fields = capsys.readouterr().out.strip().split(",")
        assert fields[:5] == ["2", "7", "1568", "126", "85"]

    def test_minimum_replication_factor(self, tmp_path, capsys):
        rc = main(["generate", "-r", "3", "-o", str(tmp_path / "m3.json")])
        assert rc == 2
        assert "at least 4" in _assert_one_error_line(capsys)

    def test_byte_identical_documents(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["generate", "-r", "4", "-o", str(a)]) == 0
        assert main(["generate", "-r", "4", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_arguments(self):
        assert main(["generate"]) == 2

    # Each fails at once: 10**20 overflows a range length, 10**18 a tuple size.
    @pytest.mark.parametrize("argv", [
        ["generate", "-r", str(10**20)], ["generate", "-r", str(10**18)],
        ["simulate", "-r", str(10**20)], ["bench", "--f", str(10**20)]])
    def test_replication_factor_too_large_to_build(self, argv, tmp_path, capsys):
        path = tmp_path / "huge.json"
        if argv[0] == "generate":
            argv = [*argv, "-o", str(path)]
        assert main(argv) == 1
        assert "too large to build" in _assert_one_error_line(capsys)
        assert not path.exists()

    def test_output_directory_missing(self, tmp_path, capsys):
        rc = main(["generate", "-r", "4", "-o", str(tmp_path / "absent" / "m4.json")])
        assert rc == 1
        _assert_one_error_line(capsys)

    def test_invalid_machine_is_not_written(self, tmp_path, capsys, monkeypatch):
        machine, stats = cli.bft.generate_with_stats(4)
        start = machine.states[machine.start_state]
        vote = start.transitions["VOTE"]._replace(actions=("BOOM",), to="NOWHERE")
        broken = replace(machine, states={
            **machine.states,
            machine.start_state: start._replace(transitions={**start.transitions, "VOTE": vote}),
        })
        diags = validate(broken)
        assert len(diags) == 2 and all("'VOTE'" in d for d in diags)
        monkeypatch.setattr(cli.bft, "generate_with_stats", lambda r: (broken, stats))
        path = tmp_path / "m4.json"
        assert main(["generate", "-r", "4", "-o", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [f"error: {d}" for d in diags]
        assert not path.exists()


class TestRender:
    def test_text(self, machine_doc, tmp_path):
        out = tmp_path / "m4.txt"
        rc = main(["render", "-i", str(machine_doc), "--format", "text", "-o", str(out)])
        assert rc == 0
        assert "state: T/2/F/0/F/F/F" in out.read_text()

    def test_dot(self, machine_doc, tmp_path):
        out = tmp_path / "m4.dot"
        rc = main(["render", "-i", str(machine_doc), "--format", "dot", "-o", str(out)])
        assert rc == 0
        assert out.read_text().startswith("digraph")

    def test_source_compiles(self, machine_doc, tmp_path):
        out = tmp_path / "m4_machine.py"
        rc = main(["render", "-i", str(machine_doc), "--format", "source", "-o", str(out)])
        assert rc == 0
        compile(out.read_text(), str(out), "exec")

    def test_unknown_format(self, machine_doc, tmp_path):
        rc = main(["render", "-i", str(machine_doc), "--format", "svg", "-o", str(tmp_path / "x")])
        assert rc == 2

    def test_invalid_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"nope\": 1}")
        rc = main(["render", "-i", str(bad), "--format", "text", "-o", str(tmp_path / "x")])
        assert rc == 1
        assert "invalid machine document" in capsys.readouterr().err

    def test_semantically_broken_document(self, machine_doc, tmp_path, capsys):
        doc = json.loads(machine_doc.read_text())
        doc["start_state"] = "T/9/T/9/T/T/T"
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps(doc))
        rc = main(["render", "-i", str(bad), "--format", "text", "-o", str(tmp_path / "x")])
        assert rc == 1

    @pytest.mark.parametrize("fmt", ["text", "dot"])
    def test_repeated_message_declaration(self, machine_doc, tmp_path, capsys, fmt):
        # it used to render every PUT block and edge twice
        doc = json.loads(machine_doc.read_text())
        doc["messages"].append("PUT")
        bad = tmp_path / "twice.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "x"
        rc = main(["render", "-i", str(bad), "--format", fmt, "-o", str(out)])
        assert rc == 1 and not out.exists()
        assert "message 'PUT' declared more than once" in _assert_one_error_line(capsys)

    def test_missing_input(self, tmp_path):
        rc = main(["render", "-i", str(tmp_path / "absent.json"), "--format", "text",
                   "-o", str(tmp_path / "x")])
        assert rc == 1

    def test_non_utf8_input(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"name": "caf\xe9"}')
        rc = main(["render", "-i", str(bad), "--format", "text", "-o", str(tmp_path / "x")])
        assert rc == 1
        assert "cannot read" in _assert_one_error_line(capsys)

    def test_output_directory_missing(self, machine_doc, tmp_path, capsys):
        rc = main(["render", "-i", str(machine_doc), "--format", "text",
                   "-o", str(tmp_path / "absent" / "m4.txt")])
        assert rc == 1
        assert "cannot write" in _assert_one_error_line(capsys)

    def test_bad_module_name(self, machine_doc, tmp_path):
        rc = main(["render", "-i", str(machine_doc), "--format", "source",
                   "-o", str(tmp_path / "x.py"), "--module-name", "9bad"])
        assert rc == 2

    def test_module_name_that_names_the_sink_class(self, machine_doc, tmp_path, capsys):
        out = tmp_path / "action_sink.py"
        rc = main(["render", "-i", str(machine_doc), "--format", "source",
                   "-o", str(out), "--module-name", "action_sink"])
        assert rc == 2
        assert "ActionSink" in _assert_one_error_line(capsys)
        assert not out.exists()

    def test_module_name_that_overwrites_a_module_name(self, machine_doc, tmp_path, capsys):
        out = tmp_path / "value_error.py"
        rc = main(["render", "-i", str(machine_doc), "--format", "source",
                   "-o", str(out), "--module-name", "value_error"])
        assert rc == 2
        assert "'ValueError'" in _assert_one_error_line(capsys)
        assert not out.exists()

    def test_renamed_action_renders_in_every_format(self, machine_doc, tmp_path):
        # SEND_VOTE renamed to SEND_ECHO: a valid document whose actions are
        # not the protocol's own names
        doc = tmp_path / "echo.json"
        doc.write_text(machine_doc.read_text().replace('"SEND_VOTE"', '"SEND_ECHO"'))
        machine = deserialize(doc.read_text())
        assert "SEND_ECHO" in machine.actions and "SEND_VOTE" not in machine.actions
        for fmt, name in (("text", "echo.txt"), ("dot", "echo.dot"), ("source", "echo_machine.py")):
            out = tmp_path / name
            assert main(["render", "-i", str(doc), "--format", fmt, "-o", str(out)]) == 0
        assert "action: send echo message" in (tmp_path / "echo.txt").read_text()
        spec = importlib.util.spec_from_file_location("echo_machine", tmp_path / "echo_machine.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert hasattr(module.ActionSink, "send_echo")
        assert not hasattr(module.ActionSink, "send_vote")
        result = sim.co_simulate(machine, module, sim.random_sequences(machine, 200, 20, seed=3))
        assert result.ok, result.divergences[:1]
        sink = sim.RecordingSink(machine.actions)
        echo = module.create(sink)
        echo.set_state(module.S_T_2_F_0_F_F_F)
        echo.receive("VOTE")
        assert sink.calls == ["SEND_ECHO", "SEND_COMMIT"]

    # send_commit takes the method SEND_COMMIT needs
    @pytest.mark.parametrize("action", ["SEND-VOTE", "CLASS", "ON_FINISH", "send_commit"])
    def test_action_without_a_method_name(self, machine_doc, tmp_path, capsys, action):
        doc = tmp_path / "bad_action.json"
        doc.write_text(machine_doc.read_text().replace('"SEND_VOTE"', f'"{action}"'))
        for fmt in ("text", "dot"):
            assert main(["render", "-i", str(doc), "--format", fmt,
                         "-o", str(tmp_path / f"x.{fmt}")]) == 0
        capsys.readouterr()
        rc = main(["render", "-i", str(doc), "--format", "source", "-o", str(tmp_path / "x.py")])
        assert rc == 1
        assert repr(action) in _assert_one_error_line(capsys)
        assert not (tmp_path / "x.py").exists()

    # names the generated module cannot hold: the renamed name, then the one
    # the error names (a collision names the second of the two)
    @pytest.mark.parametrize("old,new,named", [
        ("NOT_FREE", "NOT-FREE", "NOT-FREE"),
        ("PUT", "vote", "VOTE"),
        ("F/0/F/0/F/F/F", "F 0", "F 0"),
        ("F/1/F/0/F/F/F", "F_0_F_0_F_F_F", "F_0_F_0_F_F_F"),
        ("F/1/F/0/F/F/F", "F_0_F_0_F_F_\uff26", "F_0_F_0_F_F_\uff26"),
    ])
    def test_name_without_an_identifier(self, machine_doc, tmp_path, capsys, old, new, named):
        doc = tmp_path / "bad_name.json"
        doc.write_text(machine_doc.read_text().replace(f'"{old}"', json.dumps(new)))
        for fmt in ("text", "dot"):
            assert main(["render", "-i", str(doc), "--format", fmt,
                         "-o", str(tmp_path / f"x.{fmt}")]) == 0
        capsys.readouterr()
        rc = main(["render", "-i", str(doc), "--format", "source", "-o", str(tmp_path / "x.py")])
        assert rc == 1
        assert repr(named) in _assert_one_error_line(capsys)
        assert not (tmp_path / "x.py").exists()

    # a line break in an annotation would end its comment line in the
    # generated module, and a null byte makes the module uncompilable
    @pytest.mark.parametrize("path", [
        ("states", 0, "annotations", 0),
        ("states", 0, "transitions", 1, "annotations", 0),
    ], ids=["state", "transition"])
    @pytest.mark.parametrize("tail", ["x\n)", "x\rINJECTED = 42", "\0"],
                             ids=["newline", "return", "null"])
    def test_annotation_that_is_no_comment_line(self, machine_doc, tmp_path, capsys, path, tail):
        doc = json.loads(machine_doc.read_text())
        *keys, last = path
        functools.reduce(operator.getitem, keys, doc)[last] += tail
        bad = tmp_path / "bad_note.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "x.py"
        assert main(["render", "-i", str(bad), "--format", "source", "-o", str(out)]) == 1
        assert "annotation" in _assert_one_error_line(capsys)
        assert not out.exists()
        assert main(["render", "-i", str(bad), "--format", "source", "--no-annotations",
                     "-o", str(out)]) == 0
        compile(out.read_text(), str(out), "exec")

    # each malformed shape that deserialize rejects: the path into the r = 4
    # document and the value put there (the empty path replaces the document)
    @pytest.mark.parametrize("path,value", [
        (("components", 1, "name"), "put_received"),
        (("components", 0, "max"), 1),
        (("components", 1, "max"), -1),
        (("replication_factor",), True),
        (("start_state",), 5),
        (("messages", 0), 1),
        ((), []),
        (("components", 0), 1),
        (("states", 0), "F/0/F/0/F/F/F"),
        (("states", 0, "transitions", 0), []),
    ], ids=[
        "duplicate-component", "boolean-with-max", "negative-max", "bool-for-int",
        "int-for-str", "int-in-list", "top-level-list", "component-not-object",
        "state-not-object", "transition-not-object",
    ])
    def test_malformed_document(self, machine_doc, tmp_path, capsys, path, value):
        doc = json.loads(machine_doc.read_text())
        if path:
            *keys, last = path
            functools.reduce(operator.getitem, keys, doc)[last] = value
        else:
            doc = value
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["render", "-i", str(bad), "--format", "text", "-o", str(tmp_path / "x")])
        assert rc == 1
        assert "invalid machine document" in _assert_one_error_line(capsys)

    def test_deeply_nested_document(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000 + "]" * 100_000)
        rc = main(["render", "-i", str(bad), "--format", "text", "-o", str(tmp_path / "x")])
        assert rc == 1
        assert "nested too deeply" in _assert_one_error_line(capsys)

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="integers have no digit limit")
    def test_integer_past_the_digit_limit(self, machine_doc, tmp_path, capsys):
        huge = "9" * (INT_DIGIT_LIMIT + 1)
        bad = tmp_path / "huge.json"
        bad.write_text(machine_doc.read_text().replace(
            '"replication_factor": 4', f'"replication_factor": {huge}'))
        rc = main(["render", "-i", str(bad), "--format", "text", "-o", str(tmp_path / "x")])
        assert rc == 1
        assert _assert_one_error_line(capsys).startswith("error: invalid machine document: ")

    def test_unencodable_name(self, machine_doc, tmp_path, capsys):
        # a lone surrogate is valid JSON, but no UTF-8 file can hold it
        doc = tmp_path / "surrogate.json"
        doc.write_text(machine_doc.read_text().replace('"F/0/F/0/F/F/F"', '"\\ud800"'))
        out = tmp_path / "x.txt"
        rc = main(["render", "-i", str(doc), "--format", "text", "-o", str(out)])
        assert rc == 1
        assert "cannot write" in _assert_one_error_line(capsys)
        assert not out.exists()


class TestSimulate:
    def test_tolerated_fault_sweep(self, capsys):
        rc = main(["simulate", "-r", "4", "--silent", "1", "--seeds", "10"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10
        assert all(line.endswith("PASS") for line in lines)
        assert lines[0] == "single_update,4,silent=1,0,PASS"

    def test_too_many_faults(self, capsys):
        rc = main(["simulate", "-r", "4", "--silent", "2", "--crash", "2"])
        assert rc == 2
        assert "smaller than the cluster size" in _assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "flags, reason",
        [
            (["--silent", "4"], "smaller than the cluster size"),
            (["--silent", "2", "--crash", "3"], "smaller than the cluster size"),
            (["--silent", "2", "--crash", "2", "--seeds", "0"], "smaller than the cluster size"),
            (["--silent", "-1"], "non-negative"),
            (["--seeds", "-1"], "non-negative"),
        ],
    )
    def test_bad_fault_flags_exit_2(self, flags, reason, capsys):
        assert main(["simulate", "-r", "4", *flags]) == 2
        assert reason in _assert_one_error_line(capsys)

    def test_trace_directory(self, tmp_path, capsys):
        rc = main(["simulate", "-r", "4", "--seeds", "2", "--trace-dir", str(tmp_path)])
        assert rc == 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == [
            "trace-single_update-r4-seed0.txt",
            "trace-single_update-r4-seed1.txt",
        ]

    def test_trace_dir_is_a_file(self, tmp_path, capsys):
        occupied = tmp_path / "occupied"
        occupied.write_text("")
        rc = main(["simulate", "-r", "4", "--seeds", "1", "--trace-dir", str(occupied)])
        assert rc == 1
        assert "trace directory" in _assert_one_error_line(capsys)

    def test_trace_path_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "trace-single_update-r4-seed0.txt").mkdir()
        rc = main(["simulate", "-r", "4", "--seeds", "1", "--trace-dir", str(tmp_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "single_update,4,none,0,PASS\n"
        (line,) = captured.err.splitlines()
        assert line.startswith("error: cannot write ") and "seed0.txt" in line

    def test_trace_determinism(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["simulate", "-r", "4", "--silent", "1", "--seeds", "2", "--trace-dir", str(a)])
        main(["simulate", "-r", "4", "--silent", "1", "--seeds", "2", "--trace-dir", str(b)])
        for name in ("trace-single_update-r4-seed0.txt", "trace-single_update-r4-seed1.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_concurrent_scenario(self, capsys):
        rc = main(["simulate", "-r", "4", "--scenario", "concurrent_updates", "--seeds", "5"])
        assert rc == 0

    def test_small_cluster_rejected(self, capsys):
        assert main(["simulate", "-r", "2", "--seeds", "1"]) == 2
        assert "at least 4" in _assert_one_error_line(capsys)

    def test_failing_run_names_the_missing_quorums(self, tmp_path, capsys, monkeypatch):
        # two silent nodes at r = 4 exceed the fault budget, so the run
        # passes; a failing verdict forced on it makes the CLI report the
        # stall of the two correct nodes
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sim, "check_agreement", lambda trace, config: sim.Verdict(False, "liveness"))
        rc = main(["simulate", "-r", "4", "--silent", "2", "--seed", "5"])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "first failing trace: trace-single_update-r4-seed5.txt"
        assert [line.split(":")[1].strip() for line in err[1:]] == [
            "node 2 is STUCK on U0",
            "node 3 is STUCK on U0",
        ]
        assert all("for a quorum of r-f=3" in line for line in err[1:])


def test_python_dash_m_runs_the_command(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-m", "commitfsm", "simulate", "-r", "4", "--seeds", "2"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "single_update,4,none,0,PASS",
        "single_update,4,none,1,PASS",
    ]


class TestBench:
    def test_single_row(self, capsys):
        rc = main(["bench", "--f", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "f,r,initial,final,seconds"
        fields = lines[1].split(",")
        assert fields[:4] == ["1", "4", "512", "33"]
        float(fields[4])

    def test_interpolated_row(self, capsys):
        rc = main(["bench", "--f", "3"])
        assert rc == 0
        fields = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert fields[:4] == ["3", "10", "3200", "161"]

    def test_bad_fault_list(self, capsys):
        assert main(["bench", "--f", "0"]) == 2
        assert main(["bench", "--f", "x"]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2
