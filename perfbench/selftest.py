"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics the code reports, that
the output checks count a machine with one transition redirected as a
failure, that every workload prints every named metric (one-second runs,
untraced and traced, about two minutes in all), and that the benchmark
refuses to run, without printing a result, where the program's sources are
missing.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from commitfsm import fsm, render, sim  # noqa: E402
from perfbench import layers, run, workloads as wl  # noqa: E402

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def catalogue() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END),
        "BENCHMARK.json end_to_end matches the metrics run.py reports",
    )
    expect(
        [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(layers.PER_LAYER),
        "BENCHMARK.json per_layer matches the metrics layers.py reports",
    )
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.py")
    return bench


def redirected(machine: fsm.StateMachine) -> fsm.StateMachine:
    """A copy of machine whose documented VOTE transition of T/2/F/0/F/F/F goes back to the start."""
    states = dict(machine.states)
    st = states["T/2/F/0/F/F/F"]
    transitions = dict(st.transitions)
    transitions["VOTE"] = transitions["VOTE"]._replace(to=machine.start_state)
    states[st.name] = st._replace(transitions=transitions)
    return dataclasses.replace(machine, states=states)


def corrupted_machine_is_counted() -> None:
    machine, counts, diags, doc = wl.generate_document(4)
    checks = wl.Checks()
    wl.check_document(checks, 4, counts, diags, doc)
    expect(checks.failed == 0, "the r = 4 document passes the family checks")

    bad = redirected(machine)
    checks = wl.Checks()
    wl.check_document(checks, 4, counts, fsm.validate(bad), fsm.serialize(bad))
    expect(checks.failed > 0, "family checks count the redirected transition as a failure")

    checks = wl.Checks()
    wl.check_sweep_machines(checks, {4: bad})
    expect(checks.failed > 0, "sweep checks count the redirected transition as a failure")

    source = render.render_source(machine, module_name=wl.MODULE_NAME)
    module = wl.load_module(source)
    sequences = sim.random_sequences(machine, 500, 20, seed=1)
    steps = sum(wl.drive(module, s) for s in sequences)
    # The r = 4 module is smaller than the recorded r = 46 one, which fails
    # one check either way; the redirected transition must fail more.
    clean, corrupt = wl.Checks(), wl.Checks()
    wl.check_codegen(clean, machine, machine, [], source, module, sequences, steps)
    wl.check_codegen(corrupt, machine, bad, [], source, module, sequences, steps)
    expect(corrupt.failed > clean.failed, "codegen checks count the redirected transition as a failure")


def run_benchmark(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def every_metric_is_printed(bench: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = {m["name"] for m in bench[key]}
        for workload in run.WORKLOADS:
            done = run_benchmark(["--workload", workload, "--seed", "1", "--seconds", "1",
                                  "--trace", str(trace)], ROOT)
            result = json.loads(done.stdout.strip().splitlines()[-1]) if done.returncode == 0 else {}
            expect(set(result.get("metrics", {})) == names and result.get("correct") is True,
                   f"{workload} --trace {trace}: correct, every {key} metric printed")


def refuses_without_sources() -> None:
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    done = run_benchmark(["--workload", "family", "--seed", "1", "--seconds", "1"], bare)
    shutil.rmtree(bare)
    expect(done.returncode != 0 and "{" not in done.stdout,
           "without the sources the benchmark exits non-zero and prints no result")


def main() -> int:
    bench = catalogue()
    corrupted_machine_is_counted()
    refuses_without_sources()
    every_metric_is_printed(bench)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
