"""README's library example runs as written and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def library_example():
    """The fenced python block under "## Library"."""
    section = README[README.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_as_written():
    block = library_example()
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), namespace)
    lines = out.getvalue().splitlines()

    assert "# 1,4,512,48,33,6,<ms>" in block
    assert lines[0].startswith("1,4,512,48,33,6,")
    assert '# (("SEND_VOTE", "SEND_COMMIT"), "T/3/T/0/T/F/F")' in block
    assert (namespace["actions"], namespace["nxt"]) == (
        ("SEND_VOTE", "SEND_COMMIT"), "T/3/T/0/T/F/F")
    assert "# PASS" in block
    assert lines[-1] == "PASS"

    # the counters line quoted under "Simulation traces" is this run's
    quoted = [line for line in README.splitlines() if line.startswith("# counters ")]
    assert quoted == [namespace["trace"].serialize().splitlines()[-1]]
