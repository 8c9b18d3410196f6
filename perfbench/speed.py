"""Host-speed calibration for times measured on a shared machine.

On a host shared with other tenants the speed of the processor drifts, by
a third or more over tens of seconds, and the drift shows in processor
time as much as in wall time.  A fixed probe of pure-Python work of the
kinds commitfsm does (formatting and splitting strings, building tuples
and dicts, encoding JSON) is timed between the operations, every few
tenths of a second, and each time measured is scaled by REFERENCE_S over
the mean of the probes just before and just after it: to a host on which
the probe takes REFERENCE_S.  The probe runs no commitfsm code, so a
change to the program moves the scaled times exactly as it moves the raw
ones, while a slower or faster host moves the probe as well and cancels
out.  The probe tracks work with a small working set closely; the
multi-second generations of large machines, whose speed depends more on
the memory system, it tracks only roughly.

Work with a working set of hundreds of megabytes slows down on a loaded
host by much less than that probe does.  The codegen workload's set-up (the
r = 46 generation) and render path (most of which is the import of the
3.6 MB generated module) are therefore scaled by a second probe instead:
the compilation of a fixed synthetic module of about 0.5 MB in the shape of
the generated one (string constants and long if/elif chains), also free of
commitfsm code.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

REFERENCE_S = 0.003
COMPILE_REFERENCE_S = 0.15
PROBE_REPEATS = 3


def _probe() -> int:
    table = {}
    for i in range(3000):
        key = f"{i}/{i % 7}/T"
        table[key] = (i, key.split("/"), {"n": i})
    return len(json.dumps([list(value[1]) for value in table.values()]))


def _synthetic_module(branches: int = 1000, functions: int = 6) -> str:
    lines = [f'S{i} = "{i}/{i % 7}/{"TF"[i % 2]}"' for i in range(branches)]
    for f in range(functions):
        lines.append(f"def handle{f}(self):")
        lines.append("    state = self._state")
        for i in range(branches):
            lines.append(f"    {'elif' if i else 'if'} state == S{i}:")
            lines.append(f"        self._sink.send_{(i + f) % 3}()")
            lines.append(f"        self._state = S{(i * 7 + f) % branches}")
    return "\n".join(lines) + "\n"


_SYNTHETIC_MODULE = _synthetic_module()


def compile_probe() -> int:
    return len(compile(_SYNTHETIC_MODULE, "<probe>", "exec").co_names)


class Speed:
    """Probe times of one run, and the times measured between them."""

    def __init__(self, probe=_probe, reference_s: float = REFERENCE_S, repeats: int = PROBE_REPEATS):
        self.probe = probe
        self.reference_s = reference_s
        self.repeats = repeats
        self.probes: list[float] = []

    def calibrate(self) -> None:
        """Time the probe, with the collector paused; keep the median of a few repeats."""
        times = []
        gc.disable()
        try:
            for _ in range(self.repeats):
                t0 = time.perf_counter()
                self.probe()
                times.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        self.probes.append(statistics.median(times))

    def tag(self, seconds: float) -> tuple[int, float]:
        """A measured time, tagged with the latest probe before it."""
        return len(self.probes) - 1, seconds

    def scaled(self, tagged: list[tuple[int, float]]) -> list[float]:
        """The tagged times referred to the reference host."""
        out = []
        for index, seconds in tagged:
            near = self.probes[index:index + 2]
            out.append(seconds * self.reference_s * len(near) / sum(near))
        return out

    def report(self, name: str = "host_probe_ms") -> tuple:
        """Report line: the median probe time of the run, the host's speed."""
        return (name, statistics.median(self.probes) * 1e3, "ms", len(self.probes))
