"""Deterministic, seeded simulation of r replica nodes running a generated machine.

A client broadcasts one put per update to every node; every SEND_* action a
node's machine performs is broadcast to all its peers (never to itself).
FREE and NOT_FREE arise from a per-node slot controller that arbitrates
which pending update may claim the next history slot; a network NOT_FREE
carrying update u is delivered into the receiving node's machines for the
competing updates.  Delivery order is driven entirely by the seed, so a
trace is a pure function of (machine, config).

Fault kinds: a silent node drops all its outbound messages, a crashed node
stops processing after a set number of deliveries, and a Byzantine
equivocator replaces each outbound message, per peer, with a random
syntactically valid protocol message.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .fsm import FINISH, StateMachine, step

SILENT = "silent"
CRASH = "crash"
BYZANTINE = "byzantine_equivocate"
FAULT_KINDS = (SILENT, CRASH, BYZANTINE)

SINGLE_UPDATE = "single_update"
CONCURRENT_UPDATES = "concurrent_updates"
SCENARIOS = (SINGLE_UPDATE, CONCURRENT_UPDATES)

FIFO_PER_LINK = "fifo_per_link"
RANDOM_INTERLEAVE = "random_interleave"
DELIVERY_MODES = (FIFO_PER_LINK, RANDOM_INTERLEAVE)

FINISHED = "FINISHED"
STUCK = "STUCK"
CRASHED = "CRASHED"

CLIENT = "client"
CONTROLLER = "ctrl"

# Network message kinds a Byzantine node may inject (FREE is controller-local).
_WIRE_KINDS = ("PUT", "VOTE", "COMMIT", "NOT_FREE")
# The machine actions that broadcast a message, and the kind they send.
_WIRE_KIND_OF = {"SEND_VOTE": "VOTE", "SEND_COMMIT": "COMMIT", "SEND_NOT_FREE": "NOT_FREE"}


class ConfigError(ValueError):
    """Simulation configuration inconsistent with the machine."""


@dataclass(frozen=True)
class Fault:
    node: int
    kind: str
    crash_step: int | None = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r}")


@dataclass(frozen=True)
class SimConfig:
    replication_factor: int
    seed: int
    scenario: str = SINGLE_UPDATE
    faults: tuple[Fault, ...] = ()
    delivery: str = FIFO_PER_LINK

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.delivery not in DELIVERY_MODES:
            raise ConfigError(f"unknown delivery mode {self.delivery!r}")
        nodes = [f.node for f in self.faults]
        if len(set(nodes)) != len(nodes):
            raise ConfigError("fault plan names a node twice")
        if any(n < 0 or n >= self.replication_factor for n in nodes):
            raise ConfigError("fault plan names a node outside the cluster")
        if len(nodes) >= self.replication_factor:
            raise ConfigError("fault count must be smaller than the cluster size")

    @property
    def updates(self) -> tuple[str, ...]:
        if self.scenario == SINGLE_UPDATE:
            return ("U0",)
        return ("U0", "U1")


class Event(NamedTuple):
    """One processed delivery: the machine step it caused."""

    step: int
    sender: str
    receiver: int
    message: str
    update: str
    state_before: str
    state_after: str
    actions: tuple[str, ...]


@dataclass
class SimTrace:
    replication_factor: int
    scenario: str
    seed: int
    delivery: str
    events: tuple[Event, ...]
    statuses: dict[int, str]
    finish_orders: dict[int, tuple[str, ...]]
    faulty: tuple[int, ...]

    def serialize(self) -> str:
        """Line-delimited records: step,from,to,message,state_before,state_after,actions."""
        lines = [
            f"# scenario={self.scenario} r={self.replication_factor} "
            f"seed={self.seed} delivery={self.delivery} faulty={list(self.faulty)}"
        ]
        for e in self.events:
            actions = ";".join(e.actions)
            lines.append(
                f"{e.step},{e.sender},{e.receiver},{e.message}:{e.update},"
                f"{e.state_before},{e.state_after},{actions}"
            )
        for node in sorted(self.statuses):
            order = ";".join(self.finish_orders[node])
            lines.append(f"# node={node} status={self.statuses[node]} finished={order}")
        return "\n".join(lines) + "\n"


class Verdict(NamedTuple):
    ok: bool
    reason: str | None = None

    def __str__(self):
        return "PASS" if self.ok else f"FAIL({self.reason})"


class _Scheduler:
    """Pending deliveries, drained in a seeded order.

    fifo_per_link keeps per-(sender, receiver) FIFO queues and picks a random
    nonempty link each turn; random_interleave picks a random pending message
    regardless of origin.
    """

    def __init__(self, mode: str, rng: random.Random):
        self.mode = mode
        self.rng = rng
        self._links: dict[tuple, deque] = {}
        self._ready: list[tuple] = []
        self._pool: list = []

    def put(self, sender, receiver, kind, update):
        item = (sender, receiver, kind, update)
        if self.mode == FIFO_PER_LINK:
            key = (sender, receiver)
            q = self._links.get(key)
            if q is None:
                q = self._links[key] = deque()
            if not q:
                self._ready.append(key)
            q.append(item)
        else:
            self._pool.append(item)

    def __bool__(self):
        return bool(self._ready or self._pool)

    def next(self):
        if self.mode == FIFO_PER_LINK:
            i = self.rng.randrange(len(self._ready))
            key = self._ready[i]
            q = self._links[key]
            item = q.popleft()
            if not q:
                del self._ready[i]
            return item
        i = self.rng.randrange(len(self._pool))
        return self._pool.pop(i)


class SlotController:
    """Per-node arbiter of the next history slot.

    Grants FREE to at most one pending update at a time, in a fixed global
    priority order (update id order) so that every correct node works through
    concurrent updates in the same sequence; emits NOT_FREE to the competing
    pending updates on each grant and releases the next FREE when the granted
    update finishes.
    """

    def __init__(self, updates: tuple[str, ...]):
        self.priority = tuple(sorted(updates))
        self.pending: set[str] = set()
        self.finished: set[str] = set()
        self.granted: str | None = None

    def on_put(self, update: str) -> list[tuple[str, str]]:
        if update not in self.finished:
            self.pending.add(update)
        return self._pump()

    def on_finish(self, update: str) -> list[tuple[str, str]]:
        self.pending.discard(update)
        self.finished.add(update)
        if self.granted == update or self.granted in self.finished:
            self.granted = None
        return self._pump()

    def _pump(self) -> list[tuple[str, str]]:
        """Return locally delivered (kind, update) slot messages."""
        if self.granted is not None:
            return []
        for update in self.priority:
            if update in self.finished:
                continue
            if update not in self.pending:
                return []  # wait for the put of the next update in order
            self.granted = update
            out = [("FREE", update)]
            for other in self.priority:
                if other in self.pending and other != update:
                    out.append(("NOT_FREE", other))
            return out
        return []


def run_simulation(machine: StateMachine, config: SimConfig) -> SimTrace:
    """Run one seeded scenario to completion and return the full trace."""
    r = config.replication_factor
    if machine.replication_factor != r:
        raise ConfigError(
            f"machine was generated for r={machine.replication_factor}, "
            f"config wants r={r}"
        )
    updates = config.updates
    rng = random.Random(config.seed)
    fault_of = {f.node: f for f in config.faults}
    crash_step: dict[int, int] = {}
    for f in config.faults:
        if f.kind == CRASH:
            crash_step[f.node] = (
                f.crash_step
                if f.crash_step is not None
                else rng.randrange(1, 4 * r * len(updates) + 2)
            )

    cursors: dict[tuple[int, str], str] = {}
    controllers = {n: SlotController(updates) for n in range(r)}
    processed: dict[int, int] = {n: 0 for n in range(r)}
    crashed: set[int] = set()
    seen: set[tuple] = set()
    finish_orders: dict[int, list[str]] = {n: [] for n in range(r)}
    events: list[Event] = []
    sched = _Scheduler(config.delivery, rng)
    step_no = 0

    for update in updates:
        for node in range(r):
            sched.put(CLIENT, node, "PUT", update)

    def machine_step(node: int, sender: str, kind: str, update: str):
        before = cursors.get((node, update), machine.start_state)
        if before == FINISH:
            return
        actions, after = step(machine, before, kind)
        cursors[(node, update)] = after
        events.append(Event(step_no, sender, node, kind, update, before, after, actions))
        if after == FINISH:
            finish_orders[node].append(update)
            for k, u in controllers[node].on_finish(update):
                sched.put(CONTROLLER, node, k, u)
        emit(node, update, actions)

    def emit(node: int, update: str, actions: tuple[str, ...]):
        fault = fault_of.get(node)
        if fault is not None and fault.kind == SILENT:
            return
        for action in actions:
            kind = _WIRE_KIND_OF.get(action)
            if kind is None:
                continue
            for peer in range(r):
                if peer == node:
                    continue
                if fault is not None and fault.kind == BYZANTINE:
                    sched.put(
                        str(node),
                        peer,
                        rng.choice(_WIRE_KINDS),
                        rng.choice(updates),
                    )
                else:
                    sched.put(str(node), peer, kind, update)

    while sched:
        sender, node, kind, update = sched.next()
        step_no += 1
        if node in crashed:
            continue
        limit = crash_step.get(node)
        if limit is not None and processed[node] >= limit:
            crashed.add(node)
            continue
        if sender not in (CLIENT, CONTROLLER):
            key = (sender, node, kind, update)
            if key in seen:
                continue
            seen.add(key)
        processed[node] += 1
        if sender != CONTROLLER and kind == "NOT_FREE":
            # a peer claimed the slot for `update`: its competitors at this
            # node may no longer choose
            for other in updates:
                if other != update:
                    machine_step(node, sender, "NOT_FREE", other)
            continue
        machine_step(node, sender, kind, update)
        if kind == "PUT":
            for k, u in controllers[node].on_put(update):
                sched.put(CONTROLLER, node, k, u)

    statuses = {}
    for node in range(r):
        if node in crashed:
            statuses[node] = CRASHED
        elif len(finish_orders[node]) == len(updates):
            statuses[node] = FINISHED
        else:
            statuses[node] = STUCK
    return SimTrace(
        replication_factor=r,
        scenario=config.scenario,
        seed=config.seed,
        delivery=config.delivery,
        events=tuple(events),
        statuses=statuses,
        finish_orders={n: tuple(v) for n, v in finish_orders.items()},
        faulty=tuple(sorted(fault_of)),
    )


def check_agreement(trace: SimTrace, config: SimConfig) -> Verdict:
    """Safety: finished correct nodes agree on what finished (and in what
    order, for concurrent updates).  Liveness: with at most f faulty nodes,
    every correct node finishes."""
    f = (config.replication_factor - 1) // 3
    correct = [n for n in range(config.replication_factor) if n not in trace.faulty]
    finished = [n for n in correct if trace.statuses.get(n) == FINISHED]
    orders = {trace.finish_orders[n] for n in finished}
    if len(orders) > 1:
        return Verdict(False, "safety")
    if len(trace.faulty) <= f:
        if any(trace.statuses.get(n) != FINISHED for n in correct):
            return Verdict(False, "liveness")
    return Verdict(True)


def check_quorum_safety(trace: SimTrace, vote_threshold: int, commit_threshold: int) -> list[str]:
    """Trace-level re-check of the commit thresholds for correct nodes.

    A correct node may emit SEND_COMMIT only when its total vote count (own
    vote included) has reached the vote threshold or its received commit
    count has reached the external commit threshold.
    """
    violations = []
    for e in trace.events:
        if e.receiver in trace.faulty or "SEND_COMMIT" not in e.actions:
            continue
        if e.state_after == FINISH:
            commits_before = int(e.state_before.split("/")[3])
            if e.message == "COMMIT" and commits_before + 1 >= commit_threshold:
                continue
            violations.append(f"step {e.step}: commit echo without threshold")
            continue
        parts = e.state_after.split("/")
        total = int(parts[1]) + (1 if parts[2] == "T" else 0)
        if total < vote_threshold:
            violations.append(
                f"step {e.step}: SEND_COMMIT with total votes {total} < {vote_threshold}"
            )
    return violations


class RecordingSink:
    """Action sink that records emitted actions, for co-simulation."""

    def __init__(self):
        self.calls: list[str] = []
        self.finished = False

    def send_vote(self):
        self.calls.append("SEND_VOTE")

    def send_commit(self):
        self.calls.append("SEND_COMMIT")

    def send_not_free(self):
        self.calls.append("SEND_NOT_FREE")

    def on_finish(self):
        self.finished = True


class Divergence(NamedTuple):
    sequence: int
    step: int
    message: str
    expected: tuple
    actual: tuple


@dataclass
class CoSimResult:
    ok: bool
    steps_checked: int
    divergences: list[Divergence] = field(default_factory=list)


def co_simulate(machine: StateMachine, module, sequences) -> CoSimResult:
    """Drive the interpreter and a generated module in lock step.

    `module` is an imported module produced by render_source (it exposes
    create(sink) and state constants).  Each sequence is replayed from the
    start state on both sides; a sequence stops early when the run finishes.
    Returns the first divergence per sequence, if any.
    """
    result = CoSimResult(ok=True, steps_checked=0)
    for seq_idx, sequence in enumerate(sequences):
        sink = RecordingSink()
        gen = module.create(sink)
        state = machine.start_state
        for step_idx, message in enumerate(sequence):
            if state == machine.finish_state:
                break
            actions, nxt = step(machine, state, message)
            sink.calls.clear()
            sink.finished = False
            gen.receive(message)
            got = (tuple(sink.calls), gen.get_state(), sink.finished)
            want = (actions, nxt, nxt == machine.finish_state)
            result.steps_checked += 1
            if got != want:
                result.ok = False
                result.divergences.append(
                    Divergence(seq_idx, step_idx, message, want, got)
                )
                break
            state = nxt
    return result


def random_sequences(machine: StateMachine, count: int, max_len: int, seed: int):
    """Seeded random message sequences for behavioural comparisons."""
    rng = random.Random(seed)
    messages = machine.messages
    return [
        [rng.choice(messages) for _ in range(rng.randrange(1, max_len + 1))]
        for _ in range(count)
    ]
