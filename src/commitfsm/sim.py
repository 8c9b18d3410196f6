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
from functools import partial
from typing import NamedTuple

from .bft import ACTIONS, BftParameters, fault_tolerance
from .fsm import StateMachine, action_message, sink_method, step

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

class ConfigError(ValueError):
    """Simulation configuration inconsistent with the machine."""


@dataclass(frozen=True, slots=True)
class Fault:
    node: int
    kind: str
    crash_step: int | None = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r}")


@dataclass(frozen=True, slots=True)
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
        if len(nodes) >= self.replication_factor:
            raise ConfigError("fault count must be smaller than the cluster size")
        if any(n < 0 or n >= self.replication_factor for n in nodes):
            raise ConfigError("fault plan names a node outside the cluster")

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


@dataclass(frozen=True)
class SimCounters:
    """What happened to the messages of one run.

    Every message put on the network is taken off it once, so the client's
    ``r * len(updates)`` puts plus ``controller`` plus ``sent`` equal
    ``delivered``.
    """

    sent: int = 0  # peer messages put by nodes, Byzantine injections included
    delivered: int = 0  # messages taken off the network, from every sender
    deduplicated: int = 0  # peer messages discarded as repeats
    dropped: int = 0  # messages that reached a crashed node
    injected: int = 0  # messages a Byzantine node put in place of its own
    controller: int = 0  # FREE and NOT_FREE messages of the slot controllers
    # node -> the delivery step at which it finished its last update
    finish_steps: dict[int, int] = field(default_factory=dict)


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
    counters: SimCounters = field(default_factory=SimCounters)

    def serialize(self) -> str:
        """Line-delimited records: step,from,to,message,state_before,state_after,actions.

        A header line precedes them; one ``# node=`` line per node and one
        ``# counters`` line follow them.
        """
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
        c = self.counters
        steps = ";".join(f"{n}:{s}" for n, s in sorted(c.finish_steps.items()))
        lines.append(
            f"# counters sent={c.sent} delivered={c.delivered} "
            f"deduplicated={c.deduplicated} dropped={c.dropped} "
            f"injected={c.injected} controller={c.controller} finish_steps={steps}"
        )
        return "\n".join(lines) + "\n"


class Verdict(NamedTuple):
    ok: bool
    reason: str | None = None

    def __str__(self):
        return "PASS" if self.ok else f"FAIL({self.reason})"


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
        if self.granted == update:
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


def _below(getrandbits, n: int) -> int:
    """Draw uniformly from range(n) by rejection over ``getrandbits``.

    This is the algorithm ``Random.randrange(n)`` and ``Random.choice`` run
    (CPython 3.10 to 3.13), draw for draw, so a trace depends only on the
    generator's ``getrandbits`` stream.
    """
    k = n.bit_length()
    x = getrandbits(k)
    while x >= n:
        x = getrandbits(k)
    return x


def run_simulation(machine: StateMachine, config: SimConfig) -> SimTrace:
    """Run one seeded scenario to completion and return the full trace.

    Pending deliveries are drained in a seeded order: fifo_per_link keeps
    per-(sender, receiver) FIFO queues and picks a random nonempty link each
    turn; random_interleave picks a random pending message regardless of
    origin.  Every random index comes from ``_below``.
    """
    r = config.replication_factor
    if machine.replication_factor != r:
        raise ConfigError(
            f"machine was generated for r={machine.replication_factor}, "
            f"config wants r={r}"
        )
    updates = config.updates
    n_updates = len(updates)
    rng = random.Random(config.seed)
    getrandbits = rng.getrandbits
    crash_step: dict[int, int] = {}
    silent: set[int] = set()
    byzantine: set[int] = set()
    for f in config.faults:
        if f.kind == CRASH:
            crash_step[f.node] = (
                f.crash_step
                if f.crash_step is not None
                else 1 + _below(getrandbits, 4 * r * n_updates + 1)
            )
        elif f.kind == SILENT:
            silent.add(f.node)
        else:
            byzantine.add(f.node)

    # The actions that broadcast a message, and the message they send.
    wire_of = {a: m for a in machine.actions if (m := action_message(a))}
    # What a Byzantine node may forge: any message but the controller-local FREE.
    forged = tuple(m for m in machine.messages if m != "FREE")
    names = [str(n) for n in range(r)]
    peers = [[p for p in range(r) if p != n] for n in range(r)]
    states = machine.states
    start = machine.start_state
    finish = machine.finish_state
    cursors: dict[tuple[int, str], str] = {}
    controllers = [SlotController(updates) for _ in range(r)]
    processed = {n: 0 for n in range(r)}
    crashed: set[int] = set()
    seen: set[tuple] = set()
    finish_orders: dict[int, list[str]] = {n: [] for n in range(r)}
    finish_steps: dict[int, int] = {}
    events: list[Event] = []
    step_no = sent = deduplicated = dropped = injected = local = 0

    fifo = config.delivery == FIFO_PER_LINK
    pending: list = []  # fifo: the nonempty link queues; else the messages
    if fifo:
        links: dict[tuple, deque] = {}

        def put(sender, receiver, kind, update):
            q = links.get((sender, receiver))
            if q is None:
                q = links[sender, receiver] = deque()
            if not q:
                pending.append(q)
            q.append((sender, receiver, kind, update))
    else:

        def put(sender, receiver, kind, update):
            pending.append((sender, receiver, kind, update))

    for update in updates:
        for node in range(r):
            put(CLIENT, node, "PUT", update)

    while pending:
        i = _below(getrandbits, len(pending))
        if fifo:
            q = pending[i]
            item = q.popleft()
            if not q:
                del pending[i]
        else:
            item = pending.pop(i)
        step_no += 1
        sender, node, kind, update = item
        if node in crashed:
            dropped += 1
            continue
        limit = crash_step.get(node)
        if limit is not None and processed[node] >= limit:
            crashed.add(node)
            dropped += 1
            continue
        if sender != CLIENT and sender != CONTROLLER:
            if item in seen:
                deduplicated += 1
                continue
            seen.add(item)
        processed[node] += 1
        if sender != CONTROLLER and kind == "NOT_FREE":
            # a peer claimed the slot for `update`: its competitors at this
            # node may no longer choose
            targets = [u for u in updates if u != update]
        else:
            targets = (update,)
        for u in targets:
            before = cursors.get((node, u), start)
            if before == finish:
                continue
            try:
                t = states[before].transitions[kind]
            except KeyError:
                step(machine, before, kind)  # raises the interpreter's error
                raise
            actions = t.actions
            after = t.to
            cursors[node, u] = after
            events.append(Event(step_no, sender, node, kind, u, before, after, actions))
            if after == finish:
                order = finish_orders[node]
                order.append(u)
                if len(order) == n_updates:
                    finish_steps[node] = step_no
                for k, v in controllers[node].on_finish(u):
                    put(CONTROLLER, node, k, v)
                    local += 1
            if not actions or node in silent:
                continue
            for action in actions:
                wire = wire_of.get(action)
                if wire is None:
                    continue
                name = names[node]
                if node in byzantine:
                    for peer in peers[node]:
                        put(name, peer, forged[_below(getrandbits, len(forged))],
                            updates[_below(getrandbits, n_updates)])
                    injected += r - 1
                else:
                    for peer in peers[node]:
                        put(name, peer, wire, u)
                sent += r - 1
        if kind == "PUT":
            for k, v in controllers[node].on_put(update):
                put(CONTROLLER, node, k, v)
                local += 1

    statuses = {}
    for node in range(r):
        if node in crashed:
            statuses[node] = CRASHED
        elif len(finish_orders[node]) == n_updates:
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
        faulty=tuple(sorted(f.node for f in config.faults)),
        counters=SimCounters(sent, step_no, deduplicated, dropped, injected, local, finish_steps),
    )


def check_agreement(trace: SimTrace, config: SimConfig) -> Verdict:
    """Safety: finished correct nodes agree on what finished (and in what
    order, for concurrent updates).  Liveness: with at most f faulty nodes,
    every correct node finishes."""
    f = fault_tolerance(config.replication_factor)
    correct = [n for n in range(config.replication_factor) if n not in trace.faulty]
    finished = [n for n in correct if trace.statuses.get(n) == FINISHED]
    orders = {trace.finish_orders[n] for n in finished}
    if len(orders) > 1:
        return Verdict(False, "safety")
    if len(trace.faulty) <= f:
        if any(trace.statuses.get(n) != FINISHED for n in correct):
            return Verdict(False, "liveness")
    return Verdict(True)


def stall_report(trace: SimTrace, config: SimConfig) -> list[str]:
    """Name what a run's correct nodes failed to reach, one line per finding.

    Safety: two finished correct nodes whose finish orders differ.
    Liveness: for each correct node that has not finished, the first update
    it has not finished, with the VOTE and COMMIT messages delivered to it
    for that update against the vote quorum r - f (its own vote counts
    towards it) and the commit quorum f + 1.  Both counts come from the
    trace's events, not from state names.
    """
    r = config.replication_factor
    p = BftParameters.for_replication_factor(r)
    correct = [n for n in range(r) if n not in trace.faulty]
    finished = [n for n in correct if trace.statuses.get(n) == FINISHED]
    lines = []
    orders = trace.finish_orders
    differing = [n for n in finished if orders[n] != orders[finished[0]]]
    if differing:
        a, b = finished[0], differing[0]
        lines.append(
            f"safety: node {a} finished {';'.join(orders[a])} "
            f"but node {b} finished {';'.join(orders[b])}"
        )
    delivered: dict[tuple, int] = {}
    for e in trace.events:
        if e.message == "VOTE" or e.message == "COMMIT":
            key = (e.receiver, e.update, e.message)
            delivered[key] = delivered.get(key, 0) + 1
    for n in correct:
        if n in finished:
            continue
        update = next((u for u in config.updates if u not in orders[n]), None)
        if update is None:  # STUCK although every update finished: a doctored trace
            continue
        votes = delivered.get((n, update, "VOTE"), 0)
        commits = delivered.get((n, update, "COMMIT"), 0)
        lines.append(
            f"liveness: node {n} is {trace.statuses.get(n)} on {update}: "
            f"{votes} VOTE delivered for a quorum of r-f={p.vote_threshold} (own vote included), "
            f"{commits} COMMIT delivered for a quorum of f+1={p.commit_threshold}"
        )
    return lines


def check_quorum_safety(trace: SimTrace, vote_threshold: int, commit_threshold: int) -> list[str]:
    """Trace-level re-check of the commit thresholds for correct nodes.

    A correct node may emit SEND_COMMIT on a COMMIT delivery only when its
    received commit count has reached the commit threshold (the echo of the
    commit that finishes it), and on any other delivery only when its total
    vote count (own vote included) has reached the vote threshold.  The
    counts are shadow counts per (node, update) of the VOTE and COMMIT
    deliveries and of the node's own SEND_VOTE in the trace's events; no
    state name is read, the finish state's included.
    """
    violations = []
    faulty = trace.faulty
    delivered: dict[tuple, int] = {}
    voted: set[tuple] = set()
    for step_no, _, node, message, update, _, _, actions in trace.events:
        if node in faulty:
            continue
        key = (node, update, message)
        delivered[key] = delivered.get(key, 0) + 1
        if not actions:
            continue
        if "SEND_VOTE" in actions:
            voted.add((node, update))
        if "SEND_COMMIT" not in actions:
            continue
        if message == "COMMIT":
            if delivered[key] < commit_threshold:
                violations.append(f"step {step_no}: commit echo without threshold")
            continue
        total = delivered.get((node, update, "VOTE"), 0) + ((node, update) in voted)
        if total < vote_threshold:
            violations.append(
                f"step {step_no}: SEND_COMMIT with total votes {total} < {vote_threshold}"
            )
    return violations


class RecordingSink:
    """Action sink that records emitted actions, for co-simulation.

    It has the sink method (fsm.sink_method) of every action in ``actions``,
    the protocol's by default; each appends its action to ``calls``.
    """

    def __init__(self, actions: tuple[str, ...] = ACTIONS):
        self.calls: list[str] = []
        self.finished = False
        for action in actions:
            setattr(self, sink_method(action), partial(self.calls.append, action))

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
        sink = RecordingSink(machine.actions)
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
