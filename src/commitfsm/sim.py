"""Deterministic, seeded simulation of r replica nodes running a generated machine.

A client broadcasts one put per update to every node; every SEND_* action a
node's machine performs is broadcast to all its peers (never to itself).
FREE and NOT_FREE arise from a per-node slot controller that arbitrates
which pending update may claim the next history slot; it alone records what
its node finished, and the node's history is its priority order up to the
first update not finished.  A network NOT_FREE carrying update u is
delivered into the receiving node's machines for the competing updates.
The seed alone drives delivery order: a trace is a pure function of
(machine, config).

Fault kinds: a silent node drops all its outbound messages, a crashed node
stops processing after its crash step's number of distinct deliveries
(repeats that deduplication discards do not count), and a Byzantine
equivocator replaces each outbound message, per peer, with a random
syntactically valid protocol message.  Only the peer deliveries of senders
that can repeat are checked for repeats: Byzantine nodes, and a correct node
from its first repeated broadcast on (generated machines never repeat one).
The counts and traces equal those of checking every peer delivery.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import lru_cache, partial
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
        if type(self.node) is not int or self.node < 0:
            raise ConfigError(f"fault node {self.node!r} must be an int >= 0")
        if self.kind not in FAULT_KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r}")
        step = self.crash_step
        if step is not None and (self.kind != CRASH or type(step) is not int or step < 0):
            raise ConfigError(f"crash_step {step!r} needs a {CRASH} fault and an int >= 0")


@dataclass(frozen=True, slots=True)
class SimConfig:
    replication_factor: int
    seed: int
    scenario: str = SINGLE_UPDATE
    faults: tuple[Fault, ...] = ()
    delivery: str = FIFO_PER_LINK

    def __post_init__(self):
        for name in ("replication_factor", "seed"):
            if type(value := getattr(self, name)) is not int:
                raise ConfigError(f"{name} {value!r} must be an int")
        if self.seed < 0:  # Random(-s) seeds as Random(s): two configs, one trace
            raise ConfigError(f"seed {self.seed} must be an int >= 0")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.delivery not in DELIVERY_MODES:
            raise ConfigError(f"unknown delivery mode {self.delivery!r}")
        faults = self.faults
        if not isinstance(faults, (tuple, list)) or not all(isinstance(f, Fault) for f in faults):
            raise ConfigError(f"fault plan {faults!r} must be a tuple of Fault")
        object.__setattr__(self, "faults", tuple(faults))  # a list left the config unhashable
        nodes = [f.node for f in faults]
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
    """Per-node arbiter of the next history slot, and the one record of what
    its node has finished: the node's history is ``priority[:done]``.

    Grants FREE to at most one pending update at a time, in a fixed global
    priority order (update id order), so the controllers, not the protocol,
    fix the order of every history; emits NOT_FREE to the competing pending
    updates on each grant and releases the next FREE when the granted update
    finishes.
    """

    def __init__(self, updates: tuple[str, ...]):
        self.priority = tuple(sorted(updates))
        self.pending: set[str] = set()
        self.finished: set[str] = set()
        self.granted: str | None = None
        self.done = 0  # priority[done] is the first update not finished

    def on_put(self, update: str) -> list[tuple[str, str]]:
        if update not in self.finished:
            self.pending.add(update)
        return self._pump()

    def on_finish(self, update: str) -> list[tuple[str, str]]:
        self.pending.discard(update)
        self.finished.add(update)
        if self.granted == update:
            self.granted = None
        while self.done < len(self.priority) and self.priority[self.done] in self.finished:
            self.done += 1
        return self._pump()

    def _pump(self) -> list[tuple[str, str]]:
        """Return locally delivered (kind, update) slot messages."""
        if self.granted is not None or self.done == len(self.priority):
            return []
        update = self.priority[self.done]
        if update not in self.pending:
            return []  # wait for the put of the next update in order
        self.granted = update
        out = [("FREE", update)]
        for other in self.priority:
            if other in self.pending and other != update:
                out.append(("NOT_FREE", other))
        return out


def _below(getrandbits, n: int) -> int:
    """Draw uniformly from range(n) by rejection over ``getrandbits``.

    This is the algorithm ``Random.randrange(n)`` and ``Random.choice`` run
    (CPython 3.10 to 3.13), draw for draw, so a trace depends only on the
    generator's ``getrandbits`` stream.  ``run_simulation``'s delivery loop
    writes the same draw inline for the pending index it picks each turn.
    """
    k = n.bit_length()
    x = getrandbits(k)
    while x >= n:
        x = getrandbits(k)
    return x


@lru_cache(maxsize=16)  # bounded: a process that runs many sizes keeps only recent ones
def _layout(r: int, updates: tuple[str, ...]):
    """Node names, each node's peers, and the machines a delivery for u steps (u
    alone, or u's rivals for a peer's NOT_FREE): shared by all runs, never mutated."""
    names = tuple(str(n) for n in range(r))
    peers = tuple(tuple(p for p in range(r) if p != n) for n in range(r))
    own = {u: (u,) for u in updates}
    rivals = {u: tuple(v for v in updates if v != u) for u in updates}
    return names, peers, own, rivals


def run_simulation(machine: StateMachine, config: SimConfig) -> SimTrace:
    """Run one seeded scenario to completion and return the full trace.

    Pending deliveries are drained in a seeded order: fifo_per_link keeps
    per-(sender, receiver) FIFO queues and picks a random nonempty link each
    turn; random_interleave picks a random pending message regardless of
    origin.  Every random index is ``_below``'s draw.
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
    # crash-faulted node -> the deliveries it still processes
    left: dict[int, int] = {}
    silent: set[int] = set()
    byzantine: set[int] = set()
    for f in config.faults:
        if f.kind == CRASH:
            left[f.node] = (
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
    names, peers, own, rivals = _layout(r, updates)
    states = machine.states
    start = machine.start_state
    finish = machine.finish_state
    cursors = [dict.fromkeys(updates, start) for _ in range(r)]  # node -> update -> state
    controllers = [SlotController(updates) for _ in range(r)]
    crashed: set[int] = set()
    seen: set[tuple] = set()  # the suspects' items taken off the network
    suspects = {names[n] for n in byzantine}  # the senders checked for repeats
    said: set[tuple] = set()  # (node, message, update) of each correct broadcast
    finish_steps: dict[int, int] = {}
    events: list[Event] = []
    new = tuple.__new__  # what Event's own __new__ calls, minus its frame
    step_no = sent = deduplicated = dropped = injected = local = 0

    fifo = config.delivery == FIFO_PER_LINK
    pending: list = []  # fifo: the nonempty link queues; else the messages
    if fifo:
        # each node's (peer, queue) out-links; put's sender -> receiver -> queue
        out = [[(p, deque()) for p in ps] for ps in peers]
        links = {CLIENT: [deque() for _ in range(r)], CONTROLLER: [deque() for _ in range(r)]}
        links.update((names[n], dict(out[n])) for n in byzantine)

        def put(sender, receiver, kind, update):
            q = links[sender][receiver]
            if not q:
                pending.append(q)
            q.append((sender, receiver, kind, update))

        def broadcast(node, kind, update):
            name = names[node]
            for peer, q in out[node]:
                if not q:
                    pending.append(q)
                q.append((name, peer, kind, update))
    else:

        def put(sender, receiver, kind, update):
            pending.append((sender, receiver, kind, update))

        def broadcast(node, kind, update):
            name = names[node]
            pending.extend([(name, peer, kind, update) for peer in peers[node]])

    for update in updates:
        for node in range(r):
            put(CLIENT, node, "PUT", update)

    while pending:
        # _below's draw, inlined
        n = len(pending)
        k = n.bit_length()
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        if fifo:
            q = pending[i]
            item = q.popleft()
            if not q:
                del pending[i]
        else:
            item = pending.pop(i)
        step_no += 1
        sender, node, kind, update = item
        crashing = left and node in left
        if crashing and not left[node]:
            crashed.add(node)
            dropped += 1
            continue
        if sender in suspects:
            size = len(seen)
            seen.add(item)  # hashes the item once
            if len(seen) == size:
                deduplicated += 1
                continue
        if crashing:
            left[node] -= 1
        cursor = cursors[node]
        for u in rivals[update] if kind == "NOT_FREE" and sender != CONTROLLER else own[update]:
            before = cursor[u]
            if before == finish:
                continue
            try:
                t = states[before].transitions[kind]
            except KeyError:
                step(machine, before, kind)  # raises the interpreter's error
                raise
            actions = t.actions
            after = cursor[u] = t.to
            events.append(new(Event, (step_no, sender, node, kind, u, before, after, actions)))
            if after == finish:
                ctrl = controllers[node]
                for k, v in ctrl.on_finish(u):
                    put(CONTROLLER, node, k, v)
                    local += 1
                if len(ctrl.finished) == n_updates:
                    finish_steps[node] = step_no
            if not actions or node in silent:
                continue
            for action in actions:
                wire = wire_of.get(action)
                if wire is None:
                    continue
                if node in byzantine:
                    name = names[node]
                    for peer in peers[node]:
                        put(name, peer, forged[_below(getrandbits, len(forged))],
                            updates[_below(getrandbits, n_updates)])
                    injected += r - 1
                else:
                    size = len(said)
                    said.add((node, wire, u))
                    if len(said) == size and (name := names[node]) not in suspects:
                        # its items already off the network count as seen, queued copies not
                        queued = [q for _, q in out[node]] if fifo else [pending]
                        seen.update({(name, p, m, v) for n, m, v in said if n == node
                                     for p in peers[node]}.difference(*queued))
                        suspects.add(name)
                    broadcast(node, wire, u)
                sent += r - 1
        if kind == "PUT":
            for k, v in controllers[node].on_put(update):
                put(CONTROLLER, node, k, v)
                local += 1

    statuses = {}
    for node, ctrl in enumerate(controllers):
        if node in crashed:
            statuses[node] = CRASHED
        elif len(ctrl.finished) == n_updates:
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
        finish_orders={n: ctrl.priority[:ctrl.done] for n, ctrl in enumerate(controllers)},
        faulty=tuple(sorted(f.node for f in config.faults)),
        counters=SimCounters(sent, step_no, deduplicated, dropped, injected, local, finish_steps),
    )


def check_agreement(trace: SimTrace, config: SimConfig) -> Verdict:
    """Safety: finished correct nodes agree on what finished, in what order;
    histories follow the controllers' priority order, so only a doctored trace
    fails this (a safety check that can fail on a run is still to come).
    Liveness: with at most f faulty nodes, every correct node finishes."""
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
    delivered = Counter((e.receiver, e.update, e.message) for e in trace.events)
    for n in correct:
        if n in finished:
            continue
        update = next((u for u in config.updates if u not in orders[n]), None)
        if update is None:  # STUCK although every update finished: a doctored trace
            continue
        votes = delivered[n, update, "VOTE"]
        commits = delivered[n, update, "COMMIT"]
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
