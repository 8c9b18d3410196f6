"""Generic state machine generation pipeline.

The pipeline is protocol-agnostic: it is initialised with a declarative
description of the state components and messages plus one transition rule
per message, and defines a machine in four stages:

1. enumerate every combination of component values,
2. generate one transition per (state, message) from the rule set,
3. prune states unreachable from the start state,
4. merge states with identical outgoing behaviour, alternating with
   pruning until neither stage changes anything.

Each stage is available as its own function (enumerate_states,
generate_transitions, prune_unreachable, merge_equivalent_once).  The
pipeline itself (generate_with_stats) computes the same machine with less
work: generate_reachable applies the rules breadth-first from the start
vector, so stages 1-3 touch reachable states only, and the merge recomputes
after each round only the signatures of states whose successors were
renamed, without re-pruning (see _merge_rounds for why a merge round never
strands a survivor).

Every stage is a pure function from machine to machine, so independent
generations can run concurrently without shared state.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Mapping

from .fsm import (
    FINISH,
    ComponentSpec,
    DomainError,
    State,
    StateMachine,
    Transition,
    check_components,
    reachable_names,
    state_counts,
    state_name,
)

# A rule maps a state vector to (actions, successor vector or FINISH).
TransitionRule = Callable[[tuple], tuple[tuple[str, ...], "tuple | str"]]
TransitionRuleSet = Mapping[str, TransitionRule]

StateAnnotator = Callable[[tuple], tuple[str, ...]]
TransitionAnnotator = Callable[[tuple, str, tuple[str, ...], "tuple | str"], tuple[str, ...]]


class SpecError(ValueError):
    """The meta-model description itself is malformed."""


class GenerationError(RuntimeError):
    """A transition rule produced an out-of-domain result."""

    def __init__(self, state: str, message: str, detail: str):
        super().__init__(f"rule for {message!r} failed on state {state!r}: {detail}")
        self.state = state
        self.message = message


@dataclass(frozen=True)
class MetaModelSpec:
    """Declarative description of one state machine family member."""

    components: tuple[ComponentSpec, ...]
    messages: tuple[str, ...]
    actions: tuple[str, ...]
    replication_factor: int
    fault_tolerance: int
    start_vector: tuple

    def __post_init__(self):
        if not self.components:
            raise SpecError("at least one state component is required")
        if not self.messages:
            raise SpecError("at least one message is required")
        try:
            check_components(self.components)
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
        if len(self.start_vector) != len(self.components) or not all(
            c.contains(v) for v, c in zip(self.start_vector, self.components)
        ):
            raise SpecError("start_vector is not a valid component assignment")


def enumerate_states(spec: MetaModelSpec) -> list[tuple]:
    """All combinations of component values, lexicographic in declaration order."""
    return list(itertools.product(*(c.domain() for c in spec.components)))


def _check_rules(spec: MetaModelSpec, rules: TransitionRuleSet) -> None:
    missing = [m for m in spec.messages if m not in rules]
    if missing:
        raise SpecError(f"rule set lacks rules for messages {missing}")


def _apply_rules(
    spec: MetaModelSpec,
    rules: TransitionRuleSet,
    vector: tuple,
    name: str,
    dest_of: Callable[[tuple], str | None],
    action_set: set[str],
    annotate_state: StateAnnotator | None,
    annotate_transition: TransitionAnnotator | None,
) -> State:
    """The state of vector: one checked transition per message.

    dest_of names a successor vector, or returns None when it lies outside
    the component domain.
    """
    transitions: dict[str, Transition] = {}
    for message in spec.messages:
        actions, succ = rules[message](vector)
        actions = tuple(actions)
        for action in actions:
            if action not in action_set:
                raise GenerationError(name, message, f"undeclared action {action!r}")
        if isinstance(succ, str):
            if succ != FINISH:
                raise GenerationError(name, message, f"bad successor {succ!r}")
            dest = FINISH
        else:
            dest = dest_of(succ)
            if dest is None:
                raise GenerationError(
                    name, message, f"successor {succ!r} outside the component domain"
                )
        notes = (
            tuple(annotate_transition(vector, message, actions, succ))
            if annotate_transition
            else ()
        )
        transitions[message] = Transition(message, actions, dest, notes)
    notes = tuple(annotate_state(vector)) if annotate_state else ()
    return State(name, transitions, notes)


def generate_transitions(
    spec: MetaModelSpec,
    rules: TransitionRuleSet,
    states: list[tuple],
    *,
    annotate_state: StateAnnotator | None = None,
    annotate_transition: TransitionAnnotator | None = None,
    finish_annotations: tuple[str, ...] = (),
) -> StateMachine:
    """Apply every rule to every state, producing the raw (unpruned) machine.

    The rule set must define exactly one rule per declared message; each rule
    must return actions from the declared alphabet and a successor inside the
    component domain (or FINISH).  The finish state is appended with no
    outgoing transitions.
    """
    _check_rules(spec, rules)
    components = spec.components
    name_of = {v: state_name(v, components) for v in states}
    action_set = set(spec.actions)

    state_map: dict[str, State] = {}
    for vector in states:
        name = name_of[vector]
        state_map[name] = _apply_rules(
            spec, rules, vector, name, name_of.get, action_set,
            annotate_state, annotate_transition,
        )

    state_map[FINISH] = State(FINISH, {}, tuple(finish_annotations))
    start = name_of.get(spec.start_vector)
    if start is None:
        raise SpecError("start_vector is not among the enumerated states")
    return StateMachine(
        replication_factor=spec.replication_factor,
        fault_tolerance=spec.fault_tolerance,
        components=components,
        messages=spec.messages,
        actions=spec.actions,
        states=state_map,
        start_state=start,
        finish_state=FINISH,
    )


def _domain_vector(vector, domains) -> tuple | None:
    """The vector of the component domain equal to vector, or None if there is none.

    Equality is Python's, as in generate_transitions' lookup of successors
    among the enumerated vectors (1 equals True).
    """
    if len(vector) != len(domains):
        return None
    out = []
    for value, domain in zip(vector, domains):
        if value not in domain:
            return None
        out.append(domain[domain.index(value)])
    return tuple(out)


def generate_reachable(
    spec: MetaModelSpec,
    rules: TransitionRuleSet,
    *,
    annotate_state: StateAnnotator | None = None,
    annotate_transition: TransitionAnnotator | None = None,
    finish_annotations: tuple[str, ...] = (),
) -> StateMachine:
    """The pruned machine, generated forward from the start vector.

    Equal to prune_unreachable(generate_transitions(spec, rules,
    enumerate_states(spec), ...)), but rules and annotators run only on
    states reachable from the start: the rules are applied breadth-first,
    messages in declared order, and a state is named when first reached.
    Every check of generate_transitions applies to each reached state: one
    rule per message, declared actions, and a successor that is FINISH or
    equal to a vector of the component domain (right arity, every value in
    its component's domain).  A rule error on a state that is never reached
    goes unreported.
    """
    _check_rules(spec, rules)
    components = spec.components
    domains = [c.domain() for c in components]
    action_set = set(spec.actions)
    start = _domain_vector(spec.start_vector, domains)
    if start is None:
        raise SpecError("start_vector is not a valid component assignment")
    name_of = {start: state_name(start, components)}
    queue = [start]

    def discover(succ) -> str | None:
        if not isinstance(succ, tuple):
            return None
        dest = name_of.get(succ)
        if dest is None:
            reached = _domain_vector(succ, domains)
            if reached is not None:
                dest = name_of[reached] = state_name(reached, components)
                queue.append(reached)
        return dest

    state_map: dict[str, State] = {}
    for vector in queue:  # discover appends to the queue while it is read
        name = name_of[vector]
        state_map[name] = _apply_rules(
            spec, rules, vector, name, discover, action_set,
            annotate_state, annotate_transition,
        )
    if any(t.to == FINISH for st in state_map.values() for t in st.transitions.values()):
        state_map[FINISH] = State(FINISH, {}, tuple(finish_annotations))
    return StateMachine(
        replication_factor=spec.replication_factor,
        fault_tolerance=spec.fault_tolerance,
        components=components,
        messages=spec.messages,
        actions=spec.actions,
        states=state_map,
        start_state=name_of[start],
        finish_state=FINISH,
    )


def prune_unreachable(machine: StateMachine) -> StateMachine:
    """Drop every state not reachable from the start state by forward traversal."""
    reachable = set(reachable_names(machine))
    if len(reachable) == len(machine.states):
        return machine
    states = {n: s for n, s in machine.states.items() if n in reachable}
    return replace(machine, states=states)


# Sentinel for "the state itself" in merge signatures.
_SELF = object()


def _traversal_order(machine: StateMachine) -> dict[str, int]:
    """Rank of each state: reachable_names' breadth-first order from the start.

    States unreachable from the start (possible on a not-yet-pruned machine)
    rank afterwards in name order, so the result is total and deterministic.
    """
    reached = reachable_names(machine)
    order = reached + sorted(machine.states.keys() - set(reached))
    return {name: i for i, name in enumerate(order)}


def merge_equivalent_once(machine: StateMachine) -> tuple[StateMachine, bool]:
    """Collapse one round of equivalent states.

    Two states are equivalent when, for every message, their transitions
    perform the same actions and lead to the same destination state, where a
    self-loop counts as leading to "the state itself" on both sides (without
    that, no state carrying an actionless self-loop could ever merge with
    another).  Each equivalence class keeps the member first reached from
    the start state (breadth-first, messages in declared order); incoming
    transitions are redirected and the merged states' annotations are
    concatenated and de-duplicated.  The finish state never merges (it has
    no outgoing transitions).  Returns (machine, changed).
    """
    messages = machine.messages
    groups: dict[tuple, list[str]] = {}
    for name, st in machine.states.items():
        if name == machine.finish_state:
            continue
        sig = tuple(
            (st.transitions[m].actions, _SELF if st.transitions[m].to == name else st.transitions[m].to)
            for m in messages
        )
        groups.setdefault(sig, []).append(name)

    order = _traversal_order(machine)
    rename: dict[str, str] = {}
    class_of: dict[str, list[str]] = {}
    for members in groups.values():
        if len(members) < 2:
            continue
        members = sorted(members, key=order.__getitem__)
        rep = members[0]
        class_of[rep] = members
        for member in members[1:]:
            rename[member] = rep
    if not rename:
        return machine, False

    new_states: dict[str, State] = {}
    for name, st in machine.states.items():
        if name in rename:
            continue
        if name == machine.finish_state:
            new_states[name] = st
            continue
        if name in class_of:
            annotations = tuple(dict.fromkeys(
                line for member in class_of[name] for line in machine.states[member].annotations
            ))
        else:
            annotations = st.annotations
        transitions: dict[str, Transition] = {}
        for m in messages:
            t = st.transitions[m]
            rep = rename.get(t.to)
            transitions[m] = t if rep is None else t._replace(to=rep)
        new_states[name] = State(name, transitions, annotations)

    start = rename.get(machine.start_state, machine.start_state)
    return replace(machine, states=new_states, start_state=start), True


def _merge_rounds(machine: StateMachine) -> tuple[StateMachine, tuple[int, ...]]:
    """Merge rounds of merge_equivalent_once until one changes nothing.

    machine must be pruned: every state reachable from the start.  Returns
    the merged machine (machine itself when nothing merges) and the
    component state count after each round that merged something; the
    rounds run are that many plus the final one that found nothing.

    Each round merges exactly what merge_equivalent_once would, so the
    result equals that of alternating merge_equivalent_once and
    prune_unreachable, without their repeated work:

    - No re-prune.  A round removes only renamed members, and every
      survivor stays reachable: a member's successors are its
      representative's successors (equal signatures name literal
      destinations), so every path through the old machine maps through the
      renaming to a path through the new one.
    - One traversal order.  Representatives are chosen by the breadth-first
      order of the pruned machine, computed once.  A member is discovered
      after its representative and so discovers nothing new itself, and an
      edge redirected from a member to its representative finds the
      representative already discovered; the survivors keep their relative
      order in every later round.
    - A worklist.  A state's signature changes only when one of its
      successors is renamed, so after a round only the surviving
      predecessors of renamed states are re-signed, and only the groups
      they enter can hold two states.
    """
    finish = machine.finish_state
    messages = machine.messages
    rank = _traversal_order(machine)
    acts: dict[str, tuple] = {}
    dests: dict[str, list[str]] = {}
    preds: dict[str, set[str]] = {}
    for name, st in machine.states.items():
        if name != finish:
            ts = [st.transitions[m] for m in messages]
            acts[name] = tuple(t.actions for t in ts)
            dests[name] = [t.to for t in ts]
            preds[name] = set()
    for name, ds in dests.items():
        for d in ds:
            if d in preds:
                preds[d].add(name)

    def signature(name: str) -> tuple:
        return acts[name], tuple(_SELF if d == name else d for d in dests[name])

    sig_of = {name: signature(name) for name in dests}
    groups: dict[tuple, set[str]] = {}
    for name, sig in sig_of.items():
        groups.setdefault(sig, set()).add(name)
    annotations = {name: st.annotations for name, st in machine.states.items()}

    counts: list[int] = []
    dirty = list(groups)
    while True:
        rename: dict[str, str] = {}
        for sig in dirty:
            members = groups.get(sig)
            if members is None or len(members) < 2:
                continue
            ordered = sorted(members, key=rank.__getitem__)
            rep = ordered[0]
            annotations[rep] = tuple(dict.fromkeys(line for m in ordered for line in annotations[m]))
            for member in ordered[1:]:
                rename[member] = rep
            groups[sig] = {rep}
        if not rename:
            break

        touched: set[str] = set()
        for member in rename:
            for d in dests.pop(member):
                if d in preds and d not in rename:
                    preds[d].discard(member)
            touched.update(preds.pop(member))
            del sig_of[member]
        touched.difference_update(rename)
        dirty = []
        for name in touched:
            ds = dests[name]
            for i, d in enumerate(ds):
                rep = rename.get(d)
                if rep is not None:
                    ds[i] = rep
                    preds[rep].add(name)
            old = sig_of[name]
            group = groups[old]
            group.discard(name)
            if not group:
                del groups[old]
            sig = sig_of[name] = signature(name)
            groups.setdefault(sig, set()).add(name)
            dirty.append(sig)
        counts.append(len(dests))

    if not counts:
        return machine, ()
    new_states: dict[str, State] = {}
    for name, st in machine.states.items():
        if name == finish:
            new_states[name] = st
        elif name in dests:
            transitions: dict[str, Transition] = {}
            for m, to in zip(messages, dests[name]):
                t = st.transitions[m]
                transitions[m] = t if t.to == to else t._replace(to=to)
            new_states[name] = State(name, transitions, annotations[name])
    return replace(machine, states=new_states), tuple(counts)


def minimize(machine: StateMachine) -> StateMachine:
    """Prune, then merge equivalent states until a merge round changes nothing."""
    return _merge_rounds(prune_unreachable(machine))[0]


@dataclass(frozen=True)
class StageStats:
    """Per-stage state counts and wall-clock time.

    initial counts the component space (every value combination) and
    after_prune the component states reachable from the start; the finish
    state is in neither, as it is no value combination.  final counts the
    states of the delivered machine, finish state included.  generate_s and
    merge_s are the seconds of forward generation and of the merge rounds.
    """

    fault_tolerance: int
    replication_factor: int
    initial: int
    after_prune: int
    merge_passes: tuple[int, ...]
    final: int
    passes: int
    millis: int
    generate_s: float
    merge_s: float

    def csv_row(self) -> str:
        return (
            f"{self.fault_tolerance},{self.replication_factor},{self.initial},"
            f"{self.after_prune},{self.final},{self.passes},{self.millis}"
        )


def generate_with_stats(
    spec: MetaModelSpec,
    rules: TransitionRuleSet,
    *,
    annotate_state: StateAnnotator | None = None,
    annotate_transition: TransitionAnnotator | None = None,
    finish_annotations: tuple[str, ...] = (),
) -> tuple[StateMachine, StageStats]:
    """Run the full pipeline and record per-stage statistics.

    The machine is generate_reachable's, merged to a fixpoint; it equals
    minimize(generate_transitions(spec, rules, enumerate_states(spec), ...)).
    Rules run on reachable states only, so a rule error on a state that is
    never reached is not reported here (generate_transitions reports it).
    """
    start = time.perf_counter()
    pruned = generate_reachable(
        spec,
        rules,
        annotate_state=annotate_state,
        annotate_transition=annotate_transition,
        finish_annotations=finish_annotations,
    )
    generated = time.perf_counter()
    machine, merge_counts = _merge_rounds(pruned)
    end = time.perf_counter()
    stats = StageStats(
        fault_tolerance=spec.fault_tolerance,
        replication_factor=spec.replication_factor,
        initial=math.prod(len(c.domain()) for c in spec.components),
        after_prune=state_counts(pruned)[1],
        merge_passes=merge_counts,
        final=state_counts(machine)[0],
        passes=len(merge_counts) + 1,
        millis=int((end - start) * 1000),
        generate_s=generated - start,
        merge_s=end - generated,
    )
    return machine, stats


def bisimulation_oracle(machine: StateMachine) -> tuple[frozenset[str], ...]:
    """Coarsest partition of states under action-and-destination bisimilarity.

    Starts from a split by per-message action signature (the finish state is
    its own block) and refines by destination block until stable.  Used as an
    independent check that merging never conflates behaviourally distinct
    states; note that merging on literal destination names can be strictly
    finer than this partition on machines with cycles.
    """
    messages = machine.messages
    finish = machine.finish_state
    block: dict[str, int] = {}
    keys: dict = {}
    for name, st in machine.states.items():
        if name == finish:
            key = None
        else:
            key = tuple(st.transitions[m].actions for m in messages)
        block[name] = keys.setdefault(key, len(keys))
    n_blocks = len(keys)
    while True:
        new_keys: dict = {}
        new_block: dict[str, int] = {}
        for name, st in machine.states.items():
            if name == finish:
                key = (block[name], None)
            else:
                key = (block[name], tuple(block[st.transitions[m].to] for m in messages))
            new_block[name] = new_keys.setdefault(key, len(new_keys))
        if len(new_keys) == n_blocks:
            break
        block = new_block
        n_blocks = len(new_keys)
    classes: dict[int, list[str]] = {}
    for name, idx in block.items():
        classes.setdefault(idx, []).append(name)
    parts = [frozenset(names) for names in classes.values()]
    return tuple(sorted(parts, key=min))
