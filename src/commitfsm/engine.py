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
generate_transitions, prune_unreachable, merge_equivalent_once); they are
the reference that the pipeline is tested against.  The pipeline itself
(generate_with_stats) computes the same machine with less work, on integer
state ids:

- _forward applies the rules breadth-first from the start vector, so
  stages 1-3 touch reachable states only.  It numbers each vector in the
  order it is first reached, which is reachable_names order and so the
  merge rank, and keeps per id only actions, destination ids and notes.
- _merge_ids runs the merge rounds on those ids, re-signing after each
  round only the states whose successors were renamed, without re-pruning
  (see there for why a merge round never strands a survivor).
- _build names the survivors and builds and annotates their transitions;
  the states merged away are never named.

No stage keeps state between calls (_merge_ids updates only the lists its
caller built for it), so independent generations can run concurrently.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Mapping, NamedTuple

from .fsm import (
    FINISH,
    ComponentSpec,
    State,
    StateMachine,
    Transition,
    check_components,
    reachable_names,
    state_counts,
    state_name,
    state_names,
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
        object.__setattr__(self, "start_vector", tuple(self.start_vector))


def enumerate_states(spec: MetaModelSpec) -> list[tuple]:
    """All combinations of component values, lexicographic in declaration order."""
    return list(itertools.product(*(c.domain() for c in spec.components)))


def _check_rules(spec: MetaModelSpec, rules: TransitionRuleSet) -> None:
    missing = [m for m in spec.messages if m not in rules]
    if missing:
        raise SpecError(f"rule set lacks rules for messages {missing}")


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
    name_of = dict(zip(states, state_names(states, components)))
    action_set = set(spec.actions)

    state_map: dict[str, State] = {}
    for vector in states:
        name = name_of[vector]
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
                try:
                    dest = name_of[succ]
                except (KeyError, TypeError):  # TypeError: unhashable, so equal to no vector
                    raise GenerationError(
                        name, message, f"successor {succ!r} outside the component domain"
                    ) from None
            notes = (
                tuple(annotate_transition(vector, message, actions, succ))
                if annotate_transition
                else ()
            )
            transitions[message] = Transition(actions, dest, notes)
        notes = tuple(annotate_state(vector)) if annotate_state else ()
        state_map[name] = State(name, transitions, notes)

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


# Sentinel for "the state itself" in merge signatures.
_SELF = object()


# Destination id of the finish state in the id kernel.  Component states
# have ids 0, 1, ... in breadth-first discovery order; every id below 0
# names a destination that takes no part in merging.
_FINISH_ID = -1


class _Reached(NamedTuple):
    """The reachable component states by id, as _forward leaves them.

    For id i: vectors[i] is the state vector, acts[i] the action tuple of
    each message in declared order, dests[i] the destination id of each
    message (_FINISH_ID for FINISH) and notes[i] the state's annotations.
    A successor is kept only as the id of the domain vector it equals (the
    vector annotate_state sees); a rule returning domain types loses nothing.
    """

    vectors: list[tuple]
    acts: list[tuple[tuple[str, ...], ...]]
    dests: list[list[int]]
    notes: list[tuple[str, ...]]
    reaches_finish: bool


def _forward(
    spec: MetaModelSpec,
    rules: TransitionRuleSet,
    annotate_state: StateAnnotator | None,
) -> _Reached:
    """Apply the rules breadth-first from the start vector, numbering each
    vector in the order it is first reached (messages in declared order).

    The checks are generate_transitions': one rule per message, declared
    actions (each distinct action tuple is checked once), and a successor
    that is FINISH or equal to a vector of the component domain (right
    arity, each value found in its component's value map, where 1 finds
    True).  No state is named unless a GenerationError names it.
    """
    _check_rules(spec, rules)
    components = spec.components
    arity = len(components)
    value_maps = [{v: v for v in c.domain()} for c in components]
    message_rules = [(m, rules[m]) for m in spec.messages]
    action_set = set(spec.actions)
    checked: dict[tuple, tuple[str, ...]] = {}
    id_of = {spec.start_vector: 0}
    vectors = [spec.start_vector]
    acts, dests, notes = [], [], []
    reaches_finish = False

    def fail(vector, message, detail):
        return GenerationError(state_name(vector, components), message, detail)

    for vector in vectors:  # appended to while it is read
        row_acts, row_dests = [], []
        for message, rule in message_rules:
            actions, succ = rule(vector)
            actions = tuple(actions)
            known = checked.get(actions)
            if known is None:
                for action in actions:
                    if action not in action_set:
                        raise fail(vector, message, f"undeclared action {action!r}")
                known = checked[actions] = actions
            if isinstance(succ, str):
                if succ != FINISH:
                    raise fail(vector, message, f"bad successor {succ!r}")
                dest = _FINISH_ID
                reaches_finish = True
            else:
                try:  # KeyError or TypeError (unhashable): outside the domain
                    dest = id_of.get(succ)
                    if dest is None:
                        if not isinstance(succ, tuple) or len(succ) != arity:
                            raise KeyError(succ)
                        reached = tuple([vm[v] for vm, v in zip(value_maps, succ)])
                        dest = id_of[reached] = len(vectors)
                        vectors.append(reached)
                except (KeyError, TypeError):
                    raise fail(
                        vector, message, f"successor {succ!r} outside the component domain"
                    ) from None
            row_acts.append(known)
            row_dests.append(dest)
        acts.append(tuple(row_acts))
        dests.append(row_dests)
        notes.append(tuple(annotate_state(vector)) if annotate_state else ())
    return _Reached(vectors, acts, dests, notes, reaches_finish)


def _merge_ids(
    acts: list[tuple], dests: list[list[int]], notes: list[tuple[str, ...]]
) -> tuple[list[int], tuple[int, ...]]:
    """Merge rounds on ids until one changes nothing.

    Ids 0 .. n-1 are the mergeable states, numbered in the breadth-first
    order of the pruned machine; a destination id below 0 never merges.
    Each round merges exactly what merge_equivalent_once would: states with
    equal actions and destinations, a self-loop counting as "the state
    itself", the least id of each group kept as its representative, and the
    members' annotations concatenated in id order and de-duplicated.  dests
    and notes are updated in place.  Returns the surviving ids in ascending
    order and the surviving count after each round that merged something;
    the rounds run are that many plus the final one that found nothing.

    The result equals that of alternating merge_equivalent_once and
    prune_unreachable, without their repeated work:

    - No re-prune.  A round removes only renamed members, and every
      survivor stays reachable: a member's successors are its
      representative's successors (equal signatures name literal
      destinations), so every path through the old machine maps through the
      renaming to a path through the new one.
    - One traversal order.  A member is discovered after its representative
      and so discovers nothing new itself, and an edge redirected from a
      member to its representative finds the representative already
      discovered; so the survivors keep their breadth-first order, and the
      ids stay the merge rank, in every later round.
    - A worklist.  A state's signature changes only when one of its
      successors is renamed, so after a round only the surviving
      predecessors of renamed states are re-signed, and only the groups
      they enter can hold two states.
    """
    n = len(dests)
    preds: list[set[int] | None] = [set() for _ in range(n)]
    for i, ds in enumerate(dests):
        for d in ds:
            if d >= 0:
                preds[d].add(i)

    # Equal action rows get one small int, so a signature hashes ints only.
    row_ids: dict[tuple, int] = {}
    row_of = [row_ids.setdefault(row, len(row_ids)) for row in acts]

    def signature(i: int) -> tuple:
        ds = dests[i]
        return (row_of[i], *([_SELF if d == i else d for d in ds] if i in ds else ds))

    sig_of = [signature(i) for i in range(n)]
    groups: dict[tuple, list[int]] = {}  # members in no particular order
    for i, sig in enumerate(sig_of):
        groups.setdefault(sig, []).append(i)

    live = n
    counts: list[int] = []
    dirty = list(groups)
    while True:
        rename: dict[int, int] = {}
        for sig in dirty:
            members = groups.get(sig)
            if members is None or len(members) < 2:
                continue
            ordered = sorted(members)
            rep = ordered[0]
            notes[rep] = tuple(dict.fromkeys([line for m in ordered for line in notes[m]]))
            for member in ordered[1:]:
                rename[member] = rep
            groups[sig] = [rep]
        if not rename:
            break

        touched: set[int] = set()
        for member in rename:
            for d in dests[member]:
                if d >= 0 and d not in rename:
                    preds[d].discard(member)
            touched.update(preds[member])
            dests[member] = preds[member] = None
        touched.difference_update(rename)
        dirty = []
        for i in touched:
            ds = dests[i]
            for k, d in enumerate(ds):
                rep = rename.get(d)
                if rep is not None:
                    ds[k] = rep
                    preds[rep].add(i)
            old = sig_of[i]
            group = groups[old]
            group.remove(i)
            if not group:
                del groups[old]
            sig = sig_of[i] = signature(i)
            groups.setdefault(sig, []).append(i)
            dirty.append(sig)
        live -= len(rename)
        counts.append(live)
    return [i for i in range(n) if dests[i] is not None], tuple(counts)


def _build(
    spec: MetaModelSpec,
    reached: _Reached,
    ids: list[int],
    annotate_transition: TransitionAnnotator | None,
    finish_annotations: tuple[str, ...],
) -> StateMachine:
    """The machine of the given ids: only these are named (state_name's
    label tables read directly, as _forward left only domain vectors) and
    their transitions built and annotated, in id order, the finish state last."""
    components = spec.components
    messages = spec.messages
    vectors, acts, dests, notes, reaches_finish = reached
    annotate = annotate_transition or (lambda *args: ())
    tables = [c.labels() for c in components]
    # names[_FINISH_ID] and succs[_FINISH_ID] are the last entries
    names: list[str | None] = [None] * len(vectors) + [FINISH]
    succs = [*vectors, FINISH]
    for i in ids:
        names[i] = "/".join([t[v] for t, v in zip(tables, vectors[i])])
    state_map: dict[str, State] = {}
    for i in ids:
        vector = vectors[i]
        transitions = {
            m: Transition(a, names[d], tuple(annotate(vector, m, a, succs[d])))
            for m, a, d in zip(messages, acts[i], dests[i])
        }
        state_map[names[i]] = State(names[i], transitions, notes[i])
    if reaches_finish:
        state_map[FINISH] = State(FINISH, {}, tuple(finish_annotations))
    return StateMachine(
        replication_factor=spec.replication_factor,
        fault_tolerance=spec.fault_tolerance,
        components=components,
        messages=messages,
        actions=spec.actions,
        states=state_map,
        start_state=names[0],
        finish_state=FINISH,
    )


def prune_unreachable(machine: StateMachine) -> StateMachine:
    """Drop every state not reachable from the start state by forward traversal."""
    reachable = set(reachable_names(machine))
    if len(reachable) == len(machine.states):
        return machine
    states = {n: s for n, s in machine.states.items() if n in reachable}
    return replace(machine, states=states)


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


@dataclass(frozen=True)
class StageStats:
    """Per-stage state counts and wall-clock time.

    initial counts the component space (every value combination) and
    after_prune the component states reachable from the start; the finish
    state is in neither, as it is no value combination.  final counts the
    states of the delivered machine, finish state included.  generate_s is
    the seconds of the forward pass on ids (rules and state annotations),
    and merge_s those of the merge rounds plus building the survivors
    (names, transitions and their annotations); together they make millis.
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

    The machine equals the fixpoint of prune_unreachable and
    merge_equivalent_once from generate_transitions(spec, rules,
    enumerate_states(spec), ...) when successors have the domain's types,
    as bft's do: annotate_transition gets the domain vector a successor equals.
    The merge runs on ids, and only the surviving states are named and have
    their transitions built and annotated.  Rules run on reachable states
    only, so a rule error on a state that is never reached is not reported
    here (generate_transitions reports it).
    """
    start = time.perf_counter()
    reached = _forward(spec, rules, annotate_state)
    generated = time.perf_counter()
    survivors, merge_counts = _merge_ids(reached.acts, reached.dests, reached.notes)
    machine = _build(spec, reached, survivors, annotate_transition, finish_annotations)
    end = time.perf_counter()
    stats = StageStats(
        fault_tolerance=spec.fault_tolerance,
        replication_factor=spec.replication_factor,
        initial=math.prod(len(c.domain()) for c in spec.components),
        after_prune=len(reached.vectors),
        merge_passes=merge_counts,
        final=state_counts(machine)[0],
        passes=len(merge_counts) + 1,
        millis=int((end - start) * 1000),
        generate_s=generated - start,
        merge_s=end - generated,
    )
    return machine, stats
