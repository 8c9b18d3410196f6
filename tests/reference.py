"""The stage-by-stage reference path that tests compare the pipeline against:
every component vector through the rules (raw_machine), then prune and
merge rounds to a fixpoint (merge_rounds); any machine as a spec whose
rules replay it (machine_spec); a bisimulation oracle; and an exact
product walk of a machine against its rules (product_check)."""

import functools

from commitfsm import bft, engine
from commitfsm.fsm import BOUNDED_INTEGER, FINISH, ComponentSpec, step


def bft_pipeline_args(r):
    """(spec, rules, keyword arguments) exactly as bft passes them to the engine."""
    p = bft.BftParameters.for_replication_factor(r)
    kwargs = dict(
        annotate_state=lambda s: bft.annotate(s, p),
        annotate_transition=bft.annotate_transition,
        finish_annotations=bft.FINISH_ANNOTATIONS,
    )
    return bft.bft_spec(r), bft.transition_rules(p), kwargs


def raw_machine(r):
    """The unpruned machine: every enumerated state with its transitions."""
    spec, rules, kwargs = bft_pipeline_args(r)
    return engine.generate_transitions(spec, rules, engine.enumerate_states(spec), **kwargs)


def merge_rounds(machine):
    """Prune, then merge_equivalent_once until a round changes nothing.

    Returns the machine each round started from: the pruned machine first,
    the fixpoint last.  A merge round never strands a survivor, so each
    re-prune must return its input.
    """
    m = engine.prune_unreachable(machine)
    rounds = [m]
    while True:
        m, changed = engine.merge_equivalent_once(m)
        if not changed:
            return rounds
        assert engine.prune_unreachable(m) is m
        rounds.append(m)


def machine_spec(machine):
    """(spec, rules, keyword arguments) that replay machine in the pipeline.

    One bounded-integer component indexes the states other than the finish,
    in machine.states order; each rule, and each annotator, reads the
    indexed state's own transition or notes.  So the raw machine of the spec
    (generate_transitions over enumerate_states) is machine with its states
    renamed "0", "1", ... and its finish state FINISH, and the pipeline's
    machine for the spec is the merge fixpoint of that raw machine.
    """
    finish = machine.finish_state
    names = [name for name in machine.states if name != finish]
    index = {name: i for i, name in enumerate(names)}

    def transition(vector, message):
        return machine.states[names[vector[0]]].transitions[message]

    def rule(message, vector):
        t = transition(vector, message)
        return t.actions, FINISH if t.to == finish else (index[t.to],)

    spec = engine.MetaModelSpec(
        components=(ComponentSpec("state", BOUNDED_INTEGER, len(names) - 1),),
        messages=machine.messages,
        actions=machine.actions,
        replication_factor=machine.replication_factor,
        fault_tolerance=machine.fault_tolerance,
        start_vector=(index[machine.start_state],),
    )
    rules = {m: functools.partial(rule, m) for m in machine.messages}
    kwargs = dict(
        annotate_state=lambda v: machine.states[names[v[0]]].annotations,
        annotate_transition=lambda v, m, a, s: transition(v, m).annotations,
        finish_annotations=machine.states[finish].annotations,
    )
    return spec, rules, kwargs


def signature_groups(machine):
    """The groups of two or more states that one merge round collapses."""
    groups = {}
    for name, st in machine.states.items():
        if name == machine.finish_state:
            continue
        sig = tuple(
            (st.transitions[m].actions,
             "SELF" if st.transitions[m].to == name else st.transitions[m].to)
            for m in machine.messages
        )
        groups.setdefault(sig, []).append(name)
    return [members for members in groups.values() if len(members) > 1]


def action_trace(machine, sequence):
    """The actions of each step of sequence from the start, and whether it finished."""
    state = machine.start_state
    out = []
    for message in sequence:
        if state == machine.finish_state:
            break
        actions, state = step(machine, state, message)
        out.append(actions)
    return out, state == machine.finish_state


def bisimulation_oracle(machine):
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


def product_check(machine, spec, rules):
    """Decide exactly that machine runs the rules from spec's start vector.

    Walks (rule vector, machine state) pairs breadth-first from (start
    vector, start state), in the manner of Hopcroft and Karp's 1971
    equivalence test.  For every pair and message the rule and the machine
    must perform the same actions, and the rule must return FINISH exactly
    when the machine reaches its finish state.  Both sides are
    deterministic, so every message sequence then yields the same actions
    on both.  Returns the number of pairs reached short of the finish: for
    a machine the pipeline generated, its after_prune count.
    """
    assert machine.messages == spec.messages
    finish = machine.finish_state
    start = (spec.start_vector, machine.start_state)
    order = [start]
    seen = {start}
    for vector, state in order:  # appended to while it is read
        for message in spec.messages:
            want, succ = rules[message](vector)
            actions, nxt = step(machine, state, message)
            assert tuple(want) == actions, (vector, state, message)
            assert (succ == FINISH) == (nxt == finish), (vector, state, message)
            pair = (succ, nxt)
            if nxt != finish and pair not in seen:
                seen.add(pair)
                order.append(pair)
    return len(order)
