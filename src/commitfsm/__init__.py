"""Generate, render and simulate a family of replicated-commit protocol state machines.

The family is parameterized by the replication factor r: a generic pipeline
derives one transition per (state, message) from pure rules for every
component-value combination reachable from the start state, then merges
behaviourally identical states.  The resulting machines can be rendered as
annotated text, DOT diagrams or a runnable Python module, and exercised in
a deterministic fault-injecting network simulation.
"""

from .fsm import (
    FINISH,
    ComponentSpec,
    State,
    StateMachine,
    Transition,
    deserialize,
    parse_state_name,
    serialize,
    state_counts,
    state_name,
    step,
    validate,
)
from .engine import (
    MetaModelSpec,
    StageStats,
    enumerate_states,
    generate_transitions,
    generate_with_stats,
    merge_equivalent_once,
    minimize,
    prune_unreachable,
)
from .bft import BftParameters, bft_spec, fault_tolerance, transition_rules
from . import bft, render, sim

__version__ = "0.1.0"

__all__ = [
    "FINISH",
    "ComponentSpec",
    "State",
    "StateMachine",
    "Transition",
    "deserialize",
    "parse_state_name",
    "serialize",
    "state_counts",
    "state_name",
    "step",
    "validate",
    "MetaModelSpec",
    "StageStats",
    "enumerate_states",
    "generate_transitions",
    "generate_with_stats",
    "merge_equivalent_once",
    "minimize",
    "prune_unreachable",
    "BftParameters",
    "bft_spec",
    "fault_tolerance",
    "transition_rules",
]
