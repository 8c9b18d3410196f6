"""Generate, render and simulate a family of replicated-commit protocol state machines.

The family is parameterized by the replication factor r: a generic pipeline
derives one transition per (state, message) from pure rules for every
component-value combination reachable from the start state, then merges
behaviourally identical states.  The resulting machines can be rendered as
annotated text, DOT diagrams or a runnable Python module, and exercised in
a deterministic fault-injecting network simulation.
"""

from . import bft, engine, fsm, render, sim

__version__ = "0.1.0"
