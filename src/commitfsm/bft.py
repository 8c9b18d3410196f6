"""Replicated-commit protocol model.

One protocol run records a single update in a replicated version history.
Each of the r participating nodes counts the protocol messages it has seen;
a node votes for the update once it may claim the next free history slot
(or once enough peers have voted), sends a commit once the total vote count
reaches r - f, and finishes once it has received f + 1 commit messages,
where f = floor((r - 1) / 3) is the tolerated number of faulty nodes
(a Byzantine-fault-tolerant scheme needs r >= 3f + 1).

The per-message transition rules below drive the generic generation
pipeline: each maps a state vector to the actions performed and the
successor state, with all control decisions taken at generation time.
State vectors hold, in order: put_received, votes_received, vote_sent,
commits_received, commit_sent, could_choose, has_chosen.

The rules read the protocol sketch as follows where it leaves a detail open:

- a put votes at once when the node has claimed the slot, when the slot is
  free to claim, or when enough peers have already voted (P-a);
- crossing the vote threshold votes whether or not the put has arrived (V-a);
- a FREE message marks the next history slot as free, and claims it (setting
  has_chosen, announcing "not free" to the peers and voting) only when the
  update's put has arrived and the node has neither voted nor chosen (F-b);
- a NOT_FREE message voids the claim entirely, clearing both slot flags (N-b);
- FREE and NOT_FREE have no effect once the node has sent its commit, at
  which point the slot contention is settled for this run (G-a).

Each label names the chosen one of two readings of that detail.  A search
over all 32 combinations at commit 90b9ad6 left F-a and F-b tied on the
family's pruned and minimized state counts, with the other four readings
as above, and the golden r = 4 transitions chose F-b.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from sys import intern

from . import engine
from .fsm import (
    BOOLEAN,
    BOUNDED_INTEGER,
    FINISH,
    ComponentSpec,
    StateMachine,
    action_prose,
)

MESSAGES = ("PUT", "VOTE", "COMMIT", "FREE", "NOT_FREE")
ACTIONS = ("SEND_VOTE", "SEND_COMMIT", "SEND_NOT_FREE")
SEND_VOTE, SEND_COMMIT, SEND_NOT_FREE = ACTIONS

MIN_REPLICATION_FACTOR = 4


class ParameterError(ValueError):
    """Replication factor outside the supported range."""


def fault_tolerance(r: int) -> int:
    """Number of faulty nodes tolerated at replication factor r."""
    if r < MIN_REPLICATION_FACTOR:
        raise ParameterError(
            f"replication factor must be at least {MIN_REPLICATION_FACTOR}, got {r}"
        )
    return (r - 1) // 3


@dataclass(frozen=True, slots=True)
class BftParameters:
    """Thresholds for one replication factor, as plain ints the rules read."""

    replication_factor: int
    fault_tolerance: int
    # total votes (own vote included) required before sending commit: r - f
    vote_threshold: int = field(init=False)
    # received commit messages required to finish the run: f + 1
    commit_threshold: int = field(init=False)
    # annotate's sentences for these thresholds, formatted on first use
    _sentences: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vote_threshold", self.replication_factor - self.fault_tolerance)
        object.__setattr__(self, "commit_threshold", self.fault_tolerance + 1)

    @classmethod
    def for_replication_factor(cls, r: int) -> "BftParameters":
        return cls(r, fault_tolerance(r))


def components_for(r: int) -> tuple[ComponentSpec, ...]:
    """The seven state components; received-message counts are bounded by r - 1."""
    top = r - 1
    return (
        ComponentSpec("put_received", BOOLEAN),
        ComponentSpec("votes_received", BOUNDED_INTEGER, top),
        ComponentSpec("vote_sent", BOOLEAN),
        ComponentSpec("commits_received", BOUNDED_INTEGER, top),
        ComponentSpec("commit_sent", BOOLEAN),
        ComponentSpec("could_choose", BOOLEAN),
        ComponentSpec("has_chosen", BOOLEAN),
    )


START_VECTOR = (False, 0, False, 0, False, False, False)


def bft_spec(r: int) -> engine.MetaModelSpec:
    """Meta-model description for replication factor r."""
    return engine.MetaModelSpec(
        components=components_for(r),
        messages=MESSAGES,
        actions=ACTIONS,
        replication_factor=r,
        fault_tolerance=fault_tolerance(r),
        start_vector=START_VECTOR,
    )


def _canonical(actions: list[str]) -> tuple[str, ...]:
    # Serialized action order is fixed regardless of rule-internal order.
    if len(actions) < 2:
        return tuple(actions)
    return tuple([a for a in ACTIONS if a in actions])


def on_vote(s: tuple, p: BftParameters) -> tuple:
    """Count a received vote; crossing the vote threshold votes and commits.

    The total vote count is votes_received plus the node's own vote.  When
    the threshold is reached and the node has not voted yet, it votes
    (claiming the slot first when it still could), then sends a commit if it
    has not already done so.  A vote arriving with the counter saturated at
    r - 1 has no effect.
    """
    put, votes, vsent, commits, csent, could, chosen = s
    if votes >= p.replication_factor - 1:
        return (), s
    votes += 1
    actions: list[str] = []
    if votes + vsent >= p.vote_threshold:
        if not vsent:
            if could and not chosen:
                chosen = True
                actions.append(SEND_NOT_FREE)
            actions.append(SEND_VOTE)
            vsent = True
            could = False
        if not csent:
            actions.append(SEND_COMMIT)
            csent = True
    return _canonical(actions), (put, votes, vsent, commits, csent, could, chosen)


def on_commit(s: tuple, p: BftParameters) -> tuple:
    """Count a received commit; the (f + 1)-th one finishes the run.

    A node finishing without having sent its own commit echoes one so that
    lagging peers can still gather enough.  A commit arriving with the
    counter saturated at r - 1 has no effect.
    """
    put, votes, vsent, commits, csent, could, chosen = s
    if commits >= p.replication_factor - 1:
        return (), s
    commits += 1
    if commits >= p.commit_threshold:
        actions = [] if csent else [SEND_COMMIT]
        return _canonical(actions), FINISH
    return (), (put, votes, vsent, commits, csent, could, chosen)


def on_free(s: tuple, p: BftParameters) -> tuple:
    """The next history slot is free: choose this update when there is one to vote for.

    Choosing sets has_chosen, announces "not free" to the peers and votes;
    the message is ignored once the node has sent its commit.  A commit
    follows immediately when the total vote count already meets the
    threshold.
    """
    put, votes, vsent, commits, csent, could, chosen = s
    if csent:
        return (), s
    could = True
    actions: list[str] = []
    if put and not vsent and not chosen:
        chosen = vsent = True
        actions += (SEND_NOT_FREE, SEND_VOTE)
    if votes + vsent >= p.vote_threshold:
        actions.append(SEND_COMMIT)
        csent = True
    return _canonical(actions), (put, votes, vsent, commits, csent, could, chosen)


def on_put(s: tuple, p: BftParameters) -> tuple:
    """Record the client's update; vote at once when the node already may.

    A duplicate put has no effect.  The node votes immediately if it has
    already claimed the slot, if the slot is free to claim, or if enough
    peers have voted; a commit follows when the total vote count meets the
    threshold.
    """
    put, votes, vsent, commits, csent, could, chosen = s
    if put:
        return (), s
    put = True
    actions: list[str] = []
    if not vsent and (chosen or could or votes >= p.vote_threshold):
        if could and not chosen:
            chosen = True
            actions.append(SEND_NOT_FREE)
        actions.append(SEND_VOTE)
        vsent = True
    if votes + vsent >= p.vote_threshold and not csent:
        actions.append(SEND_COMMIT)
        csent = True
    return _canonical(actions), (put, votes, vsent, commits, csent, could, chosen)


def on_not_free(s: tuple, p: BftParameters) -> tuple:
    """Another update claimed the slot: this one may not be chosen any more.

    An existing claim is voided (has_chosen is cleared); the message is
    ignored once the node has sent its commit.
    """
    put, votes, vsent, commits, csent, could, chosen = s
    if csent:
        return (), s
    return (), (put, votes, vsent, commits, csent, False, False)


def transition_rules(p: BftParameters) -> dict[str, engine.TransitionRule]:
    """One pure rule per protocol message, closed over the thresholds."""
    return {
        "PUT": lambda s: on_put(s, p),
        "VOTE": lambda s: on_vote(s, p),
        "COMMIT": lambda s: on_commit(s, p),
        "FREE": lambda s: on_free(s, p),
        "NOT_FREE": lambda s: on_not_free(s, p),
    }


def _count(n: int, noun: str) -> str:
    if n == 0:
        return f"no {noun}s"
    if n == 1:
        return f"1 {noun}"
    return f"{n} {noun}s"


def _sentences(p: BftParameters) -> tuple:
    """annotate's lines and line parts that depend on p, formatted once and
    kept on p: the "neither threshold" line, the vote and the commit waits
    indexed by the count awaited, and the vote and the commit counts."""
    vt, ct, r = p.vote_threshold, p.commit_threshold, p.replication_factor
    object.__setattr__(p, "_sentences", (
        intern(f"Have not sent a commit since neither the vote threshold ({vt}) "
               f"nor the external commit threshold ({ct}) has been reached."),
        tuple([intern(f"Waiting for {n} further vote{'' if n == 1 else 's'} (including "
                      f"local vote if any) before sending commit.") for n in range(vt + 1)]),
        tuple([intern(f"Waiting for {n} further external commit{'' if n == 1 else 's'} "
                      f"to finish.") for n in range(ct + 1)]),
        tuple([_count(n, "vote") for n in range(r)]),
        tuple([_count(n, "commit") for n in range(r)]),
    ))
    return p._sentences


def annotate(s: tuple, p: BftParameters) -> tuple[str, ...]:
    """Generated commentary describing a state in terms of the general algorithm.

    Each line is one shared string object however many states and machines
    carry it: the fixed lines are constants and the others are interned.
    """
    put, votes, vsent, commits, csent, could, chosen = s
    neither, vote_waits, commit_waits, vote_counts, commit_counts = p._sentences or _sentences(p)
    lines = []
    if put:
        lines.append("Have received initial put from client.")
    else:
        lines.append("Have not yet received initial put from client.")
    if vsent:
        lines.append("Have voted for this update.")
    elif not put:
        lines.append("Have not voted since the initial put has not yet arrived.")
    elif not could:
        lines.append("Have not voted since another update has already been voted for.")
    else:
        lines.append("Have not voted.")
    lines.append(intern(f"Have received {vote_counts[votes]} and {commit_counts[commits]}."))
    awaited = p.vote_threshold - votes - vsent
    if csent:
        lines.append("Have sent a commit message.")
    elif awaited > 0 and commits < p.commit_threshold:
        lines.append(neither)
    else:
        lines.append("Have not sent a commit.")
    if could:
        lines.append("May choose this update since the next slot is free.")
    else:
        lines.append("May not choose since another ongoing update has been voted for.")
    if chosen:
        lines.append("Have chosen this update.")
    else:
        lines.append("Have not chosen this update since another ongoing update has been chosen.")
    if not csent and awaited > 0:
        lines.append(vote_waits[awaited])
    if commits < p.commit_threshold:
        lines.append(commit_waits[p.commit_threshold - commits])
    return tuple(lines)


FINISH_ANNOTATIONS = ("The protocol run has completed; the update is committed.",)


def annotate_transition(
    s: tuple, message: str, actions: tuple[str, ...], succ
) -> tuple[str, ...]:
    """One-line rationale for a transition, for documentation artefacts.

    Equal rationales are one shared tuple.
    """
    finishes = isinstance(succ, str) and succ == FINISH
    return _transition_note(actions, finishes, not finishes and succ == s)


@cache
def _transition_note(actions: tuple[str, ...], finishes: bool, no_effect: bool) -> tuple[str, ...]:
    if finishes:
        if actions:
            prose = ", ".join(map(action_prose, actions))
            return (f"External commit threshold reached; {prose}; the run finishes.",)
        return ("External commit threshold reached; the run finishes.",)
    if no_effect:
        return ("No effect in this state.",)
    if actions:
        prose = ", ".join(map(action_prose, actions))
        return (f"Phase transition: {prose}.",)
    return ("Simple state transition; no threshold crossed.",)


def generate_with_stats(r: int) -> tuple[StateMachine, engine.StageStats]:
    """Full pipeline for replication factor r, with per-stage statistics."""
    spec = bft_spec(r)
    p = BftParameters.for_replication_factor(r)
    return engine.generate_with_stats(
        spec,
        transition_rules(p),
        annotate_state=lambda s: annotate(s, p),
        annotate_transition=annotate_transition,
        finish_annotations=FINISH_ANNOTATIONS,
    )


def generate(r: int) -> StateMachine:
    """The pruned and minimized machine for replication factor r."""
    return generate_with_stats(r)[0]
