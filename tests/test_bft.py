import hashlib
from dataclasses import replace

import pytest

from commitfsm import engine
from commitfsm.bft import (
    MESSAGES,
    BftParameters,
    ParameterError,
    annotate,
    bft_spec,
    components_for,
    fault_tolerance,
    generate_with_stats,
    on_commit,
    on_free,
    on_not_free,
    on_put,
    on_vote,
    transition_rules,
)
from commitfsm.fsm import FINISH, serialize, state_counts, state_name
from reference import (
    bft_pipeline_args,
    bisimulation_oracle,
    product_check,
    raw_machine,
    reference_annotate,
)


class TestParameters:
    @pytest.mark.parametrize("r,f", [(4, 1), (6, 1), (7, 2), (13, 4), (25, 8), (46, 15)])
    def test_fault_tolerance(self, r, f):
        assert fault_tolerance(r) == f

    def test_small_clusters_rejected(self):
        with pytest.raises(ParameterError, match="4"):
            fault_tolerance(3)

    @pytest.mark.parametrize("r", [4, 7, 13, 25, 46])
    def test_threshold_relations(self, r):
        p = BftParameters.for_replication_factor(r)
        assert r >= 3 * p.fault_tolerance + 1
        assert p.vote_threshold + p.fault_tolerance == r
        assert p.commit_threshold <= p.vote_threshold

    def test_r4_thresholds(self):
        p = BftParameters.for_replication_factor(4)
        assert p.vote_threshold == 3
        assert p.commit_threshold == 2


class TestSpec:
    def test_enumeration_size(self):
        assert len(engine.enumerate_states(bft_spec(4))) == 512

    def test_message_and_action_alphabets(self):
        spec = bft_spec(7)
        assert spec.messages == ("PUT", "VOTE", "COMMIT", "FREE", "NOT_FREE")
        assert spec.actions == ("SEND_VOTE", "SEND_COMMIT", "SEND_NOT_FREE")

    def test_start_state_name(self):
        spec = bft_spec(4)
        assert state_name(spec.start_vector, spec.components) == "F/0/F/0/F/F/F"

    def test_count_bounds_follow_replication_factor(self):
        comps = components_for(7)
        assert comps[1].max_value == 6
        assert comps[3].max_value == 6


P4 = BftParameters.for_replication_factor(4)
VECTORS4 = {state_name(v, components_for(4)): v for v in engine.enumerate_states(bft_spec(4))}


def vec(name):
    return VECTORS4[name]


def named(result):
    actions, succ = result
    if isinstance(succ, str):
        return actions, succ
    return actions, state_name(succ, components_for(4))


class TestVoteRule:
    def test_threshold_crossing_votes_and_commits(self):
        assert named(on_vote(vec("T/2/F/0/F/F/F"), P4)) == (
            ("SEND_VOTE", "SEND_COMMIT"), "T/3/T/0/T/F/F",
        )

    def test_simple_increment(self):
        assert named(on_vote(vec("F/0/F/0/F/F/F"), P4)) == ((), "F/1/F/0/F/F/F")

    def test_increment_preserves_slot_flags(self):
        assert named(on_vote(vec("F/0/F/0/F/F/T"), P4)) == ((), "F/1/F/0/F/F/T")

    def test_saturated_counter_self_loops(self):
        s = vec("T/3/T/0/T/F/F")
        assert on_vote(s, P4) == ((), s)

    def test_crossing_with_free_slot_claims_it(self):
        assert named(on_vote(vec("F/2/F/0/F/T/F"), P4)) == (
            ("SEND_VOTE", "SEND_COMMIT", "SEND_NOT_FREE"), "F/3/T/0/T/F/T",
        )

    def test_already_voted_crossing_only_commits(self):
        assert named(on_vote(vec("T/1/T/1/F/T/T"), P4)) == (
            ("SEND_COMMIT",), "T/2/T/1/T/T/T",
        )


class TestCommitRule:
    def test_simple_increment(self):
        assert named(on_commit(vec("T/2/F/0/F/F/F"), P4)) == ((), "T/2/F/1/F/F/F")

    def test_threshold_finishes_with_echo(self):
        assert named(on_commit(vec("T/2/F/1/F/F/F"), P4)) == (("SEND_COMMIT",), FINISH)

    def test_threshold_finishes_quietly_when_commit_sent(self):
        assert named(on_commit(vec("T/3/T/1/T/F/F"), P4)) == ((), FINISH)

    def test_saturated_counter_self_loops(self):
        s = vec("F/0/F/3/F/F/F")
        assert on_commit(s, P4) == ((), s)


class TestFreeRule:
    def test_choose_vote_and_commit(self):
        assert named(on_free(vec("T/2/F/0/F/F/F"), P4)) == (
            ("SEND_VOTE", "SEND_COMMIT", "SEND_NOT_FREE"), "T/2/T/0/T/T/T",
        )

    def test_before_put_only_marks_the_slot(self):
        assert named(on_free(vec("F/0/F/0/F/F/F"), P4)) == ((), "F/0/F/0/F/T/F")

    def test_after_vote_only_marks_the_slot(self):
        assert named(on_free(vec("T/0/T/0/F/F/T"), P4)) == ((), "T/0/T/0/F/T/T")

    def test_ignored_once_commit_sent(self):
        s = vec("T/2/T/0/T/F/T")
        assert on_free(s, P4) == ((), s)

    def test_choose_below_threshold_votes_without_commit(self):
        assert named(on_free(vec("T/0/F/0/F/F/F"), P4)) == (
            ("SEND_VOTE", "SEND_NOT_FREE"), "T/0/T/0/F/T/T",
        )


class TestPutRule:
    def test_free_slot_chooses_and_votes(self):
        assert named(on_put(vec("F/0/F/0/F/T/F"), P4)) == (
            ("SEND_VOTE", "SEND_NOT_FREE"), "T/0/T/0/F/T/T",
        )

    def test_plain_record(self):
        assert named(on_put(vec("F/0/F/0/F/F/F"), P4)) == ((), "T/0/F/0/F/F/F")

    def test_duplicate_put_self_loops(self):
        s = vec("T/1/F/0/F/F/F")
        assert on_put(s, P4) == ((), s)

    def test_vote_threshold_already_met(self):
        assert named(on_put(vec("F/3/F/0/F/F/F"), P4)) == (
            ("SEND_VOTE", "SEND_COMMIT"), "T/3/T/0/T/F/F",
        )

    def test_claimed_slot_votes_at_once(self):
        assert named(on_put(vec("F/0/F/0/F/F/T"), P4)) == (
            ("SEND_VOTE",), "T/0/T/0/F/F/T",
        )


class TestNotFreeRule:
    def test_clears_slot_flags(self):
        assert named(on_not_free(vec("F/0/F/0/F/T/F"), P4)) == ((), "F/0/F/0/F/F/F")

    def test_voids_an_existing_claim(self):
        assert named(on_not_free(vec("T/0/T/0/F/T/T"), P4)) == ((), "T/0/T/0/F/F/F")

    def test_self_loop_when_nothing_set(self):
        s = vec("F/0/F/0/F/F/F")
        assert on_not_free(s, P4) == ((), s)

    def test_ignored_once_commit_sent(self):
        s = vec("T/2/T/0/T/T/T")
        assert on_not_free(s, P4) == ((), s)


class TestAnnotate:
    def test_documented_state_commentary(self):
        lines = annotate(vec("T/2/F/0/F/F/F"), P4)
        assert lines == (
            "Have received initial put from client.",
            "Have not voted since another update has already been voted for.",
            "Have received 2 votes and no commits.",
            "Have not sent a commit since neither the vote threshold (3) nor "
            "the external commit threshold (2) has been reached.",
            "May not choose since another ongoing update has been voted for.",
            "Have not chosen this update since another ongoing update has been chosen.",
            "Waiting for 1 further vote (including local vote if any) before "
            "sending commit.",
            "Waiting for 2 further external commits to finish.",
        )

    def test_start_state_mentions_missing_put(self):
        lines = annotate(vec("F/0/F/0/F/F/F"), P4)
        assert lines[0] == "Have not yet received initial put from client."

    def test_committed_state_drops_the_vote_wait(self):
        lines = annotate(vec("T/3/T/0/T/F/F"), P4)
        assert "Have sent a commit message." in lines
        assert not any("before sending commit" in line for line in lines)
        assert "Waiting for 2 further external commits to finish." in lines

    @pytest.mark.parametrize("r", range(4, 14))
    def test_equals_the_reference_on_the_component_space(self, r):
        # two parameter objects: each line is one string object across machines
        p, again = BftParameters.for_replication_factor(r), BftParameters.for_replication_factor(r)
        for s in engine.enumerate_states(bft_spec(r)):
            lines = annotate(s, p)
            assert lines == reference_annotate(s, p), s
            assert all(a is b for a, b in zip(lines, annotate(s, again))), s


def iter_raw_transitions(r):
    p = BftParameters.for_replication_factor(r)
    spec = bft_spec(r)
    rules = transition_rules(p)
    for s in engine.enumerate_states(spec):
        for message in MESSAGES:
            actions, succ = rules[message](s)
            yield s, message, actions, succ


@pytest.mark.parametrize("r", [4, 7])
class TestRuleProperties:
    def test_monotone_progress_flags(self, r):
        # put_received, vote_sent and commit_sent never fall back; the two
        # received counts never decrease (slot flags may toggle by design)
        for s, _, _, succ in iter_raw_transitions(r):
            if isinstance(succ, str):
                continue
            assert succ[0] >= s[0]
            assert succ[1] >= s[1]
            assert succ[2] >= s[2]
            assert succ[3] >= s[3]
            assert succ[4] >= s[4]

    def test_vote_emitted_exactly_at_vote_flag_rise(self, r):
        for s, _, actions, succ in iter_raw_transitions(r):
            voted = not isinstance(succ, str) and not s[2] and succ[2]
            assert ("SEND_VOTE" in actions) == voted

    def test_commit_threshold_causality(self, r):
        p = BftParameters.for_replication_factor(r)
        for s, message, actions, succ in iter_raw_transitions(r):
            if "SEND_COMMIT" not in actions:
                continue
            if isinstance(succ, str):
                assert s[3] + 1 >= p.commit_threshold
            else:
                total = succ[1] + (1 if succ[2] else 0)
                assert total >= p.vote_threshold

    def test_phase_simple_dichotomy(self, r):
        for s, _, actions, succ in iter_raw_transitions(r):
            if actions:
                crossed = isinstance(succ, str) or (
                    (succ[2] and not s[2]) or (succ[4] and not s[4]) or (succ[6] and not s[6])
                )
                assert crossed
            elif not isinstance(succ, str):
                # simple transitions: at most one counter or the put flag
                # moves, and the protocol flags stay put
                assert succ[2] == s[2] and succ[4] == s[4]
                changed = sum(
                    1 for i in (0, 1, 3) if succ[i] != s[i]
                )
                assert changed <= 1


# SHA-256 of the serialized raw machine, every component vector with its
# transitions, recorded at commit 4f5088a.  The documents and product_check
# pin only the vectors the start reaches; these pin the rest as well.
RAW_MACHINE_SHA256 = {
    4: "e30d20304f65bac0fa78539b39e5e2e15569de88ebd82537bb0553a12db66640",
    7: "65d585466d655d0109ac51290f50aa07ca42d3a3e2d455b945a62f87b7899f56",
    13: "d20f8302968f8e71ec41a5886a8edca90fe91800d5100d0c159e6ecb7e3d9f00",
}


@pytest.mark.parametrize("r", sorted(RAW_MACHINE_SHA256))
def test_raw_machine_digest(r):
    digest = hashlib.sha256(serialize(raw_machine(r)).encode()).hexdigest()
    assert digest == RAW_MACHINE_SHA256[r]


class TestGeneratedFamily:
    def test_r4_counts(self):
        machine, stats = generate_with_stats(4)
        assert stats.initial == 512
        assert stats.after_prune == 48
        assert state_counts(machine) == (33, 32)

    def test_r7_counts(self):
        machine, stats = generate_with_stats(7)
        assert stats.initial == 1568
        assert state_counts(machine)[0] == 85

    # Every count of the family is a polynomial in r and f; the merge
    # representatives, and so the pass count, follow the traversal order.
    # Rows past r = 22 are slow; the Moore-refinement oracle, 2.3 s alone at
    # r = 100, checks the bisimulation classes up to r = 40.
    @pytest.mark.parametrize("r", [
        *range(4, 23),
        *(pytest.param(r, marks=pytest.mark.slow) for r in (*range(23, 41), 61, 100)),
    ])
    def test_closed_form_counts(self, r):
        f = (r - 1) // 3
        machine, stats = generate_with_stats(r)
        assert stats.after_prune == 6 * r * (f + 1)
        assert stats.final == (2 * f + 1) * (6 * f + 5) + 5 * (f + 1) * (r - 3 * f - 1)
        assert stats.passes == r + f + 1
        if r <= 40:
            classes = 8 * f * f + 12 * f + 5 + 4 * (f + 1) * (r - 3 * f - 1)
            assert len(bisimulation_oracle(machine)) == classes

    # Exact equivalence with the rules, where criterion 6 samples sequences.
    @pytest.mark.parametrize("r", [
        *range(4, 23),
        *(pytest.param(r, marks=pytest.mark.slow) for r in (46, 61, 100)),
    ])
    def test_product_check(self, r):
        machine, stats = generate_with_stats(r)
        spec, rules, _ = bft_pipeline_args(r)
        assert product_check(machine, spec, rules) == stats.after_prune

    def test_product_check_finds_a_changed_transition(self):
        machine = generate_with_stats(4)[0]
        spec, rules, _ = bft_pipeline_args(4)
        name = "T/2/F/0/F/F/F"
        state = machine.states[name]
        vote = state.transitions["VOTE"]._replace(actions=("SEND_VOTE",))
        states = {**machine.states, name: state._replace(
            transitions={**state.transitions, "VOTE": vote})}
        with pytest.raises(AssertionError):
            product_check(replace(machine, states=states), spec, rules)
