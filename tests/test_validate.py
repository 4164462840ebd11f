from __future__ import annotations

from fractions import Fraction as F

import pytest

from safereach.core import (
    Belief,
    LinearBeliefPredicate,
    PolicyTree,
    Pomdp,
    SafeReachObjective,
    belief_update,
)
from safereach.synthesis import SynthesisConfig, synthesis_run
from safereach.validate import _sample, simulate, validate_policy, wilson_interval


@pytest.fixture(scope="module")
def right_hand_policy(pickup):
    model, b_init, objective = pickup
    result = synthesis_run(model, b_init, objective, SynthesisConfig(horizon=3))
    assert result.verdict == "valid"
    return result.policy


def leaf(belief, goal=True):
    return PolicyTree(belief, None, {}, goal)


def test_synthesized_policy_is_valid_with_two_paths(pickup, right_hand_policy):
    model, _, objective = pickup
    report = validate_policy(right_hand_policy, model, objective, 3)
    assert report.valid
    assert report.paths == 2


def test_left_hand_policy_is_rejected_with_counterexample(pickup):
    model, b_init, objective = pickup
    left = 0
    good = belief_update(b_init, left, 0, model)
    bad = belief_update(b_init, left, 1, model)
    policy = PolicyTree(b_init, left, {0: leaf(good), 1: leaf(bad, goal=False)}, False)
    report = validate_policy(policy, model, objective, 3)
    assert not report.valid
    assert "objective" in report.reason
    assert report.counterexample is not None
    assert report.counterexample.observations == (1,)
    assert report.counterexample.beliefs[-1].probs == (F(0), F(7, 25), F(18, 25))


def test_single_goal_node_tree(pickup):
    model, _, objective = pickup
    report = validate_policy(leaf(Belief((F(0), F(0), F(1)))), model, objective, 0)
    assert report.valid and report.paths == 1


def test_goal_flag_must_not_lie(pickup):
    model, b_init, objective = pickup
    report = validate_policy(leaf(b_init, goal=True), model, objective, 1)
    assert not report.valid
    assert "flag" in report.reason


def test_a_node_with_no_action_and_branches_is_rejected(pickup, right_hand_policy):
    """A goal leaf given a branch, with no action to take it, is no policy:
    each of its paths would otherwise be checked as a path that stops there."""
    model, _, objective = pickup
    root = right_hand_policy
    goal_leaf = root.children[0]
    branching_leaf = PolicyTree(goal_leaf.belief, None, {0: goal_leaf}, True)
    policy = PolicyTree(root.belief, root.action, {**root.children, 0: branching_leaf}, False)
    report = validate_policy(policy, model, objective, 3)
    assert not report.valid
    assert report.reason == "a node with no action has branches"
    assert report.counterexample.observations == (0,)


def test_missing_branch_is_structural_error(pickup, right_hand_policy):
    model, _, objective = pickup
    pruned = PolicyTree(
        right_hand_policy.belief, right_hand_policy.action,
        {0: right_hand_policy.children[0]}, False)
    report = validate_policy(pruned, model, objective, 3)
    assert not report.valid
    assert "missing branch" in report.reason


def test_extra_branch_for_impossible_observation(pickup, right_hand_policy):
    model, _, objective = pickup
    extra = dict(right_hand_policy.children)
    extra[2] = leaf(right_hand_policy.children[0].belief)
    bloated = PolicyTree(
        right_hand_policy.belief, right_hand_policy.action, extra, False)
    report = validate_policy(bloated, model, objective, 3)
    assert not report.valid
    assert "impossible observation" in report.reason


def test_stored_beliefs_are_rederived_not_trusted(pickup, right_hand_policy):
    model, _, objective = pickup
    wrong = Belief((F(1, 2), F(1, 2), F(0)))
    fudged = PolicyTree(
        right_hand_policy.belief, right_hand_policy.action,
        {0: leaf(wrong), 1: right_hand_policy.children[1]}, False)
    report = validate_policy(fudged, model, objective, 3)
    assert not report.valid
    assert "differs from the exact update" in report.reason


def test_action_mutation_is_caught(pickup, right_hand_policy):
    model, _, objective = pickup
    mutated = PolicyTree(
        right_hand_policy.belief, model.action_index("pick_left"),
        dict(right_hand_policy.children), False)
    report = validate_policy(mutated, model, objective, 3)
    assert not report.valid


def test_horizon_bound_is_enforced(pickup, right_hand_policy):
    model, _, objective = pickup
    report = validate_policy(right_hand_policy, model, objective, 0)
    assert not report.valid
    assert "horizon" in report.reason


def test_unavailable_action_is_rejected():
    model = Pomdp(
        ("a", "b"), ("go", "restricted"), ("o",),
        transition={(0, 0): {1: F(1)}, (1, 0): {1: F(1)}, (0, 1): {1: F(1)}},
        observe={(1, 0): {0: F(1)}, (1, 1): {0: F(1)}},
        availability={0: frozenset({0, 1}), 1: frozenset({0})},
    )
    objective = SafeReachObjective(
        (LinearBeliefPredicate(frozenset({1}), ">", F(1, 2)),), ())
    b0 = Belief.point(1, 2)
    policy = PolicyTree(b0, 1, {0: leaf(b0)}, False)
    report = validate_policy(policy, model, objective, 2)
    assert not report.valid
    assert "unavailable" in report.reason


@pytest.mark.parametrize("action, extra_observation, named", [
    (99, None, "action index 99 outside 0..1"),
    (-1, None, "action index -1 outside 0..1"),
    (1, 7, "observation index(es) [7] outside 0..2"),
    (1, -1, "observation index(es) [-1] outside 0..2"),
])
def test_out_of_range_indices_are_named_violations(
        pickup, right_hand_policy, action, extra_observation, named):
    model, _, objective = pickup
    children = dict(right_hand_policy.children)
    if extra_observation is not None:
        children[extra_observation] = children[0]
    bad = PolicyTree(right_hand_policy.belief, action, children, False)
    report = validate_policy(bad, model, objective, 3)
    assert not report.valid
    assert named in report.reason


# --------------------------------------------------------------------------
# Simulation
# --------------------------------------------------------------------------

def test_simulation_matches_chain_probabilities(pickup, right_hand_policy):
    model, _, objective = pickup
    report = simulate(right_hand_policy, model, objective, episodes=20_000, seed=11)
    assert abs(report.goal_freq - 0.85) < 0.02
    assert abs(report.unsafe_visit_freq - 0.10) < 0.02
    lo, hi = report.goal_interval
    assert lo < 0.85 < hi


def test_simulation_deterministic_model_hits_goal_always():
    model = Pomdp(
        ("a", "goal"), ("step",), ("tick",),
        transition={(0, 0): {1: F(1)}, (1, 0): {1: F(1)}},
        observe={(1, 0): {0: F(1)}})
    objective = SafeReachObjective(
        (LinearBeliefPredicate(frozenset({1}), ">", F(1, 2)),), ())
    b0 = Belief.point(0, 2)
    policy = PolicyTree(b0, 0, {0: PolicyTree(Belief.point(1, 2), None, {}, True)}, False)
    report = simulate(policy, model, objective, episodes=500, seed=3)
    assert report.goal_freq == 1.0
    assert report.unsafe_visit_freq == 0.0


def test_simulation_reproducible_under_seed(pickup, right_hand_policy):
    model, _, objective = pickup
    first = simulate(right_hand_policy, model, objective, episodes=2_000, seed=42)
    second = simulate(right_hand_policy, model, objective, episodes=2_000, seed=42)
    assert first.goal_reached == second.goal_reached
    assert first.unsafe_visited == second.unsafe_visited
    assert first.traces == second.traces


def test_simulation_reads_the_comparator_not_just_the_state_set(pickup, right_hand_policy):
    """``mass({s_ready, s_goal}) > 4/5`` is the pick-up safe predicate
    ``mass(s_unsafe) < 1/5`` written the other way round: its state set holds
    the safe states, and the same episodes visit an unsafe one."""
    model, _, objective = pickup
    ready, goal = model.states.index("s_ready"), model.states.index("s_goal")
    flipped = SafeReachObjective(
        objective.goal, (LinearBeliefPredicate(frozenset({ready, goal}), ">", F(4, 5)),))
    assert validate_policy(right_hand_policy, model, flipped, 3).valid
    original = simulate(right_hand_policy, model, objective, episodes=2_000, seed=1)
    report = simulate(right_hand_policy, model, flipped, episodes=2_000, seed=1)
    assert (report.goal_reached, report.unsafe_visited, report.traces) \
        == (original.goal_reached, original.unsafe_visited, original.traces)
    assert abs(report.unsafe_visit_freq - 0.10) < 0.03


def test_wilson_interval_bounds():
    lo, hi = wilson_interval(85, 100)
    assert 0 <= lo < 0.85 < hi <= 1
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo0, hi0 = wilson_interval(0, 50)
    assert lo0 == 0.0 and hi0 > 0


class _FixedDraw:
    """Stands in for ``random.Random``: ``randrange(n)`` returns ``pick(n)``."""

    def __init__(self, pick):
        self.pick = pick

    def randrange(self, n):
        return self.pick(n)


def test_sample_walks_exact_cumulative_numerators():
    dist = {0: F(0), 1: F(1, 3), 2: F(0), 3: F(1, 6), 4: F(1, 2), 5: F(0)}
    assert _sample(_FixedDraw(lambda n: 0), dist) == 1
    assert _sample(_FixedDraw(lambda n: n - 1), dist) == 4
    # the common denominator is 6: draws 0-1 pick 1, 2 picks 3, 3-5 pick 4
    assert [_sample(_FixedDraw(lambda n, d=d: d), dist) for d in range(6)] \
        == [1, 1, 3, 4, 4, 4]


def test_simulation_requires_episodes(pickup, right_hand_policy):
    model, _, objective = pickup
    with pytest.raises(ValueError):
        simulate(right_hand_policy, model, objective, episodes=0)


def test_trace_beliefs_of_valid_policy_stay_safe_until_goal(pickup, right_hand_policy):
    # recompute the belief path along each simulated trace; before the first
    # goal belief every belief must be safe
    model, b_init, objective = pickup
    report = simulate(right_hand_policy, model, objective,
                      episodes=200, seed=9, max_traces=200)
    for trace in report.traces:
        belief = b_init
        for action, _true_state, obs in trace:
            if objective.is_goal(belief):
                break
            assert objective.is_safe(belief)
            belief = belief_update(belief, action, obs, model)
        assert objective.is_goal(belief) or objective.is_safe(belief)
