from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safereach.core import (
    Belief,
    CandidatePlan,
    LinearBeliefPredicate,
    ModelError,
    Pomdp,
    RunContext,
    SafeReachObjective,
    belief_update,
    goal_step,
    observation_probability,
    plan_satisfies,
)

from oracles import dense_matrix_update, random_instance


# --------------------------------------------------------------------------
# Belief transition goldens (pick-up model, verified by hand)
# --------------------------------------------------------------------------

POSTERIORS = [
    (0, 0, (F(0), F(1, 25), F(24, 25))),    # left hand, positive observation
    (0, 1, (F(0), F(7, 25), F(18, 25))),    # left hand, negative observation
    (1, 0, (F(1, 20), F(1, 10), F(17, 20))),
    (1, 1, (F(1, 20), F(1, 10), F(17, 20))),
]

EDGE_PROBS = [
    (0, 0, F(3, 4)),
    (0, 1, F(1, 4)),
    (1, 0, F(4, 5)),
    (1, 1, F(1, 5)),
]


@pytest.mark.parametrize("action,obs,expected", POSTERIORS)
def test_pickup_posteriors_exact(pickup, action, obs, expected):
    model, b_init, _ = pickup
    posterior = belief_update(b_init, action, obs, model)
    assert posterior is not None
    assert posterior.probs == expected


@pytest.mark.parametrize("action,obs,expected", EDGE_PROBS)
def test_pickup_observation_probabilities_exact(pickup, action, obs, expected):
    model, b_init, _ = pickup
    assert observation_probability(b_init, action, obs, model) == expected


def test_observation_probabilities_sum_to_one(pickup):
    model, b_init, _ = pickup
    for action in range(2):
        total = sum(observation_probability(b_init, action, o, model) for o in range(3))
        assert total == 1


def test_identity_update_on_deterministic_self_loop():
    model = Pomdp(
        states=("only",),
        actions=("wait",),
        observations=("tick",),
        transition={(0, 0): {0: F(1)}},
        observe={(0, 0): {0: F(1)}},
    )
    b = Belief.point(0, 1)
    assert belief_update(b, 0, 0, model) == b


def test_impossible_observation_returns_none(pickup):
    model, b_init, _ = pickup
    # the null observation never occurs from the initial belief
    assert belief_update(b_init, 0, 2, model) is None
    assert observation_probability(b_init, 0, 2, model) == 0


# --------------------------------------------------------------------------
# Type invariants
# --------------------------------------------------------------------------

def test_belief_rejects_negative_and_unnormalized():
    with pytest.raises(ModelError):
        Belief((F(-1, 2), F(3, 2)))
    with pytest.raises(ModelError):
        Belief((F(1, 2), F(1, 4)))


def test_inexact_numbers_are_refused_at_the_boundary():
    # Floats and bools are refused wherever a probability or threshold
    # enters; ints are coerced to Fractions.
    for bad in ((0.5, 0.5), (True, False)):
        with pytest.raises(ModelError):
            Belief(bad)
    with pytest.raises(ModelError):
        LinearBeliefPredicate(frozenset({0}), ">", 0.5)
    with pytest.raises(ModelError, match="transition"):
        Pomdp(("s0", "s1"), ("a0",), ("o0",),
              transition={(0, 0): {0: 0.5, 1: 0.5}, (1, 0): {1: F(1)}},
              observe={(0, 0): {0: F(1)}, (1, 0): {0: F(1)}})
    with pytest.raises(ModelError, match="observation"):
        Pomdp(("s0",), ("a0",), ("o0",),
              transition={(0, 0): {0: F(1)}}, observe={(0, 0): {0: 1.0}})
    exact = Pomdp(("s0", "s1"), ("a0",), ("o0",),
                  transition={(0, 0): {1: 1}, (1, 0): {1: "1"}},
                  observe={(0, 0): {0: 1}, (1, 0): {0: 1}})
    assert exact.transition[(0, 0)][1] == F(1) and type(exact.transition[(0, 0)][1]) is F
    assert type(LinearBeliefPredicate(frozenset({0}), ">", 0).threshold) is F
    assert Belief((1, 0)).probs == (F(1), F(0)) and type(Belief((1, 0))[0]) is F


def test_belief_form_is_canonical():
    belief = Belief((F(0), F(2, 6), F(0), F(2, 3)))
    assert (belief.indices, belief.nums, belief.den) == ((1, 3), (1, 2), 3)
    assert belief == Belief((F(0), F(1, 3), F(0), F(2, 3)))
    assert hash(belief) == hash(Belief((F(0), F(1, 3), F(0), F(2, 3))))
    assert belief != Belief((F(0), F(1, 3), F(0), F(2, 3), F(0)))
    assert Belief.point(2, 4) == Belief((0, 0, 1, 0))
    with pytest.raises(ModelError):
        Belief.point(4, 4)
    with pytest.raises(AttributeError):
        belief.den = 6


def test_pomdp_rejects_bad_distributions():
    with pytest.raises(ModelError):
        Pomdp(("s0",), ("a0",), ("o0",),
              transition={(0, 0): {0: F(1, 2)}},
              observe={(0, 0): {0: F(1)}})
    with pytest.raises(ModelError):
        Pomdp(("s0",), ("a0",), ("o0",),
              transition={(0, 0): {0: F(1)}},
              observe={(0, 0): {0: F(2, 3)}})
    with pytest.raises(ModelError):  # missing observation row for reachable landing
        Pomdp(("s0", "s1"), ("a0",), ("o0",),
              transition={(0, 0): {1: F(1)}, (1, 0): {1: F(1)}},
              observe={(0, 0): {0: F(1)}})


@pytest.mark.parametrize("kind, row", [
    ("T", {2: F(1)}), ("T", {-1: F(1)}), ("Z", {1: F(1)}), ("Z", {-1: F(1)})])
def test_rows_of_unavailable_actions_are_range_checked(kind, row):
    # State 1 does not allow action 1, yet the model has rows for the pair;
    # an index out of range there fails at construction, naming the row,
    # and never reaches the SMT lowering, which indexes its lists by it.
    transition = {(0, 0): {0: F(1)}, (1, 0): {1: F(1)}, (0, 1): {0: F(1)}}
    observe = {(0, 0): {0: F(1)}, (1, 0): {0: F(1)}, (0, 1): {0: F(1)}}
    (transition if kind == "T" else observe)[(1, 1)] = row
    with pytest.raises(ModelError, match=rf"{kind}\(1, 1\) names \[-?\d\], out of range"):
        Pomdp(("a", "b"), ("both", "only_a"), ("o",), transition, observe,
              availability={0: frozenset({0, 1}), 1: frozenset({0})})


def test_predicate_validation():
    with pytest.raises(ModelError):
        LinearBeliefPredicate(frozenset(), ">", F(1, 2))
    with pytest.raises(ModelError):
        LinearBeliefPredicate(frozenset({0}), "!=", F(1, 2))
    with pytest.raises(ModelError):
        LinearBeliefPredicate(frozenset({0}), ">", F(3, 2))


# --------------------------------------------------------------------------
# Predicates and plan satisfaction (objective from the pick-up model)
# --------------------------------------------------------------------------

def test_goal_predicate_on_bad_branch_belief(pickup):
    _, _, objective = pickup
    goal = objective.goal[0]
    assert not goal.holds(Belief((F(0), F(7, 25), F(18, 25))))
    assert goal.holds(Belief((F(1, 20), F(1, 10), F(17, 20))))


def test_safe_predicate_trivial_case(pickup):
    _, _, objective = pickup
    safe = objective.safe[0]
    assert safe.holds(Belief((F(0), F(0), F(1))))


def test_plan_satisfies_good_and_bad_paths(pickup):
    model, b_init, objective = pickup
    good = CandidatePlan(
        0, (b_init, Belief((F(1, 20), F(1, 10), F(17, 20)))), (1,), (0,))
    assert plan_satisfies(good, objective)
    bad = CandidatePlan(
        0, (b_init, Belief((F(0), F(7, 25), F(18, 25)))), (0,), (1,))
    assert not plan_satisfies(bad, objective)


def test_zero_length_plan_in_goal_satisfies(pickup):
    _, _, objective = pickup
    at_goal = CandidatePlan(3, (Belief((F(0), F(0), F(1))),), (), ())
    assert plan_satisfies(at_goal, objective)
    assert goal_step(at_goal, objective) == 3


def test_plan_prefix_helper(pickup):
    model, b_init, objective = pickup
    b1 = belief_update(b_init, 1, 0, model)
    plan = CandidatePlan(0, (b_init, b1), (1,), (0,))
    assert plan.prefix(0).beliefs == (b_init,)
    assert plan.prefix(1) == plan


def test_available_actions_respects_support():
    model = Pomdp(
        states=("a", "b"),
        actions=("both", "only_a"),
        observations=("o",),
        transition={(0, 0): {0: F(1)}, (1, 0): {1: F(1)}, (0, 1): {0: F(1)}},
        observe={(0, 0): {0: F(1)}, (1, 0): {0: F(1)}, (0, 1): {0: F(1)}},
        availability={0: frozenset({0, 1}), 1: frozenset({0})},
    )
    assert model.available_actions(Belief.point(0, 2)) == [0, 1]
    assert model.available_actions(Belief.point(1, 2)) == [0]
    assert model.available_actions(Belief((F(1, 2), F(1, 2)))) == [0]


# --------------------------------------------------------------------------
# Properties on random models
# --------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_update_matches_matrix_form_and_probs_sum(seed):
    model, b_init, _, _ = random_instance(random.Random(seed))
    belief = b_init
    for action in range(len(model.actions)):
        total = F(0)
        for obs in range(len(model.observations)):
            p = observation_probability(belief, action, obs, model)
            total += p
            mine = belief_update(belief, action, obs, model)
            oracle = dense_matrix_update(belief, action, obs, model)
            assert mine == oracle
            if mine is not None:
                assert sum(mine.probs) == 1
                assert all(x >= 0 for x in mine.probs)
        assert total == 1
        # the kernel: one push-forward, split by observation, matches the oracle
        branches = model.successors(belief, action)
        oracle = {o: dense_matrix_update(belief, action, o, model)
                  for o in range(len(model.observations))}
        assert list(branches) == [o for o, b in oracle.items() if b is not None]
        assert all(posterior == oracle[o] for o, (_, posterior) in branches.items())
        assert sum(p for p, _ in branches.values()) == 1


@st.composite
def noisy_models(draw):
    """A model with noisy rows, an availability mask and three observations,
    and a mixed belief over its states."""
    n = draw(st.integers(2, 5))
    na = draw(st.integers(1, 3))
    n_obs = 3
    weights = st.integers(0, 4)

    def distribution(size):
        row = draw(st.lists(weights, min_size=size, max_size=size).filter(any))
        return {j: F(w, sum(row)) for j, w in enumerate(row) if w}

    availability = {s: frozenset(draw(st.sets(st.integers(0, na - 1), min_size=1)))
                    for s in range(n)}
    transition = {(s, a): distribution(n) for s in range(n) for a in availability[s]}
    observe = {(s2, a): distribution(n_obs) for s2 in range(n) for a in range(na)}
    model = Pomdp(tuple(f"s{i}" for i in range(n)), tuple(f"a{i}" for i in range(na)),
                  ("o0", "o1", "o2"), transition, observe, availability)
    mass = distribution(n)
    return model, Belief(tuple(mass.get(j, F(0)) for j in range(n)))


@settings(max_examples=150, deadline=None)
@given(noisy_models())
def test_kernel_matches_dense_oracle(problem):
    model, belief = problem
    n = len(model.states)
    objective = SafeReachObjective((LinearBeliefPredicate(frozenset({0}), ">", F(1, 2)),),
                                   (LinearBeliefPredicate(frozenset({n - 1}), "<", F(1, 3)),))
    run = RunContext(model, objective)
    support = [s for s in range(n) if belief[s]]
    assert model.available_actions(belief) == [
        a for a in range(len(model.actions))
        if all(a in model.availability[s] for s in support)]
    for action in range(len(model.actions)):
        branches = model.successors(belief, action)
        for obs in range(len(model.observations)):
            oracle = dense_matrix_update(belief, action, obs, model)
            if oracle is None:
                assert obs not in branches
                continue
            prob, posterior = branches[obs]
            assert posterior.probs == oracle.probs
            assert prob == sum(belief[s] * model.trans_dist(s, action).get(s2, 0)
                               * model.obs_dist(s2, action).get(obs, 0)
                               for s in range(n) for s2 in range(n))
            canonical = Belief(posterior.probs)
            assert posterior == canonical and hash(posterior) == hash(canonical)
        assert list(branches) == sorted(branches)
        # The run cache: the same posteriors, each with its class, and no probability.
        cached = run.successors(belief, action)
        assert run.successors(belief, action) is cached
        assert all(type(entry) is tuple for entry in (cached, *cached))
        assert [(o, b) for o, b, *_ in cached] == [(o, b) for o, (_, b) in branches.items()]
        for _, posterior, is_goal, is_safe in cached:
            assert (is_goal, is_safe) == (objective.is_goal(posterior),
                                          objective.is_safe(posterior))
            assert run.classes[posterior] == (posterior, is_goal, is_safe)
            assert run.classes[posterior][0] is posterior


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.fractions(min_value=0, max_value=1))
def test_predicate_monotone_in_threshold(seed, threshold):
    model, b_init, _, _ = random_instance(random.Random(seed))
    b = belief_update(b_init, 0, 0, model) or b_init
    members = frozenset(range(len(model.states) // 2 + 1))
    pred = LinearBeliefPredicate(members, ">", F(threshold))
    if pred.holds(b):
        for lower in (F(threshold) / 2, F(threshold) * F(3, 4)):
            assert LinearBeliefPredicate(members, ">", lower).holds(b)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_plan_satisfaction_is_prefix_extendable(seed):
    rng = random.Random(seed)
    model, b_init, objective, _ = random_instance(rng)
    beliefs = [b_init]
    actions, observations = [], []
    for _ in range(4):
        action = rng.randrange(len(model.actions))
        options = [o for o in range(len(model.observations))
                   if observation_probability(beliefs[-1], action, o, model) > 0]
        obs = rng.choice(options)
        beliefs.append(belief_update(beliefs[-1], action, obs, model))
        actions.append(action)
        observations.append(obs)
    full = CandidatePlan(0, tuple(beliefs), tuple(actions), tuple(observations))
    step = goal_step(full, objective)
    if step is not None:
        for end in range(step, full.end_step + 1):
            assert plan_satisfies(full.prefix(end), objective)
