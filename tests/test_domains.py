from __future__ import annotations

from fractions import Fraction as F
from itertools import combinations

import pytest

from safereach.core import ModelError, belief_update
from safereach.domains import KITCHEN_LADDER, build_kitchen, build_pickup_example, kitchen_rung
from safereach.synthesis import SynthesisConfig, VERDICT_NO_POLICY, VERDICT_VALID, synthesis_run
from safereach.validate import validate_policy

from oracles import brute_force_feasible


# --------------------------------------------------------------------------
# Pick-up example
# --------------------------------------------------------------------------

def test_pickup_transition_values_exact():
    model, b_init, objective = build_pickup_example()
    ready = model.state_index("s_ready")
    unsafe = model.state_index("s_unsafe")
    goal = model.state_index("s_goal")
    left = model.action_index("pick_left")
    right = model.action_index("pick_right")
    assert model.trans_dist(ready, left) == {unsafe: F(1, 10), goal: F(9, 10)}
    assert model.trans_dist(ready, right) == {
        ready: F(1, 20), unsafe: F(1, 10), goal: F(17, 20)}
    for s in (unsafe, goal):
        for a in (left, right):
            assert model.trans_dist(s, a) == {s: F(1)}


def test_pickup_right_hand_observation_rows_uniformly_informative():
    model, _, _ = build_pickup_example()
    right = model.action_index("pick_right")
    pos, neg = model.observation_index("o_pos"), model.observation_index("o_neg")
    for s in range(3):
        assert model.obs_dist(s, right) == {pos: F(4, 5), neg: F(1, 5)}


def test_pickup_distributions_sum_to_one():
    model, b_init, _ = build_pickup_example()
    for dist in model.transition.values():
        assert sum(dist.values()) == 1
    for dist in model.observe.values():
        assert sum(dist.values()) == 1
    assert sum(b_init.probs) == 1


def test_pickup_objective_thresholds():
    model, _, objective = build_pickup_example()
    assert objective.goal[0].threshold == F(4, 5)
    assert objective.goal[0].comparator == ">"
    assert objective.safe[0].threshold == F(1, 5)
    assert objective.safe[0].comparator == "<"


# --------------------------------------------------------------------------
# Kitchen generator
# --------------------------------------------------------------------------

def small_kitchen(**overrides):
    params = dict(width=2, height=2, shadow_cells=[(0, 1), (1, 1)],
                  storage_cell=(1, 0), start_cell=(0, 0), obstacles=1,
                  p_fail=0, p_fp=0, p_fn=0)
    params.update(overrides)
    return build_kitchen(**params)


def test_kitchen_initial_belief_uniform_over_placements():
    shadow = [(1, 0), (1, 1), (2, 1)]
    model, b_init, _ = build_kitchen(3, 2, shadow, (2, 0), (0, 0), obstacles=1,
                                     p_fail=0, p_fp=0, p_fn=0)
    expected = F(1, len(list(combinations(shadow, 1))))
    support = [p for p in b_init.probs if p]
    assert support == [expected] * 3


def test_kitchen_model_invariants_with_default_noise():
    model, b_init, objective = build_kitchen(
        3, 2, [(1, 0), (1, 1)], (2, 0), (0, 0), obstacles=1)
    for dist in model.transition.values():
        assert sum(dist.values()) == 1
        assert all(0 <= p <= 1 for p in dist.values())
    for dist in model.observe.values():
        assert sum(dist.values()) == 1
    assert sum(b_init.probs) == 1


def test_kitchen_reachability_pruning_is_exact():
    model, b_init, _ = small_kitchen()
    # independent BFS over the built model's transition function
    frontier = list(b_init.support())
    seen = set(frontier)
    while frontier:
        s = frontier.pop()
        for a in model.allowed_actions(s):
            for s2, p in model.trans_dist(s, a).items():
                if p and s2 not in seen:
                    seen.add(s2)
                    frontier.append(s2)
    assert seen == set(range(len(model.states)))


def test_kitchen_perfect_look_resolves_placements():
    model, b_init, _ = small_kitchen()
    look_north = model.action_index("look_north")
    o_neg = model.observation_index("o_neg")
    # looking north from (0,0) inspects shadow cell (0,1)
    after = belief_update(b_init, look_north, o_neg, model)
    assert after is not None
    for j in after.support():
        assert "obs0.1" not in model.states[j]  # placements with (0,1) occupied are gone


def test_kitchen_picks_only_at_storage():
    model, b_init, _ = small_kitchen()
    pick_left = model.action_index("pick_left")
    assert pick_left not in model.available_actions(b_init)
    move_east = model.action_index("move_east")
    o_null = model.observation_index("o_null")
    at_storage = belief_update(b_init, move_east, o_null, model)
    assert pick_left in model.available_actions(at_storage)


def test_kitchen_collision_is_absorbing():
    model, b_init, _ = small_kitchen()
    move_north = model.action_index("move_north")
    o_null = model.observation_index("o_null")
    risky = belief_update(b_init, move_north, o_null, model)  # enters a shadow cell
    collided = [j for j in risky.support() if "|col" in model.states[j]]
    assert collided
    for s in collided:
        for a in model.allowed_actions(s):
            assert model.trans_dist(s, a) == {s: F(1)}


def test_kitchen_single_shadow_cell_matches_brute_force():
    model, b_init, objective = build_kitchen(
        2, 2, [(0, 1)], (1, 0), (0, 0), obstacles=1, p_fail=0, p_fp=0, p_fn=0)
    result = synthesis_run(model, b_init, objective, SynthesisConfig(horizon=4))
    assert result.verdict == "valid"
    assert validate_policy(result.policy, model, objective, 4).valid
    height = result.policy.height()
    assert brute_force_feasible(model, objective, b_init, height)
    assert not brute_force_feasible(model, objective, b_init, height - 1)


def test_kitchen_geometry_errors():
    with pytest.raises(ModelError):
        small_kitchen(start_cell=(5, 5))
    with pytest.raises(ModelError):
        small_kitchen(storage_cell=(9, 0))
    with pytest.raises(ModelError):
        small_kitchen(obstacles=3)
    with pytest.raises(ModelError):
        small_kitchen(start_cell=(0, 1))  # inside the shadow region
    with pytest.raises(ModelError):
        small_kitchen(p_fail=1)
    for label, value in (("width", 2.5), ("height", 0), ("width", True)):
        with pytest.raises(ModelError, match=rf"^{label} must be an integer >= 1, got {value}$"):
            small_kitchen(**{label: value})


def test_a_negative_obstacle_count_is_named():
    with pytest.raises(ModelError, match=r"^obstacles must be non-negative, got -1$"):
        small_kitchen(obstacles=-1)


@pytest.mark.parametrize("value, shown", [(1.5, "1.5"), (True, "True"), ("1", "'1'")])
def test_a_non_integer_obstacle_count_is_named(value, shown):
    with pytest.raises(ModelError, match=rf"^obstacles must be an integer, got {shown}$"):
        small_kitchen(obstacles=value)


@pytest.mark.parametrize("label, value, shown", [("delta1", 2, "2"), ("delta1", -1, "-1"),
                                                  ("delta2", "3/2", "3/2"), ("delta2", -1, "-1")])
def test_kitchen_tolerances_outside_the_unit_interval_are_named(label, value, shown):
    with pytest.raises(ModelError, match=rf"^{label} must lie in \[0, 1\], got {shown}$"):
        small_kitchen(**{label: value})


def test_kitchen_tolerances_may_be_the_ends_of_the_unit_interval():
    _, _, objective = small_kitchen(delta1=0, delta2=1)
    assert (objective.goal[0].threshold, objective.safe[0].threshold) == (1, 1)


def test_kitchen_moves_off_grid_bounce():
    model, b_init, _ = small_kitchen()
    move_south = model.action_index("move_south")
    o_null = model.observation_index("o_null")
    bounced = belief_update(b_init, move_south, o_null, model)
    assert bounced == b_init


@pytest.mark.parametrize("rung", KITCHEN_LADDER)
def test_each_ladder_row_has_its_recorded_verdict_and_checks(rung):
    """Each row's enum run on a fresh model has its recorded verdict and checks."""
    for horizon, valid, checks in KITCHEN_LADDER[rung].rows:
        model, b_init, objective = kitchen_rung(rung)
        assert not model._supports
        result = synthesis_run(model, b_init, objective, SynthesisConfig(horizon=horizon))
        assert (result.verdict, result.stats.solver_calls) \
            == (VERDICT_VALID if valid else VERDICT_NO_POLICY, checks), f"h{horizon}"
