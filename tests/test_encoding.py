from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from safereach import build_pickup_example, encoding as enc, refsolver
from safereach.core import (Belief, CandidatePlan, LinearBeliefPredicate, Pomdp, RunContext,
                            SafeReachObjective, belief_update)
from safereach.domains import build_kitchen
from safereach.refsolver import Session, render, tokenize
from safereach.solver import EnumerativeSession, Sat, enumerative_check
from safereach.solver.smtlib import _app, _chain, _ite_chain, lower, serialize

from oracles import (
    enumerate_plans,
    eval_term,
    evaluate,
    random_instance,
    satisfies_bounded,
    transition_env,
)

DET = {"p_fail": 0, "p_fp": 0, "p_fn": 0}


def run_of(model, objective=None):
    """A run on ``model``; only a goal reads its objective."""
    if objective is None:
        objective = SafeReachObjective(
            (LinearBeliefPredicate(frozenset({0}), ">", F(1, 2)),), ())
    return RunContext(model, objective)


# --------------------------------------------------------------------------
# Determinism and naming
# --------------------------------------------------------------------------

def test_identical_inputs_give_identical_terms(pickup):
    model, b_init, objective = pickup
    first = serialize(enc.transition_constraint(0, 1), run_of(model))
    second = serialize(enc.transition_constraint(0, 1), run_of(model))
    assert first == second
    goal = enc.goal_constraint(0, 1)
    run = run_of(model, objective)
    assert serialize(goal, run) == serialize(goal, run)


def test_variable_names_are_step_and_index_functions():
    sv = enc.step_vars(4, 2)
    assert sv.belief_vars == ("b_4_0", "b_4_1")
    assert sv.action_var == "a_4"
    assert sv.observation_var == "o_4"
    assert sv.unnorm_vars == ("u_4_0", "u_4_1")
    assert sv.denom_var == "denom_4"
    start = enc.step_vars(0, 2, start=True)
    assert start.action_var is None and start.observation_var is None


# --------------------------------------------------------------------------
# Initial constraint
# --------------------------------------------------------------------------

def test_initial_constraint_pins_point_mass(pickup):
    model, b_init, _ = pickup
    constraint = enc.initial_constraint(0, b_init)
    assert constraint == enc.Initial(0, b_init)
    term = serialize(constraint, run_of(model))
    env = {f"b_0_{j}": b_init[j] for j in range(3)}
    assert eval_term(term, env)
    env["b_0_0"] = F(1, 2)
    env["b_0_1"] = F(1, 2)
    assert not eval_term(term, env)


def test_initial_constraint_uniform_two_states():
    model = Pomdp(("s", "t"), ("a",), ("o",),
                  transition={(0, 0): {0: F(1)}, (1, 0): {1: F(1)}},
                  observe={(0, 0): {0: F(1)}, (1, 0): {0: F(1)}})
    constraint = enc.initial_constraint(0, Belief((F(1, 2), F(1, 2))))
    assert eval_term(serialize(constraint, run_of(model)), {"b_0_0": F(1, 2), "b_0_1": F(1, 2)})


def test_kitchen_initial_constraint_uniform_over_placements():
    # oracle: enumerate the obstacle placements by brute force
    shadow = [(1, 0), (1, 1), (2, 1)]
    placements = list(combinations(shadow, 2))
    model, b_init, _ = build_kitchen(3, 2, shadow, (2, 0), (0, 0), obstacles=2,
                                     p_fail=0, p_fp=0, p_fn=0)
    expected_share = F(1, len(placements))
    positive = [p for p in b_init.probs if p]
    assert positive == [expected_share] * len(placements)
    term = serialize(enc.initial_constraint(0, b_init), run_of(model))
    env = {enc.belief_var_name(0, j): b_init[j] for j in range(len(model.states))}
    assert eval_term(term, env)


# --------------------------------------------------------------------------
# Transition constraint
# --------------------------------------------------------------------------

def test_transition_forces_left_hand_negative_posterior(pickup):
    model, b_init, _ = pickup
    constraint = enc.transition_constraint(0, 1)
    assert constraint == enc.Transition(1)
    term = serialize(constraint, run_of(model))
    expected = belief_update(b_init, 0, 1, model)
    assert expected.probs == (F(0), F(7, 25), F(18, 25))
    good = transition_env(b_init, expected, 0, 1, model, 0, 1)
    assert eval_term(term, good)
    for wrong in (Belief((F(0), F(1, 25), F(24, 25))), Belief((F(1), F(0), F(0)))):
        env = transition_env(b_init, expected, 0, 1, model, 0, 1)
        for j in range(3):
            env[enc.belief_var_name(1, j)] = wrong[j]
        assert not eval_term(term, env)


def test_transition_one_state_model():
    model = Pomdp(("s",), ("a",), ("o",),
                  transition={(0, 0): {0: F(1)}},
                  observe={(0, 0): {0: F(1)}})
    term = serialize(enc.transition_constraint(0, 1), run_of(model))
    b = Belief.point(0, 1)
    env = transition_env(b, b, 0, 0, model, 0, 1)
    assert env[enc.denom_var_name(1)] == 1
    assert eval_term(term, env)


@pytest.mark.parametrize("seed", range(8))
def test_transition_agrees_with_update_oracle_on_random_models(seed):
    model, b_init, _, _ = random_instance(random.Random(seed), max_states=3)
    term = serialize(enc.transition_constraint(0, 1), run_of(model))
    for action in range(len(model.actions)):
        for obs in range(len(model.observations)):
            posterior = belief_update(b_init, action, obs, model)
            if posterior is None:
                continue
            env = transition_env(b_init, posterior, action, obs, model, 0, 1)
            assert eval_term(term, env), (action, obs)


def test_transition_rejects_impossible_observation(pickup):
    # denom > 0 rules out observations with zero probability
    model, b_init, _ = pickup
    term = serialize(enc.transition_constraint(0, 1), run_of(model))
    env = transition_env(b_init, b_init, 0, 2, model, 0, 1)
    assert env[enc.denom_var_name(1)] == 0
    assert not eval_term(term, env)


def test_transition_requires_consecutive_steps():
    with pytest.raises(ValueError):
        enc.transition_constraint(0, 2)


def test_availability_encoded_as_support_implication():
    model = Pomdp(
        states=("a", "b"),
        actions=("anywhere", "only_a"),
        observations=("o",),
        transition={(0, 0): {1: F(1)}, (1, 0): {1: F(1)}, (0, 1): {0: F(1)}},
        observe={(1, 0): {0: F(1)}, (0, 1): {0: F(1)}},
        availability={0: frozenset({0, 1}), 1: frozenset({0})},
    )
    term = serialize(enc.transition_constraint(0, 1), run_of(model))
    mixed = Belief((F(1, 2), F(1, 2)))
    posterior = belief_update(mixed, 0, 0, model)
    ok = transition_env(mixed, posterior, 0, 0, model, 0, 1)
    assert eval_term(term, ok)
    narrow = belief_update(mixed, 1, 0, model)  # defined pointwise...
    env = transition_env(mixed, narrow, 1, 0, model, 0, 1)
    assert not eval_term(term, env)  # ...but the selector may not pick it


def dense_transition(step, model):
    """The transition term built densely: every (action, observation) pair
    asks every state's row for s2, and each action's states are gathered
    apart.  The reference the sparse lowering must equal term for term."""
    n, n_actions = len(model.states), len(model.actions)
    prev = enc.step_vars(step - 1, n, start=True).belief_vars
    cur = enc.step_vars(step, n)
    a, o = cur.action_var, cur.observation_var
    parts = [("<=", 0, a), ("<", a, n_actions), ("<=", 0, o), ("<", o, len(model.observations))]
    if model.availability is not None:
        everywhere = frozenset(range(n))
        for act in range(n_actions):
            states = frozenset(s for s in range(n) if act in model.allowed_actions(s))
            if states != everywhere:
                mass = _app("+", [prev[s] for s in sorted(states)]) if states else F(0)
                parts.append(("or", ("not", ("=", a, act)), ("=", mass, F(1))))
    for s2 in range(n):
        cases = []
        for act in range(n_actions):
            for obs in range(len(model.observations)):
                z = model.obs_dist(s2, act).get(obs, F(0))
                terms = []
                for s in range(n):
                    c = z * model.trans_dist(s, act).get(s2, F(0))
                    if c:
                        terms.append(prev[s] if c == 1 else ("*", c, prev[s]))
                if terms:
                    cases.append((("and", ("=", a, act), ("=", o, obs)), _app("+", terms)))
        parts.append(("=", cur.unnorm_vars[s2], _ite_chain(cases)))
    denom = cur.denom_var
    parts.append(("=", denom, _app("+", cur.unnorm_vars)))
    parts.append(("<", F(0), denom))
    parts.extend(("=", ("*", b, denom), u) for b, u in zip(cur.belief_vars, cur.unnorm_vars))
    parts.append(("=", _app("+", cur.belief_vars), F(1)))
    parts.extend(("<=", F(0), b) for b in cur.belief_vars)
    return _app("and", parts)


KITCHEN_BUILDS = {
    "2x2-det": ((2, 2, [(0, 1), (1, 1)], (1, 0), (0, 0)), DET),
    "2x2-noisy": ((2, 2, [(0, 1), (1, 1)], (1, 0), (0, 0)), {}),
    "3x2-det": ((3, 2, [(1, 0), (1, 1)], (2, 0), (0, 0)), DET),
    "3x2-noisy": ((3, 2, [(1, 0), (1, 1)], (2, 0), (0, 0)), {}),
    "3x2-sensor-only": ((3, 2, [(1, 0), (1, 1)], (2, 0), (0, 0)), {"p_fail": 0}),
    "4x3-M2-det": ((4, 3, [(1, 0), (1, 1), (2, 1), (2, 2)], (3, 0), (0, 0)),
                   {**DET, "obstacles": 2}),
}


def sparse_lowering_cases():
    yield "pickup", build_pickup_example()[0]
    for label, (args, kwargs) in KITCHEN_BUILDS.items():
        yield f"kitchen-{label}", build_kitchen(*args, **kwargs)[0]
    for seed in range(200):
        yield f"random-{seed}", random_instance(random.Random(seed))[0]


def test_the_sparse_transition_is_the_dense_term():
    masked = 0
    for label, model in sparse_lowering_cases():
        masked += model.availability is not None
        for step in (1, 2):
            term = lower(enc.Transition(step), run_of(model))
            reference = dense_transition(step, model)
            assert term == reference, (label, step)
            # Equal tuples can still differ in type: 1 == F(1).
            assert render(term) == render(reference), (label, step)
    assert masked >= len(KITCHEN_BUILDS)  # availability masks are covered


def subterms(term):
    yield term
    if isinstance(term, tuple):
        for arg in term[1:]:
            yield from subterms(arg)


def test_no_transition_conjunct_multiplies_an_ite_by_a_variable():
    """Each selector table's cases are linear sums: a product is a numeral
    times a variable, or a belief times its step's denominator."""
    for label, model in sparse_lowering_cases():
        for step in (1, 2):
            for term in subterms(lower(enc.Transition(step), run_of(model))):
                if isinstance(term, tuple) and term[0] == "*":
                    assert len(term) == 3 and not any(isinstance(arg, tuple)
                                                       for arg in term[1:]), (label, term)


def test_lowering_a_transition_reads_each_row_once(monkeypatch):
    args, kwargs = KITCHEN_BUILDS["4x3-M2-det"]
    model = build_kitchen(*args, **kwargs)[0]
    assert (len(model.states), len(model.actions)) == (84, 10)
    reads = {}
    trans_dist = Pomdp.trans_dist

    def counting(self, s, a):
        reads[(s, a)] = reads.get((s, a), 0) + 1
        return trans_dist(self, s, a)

    monkeypatch.setattr(Pomdp, "trans_dist", counting)
    lower(enc.Transition(1), run_of(model))
    assert sum(reads.values()) <= 840
    assert max(reads.values()) == 1


# --------------------------------------------------------------------------
# Goal constraint
# --------------------------------------------------------------------------

def test_goal_at_start_step_is_single_membership(pickup):
    model, _, objective = pickup
    term = serialize(enc.goal_constraint(0, 0), run_of(model, objective))
    in_goal = {enc.belief_var_name(0, j): p for j, p in enumerate((F(0), F(0), F(1)))}
    out_goal = {enc.belief_var_name(0, j): p for j, p in enumerate((F(1), F(0), F(0)))}
    assert eval_term(term, in_goal)
    assert not eval_term(term, out_goal)


def test_goal_two_step_structure_and_models(pickup):
    model, b_init, objective = pickup
    term = serialize(enc.goal_constraint(0, 1), run_of(model, objective))
    assert term == "f_1"  # the flag the step-1 transition's chain defines
    chain = _chain(1, 0, 3, objective)
    # oracle: enumerate all four (action, observation) assignments
    satisfying = []
    for actions, observations, beliefs in enumerate_plans(model, b_init, 1):
        env = {enc.belief_var_name(0, j): beliefs[0][j] for j in range(3)}
        env.update({enc.belief_var_name(1, j): beliefs[1][j] for j in range(3)})
        for _, name, definition in chain[1:]:
            env[name] = evaluate(definition, env)
        if eval_term(term, env):
            satisfying.append((actions[0], observations[0]))
            assert satisfies_bounded(beliefs, objective)
        else:
            assert not satisfies_bounded(beliefs, objective)
    assert satisfying == [(0, 0), (1, 0), (1, 1)]


# --------------------------------------------------------------------------
# Fired/safe chains: p_j, every belief before step j is safe; f_j, the goal
# has fired by step j
# --------------------------------------------------------------------------

def ask(session, *commands) -> list:
    answers, queued = [], iter(commands)
    session.run(lambda: next(queued, None), answers.append)
    return answers


def belief_commands(step, belief):
    names = enc.step_vars(step, len(belief.probs), start=True).belief_vars
    return [*(("declare-const", name, "Real") for name in names),
            *(("assert", ("=", name, p)) for name, p in zip(names, belief.probs))]


def chains_match_the_oracle(model, b_init, objective, horizon) -> int:
    """Walks every belief sequence of up to ``horizon`` steps, pinning each
    belief and defining each step's chain in one bundled-solver session:
    at every step j the flags propagate, with no search node, to
    ``p_j = all beliefs before j are safe`` and to the goal over 0..j of
    :func:`oracles.satisfies_bounded`.  Returns the number of steps walked."""
    run, n = run_of(model, objective), len(model.states)
    session = Session()
    ask(session, *belief_commands(0, b_init))

    def visit(beliefs) -> int:
        j = len(beliefs) - 1
        verdict, answer = ask(session, ("check-sat",), ("get-model",))
        assert verdict == "sat" and session.search.nodes == 0
        values = {name: value for _, name, _, _, value in answer}
        assert evaluate(lower(enc.Goal(0, j), run), values) \
            == satisfies_bounded(beliefs, objective), beliefs
        if j:
            assert values[f"p_{j}"] == all(map(objective.is_safe, beliefs[:-1])), beliefs
        if j == horizon:
            return 1
        walked = 1
        # The flags read only the beliefs: each distinct posterior is one path.
        children = dict.fromkeys(child for a in model.available_actions(beliefs[-1])
                                 for _, child, *_ in run.successors(beliefs[-1], a))
        for child in children:
            ask(session, ("push", 1), *belief_commands(j + 1, child),
                ("declare-const", f"p_{j + 1}", "Bool"), ("declare-const", f"f_{j + 1}", "Bool"),
                ("assert", _chain(j + 1, 0, n, objective)))
            walked += visit((*beliefs, child))
            ask(session, ("pop", 1))
        return walked

    return visit((b_init,))


def test_propagated_fired_flags_are_the_bounded_goal_on_random_paths():
    walked = 0
    for seed in range(200):
        model, b_init, objective, horizon = random_instance(random.Random(seed))
        walked += chains_match_the_oracle(model, b_init, objective, horizon)
    assert walked > 15000


@pytest.mark.parametrize("label, horizon", [("2x2-det", 4), ("2x2-noisy", 4), ("3x2-det", 4),
                                            ("3x2-noisy", 3)])
def test_propagated_fired_flags_are_the_bounded_goal_on_kitchen_paths(label, horizon):
    args, kwargs = KITCHEN_BUILDS[label]
    assert chains_match_the_oracle(*build_kitchen(*args, **kwargs), horizon) > 10


def test_goal_lemma_and_chain_text_grows_linearly_in_the_span():
    """On kitchen 3x2, the conjuncts of the goal over 0..k, of a lemma
    eligible at every step and of the chains of steps 1..k take a number of
    tokens whose first differences over k = 1..10 are all equal: each step
    adds the same text."""
    args, kwargs = KITCHEN_BUILDS["3x2-det"]
    model, b_init, objective = build_kitchen(*args, **kwargs)
    run, n = run_of(model, objective), len(model.states)
    lemma = enc.DeadAction(b_init, 0, 10, 0)
    sizes = []
    for k in range(1, 11):
        terms = [lower(enc.Goal(0, k), run), lower(lemma, run, (0, k)),
                 *(_chain(j, 0, n, objective) for j in range(1, k + 1))]
        sizes.append(sum(len(tokenize(render(part)))
                         for term in terms for part in refsolver._conjuncts(term, [])))
    steps = [later - earlier for earlier, later in zip(sizes, sizes[1:])]
    assert len(set(steps)) == 1, steps


def test_goal_requires_contiguous_steps():
    with pytest.raises(ValueError):
        enc.goal_constraint(2, 0)


@pytest.mark.parametrize("seed", range(10))
def test_goal_satisfiability_monotone_in_horizon(seed):
    model, b_init, objective, _ = random_instance(random.Random(seed), max_states=4)
    for k in range(3):
        now = enumerative_check(model, b_init, 0, k, objective)
        longer = enumerative_check(model, b_init, 0, k + 1, objective)
        if isinstance(now, Sat):
            assert isinstance(longer, Sat)


# --------------------------------------------------------------------------
# Blocks: a record no solver is sent, implied by the lemma learned with it
# --------------------------------------------------------------------------

def test_blocking_fail_step_must_lie_in_span(pickup):
    model, b_init, _ = pickup
    plan = CandidatePlan(0, (b_init, belief_update(b_init, 0, 0, model)), (0,), (0,))
    with pytest.raises(ValueError):
        enc.blocking_constraint(plan, 0)
    with pytest.raises(ValueError):
        enc.blocking_constraint(plan, 2)


@pytest.mark.parametrize("seed", range(6))
def test_blocked_prefixes_never_reappear(seed):
    """A block at step 1 of horizon 2 is implied by the dead pair of the
    plan's first action at its start belief with 2 steps left: once the run
    has learned that lemma, no plan starts with the blocked prefix.  Each seed draws
    20 problems; a start belief that is a goal binds no lemma, and bps never
    blocks such a plan."""
    blocked = 0
    for index in range(seed * 20, seed * 20 + 20):
        model, b_init, objective, _ = random_instance(random.Random(index), max_states=3)
        run = RunContext(model, objective)
        with EnumerativeSession(run) as session:
            session.add(enc.initial_constraint(0, b_init))
            session.add(enc.transition_constraint(0, 1))
            session.add(enc.transition_constraint(1, 2))
            session.add(enc.goal_constraint(0, 2))
            result = session.check()
            if not isinstance(result, Sat) or run.classify(b_init)[1]:
                continue
            plan = result.plan
            run.learn(enc.DeadAction(plan.beliefs[0], plan.actions[0], 2, plan.observations[0]))
            again = session.check()
        if isinstance(again, Sat):
            assert again.plan.actions[0] != plan.actions[0], index
        blocked += 1
    assert blocked
