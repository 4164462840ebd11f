from __future__ import annotations

import random
import re
import sys
from fractions import Fraction as F

import pytest

from safereach import encoding, synthesis, validate
from safereach.core import (
    Belief,
    LinearBeliefPredicate,
    ModelError,
    Pomdp,
    RunContext,
    SafeReachObjective,
    belief_update,
)
from safereach.domains import build_kitchen
from safereach.solver import EnumerativeSession, SolverConfig, SolverSession, smtlib
from safereach.synthesis import (
    SynthesisConfig,
    VERDICT_NO_POLICY,
    VERDICT_VALID,
    policy_generation,
    synthesis_run,
)
from safereach.validate import validate_policy

from oracles import (
    brute_force_feasible,
    drop_last_state,
    pad_with_unreachable_state,
    random_instance,
    relabel_actions,
    relabel_observations,
    relabel_policy,
    relabel_states,
)


def run(model, b_init, objective, horizon, backend="enum", **kw):
    config = SynthesisConfig(horizon=horizon, backend=backend, **kw)
    return synthesis_run(model, b_init, objective, config)


def tree_actions(tree):
    actions = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.action is not None:
            actions.add(node.action)
        stack.extend(node.children.values())
    return actions


# --------------------------------------------------------------------------
# Models used across the tests
# --------------------------------------------------------------------------

def delayed_goal_model():
    """The only goal-capable first action needs its off-plan branch to take
    one extra step, so it is blocked at horizon 1 and works at horizon 2."""
    states = ("s_start", "s_mid", "s_done", "s_trap")
    actions = ("try_now", "finish")
    observations = ("o_yes", "o_no")
    T = {
        (0, 0): {2: F(3, 4), 1: F(1, 4)}, (0, 1): {0: F(1)},
        (1, 0): {1: F(1)}, (1, 1): {2: F(1)},
        (2, 0): {2: F(1)}, (2, 1): {2: F(1)},
        (3, 0): {3: F(1)}, (3, 1): {3: F(1)},
    }
    Z = {
        (2, 0): {0: F(1)}, (1, 0): {1: F(1)},
        (0, 1): {0: F(1)}, (2, 1): {0: F(1)}, (1, 1): {0: F(1)},
        (3, 0): {0: F(1)}, (3, 1): {0: F(1)},
    }
    model = Pomdp(states, actions, observations, T, Z)
    objective = SafeReachObjective(
        (LinearBeliefPredicate(frozenset({2}), ">", F(3, 5)),),
        (LinearBeliefPredicate(frozenset({3}), "<", F(1, 5)),))
    return model, Belief.point(0, 4), objective


def absorbing_trap_model():
    model = Pomdp(
        ("stuck", "goal"), ("go",), ("o",),
        transition={(0, 0): {0: F(1)}, (1, 0): {1: F(1)}},
        observe={(0, 0): {0: F(1)}, (1, 0): {0: F(1)}})
    objective = SafeReachObjective(
        (LinearBeliefPredicate(frozenset({1}), ">", F(1, 2)),), ())
    return model, Belief.point(0, 2), objective


def chain_model():
    """Deterministic observations: the policy is the plan itself."""
    model = Pomdp(
        ("a", "b", "c"), ("step",), ("tick",),
        transition={(0, 0): {1: F(1)}, (1, 0): {2: F(1)}, (2, 0): {2: F(1)}},
        observe={(1, 0): {0: F(1)}, (2, 0): {0: F(1)}})
    objective = SafeReachObjective(
        (LinearBeliefPredicate(frozenset({2}), ">", F(1, 2)),), ())
    return model, Belief.point(0, 3), objective


# --------------------------------------------------------------------------
# Pick-up example behaviour
# --------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["enum", "smtlib"])
def test_pickup_synthesizes_right_hand_policy(pickup, backend):
    model, b_init, objective = pickup
    result = run(model, b_init, objective, 3, backend=backend)
    assert result.verdict == VERDICT_VALID
    policy = result.policy
    assert model.actions[policy.action] == "pick_right"
    assert model.action_index("pick_left") not in tree_actions(policy)
    assert {model.observations[o] for o in policy.children} == {"o_pos", "o_neg"}
    for child in policy.children.values():
        assert child.goal_reached and child.is_leaf()
    # the left hand was proposed first and blocked
    assert any(e.actions[0] == model.action_index("pick_left")
               for e in result.stats.blocking_events)
    # hand-enumerated counts for this run
    assert result.stats.solver_calls == 5
    assert result.stats.plans_checked == 3
    assert result.stats.plans_checked <= result.stats.solver_calls


def test_pickup_backends_produce_identical_runs(pickup):
    model, b_init, objective = pickup
    enum_result = run(model, b_init, objective, 3, backend="enum")
    smt_result = run(model, b_init, objective, 3, backend="smtlib")
    assert enum_result.verdict == smt_result.verdict
    assert enum_result.policy == smt_result.policy
    assert enum_result.stats.check_trace == smt_result.stats.check_trace


def _non_strict(pred):
    comparator = {">": ">=", "<": "<="}.get(pred.comparator, pred.comparator)
    return LinearBeliefPredicate(pred.state_set, comparator, pred.threshold)


def test_non_strict_comparators_agree_across_backends(pickup):
    """The smtlib lowering of ``>=`` and ``<=`` against the enum oracle.  On
    pick-up the right hand lands exactly on both thresholds, so only the
    non-strict objective has a policy."""
    model, b_init, _ = pickup
    goal = frozenset({model.states.index("s_goal")})
    unsafe = frozenset({model.states.index("s_unsafe")})

    def pickup_objective(goal_comparator, safe_comparator):
        return SafeReachObjective((LinearBeliefPredicate(goal, goal_comparator, F(17, 20)),),
                                  (LinearBeliefPredicate(unsafe, safe_comparator, F(1, 10)),))

    problems = [(model, b_init, pickup_objective(*comparators), horizon, verdict)
                for comparators, verdict in (((">=", "<="), VERDICT_VALID),
                                             ((">", "<"), VERDICT_NO_POLICY))
                for horizon in (1, 2, 3)]
    for seed in range(20):
        model, b_init, objective, horizon = random_instance(random.Random(seed))
        objective = SafeReachObjective(tuple(map(_non_strict, objective.goal)),
                                       tuple(map(_non_strict, objective.safe)))
        problems.append((model, b_init, objective, horizon, None))
    for model, b_init, objective, horizon, verdict in problems:
        enum_result, smt_result = (run(model, b_init, objective, horizon, backend=backend)
                                   for backend in ("enum", "smtlib"))
        assert verdict is None or enum_result.verdict == verdict
        assert (enum_result.verdict, enum_result.policy, enum_result.stats.check_trace) \
            == (smt_result.verdict, smt_result.policy, smt_result.stats.check_trace)


def test_initial_belief_already_at_goal(pickup):
    model, _, objective = pickup
    at_goal = Belief((F(0), F(0), F(1)))
    result = run(model, at_goal, objective, 3)
    assert result.verdict == VERDICT_VALID
    policy = result.policy
    assert policy.is_leaf() and policy.goal_reached and not policy.children
    assert result.stats.solver_calls == 1
    assert result.stats.final_horizon == 0


def test_negative_horizon_is_rejected():
    with pytest.raises(ValueError, match="horizon must be non-negative"):
        SynthesisConfig(horizon=-3)


@pytest.mark.parametrize("make, message", [
    (lambda: SynthesisConfig(horizon=2.5), "horizon must be an integer, got 2.5"),
    (lambda: SynthesisConfig(horizon=True), "horizon must be an integer, got True"),
    (lambda: SynthesisConfig(horizon="3"), "horizon must be an integer, got '3'"),
    (lambda: SynthesisConfig(horizon=2, backend="z3"),
     "backend must be 'enum' or 'smtlib', got 'z3'"),
    (lambda: SolverConfig(command="z3 -in"),
     "command must be a sequence of arguments, got 'z3 -in'"),
    (lambda: SolverConfig(command=()), "command must name a program, got an empty sequence"),
    (lambda: SolverConfig(check_timeout=-1), "check_timeout must be finite and positive"),
    (lambda: SolverConfig(check_timeout=0), "check_timeout must be finite and positive"),
    (lambda: SolverConfig(check_timeout=float("nan")),
     "check_timeout must be finite and positive"),
    (lambda: SolverConfig(check_timeout=float("inf")),
     "check_timeout must be finite and positive"),
    (lambda: SolverConfig(check_timeout=True), "check_timeout must be finite and positive"),
], ids=["horizon-fraction", "horizon-bool", "horizon-string", "backend-z3", "command-string",
        "command-empty", "timeout-negative", "timeout-zero", "timeout-nan", "timeout-inf",
        "timeout-bool"])
def test_a_config_that_cannot_run_fails_when_made(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        make()


def test_unreachable_goal_checks_every_horizon():
    model, b_init, objective = absorbing_trap_model()
    result = run(model, b_init, objective, 3)
    assert result.verdict == VERDICT_NO_POLICY
    assert result.stats.solver_calls == 4  # horizons 0..3, all unsat
    assert all(kind == "unsat" for (_, _, kind) in result.stats.check_trace)
    assert result.stats.final_horizon == 3


def test_deterministic_observation_policy_is_a_chain():
    model, b_init, objective = chain_model()
    result = run(model, b_init, objective, 4)
    assert result.verdict == VERDICT_VALID
    node, depth = result.policy, 0
    while not node.is_leaf():
        assert len(node.children) == 1
        node, depth = next(iter(node.children.values())), depth + 1
    assert depth == 2 and node.goal_reached


# --------------------------------------------------------------------------
# Horizon growth and blocking scope
# --------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["enum", "smtlib"])
def test_blocked_first_action_succeeds_after_horizon_pop(backend):
    model, b_init, objective = delayed_goal_model()
    short = run(model, b_init, objective, 1, backend=backend)
    assert short.verdict == VERDICT_NO_POLICY
    assert [(e.horizon, e.actions) for e in short.stats.blocking_events] == [(1, (0,))]

    longer = run(model, b_init, objective, 2, backend=backend)
    assert longer.verdict == VERDICT_VALID
    assert model.actions[longer.policy.action] == "try_now"
    # the same prefix was blocked at horizon 1 and revisited after the pop
    assert (1, (0,)) in [(e.horizon, e.actions) for e in longer.stats.blocking_events]
    assert longer.stats.final_horizon == 2
    # independent confirmation that the budget is what changed
    assert not brute_force_feasible(model, objective, b_init, 1)
    assert brute_force_feasible(model, objective, b_init, 2)


def test_blocks_are_not_reproposed_within_a_horizon(pickup):
    model, b_init, objective = pickup
    result = run(model, b_init, objective, 3)
    events = [(e.horizon, e.start_belief.probs, e.actions, e.observations)
              for e in result.stats.blocking_events]
    assert len(events) == len(set(events))


def test_each_block_is_carried_by_the_lemma_learned_with_it(monkeypatch):
    """For every block ``policy_generation`` returns on the golden enum runs
    (200 random problems and four kitchens), the lemma it appended last is
    the blocked prefix's last pair, at budget ``bound - i + 1``, the steps
    left there; no belief of the prefix before step ``i`` is a goal, so the
    lemma binds that prefix.  No block is sent to a solver, so this is what
    keeps ``bps`` from proposing the candidate again at this horizon.  At the
    end of each run, ``run.dead``, which the enum search reads, is exactly
    the largest budget per pair of ``run.dead_actions``."""
    import golden

    generate, blocks, runs = synthesis.policy_generation, [], {}

    def checked(run, plan, bound, session_factory):
        runs[id(run)] = run
        tree, blocking = generate(run, plan, bound, session_factory)
        if blocking is not None:
            i = blocking.fail_step
            j = i - 1 - plan.start_step
            lemma = run.dead_actions[-1]
            assert (lemma.belief, lemma.action, lemma.budget) \
                == (plan.beliefs[j], plan.actions[j], bound - i + 1), blocking
            assert not any(run.classify(belief)[1] for belief in plan.beliefs[:j + 1])
            blocks.append(blocking)
        return tree, blocking

    monkeypatch.setattr(synthesis, "policy_generation", checked)
    for group in ("enum-random", "enum-kitchen"):
        for name, thunk in golden.runs(group):
            runs.clear()
            assert thunk().verdict != "error", name
            for run in runs.values():
                dead: dict = {}
                for lemma in run.dead_actions:
                    budgets = dead.setdefault(lemma.belief, {})
                    budgets[lemma.action] = max(lemma.budget, budgets.get(lemma.action, -1))
                assert run.dead == dead, name
    assert len(blocks) >= 50 and any(bl.fail_step > bl.plan.start_step + 1 for bl in blocks)


# --------------------------------------------------------------------------
# policy_generation in isolation
# --------------------------------------------------------------------------

def test_policy_generation_reports_failing_branch(pickup):
    model, b_init, objective = pickup
    run = RunContext(model, objective)
    factory = lambda: EnumerativeSession(run)
    from safereach.core import CandidatePlan

    left, pos = 0, 0
    plan = CandidatePlan(
        0, (b_init, belief_update(b_init, left, pos, model)), (left,), (pos,))
    tree, blocking = policy_generation(run, plan, 1, factory)
    assert tree is None
    assert blocking == encoding.blocking_constraint(plan, 1)


def test_zero_probability_branches_are_skipped_and_counted(pickup):
    model, b_init, objective = chain_model()
    # add an unreachable observation so steps have zero-probability branches
    model = Pomdp(
        model.states, model.actions, ("tick", "never"),
        transition=model.transition,
        observe={k: dict(v) for k, v in model.observe.items()})
    result = run(model, b_init, objective, 3)
    assert result.verdict == VERDICT_VALID
    assert result.stats.zero_probability_skips == 2  # two walked steps, one each
    # Every impossible observation of each walked step counts, the steps
    # where a branch fails included, whatever the failing observation's index.
    assert run(*pickup, 3).stats.zero_probability_skips == 2
    assert run(*kitchen_3x2_det(), 6).stats.zero_probability_skips == 33


# --------------------------------------------------------------------------
# Memoization, term-free enum runs and equivalence with the brute-force oracle
# --------------------------------------------------------------------------

def kitchen_3x2_det():
    return build_kitchen(3, 2, [(1, 0), (1, 1)], (2, 0), (0, 0), obstacles=1,
                         p_fail=0, p_fp=0, p_fn=0)


def test_memoized_synthesis_reuses_branch_results():
    # Each (belief, budget) pair is synthesized once per run, and each
    # learned fact prunes later searches; without reuse this instance takes
    # 83 checks and 30 plans, and with the memo alone 43 and 22.
    model, b_init, objective = kitchen_3x2_det()
    result = run(model, b_init, objective, 6)
    assert result.verdict == VERDICT_VALID
    assert (result.stats.solver_calls, result.stats.plans_checked) == (29, 8)
    assert validate_policy(result.policy, model, objective, 6).valid


def test_each_belief_is_pushed_forward_once(monkeypatch):
    # Policy generation makes one run-context lookup per plan step it walks;
    # the validator makes one kernel call per internal node it checks, with
    # its own kernel and never through the run's cache.
    lookups = kernel_calls = walked = 0
    validating = False
    lookup, kernel = RunContext.successors, Pomdp.successors

    def counting_lookup(self, belief, action):
        nonlocal lookups
        assert not validating, "the validator read the run's successor cache"
        lookups += sys._getframe(1).f_code is generate.__code__
        return lookup(self, belief, action)

    def counting_kernel(self, belief, action):
        nonlocal kernel_calls
        kernel_calls += validating
        return kernel(self, belief, action)

    def walking(run_context, plan, *rest):
        nonlocal walked
        tree, failure = generate(run_context, plan, *rest)
        last = plan.start_step if failure is None else failure.fail_step - 1
        walked += plan.end_step - last
        return tree, failure

    def validating_policy(*args):
        nonlocal validating
        validating = True
        try:
            return check(*args)
        finally:
            validating = False

    generate, check = synthesis.policy_generation, validate.validate_policy
    monkeypatch.setattr(RunContext, "successors", counting_lookup)
    monkeypatch.setattr(Pomdp, "successors", counting_kernel)
    monkeypatch.setattr(synthesis, "policy_generation", walking)
    monkeypatch.setattr(validate, "validate_policy", validating_policy)
    model, b_init, objective = kitchen_3x2_det()
    result = run(model, b_init, objective, 6)
    assert result.verdict == VERDICT_VALID

    def internal_nodes(node):
        return (not node.is_leaf()) + sum(map(internal_nodes, node.children.values()))

    assert lookups == walked > 0
    assert kernel_calls == internal_nodes(result.policy) > 0


def test_caches_live_and_die_with_one_run(monkeypatch):
    # Back-to-back runs on one model object each start cold: the same
    # number of run-cache misses, the kernel calls made on a lookup, and
    # far fewer misses than lookups.  Only those kernel calls are counted:
    # the model keeps what else it computed, its columns and support graph.
    counts, looking = [], []
    lookup, kernel = RunContext.successors, Pomdp._split

    def counting_lookup(self, belief, action):
        counts[-1][0] += 1
        looking.append(True)
        try:
            return lookup(self, belief, action)
        finally:
            looking.pop()

    def counting_kernel(self, belief, action):
        counts[-1][1] += bool(looking)
        return kernel(self, belief, action)

    monkeypatch.setattr(RunContext, "successors", counting_lookup)
    monkeypatch.setattr(Pomdp, "_split", counting_kernel)
    model, b_init, objective = kitchen_3x2_det()
    for _ in range(2):
        counts.append([0, 0])
        assert run(model, b_init, objective, 6).verdict == VERDICT_VALID
    (lookups, misses), (_, again) = counts
    assert misses == again > 0
    assert lookups > 2 * misses


def test_each_action_is_compiled_once_per_model(monkeypatch):
    # The model keeps its compiled columns: runs, the validator and the
    # public belief update all share them, so each transition row is read
    # once, when its action is first used.
    model, b_init, objective = kitchen_3x2_det()
    reads = {}
    trans_dist = Pomdp.trans_dist

    def counting(self, s, a):
        reads[(s, a)] = reads.get((s, a), 0) + 1
        return trans_dist(self, s, a)

    monkeypatch.setattr(Pomdp, "trans_dist", counting)
    for _ in range(2):
        result = run(model, b_init, objective, 6)
        assert result.verdict == VERDICT_VALID
    assert validate_policy(result.policy, model, objective, 6).valid
    for i in range(100):
        belief_update(b_init, i % len(model.actions), 0, model)
    assert len(reads) == len(model.states) * len(model.actions)
    assert max(reads.values()) == 1


# The deterministic kitchen ladder: (width, height, shadow, storage, obstacles),
# horizon, and the verdict brute_force_feasible gives (the two larger rungs
# take it 7 s and 20 s, so their verdicts are written down here).
KITCHEN_LADDER = (
    ((3, 2, [(1, 0), (1, 1)], (2, 0), 1), 6, None),
    ((3, 3, [(1, 0), (1, 1), (1, 2)], (2, 0), 1), 7, True),
    ((4, 3, [(1, 0), (1, 1), (2, 1), (2, 2)], (3, 0), 2), 5, False),
)


def det_kitchen(width, height, shadow, storage, obstacles):
    return build_kitchen(width, height, shadow, storage, (0, 0), obstacles=obstacles,
                         p_fail=0, p_fp=0, p_fn=0)


def enum_bps(model, b_init, objective, horizon):
    """``bps`` alone on the enum backend, with no validation: its policy
    and the run whose caches it filled."""
    context = RunContext(model, objective)
    policy = synthesis.bps(context, b_init, 0, horizon, lambda: EnumerativeSession(context))
    return policy, context


def test_the_run_cache_classes_every_posterior_as_the_objective_does():
    problems = [random_instance(random.Random(seed)) for seed in range(50)]
    problems += [(*det_kitchen(*geometry), horizon) for geometry, horizon, _ in KITCHEN_LADDER]
    feasible = [None] * 50 + [verdict for _, _, verdict in KITCHEN_LADDER]
    for i, (model, b_init, objective, horizon) in enumerate(problems):
        policy, context = enum_bps(model, b_init, objective, horizon)
        if feasible[i] is None:
            feasible[i] = brute_force_feasible(model, objective, b_init, horizon)
        assert (policy is not None) == feasible[i], f"problem {i}"
        assert context.classes
        for belief, (own, is_goal, is_safe) in context.classes.items():
            assert own is belief
            assert (is_goal, is_safe) == (objective.is_goal(belief), objective.is_safe(belief)), \
                f"problem {i}"
        for entry in context._successors.values():
            for _, posterior, *cls in entry:  # the run's one copy, and its class
                assert context.classes[posterior] == (posterior, *cls)
                assert context.classes[posterior][0] is posterior


@pytest.mark.parametrize("rung", [0, 2], ids=["3x2-det-h6", "4x3-M2-det-h5"])
def test_no_belief_is_classified_twice_in_a_run(rung, monkeypatch):
    # The work counter: every predicate is evaluated once per distinct
    # belief the search meets, however often it meets it.
    geometry, horizon, verdict = KITCHEN_LADDER[rung]
    model, b_init, objective = det_kitchen(*geometry)
    seen = []
    holds = LinearBeliefPredicate.holds

    def counting(self, belief):
        seen.append(belief)
        return holds(self, belief)

    monkeypatch.setattr(LinearBeliefPredicate, "holds", counting)
    policy, context = enum_bps(model, b_init, objective, horizon)
    assert (policy is not None) == (verdict is not False)
    distinct = set(seen)
    assert len(distinct) == len(context.classes) > 0
    assert len(seen) == len(objective.goal + objective.safe) * len(distinct)


# Work pins on fresh models: checks, plans, blocks, supports built
# (``model._supports``) and session adds.  A change that moves one names the
# old and the new value.
FRESH_WORK = [
    (*KITCHEN_LADDER[0][:2], (29, 8, 4, 15, 50)),
    (*KITCHEN_LADDER[1][:2], (32, 10, 5, 23, 54)),
    (*KITCHEN_LADDER[2][:2], (15, 3, 2, 8, 26)),
    ((5, 3, [(x, y) for x in (1, 2, 3) for y in range(3)], (4, 0), 1), 10,
     (1009, 400, 303, 792, 1412)),
]


@pytest.mark.parametrize("geometry, horizon, work", FRESH_WORK,
                         ids=["3x2-det-h6", "3x3-det-h7", "4x3-M2-det-h5", "5x3-det-h10"])
def test_the_work_of_a_run_on_a_fresh_model(geometry, horizon, work, monkeypatch):
    adds = []
    add = SolverSession.add

    def counting(session, constraint):
        adds.append(constraint)
        add(session, constraint)

    monkeypatch.setattr(SolverSession, "add", counting)
    model, b_init, objective = det_kitchen(*geometry)
    stats = run(model, b_init, objective, horizon).stats
    assert (stats.solver_calls, stats.plans_checked, len(stats.blocking_events),
            len(model._supports), len(adds)) == work


def test_pickup_learns_its_dead_pair_at_the_budget_it_failed_with(pickup):
    """At horizon 1, ``pick_left``'s ``o_neg`` branch has no policy within 0
    steps: the pair dies at budget 1, the steps left at the start belief, and
    the branch is refuted at 0."""
    model, b_init, objective = pickup
    policy, context = enum_bps(model, b_init, objective, 3)
    assert policy is not None
    pick_left, o_neg = model.action_index("pick_left"), model.observations.index("o_neg")
    (branch,) = [b for o, b, *_ in context.successors(b_init, pick_left) if o == o_neg]
    assert context.dead_actions == [encoding.DeadAction(b_init, pick_left, 1, o_neg)]
    assert context.refuted == {branch: 0}


def test_kitchen_learns_each_dead_pair_at_the_budget_it_failed_with():
    """Each pair dies at the steps left at its belief before the failing
    step.  The second ``look_east`` pair's branch has a policy with one step
    more than the lemma leaves it, so that lemma one budget higher is false."""
    model, b_init, objective = kitchen_3x2_det()
    policy, context = enum_bps(model, b_init, objective, 6)
    assert policy is not None
    assert [(model.actions[lemma.action], lemma.budget) for lemma in context.dead_actions] \
        == [("pick_left", 1), ("look_east", 4), ("look_east", 5), ("pick_left", 1)]
    assert sorted(context.refuted.values()) == [0, 0, 4]
    tight = context.dead_actions[2]
    branches = {o: b for o, b, *_ in context.successors(tight.belief, tight.action)}
    witness = branches[tight.witness_observation]
    assert not brute_force_feasible(model, objective, witness, 4)
    assert brute_force_feasible(model, objective, witness, 5)


def test_every_learned_fact_holds_by_the_oracle(pickup):
    """Each dead pair's witness branch has no policy within one step less
    than the pair's budget, and each refuted belief none within its budget.
    A delayed-goal and a kitchen lemma are tight, so a fact recorded one
    budget too high fails here."""
    problems = [random_instance(random.Random(seed)) for seed in range(200)]
    problems += [(*pickup, 3), (*delayed_goal_model(), 2), (*kitchen_3x2_det(), 6)]
    lemmas = 0
    for i, (model, b_init, objective, horizon) in enumerate(problems):
        _, context = enum_bps(model, b_init, objective, horizon)
        for lemma in context.dead_actions:
            branches = {o: b for o, b, *_ in context.successors(lemma.belief, lemma.action)}
            witness = branches[lemma.witness_observation]
            assert not brute_force_feasible(model, objective, witness, lemma.budget - 1), \
                f"problem {i}: {lemma}"
        for belief, budget in context.refuted.items():
            assert not brute_force_feasible(model, objective, belief, budget), f"problem {i}"
        lemmas += len(context.dead_actions)
    assert lemmas >= 50


def test_mismatched_problem_is_a_named_error(pickup):
    model, b_init, objective = pickup
    n = len(model.states)
    config = SynthesisConfig(horizon=2)
    for wrong in (Belief.point(0, n - 1), Belief.point(0, n + 1)):
        with pytest.raises(ModelError, match=f"initial belief has {len(wrong)} entries"):
            synthesis_run(model, wrong, objective, config)
    stray = LinearBeliefPredicate(frozenset({99}), "<", F(1, 2))
    for bad in (SafeReachObjective(objective.goal, (stray,)),
                SafeReachObjective((stray,), objective.safe)):
        with pytest.raises(ModelError, match="state.*99"):
            synthesis_run(model, b_init, bad, config)


def test_enum_backend_never_builds_a_term(pickup, monkeypatch):
    def no_terms(*args, **kwargs):
        raise AssertionError("the enum backend wrote SMT-LIB or named an SMT variable")

    originals = [smtlib.lower, smtlib.serialize] + [getattr(encoding, name) for name in (
        "step_vars", "belief_var_name", "action_var_name", "observation_var_name",
        "unnorm_var_name", "denom_var_name")]
    for module in [m for name, m in sys.modules.items() if name.startswith("safereach")]:
        for name, value in list(vars(module).items()):  # every module's binding
            if any(value is original for original in originals):
                monkeypatch.setattr(module, name, no_terms)
    for (model, b_init, objective), horizon in ((pickup, 3), (kitchen_3x2_det(), 6)):
        assert run(model, b_init, objective, horizon).verdict == VERDICT_VALID


@pytest.mark.parametrize("seed", range(40))
def test_synthesis_matches_feasibility_oracle(seed):
    model, b_init, objective, horizon = random_instance(random.Random(seed))
    result = run(model, b_init, objective, horizon)
    feasible = brute_force_feasible(model, objective, b_init, horizon)
    assert (result.verdict == VERDICT_VALID) == feasible
    if result.policy is not None:
        assert validate_policy(result.policy, model, objective, horizon).valid


@pytest.mark.parametrize("backend", ["enum", "smtlib"])
def test_relabelling_the_states_changes_no_run(backend, spawned, reached):
    """Metamorphic: a problem with its states renamed is the same problem, so
    synthesis gives the same verdict, check trace and solver spawns, and the
    same policy up to the renaming.  An smtlib run spawns a solver exactly
    when some check is not answered by the support game."""
    for seed in range(20):
        rng = random.Random(seed)
        model, b_init, objective, horizon = random_instance(rng)
        perm = list(range(len(model.states)))
        rng.shuffle(perm)
        runs = []
        for problem in ((model, b_init, objective), relabel_states(model, b_init, objective,
                                                                  perm)):
            spawned.clear()
            reached.clear()
            runs.append((run(*problem, horizon, backend=backend), len(spawned)))
        (plain, plain_spawns), (relabelled, relabelled_spawns) = runs
        assert relabelled.verdict == plain.verdict, f"seed {seed}"
        assert relabelled.stats.check_trace == plain.stats.check_trace, f"seed {seed}"
        assert relabelled.policy == (None if plain.policy is None
                                     else relabel_policy(plain.policy, perm)), f"seed {seed}"
        assert relabelled_spawns == plain_spawns, f"seed {seed}"
        assert (relabelled_spawns > 0) == (backend == "smtlib" and any(reached)), f"seed {seed}"


# Metamorphic relations on the random suite: enum seeds 0-49, smtlib 0-19.
METAMORPHIC_SEEDS = [pytest.param("enum", range(50), id="enum"),
                     pytest.param("smtlib", range(20), id="smtlib")]


def rotation(size: int) -> list[int]:
    """A permutation that moves every index when there are two or more."""
    return [(i + 1) % size for i in range(size)]


@pytest.mark.parametrize("relabel, names", [(relabel_actions, "actions"),
                                            (relabel_observations, "observations")],
                         ids=["actions", "observations"])
@pytest.mark.parametrize("backend, seeds", METAMORPHIC_SEEDS)
def test_permuting_the_indices_keeps_the_verdict(backend, seeds, relabel, names):
    """Renaming the actions, or the observations, may change the search
    order and so the policy found, but not whether one exists."""
    for seed in seeds:
        model, b_init, objective, horizon = random_instance(random.Random(seed))
        plain = run(model, b_init, objective, horizon, backend=backend)
        moved = relabel(model, rotation(len(getattr(model, names))))
        assert run(moved, b_init, objective, horizon, backend=backend).verdict \
            == plain.verdict, f"seed {seed}"


@pytest.mark.parametrize("backend, seeds", METAMORPHIC_SEEDS)
def test_an_unreachable_state_changes_no_run(backend, seeds):
    """A state no belief can hold changes neither the verdict nor the check
    trace, and the policy only by that state's zero entry; the kitchen has
    action masks, which the padding state must extend."""
    problems = [(f"seed {seed}", random_instance(random.Random(seed))) for seed in seeds]
    problems.append(("kitchen 2x2 det", (*build_kitchen(2, 2, [(0, 1), (1, 1)], (1, 0), (0, 0),
                                                       obstacles=1, p_fail=0, p_fp=0, p_fn=0),
                                         4)))
    for name, (model, b_init, objective, horizon) in problems:
        plain = run(model, b_init, objective, horizon, backend=backend)
        padded = run(*pad_with_unreachable_state(model, b_init, objective), horizon,
                     backend=backend)
        assert padded.verdict == plain.verdict, name
        assert padded.stats.check_trace == plain.stats.check_trace, name
        assert (None if padded.policy is None else drop_last_state(padded.policy)) \
            == plain.policy, name


def test_solver_unknown_is_an_error_verdict(pickup):
    import sys

    from safereach.solver import SolverConfig

    model, b_init, objective = pickup
    config = SynthesisConfig(
        horizon=2, backend="smtlib",
        solver=SolverConfig(
            command=(sys.executable, "-c", "import time; time.sleep(30)"),
            check_timeout=0.2))
    result = synthesis_run(model, b_init, objective, config)
    assert result.verdict == "error"
    assert "unknown" in (result.error or "")


def test_wall_time_and_horizon_counters_populated(pickup):
    model, b_init, objective = pickup
    result = run(model, b_init, objective, 3)
    stats = result.stats
    assert stats.wall_time > 0
    assert stats.per_horizon[0]["checks"] == 1
    assert stats.per_horizon[1]["checks"] >= 2
    assert stats.per_horizon[1]["blocks"] == 1
    buckets = stats.per_horizon.values()
    assert sum(b["checks"] for b in buckets) == stats.solver_calls
    assert sum(b["sat"] for b in buckets) == stats.plans_checked
    assert sum(b["blocks"] for b in buckets) == len(stats.blocking_events)


@pytest.mark.parametrize("backend", ["enum", "smtlib"])
def test_runs_are_deterministic(backend):
    model, b_init, objective = delayed_goal_model()
    first = run(model, b_init, objective, 2, backend=backend)
    second = run(model, b_init, objective, 2, backend=backend)
    assert first.policy == second.policy
    assert first.stats.check_trace == second.stats.check_trace
    assert first.stats.blocking_events == second.stats.blocking_events
    assert (first.stats.solver_calls, first.stats.plans_checked) \
        == (second.stats.solver_calls, second.stats.plans_checked)
