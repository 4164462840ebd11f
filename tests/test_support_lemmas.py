"""The support abstraction, the clause the smtlib backend asserts with each
goal from it (``smtlib._winnable``), the smtlib checks it answers with no
solver call, and the enumerative search's prune.

``RunContext.wins`` judges a belief by its support alone, so it must never
refute a belief from which the objective can be met; and the clause, being
implied by the goal, and the checks refuted at the root must leave every
smtlib check's verdict and model as they are, as the prune must every enum
check's.  A classifier that misreads
a mixed support must break both.  The table ``wins`` keeps per support must
answer as a plain recursion over the support graph does.
"""

from __future__ import annotations

import itertools
import operator
import random
from fractions import Fraction

import pytest

from safereach import core
from safereach.core import RunContext
from safereach.domains import kitchen_rung
from safereach.solver import EnumerativeSession, Sat, SmtLibSession, SolverConfig, Unsat
from safereach.synthesis import SynthesisConfig, synthesis_run

from oracles import brute_force_feasible, dense_matrix_update, random_instance

SEEDS = range(200)


def random_problems():
    for seed in SEEDS:
        model, b_init, objective, horizon = random_instance(random.Random(seed))
        yield f"seed {seed}", (model, b_init, objective), horizon


def kitchen_problems():
    """Kitchen rungs whose checks stay cheap without the lemma."""
    for rung, horizon in (("2x2-M1-det", 4), ("2x2-M1-noisy", 3), ("3x2-M1-det", 3)):
        yield f"{rung} h{horizon}", kitchen_rung(rung), horizon


def enum_rungs():
    """Kitchen rungs the enum search prunes, each cheap without the prune."""
    for rung, horizon in (("2x2-M1-det", 4), ("3x2-M1-det", 6), ("3x2-M1-noisy", 6),
                          ("3x3-M1-det", 7), ("4x3-M2-det", 5)):
        yield f"{rung} h{horizon}", kitchen_rung(rung), horizon


def smtlib_checks(monkeypatch, problem, horizon, lemma, incremental=True):
    """The smtlib run's result and every check's outcome, in order, with the
    support game on, or with ``RunContext.wins`` answering True throughout:
    then no check is answered at the root and the clause is ``true``."""
    outcomes = []
    check = SmtLibSession.check

    def recording(session):
        outcomes.append(check(session))
        return outcomes[-1]

    with monkeypatch.context() as patch:
        patch.setattr(SmtLibSession, "check", recording)
        if not lemma:
            patch.setattr(RunContext, "wins", lambda run, support, steps: True)
        solver = SolverConfig(incremental=incremental)
        result = synthesis_run(*problem, SynthesisConfig(horizon, "smtlib", solver))
    return result, outcomes


def test_every_check_answers_the_same_with_the_lemma(monkeypatch):
    """With the support game on, as with a bare solver, incrementally and from scratch."""
    for (label, problem, horizon), incremental in itertools.product(
            [*random_problems(), *kitchen_problems()], (True, False)):
        with_lemma = smtlib_checks(monkeypatch, problem, horizon, True, incremental)
        without = smtlib_checks(monkeypatch, problem, horizon, False, incremental)
        assert with_lemma[1] == without[1], (label, incremental)
        assert with_lemma[0].verdict == without[0].verdict, (label, incremental)
        assert with_lemma[0].policy == without[0].policy, (label, incremental)


class Posteriors(dict):
    """Belief -> every posterior of it, by the dense oracle, each computed once."""

    def __init__(self, model):
        super().__init__()
        self.model = model

    def __missing__(self, belief):
        model = self.model
        self[belief] = [child for a in range(len(model.actions))
                        if all(a in model.allowed_actions(s) for s in belief.support())
                        for o in range(len(model.observations))
                        if (child := dense_matrix_update(belief, a, o, model)) is not None]
        return self[belief]


def reachable(posteriors, b_init, horizon):
    """Each belief reachable from ``b_init``, with the most steps left after it."""
    left, layer = {b_init: horizon}, {b_init}
    for steps in range(horizon - 1, -1, -1):
        layer = {child for belief in layer for child in posteriors[belief]}
        for belief in layer:
            left.setdefault(belief, steps)
    return left


def path_exists(posteriors, objective, belief, steps, memo):
    """Does some path of at most ``steps`` steps meet the objective from the belief?"""
    key = (belief, steps)
    if key not in memo:
        memo[key] = objective.is_goal(belief) or (
            steps > 0 and objective.is_safe(belief) and any(
                path_exists(posteriors, objective, child, steps - 1, memo)
                for child in posteriors[belief]))
    return memo[key]


def test_wins_never_refutes_a_belief_the_oracles_solve():
    """No start belief is refuted at a budget with a policy from it, and no
    reachable belief at one with a satisfying path from it, which every
    policy has and which is all the support game keeps of the objective."""
    solved = 0
    problems = [(*case, True) for case in random_problems()]
    problems += [(*case, False) for case in kitchen_problems()]
    for label, (model, b_init, objective), horizon, every_belief in problems:
        posteriors = Posteriors(model)
        beliefs = reachable(posteriors, b_init, horizon) if every_belief else {}
        run, policies, paths = RunContext(model, objective), {}, {}
        for steps in range(horizon + 1):
            if brute_force_feasible(model, objective, b_init, steps, policies):
                assert run.wins(b_init.indices, steps), (label, steps)
        for belief, left in beliefs.items():
            for steps in range(left + 1):
                if path_exists(posteriors, objective, belief, steps, paths):
                    assert run.wins(belief.indices, steps), (label, belief, steps)
                    solved += 1
    assert solved > 1000


def test_a_mixed_support_read_as_mass_zero_gives_a_wrong_unsat(monkeypatch):
    """Mutation: with the classifier reading every mixed support as mass 0,
    the lemma rules out a goal some seed can reach, so the first check that
    moves answers ``unsat`` where it has a model without the lemma."""
    classify = core.mass_class
    monkeypatch.setattr(core, "mass_class", lambda support, states:
                        classify(support, states) % 2)
    for label, problem, horizon in random_problems():
        _, with_lemma = smtlib_checks(monkeypatch, problem, horizon, lemma=True)
        _, without = smtlib_checks(monkeypatch, problem, horizon, lemma=False)
        moved = [(a, b) for a, b in zip(with_lemma, without) if a != b][:1]
        if moved and isinstance(moved[0][0], Unsat) and isinstance(moved[0][1], Sat):
            return
    pytest.fail("no seed noticed a mixed support read as mass 0")


def enum_checks(monkeypatch, problem, horizon, prune):
    """The enum run's result and every check's outcome, in order, with the
    support prune on or with ``RunContext.wins`` answering True throughout."""
    outcomes = []
    check = EnumerativeSession.check

    def recording(session):
        outcomes.append(check(session))
        return outcomes[-1]

    with monkeypatch.context() as patch:
        patch.setattr(EnumerativeSession, "check", recording)
        if not prune:
            patch.setattr(RunContext, "wins", lambda run, support, steps: True)
        result = synthesis_run(*problem, SynthesisConfig(horizon=horizon))
    return result, outcomes


def test_every_enum_check_answers_the_same_with_the_prune(monkeypatch):
    for label, problem, horizon in [*random_problems(), *enum_rungs()]:
        pruned = enum_checks(monkeypatch, problem, horizon, prune=True)
        unpruned = enum_checks(monkeypatch, problem, horizon, prune=False)
        assert pruned[1] == unpruned[1], label
        assert pruned[0].verdict == unpruned[0].verdict, label
        assert pruned[0].policy == unpruned[0].policy, label


def test_a_mixed_support_read_as_mass_zero_prunes_a_plan(monkeypatch):
    """Mutation: with the classifier reading every mixed support as mass 0,
    the prune cuts a satisfying path some seed has, so the first enum check
    that moves answers ``unsat`` where the unpruned search finds a plan."""
    classify = core.mass_class
    monkeypatch.setattr(core, "mass_class", lambda support, states:
                        classify(support, states) % 2)
    for label, problem, horizon in random_problems():
        _, pruned = enum_checks(monkeypatch, problem, horizon, prune=True)
        _, unpruned = enum_checks(monkeypatch, problem, horizon, prune=False)
        moved = [(a, b) for a, b in zip(pruned, unpruned) if a != b][:1]
        if moved and isinstance(moved[0][0], Unsat) and isinstance(moved[0][1], Sat):
            return
    pytest.fail("no seed noticed a mixed support read as mass 0")


def test_noisy_3x2_h8_is_refuted_without_a_belief_update(monkeypatch):
    """Work pin: each of the 9 checks finds the start belief's support
    hopeless, so the run never asks for a posterior (278,984 lookups of
    ``RunContext.successors`` without the prune)."""
    lookups = []
    successors = RunContext.successors

    def counting(run, belief, action):
        lookups.append((belief, action))
        return successors(run, belief, action)

    monkeypatch.setattr(RunContext, "successors", counting)
    problem = kitchen_rung("3x2-M1-noisy")
    result = synthesis_run(*problem, SynthesisConfig(horizon=8))
    assert result.verdict == "no-policy-within-bound"
    assert result.stats.solver_calls == 9
    assert len(lookups) == 0


_HOLDS = {">": operator.gt, "<": operator.lt, ">=": operator.ge, "<=": operator.le}


def can_hold(pred, support):
    """Can the predicate hold at some belief with this support?  Its state
    set's mass there is 0, 1 or anything strictly between, so it is tried
    at 0, at 1, or at t/2 and (1 + t)/2, whichever of those lie inside."""
    inside = sum(1 for s in support if s in pred.state_set)
    t = pred.threshold
    masses = ([Fraction(0)] if not inside else [Fraction(1)] if inside == len(support)
              else [m for m in (t / 2, (1 + t) / 2) if 0 < m < 1])
    return any(_HOLDS[pred.comparator](m, t) for m in masses)


def graph_successors(model, support):
    """Each posterior support, read off the model's rows: the successors of
    the support under each action every support state allows, split by the
    observations possible at them."""
    out = set()
    for a in range(len(model.actions)):
        if all(a in model.allowed_actions(s) for s in support):
            pushed = {s2 for s in support for s2, p in model.trans_dist(s, a).items() if p}
            for o in range(len(model.observations)):
                post = tuple(sorted(s2 for s2 in pushed if model.obs_dist(s2, a).get(o)))
                if post:
                    out.add(post)
    return out


def reference_wins(model, objective, support, steps, memo):
    key = (support, steps)
    if key not in memo:
        memo[key] = all(can_hold(p, support) for p in objective.goal) or (
            steps > 0 and all(can_hold(p, support) for p in objective.safe) and any(
                reference_wins(model, objective, s2, steps - 1, memo)
                for s2 in graph_successors(model, support)))
    return memo[key]


def test_the_wins_table_answers_as_the_plain_recursion():
    """Every support reachable within the horizon, at every budget up to it,
    asked in a shuffled order so the table's bounds are met from both sides."""
    asked = 0
    for label, (model, b_init, objective), horizon in [*random_problems(), *enum_rungs()]:
        reachable, layer = {b_init.indices}, {b_init.indices}
        for _ in range(horizon):
            layer = {s2 for s in layer for s2 in graph_successors(model, s)} - reachable
            reachable |= layer
        queries = sorted((s, k) for s in reachable for k in range(horizon + 1))
        random.Random(label).shuffle(queries)
        run, memo = RunContext(model, objective), {}
        for support, steps in queries:
            assert run.wins(support, steps) == reference_wins(
                model, objective, support, steps, memo), (label, support, steps)
        asked += len(queries)
    assert asked > 5_000


def test_the_distance_bound_never_refutes_a_support_the_plain_recursion_wins():
    """A support's entry starts at the largest budget its distance bound
    refutes (``Pomdp.distances``), and the plain recursion, which reads no
    distance, wins at no budget up to it.  Read with no recursion, by a
    query at budget 0; a support the bound puts out of reach for good is
    checked at twice the horizon and two more.  Over a hundred bounds are
    tight: the recursion wins one step above them."""
    tight = 0
    for label, (model, b_init, objective), horizon in [*random_problems(), *enum_rungs()]:
        reachable, layer = {b_init.indices}, {b_init.indices}
        for _ in range(horizon):
            layer = {s2 for s in layer for s2 in graph_successors(model, s)} - reachable
            reachable |= layer
        run, memo = RunContext(model, objective), {}
        for support in sorted(reachable):
            run.wins(support, 0)
            budget = min(run._wins[support][0], 2 * horizon + 2)
            if budget > 0:
                assert not reference_wins(model, objective, support, budget, memo), (
                    label, support, budget)
                tight += reference_wins(model, objective, support, budget + 1, memo)
    assert tight > 100
