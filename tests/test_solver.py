from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import shlex
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F
from pathlib import Path
from typing import get_args

import pytest

from safereach import build_pickup_example, cli, refsolver
from safereach import encoding as enc
from safereach.core import (Belief, CandidatePlan, LinearBeliefPredicate, Pomdp, RunContext,
                            SafeReachObjective)
from safereach.domains import kitchen_rung
from safereach.refsolver import render
from safereach.solver import (
    EnumerativeSession,
    PlanDecodeError,
    Sat,
    SmtLibSession,
    SolverConfig,
    SolverError,
    SolverPool,
    SolverUsageError,
    Unknown,
    Unsat,
    enumerative_check,
    extract_plan,
)
from safereach.solver import smtlib
from safereach.solver.smtlib import HEADER, ModelValueError, lower, parse_model, serialize
from safereach.synthesis import SynthesisConfig, bps, synthesis_run

from oracles import all_plans, enumerate_plans, random_instance, satisfies_bounded, term_vars


def load_session(session, b_init, horizon, goal=False):
    session.add(enc.initial_constraint(0, b_init))
    for i in range(1, horizon + 1):
        session.add(enc.transition_constraint(i - 1, i))
    if goal:
        session.add(enc.goal_constraint(0, horizon))


# --------------------------------------------------------------------------
# Scope semantics
# --------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["enum", "smtlib"])
def test_popped_scope_leaves_no_trace(pickup, backend, pool):
    """A popped transition is gone with its scope; a lemma the run learns
    is no constraint of a scope, and binds in every later goal scope."""
    model, b_init, objective = pickup
    run = RunContext(model, objective)
    session = EnumerativeSession(run) if backend == "enum" else SmtLibSession(run, pool)
    with session:
        session.add(enc.initial_constraint(0, b_init))
        session.push()
        session.add(enc.transition_constraint(0, 1))
        session.add(enc.goal_constraint(0, 1))
        plan = session.check().plan
        run.learn(enc.DeadAction(b_init, plan.actions[0], 1, plan.observations[0]))
        blocked = session.check().plan
        assert blocked.actions[0] != plan.actions[0]
        session.pop()
        session.add(enc.transition_constraint(0, 1))  # step 1 is no longer unfolded
        for _ in range(2):
            session.push()
            session.add(enc.goal_constraint(0, 1))
            assert session.check().plan == blocked
            session.pop()


def test_pop_on_empty_stack_is_usage_error(pickup, pool):
    model, _, objective = pickup
    session = EnumerativeSession(RunContext(model, objective))
    with pytest.raises(SolverUsageError):
        session.pop()
    smt = SmtLibSession(RunContext(model, objective), pool)
    with pytest.raises(SolverUsageError):
        smt.pop()
    smt.close()


def test_transition_outside_scope_persists_across_horizons(pickup):
    # the outer loop relies on transitions surviving goal-scope pops
    model, b_init, objective = pickup
    with EnumerativeSession(RunContext(model, objective)) as session:
        session.add(enc.initial_constraint(0, b_init))
        session.push()
        session.add(enc.goal_constraint(0, 0))
        assert isinstance(session.check(), Unsat)
        session.pop()
        session.add(enc.transition_constraint(0, 1))
        session.push()
        session.add(enc.goal_constraint(0, 1))
        assert isinstance(session.check(), Sat)
        session.pop()


def test_random_scope_sequences_agree_across_backends(pool):
    """Differential: 100 random interleavings of push/assert/check/pop give
    the same verdict and the same plan on both backends.  A lemma, at the
    budget of a block on one step of the last plan, is learned on the run
    both sessions share, goal or no goal: each backend reads it while a goal
    is live, and with none no lemma binds."""
    for seed in range(100):
        rng = random.Random(seed)
        model, b_init, objective, _ = random_instance(rng, max_states=3, max_horizon=2)
        horizon = 2
        run = RunContext(model, objective)
        enum, smt = EnumerativeSession(run), SmtLibSession(run, pool)
        for session in (enum, smt):
            load_session(session, b_init, horizon)
        depth, plan = 0, None
        for _ in range(16):
            op = rng.choice(["push", "pop", "goal", "lemma", "check"])
            if op == "push":
                enum.push(), smt.push()
                depth += 1
            elif op == "pop" and depth:
                enum.pop(), smt.pop()
                depth -= 1
            elif op == "goal" and depth:
                c = enc.goal_constraint(0, horizon)
                enum.add(c), smt.add(c)
            elif op == "lemma" and plan is not None:
                j = rng.randrange(len(plan.actions))
                run.learn(enc.DeadAction(plan.beliefs[j], plan.actions[j], horizon - j,
                                         plan.observations[j]))
            elif op == "check":
                a, b = enum.check(), smt.check()
                assert type(a) is type(b), f"seed {seed}: {a} vs {b}"
                if isinstance(a, Sat):
                    assert a.plan == b.plan, f"seed {seed}"
                    plan = a.plan
        enum.close(), smt.close()


@pytest.fixture
def sent(monkeypatch):
    """Every command sent to a solver endpoint, in order, as ``(endpoint, command)``."""
    commands = []
    send = smtlib._SmtProcess.send

    def recording_send(proc, command):
        commands.append((proc, command))
        send(proc, command)

    monkeypatch.setattr(smtlib._SmtProcess, "send", recording_send)
    return commands


def _live_at_checks(sent):
    """For each check-sat, the text of the declare-const and assert commands
    live on its endpoint, in the order they were sent."""
    stacks, live = {}, []
    for proc, command in sent:
        stack = stacks.setdefault(proc, [[]])
        if command == smtlib.RESET:
            stacks[proc] = [[]]
        elif command == smtlib.PUSH:
            stack.append([])
        elif command == smtlib.POP:
            stack.pop()
        elif command[0] in ("declare-const", "assert"):
            stack[-1].append(render(command))
        elif command == smtlib.CHECK_SAT:
            live.append([entry for frame in stack for entry in frame])
    return live


def _replay(live):
    """The live lines in the order a from-scratch check replays them:
    every declaration first, then every assertion."""
    return sorted(live, key=lambda line: line.startswith("(assert"))


def test_from_scratch_replays_incremental_text(pickup, monkeypatch, spawned, sent, reached):
    """The support game refutes the h0 goal from the initial support, so its
    check reaches no solver and the goal is never lowered; the two h1 checks
    do, and each from-scratch one replays the incremental one's live text."""
    model, b_init, objective = pickup
    lowered = []
    monkeypatch.setattr(smtlib, "lower", lambda constraint, run, *span:
                        lowered.append(constraint) or lower(constraint, run, *span))

    def drive(incremental):
        spawned.clear()
        sent.clear()
        lowered.clear()
        reached.clear()
        config = SolverConfig(incremental=incremental)
        with SolverPool(config) as pool, \
                SmtLibSession(RunContext(model, objective), pool) as session:
            session.add(enc.initial_constraint(0, b_init))
            session.push()
            session.add(enc.goal_constraint(0, 0))
            assert isinstance(session.check(), Unsat)
            session.pop()
            session.add(enc.transition_constraint(0, 1))
            session.push()
            session.add(enc.goal_constraint(0, 1))
            plan = session.check().plan
            session.run.learn(enc.DeadAction(b_init, plan.actions[0], 1, plan.observations[0]))
            assert isinstance(session.check(), Sat)
        assert reached == [False, True, True]
        # Once per constraint or lemma sent, never on replay: the initial
        # belief, the transition, the h1 goal and the lemma.
        assert len(lowered) == 4
        # From scratch, each check replays into the one process, reset.
        assert len(spawned) == 1
        return _live_at_checks(sent)

    incremental = drive(True)
    from_scratch = drive(False)
    assert len(incremental) == sum(reached) == 2
    assert from_scratch == [_replay(live) for live in incremental]


def _whole_runs():
    """``(name, model, b_init, objective, horizon)`` of pickup h3, kitchen
    2x2 det h4 and five random problems."""
    yield "pickup", *build_pickup_example(), 3
    yield "kitchen", *kitchen_rung("2x2-M1-det"), 4
    for seed in range(5):
        yield seed, *random_instance(random.Random(seed))


@pytest.mark.parametrize("problem", ["pickup", "kitchen"])
def test_from_scratch_replays_the_live_incremental_text_over_whole_runs(problem, monkeypatch,
                                                                       sent, reached):
    """Over a whole smtlib run with a blocked candidate and a learned lemma,
    every from-scratch check that reaches the solver replays exactly the text
    live in the incremental session at that check, declarations first; the
    support game answers the rest.  ``bps`` adds only initial beliefs,
    transitions and goals."""
    (_, model, b_init, objective, horizon), = [p for p in _whole_runs() if p[0] == problem]
    added = []
    add = SmtLibSession.add
    monkeypatch.setattr(SmtLibSession, "add", lambda session, constraint:
                        added.append(constraint) or add(session, constraint))

    def live(incremental):
        sent.clear()
        added.clear()
        reached.clear()
        config = SynthesisConfig(horizon, "smtlib", SolverConfig(incremental=incremental))
        result = synthesis_run(model, b_init, objective, config)
        assert result.verdict == "valid"
        assert len(result.stats.blocking_events) == 1
        assert {type(c) for c in added} == {enc.Initial, enc.Transition, enc.Goal}
        checks = _live_at_checks(sent)
        assert len(reached) == result.stats.solver_calls
        assert len(checks) == sum(reached) < len(reached)
        return checks

    incremental = live(True)
    assert live(False) == [_replay(text) for text in incremental]


def test_each_name_is_declared_once_by_the_step_that_introduces_it(sent, reached):
    """In every command stream a whole smtlib run sends, in either mode,
    each name an assertion uses is declared once, on its endpoint's live
    scopes, before the first assertion that names it; the selectors ``a_*``
    and ``o_*``, and only they, are ``Int``, and the chain's flags ``p_*``
    and ``f_*``, and only they, ``Bool``.  A run whose every check the
    support game answers asserts nothing."""
    sorts, silent = set(), 0
    for (name, model, b_init, objective, horizon), incremental \
            in itertools.product(_whole_runs(), (True, False)):
        sent.clear()
        reached.clear()
        config = SynthesisConfig(horizon, "smtlib", SolverConfig(incremental=incremental))
        assert synthesis_run(model, b_init, objective, config).verdict != "error", name
        stacks, asserted = {}, 0
        for proc, command in sent:
            stack = stacks.setdefault(proc, [set()])
            if command == smtlib.RESET:
                stacks[proc] = [set()]
            elif command == smtlib.PUSH:
                stack.append(set())
            elif command == smtlib.POP:
                stack.pop()
            elif command[0] == "declare-const":
                _, var, sort = command
                assert not any(var in frame for frame in stack), (name, command)
                assert (sort == "Int") == var.startswith(("a_", "o_")), (name, command)
                assert (sort == "Bool") == var.startswith(("p_", "f_")), (name, command)
                stack[-1].add(var)
                sorts.add(sort)
            elif command[0] == "assert":
                asserted += 1
                for var in term_vars(command[1], set()):
                    assert any(var in frame for frame in stack), (name, var)
        assert bool(asserted) == any(reached), name
        silent += not asserted
    assert sorts == {"Int", "Real", "Bool"} and silent


@pytest.mark.parametrize("incremental", [True, False], ids=["incremental", "from-scratch"])
def test_a_check_the_support_game_refutes_sends_nothing(pickup, incremental, spawned, reached):
    """Kitchen 3x2 det h3, whose every check the support game refutes at the
    root, takes no endpoint.  In pickup h3 the h0 goal scope is pushed and
    popped before any check reaches the solver, so the first endpoint is
    sent no pop before its first check-sat, and incrementally one push, for
    the h1 goal, after the step-1 transition; from scratch, none."""
    kitchen = kitchen_rung("3x2-M1-det")
    config = SynthesisConfig(3, "smtlib", SolverConfig(incremental=incremental))
    result = synthesis_run(*kitchen, config)
    assert result.verdict == "no-policy-within-bound"
    assert reached == [False] * 4 and result.stats.solver_calls == 4
    assert spawned == []
    reached.clear()
    result = synthesis_run(*pickup, config)
    assert result.verdict == "valid"
    assert reached[:2] == [False, True] and result.stats.check_trace[0] == (0, 0, "unsat")
    lines = spawned[0].lines
    first = lines[:lines.index(render(smtlib.CHECK_SAT))]
    assert render(smtlib.POP) not in first
    pushes = [i for i, line in enumerate(first) if line == render(smtlib.PUSH)]
    assert len(pushes) == incremental
    assert all(first.index("(declare-const a_1 Int)") < i for i in pushes)


MODES = ["enum", "smtlib-inc", "smtlib-scratch"]


@contextlib.contextmanager
def session_in(mode, run):
    """An open session of the mode; an smtlib one on a pool of its own."""
    if mode == "enum":
        with EnumerativeSession(run) as session:
            yield session
        return
    with SolverPool(SolverConfig(incremental=mode == "smtlib-inc")) as pool, \
            SmtLibSession(run, pool) as session:
        yield session


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", ["goal", "block", "lemma", "transition"])
def test_a_constraint_naming_a_step_not_unfolded_is_a_usage_error(pickup, mode, kind):
    """Every mode refuses, when it is added, a constraint over a step that the
    live unfolding (here steps 0..1) does not hold, and keeps going.  A
    block or a lemma, even over steps unfolded, is no constraint: the run
    keeps the lemma, and the lemma implies the block."""
    model, b_init, objective = pickup
    plan = CandidatePlan(0, (b_init, b_init, b_init), (0, 0), (0, 0))
    bad = {"goal": enc.goal_constraint(0, 2),
           "block": enc.blocking_constraint(plan, 1, 2),
           "lemma": enc.DeadAction(b_init, 0, 1, 0),
           "transition": enc.transition_constraint(2, 3)}[kind]
    with session_in(mode, RunContext(model, objective)) as session:
        session.add(enc.initial_constraint(0, b_init))
        session.add(enc.transition_constraint(0, 1))
        session.push()
        if kind in ("block", "lemma"):
            assert get_args(enc.Constraint) == (enc.Initial, enc.Transition, enc.Goal)
            with pytest.raises(SolverUsageError, match="unsupported constraint"):
                session.add(bad)
        else:
            with pytest.raises(SolverUsageError, match="do not fit the unfolded 0..1|not 3"):
                session.add(bad)
        session.add(enc.goal_constraint(0, 1))
        assert isinstance(session.check(), Sat)
        session.pop()


@pytest.mark.parametrize("mode", MODES)
def test_a_goal_that_does_not_start_at_the_unfolding_start_is_a_usage_error(pickup, mode):
    """A goal's span starts at the unfolding's start step in every mode: one
    that starts later is refused when it is added, and the session goes on."""
    model, b_init, objective = pickup
    with session_in(mode, RunContext(model, objective)) as session:
        load_session(session, b_init, 2)
        session.push()
        with pytest.raises(SolverUsageError, match="starts at the unfolding's start step 0, "
                                                   "not 1"):
            session.add(enc.goal_constraint(1, 2))
        session.add(enc.goal_constraint(0, 2))
        assert isinstance(session.check(), Sat)
        session.pop()


@pytest.mark.parametrize("mode", MODES)
def test_every_backend_refuses_a_malformed_goal_scope_when_it_is_added(pickup, mode):
    """A goal spans the whole unfolding, and no step is unfolded under a live
    goal: every mode refuses a goal that ends before the horizon, and a
    transition added after a goal, when it is added, and its next check
    answers as that of a session that never saw them."""
    model, b_init, objective = pickup
    with session_in(mode, RunContext(model, objective)) as session:
        load_session(session, b_init, 2, goal=True)
        expected = session.check()
    assert isinstance(expected, Sat)
    with session_in(mode, RunContext(model, objective)) as session:
        load_session(session, b_init, 2)
        with pytest.raises(SolverUsageError, match="goal constraint must span the whole "
                                                   "unfolding"):
            session.add(enc.goal_constraint(0, 1))
        session.add(enc.goal_constraint(0, 2))
        with pytest.raises(SolverUsageError, match="step 3 is unfolded under a live goal"):
            session.add(enc.transition_constraint(2, 3))
        assert session.check() == expected


@pytest.mark.parametrize("mode", MODES)
def test_a_run_lemma_binds_on_no_backend_while_no_goal_is_live(pickup, mode):
    """Every mode reads the run's lemmas only while a goal is live: lemmas
    that ban every action at the start make the goal scope unsat, and leave
    the unfolding satisfiable before its push and after its pop alike."""
    model, b_init, objective = pickup
    run = RunContext(model, objective)
    for action in range(len(model.actions)):
        run.learn(enc.DeadAction(b_init, action, 1, 0))
    with session_in(mode, run) as session:
        load_session(session, b_init, 1)
        for _ in range(2):
            assert isinstance(session.check(), Sat)
            session.push()
            session.add(enc.goal_constraint(0, 1))
            assert isinstance(session.check(), Unsat)
            session.pop()
        assert isinstance(session.check(), Sat)


def test_a_run_lemma_is_asserted_once_per_goal_scope_before_the_next_check(pickup, sent):
    """A lemma the run learns between two checks is asserted once, before
    the next ``check-sat``, as ``lower`` writes it, and again in each later
    goal scope; from scratch each check replays the text live in the
    incremental session."""
    model, b_init, objective = pickup
    lemmas = [enc.DeadAction(b_init, 0, 1, 1), enc.DeadAction(b_init, 1, 1, 0)]
    texts = {render(("assert", lower(lemma, RunContext(model, objective), (0, 1)))): i
             for i, lemma in enumerate(lemmas)}

    def drive(incremental):
        sent.clear()
        run = RunContext(model, objective)
        verdicts = []
        with SolverPool(SolverConfig(incremental=incremental)) as pool, \
                SmtLibSession(run, pool) as session:
            load_session(session, b_init, 1)
            for scope in range(2):
                session.push()
                session.add(enc.goal_constraint(0, 1))
                for lemma in lemmas:
                    if not scope:
                        run.learn(lemma)
                    verdicts.append(type(session.check()))
                session.pop()
        per_check, since = [], []  # the lemmas asserted before each check-sat
        for _, command in sent:
            if command == smtlib.CHECK_SAT:
                per_check.append(since)
                since = []
            elif command[0] == "assert" and render(command) in texts:
                since.append(texts[render(command)])
        return verdicts, per_check, _live_at_checks(sent)

    verdicts, per_check, incremental = drive(True)
    assert verdicts == [Sat, Unsat, Unsat, Unsat]
    assert per_check == [[0], [1], [0, 1], []]
    assert drive(False) == (verdicts, [[0], [0, 1], [0, 1], [0, 1]],
                            [_replay(live) for live in incremental])


@pytest.mark.parametrize("mode", MODES)
def test_a_pop_shrinks_the_unfolding_constraints_are_checked_against(pickup, mode):
    model, b_init, objective = pickup
    with session_in(mode, RunContext(model, objective)) as session:
        session.add(enc.initial_constraint(0, b_init))
        session.push()
        session.add(enc.transition_constraint(0, 1))
        session.add(enc.goal_constraint(0, 1))
        with pytest.raises(SolverUsageError, match="next step to unfold is 2, not 1"):
            session.add(enc.transition_constraint(0, 1))
        session.pop()
        with pytest.raises(SolverUsageError, match="do not fit the unfolded 0..0"):
            session.add(enc.goal_constraint(0, 1))
        session.add(enc.transition_constraint(0, 1))
        session.push()
        session.add(enc.goal_constraint(0, 1))
        assert isinstance(session.check(), Sat)
        session.pop()


# --------------------------------------------------------------------------
# All-models agreement
# --------------------------------------------------------------------------

def smt_plans(run, unfolding, scopes, horizon, pool):
    """For each scope, a list of constraints, the (actions, observations)
    pairs the SMT-LIB terms of ``unfolding``, each transition's chain
    (``smtlib._chain``) included, admit with that scope pushed: check,
    assert the found pair away inside the scope, check again until
    ``unsat``.  Lemmas are lowered against the whole unfolding."""
    span, n = (0, horizon), len(run.model.states)
    asserts = [("assert", lower(c, run)) for c in unfolding]
    asserts += [("assert", smtlib._chain(c.step, 0, n, run.objective))
                for c in unfolding if isinstance(c, enc.Transition)]
    scoped = [[("assert", lower(c, run, span)) for c in scope] for scope in scopes]
    declarations = [declaration for c in unfolding for declaration in smtlib._declarations(c, n)]
    proc = pool.take()
    for command in [*declarations, *asserts]:
        proc.send(command)
    steps = range(1, horizon + 1)
    found: list[set] = []
    for scope in scoped:
        found.append(set())
        for command in [smtlib.PUSH, *scope]:
            proc.send(command)
        while True:
            deadline = time.monotonic() + 60
            proc.send(smtlib.CHECK_SAT)
            verdict = proc.read(deadline)
            if verdict == "unsat":
                break
            assert verdict == "sat"
            proc.send(smtlib.GET_MODEL)
            values = parse_model(proc.read(deadline))
            plan = (tuple(values[enc.action_var_name(i)] for i in steps),
                    tuple(values[enc.observation_var_name(i)] for i in steps))
            found[-1].add(plan)
            pins = [pin for i, a, o in zip(steps, *plan)
                    for pin in (("=", enc.action_var_name(i), a),
                                ("=", enc.observation_var_name(i), o))]
            proc.send(("assert", ("not", ("and", *pins))))
        proc.send(smtlib.POP)
    pool.give_back(proc)
    return found


def _takes_dead_pair(lemma, horizon, objective, actions, beliefs):
    """Does the path take the lemma's action at its belief, at a step j with
    ``horizon - j <= budget``, before the goal has fired?"""
    for j, (action, belief) in enumerate(zip(actions, beliefs)):
        if satisfies_bounded(beliefs[:j + 1], objective):
            return False
        if (belief, action) == (lemma.belief, lemma.action) and horizon - j <= lemma.budget:
            return True
    return False


def _agreement_problems():
    """(name, model, initial belief, objective, horizon, step of the lemma's action)."""
    for seed in range(50):
        model, b_init, objective, _ = random_instance(random.Random(seed))
        for horizon in (1, 2):
            yield seed, model, b_init, objective, horizon, 1 + seed % horizon
    yield "pickup", *build_pickup_example(), 3, 2


def test_smt_unfolding_admits_exactly_the_oracle_plans(pool):
    """Every plan the SMT-LIB unfolding admits, alone and with one dead-pair
    lemma, is a plan of the dense oracle that the lemma allows, and the
    other way round; the enum backend answers with the smallest of them.
    The lemma sits on one step of the smallest plan, with a budget that
    leaves that step one short of eligible, just eligible or eligible with
    one to spare."""
    smallest = lambda plans: min(plans, key=lambda plan: tuple(zip(*plan)))
    for index, (name, model, b_init, objective, horizon, fail_step) \
            in enumerate(_agreement_problems()):
        label = (name, horizon)
        expected = all_plans(model, objective, b_init, horizon)
        result = enumerative_check(model, b_init, 0, horizon, objective)
        if not expected:
            assert isinstance(result, Unsat), label
            # No plan: put the lemma on the first path, goal or not.
            actions, observations, beliefs = next(enumerate_plans(model, b_init, horizon))
            plan = CandidatePlan(0, beliefs, actions, observations)
        else:
            plan = result.plan
            assert (plan.actions, plan.observations) == smallest(expected), label
        step = fail_step - 1
        lemma = enc.DeadAction(plan.beliefs[step], plan.actions[step],
                               horizon - fail_step + index % 3, plan.observations[step])
        unfolding = [enc.initial_constraint(0, b_init),
                     *(enc.transition_constraint(i - 1, i) for i in range(1, horizon + 1)),
                     enc.goal_constraint(0, horizon)]
        admitted, admitted_alive = smt_plans(
            RunContext(model, objective), unfolding, [[], [lemma]], horizon, pool)
        assert admitted == expected, label
        alive = {(actions, observations)
                 for actions, observations, beliefs in enumerate_plans(model, b_init, horizon)
                 if satisfies_bounded(beliefs, objective)
                 and not _takes_dead_pair(lemma, horizon, objective, actions, beliefs)}
        assert admitted_alive == alive, label
        run = RunContext(model, objective)
        run.learn(lemma)
        with EnumerativeSession(run) as session:
            load_session(session, b_init, horizon, goal=True)
            result = session.check()
        if alive:
            assert (result.plan.actions, result.plan.observations) == smallest(alive), label
        else:
            assert isinstance(result, Unsat), label


@pytest.mark.parametrize("backend", ["enum", "smtlib"])
def test_a_dead_pair_binds_only_before_the_goal_fires(backend, pool):
    """``go`` is the only action, the goal fires at step 1 and steps 2 and 3
    are filler: a lemma on the goal belief leaves them their one path.  On
    the start belief it binds from its budget of 3 steps on."""
    model = Pomdp(("start", "done"), ("go",), ("tick",),
                  transition={(0, 0): {1: F(1)}, (1, 0): {1: F(1)}},
                  observe={(1, 0): {0: F(1)}})
    objective = SafeReachObjective((LinearBeliefPredicate(frozenset({1}), ">", F(1, 2)),), ())
    start, done = Belief.point(0, 2), Belief.point(1, 2)
    for lemma, verdict in ((enc.DeadAction(done, 0, 3, 0), Sat),
                           (enc.DeadAction(start, 0, 3, 0), Unsat),
                           (enc.DeadAction(start, 0, 2, 0), Sat)):
        run = RunContext(model, objective)
        run.learn(lemma)
        session = EnumerativeSession(run) if backend == "enum" else SmtLibSession(run, pool)
        with session:
            load_session(session, start, 3, goal=True)
            result = session.check()
        assert isinstance(result, verdict), lemma
        if verdict is Sat:
            assert result.plan.beliefs == (start, done, done, done)


# --------------------------------------------------------------------------
# check / extract_plan
# --------------------------------------------------------------------------

def test_unsat_at_horizon_zero_outside_goal(pickup):
    model, b_init, objective = pickup
    assert isinstance(enumerative_check(model, b_init, 0, 0, objective), Unsat)


def test_enumerative_first_plan_is_lexicographic(pickup):
    model, b_init, objective = pickup
    plan = enumerative_check(model, b_init, 0, 1, objective).plan
    assert (plan.actions, plan.observations) == ((0,), (0,))
    assert plan.beliefs[1].probs == (F(0), F(1, 25), F(24, 25))


def test_enumerative_after_block_picks_right_hand(pickup):
    """Blocking the left hand at horizon 1 is its dead pair with 1 step left."""
    model, b_init, objective = pickup
    first = enumerative_check(model, b_init, 0, 1, objective).plan
    run = RunContext(model, objective)
    run.learn(enc.DeadAction(b_init, first.actions[0], 1, model.observations.index("o_neg")))
    with EnumerativeSession(run) as session:
        load_session(session, b_init, 1, goal=True)
        plan = session.check().plan
    assert (plan.actions, plan.observations) == ((1,), (0,))


def test_unreachable_goal_stays_unsat():
    model, b_init, objective, _ = random_instance(random.Random(0))
    from safereach.core import LinearBeliefPredicate, Pomdp

    trap = Pomdp(("stay", "goal"), ("a",), ("o",),
                 transition={(0, 0): {0: F(1)}, (1, 0): {1: F(1)}},
                 observe={(0, 0): {0: F(1)}, (1, 0): {0: F(1)}})
    objv = SafeReachObjective(
        (LinearBeliefPredicate(frozenset({1}), ">", F(1, 2)),), ())
    for k in range(4):
        assert isinstance(
            enumerative_check(trap, Belief.point(0, 2), 0, k, objv), Unsat)


def test_enumerative_searches_one_goal_over_the_whole_unfolding(pickup):
    model, b_init, objective = pickup
    goal = enc.goal_constraint(0, 2)
    with EnumerativeSession(RunContext(model, objective)) as session:
        load_session(session, b_init, 2)
        session.push()
        session.add(goal)
        session.add(goal)  # the same goal twice is still one goal
        assert isinstance(session.check(), Sat)
        session.pop()
        session.push()
        with pytest.raises(SolverUsageError, match="span the whole unfolding"):
            session.add(enc.goal_constraint(0, 1))
        session.pop()


@pytest.mark.parametrize("backend", ["enum", "smtlib"])
@pytest.mark.parametrize("shape", ["no initial", "two initials", "gap in transitions"])
def test_unfolding_must_be_one_initial_and_contiguous_transitions(pickup, backend, shape, pool):
    model, b_init, objective = pickup
    session = (EnumerativeSession(RunContext(model, objective)) if backend == "enum"
               else SmtLibSession(RunContext(model, objective), pool))
    with session, pytest.raises(SolverUsageError):
        # refused when added, not at the next check
        if shape != "no initial":
            session.add(enc.initial_constraint(0, b_init))
        if shape == "two initials":
            session.add(enc.initial_constraint(0, b_init))
        session.add(enc.transition_constraint(0, 1))
        if shape == "gap in transitions":
            session.add(enc.transition_constraint(2, 3))
        session.check()


def test_sat_plans_span_the_unfolding_on_both_backends(pickup, pool):
    model, b_init, objective = pickup
    plans = []
    for session in (EnumerativeSession(RunContext(model, objective)),
                    SmtLibSession(RunContext(model, objective), pool)):
        with session:
            load_session(session, b_init, 1, goal=True)
            result = session.check()
            assert isinstance(result, Sat)
            assert (result.plan.start_step, result.plan.end_step) == (0, 1)
            plans.append(result.plan)
    assert plans[0] == plans[1]


def test_enum_plan_posteriors_are_the_run_caches_own(pickup):
    model, b_init, objective = pickup
    for horizon in (1, 2, 3):
        run = RunContext(model, objective)
        with EnumerativeSession(run) as session:
            load_session(session, b_init, horizon, goal=True)
            plan = session.check().plan
        assert plan.beliefs[0] is b_init
        for i, (a, o) in enumerate(zip(plan.actions, plan.observations)):
            posteriors = {obs: b for obs, b, *_ in run.successors(plan.beliefs[i], a)}
            assert plan.beliefs[i + 1] is posteriors[o]


def test_extract_plan_verifies_every_step(pickup):
    model, b_init, objective = pickup
    run = RunContext(model, objective)
    result = enumerative_check(model, b_init, 0, 1, objective)
    assert extract_plan(result, 0, 1, run) is result.plan
    wrong_posterior = Belief((F(0), F(1, 3), F(2, 3)))
    impossible = 2  # o_null never follows pick_left
    for bad, message in (
            (CandidatePlan(0, (b_init, wrong_posterior), (0,), (0,)), "disagrees"),
            (CandidatePlan(0, (b_init, wrong_posterior), (0,), (impossible,)), "impossible"),
    ):
        with pytest.raises(PlanDecodeError, match=f"step 1: plan .*{message}"):
            extract_plan(Sat(bad), 0, 1, run)
    with pytest.raises(PlanDecodeError, match="spans steps 0..1, not 0..2"):
        extract_plan(result, 0, 2, run)


_GOOD_MODEL = {"b_0_0": "1.0", "b_0_1": "0.0", "b_0_2": "0.0", "a_1": "0", "o_1": "0",
               "b_1_0": "0.0", "b_1_1": "(/ 1.0 25.0)", "b_1_2": "(/ 24.0 25.0)"}


def _fake_solver(model):
    """A solver that answers every check ``sat`` with the given model."""
    return _answering("(model " + " ".join(
        f"(define-fun {name} () {'Int' if name[0] in 'ao' else 'Real'} {value})"
        for name, value in model.items()) + ")")


def _answering(text):
    """A solver that answers every check ``sat`` and every model request with
    ``text``."""
    return (sys.executable, "-c",
            "import sys\n"
            "for line in sys.stdin:\n"
            "    if line.startswith('(check-sat)'): print('sat', flush=True)\n"
            f"    elif line.startswith('(get-model)'): print({text!r}, flush=True)\n")


def _checking(verdict):
    """A solver that answers every check with ``verdict``."""
    return (sys.executable, "-c",
            "import sys\n"
            "for line in sys.stdin:\n"
            f"    if line.startswith('(check-sat)'): print({verdict!r}, flush=True)\n")


def test_a_solver_that_answers_unknown_makes_the_run_an_error(pickup):
    model, b_init, objective = pickup
    solver = SolverConfig(command=_checking("unknown"))
    with SolverPool(solver) as pool, \
            SmtLibSession(RunContext(model, objective), pool) as session:
        load_session(session, b_init, 1, goal=True)
        assert session.check() == Unknown("solver returned unknown")
    # The support game answers the h0 check, so h1 is the first the solver does.
    result = synthesis_run(model, b_init, objective,
                           SynthesisConfig(horizon=1, backend="smtlib", solver=solver))
    assert result.verdict == "error"
    assert result.error == "solver returned unknown at horizon 1: solver returned unknown"


def test_an_unexpected_check_sat_reply_closes_the_endpoint(pickup, spawned):
    model, b_init, objective = pickup
    config = SolverConfig(command=_checking("maybe"))
    with SolverPool(config) as pool:
        with SmtLibSession(RunContext(model, objective), pool) as session:
            load_session(session, b_init, 1, goal=True)
            assert session.check() \
                == Unknown("solver failure: unexpected check-sat response: 'maybe'")
        (proc,) = spawned
        assert not proc.alive


# A solver whose check-sat answer is not UTF-8.
_NOT_UTF8 = (sys.executable, "-c",
             "import sys\n"
             "for line in sys.stdin:\n"
             "    if line.startswith('(check-sat)'):\n"
             "        sys.stdout.buffer.write(b'\\xff sat\\n'); sys.stdout.flush()\n")


def test_a_reply_that_is_not_utf8_is_a_solver_failure(live_children, caplog):
    code = cli.main(["synth", "--domain", "pickup", "--horizon", "1", "--backend", "smtlib",
                     "--solver-cmd", shlex.join(_NOT_UTF8)])
    assert code == 1
    assert any("solver failure: malformed solver response: 'utf-8' codec can't decode"
               in record.getMessage() for record in caplog.records)
    assert live_children() == {}


@pytest.mark.parametrize("change, reason", [
    ({"a_1": None}, "missing variable 'a_1'"),
    ({"b_1_0": "1.0"}, "step 1: belief entries sum to 2"),
    ({"a_1": "9"}, "action selector out of range: 9"),
    ({"o_1": "(/ 1.0 2.0)"}, "non-integer model value for o_1: 1/2"),
    ({"a_1": ""}, "malformed model entry"),
    ({"b_1_0": "(-)"}, "wrong number of arguments to '-'"),
    ({"a_1": "1/2"}, "malformed numeral '1/2'"),
], ids=["missing-a_1", "belief-sums-to-2", "action-9", "o_1-one-half",
        "define-fun-without-value", "minus-without-argument", "a_1-slash-numeral"])
def test_undecodable_model_is_a_solver_failure(pickup, change, reason):
    model, b_init, objective = pickup
    good = SolverConfig(command=_fake_solver(_GOOD_MODEL))
    with SolverPool(good) as pool, \
            SmtLibSession(RunContext(model, objective), pool) as session:
        load_session(session, b_init, 1, goal=True)
        # the unchanged model decodes to the plan the enum backend finds
        assert session.check().plan == enumerative_check(model, b_init, 0, 1, objective).plan
    broken = {k: v for k, v in {**_GOOD_MODEL, **change}.items() if v is not None}
    config = SolverConfig(command=_fake_solver(broken))
    with SolverPool(config) as pool:
        session = SmtLibSession(RunContext(model, objective), pool)
        load_session(session, b_init, 1, goal=True)
        result = session.check()
        assert isinstance(result, Unknown)
        assert result.reason.startswith("solver failure") and reason in result.reason
        with pytest.raises(SolverError, match="dead"):
            session.push()
        session.close()


def test_a_bare_atom_reply_to_get_model_is_a_prompt_solver_failure(pickup):
    model, b_init, objective = pickup
    config = SolverConfig(command=_answering("unsupported"), check_timeout=3)
    with SolverPool(config) as pool, \
            SmtLibSession(RunContext(model, objective), pool) as session:
        load_session(session, b_init, 1, goal=True)
        started = time.monotonic()
        result = session.check()
        elapsed = time.monotonic() - started
    assert result == Unknown("solver failure: unexpected get-model response: 'unsupported'")
    assert elapsed < 1


def test_unterminated_string_in_a_model_is_a_solver_failure(pickup):
    model, b_init, objective = pickup
    config = SolverConfig(command=_answering('((define-fun a_1 () Int 0)) "'), check_timeout=2.0)
    with SolverPool(config) as pool, \
            SmtLibSession(RunContext(model, objective), pool) as session:
        load_session(session, b_init, 1, goal=True)
        started = time.monotonic()
        result = session.check()
        assert time.monotonic() - started < config.check_timeout
    assert isinstance(result, Unknown)
    assert result.reason == "solver failure: malformed solver response: unterminated string literal"


def test_model_parser_accepts_solver_shapes():
    text = """
    (model
      (define-fun a_1 () Int 1)
      (define-fun b_0_0 () Real (/ 3.0 4.0))
      (define-fun b_0_1 () Real 0.25)
      (define-fun d () Real (- (/ 1.0 2.0)))
    )
    """
    model = parse_model(refsolver.CommandReader(io.StringIO(text)).next_command())
    assert model["a_1"] == 1
    assert model["b_0_0"] == F(3, 4)
    assert model["b_0_1"] == F(1, 4)
    assert model["d"] == F(-1, 2)


def test_a_non_integer_selector_value_is_a_decode_error(pickup):
    model = pickup[0]
    text = "((define-fun a_1 () Real (/ 3.0 2.0)) (define-fun o_1 () Int 0))"
    values = parse_model(refsolver.CommandReader(io.StringIO(text)).next_command())
    assert values["a_1"] == F(3, 2)
    for name, value in (("b_0_0", F(1)), ("b_0_1", F(0)), ("b_0_2", F(0)), ("b_1_0", F(1)),
                        ("b_1_1", F(0)), ("b_1_2", F(0))):
        values[name] = value
    with pytest.raises(PlanDecodeError, match=r"non-integer selector value for a_1: 3/2"):
        smtlib._decode_plan(values, 0, 1, model)
    values["a_1"] = F(1)  # an integral Real still names an action
    assert smtlib._decode_plan(values, 0, 1, model).actions == (1,)


def test_model_parser_reads_a_bool_and_decoding_skips_it(pickup):
    text = ("((define-fun f_3 () Bool true) (define-fun p_1 () Bool false)"
            " (define-fun a_1 () Int 1) (define-fun o_1 () Int 0))")
    values = parse_model(refsolver.CommandReader(io.StringIO(text)).next_command())
    assert values == {"f_3": True, "p_1": False, "a_1": 1, "o_1": 0}
    for j in range(3):
        values[enc.belief_var_name(0, j)] = values[enc.belief_var_name(1, j)] = F(j == 0)
    assert smtlib._decode_plan(values, 0, 1, pickup[0]).actions == (1,)


@pytest.mark.parametrize("value", ["1", "0.0", "(- 1)", "x"])
def test_model_parser_rejects_a_bool_that_is_neither_true_nor_false(value):
    text = f"((define-fun f_3 () Bool {value}))"
    with pytest.raises(ModelValueError, match="non-boolean model value for f_3"):
        parse_model(refsolver.CommandReader(io.StringIO(text)).next_command())


def test_model_parser_rejects_algebraic_values():
    text = "((define-fun x () Real (root-obj (+ (^ x 2) (- 2)) 2)))"
    with pytest.raises(ModelValueError):
        parse_model(refsolver.CommandReader(io.StringIO(text)).next_command())


def test_serializer_rational_and_boolean_forms(pickup):
    model, b_init, objective = pickup
    run = RunContext(model, objective)
    text = serialize(enc.initial_constraint(0, b_init), run)
    assert text == "(and (= b_0_0 1.0) (= b_0_1 0.0) (= b_0_2 0.0))"
    mixed = Belief((F(2, 7), F(5, 7), F(0)))
    assert serialize(enc.initial_constraint(0, mixed), run) \
        == "(and (= b_0_0 (/ 2.0 7.0)) (= b_0_1 (/ 5.0 7.0)) (= b_0_2 0.0))"


# --------------------------------------------------------------------------
# External-process failure handling
# --------------------------------------------------------------------------

def test_check_timeout_yields_unknown_and_dead_session(pickup):
    model, b_init, objective = pickup
    config = SolverConfig(
        command=(sys.executable, "-c", "import time; time.sleep(30)"),
        check_timeout=0.2,
    )
    with SolverPool(config) as pool:
        session = SmtLibSession(RunContext(model, objective), pool)
        load_session(session, b_init, 1, goal=True)
        result = session.check()
        assert isinstance(result, Unknown)
        assert "timed out" in result.reason
        with pytest.raises(SolverError):
            session.push()
        session.close()


def test_crashing_solver_yields_unknown_with_diagnostic(pickup):
    model, b_init, objective = pickup
    config = SolverConfig(
        command=(sys.executable, "-c",
                 "import sys; sys.stderr.write('boom\\n'); sys.exit(3)"),
        check_timeout=5.0,
    )
    try:
        with SolverPool(config) as pool:
            session = SmtLibSession(RunContext(model, objective), pool)
            load_session(session, b_init, 1, goal=True)
            result = session.check()
    except SolverError as exc:
        assert "boom" in str(exc) or "closed" in str(exc)
        return
    assert isinstance(result, Unknown)
    assert "boom" in result.reason or "closed" in result.reason


_SLEEPER = (sys.executable, "-c", "import time; time.sleep(30)")
_CRASHER = (sys.executable, "-c", "import sys; sys.stderr.write('boom\\n'); sys.exit(3)")


# --------------------------------------------------------------------------
# Solver process pool
# --------------------------------------------------------------------------

@pytest.mark.parametrize("problem, horizon", [("pickup", 3), ("kitchen", 4)])
def test_a_run_spawns_its_peak_session_nesting(pickup, problem, horizon, spawned,
                                               monkeypatch):
    """Incrementally, a run spawns one process per level of session nesting;
    from scratch, one process in all."""
    open_sessions, peak = [0], [0]
    init, close = SmtLibSession.__init__, SmtLibSession.close

    def counting_init(session, *args, **kwargs):
        init(session, *args, **kwargs)
        open_sessions[0] += 1
        peak[0] = max(peak[0], open_sessions[0])

    def counting_close(session):
        if not session._closed:
            open_sessions[0] -= 1
        close(session)

    monkeypatch.setattr(SmtLibSession, "__init__", counting_init)
    monkeypatch.setattr(SmtLibSession, "close", counting_close)
    model, b_init, objective = pickup if problem == "pickup" else kitchen_rung("2x2-M1-det")
    for incremental in (True, False):
        spawned.clear()
        peak[0] = 0
        config = SynthesisConfig(horizon=horizon, backend="smtlib",
                                 solver=SolverConfig(incremental=incremental))
        assert synthesis_run(model, b_init, objective, config).verdict == "valid"
        assert open_sessions[0] == 0
        assert len(spawned) == (peak[0] if incremental else 1)
    assert peak[0] == 2  # the root session and one branch session under it


@pytest.mark.parametrize("incremental", [True, False], ids=["incremental", "from-scratch"])
@pytest.mark.parametrize("outcome", ["valid", "no-policy", "timeout", "crash"])
def test_no_solver_outlives_its_run(pickup, live_children, outcome, incremental):
    model, b_init, objective = pickup
    command = {"timeout": _SLEEPER, "crash": _CRASHER}.get(outcome)
    config = SynthesisConfig(horizon=0 if outcome == "no-policy" else 3, backend="smtlib",
                             solver=SolverConfig(command=command, check_timeout=0.5,
                                                 incremental=incremental))
    result = synthesis_run(model, b_init, objective, config)
    expected = {"valid": "valid", "no-policy": "no-policy-within-bound"}.get(outcome, "error")
    assert result.verdict == expected
    assert live_children() == {}


@pytest.mark.parametrize("incremental", [True, False], ids=["incremental", "from-scratch"])
@pytest.mark.parametrize("failure", ["timeout", "undecodable-model", "reply-not-utf8"])
def test_a_failed_sessions_process_is_never_reused(pickup, spawned, failure, incremental):
    model, b_init, objective = pickup
    command = {"timeout": _SLEEPER, "undecodable-model": _fake_solver({"a_1": "9"}),
               "reply-not-utf8": _NOT_UTF8}[failure]
    config = SolverConfig(command=command, check_timeout=0.5, incremental=incremental)
    with SolverPool(config) as pool:
        with SmtLibSession(RunContext(model, objective), pool) as session:
            load_session(session, b_init, 1, goal=True)
            assert isinstance(session.check(), Unknown)
        (failed,) = spawned
        assert not failed.alive  # killed, not handed back
        again = pool.take()
        assert again is not failed and len(spawned) == 2
        pool.give_back(again)


def test_a_reused_process_is_reset_before_the_next_session(pickup, spawned):
    model, b_init, objective = pickup
    run = RunContext(model, objective)
    lines = []
    with SolverPool() as pool:
        for horizon in (1, 2):
            with SmtLibSession(run, pool) as session:
                load_session(session, b_init, horizon, goal=True)
                assert isinstance(session.check(), Sat)
            (proc,) = spawned
            lines.append(proc.lines[len(sum(lines, [])):])
    first, second = lines
    header = [render(command) for command in HEADER]
    assert first[:2] == header == ["(set-option :produce-models true)", "(set-logic QF_NIRA)"]
    for session_lines in (first, second):
        assert session_lines[-3:] == ["(reset)", *header]
    assert second[0] == "(declare-const b_0_0 Real)"
    assert not any(line in ("(reset)", *header) for line in first[2:-3] + second[:-3])
    assert proc.lines[-1] == "(exit)" and not proc.alive


def test_an_error_left_on_a_pooled_process_fails_the_next_check(pickup):
    """Nothing is read when a process is handed back: an ``(error ...)`` its
    last session left unread is what the next check reads first."""
    model, b_init, objective = pickup
    with SolverPool() as pool:
        proc = pool.take()
        proc.send(("no-such-command",))
        pool.give_back(proc)
        with SmtLibSession(RunContext(model, objective), pool) as session:
            load_session(session, b_init, 1, goal=True)
            result = session.check()
    assert isinstance(result, Unknown)
    assert "unsupported command no-such-command" in result.reason


def test_a_session_takes_every_setting_from_its_pool(pickup, spawned):
    model, b_init, objective = pickup
    # The pool's command is the one the session's endpoint runs, started at
    # the first check that reaches a solver ...
    with SolverPool(SolverConfig(command=("no-such-solver",))) as pool:
        session = SmtLibSession(RunContext(model, objective), pool)
        load_session(session, b_init, 1, goal=True)
        assert spawned == []
        with pytest.raises(SolverError, match="cannot start solver"):
            session.check()
        session.close()
    assert [type(proc) for proc in spawned] == [smtlib._SolverProcess]
    spawned.clear()
    # ... and its mode is the session's: from scratch, each check takes an
    # endpoint and hands it back.
    with SolverPool(SolverConfig(incremental=False)) as pool, \
            SmtLibSession(RunContext(model, objective), pool) as session:
        load_session(session, b_init, 1, goal=True)
        assert spawned == []
        assert isinstance(session.check(), Sat)
        (proc,) = spawned
        assert proc.lines[-3:] == ["(reset)", *map(render, HEADER)]


def _transport_problems():
    """(label, problem, horizon, incremental) for the transport comparison."""
    kitchen = kitchen_rung("2x2-M1-det")
    yield "pickup-h3", build_pickup_example(), 3, True
    for incremental in (True, False):
        yield f"kitchen-2x2-det-h4-incremental={incremental}", kitchen, 4, incremental
    for seed in range(20):
        model, b_init, objective, horizon = random_instance(random.Random(seed))
        yield f"random-{seed}", (model, b_init, objective), horizon, True


def _folded(term):
    """``term`` with each numeral subterm, such as ``(/ 1.0 2.0)``, as the
    number it denotes."""
    value = refsolver.numeral(term)
    if value is not None:
        return value
    return tuple(map(_folded, term)) if type(term) is tuple else term


def test_the_bundled_solver_answers_the_same_in_this_process_and_over_a_pipe(spawned,
                                                                             monkeypatch,
                                                                             reached):
    """Handed terms in this process, or sent their text as a program of its
    own, the bundled solver gives the same verdict, policy and check trace,
    each endpoint is sent the same lines, and every read returns the same
    answer term, up to how a numeral is written.  A run whose every check
    the support game answers starts no endpoint either way."""
    answers: dict = {}
    for endpoint in (smtlib._InProcessSolver, smtlib._SolverProcess):
        def recording_read(proc, deadline, read=endpoint.read):
            answer = read(proc, deadline)
            answers.setdefault(proc, []).append(_folded(answer))
            return answer
        monkeypatch.setattr(endpoint, "read", recording_read)
    compared = []
    for label, problem, horizon, incremental in _transport_problems():
        runs = []
        for command in (None, smtlib.default_solver_command()):
            spawned.clear()
            answers.clear()
            reached.clear()
            solver = SolverConfig(command=command, incremental=incremental)
            result = synthesis_run(*problem, SynthesisConfig(horizon=horizon, backend="smtlib",
                                                             solver=solver))
            assert result.error is None, label
            runs.append((result.verdict, result.policy, result.stats.check_trace,
                         [proc.lines for proc in spawned],
                         [answers.get(proc, []) for proc in spawned]))
        in_process, over_a_pipe = runs
        assert in_process == over_a_pipe, label
        assert bool(in_process[3]) == any(reached) and all(in_process[3]), label
        compared += sum(in_process[4], [])
    assert {"sat", "unsat"} <= set(compared)
    assert any(type(answer) is tuple and answer[0][0] == "define-fun" for answer in compared)


def test_an_in_process_run_writes_and_parses_no_text(monkeypatch):
    def no_text(*args, **kwargs):
        raise AssertionError("the in-process solver wrote or parsed SMT-LIB text")

    originals = [refsolver.tokenize, refsolver.parse_tokens, refsolver.CommandReader,
                 refsolver.render]
    for module in [m for name, m in sys.modules.items() if name.startswith("safereach")]:
        for name, value in list(vars(module).items()):  # every module's binding
            if any(value is original for original in originals):
                monkeypatch.setattr(module, name, no_text)
    model, b_init, objective = kitchen_rung("2x2-M1-det")
    config = SynthesisConfig(horizon=4, backend="smtlib")
    assert synthesis_run(model, b_init, objective, config).verdict == "valid"


def test_custom_solver_command_runs_as_given(pickup, monkeypatch):
    command = ("z3", "-in")
    assert SolverPool(SolverConfig(command=command)).command == command
    # The bundled solver runs in this process: no run forks or execs anything.
    problems = [(*pickup, 3)] + [random_instance(random.Random(seed)) for seed in range(20)]
    expected = [synthesis_run(model, b_init, objective, SynthesisConfig(horizon=horizon)).verdict
                for model, b_init, objective, horizon in problems]

    def no_process(*args, **kwargs):
        raise AssertionError("a solver process was started")

    monkeypatch.setattr(os, "fork", no_process)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    for (model, b_init, objective, horizon), verdict in zip(problems, expected):
        config = SynthesisConfig(horizon=horizon, backend="smtlib")
        result = synthesis_run(model, b_init, objective, config)
        assert (result.verdict, result.error) == (verdict, None)
    assert expected[0] == "valid"


def test_bundled_solver_ignores_the_environment(pickup, tmp_path, monkeypatch):
    (tmp_path / "fractions.py").write_text("raise ImportError('shadowed fractions')\n")
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    config = SynthesisConfig(horizon=3, backend="smtlib")
    result = synthesis_run(*pickup, config)
    assert (result.verdict, result.error) == ("valid", None)


# Eight integers in 0..9 that sum to 1000: unsat, after a search of 10^8 nodes.
_LONG_SEARCH = "\n".join(
    [f"(declare-const x{i} Int)\n(assert (<= 0 x{i}))\n(assert (< x{i} 10))" for i in range(8)]
    + ["(assert (= (+ " + " ".join(f"x{i}" for i in range(8)) + ") 1000))", "(check-sat)", ""])


def _driver_env():
    """The environment of a driver subprocess that imports this package."""
    return dict(os.environ, PYTHONPATH=str(Path(smtlib.__file__).resolve().parents[2]))


def _assert_solver_stops_with_its_driver(start):
    """A driver that runs ``start`` (which leaves the solver's pid in ``pid``
    and has it searching ``_LONG_SEARCH``) and is SIGKILLed mid-check leaves
    no solver searching behind."""
    driver = (start + "import time\n"
              "time.sleep(1)  # the child is searching now\n"
              "print(pid, flush=True)\n"
              "time.sleep(60)\n")
    proc = subprocess.Popen([sys.executable, "-c", driver], stdout=subprocess.PIPE,
                            env=_driver_env())
    try:
        solver = int(proc.stdout.readline())
        assert _running(solver)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    try:
        deadline = time.monotonic() + 5
        while _running(solver) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(solver)
    finally:
        if _running(solver):
            os.kill(solver, signal.SIGKILL)


@pytest.mark.skipif(sys.platform != "linux", reason="reads process states from /proc")
def test_bundled_solver_stops_when_its_driver_dies():
    """The solver run as a program of its own, by ``default_solver_command``."""
    _assert_solver_stops_with_its_driver(
        "import subprocess\n"
        "from safereach.solver import default_solver_command\n"
        "child = subprocess.Popen(default_solver_command(), stdin=subprocess.PIPE,\n"
        "                         stdout=subprocess.DEVNULL)\n"
        f"child.stdin.write({_LONG_SEARCH!r}.encode()); child.stdin.flush()\n"
        "pid = child.pid\n")


def test_a_timed_out_forked_solver_is_reaped(spawned, monkeypatch):
    """The bundled solver stops its search at the check's deadline, and the
    pool then hands out a working solver in its place.  The support game is
    off, as it refutes this check at the root, and its clause would settle
    it in a millisecond."""
    monkeypatch.setattr(RunContext, "wins", lambda run, support, steps: True)
    model, b_init, objective = kitchen_rung("2x2-M1-noisy")
    config = SolverConfig(check_timeout=0.2)  # the noisy h4 check searches for seconds
    with SolverPool(config) as pool:
        with SmtLibSession(RunContext(model, objective), pool) as session:
            load_session(session, b_init, 4, goal=True)
            # One answered round trip runs the declarations and assertions
            # sent, so the timed window below covers the check alone.
            session._send_live(session._ensure_process())
            session._proc.send(("echo", '"loaded"'))
            assert session._proc.read(time.monotonic() + 60) == "loaded"
            started = time.monotonic()
            result = session.check()
            elapsed = time.monotonic() - started
        assert isinstance(result, Unknown) and "timed out" in result.reason
        assert elapsed < 0.3
        (timed_out,) = spawned
        assert not timed_out.alive  # closed, not handed back
        proc = pool.take()
        assert proc is not timed_out
        proc.send(smtlib.CHECK_SAT)
        assert proc.read(time.monotonic() + 5) == "sat"
        pool.give_back(proc)


def test_runs_leave_no_zombie_children():
    """With the solver run as a program: the bundled solver starts no process."""
    before = _zombie_children()
    solver = SolverConfig(command=smtlib.default_solver_command())
    for seed in range(20):
        model, b_init, objective, horizon = random_instance(random.Random(seed))
        config = SynthesisConfig(horizon=horizon, backend="smtlib", solver=solver)
        assert synthesis_run(model, b_init, objective, config).error is None
    assert _zombie_children() - before == set()


def test_runs_on_the_bundled_solver_may_share_the_process_from_threads():
    problems = [random_instance(random.Random(seed)) for seed in range(8)]

    def solve(problem):
        model, b_init, objective, horizon = problem
        result = synthesis_run(model, b_init, objective,
                               SynthesisConfig(horizon=horizon, backend="smtlib"))
        return result.verdict, result.policy, result.stats.check_trace

    alone = [solve(problem) for problem in problems]
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(solve, problems)) == alone


def test_the_bundled_solver_writes_none_of_its_drivers_output():
    driver = (
        "import atexit\n"
        "from safereach import SynthesisConfig, build_pickup_example, synthesis_run\n"
        "atexit.register(print, 'at exit')\n"
        "print('before the run')  # still buffered: stdout is a pipe\n"
        "config = SynthesisConfig(horizon=3, backend='smtlib')\n"
        "print(synthesis_run(*build_pickup_example(), config).verdict)\n")
    done = subprocess.run([sys.executable, "-c", driver], capture_output=True,
                          env=_driver_env(), timeout=60)
    assert (done.stdout, done.stderr) == (b"before the run\nvalid\nat exit\n", b"")


def test_a_failing_forked_solver_is_a_solver_failure_with_its_stderr(pickup, monkeypatch):
    """An exception inside the bundled solver is a solver failure that names
    it, and ends that solver only."""
    def crash(search):
        raise RuntimeError("boom")

    model, b_init, objective = pickup
    run = RunContext(model, objective)
    with SolverPool() as pool:
        monkeypatch.setattr(refsolver.Search, "run", crash)
        with SmtLibSession(run, pool) as session:
            load_session(session, b_init, 1, goal=True)
            result = session.check()
        monkeypatch.undo()
        assert result == Unknown("solver failure: the bundled solver failed: RuntimeError: boom")
        # The driver carries on, with a new solver.
        with SmtLibSession(run, pool) as session:
            load_session(session, b_init, 1, goal=True)
            assert isinstance(session.check(), Sat)


def test_a_malformed_line_ends_the_bundled_solver_as_it_ends_the_program():
    """A syntax error in the program's input is answered, and ends its
    session.  A malformed command term gets the same answer in this process
    as over a pipe, and the session goes on.  In this process, commands wait
    until an answer is read, and ``(exit)`` ends the solver."""
    answers = []
    script = io.StringIO(")\n(check-sat)\n")
    assert refsolver.Session().run(refsolver.CommandReader(script).next_command,
                                   answers.append) is False
    assert list(map(render, answers)) == ['(error "unbalanced \')\'")']
    for config in (SolverConfig(), SolverConfig(command=smtlib.default_solver_command())):
        with SolverPool(config) as pool:
            proc = pool.take()
            proc.send(("push", "x"))
            proc.send(smtlib.CHECK_SAT)
            deadline = time.monotonic() + 60
            assert proc.read(deadline) == ("error", '"wrong arguments to push"')
            assert proc.read(deadline) == "sat"
            pool.give_back(proc)
    with SolverPool() as pool:
        proc = pool.take()
        proc.send(smtlib.EXIT)
        assert proc.alive  # nothing has run yet
        with pytest.raises(SolverError, match="closed its output stream"):
            proc.read(None)
        assert not proc.alive
        pool.give_back(proc)
        again = pool.take()
        assert again is not proc  # an ended solver is not handed out again
        pool.give_back(again)


def test_a_read_with_no_command_waiting_fails_instead_of_hanging():
    with SolverPool() as pool:
        proc = pool.take()  # the header lines give no answer
        with pytest.raises(SolverError, match="no command is waiting for an answer"):
            proc.read(None)
        assert not proc.alive
        proc.close()


def test_a_stray_token_ends_the_program_with_an_error():
    done = subprocess.run(smtlib.default_solver_command(),
                          input=b"(check-sat) x\n(check-sat)\n", capture_output=True,
                          timeout=60)
    assert (done.stdout, done.stderr) \
        == (b"sat\n(error \"stray token 'x' outside command\")\n", b"")


@pytest.mark.parametrize("way", ["file path", "default_solver_command"])
def test_each_documented_way_to_run_the_solver_starts_cleanly(way):
    command = ((sys.executable, refsolver.__file__) if way == "file path"
               else smtlib.default_solver_command())
    done = subprocess.run(command, input=b"(check-sat)(exit)\n", capture_output=True,
                          timeout=60)
    assert (done.stdout, done.stderr) == (b"sat\n", b"")


def _zombie_children():
    """Children of this process that exited and were never reaped."""
    me = os.getpid()
    zombies = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                state, parent = fh.read().rsplit(b")", 1)[1].split()[:2]
        except OSError:
            continue
        if state == b"Z" and int(parent) == me:
            zombies.add(int(entry))
    return zombies


def _running(pid):
    """Whether ``pid`` is a live process (not gone, not a zombie)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            return fh.read().rsplit(b")", 1)[1].split()[0] != b"Z"
    except OSError:
        return False
