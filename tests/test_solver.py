from __future__ import annotations

import random
import sys
from fractions import Fraction as F

import pytest

from safereach import encoding as enc
from safereach.core import Belief, RunContext, SafeReachObjective
from safereach.solver import (
    EnumerativeSession,
    PlanDecodeError,
    Sat,
    SmtLibSession,
    SolverConfig,
    SolverError,
    SolverUsageError,
    Unknown,
    Unsat,
    enumerative_check,
    extract_plan,
)
from safereach.solver import smtlib
from safereach.solver.smtlib import ModelValueError, parse_model, serialize

from oracles import random_instance


def load_session(session, b_init, horizon, objective=None):
    session.add(enc.initial_constraint(0, b_init))
    for i in range(1, horizon + 1):
        session.add(enc.transition_constraint(i - 1, i))
    if objective is not None:
        session.add(enc.goal_constraint(0, horizon, objective))


# --------------------------------------------------------------------------
# Scope semantics
# --------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["enum", "smtlib"])
def test_popped_scope_leaves_no_trace(pickup, backend):
    model, b_init, objective = pickup
    session = (EnumerativeSession(model) if backend == "enum"
               else SmtLibSession(model, SolverConfig()))
    with session:
        load_session(session, b_init, 1)
        session.push()
        session.add(enc.goal_constraint(0, 1, objective))
        plan = extract_plan(session.check().model, 0, 1, model)
        session.add(enc.blocking_constraint(plan, 1))
        blocked = extract_plan(session.check().model, 0, 1, model)
        assert blocked.actions[0] != plan.actions[0]
        session.pop()
        session.push()
        session.add(enc.goal_constraint(0, 1, objective))
        fresh = extract_plan(session.check().model, 0, 1, model)
        assert fresh == plan  # the block is gone with its scope
        session.pop()


def test_pop_on_empty_stack_is_usage_error(pickup):
    model, _, _ = pickup
    session = EnumerativeSession(model)
    with pytest.raises(SolverUsageError):
        session.pop()
    smt = SmtLibSession(model, SolverConfig())
    with pytest.raises(SolverUsageError):
        smt.pop()
    smt.close()


def test_transition_outside_scope_persists_across_horizons(pickup):
    # the outer loop relies on transitions surviving goal-scope pops
    model, b_init, objective = pickup
    with EnumerativeSession(model) as session:
        session.add(enc.initial_constraint(0, b_init))
        session.push()
        session.add(enc.goal_constraint(0, 0, objective))
        assert isinstance(session.check(), Unsat)
        session.pop()
        session.add(enc.transition_constraint(0, 1))
        session.push()
        session.add(enc.goal_constraint(0, 1, objective))
        assert isinstance(session.check(), Sat)
        session.pop()


def test_random_scope_sequences_agree_across_backends():
    """Differential: 100 random interleavings of push/assert/check/pop give
    the same verdict and the same model on both backends."""
    for seed in range(100):
        rng = random.Random(seed)
        model, b_init, objective, _ = random_instance(rng, max_states=3, max_horizon=2)
        horizon = 2
        enum = EnumerativeSession(model)
        smt = SmtLibSession(model, SolverConfig())
        for session in (enum, smt):
            load_session(session, b_init, horizon)
        depth = 0
        plan = None
        for _ in range(8):
            op = rng.choice(["push", "pop", "goal", "block", "check"])
            if op == "push":
                enum.push(), smt.push()
                depth += 1
            elif op == "pop" and depth:
                enum.pop(), smt.pop()
                depth -= 1
            elif op == "goal" and depth:
                c = enc.goal_constraint(0, horizon, objective)
                enum.add(c), smt.add(c)
            elif op == "block" and depth and plan is not None:
                c = enc.blocking_constraint(plan, rng.randint(1, plan.end_step))
                enum.add(c), smt.add(c)
            elif op == "check":
                a, b = enum.check(), smt.check()
                assert type(a) is type(b), f"seed {seed}: {a} vs {b}"
                if isinstance(a, Sat):
                    pa = extract_plan(a.model, 0, horizon, model)
                    pb = extract_plan(b.model, 0, horizon, model)
                    assert pa == pb, f"seed {seed}"
                    plan = pa
        enum.close(), smt.close()


def _scoped_text(lines):
    """The declare-const and assert lines live at each check-sat, in order."""
    stack, live = [[]], []
    for line in lines:
        if line == "(push 1)":
            stack.append([])
        elif line == "(pop 1)":
            stack.pop()
        elif line.startswith(("(declare-const", "(assert")):
            stack[-1].append(line)
        elif line == "(check-sat)":
            text = [entry for frame in stack for entry in frame]
            live.append(([t for t in text if t.startswith("(declare-const")],
                         [t for t in text if t.startswith("(assert")]))
    return live


def test_from_scratch_replays_incremental_text(pickup, monkeypatch):
    model, b_init, objective = pickup
    processes = []
    spawn, send = smtlib._SmtProcess.__init__, smtlib._SmtProcess.send

    def recording_spawn(proc, command):
        spawn(proc, command)
        proc.lines = []
        processes.append(proc)

    def recording_send(proc, line):
        proc.lines.append(line)
        send(proc, line)

    monkeypatch.setattr(smtlib._SmtProcess, "__init__", recording_spawn)
    monkeypatch.setattr(smtlib._SmtProcess, "send", recording_send)
    serialized = []
    monkeypatch.setattr(smtlib, "serialize",
                        lambda term: serialized.append(term) or serialize(term))

    def drive(incremental):
        processes.clear()
        serialized.clear()
        config = SolverConfig(incremental=incremental)
        with SmtLibSession(model, config) as session:
            session.add(enc.initial_constraint(0, b_init))
            session.push()
            session.add(enc.goal_constraint(0, 0, objective))
            assert isinstance(session.check(), Unsat)
            session.pop()
            session.add(enc.transition_constraint(0, 1))
            session.push()
            session.add(enc.goal_constraint(0, 1, objective))
            plan = extract_plan(session.check().model, 0, 1, model)
            session.add(enc.blocking_constraint(plan, 1))
            assert isinstance(session.check(), Sat)
        assert len(serialized) == 5  # once per add, never on replay
        return [live for proc in processes for live in _scoped_text(proc.lines)]

    incremental = drive(True)
    from_scratch = drive(False)
    assert len(processes) == 3
    assert len(incremental) == 3
    assert from_scratch == incremental


# --------------------------------------------------------------------------
# check / extract_plan
# --------------------------------------------------------------------------

def test_unsat_at_horizon_zero_outside_goal(pickup):
    model, b_init, objective = pickup
    assert isinstance(enumerative_check(model, b_init, 0, 0, objective), Unsat)


def test_enumerative_first_plan_is_lexicographic(pickup):
    model, b_init, objective = pickup
    result = enumerative_check(model, b_init, 0, 1, objective)
    plan = extract_plan(result.model, 0, 1, model)
    assert (plan.actions, plan.observations) == ((0,), (0,))
    assert plan.beliefs[1].probs == (F(0), F(1, 25), F(24, 25))


def test_enumerative_after_block_picks_right_hand(pickup):
    model, b_init, objective = pickup
    first = extract_plan(
        enumerative_check(model, b_init, 0, 1, objective).model, 0, 1, model)
    result = enumerative_check(model, b_init, 0, 1, objective,
                               blocks=[enc.Blocking(first, 1)])
    plan = extract_plan(result.model, 0, 1, model)
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


def test_shared_fruitless_cache_keeps_every_plan():
    """A subtree cached as fruitless under a block must not hide a plan from
    a later session that shares the run context but has no block."""
    cases = 0
    for seed in range(60):
        model, b_init, objective, h = random_instance(random.Random(seed))
        for k in range(1, h + 1):
            run = RunContext(model)
            with EnumerativeSession(model, run) as blocked:
                load_session(blocked, b_init, k, objective)
                first = blocked.check()
                if not isinstance(first, Sat):
                    continue
                plan = extract_plan(first.model, 0, k, model)
                blocked.push()
                blocked.add(enc.blocking_constraint(plan, plan.end_step))
                blocked.check()
                blocked.pop()
            with EnumerativeSession(model, run) as fresh:
                load_session(fresh, b_init, k, objective)
                again = fresh.check()
            assert isinstance(again, Sat), f"seed {seed}, horizon {k}"
            assert extract_plan(again.model, 0, k, model) == plan, f"seed {seed}, horizon {k}"
            cases += 1
    assert cases >= 50


def test_enumerative_session_takes_only_its_models_run_context(pickup):
    model = pickup[0]
    other = random_instance(random.Random(0))[0]
    with pytest.raises(SolverUsageError, match="another model"):
        EnumerativeSession(model, RunContext(other))


def test_enumerative_searches_one_goal_over_the_whole_unfolding(pickup):
    model, b_init, objective = pickup
    goal = enc.goal_constraint(0, 2, objective)
    other = enc.goal_constraint(0, 2, SafeReachObjective(objective.goal, ()))
    with EnumerativeSession(model) as session:
        load_session(session, b_init, 2)
        session.push()
        session.add(goal)
        session.add(goal)  # the same goal twice is still one goal
        assert isinstance(session.check(), Sat)
        session.add(other)
        with pytest.raises(SolverUsageError, match="one distinct goal"):
            session.check()
        session.pop()
        session.push()
        session.add(enc.goal_constraint(0, 1, objective))
        with pytest.raises(SolverUsageError, match="span the whole unfolding"):
            session.check()
        session.pop()


def test_sat_model_covers_all_plan_variables(pickup):
    model, b_init, objective = pickup
    for session in (EnumerativeSession(model), SmtLibSession(model, SolverConfig())):
        with session:
            load_session(session, b_init, 1, objective)
            result = session.check()
            assert isinstance(result, Sat)
            for step in (0, 1):
                for j in range(len(model.states)):
                    assert enc.belief_var_name(step, j) in result.model
            assert enc.action_var_name(1) in result.model
            assert enc.observation_var_name(1) in result.model


def test_extract_plan_rejects_inconsistent_model(pickup):
    model, b_init, objective = pickup
    result = enumerative_check(model, b_init, 0, 1, objective)
    corrupted = dict(result.model)
    corrupted[enc.belief_var_name(1, 0)] = F(1, 3)
    with pytest.raises(PlanDecodeError, match="step 1"):
        extract_plan(corrupted, 0, 1, model)
    missing = dict(result.model)
    del missing[enc.action_var_name(1)]
    with pytest.raises(PlanDecodeError, match="missing"):
        extract_plan(missing, 0, 1, model)


def test_model_parser_accepts_solver_shapes():
    text = """
    (model
      (define-fun a_1 () Int 1)
      (define-fun b_0_0 () Real (/ 3.0 4.0))
      (define-fun b_0_1 () Real 0.25)
      (define-fun d () Real (- (/ 1.0 2.0)))
    )
    """
    model = parse_model(text)
    assert model["a_1"] == 1
    assert model["b_0_0"] == F(3, 4)
    assert model["b_0_1"] == F(1, 4)
    assert model["d"] == F(-1, 2)


def test_model_parser_rejects_algebraic_values():
    text = "((define-fun x () Real (root-obj (+ (^ x 2) (- 2)) 2)))"
    with pytest.raises(ModelValueError):
        parse_model(text)


def test_serializer_rational_and_boolean_forms(pickup):
    model, b_init, _ = pickup
    text = serialize(enc.lower(enc.initial_constraint(0, b_init), model))
    assert text == "(and (= b_0_0 1.0) (= b_0_1 0.0) (= b_0_2 0.0))"
    assert serialize(enc.RConst(F(2, 7))) == "(/ 2.0 7.0)"
    assert serialize(enc.BoolConst(True)) == "true"
    assert serialize(enc.conj([])) == "true"
    assert serialize(enc.disj([])) == "false"


# --------------------------------------------------------------------------
# External-process failure handling
# --------------------------------------------------------------------------

def test_check_timeout_yields_unknown_and_dead_session(pickup):
    model, b_init, objective = pickup
    config = SolverConfig(
        command=(sys.executable, "-c", "import time; time.sleep(30)"),
        check_timeout=0.2,
    )
    session = SmtLibSession(model, config)
    load_session(session, b_init, 1, objective)
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
    session = SmtLibSession(model, config)
    try:
        load_session(session, b_init, 1, objective)
        result = session.check()
    except SolverError as exc:
        assert "boom" in str(exc) or "closed" in str(exc)
        return
    assert isinstance(result, Unknown)
    assert "boom" in result.reason or "closed" in result.reason

