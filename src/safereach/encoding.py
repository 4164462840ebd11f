"""Symbolic encoding of the bounded goal-constrained search space.

A constraint is plain, immutable data saying what it asserts: the belief at
the start step, the belief transition into one step, the bounded
safe-reachability goal of the run's objective over a span of steps, or a
blocked plan prefix.  The builders check their arguments and return that
data; the enumerative backend interprets it directly.

:func:`lower` turns one constraint into a term of the constraint AST over
the step variables of a run, for the SMT-LIB backend: belief components as
reals, the action and observation choice at each step as bounded integers.
Normalization is encoded division-free (``b_i * denom_i = u_i``,
``denom_i > 0``) so the whole theory stays in polynomial arithmetic.
Lowering is deterministic: identical inputs produce structurally identical
terms with stable variable names, which keeps solver behaviour reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .core import (Belief, CandidatePlan, LinearBeliefPredicate, Pomdp, RunContext,
                   SafeReachObjective)


# --------------------------------------------------------------------------
# Constraint AST
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RConst:
    value: Fraction


@dataclass(frozen=True)
class IConst:
    value: int


@dataclass(frozen=True)
class RVar:
    name: str


@dataclass(frozen=True)
class IVar:
    name: str


@dataclass(frozen=True)
class BoolConst:
    value: bool


@dataclass(frozen=True)
class Add:
    args: tuple["Term", ...]


@dataclass(frozen=True)
class Mul:
    args: tuple["Term", ...]


@dataclass(frozen=True)
class Eq:
    lhs: "Term"
    rhs: "Term"


@dataclass(frozen=True)
class Le:
    lhs: "Term"
    rhs: "Term"


@dataclass(frozen=True)
class Lt:
    lhs: "Term"
    rhs: "Term"


@dataclass(frozen=True)
class Not:
    arg: "Term"


@dataclass(frozen=True)
class And:
    args: tuple["Term", ...]


@dataclass(frozen=True)
class Or:
    args: tuple["Term", ...]


@dataclass(frozen=True)
class Ite:
    cond: "Term"
    then: "Term"
    other: "Term"


Term = Union[RConst, IConst, RVar, IVar, BoolConst, Add, Mul, Eq, Le, Lt, Not, And, Or, Ite]


def conj(args: Sequence[Term]) -> Term:
    args = tuple(a for a in args if a != BoolConst(True))
    if any(a == BoolConst(False) for a in args):
        return BoolConst(False)
    if not args:
        return BoolConst(True)
    if len(args) == 1:
        return args[0]
    return And(args)


def disj(args: Sequence[Term]) -> Term:
    args = tuple(a for a in args if a != BoolConst(False))
    if any(a == BoolConst(True) for a in args):
        return BoolConst(True)
    if not args:
        return BoolConst(False)
    if len(args) == 1:
        return args[0]
    return Or(args)


def term_variables(term: Term) -> dict[str, str]:
    """All variables in a term, mapped to their sort ("Real" or "Int")."""
    out: dict[str, str] = {}
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, RVar):
            out[t.name] = "Real"
        elif isinstance(t, IVar):
            out[t.name] = "Int"
        elif isinstance(t, (Add, Mul, And, Or)):
            stack.extend(t.args)
        elif isinstance(t, (Eq, Le, Lt)):
            stack.extend((t.lhs, t.rhs))
        elif isinstance(t, Not):
            stack.append(t.arg)
        elif isinstance(t, Ite):
            stack.extend((t.cond, t.then, t.other))
    return out


# --------------------------------------------------------------------------
# Step variables
# --------------------------------------------------------------------------

def belief_var_name(step: int, state_index: int) -> str:
    return f"b_{step}_{state_index}"


def action_var_name(step: int) -> str:
    return f"a_{step}"


def observation_var_name(step: int) -> str:
    return f"o_{step}"


def unnorm_var_name(step: int, state_index: int) -> str:
    return f"u_{step}_{state_index}"


def denom_var_name(step: int) -> str:
    return f"denom_{step}"


@dataclass(frozen=True)
class StepVars:
    """Solver variables for one step: belief components plus, for non-start
    steps, the action/observation selectors and normalization auxiliaries."""

    step: int
    belief_vars: tuple[RVar, ...]
    action_var: Optional[IVar]
    observation_var: Optional[IVar]
    unnorm_vars: Optional[tuple[RVar, ...]]
    denom_var: Optional[RVar]


def step_vars(step: int, n_states: int, start: bool = False) -> StepVars:
    beliefs = tuple(RVar(belief_var_name(step, j)) for j in range(n_states))
    if start:
        return StepVars(step, beliefs, None, None, None, None)
    return StepVars(
        step,
        beliefs,
        IVar(action_var_name(step)),
        IVar(observation_var_name(step)),
        tuple(RVar(unnorm_var_name(step, j)) for j in range(n_states)),
        RVar(denom_var_name(step)),
    )


# --------------------------------------------------------------------------
# Constraints: plain data, and builders that check their arguments
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Initial:
    """The belief at the start step ``step`` is ``belief``."""

    step: int
    belief: Belief


@dataclass(frozen=True)
class Transition:
    """The belief at ``step`` is the exact update of the belief at
    ``step - 1`` under the action and observation chosen at ``step``."""

    step: int


@dataclass(frozen=True)
class Goal:
    """Some step in ``start_step..end_step`` holds a goal belief of the run's
    one objective, and every belief before it is safe."""

    start_step: int
    end_step: int


@dataclass(frozen=True)
class Blocking:
    """Negated prefix of a candidate whose branch completion failed: no plan
    starts from the same belief, repeats the same action/observation/belief
    sequence up to step ``fail_step - 1`` and then chooses the same action
    at ``fail_step``."""

    plan: CandidatePlan
    fail_step: int


Constraint = Union[Initial, Transition, Goal, Blocking]


def initial_constraint(step: int, b_init: Belief) -> Initial:
    return Initial(step, b_init)


def transition_constraint(prev_step: int, step: int) -> Transition:
    if step != prev_step + 1:
        raise ValueError("transition steps must be consecutive")
    return Transition(step)


def goal_constraint(start_step: int, end_step: int) -> Goal:
    if end_step < start_step:
        raise ValueError("goal steps must cover a contiguous, non-empty range")
    return Goal(start_step, end_step)


def blocking_constraint(plan: CandidatePlan, fail_step: int) -> Blocking:
    s = plan.start_step
    if not s + 1 <= fail_step <= plan.end_step:
        raise ValueError(f"fail step {fail_step} outside plan span {s + 1}..{plan.end_step}")
    return Blocking(plan, fail_step)


# --------------------------------------------------------------------------
# Lowering to the constraint AST
# --------------------------------------------------------------------------

def lower(constraint: Constraint, run: RunContext) -> Term:
    """The constraint as one term over the step variables of the run's model;
    a goal is lowered against the run's objective."""
    n = len(run.model.states)
    if isinstance(constraint, Initial):
        vars_s = step_vars(constraint.step, n, start=True)
        eqs = [Eq(v, RConst(constraint.belief[j])) for j, v in enumerate(vars_s.belief_vars)]
        return conj(eqs)
    if isinstance(constraint, Transition):
        # Only the belief variables of the previous step are read.
        prev = step_vars(constraint.step - 1, n, start=True)
        return _transition_term(prev, step_vars(constraint.step, n), run.model)
    if isinstance(constraint, Goal):
        all_vars = [step_vars(i, n, start=i == constraint.start_step)
                    for i in range(constraint.start_step, constraint.end_step + 1)]
        return _goal_term(all_vars, run.objective)
    if isinstance(constraint, Blocking):
        return _blocking_term(constraint.plan, constraint.fail_step)
    raise TypeError(f"cannot lower {constraint!r}")


def _action_select(action_var: IVar, entries: dict[int, Fraction]) -> Term:
    """If-then-else chain resolving to the entry of the chosen action, else 0."""
    term: Term = RConst(Fraction(0))
    for a in sorted(entries, reverse=True):
        term = Ite(Eq(action_var, IConst(a)), RConst(entries[a]), term)
    return term


def _obs_select(
    action_var: IVar, obs_var: IVar, entries: dict[tuple[int, int], Fraction]
) -> Term:
    """If-then-else chain over (action, observation) pairs, else 0."""
    term: Term = RConst(Fraction(0))
    for a, o in sorted(entries, reverse=True):
        cond = And((Eq(action_var, IConst(a)), Eq(obs_var, IConst(o))))
        term = Ite(cond, RConst(entries[(a, o)]), term)
    return term


def _transition_term(prev: StepVars, cur: StepVars, model: Pomdp) -> Term:
    """Division-free unfolding of the belief transition at step ``cur``.

    Encodes u_i(s') = Z(s', a_i, o_i) * sum_s T(s, a_i, s') * b_{i-1}(s),
    denom_i = sum u_i, denom_i > 0 and b_i(s') * denom_i = u_i(s'), with the
    selector domains, per-action availability and the (redundant but
    solver-friendly) simplex constraints on b_i.
    """
    assert cur.action_var and cur.observation_var and cur.unnorm_vars and cur.denom_var
    n = len(model.states)
    a_var, o_var = cur.action_var, cur.observation_var
    parts: list[Term] = [
        Le(IConst(0), a_var),
        Lt(a_var, IConst(len(model.actions))),
        Le(IConst(0), o_var),
        Lt(o_var, IConst(len(model.observations))),
    ]

    # An action may be selected only when the previous belief's support lies
    # entirely inside the states where the action exists.
    if model.availability is not None:
        everywhere = frozenset(range(n))
        for a in range(len(model.actions)):
            states = model.action_states(a)
            if states == everywhere:
                continue
            mass = Add(tuple(prev.belief_vars[s] for s in sorted(states))) \
                if states else RConst(Fraction(0))
            parts.append(disj([Not(Eq(a_var, IConst(a))), Eq(mass, RConst(Fraction(1)))]))

    for s2 in range(n):
        pushed_terms: list[Term] = []
        for s in range(n):
            t_entries = {
                a: model.trans_dist(s, a)[s2]
                for a in range(len(model.actions))
                if model.trans_dist(s, a).get(s2)
            }
            if t_entries:
                pushed_terms.append(Mul((_action_select(a_var, t_entries),
                                         prev.belief_vars[s])))
        z_entries = {
            (a, o): p
            for a in range(len(model.actions))
            for o, p in model.obs_dist(s2, a).items()
            if p
        }
        if pushed_terms and z_entries:
            rhs: Term = Mul((_obs_select(a_var, o_var, z_entries),
                             Add(tuple(pushed_terms)) if len(pushed_terms) > 1 else pushed_terms[0]))
        else:
            rhs = RConst(Fraction(0))
        parts.append(Eq(cur.unnorm_vars[s2], rhs))

    parts.append(Eq(cur.denom_var, Add(cur.unnorm_vars)))
    parts.append(Lt(RConst(Fraction(0)), cur.denom_var))
    for s2 in range(n):
        parts.append(Eq(Mul((cur.belief_vars[s2], cur.denom_var)), cur.unnorm_vars[s2]))
    parts.append(Eq(Add(cur.belief_vars), RConst(Fraction(1))))
    for s2 in range(n):
        parts.append(Le(RConst(Fraction(0)), cur.belief_vars[s2]))

    return conj(parts)


def predicate_term(pred: LinearBeliefPredicate, belief_vars: Sequence[RVar]) -> Term:
    members = sorted(pred.state_set)
    mass: Term = belief_vars[members[0]] if len(members) == 1 \
        else Add(tuple(belief_vars[j] for j in members))
    threshold = RConst(pred.threshold)
    if pred.comparator == ">":
        return Lt(threshold, mass)
    if pred.comparator == "<":
        return Lt(mass, threshold)
    if pred.comparator == ">=":
        return Le(threshold, mass)
    return Le(mass, threshold)


def _goal_term(all_vars: Sequence[StepVars], objective: SafeReachObjective) -> Term:
    """One disjunct per step i: the step-i belief is a goal belief and every
    belief strictly before i is safe."""
    disjuncts: list[Term] = []
    for i, vars_i in enumerate(all_vars):
        clauses = [predicate_term(p, vars_i.belief_vars) for p in objective.goal]
        for vars_j in all_vars[:i]:
            clauses.extend(predicate_term(p, vars_j.belief_vars) for p in objective.safe)
        disjuncts.append(conj(clauses))
    return disj(disjuncts)


def _blocking_term(plan: CandidatePlan, fail_step: int) -> Term:
    """Belief equality is kept even though beliefs are determined by the
    prefix; it is redundant but exact."""
    s = plan.start_step
    n = len(plan.beliefs[0])
    clauses: list[Term] = [
        Eq(RVar(belief_var_name(s, j)), RConst(plan.beliefs[0][j])) for j in range(n)
    ]
    for m_step in range(s + 1, fail_step):
        idx = m_step - s - 1
        clauses.append(Eq(IVar(action_var_name(m_step)), IConst(plan.actions[idx])))
        clauses.append(Eq(IVar(observation_var_name(m_step)), IConst(plan.observations[idx])))
        belief = plan.beliefs[idx + 1]
        clauses.extend(
            Eq(RVar(belief_var_name(m_step, j)), RConst(belief[j])) for j in range(n))
    clauses.append(
        Eq(IVar(action_var_name(fail_step)), IConst(plan.actions[fail_step - s - 1])))
    return Not(conj(clauses))
