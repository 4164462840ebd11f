"""Independent oracles the tests check the library against.

Everything here is deliberately naive: direct recursion, dense matrix
arithmetic, exhaustive enumeration.  None of it shares code paths with the
encoding, the solver backends or the synthesis loops.
"""

from __future__ import annotations

import random
from fractions import Fraction

from safereach.core import (
    Belief,
    LinearBeliefPredicate,
    PolicyTree,
    Pomdp,
    SafeReachObjective,
)
from safereach.refsolver import CONFLICT, SmtSyntaxError


def dense_matrix_update(belief: Belief, action: int, observation: int, model: Pomdp):
    """Matrix-form belief update: dense push-forward, then weight and normalize."""
    n = len(model.states)
    t_matrix = [[model.trans_dist(s, action).get(s2, Fraction(0)) for s2 in range(n)]
                for s in range(n)]
    pushed = [sum(belief[s] * t_matrix[s][s2] for s in range(n)) for s2 in range(n)]
    weighted = [model.obs_dist(s2, action).get(observation, Fraction(0)) * pushed[s2]
                for s2 in range(n)]
    total = sum(weighted)
    if total == 0:
        return None
    return Belief(tuple(w / total for w in weighted))


def brute_force_feasible(
    model: Pomdp,
    objective: SafeReachObjective,
    belief: Belief,
    budget: int,
    _memo: dict | None = None,
) -> bool:
    """Does a valid policy tree of height <= budget exist from this belief?

    Direct recursion on the objective semantics: a goal belief is done
    (regardless of its own safety); otherwise the belief must be safe and
    some available action must work for every possible observation.
    """
    if _memo is None:
        _memo = {}
    key = (belief.probs, budget)
    if key in _memo:
        return _memo[key]
    if objective.is_goal(belief):
        _memo[key] = True
        return True
    result = False
    if budget > 0 and objective.is_safe(belief):
        for action in range(len(model.actions)):
            support = belief.support()
            if any(action not in model.allowed_actions(s) for s in support):
                continue
            branches_ok = True
            any_branch = False
            for obs in range(len(model.observations)):
                child = _posterior(belief, action, obs, model)
                if child is None:
                    continue
                any_branch = True
                if not brute_force_feasible(model, objective, child, budget - 1, _memo):
                    branches_ok = False
                    break
            if any_branch and branches_ok:
                result = True
                break
    _memo[key] = result
    return result


def _posterior(belief: Belief, action: int, obs: int, model: Pomdp):
    return dense_matrix_update(belief, action, obs, model)


def enumerate_plans(model: Pomdp, belief: Belief, length: int):
    """Every (actions, observations, beliefs) sequence of exactly ``length``
    steps with positive probability, action availability respected."""
    if length == 0:
        yield (), (), (belief,)
        return
    for a in range(len(model.actions)):
        if any(a not in model.allowed_actions(s) for s in belief.support()):
            continue
        for o in range(len(model.observations)):
            child = _posterior(belief, a, o, model)
            if child is None:
                continue
            for acts, obss, bels in enumerate_plans(model, child, length - 1):
                yield (a,) + acts, (o,) + obss, (belief,) + bels


def satisfies_bounded(beliefs, objective: SafeReachObjective) -> bool:
    """Formula-2 semantics on a belief sequence, computed the obvious way."""
    for i, b in enumerate(beliefs):
        if objective.is_goal(b) and all(objective.is_safe(p) for p in beliefs[:i]):
            return True
    return False


def all_plans(model: Pomdp, objective: SafeReachObjective, b_init: Belief, horizon: int):
    """Every (actions, observations) pair of exactly ``horizon`` steps from
    ``b_init`` whose actions are available, whose observations are possible
    and which reach a goal belief with only safe beliefs before it."""
    return {(actions, observations)
            for actions, observations, beliefs in enumerate_plans(model, b_init, horizon)
            if satisfies_bounded(beliefs, objective)}


# --------------------------------------------------------------------------
# Constraint AST evaluation under a complete assignment
# --------------------------------------------------------------------------

def eval_term(text: str, env):
    """Evaluate SMT-LIB term text under a complete variable assignment.

    A reader of its own, as naive as the rest of this file: parentheses split
    the text into nested lists, every other token is a variable of ``env``,
    ``true``/``false`` or a numeral or decimal.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()

    def parse(pos):
        if tokens[pos] != "(":
            return tokens[pos], pos + 1
        items, pos = [], pos + 1
        while tokens[pos] != ")":
            item, pos = parse(pos)
            items.append(item)
        return items, pos + 1

    tree, end = parse(0)
    assert end == len(tokens), f"trailing text after the term: {text!r}"
    return _eval(tree, env)


def _eval(node, env):
    if isinstance(node, str):
        if node in env:
            return env[node]
        if node in ("true", "false"):
            return node == "true"
        return Fraction(node)
    op, args = node[0], node[1:]
    if op == "and":
        return all(_eval(a, env) for a in args)
    if op == "or":
        return any(_eval(a, env) for a in args)
    if op == "ite":
        return _eval(args[1] if _eval(args[0], env) else args[2], env)
    values = [_eval(a, env) for a in args]
    if op == "not":
        return not values[0]
    if op == "+":
        return sum(values)
    if op == "*":
        out = Fraction(1)
        for v in values:
            out *= v
        return out
    if op == "-":
        return -values[0] if len(values) == 1 else values[0] - sum(values[1:])
    if op == "/":
        return Fraction(values[0]) / values[1]
    if op == "=":
        return values[0] == values[1]
    if op == "<=":
        return values[0] <= values[1]
    if op == "<":
        return values[0] < values[1]
    raise ValueError(f"unknown operator {op!r}")


def transition_env(prev_belief: Belief, cur_belief: Belief, action: int, obs: int,
                   model: Pomdp, prev_step: int, cur_step: int):
    """A complete assignment for one transition step, from first principles."""
    from safereach import encoding as enc

    n = len(model.states)
    env = {enc.action_var_name(cur_step): action, enc.observation_var_name(cur_step): obs}
    for j in range(n):
        env[enc.belief_var_name(prev_step, j)] = prev_belief[j]
        env[enc.belief_var_name(cur_step, j)] = cur_belief[j]
    pushed = [sum(prev_belief[s] * model.trans_dist(s, action).get(s2, Fraction(0))
                  for s in range(n)) for s2 in range(n)]
    unnorm = [model.obs_dist(s2, action).get(obs, Fraction(0)) * pushed[s2]
              for s2 in range(n)]
    for j in range(n):
        env[enc.unnorm_var_name(cur_step, j)] = unnorm[j]
    env[enc.denom_var_name(cur_step)] = sum(unnorm)
    return env


# --------------------------------------------------------------------------
# Three-valued evaluation and single-unknown equation solving of interned
# terms, under a partial assignment
# --------------------------------------------------------------------------

def evaluate(term, env):
    """Evaluate an interned term under a partial assignment; ``None`` = unknown.

    A plain recursive interpreter of the terms ``refsolver.parse_tokens``
    reads, wider than the fragment the bundled solver compiles: the oracle
    its compiled closures are tested against."""
    if isinstance(term, str):
        return env.get(term)
    if isinstance(term, (bool, int, Fraction)):
        return term
    if not isinstance(term, tuple) or not term:
        raise SmtSyntaxError(f"cannot evaluate {term!r}")
    head = term[0]
    args = term[1:]
    if head == "and":
        saw_unknown = False
        for a in args:
            v = evaluate(a, env)
            if v is False:
                return False
            if v is None:
                saw_unknown = True
        return None if saw_unknown else True
    if head == "or":
        saw_unknown = False
        for a in args:
            v = evaluate(a, env)
            if v is True:
                return True
            if v is None:
                saw_unknown = True
        return None if saw_unknown else False
    if head == "not":
        v = evaluate(args[0], env)
        return None if v is None else not v
    if head == "=>":
        # right-associative: (=> a b c) is (=> a (=> b c)), folded from the right
        out = evaluate(args[-1], env)
        for premise in reversed(args[:-1]):
            if out is not True:
                lhs = evaluate(premise, env)
                out = True if lhs is False else out if lhs is True else None
        return out
    if head == "ite":
        cond = evaluate(args[0], env)
        if cond is None:
            return None
        return evaluate(args[1] if cond else args[2], env)
    if head in ("=", "<", "<=", ">", ">="):
        vals = [evaluate(a, env) for a in args]
        if any(v is None for v in vals):
            return None
        if head == "=":
            return all(v == vals[0] for v in vals[1:])
        for left, right in zip(vals, vals[1:]):
            if head == "<" and not left < right:
                return False
            if head == "<=" and not left <= right:
                return False
            if head == ">" and not left > right:
                return False
            if head == ">=" and not left >= right:
                return False
        return True
    if head in ("+", "*", "-", "/"):
        vals = [evaluate(a, env) for a in args]
        if head == "*" and any(v == 0 for v in vals):
            return 0  # annihilator: sound even with unknown cofactors
        if any(v is None for v in vals):
            return None
        if head == "+":
            return sum(vals)
        if head == "*":
            out = vals[0]
            for v in vals[1:]:
                out = out * v
            return out
        if head == "-":
            if len(vals) == 1:
                return -vals[0]
            out = vals[0]
            for v in vals[1:]:
                out = out - v
            return out
        if any(v == 0 for v in vals[1:]):
            return None  # division by zero: stay agnostic
        out = Fraction(vals[0])
        for v in vals[1:]:
            out = out / v
        return out
    raise SmtSyntaxError(f"unsupported operator {head!r}")


def solve_equation(lhs, rhs, env):
    """Try to determine one variable from ``lhs = rhs``.

    Returns ``None`` (no progress), ``CONFLICT``, or ``(name, value)``.
    Handles a bare variable, or a variable inside a single +, - or * whose
    other operands are already known.
    """
    lval = evaluate(lhs, env)
    rval = evaluate(rhs, env)
    if lval is not None and rval is not None:
        return None  # fully known; plain evaluation decides it
    if lval is None and rval is None:
        return None
    expr, target = (lhs, rval) if lval is None else (rhs, lval)
    return _solve_side(expr, target, env)


def _solve_side(expr, target, env):
    if isinstance(expr, str):
        return (expr, target)
    if not isinstance(expr, tuple) or not expr:
        return None
    head, args = expr[0], expr[1:]
    if head == "*":
        known = Fraction(1)
        unknown = None
        for a in args:
            v = evaluate(a, env)
            if v is None:
                if unknown is not None:
                    return None
                unknown = a
            else:
                known *= v
        if unknown is None:
            return None
        if known == 0:
            return None if target == 0 else CONFLICT
        return _solve_side(unknown, target / known, env)
    if head == "+":
        known = Fraction(0)
        unknown = None
        for a in args:
            v = evaluate(a, env)
            if v is None:
                if unknown is not None:
                    return None
                unknown = a
            else:
                known += v
        if unknown is None:
            return None
        return _solve_side(unknown, target - known, env)
    if head == "-" and len(args) == 1:
        return _solve_side(args[0], -target, env)
    if head == "-" and len(args) == 2:
        left = evaluate(args[0], env)
        right = evaluate(args[1], env)
        if left is None and right is not None:
            return _solve_side(args[0], target + right, env)
        if right is None and left is not None:
            return _solve_side(args[1], left - target, env)
    return None


def term_vars(term, acc: set) -> set:
    """Add the variables of ``term`` to ``acc``; a list's operator is none."""
    if isinstance(term, str):
        acc.add(term)
    elif isinstance(term, tuple):
        for part in term[1:] if term and isinstance(term[0], str) else term:
            term_vars(part, acc)
    return acc


# --------------------------------------------------------------------------
# Randomized model suite
# --------------------------------------------------------------------------

GOAL_THRESHOLDS = (Fraction(1, 2), Fraction(3, 5), Fraction(7, 10), Fraction(4, 5))
SAFE_THRESHOLDS = (Fraction(1, 5), Fraction(3, 10), Fraction(2, 5))


def random_instance(rng: random.Random, max_states: int = 5, max_actions: int = 3,
                    max_obs: int = 2, max_horizon: int = 4):
    """A random small synthesis problem (model, initial belief, objective, horizon)."""
    n = rng.randint(2, max_states)
    na = rng.randint(2, max_actions)
    no = rng.randint(1, max_obs)
    states = tuple(f"s{i}" for i in range(n))
    actions = tuple(f"a{i}" for i in range(na))
    observations = tuple(f"o{i}" for i in range(no))
    transition = {}
    observe = {}
    for s in range(n):
        for a in range(na):
            succs = rng.sample(range(n), rng.randint(1, min(3, n)))
            weights = [rng.randint(1, 4) for _ in succs]
            total = sum(weights)
            transition[(s, a)] = {s2: Fraction(w, total) for s2, w in zip(succs, weights)}
    for s2 in range(n):
        for a in range(na):
            weights = [rng.randint(0, 3) for _ in range(no)]
            if sum(weights) == 0:
                weights[rng.randrange(no)] = 1
            total = sum(weights)
            observe[(s2, a)] = {o: Fraction(w, total) for o, w in enumerate(weights) if w}
    model = Pomdp(states, actions, observations, transition, observe)
    b_init = Belief.point(0, n)
    goal_set = frozenset(rng.sample(range(n), rng.randint(1, 2)))
    safe_set = frozenset(rng.sample(range(n), rng.randint(1, 2)))
    objective = SafeReachObjective(
        (LinearBeliefPredicate(goal_set, ">", rng.choice(GOAL_THRESHOLDS)),),
        (LinearBeliefPredicate(safe_set, "<", rng.choice(SAFE_THRESHOLDS)),),
    )
    horizon = rng.randint(1, max_horizon)
    return model, b_init, objective, horizon


def relabel_states(model: Pomdp, b_init: Belief, objective: SafeReachObjective,
                   perm: list[int]):
    """The same problem with state ``s`` renamed ``perm[s]``: an isomorphic
    input, on which synthesis must do the same work."""
    states = [""] * len(perm)
    for s, name in enumerate(model.states):
        states[perm[s]] = name
    transition = {(perm[s], a): {perm[s2]: p for s2, p in row.items()}
                  for (s, a), row in model.transition.items()}
    observe = {(perm[s2], a): row for (s2, a), row in model.observe.items()}
    availability = None if model.availability is None else \
        {perm[s]: acts for s, acts in model.availability.items()}

    def move(pred: LinearBeliefPredicate) -> LinearBeliefPredicate:
        return LinearBeliefPredicate(frozenset(perm[s] for s in pred.state_set),
                                     pred.comparator, pred.threshold)

    return (Pomdp(tuple(states), model.actions, model.observations, transition, observe,
                  availability),
            relabel_belief(b_init, perm),
            SafeReachObjective(tuple(map(move, objective.goal)),
                               tuple(map(move, objective.safe))))


def relabel_belief(belief: Belief, perm: list[int]) -> Belief:
    probs = [Fraction(0)] * len(perm)
    for s, p in enumerate(belief.probs):
        probs[perm[s]] = p
    return Belief(tuple(probs))


def relabel_policy(tree: PolicyTree, perm: list[int]) -> PolicyTree:
    """``tree`` with every belief's states renamed ``perm[s]``."""
    return PolicyTree(relabel_belief(tree.belief, perm), tree.action,
                      {o: relabel_policy(child, perm) for o, child in tree.children.items()},
                      tree.goal_reached)


def relabel_actions(model: Pomdp, perm: list[int]) -> Pomdp:
    """The same model with action ``a`` renamed ``perm[a]``."""
    actions = [""] * len(perm)
    for a, name in enumerate(model.actions):
        actions[perm[a]] = name
    transition = {(s, perm[a]): row for (s, a), row in model.transition.items()}
    observe = {(s2, perm[a]): row for (s2, a), row in model.observe.items()}
    availability = None if model.availability is None else \
        {s: frozenset(perm[a] for a in acts) for s, acts in model.availability.items()}
    return Pomdp(model.states, tuple(actions), model.observations, transition, observe,
                 availability)


def relabel_observations(model: Pomdp, perm: list[int]) -> Pomdp:
    """The same model with observation ``o`` renamed ``perm[o]``."""
    observations = [""] * len(perm)
    for o, name in enumerate(model.observations):
        observations[perm[o]] = name
    observe = {key: {perm[o]: p for o, p in row.items()} for key, row in model.observe.items()}
    return Pomdp(model.states, model.actions, tuple(observations), model.transition, observe,
                 model.availability)


def pad_with_unreachable_state(model: Pomdp, b_init: Belief, objective: SafeReachObjective):
    """The same problem with one more state, last: it has no initial mass,
    loops to itself under every action (all of them available where the model
    has masks), always shows the first observation and is in no predicate, so
    no belief of a run ever holds it."""
    pad = len(model.states)
    transition = dict(model.transition)
    observe = dict(model.observe)
    for a in range(len(model.actions)):
        transition[(pad, a)] = {pad: Fraction(1)}
        observe[(pad, a)] = {0: Fraction(1)}
    availability = None if model.availability is None else \
        {**model.availability, pad: frozenset(range(len(model.actions)))}
    states = model.states + ("_unreachable",)
    return (Pomdp(states, model.actions, model.observations, transition, observe, availability),
            Belief(b_init.probs + (Fraction(0),)),
            objective)


def drop_last_state(tree: PolicyTree) -> PolicyTree:
    """``tree`` with the last state, which no belief holds, removed from
    every belief."""
    assert tree.belief.probs[-1] == 0
    return PolicyTree(Belief(tree.belief.probs[:-1]), tree.action,
                      {o: drop_last_state(child) for o, child in tree.children.items()},
                      tree.goal_reached)
