"""Built-in exact enumerative backend.

Interprets the constraints as the plain data they are — it never lowers them
to terms and starts no external process — by depth-first search over
action/observation sequences with exact belief updates.  A satisfying model
assigns the belief, action and observation variables of every step, which
is all :func:`~.session.extract_plan` reads.  It serves as the independent
oracle for the symbolic pipeline and as a fast default backend.

Determinism: candidates are explored action index ascending, then
observation index ascending, so the first satisfying plan is the
lexicographically smallest one.  An internal memo of fruitless
(belief, steps-remaining) pairs prunes repeated subtrees; entries are only
recorded on blocking-free subtrees, which keeps them sound to reuse under
any blocking set, and they stay valid across horizons, so sessions over the
same model may share one memo (the ``fruitless`` constructor argument).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

from ..core import (
    Belief,
    Pomdp,
    SafeReachObjective,
    available_actions,
    successors,
)
from ..encoding import (
    Blocking,
    Goal,
    Initial,
    Transition,
    action_var_name,
    belief_var_name,
    goal_constraint,
    initial_constraint,
    observation_var_name,
    transition_constraint,
)
from .session import Sat, SatResult, SolverSession, SolverUsageError, Unsat

# (objective, belief probs, steps remaining) proven to admit no
# goal-satisfying completion; see the module docstring for soundness.
FruitlessCache = set[tuple[SafeReachObjective, tuple[Fraction, ...], int]]


class EnumerativeSession(SolverSession):
    """Searches the bounded structure its constraints describe."""

    def __init__(self, model: Pomdp, fruitless: Optional[FruitlessCache] = None) -> None:
        super().__init__(model)
        self._fruitless: FruitlessCache = set() if fruitless is None else fruitless

    # -- structure assembly --------------------------------------------------

    def _assemble(self):
        by_type: dict[type, list] = {Initial: [], Transition: [], Goal: [], Blocking: []}
        for c in self._live():
            by_type[type(c)].append(c)
        initials, transitions, goals, blocks = by_type.values()
        if len(initials) != 1:
            raise SolverUsageError("exactly one initial-belief constraint is required")
        start = initials[0].step
        steps = sorted(t.step for t in transitions)
        if steps != list(range(start + 1, start + 1 + len(steps))):
            raise SolverUsageError("transition steps must be contiguous from the start step")
        horizon = start + len(steps)
        for g in goals:
            if g.start_step != start or g.end_step > horizon:
                raise SolverUsageError("goal constraint span does not match the unfolding")
        for bl in blocks:
            if bl.plan.start_step != start or bl.fail_step > horizon:
                raise SolverUsageError("blocking constraint does not match the unfolding")
        return initials[0].belief, start, horizon, goals, blocks

    # -- the search ------------------------------------------------------------

    def check(self) -> SatResult:
        self._guard()
        belief, start, horizon, goals, blocks = self._assemble()
        trail = self._search(belief, start, horizon, goals, blocks)
        if trail is None:
            return Unsat()
        return Sat(self._to_model(belief, start, trail))

    def _search(self, b0: Belief, start: int, horizon: int,
                goals: Sequence[Goal], blocks: Sequence[Blocking]):
        model = self.model
        fired0 = []
        for g in goals:
            if g.objective.is_goal(b0):
                fired0.append(True)
            elif not g.objective.is_safe(b0) or g.end_step <= start:
                return None  # can never fire on this branch
            else:
                fired0.append(False)
        live0 = [bl for bl in blocks if bl.plan.beliefs[0] == b0]
        memo_goal = goals[0] if len(goals) == 1 and goals[0].end_step == horizon else None

        def recurse(belief: Belief, step: int, trail: list, live: list, fired: tuple):
            if step == horizon:
                return list(trail) if all(fired) else None
            if memo_goal is not None and not fired[0] \
                    and (memo_goal.objective, belief.probs, horizon - step) in self._fruitless:
                return None
            for a in available_actions(model, belief):
                if any(bl.fail_step == step + 1
                       and bl.plan.actions[step - bl.plan.start_step] == a
                       for bl in live):
                    continue  # the blocked prefix ends exactly here
                for o, (_, b2) in successors(belief, a, model).items():
                    new_fired = []
                    dead = False
                    for g, was_fired in zip(goals, fired):
                        if was_fired:
                            new_fired.append(True)
                            continue
                        if g.objective.is_goal(b2) and step + 1 <= g.end_step:
                            new_fired.append(True)
                            continue
                        new_fired.append(False)
                        if not g.objective.is_safe(b2) or step + 1 >= g.end_step:
                            dead = True
                            break
                    if dead:
                        continue
                    next_live = [
                        bl for bl in live
                        if bl.fail_step > step + 1
                        and bl.plan.actions[step - bl.plan.start_step] == a
                        and bl.plan.observations[step - bl.plan.start_step] == o
                        and bl.plan.beliefs[step - bl.plan.start_step + 1] == b2
                    ]
                    trail.append((a, o, b2))
                    found = recurse(b2, step + 1, trail, next_live, tuple(new_fired))
                    trail.pop()
                    if found is not None:
                        return found
            if memo_goal is not None and not fired[0] and not live:
                self._fruitless.add((memo_goal.objective, belief.probs, horizon - step))
            return None

        return recurse(b0, start, [], live0, tuple(fired0))

    def _to_model(self, b0: Belief, start: int, trail) -> dict:
        out: dict[str, Union[Fraction, int]] = {}
        for j, p in enumerate(b0.probs):
            out[belief_var_name(start, j)] = p
        for offset, (a, o, b2) in enumerate(trail):
            step = start + offset + 1
            out[action_var_name(step)] = a
            out[observation_var_name(step)] = o
            for j, p in enumerate(b2.probs):
                out[belief_var_name(step, j)] = p
        return out


def enumerative_check(
    model: Pomdp,
    b_init: Belief,
    start: int,
    horizon: int,
    objective: SafeReachObjective,
    blocks: Sequence[Blocking] = (),
) -> SatResult:
    """One-shot satisfiability of the bounded structure, for tests and tools."""
    session = EnumerativeSession(model)
    session.add(initial_constraint(start, b_init))
    for step in range(start + 1, horizon + 1):
        session.add(transition_constraint(step - 1, step))
    session.add(goal_constraint(start, horizon, objective))
    for bl in blocks:
        session.add(bl)
    return session.check()
