"""Built-in exact enumerative backend.

Interprets the constraints as the plain data they are — it never lowers them
to terms and starts no external process — by depth-first search over
action/observation sequences with exact belief updates.  A satisfying check
answers with the plan the search holds, whose posteriors are the run's own
cached beliefs; it never names an SMT variable.  It serves as the
independent oracle for the symbolic pipeline and as a fast default backend.
It takes the shape ``bps`` sends: goals spanning the whole unfolding, which
all say the same thing, as the objective is the run's (with none, any
full-length path satisfies).

Determinism: candidates are explored action index ascending, then
observation index ascending, so the first satisfying plan is the
lexicographically smallest one.  Successors come from the session's
:class:`~safereach.core.RunContext` with each posterior's step-free class,
which the search reads with its own ``step < horizon`` test, never
re-evaluating a predicate.  The run's ``fruitless`` set of (belief,
steps-remaining) pairs prunes repeated subtrees of branches that have not
reached the goal yet.  As the goal ends at the horizon, only the blocks live
in a subtree can change its answer, and entries are only recorded on
blocking-free subtrees; so they stay sound under any blocking set and at any
horizon.  A live :class:`~safereach.encoding.DeadAction` skips its pair at a
node not yet fired with at most its budget left, at one lookup per node; as
it can empty a subtree, ``fruitless`` is shared only under the run's lemmas.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import Belief, CandidatePlan, Pomdp, RunContext, SafeReachObjective
from ..encoding import (Blocking, DeadAction, Goal, goal_constraint, initial_constraint,
                        transition_constraint)
from .session import Sat, SatResult, SolverSession, SolverUsageError, Unsat


class EnumerativeSession(SolverSession):
    """Searches the bounded structure its constraints describe."""

    # -- structure assembly --------------------------------------------------

    def _assemble(self):
        belief, start, horizon = self._unfolding()
        goals = [c for c, _ in self._live() if isinstance(c, Goal)]
        blocks = [c for c, _ in self._live() if isinstance(c, Blocking)]
        lemmas = [c for c, _ in self._live() if isinstance(c, DeadAction)]
        for g in goals:
            if g.start_step != start or g.end_step != horizon:
                raise SolverUsageError("goal constraint must span the whole unfolding")
        for bl in blocks:
            if bl.plan.start_step != start:  # adding it checked its other steps
                raise SolverUsageError("blocking constraint does not match the unfolding")
        return belief, start, horizon, bool(goals), blocks, lemmas

    # -- the search ------------------------------------------------------------

    def check(self) -> SatResult:
        self._guard()
        belief, start, horizon, goal, blocks, lemmas = self._assemble()
        trail = self._search(belief, start, horizon, goal, blocks, lemmas)
        if trail is None:
            return Unsat()
        actions, observations, posteriors = zip(*trail) if trail else ((), (), ())
        return Sat(CandidatePlan(start, (belief, *posteriors), actions, observations))

    def _search(self, b0: Belief, start: int, horizon: int, goal: bool,
                blocks: Sequence[Blocking], lemmas: Sequence[DeadAction]):
        run = self.run
        fruitless = run.fruitless if lemmas == run.dead_actions else set()
        dead: dict[Belief, dict[int, int]] = {}  # belief -> action -> largest budget
        for lemma in lemmas:
            budgets = dead.setdefault(lemma.belief, {})
            budgets[lemma.action] = max(lemma.budget, budgets.get(lemma.action, -1))
        available_actions = run.model.available_actions

        def status(is_goal: bool, is_safe: bool, step: int) -> Optional[bool]:
            """True at a goal belief, False on a safe one with steps left,
            None when the branch can no longer reach the goal."""
            if is_goal:
                return True
            if is_safe and step < horizon:
                return False
            return None

        def recurse(belief: Belief, step: int, trail: list, live: list, fired: bool):
            if step == horizon:
                return list(trail)  # a branch only gets here once it has fired
            key = (belief, horizon - step)
            if not fired and key in fruitless:
                return None
            dead_here = dead.get(belief) if dead and not fired else None
            i = step - start
            for a in available_actions(belief):
                if dead_here is not None and dead_here.get(a, -1) >= horizon - step:
                    continue  # a dead pair with at most its budget left
                if any(bl.fail_step == step + 1 and bl.plan.actions[i] == a for bl in live):
                    continue  # the blocked prefix ends exactly here
                for o, b2, is_goal, is_safe in run.successors(belief, a):
                    fired2 = fired or status(is_goal, is_safe, step + 1)
                    if fired2 is None:
                        continue
                    next_live = [
                        bl for bl in live
                        if bl.fail_step > step + 1
                        and bl.plan.actions[i] == a
                        and bl.plan.observations[i] == o
                        and bl.plan.beliefs[i + 1] == b2
                    ]
                    trail.append((a, o, b2))
                    found = recurse(b2, step + 1, trail, next_live, fired2)
                    trail.pop()
                    if found is not None:
                        return found
            if not fired and not live:
                fruitless.add(key)
            return None

        fired = not goal or status(*run.classify(b0)[1:], start)
        if fired is None:
            return None
        live = [bl for bl in blocks if bl.plan.beliefs[0] == b0]
        return recurse(b0, start, [], live, fired)


def enumerative_check(
    model: Pomdp,
    b_init: Belief,
    start: int,
    horizon: int,
    objective: SafeReachObjective,
    blocks: Sequence[Blocking] = (),
) -> SatResult:
    """One-shot satisfiability of the bounded structure, for tests and tools."""
    session = EnumerativeSession(RunContext(model, objective))
    session.add(initial_constraint(start, b_init))
    for step in range(start + 1, horizon + 1):
        session.add(transition_constraint(step - 1, step))
    session.add(goal_constraint(start, horizon))
    for bl in blocks:
        session.add(bl)
    return session.check()
