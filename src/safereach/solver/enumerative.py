"""Built-in exact enumerative backend.

Interprets the constraints as the plain data they are — it never lowers them
to terms and starts no external process — by depth-first search over
action/observation sequences with exact belief updates.  A satisfying check
answers with the plan the search holds, whose posteriors are the run's own
cached beliefs; it never names an SMT variable.  It serves as the
independent oracle for the symbolic pipeline and as a fast default backend.
Every goal spans the whole unfolding (the session refuses any other), so
all say the same thing, as the objective is the run's (with none, any
full-length path satisfies).

Determinism: candidates are explored action index ascending, then
observation index ascending, so the first satisfying plan is the
lexicographically smallest one.  Successors come from the session's
:class:`~safereach.core.RunContext` with each posterior's step-free class,
read with the search's own ``step < horizon`` test.  A node not yet fired is
skipped when its support cannot win in the steps left (``RunContext.wins``):
the support game over-approximates the belief space, so only subtrees with
no satisfying path go and the first plan is the same.  While a goal is live,
each of the run's lemmas skips its pair at such a node with at most its
budget left, by one lookup in ``run.dead``, so a check costs nothing per
lemma.  No block is sent: its lemma implies it, and a larger horizon leaves
more steps than its budget.  The run's ``fruitless`` (belief, steps-remaining)
pairs are recorded on every unfired subtree with no path: lemmas only grow
and are keyed by steps left, so such a subtree stays without one.
"""

from __future__ import annotations

from typing import Optional

from ..core import Belief, CandidatePlan, Pomdp, RunContext, SafeReachObjective
from ..encoding import goal_constraint, initial_constraint, transition_constraint
from .session import Sat, SatResult, SolverSession, Unsat


class EnumerativeSession(SolverSession):
    """Searches the bounded structure its constraints describe."""

    def check(self) -> SatResult:
        self._guard()
        belief, start, horizon = self._unfolding()
        trail = self._search(belief, start, horizon, self._goal is not None)
        if trail is None:
            return Unsat()
        actions, observations, posteriors = zip(*trail) if trail else ((), (), ())
        return Sat(CandidatePlan(start, (belief, *posteriors), actions, observations))

    def _search(self, b0: Belief, start: int, horizon: int, goal: bool):
        run = self.run
        fruitless, dead = run.fruitless, run.dead
        available_actions, wins = run.model.available_actions, run.wins

        def status(is_goal: bool, is_safe: bool, step: int) -> Optional[bool]:
            """True at a goal belief, False on a safe one with steps left,
            None when the branch can no longer reach the goal."""
            if is_goal:
                return True
            if is_safe and step < horizon:
                return False
            return None

        def recurse(belief: Belief, step: int, trail: list, fired: bool):
            if step == horizon:
                return list(trail)  # a branch only gets here once it has fired
            key = (belief, horizon - step)
            if not fired and (key in fruitless or not wins(belief.indices, horizon - step)):
                return None  # no path from here meets the goal in the steps left
            dead_here = dead.get(belief) if dead and not fired else None
            for a in available_actions(belief):
                if dead_here is not None and dead_here.get(a, -1) >= horizon - step:
                    continue  # a dead pair with at most its budget left
                for o, b2, is_goal, is_safe in run.successors(belief, a):
                    fired2 = fired or status(is_goal, is_safe, step + 1)
                    if fired2 is None:
                        continue
                    trail.append((a, o, b2))
                    found = recurse(b2, step + 1, trail, fired2)
                    trail.pop()
                    if found is not None:
                        return found
            if not fired:
                fruitless.add(key)
            return None

        fired = not goal or status(*run.classify(b0)[1:], start)
        if fired is None:
            return None
        return recurse(b0, start, [], fired)


def enumerative_check(
    model: Pomdp,
    b_init: Belief,
    start: int,
    horizon: int,
    objective: SafeReachObjective,
) -> SatResult:
    """One-shot satisfiability of the bounded structure, for tests and tools."""
    session = EnumerativeSession(RunContext(model, objective))
    session.add(initial_constraint(start, b_init))
    for step in range(start + 1, horizon + 1):
        session.add(transition_constraint(step - 1, step))
    session.add(goal_constraint(start, horizon))
    return session.check()
