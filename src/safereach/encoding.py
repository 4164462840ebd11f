"""Symbolic encoding of the bounded goal-constrained search space.

A constraint is plain, immutable data saying what it asserts: the belief at
the start step, the belief transition into one step, or the bounded
safe-reachability goal of the run's objective over a span of steps.  A
:class:`Blocking` and a learned :class:`DeadAction` are records the run
keeps; each backend reads the run's lemmas itself.  The builders check their
arguments and return that data; the enumerative backend interprets it
directly, and the SMT-LIB backend lowers it to terms
(:func:`safereach.solver.smtlib.lower`).

The step variables are named here, and :func:`step_vars` is the lowering's
one source of them: belief components as reals and, for non-start steps,
the action and observation choice as bounded integers plus the
normalization auxiliaries.  Names are functions of step and state index
only, so identical inputs lower to identical terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .core import Belief, CandidatePlan


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
    """Solver variable names for one step: belief components plus, for
    non-start steps, the action/observation selectors and normalization
    auxiliaries."""

    step: int
    belief_vars: tuple[str, ...]
    action_var: Optional[str]
    observation_var: Optional[str]
    unnorm_vars: Optional[tuple[str, ...]]
    denom_var: Optional[str]


def step_vars(step: int, n_states: int, start: bool = False) -> StepVars:
    beliefs = tuple(belief_var_name(step, j) for j in range(n_states))
    if start:
        return StepVars(step, beliefs, None, None, None, None)
    return StepVars(
        step,
        beliefs,
        action_var_name(step),
        observation_var_name(step),
        tuple(unnorm_var_name(step, j) for j in range(n_states)),
        denom_var_name(step),
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
    """Record of a candidate whose completion failed at ``fail_step``, sent to
    no solver: the :class:`DeadAction` learned with it bans the prefix's last
    action at its belief with as many steps left, from any prefix, so it
    implies the block; a larger horizon leaves the prefix more steps than that."""

    plan: CandidatePlan
    fail_step: int


@dataclass(frozen=True)
class DeadAction:
    """Learned, and kept by the run (``RunContext.learn``), not sent as a
    constraint: no policy from ``belief`` within ``budget`` steps starts with
    ``action``, as its branch under ``witness_observation`` has none within
    ``budget - 1``; so no plan takes it before the goal with that few left."""

    belief: Belief
    action: int
    budget: int
    witness_observation: int


Constraint = Union[Initial, Transition, Goal]


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
