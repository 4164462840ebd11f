"""Bounded policy synthesis over the goal-constrained belief space.

The outer loop grows a horizon k from the start step, keeping the
initial-belief and transition constraints in the persistent solver scope and
the goal inside a pushed scope.  Each satisfying check
answers with a candidate plan; policy generation then tries to complete it
into a full observation-branching tree by recursively synthesizing every
off-plan branch.  A failed branch blocks the candidate's prefix for the
current horizon by the :class:`~.encoding.DeadAction` lemma it learns, which
implies the block; a lemma binds only with at most its budget left, so when
the horizon grows, previously blocked prefixes are revisited with the larger
budget.

Branch synthesis is bounded by the current horizon k (the bound the outer
loop hands to policy generation), not by the overall bound h; that is what
makes a lemma's budget meaningful.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import encoding
from .core import (
    Belief,
    BlockEvent,
    CandidatePlan,
    ModelError,
    PolicyTree,
    Pomdp,
    RunContext,
    SafeReachObjective,
    SynthesisStats,
)
from .solver import (
    EnumerativeSession,
    Sat,
    SmtLibSession,
    SolverConfig,
    SolverError,
    SolverPool,
    SolverSession,
    Unknown,
    Unsat,
    extract_plan,
)

log = logging.getLogger(__name__)

SessionFactory = Callable[[], SolverSession]


class SynthesisError(RuntimeError):
    """Synthesis could not finish; distinct from "no policy within the bound"."""


class EncodingSoundnessError(SynthesisError):
    """A solver's plan passed verification but does not satisfy the objective."""


@dataclass
class SynthesisConfig:
    horizon: int
    backend: str = "enum"  # "enum" or "smtlib"
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self) -> None:
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, int):
            raise ValueError(f"horizon must be an integer, got {self.horizon!r}")
        if self.horizon < 0:
            raise ValueError(f"horizon must be non-negative, got {self.horizon}")
        if self.backend not in ("enum", "smtlib"):
            raise ValueError(f"backend must be 'enum' or 'smtlib', got {self.backend!r}")


VERDICT_VALID = "valid"
VERDICT_NO_POLICY = "no-policy-within-bound"
VERDICT_ERROR = "error"


@dataclass
class SynthesisResult:
    verdict: str
    policy: Optional[PolicyTree]
    stats: SynthesisStats
    error: Optional[str] = None


_VERDICT_KIND = {Sat: "sat", Unsat: "unsat", Unknown: "unknown"}


def _truncate_at_goal(plan: CandidatePlan, run: RunContext) -> CandidatePlan:
    """Cut the plan at its first goal belief with all earlier ones safe, by the run's classes.

    Plans may pad beyond the goal (the unfolding always spans the full
    horizon); branching on those filler steps would demand synthesis past
    the objective and could block otherwise-valid plans.
    """
    for offset, belief in enumerate(plan.beliefs):
        _, is_goal, is_safe = run.classify(belief)
        if is_goal:
            return plan.prefix(plan.start_step + offset)
        if not is_safe:
            break
    raise EncodingSoundnessError("solver plan does not satisfy the objective")


def bps(
    run: RunContext,
    b_init: Belief,
    start_step: int,
    horizon_bound: int,
    session_factory: SessionFactory,
) -> Optional[PolicyTree]:
    """Search for a valid policy from ``b_init`` within the step budget.

    Returns a policy tree valid for ``run.objective`` from ``b_init`` using
    at most ``horizon_bound - start_step`` steps, or ``None`` when no valid
    policy exists within the bound.  Unknown solver verdicts and backend
    failures raise :class:`SynthesisError`.  ``run.memo`` keeps every tree
    by (belief, budget) and ``run.refuted`` each belief's largest budget with
    none, answering any budget up to it with no check.  A goal scope holds
    the goal alone: each backend reads the run's lemmas and support game
    itself, and a block is sent no solver, as its lemma implies it.  Every
    check and every block is recorded in ``run.stats`` here, and nowhere else.
    """
    if start_step > horizon_bound:
        return None
    stats = run.stats
    budget = horizon_bound - start_step
    memo_key = (b_init, budget)
    if memo_key in run.memo:
        return run.memo[memo_key]
    if run.refuted.get(b_init, -1) >= budget:
        return None

    session = session_factory()
    try:
        session.add(encoding.initial_constraint(start_step, b_init))
        k = start_step
        while k <= horizon_bound:
            if k > start_step:
                session.add(encoding.transition_constraint(k - 1, k))
            session.push()
            session.add(encoding.goal_constraint(start_step, k))
            while True:
                outcome = session.check()
                stats.check_trace.append((start_step, k, _VERDICT_KIND[type(outcome)]))
                if isinstance(outcome, Unsat):
                    break
                if isinstance(outcome, Unknown):
                    raise SynthesisError(
                        f"solver returned unknown at horizon {k}: {outcome.reason}")
                assert isinstance(outcome, Sat)
                plan = extract_plan(outcome, start_step, k, run)
                if plan.beliefs[0] != b_init:
                    raise EncodingSoundnessError("plan start belief differs from b_init")
                plan = _truncate_at_goal(plan, run)
                stats.interactions += 1
                tree, blocking = policy_generation(run, plan, k, session_factory)
                if tree is not None:
                    stats.final_horizon = max(stats.final_horizon, k)
                    run.memo[memo_key] = tree
                    return tree
                assert blocking is not None
                cut = blocking.fail_step - start_step
                stats.blocking_events.append(BlockEvent(
                    horizon=k, fail_step=blocking.fail_step, start_belief=b_init,
                    actions=plan.actions[:cut], observations=plan.observations[:cut - 1]))
                log.debug("blocked prefix at horizon %d, fail step %d", k, blocking.fail_step)
            session.pop()
            stats.final_horizon = max(stats.final_horizon, k)
            k += 1
        run.refuted[b_init] = budget
        return None
    finally:
        session.close()


def policy_generation(
    run: RunContext,
    plan: CandidatePlan,
    bound: int,
    session_factory: SessionFactory,
) -> tuple[Optional[PolicyTree], Optional[encoding.Blocking]]:
    """Complete a candidate plan into a policy tree, or say where it fails.

    Walks the plan from its last step down to the one after its start; at
    each step the belief is pushed forward once (``run.successors``)
    and every other possible observation spawns a recursive synthesis problem
    from its posterior, bounded by ``bound``, the current horizon.  On the
    first branch that cannot be completed, returns the block at the failing
    step, for the caller to record.  Zero-probability
    observations get no branch (the belief update is undefined there); every
    one of each walked step is counted in ``run.stats`` and logged.  A
    branch failing at step ``i`` kills its (belief, action) pair at budget
    ``bound - i + 1``, the steps left there, by ``run.learn``: a lemma that
    implies the block.
    """
    subtree = PolicyTree(plan.beliefs[-1], None, {}, True)
    n_obs = len(run.model.observations)
    for i in range(plan.end_step, plan.start_step, -1):
        idx = i - plan.start_step - 1
        prev_belief = plan.beliefs[idx]
        action = plan.actions[idx]
        on_plan_obs = plan.observations[idx]
        branches = run.successors(prev_belief, action)
        run.stats.zero_probability_skips += n_obs - len(branches)
        log.debug("step %d: %d impossible observation(s), no branch", i, n_obs - len(branches))
        children = {on_plan_obs: subtree}
        for obs, branch_belief, *_ in branches:
            if obs == on_plan_obs:
                continue
            branch = bps(run, branch_belief, i, bound, session_factory)
            if branch is None:
                run.learn(encoding.DeadAction(prev_belief, action, bound - i + 1, obs))
                return None, encoding.blocking_constraint(plan, i)
            children[obs] = branch
        subtree = PolicyTree(prev_belief, action, children, False)
    return subtree, None


def synthesis_run(
    model: Pomdp,
    b_init: Belief,
    objective: SafeReachObjective,
    config: SynthesisConfig,
) -> SynthesisResult:
    """Top-level driver: synthesize, exhaustively validate, time and count.

    The run's objective, record and caches live in one
    :class:`~.core.RunContext` built here and dropped on return; a
    :class:`~.core.ModelError` says that ``b_init`` or the objective does
    not fit the model.  Each recursion level opens a fresh session on the
    run; every smtlib session draws its endpoint from the run's one
    :class:`~.solver.SolverPool`, which synthesis closes however it ends,
    so no solver outlives the run.
    """
    from .validate import validate_policy

    if len(b_init) != len(model.states):
        raise ModelError(f"initial belief has {len(b_init)} entries "
                         f"but the model has {len(model.states)} states")
    run = RunContext(model, objective)
    stats = run.stats
    pool = SolverPool(config.solver)
    if config.backend == "enum":
        # Enum sessions share the run's one context: its successor cache and
        # fruitless facts are horizon-independent, and the lemmas they rest
        # on only grow, so sharing them is sound and saves work.
        factory: SessionFactory = lambda: EnumerativeSession(run)
    else:
        factory = lambda: SmtLibSession(run, pool)
    started = time.monotonic()
    try:
        policy = bps(run, b_init, 0, config.horizon, factory)
    except (SynthesisError, SolverError) as exc:
        stats.wall_time = time.monotonic() - started
        return SynthesisResult(VERDICT_ERROR, None, stats, error=str(exc))
    finally:
        pool.close()
    stats.wall_time = time.monotonic() - started
    if policy is None:
        return SynthesisResult(VERDICT_NO_POLICY, None, stats)
    report = validate_policy(policy, model, objective, config.horizon)
    if not report.valid:
        return SynthesisResult(
            VERDICT_ERROR, policy, stats,
            error=f"synthesized policy failed validation: {report.reason}")
    return SynthesisResult(VERDICT_VALID, policy, stats)
