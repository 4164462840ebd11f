"""Independent policy checking: exhaustive path enumeration and simulation.

The validator is the trust anchor: it recomputes every child belief with the
exact belief update (stored values are compared, never trusted), demands a
branch for every positive-probability observation, and checks each
root-to-leaf path against the objective.  It uses only the core model
operations, nothing from the synthesis machinery, and knows no tolerances.

The simulator executes a policy against sampled hidden states; its
frequencies come with Wilson intervals and are diagnostics only, never a
validity gate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .core import (
    Belief,
    CandidatePlan,
    ModelError,
    PolicyTree,
    Pomdp,
    SafeReachObjective,
    plan_satisfies,
)


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    paths: int
    reason: Optional[str] = None
    counterexample: Optional[CandidatePlan] = None


def _path_plan(beliefs: list[Belief], actions: list[int], observations: list[int]) -> CandidatePlan:
    return CandidatePlan(0, tuple(beliefs), tuple(actions), tuple(observations))


def validate_policy(
    policy: PolicyTree,
    model: Pomdp,
    objective: SafeReachObjective,
    horizon: int,
) -> ValidationReport:
    """Exhaustively check a policy tree against model semantics and objective.

    Valid iff every internal node's action is available on its belief, its
    children cover exactly the positive-probability observations with
    exactly the updated beliefs, a node with no action has no children, no
    path exceeds the horizon, goal flags do not lie, and every root-to-leaf
    path (read as a plan) satisfies the objective.  The first violation is
    reported with the path that led there.  Posteriors come from
    ``model.successors``, never from a synthesis run's cache.
    """
    paths_seen = 0

    def fail(reason: str, beliefs, actions, observations) -> ValidationReport:
        counterexample = None
        try:
            counterexample = _path_plan(beliefs, actions, observations)
        except ModelError:  # malformed path is still a useful reason string
            pass
        return ValidationReport(False, paths_seen, reason, counterexample)

    def walk(node: PolicyTree, beliefs, actions, observations) -> Optional[ValidationReport]:
        nonlocal paths_seen
        if node.goal_reached and not objective.is_goal(node.belief):
            return fail("goal_reached flag on a non-goal belief", beliefs, actions, observations)
        if node.action is None:
            if node.children:
                return fail("a node with no action has branches", beliefs, actions, observations)
            paths_seen += 1
            if len(actions) > horizon:
                return fail("path exceeds the horizon bound", beliefs, actions, observations)
            plan = _path_plan(beliefs, actions, observations)
            if not plan_satisfies(plan, objective):
                return fail("path does not satisfy the objective", beliefs, actions, observations)
            return None
        if not 0 <= node.action < len(model.actions):
            return fail(f"action index {node.action} outside 0..{len(model.actions) - 1}",
                        beliefs, actions, observations)
        if node.action not in model.available_actions(node.belief):
            return fail(
                f"action {model.actions[node.action]} unavailable on the node belief",
                beliefs, actions, observations)
        present = set(node.children)
        stray = sorted(o for o in present if not 0 <= o < len(model.observations))
        if stray:
            return fail(f"branch for observation index(es) {stray} outside "
                        f"0..{len(model.observations) - 1}", beliefs, actions, observations)
        branches = model.successors(node.belief, node.action)
        required = set(branches)
        if required - present:
            missing = ", ".join(model.observations[o] for o in sorted(required - present))
            return fail(f"missing branch for observation(s) {missing}",
                        beliefs, actions, observations)
        if present - required:
            extra = ", ".join(model.observations[o] for o in sorted(present - required))
            return fail(f"branch for impossible observation(s) {extra}",
                        beliefs, actions, observations)
        for o, (_, derived) in branches.items():
            child = node.children[o]
            if derived != child.belief:
                return fail(
                    f"stored child belief differs from the exact update on "
                    f"observation {model.observations[o]}",
                    beliefs + [derived], actions + [node.action], observations + [o])
            report = walk(child, beliefs + [derived],
                          actions + [node.action], observations + [o])
            if report is not None:
                return report
        return None

    violation = walk(policy, [policy.belief], [], [])
    if violation is not None:
        return violation
    return ValidationReport(True, paths_seen)


@dataclass
class SimulationReport:
    episodes: int
    goal_reached: int
    unsafe_visited: int
    goal_freq: float = field(init=False)
    unsafe_visit_freq: float = field(init=False)
    goal_interval: tuple[float, float] = field(init=False)
    unsafe_interval: tuple[float, float] = field(init=False)
    traces: list[list[tuple[int, int, int]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.goal_freq = self.goal_reached / self.episodes
        self.unsafe_visit_freq = self.unsafe_visited / self.episodes
        self.goal_interval = wilson_interval(self.goal_reached, self.episodes)
        self.unsafe_interval = wilson_interval(self.unsafe_visited, self.episodes)


def wilson_interval(successes: int, total: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if total == 0:
        return (0.0, 1.0)
    phat = successes / total
    denom = 1 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    margin = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    return (max(0.0, center - margin), min(1.0, center + margin))


def _sample(rng: random.Random, dist: dict) -> int:
    # Exact CDF walk: a uniform integer below the row's common denominator
    # against the exact cumulative numerators, so no float decides anything.
    keys = [key for key in sorted(dist) if dist[key] > 0]
    scale = math.lcm(*(Fraction(dist[key]).denominator for key in keys))
    draw = rng.randrange(scale)
    cumulative = 0
    for key in keys:
        cumulative += dist[key] * scale
        if draw < cumulative:
            return key
    raise ValueError("distribution does not sum to 1")


def simulate(
    policy: PolicyTree,
    model: Pomdp,
    objective: SafeReachObjective,
    episodes: int,
    seed: int = 0,
    max_traces: int = 10,
) -> SimulationReport:
    """Execute the policy against sampled hidden states.

    Per episode: sample the true state from the root belief, then follow the
    tree, sampling a successor from T and an observation from Z at each
    action node.  Counts episodes that ever visit a goal state, one whose
    point belief is a goal belief, and episodes that ever visit an unsafe
    state, one whose point belief is not safe.  Reproducible under a fixed
    seed.  A policy that picks an action a sampled state does not
    allow, or has no branch for a sampled observation, raises
    :class:`ModelError` naming the action and the state or observation.
    """
    if episodes < 1:
        raise ValueError("need at least one episode")
    points = [Belief.point(s, len(model.states)) for s in range(len(model.states))]
    goal_states = {s for s, point in enumerate(points) if objective.is_goal(point)}
    unsafe_states = {s for s, point in enumerate(points) if not objective.is_safe(point)}
    rng = random.Random(seed)
    init_dist = {j: p for j, p in enumerate(policy.belief.probs) if p > 0}
    goal_count = 0
    unsafe_count = 0
    traces: list[list[tuple[int, int, int]]] = []
    for episode in range(episodes):
        state = _sample(rng, init_dist)
        node = policy
        hit_goal = state in goal_states
        hit_unsafe = state in unsafe_states
        trace: list[tuple[int, int, int]] = []
        while node.action is not None:
            action = node.action
            if action not in model.allowed_actions(state):
                raise ModelError(f"policy action {model.actions[action]!r} is not allowed "
                                 f"in sampled state {model.states[state]!r}")
            state = _sample(rng, dict(model.trans_dist(state, action)))
            obs = _sample(rng, dict(model.obs_dist(state, action)))
            hit_goal = hit_goal or state in goal_states
            hit_unsafe = hit_unsafe or state in unsafe_states
            trace.append((action, state, obs))
            node = node.children.get(obs)
            if node is None:
                raise ModelError(f"policy has no branch for observation "
                                 f"{model.observations[obs]!r} after action "
                                 f"{model.actions[action]!r}")
        goal_count += hit_goal
        unsafe_count += hit_unsafe
        if episode < max_traces:
            traces.append(trace)
    return SimulationReport(episodes, goal_count, unsafe_count, traces=traces)
