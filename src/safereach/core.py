"""Exact-arithmetic POMDP model, beliefs, objectives, plans and policy trees.

Everything here is built on ``fractions.Fraction`` so that belief updates,
threshold comparisons and belief equality are exact.  All types are immutable
after construction and safe to share across threads; the operations are pure
functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional


class ModelError(ValueError):
    """A model, belief or objective violates a construction invariant."""


def as_fraction(value: object) -> Fraction:
    """Coerce ints, Fractions and exact strings ("3/4", "0.75") to Fraction.

    Floats are rejected: they are already inexact by the time we see them.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ModelError(f"not a probability: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelError(f"cannot parse exact rational from {value!r}") from exc
    raise ModelError(f"refusing inexact value {value!r}; use int, Fraction or 'p/q' string")


@dataclass(frozen=True)
class Belief:
    """Probability distribution over states, indexed by state order."""

    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if any(p < 0 for p in self.probs):
            raise ModelError(f"belief has negative entry: {self.probs}")
        if sum(self.probs) != 1:
            raise ModelError(f"belief entries sum to {sum(self.probs)}, not 1")

    @classmethod
    def from_values(cls, values: Iterable[object]) -> "Belief":
        return cls(tuple(as_fraction(v) for v in values))

    @classmethod
    def point(cls, index: int, n_states: int) -> "Belief":
        return cls(tuple(Fraction(1 if j == index else 0) for j in range(n_states)))

    def __getitem__(self, index: int) -> Fraction:
        return self.probs[index]

    def __len__(self) -> int:
        return len(self.probs)

    def mass(self, states: Iterable[int]) -> Fraction:
        return sum((self.probs[j] for j in states), Fraction(0))

    def support(self) -> tuple[int, ...]:
        return tuple(j for j, p in enumerate(self.probs) if p > 0)


COMPARATORS = (">", "<", ">=", "<=")


@dataclass(frozen=True)
class LinearBeliefPredicate:
    """Threshold constraint on the total belief mass of a state set."""

    state_set: frozenset[int]
    comparator: str
    threshold: Fraction

    def __post_init__(self) -> None:
        if not self.state_set:
            raise ModelError("predicate state set must be non-empty")
        if self.comparator not in COMPARATORS:
            raise ModelError(f"unknown comparator {self.comparator!r}")
        if not 0 <= self.threshold <= 1:
            raise ModelError(f"threshold {self.threshold} outside [0, 1]")

    def holds(self, belief: Belief) -> bool:
        total = belief.mass(self.state_set)
        if self.comparator == ">":
            return total > self.threshold
        if self.comparator == "<":
            return total < self.threshold
        if self.comparator == ">=":
            return total >= self.threshold
        return total <= self.threshold


@dataclass(frozen=True)
class SafeReachObjective:
    """Goal and safe belief sets, each a conjunction of linear predicates."""

    goal: tuple[LinearBeliefPredicate, ...]
    safe: tuple[LinearBeliefPredicate, ...]

    def __post_init__(self) -> None:
        if not self.goal:
            raise ModelError("objective needs at least one goal predicate")

    def is_goal(self, belief: Belief) -> bool:
        return all(p.holds(belief) for p in self.goal)

    def is_safe(self, belief: Belief) -> bool:
        return all(p.holds(belief) for p in self.safe)


@dataclass(frozen=True)
class Pomdp:
    """Finite POMDP with exact-rational transition and observation functions.

    ``transition[(s, a)]`` maps successor state index to probability and
    ``observe[(s2, a)]`` maps observation index to probability, both sparse
    (missing entries are zero).  ``availability`` optionally restricts which
    actions exist in which states; ``None`` means every action everywhere.
    """

    states: tuple[str, ...]
    actions: tuple[str, ...]
    observations: tuple[str, ...]
    transition: Mapping[tuple[int, int], Mapping[int, Fraction]]
    observe: Mapping[tuple[int, int], Mapping[int, Fraction]]
    availability: Optional[Mapping[int, frozenset[int]]] = None

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        n, na, no = len(self.states), len(self.actions), len(self.observations)
        if len(set(self.states)) != n or len(set(self.actions)) != na \
                or len(set(self.observations)) != no:
            raise ModelError("duplicate state/action/observation identifiers")
        if self.availability is not None:
            for s, acts in self.availability.items():
                if not 0 <= s < n or any(not 0 <= a < na for a in acts):
                    raise ModelError("availability references unknown state or action")
        reachable_pairs = set()
        for s in range(n):
            for a in self.allowed_actions(s):
                dist = self.transition.get((s, a))
                if dist is None:
                    raise ModelError(
                        f"missing transition distribution for ({self.states[s]}, {self.actions[a]})")
                self._check_dist(dist, n, f"T({self.states[s]}, {self.actions[a]})")
                for s2, p in dist.items():
                    if p > 0:
                        reachable_pairs.add((s2, a))
        for (s2, a) in reachable_pairs:
            dist = self.observe.get((s2, a))
            if dist is None:
                raise ModelError(
                    f"missing observation distribution for ({self.states[s2]}, {self.actions[a]})")
            self._check_dist(dist, no, f"Z({self.states[s2]}, {self.actions[a]})")

    @staticmethod
    def _check_dist(dist: Mapping[int, Fraction], size: int, label: str) -> None:
        total = Fraction(0)
        for key, p in dist.items():
            if not 0 <= key < size:
                raise ModelError(f"{label} references index {key} out of range")
            if not 0 <= p <= 1:
                raise ModelError(f"{label} has entry {p} outside [0, 1]")
            total += p
        if total != 1:
            raise ModelError(f"{label} sums to {total}, not 1")

    # -- lookups ---------------------------------------------------------

    def state_index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            raise ModelError(f"unknown state {name!r}") from None

    def action_index(self, name: str) -> int:
        try:
            return self.actions.index(name)
        except ValueError:
            raise ModelError(f"unknown action {name!r}") from None

    def observation_index(self, name: str) -> int:
        try:
            return self.observations.index(name)
        except ValueError:
            raise ModelError(f"unknown observation {name!r}") from None

    def trans_dist(self, s: int, a: int) -> Mapping[int, Fraction]:
        return self.transition.get((s, a), {})

    def obs_dist(self, s2: int, a: int) -> Mapping[int, Fraction]:
        return self.observe.get((s2, a), {})

    def allowed_actions(self, s: int) -> frozenset[int]:
        if self.availability is None:
            return frozenset(range(len(self.actions)))
        return self.availability.get(s, frozenset(range(len(self.actions))))

    def action_states(self, a: int) -> frozenset[int]:
        """States in which action ``a`` exists."""
        return frozenset(s for s in range(len(self.states)) if a in self.allowed_actions(s))


def available_actions(model: Pomdp, belief: Belief) -> list[int]:
    """Actions whose availability covers the entire belief support.

    An action is choosable at a belief only when every state carrying
    positive probability allows it.
    """
    support = belief.support()
    out = []
    for a in range(len(model.actions)):
        if all(a in model.allowed_actions(s) for s in support):
            out.append(a)
    return out


def successors(belief: Belief, action: int, model: Pomdp) -> dict[int, tuple[Fraction, Belief]]:
    """Each possible observation after ``action``, with its probability and posterior.

    Pushes the belief through T once and splits the result by observation
    likelihood; only positive-probability observations appear, ascending.
    """
    n = len(model.states)
    pushed = [Fraction(0)] * n
    for s in belief.support():
        for s2, p in model.trans_dist(s, action).items():
            if p:
                pushed[s2] += p * belief[s]
    split: dict[int, list[Fraction]] = {}
    for s2, mass in enumerate(pushed):
        if mass:
            for o, z in model.obs_dist(s2, action).items():
                if z:
                    split.setdefault(o, [Fraction(0)] * n)[s2] = z * mass
    totals = {o: sum(split[o], Fraction(0)) for o in sorted(split)}
    return {o: (t, Belief(tuple(u / t for u in split[o]))) for o, t in totals.items()}


def unnormalized_update(
    belief: Belief, action: int, observation: int, model: Pomdp
) -> tuple[list[Fraction], Fraction]:
    """The pre-normalization posterior vector and its total mass."""
    branch = successors(belief, action, model).get(observation)
    if branch is None:
        return [Fraction(0)] * len(model.states), Fraction(0)
    return [branch[0] * p for p in branch[1].probs], branch[0]


def belief_update(belief: Belief, action: int, observation: int,
                  model: Pomdp) -> Optional[Belief]:
    """The posterior after ``action`` and ``observation``; ``None`` when impossible."""
    branch = successors(belief, action, model).get(observation)
    return None if branch is None else branch[1]


def observation_probability(belief: Belief, action: int, observation: int,
                            model: Pomdp) -> Fraction:
    """Probability of observing ``observation`` after ``action`` from ``belief``."""
    return successors(belief, action, model).get(observation, (Fraction(0), None))[0]


@dataclass(frozen=True)
class CandidatePlan:
    """A single belief-space path b_s, a_{s+1}, o_{s+1}, b_{s+1}, ..., b_k.

    Consistency with the belief transition (each belief equals the update of
    its predecessor) is the producer's responsibility; this type only checks
    the lengths line up.
    """

    start_step: int
    beliefs: tuple[Belief, ...]
    actions: tuple[int, ...]
    observations: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.start_step < 0:
            raise ModelError("plan start step must be non-negative")
        if not self.beliefs:
            raise ModelError("plan needs at least the start belief")
        if len(self.actions) != len(self.beliefs) - 1 \
                or len(self.observations) != len(self.actions):
            raise ModelError("plan belief/action/observation lengths are inconsistent")

    @property
    def end_step(self) -> int:
        return self.start_step + len(self.actions)

    def prefix(self, end_step: int) -> "CandidatePlan":
        keep = end_step - self.start_step
        return CandidatePlan(
            self.start_step,
            self.beliefs[: keep + 1],
            self.actions[:keep],
            self.observations[:keep],
        )


def goal_step(plan: CandidatePlan, objective: SafeReachObjective) -> Optional[int]:
    """Smallest step index at which the plan satisfies the objective.

    That is the first i with b_i a goal belief and every earlier belief safe;
    ``None`` when no such index exists.
    """
    for offset, belief in enumerate(plan.beliefs):
        if objective.is_goal(belief):
            return plan.start_step + offset
        if not objective.is_safe(belief):
            return None
    return None


def plan_satisfies(plan: CandidatePlan, objective: SafeReachObjective) -> bool:
    """True iff some visited belief is a goal belief with an all-safe prefix."""
    return goal_step(plan, objective) is not None


@dataclass(frozen=True)
class PolicyTree:
    """Observation-branching policy: an action per node, a child per observation.

    Leaves carry no action; ``goal_reached`` marks nodes whose belief is a
    goal belief.  Children exist exactly for the observations with positive
    probability under (belief, action), and each child belief is the exact
    belief update of its parent.
    """

    belief: Belief
    action: Optional[int]
    children: Mapping[int, "PolicyTree"]
    goal_reached: bool

    def is_leaf(self) -> bool:
        return self.action is None

    def node_count(self) -> int:
        return 1 + sum(c.node_count() for c in self.children.values())

    def height(self) -> int:
        if not self.children:
            return 0
        return 1 + max(c.height() for c in self.children.values())


@dataclass(frozen=True)
class BlockEvent:
    """One rejected candidate prefix: which horizon, where it failed, what it was."""

    horizon: int
    fail_step: int
    start_belief: Belief
    actions: tuple[int, ...]
    observations: tuple[int, ...]


@dataclass
class SynthesisStats:
    """What one synthesis run did, recursion included.

    ``check_trace`` holds one ``(start step, horizon, verdict)`` entry per
    solver check and ``blocking_events`` one entry per blocked candidate;
    the check, plan and per-horizon counts are read off these two lists.
    """

    interactions: int = 0
    final_horizon: int = 0
    wall_time: float = 0.0
    zero_probability_skips: int = 0
    blocking_events: list[BlockEvent] = field(default_factory=list)
    check_trace: list[tuple[int, int, str]] = field(default_factory=list)

    @property
    def solver_calls(self) -> int:
        return len(self.check_trace)

    @property
    def plans_checked(self) -> int:
        """Satisfiable checks: each one yields a candidate plan."""
        return sum(1 for _, _, kind in self.check_trace if kind == "sat")

    @property
    def per_horizon(self) -> dict[int, dict[str, int]]:
        """Checks, satisfiable checks and blocks per horizon, in the order
        the horizons were first checked."""
        out: dict[int, dict[str, int]] = {}
        for _, horizon, kind in self.check_trace:
            bucket = out.setdefault(horizon, {"checks": 0, "sat": 0, "blocks": 0})
            bucket["checks"] += 1
            if kind == "sat":
                bucket["sat"] += 1
        for event in self.blocking_events:
            out.setdefault(event.horizon, {"checks": 0, "sat": 0, "blocks": 0})["blocks"] += 1
        return out
