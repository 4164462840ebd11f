"""Exact-arithmetic POMDP model, beliefs, objectives, plans and policy trees.

Every number that enters a model, a belief or a predicate is an exact
rational (:func:`as_fraction` refuses floats).  A belief is kept in
canonical sparse integer form: its support indices, a positive integer
numerator for each and one common denominator, with no factor common to all
of them.  Equal distributions have equal forms, so belief equality and
hashing compare a few small ints, and a belief is valid when its numerators
sum to its denominator.  ``Belief.probs`` is the dense ``fractions.Fraction``
view that the file formats, the encoding and the public API read.

A :class:`Pomdp` is its own belief-successor kernel: one push-forward over
sparse integer columns, compiled per action on first use and kept, split by
observation into posteriors and integer masses; ``model.successors`` makes
the masses exact probabilities on the call.  A :class:`RunContext` holds one
run's objective, record and caches: per (belief, action), each observation's
posterior, one object per distinct belief, with its goal and safe class,
evaluated once, and no probability.  Models, beliefs, objectives, plans,
policy trees and cache entries are immutable, and the free functions pure.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional

_ZERO = Fraction(0)


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


class Belief:
    """Probability distribution over ``size`` states, indexed by state order.

    ``indices`` is the support, ascending; ``nums`` holds a positive integer
    numerator per support state and ``den`` the common denominator, in
    lowest terms.  Construct from the dense probabilities, which are checked;
    the kernel builds posteriors, valid by construction, unchecked.
    """

    __slots__ = ("size", "indices", "nums", "den", "_hash", "_probs")

    def __init__(self, probs: Iterable[object]) -> None:
        values = tuple(as_fraction(p) for p in probs)
        indices = tuple(j for j, p in enumerate(values) if p)
        den = math.lcm(*(values[j].denominator for j in indices))
        nums = [values[j].numerator * (den // values[j].denominator) for j in indices]
        if any(w <= 0 for w in nums):
            raise ModelError(f"belief has a negative entry: {Fraction(min(nums), den)}")
        if sum(nums) != den:
            raise ModelError(f"belief entries sum to {Fraction(sum(nums), den)}, not 1")
        self._init(len(values), indices, nums, den, values)

    @classmethod
    def _sparse(cls, size: int, indices: tuple[int, ...], nums: list[int], den: int) -> "Belief":
        belief = cls.__new__(cls)
        belief._init(size, indices, nums, den)
        return belief

    def _init(self, size: int, indices: tuple[int, ...], nums: list[int], den: int,
              probs: Optional[tuple[Fraction, ...]] = None) -> None:
        common = math.gcd(den, *nums)
        if common > 1:
            nums = [w // common for w in nums]
            den //= common
        nums = tuple(nums)
        setter = object.__setattr__
        setter(self, "size", size)
        setter(self, "indices", indices)
        setter(self, "nums", nums)
        setter(self, "den", den)
        setter(self, "_hash", hash((size, indices, nums, den)))
        setter(self, "_probs", probs)

    @classmethod
    def point(cls, index: int, n_states: int) -> "Belief":
        if not 0 <= index < n_states:
            raise ModelError(f"point belief on state {index}, outside 0..{n_states - 1}")
        return cls._sparse(n_states, (index,), [1], 1)

    @property
    def probs(self) -> tuple[Fraction, ...]:
        """The dense view, one Fraction per state, built on first use."""
        if self._probs is None:
            dense = [_ZERO] * self.size
            for j, w in zip(self.indices, self.nums):
                dense[j] = Fraction(w, self.den)
            object.__setattr__(self, "_probs", tuple(dense))
        return self._probs

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Belief is immutable")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Belief):
            return NotImplemented
        return (self._hash == other._hash and self.den == other.den
                and self.indices == other.indices and self.nums == other.nums
                and self.size == other.size)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Belief, (self.probs,)

    def __repr__(self) -> str:
        return f"Belief(probs={self.probs!r})"

    def __getitem__(self, index: int) -> Fraction:
        return self.probs[index]

    def __len__(self) -> int:
        return self.size

    def support(self) -> tuple[int, ...]:
        return self.indices


COMPARATORS = (">", "<", ">=", "<=")
_COMPARE = {">": operator.gt, "<": operator.lt, ">=": operator.ge, "<=": operator.le}


@dataclass(frozen=True)
class LinearBeliefPredicate:
    """Threshold constraint on the total belief mass of a state set."""

    state_set: frozenset[int]
    comparator: str
    threshold: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "threshold", as_fraction(self.threshold))
        if not self.state_set:
            raise ModelError("predicate state set must be non-empty")
        if self.comparator not in COMPARATORS:
            raise ModelError(f"unknown comparator {self.comparator!r}")
        if not 0 <= self.threshold <= 1:
            raise ModelError(f"threshold {self.threshold} outside [0, 1]")

    def holds(self, belief: Belief) -> bool:
        # mass / den  <op>  t.num / t.den, cross-multiplied over the integers
        inside = self.state_set
        total = sum(w for j, w in zip(belief.indices, belief.nums) if j in inside)
        threshold = self.threshold
        return _COMPARE[self.comparator](total * threshold.denominator,
                                         threshold.numerator * belief.den)

    def possible(self) -> tuple[bool, bool, bool]:
        """Whether it can hold at each :func:`mass_class` of its state set."""
        t, holds = self.threshold, _COMPARE[self.comparator]
        return holds(0, t), holds(1, t), (t < 1 if self.comparator in (">", ">=") else t > 0)


def mass_class(support: tuple[int, ...], state_set: frozenset[int]) -> int:
    """The state set's mass in a belief with this support: 0, 1 or 2 (strictly between)."""
    inside = sum(1 for s in support if s in state_set)
    return 0 if not inside else 1 if inside == len(support) else 2


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


def _exact_rows(rows: Mapping, label: str) -> Mapping:
    """``rows`` with every probability coerced to a Fraction (the rows
    themselves when they hold nothing else, as built models do)."""
    if all(type(p) is Fraction for row in rows.values() for p in row.values()):
        return rows
    try:
        return {key: {k: as_fraction(p) for k, p in row.items()} for key, row in rows.items()}
    except ModelError as exc:
        raise ModelError(f"{label}: {exc}") from None


@dataclass(frozen=True)
class Pomdp:
    """Finite POMDP with exact-rational transition and observation functions.

    ``transition[(s, a)]`` maps successor state index to probability and
    ``observe[(s2, a)]`` maps observation index to probability, both sparse
    (missing entries are zero).  Entries are coerced to Fractions; floats are
    refused.  ``availability`` optionally restricts which actions exist in
    which states; ``None`` means every action everywhere.

    The model is its own belief-successor kernel, :meth:`_split`, which
    reads each action's transition and observation rows as sparse integer
    columns over one denominator, compiled on the action's first use and
    kept, as :attr:`Belief.probs` is kept, and so are its support graph and
    each state set's :meth:`distances`.
    """

    states: tuple[str, ...]
    actions: tuple[str, ...]
    observations: tuple[str, ...]
    transition: Mapping[tuple[int, int], Mapping[int, Fraction]]
    observe: Mapping[tuple[int, int], Mapping[int, Fraction]]
    availability: Optional[Mapping[int, frozenset[int]]] = None

    def __post_init__(self) -> None:
        setter = object.__setattr__
        setter(self, "transition", _exact_rows(self.transition, "transition"))
        setter(self, "observe", _exact_rows(self.observe, "observation"))
        everywhere = frozenset(range(len(self.actions)))
        available = self.availability or {}
        setter(self, "_allowed", tuple(frozenset(available.get(s, everywhere))
                                       for s in range(len(self.states))))
        setter(self, "_columns", {})
        setter(self, "_supports", {})
        setter(self, "_distances", {})
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
        for kind, rows, size in (("T", self.transition, n), ("Z", self.observe, no)):
            for (s, a), row in rows.items():  # every row, its action available or not
                outside = [key for key in row if not 0 <= key < size]
                if outside or not (0 <= s < n and 0 <= a < na):
                    raise ModelError(f"{kind}{(s, a)} names {outside or (s, a)}, out of range")
        reachable_pairs = set()
        for s in range(n):
            for a in self.allowed_actions(s):
                dist = self.transition.get((s, a))
                if dist is None:
                    raise ModelError(
                        f"missing transition distribution for ({self.states[s]}, {self.actions[a]})")
                self._check_dist(dist, f"T({self.states[s]}, {self.actions[a]})")
                for s2, p in dist.items():
                    if p > 0:
                        reachable_pairs.add((s2, a))
        for (s2, a) in reachable_pairs:
            dist = self.observe.get((s2, a))
            if dist is None:
                raise ModelError(
                    f"missing observation distribution for ({self.states[s2]}, {self.actions[a]})")
            self._check_dist(dist, f"Z({self.states[s2]}, {self.actions[a]})")

    @staticmethod
    def _check_dist(dist: Mapping[int, Fraction], label: str) -> None:
        total = Fraction(0)
        for key, p in dist.items():
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
        return self._allowed[s]

    # -- the belief-successor kernel ---------------------------------------

    def available_actions(self, belief: Belief) -> list[int]:
        """Actions allowed in every support state, ascending: an action is
        choosable at a belief only when every state it may be in allows it."""
        return sorted(frozenset.intersection(*(self._allowed[s] for s in belief.indices)))

    def _compiled(self, action: int) -> tuple:
        """Every state's transition row as ``(successor, numerator)`` pairs
        and every state's observation row as ``(observation, numerator)``
        pairs, zero entries dropped, each kind over one denominator; then, as
        bit masks, each state's successors and each observation's states."""
        found = self._columns.get(action)
        if found is None:
            n = len(self.states)

            def columns(rows):
                den = math.lcm(*(p.denominator for row in rows for p in row.values() if p))
                return den, tuple(tuple((key, p.numerator * (den // p.denominator))
                                        for key, p in row.items() if p) for row in rows)

            t_den, t_cols = columns([self.trans_dist(s, action) for s in range(n)])
            z_den, z_cols = columns([self.obs_dist(s2, action) for s2 in range(n)])
            gives = [0] * len(self.observations)
            for s2, row in enumerate(z_cols):
                for o, _ in row:
                    gives[o] |= 1 << s2
            into = [sum(1 << s2 for s2, _ in row) for row in t_cols]
            found = self._columns[action] = (t_cols, z_cols, t_den * z_den, into, gives)
        return found

    def _split(self, belief: Belief, action: int) -> tuple[int, list[tuple[int, int, Belief]]]:
        """Push the belief through T once and split it by observation: the
        scale a mass is a probability over, and each possible observation,
        ascending, with its mass (positive) and posterior (numerators that
        sum to the mass, so :class:`Belief`'s checks are skipped)."""
        t_cols, z_cols, scale, _, _ = self._compiled(action)
        pushed: dict[int, int] = {}
        for s, w in zip(belief.indices, belief.nums):
            for s2, p in t_cols[s]:
                pushed[s2] = pushed.get(s2, 0) + w * p
        split: dict[int, tuple[list[int], list[int]]] = {}
        for s2 in sorted(pushed):
            mass = pushed[s2]
            for o, z in z_cols[s2]:
                entry = split.get(o)
                if entry is None:
                    entry = split[o] = ([], [])
                entry[0].append(s2)
                entry[1].append(z * mass)
        size = len(self.states)
        out = []
        for o in sorted(split):
            indices, nums = split[o]
            mass = sum(nums)
            out.append((o, mass, Belief._sparse(size, tuple(indices), nums, mass)))
        return scale * belief.den, out

    def successors(self, belief: Belief, action: int) -> dict[int, tuple[Fraction, Belief]]:
        """Each possible observation after ``action`` with its probability and posterior."""
        scale, split = self._split(belief, action)
        return {o: (Fraction(mass, scale), posterior) for o, mass, posterior in split}

    def support_successors(self, support: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
        """Each posterior support, over all available actions and possible
        observations, of a belief with this support (any such belief gives the same)."""
        found = self._supports.get(support)
        if found is None:
            masks = set()
            for action in frozenset.intersection(*(self._allowed[s] for s in support)):
                _, _, _, into, gives = self._compiled(action)
                pushed = 0
                for s in support:
                    pushed |= into[s]
                for states in gives:
                    masks.add(pushed & states)
            found = set()
            for mask in masks - {0}:
                indices = []
                while mask:  # each set bit, lowest first
                    indices.append((mask & -mask).bit_length() - 1)
                    mask &= mask - 1
                found.add(tuple(indices))
            found = self._supports[support] = frozenset(found)
        return found

    def distances(self, states: frozenset[int]) -> tuple:
        """Each state's fewest steps into ``states`` over the actions it allows
        (``math.inf`` when it has none), by a backward search over the
        compiled successor masks."""
        found = self._distances.get(states)
        if found is None:
            n = len(self.states)
            reach = [0] * n  # each state's successors under any action it allows
            for s, allowed in enumerate(self._allowed):
                for action in allowed:
                    reach[s] |= self._compiled(action)[3][s]
            found = [0 if s in states else math.inf for s in range(n)]
            frontier, steps = sum(1 << s for s in states), 0
            while frontier:
                steps += 1
                layer = [s for s in range(n) if found[s] == math.inf and reach[s] & frontier]
                for s in layer:
                    found[s] = steps
                frontier = sum(1 << s for s in layer)
            found = self._distances[states] = tuple(found)
        return found


class RunContext:
    """One synthesis run: its model, the one ``objective`` all its goals
    mean, its record ``stats`` and its caches.

    :meth:`successors` answers each (belief, action) pair from the kernel
    once, with no probability, which no search reads; ``classes`` maps each
    posterior and start belief to the run's one copy of it and its class
    (:meth:`classify`).  ``memo`` holds ``bps`` trees by (belief, budget),
    ``refuted`` each belief's largest budget with none and ``dead_actions``
    the :class:`~safereach.encoding.DeadAction` lemmas, indexed in ``dead``,
    both true at smaller budgets and written by :meth:`learn` alone; every
    backend reads them from here.  ``fruitless`` holds the enumerative backend's
    (belief, steps remaining) facts, and :meth:`wins` judges supports.  A context belongs to one
    run; the model's columns, support graph and distances outlive it.  It first checks the
    objective.
    """

    def __init__(self, model: Pomdp, objective: SafeReachObjective) -> None:
        n = len(model.states)
        for pred in objective.goal + objective.safe:
            outside = sorted(s for s in pred.state_set if not 0 <= s < n)
            if outside:
                raise ModelError(f"predicate names state(s) {outside}, "
                                 f"but the model has states 0..{n - 1}")
        self.model = model
        self.objective = objective
        self.stats = SynthesisStats()
        self.memo: dict[tuple[Belief, int], PolicyTree] = {}
        self.refuted: dict[Belief, int] = {}
        self.dead_actions: list = []  # of encoding.DeadAction, oldest first
        self.dead: dict[Belief, dict[int, int]] = {}  # belief -> action -> largest budget
        self.fruitless: set[tuple[Belief, int]] = set()
        self.classes: dict[Belief, tuple[Belief, bool, bool]] = {}
        self._successors: dict[tuple[Belief, int], tuple] = {}
        self._rows = [[(p.state_set, p.possible()) for p in preds]
                      for preds in (objective.goal, objective.safe)]
        self._wins: dict[tuple[int, ...], list] = {}  # support -> [lose, win] budgets
        self._far = [p.state_set for p in objective.goal if not p.possible()[0]]

    def learn(self, lemma) -> None:
        """Keep a :class:`~safereach.encoding.DeadAction` in ``dead_actions``
        and its largest budget per (belief, action) in ``dead``."""
        self.dead_actions.append(lemma)
        budgets = self.dead.setdefault(lemma.belief, {})
        budgets[lemma.action] = max(lemma.budget, budgets.get(lemma.action, -1))

    def successors(self, belief: Belief, action: int) -> tuple[tuple[int, Belief, bool, bool], ...]:
        """``(observation, posterior, is_goal, is_safe)`` for each possible
        observation after ``action``, ascending; computed once per run."""
        key = (belief, action)
        found = self._successors.get(key)
        if found is None:
            found = self._successors[key] = tuple(
                (o, *self.classify(b)) for o, _, b in self.model._split(belief, action)[1])
        return found

    def classify(self, belief: Belief) -> tuple[Belief, bool, bool]:
        """The run's one copy of the belief, with its ``is_goal`` and ``is_safe``."""
        found = self.classes.get(belief)
        if found is None:
            found = self.classes[belief] = (belief, self.objective.is_goal(belief),
                                            self.objective.is_safe(belief))
        return found

    def wins(self, support: tuple[int, ...], steps: int) -> bool:
        """Whether a support path reaches a goal-possible support within ``steps``
        through safe-possible ones, judging each predicate alone on its
        :func:`mass_class`; if not, no belief with this support can win.  Kept
        per support as the largest losing and smallest winning budget.  A goal
        predicate that mass 0 cannot meet needs one of its states, so a
        support none of whose states reaches them in ``r`` steps
        (:meth:`Pomdp.distances`) loses at ``r``: its entry starts there."""
        bounds = self._wins.get(support)
        if bounds is None:
            goal, safe = (all(row[mass_class(support, states)] for states, row in rows)
                          for rows in self._rows)
            if goal:
                bounds = [-1, 0]
            elif safe:
                far = max((min(map(self.model.distances(states).__getitem__, support))
                           for states in self._far), default=0)
                bounds = [max(far - 1, 0), math.inf]
            else:
                bounds = [math.inf, math.inf]
            self._wins[support] = bounds
        if bounds[0] < steps < bounds[1]:  # in the gap: settle it, and narrow the gap
            won = any(self.wins(s2, steps - 1) for s2 in self.model.support_successors(support))
            bounds[won] = steps
        return steps >= bounds[1]


def unnormalized_update(
    belief: Belief, action: int, observation: int, model: Pomdp
) -> tuple[list[Fraction], Fraction]:
    """The pre-normalization posterior vector and its total mass."""
    branch = model.successors(belief, action).get(observation)
    if branch is None:
        return [Fraction(0)] * len(model.states), Fraction(0)
    return [branch[0] * p for p in branch[1].probs], branch[0]


def belief_update(belief: Belief, action: int, observation: int,
                  model: Pomdp) -> Optional[Belief]:
    """The posterior after ``action`` and ``observation``; ``None`` when impossible."""
    branch = model.successors(belief, action).get(observation)
    return None if branch is None else branch[1]


def observation_probability(belief: Belief, action: int, observation: int,
                            model: Pomdp) -> Fraction:
    """Probability of observing ``observation`` after ``action`` from ``belief``."""
    return model.successors(belief, action).get(observation, (_ZERO, None))[0]


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
    session check, the smtlib ones the support game answers with no solver
    call included, and ``blocking_events`` one per blocked candidate; the
    check (``solver_calls``), plan and per-horizon counts are read off these.
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
