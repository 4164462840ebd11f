"""Session interface shared by the solver backends, plus plan extraction."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Union, get_args

from ..core import Belief, CandidatePlan, CompiledModel, ModelError, Pomdp, RunContext
from ..encoding import Constraint, action_var_name, belief_var_name, observation_var_name


class SolverError(RuntimeError):
    """Backend failure; the session is dead once this is raised."""


class SolverUsageError(SolverError):
    """Caller misuse, e.g. pop on an empty scope stack."""


class PlanDecodeError(SolverError):
    """A satisfying model did not decode to a consistent belief-space plan."""


@dataclass(frozen=True)
class Sat:
    model: Mapping[str, Union[Fraction, int]]


@dataclass(frozen=True)
class Unsat:
    pass


@dataclass(frozen=True)
class Unknown:
    reason: str


SatResult = Union[Sat, Unsat, Unknown]


@dataclass(frozen=True)
class SolverConfig:
    """External-backend knobs; ``command=None`` selects the bundled solver."""

    command: Optional[tuple[str, ...]] = None
    check_timeout: float = 60.0
    incremental: bool = True


class SolverSession(ABC):
    """An incremental satisfiability session over one model, with a stack of
    assertion scopes.

    The scope stack lives here.  A backend keeps, per added constraint,
    whatever :meth:`_admit` returns and hears of every push and pop through
    :meth:`_pushed` and :meth:`_popped`.

    Sessions are single-owner: never share one across threads.  Distinct
    sessions may run concurrently.
    """

    def __init__(self, model: Pomdp) -> None:
        self.model = model
        self._frames: list[list] = [[]]
        self._closed = False

    def add(self, constraint: Constraint) -> None:
        """Assert a constraint into the current (top) scope."""
        self._guard()
        if not isinstance(constraint, get_args(Constraint)):
            raise SolverUsageError(f"unsupported constraint {constraint!r}")
        self._frames[-1].append(self._admit(constraint))

    def push(self) -> None:
        """Open a new scope."""
        self._guard()
        self._frames.append([])
        self._pushed()

    def pop(self) -> None:
        """Discard the top scope and everything asserted inside it."""
        self._guard()
        if len(self._frames) <= 1:
            raise SolverUsageError("pop with no matching push")
        self._frames.pop()
        self._popped()

    @abstractmethod
    def check(self) -> SatResult:
        """Decide satisfiability of all live assertions."""

    def close(self) -> None:
        """Release backend resources; the session is unusable afterwards."""
        self._closed = True

    def _guard(self) -> None:
        if self._closed:
            raise SolverUsageError("session is closed")

    def _live(self) -> Iterator:
        """What the live scopes keep, oldest first."""
        for frame in self._frames:
            yield from frame

    def _admit(self, constraint: Constraint):
        """What the top scope keeps for ``constraint``: by default, itself."""
        return constraint

    def _pushed(self) -> None:
        """Called after a scope opens."""

    def _popped(self) -> None:
        """Called after a scope closes."""

    def __enter__(self) -> "SolverSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def extract_plan(
    model: Mapping[str, Union[Fraction, int]],
    start_step: int,
    end_step: int,
    pomdp: Pomdp,
    run: Optional[RunContext] = None,
) -> CandidatePlan:
    """Decode a satisfying model into the plan over ``start_step..end_step``
    and re-verify it.

    Beliefs are read as exact rationals and each step is re-checked against
    the belief transition, through ``run``'s successor cache when given
    (else a kernel compiled for this call); any mismatch means the solver's
    model violates the encoding (or returned non-rational values) and is a
    hard error.
    """
    n = len(pomdp.states)
    try:
        beliefs = []
        for step in range(start_step, end_step + 1):
            values = tuple(model[belief_var_name(step, j)] for j in range(n))
            try:
                beliefs.append(Belief(values))
            except ModelError as exc:
                raise PlanDecodeError(f"step {step}: {exc}") from None
        actions, observations = [], []
        for step in range(start_step + 1, end_step + 1):
            actions.append(int(model[action_var_name(step)]))
            observations.append(int(model[observation_var_name(step)]))
    except KeyError as exc:
        raise PlanDecodeError(f"model is missing variable {exc.args[0]!r}") from None
    for a in actions:
        if not 0 <= a < len(pomdp.actions):
            raise PlanDecodeError(f"action selector out of range: {a}")
    for o in observations:
        if not 0 <= o < len(pomdp.observations):
            raise PlanDecodeError(f"observation selector out of range: {o}")
    lookup = run.successors if run is not None else CompiledModel(pomdp).successors
    for i, (a, o) in enumerate(zip(actions, observations)):
        branch = lookup(beliefs[i], a).get(o)
        if branch is None:
            raise PlanDecodeError(
                f"step {start_step + i + 1}: model chose an impossible observation")
        if branch[1] != beliefs[i + 1]:
            raise PlanDecodeError(
                f"step {start_step + i + 1}: model belief disagrees with the exact update")
    return CandidatePlan(start_step, tuple(beliefs), tuple(actions), tuple(observations))
