"""Session interface shared by the solver backends, plus plan verification.

A satisfying check answers with the candidate plan itself, over the whole
unfolding its live constraints describe; how a backend finds or decodes it
is its own business.  Only the SMT-LIB backend knows the variable names.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, Optional, Union, get_args

from ..core import Belief, CandidatePlan, RunContext
from ..encoding import Constraint, Goal, Initial, Transition

_CONSTRAINTS = get_args(Constraint)


class SolverError(RuntimeError):
    """Backend failure; the session is dead once this is raised."""


class SolverUsageError(SolverError):
    """Caller misuse, e.g. pop on an empty scope stack."""


class PlanDecodeError(SolverError):
    """A satisfying check did not give a consistent belief-space plan."""


@dataclass(frozen=True)
class Sat:
    """The candidate plan of a satisfying check, spanning the whole unfolding
    (start step to horizon), not yet verified: see :func:`extract_plan`."""

    plan: CandidatePlan


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

    def __post_init__(self) -> None:
        if isinstance(self.command, str):
            raise ValueError(f"command must be a sequence of arguments, got {self.command!r}")
        if self.command is not None and not self.command:
            raise ValueError("command must name a program, got an empty sequence")
        # NaN fails too, and a bool is no number of seconds.
        if isinstance(self.check_timeout, bool) or not 0 < self.check_timeout < float("inf"):
            raise ValueError(f"check_timeout must be finite and positive, "
                             f"got {self.check_timeout}")


class SolverSession(ABC):
    """An incremental satisfiability session opened on one run, whose model
    and objective it reads, with a stack of assertion scopes.

    The scope stack lives here: each added constraint next to whatever
    :meth:`_admit` returns for it.  A backend hears of every push and pop
    through :meth:`_pushed` and :meth:`_popped`, and reads the unfolding the
    live constraints describe from :meth:`_unfolding`, and the live goal, which
    spans it, from ``_goal``.  The run's lemmas and support game are no
    constraints: each backend reads them from ``run``.

    Sessions are single-owner: never share one across threads.  Distinct
    sessions may be opened from any thread and run concurrently; the SMT-LIB
    backend runs the bundled solver in the session's own thread, and the
    bundled solver keeps no state outside its sessions.
    """

    def __init__(self, run: RunContext) -> None:
        self.run = run
        self.model = run.model
        self._frames: list[list[tuple[Constraint, object]]] = [[]]
        self._span: Optional[tuple[Belief, int, int]] = None
        self._goal: Optional[Goal] = None  # the live goal, the latest added if several
        self._saved: list = []  # the span and goal at each open scope's push
        self._closed = False

    def add(self, constraint: Constraint) -> None:
        """Assert an initial belief, a transition or a goal into the current
        (top) scope.  It may name only steps already unfolded (:meth:`_unfold`):
        its initial belief comes first, a goal spans them all, and no step is
        unfolded while a goal is live.  Anything else, a block or a learned
        :class:`~safereach.encoding.DeadAction` too, is a usage error."""
        self._guard()
        if not isinstance(constraint, _CONSTRAINTS):
            raise SolverUsageError(f"unsupported constraint {constraint!r}")
        self._span = self._unfold(constraint)
        self._goal = constraint if isinstance(constraint, Goal) else self._goal
        self._frames[-1].append((constraint, self._admit(constraint)))

    def push(self) -> None:
        """Open a new scope."""
        self._guard()
        self._frames.append([])
        self._saved.append((self._span, self._goal))
        self._pushed()

    def pop(self) -> None:
        """Discard the top scope and everything asserted inside it."""
        self._guard()
        if len(self._frames) <= 1:
            raise SolverUsageError("pop with no matching push")
        self._frames.pop()
        self._span, self._goal = self._saved.pop()
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

    def _live(self) -> Iterator[tuple[Constraint, object]]:
        """Each live constraint with what :meth:`_admit` returned, oldest first."""
        for frame in self._frames:
            yield from frame

    def _unfolding(self) -> tuple[Belief, int, int]:
        """(initial belief, start step, horizon) of the live constraints."""
        if self._span is None:
            raise SolverUsageError("exactly one initial-belief constraint is required")
        return self._span

    def _unfold(self, constraint: Constraint) -> tuple[Belief, int, int]:
        """The unfolding once ``constraint`` is live, or a usage error when it
        names a step outside it, unfolds one under a live goal, or is a short goal."""
        if isinstance(constraint, Initial):
            if self._span is not None:
                raise SolverUsageError("exactly one initial-belief constraint is allowed")
            return constraint.belief, constraint.step, constraint.step
        belief, start, horizon = self._unfolding()
        if isinstance(constraint, Transition):
            if constraint.step != horizon + 1:
                raise SolverUsageError(f"the next step to unfold is {horizon + 1}, "
                                       f"not {constraint.step}")
            if self._goal is not None:
                raise SolverUsageError(f"step {constraint.step} is unfolded under a live goal")
            return belief, start, constraint.step
        first, last = constraint.start_step, constraint.end_step
        if not start <= first <= last <= horizon:
            raise SolverUsageError(f"{type(constraint).__name__} over steps {first}..{last} "
                                   f"do not fit the unfolded {start}..{horizon}")
        if first != start:
            raise SolverUsageError(f"a goal starts at the unfolding's start step {start}, "
                                   f"not {first}")
        if last != horizon:
            raise SolverUsageError("goal constraint must span the whole unfolding")
        return self._span

    def _admit(self, constraint: Constraint) -> object:
        """What the backend keeps next to ``constraint``: by default, nothing."""
        return None

    def _pushed(self) -> None:
        """Called after a scope opens."""

    def _popped(self) -> None:
        """Called after a scope closes."""

    def __enter__(self) -> "SolverSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def extract_plan(outcome: Sat, start_step: int, end_step: int, run: RunContext) -> CandidatePlan:
    """The plan of a satisfying check over ``start_step..end_step``, re-verified.

    Every step is re-derived through ``run``'s successor cache; a plan of
    another span, an impossible observation or a posterior that disagrees
    with the exact update means the backend broke the encoding, and is a
    hard error.
    """
    plan = outcome.plan
    if (plan.start_step, plan.end_step) != (start_step, end_step):
        raise PlanDecodeError(f"plan spans steps {plan.start_step}..{plan.end_step}, "
                              f"not {start_step}..{end_step}")
    for i, (a, o) in enumerate(zip(plan.actions, plan.observations)):
        posterior = {obs: b for obs, b, *_ in run.successors(plan.beliefs[i], a)}.get(o)
        if posterior is None:
            raise PlanDecodeError(
                f"step {start_step + i + 1}: plan chose an impossible observation")
        if posterior != plan.beliefs[i + 1]:
            raise PlanDecodeError(
                f"step {start_step + i + 1}: plan belief disagrees with the exact update")
    return plan
