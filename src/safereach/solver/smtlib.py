"""SMT backend: SMT-LIB v2, to the bundled solver or to a solver process.

The only backend that speaks SMT, and the one place SMT-LIB is written:
each added constraint is lowered once, at its first send, to a term
(:func:`lower`), its ``assert`` command, after the ``declare-const`` commands
of the variables it introduces: an initial belief declares its step's
beliefs, a transition its step's selectors as ``Int``, its chain's flags
``p_j`` and ``f_j`` as ``Bool`` and the rest as ``Real``.  Each unnormalized
belief of a transition is one table over the selector pair whose cases are
linear sums, and the transition is followed by its chain (:func:`_chain`),
which defines ``p_j`` (every belief before step j is safe) and ``f_j`` (the
goal has fired by step j) from the step before.  A goal, which starts at the
unfolding's start step, is the one flag ``f_k`` (at the start step, the start
belief's goal test), and a lemma clause's guard ``(not f_j)``, so goal and
lemma text is linear in the span.  Drives the bundled reference solver, or
any conforming solver binary (``z3 -in`` works), with ``push``/``pop``
scopes, sent only at a check the support game cannot answer, reads a pipe's
answers with the reference solver's reader, takes models' values as exact
rationals, and decodes them into the candidate plan a satisfying check
answers with.  It is the only module that knows the variable names besides
:mod:`safereach.encoding`, which defines them.  In non-incremental mode every
such check replays the kept commands of all live assertions into a solver
just reset, for the from-scratch one.

Commands and answers are terms; text is what a pipe carries.  An endpoint is
a :class:`_SmtProcess`, which is sent commands and reads answers; its transport
is one of two subclasses.  :class:`_InProcessSolver` hands the terms to the
bundled solver in the driver's process, one :class:`refsolver.Session` per
endpoint, which honours each check's deadline in its search and answers with
terms; :class:`_SolverProcess` execs an explicit solver command as given,
writes it each command as the text :func:`refsolver.render` makes of it, and
reads its answers with :class:`refsolver.CommandReader`.  Every
session draws its endpoint from the run's one :class:`SolverPool`, which
keeps the idle ones: a session holds one from its first check that reaches
a solver until it closes (or, from scratch, for one check) and hands it
back after ``(reset)`` and the header, and one that timed out, failed or
answered with a model that does not decode is closed instead.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from collections import deque
from fractions import Fraction
from functools import reduce
from itertools import chain
from typing import Mapping, Optional, Sequence, Union

from ..core import (Belief, CandidatePlan, LinearBeliefPredicate, ModelError, Pomdp,
                    RunContext, SafeReachObjective)
from .. import refsolver
from ..encoding import (Constraint, DeadAction, Goal, Initial, Transition, action_var_name,
                        belief_var_name, fired_var_name, observation_var_name,
                        safe_var_name, step_vars)
from ..refsolver import SmtSyntaxError, numeral, render
from .session import (
    PlanDecodeError,
    Sat,
    SatResult,
    SolverConfig,
    SolverError,
    SolverSession,
    Unknown,
    Unsat,
)


LOGIC = "QF_NIRA"


class ModelValueError(SolverError):
    """A model value is not an exact rational, or an ``Int`` is not an integer."""


HEADER = (("set-option", ":produce-models", True), ("set-logic", LOGIC))
PUSH, POP = ("push", 1), ("pop", 1)
CHECK_SAT, GET_MODEL, RESET, EXIT = ("check-sat",), ("get-model",), ("reset",), ("exit",)


def default_solver_command() -> tuple[str, ...]:
    """A command that runs the bundled reference solver as a program of its
    own, with the current interpreter, lean.

    A session with no command runs the bundled solver in the driver's
    process instead; give this as ``SolverConfig.command`` to run it as a
    separate process.  ``-I -S`` keeps the environment, the user site and
    ``site`` itself out of the child, and importing ``refsolver`` (rather
    than running it as a script) loads it from cached bytecode.  The package
    directory is appended to the path, so the standard library wins any name
    clash.
    """
    package = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = f"import sys; sys.path.append({package!r}); import refsolver; refsolver.main()"
    return (sys.executable, "-I", "-S", "-c", code)


# --------------------------------------------------------------------------
# Lowering: constraints to SMT-LIB terms
# --------------------------------------------------------------------------

_ZERO, _ONE = Fraction(0), Fraction(1)


def lower(constraint: Union[Constraint, DeadAction], run: RunContext,
          span: Optional[tuple] = None):
    """The constraint or run lemma as one SMT-LIB term over the step variables
    of the run's model, shaped as :func:`refsolver.parse_tokens` reads its
    text; a goal is lowered against the run's objective, and a
    :class:`DeadAction` against its goal scope's ``span``, (start step, horizon).
    A goal, and a lemma's guard, read the fired flags each transition's chain
    (:func:`_chain`) defines.

    Normalization is division-free (``b_i * denom_i = u_i``, ``denom_i > 0``)
    so the whole theory stays in polynomial arithmetic.
    """
    n = len(run.model.states)
    if isinstance(constraint, Initial):
        beliefs = step_vars(constraint.step, n, start=True).belief_vars
        return _app("and", _pins(beliefs, constraint.belief))
    if isinstance(constraint, Transition):
        return _transition(constraint.step, run.model)
    if isinstance(constraint, Goal):
        return _fired(constraint.end_step, constraint.start_step, n, run.objective)
    if isinstance(constraint, DeadAction) and span is not None:
        return _dead_action(constraint, *span, n, run.objective)
    raise TypeError(f"cannot lower {constraint!r}")


def serialize(constraint: Union[Constraint, DeadAction], run: RunContext, *context) -> str:
    """The text of :func:`lower`'s term, as a solver process is sent it."""
    return render(lower(constraint, run, *context))


def _app(op: str, args: Sequence):
    """``(op args...)``, or the one argument itself."""
    return args[0] if len(args) == 1 else (op, *args)


def _pins(names: Sequence[str], belief: Belief) -> list[tuple]:
    return [("=", name, p) for name, p in zip(names, belief.probs)]


def _ite_chain(cases: Sequence[tuple[tuple, object]]):
    """The value of the first case whose condition holds, else 0."""
    return reduce(lambda rest, case: ("ite", *case, rest), reversed(cases), _ZERO)


def _scaled(coefficient: Fraction, name: str):
    """``(* c name)``, or the bare name for a unit coefficient."""
    return name if coefficient == 1 else ("*", coefficient, name)


def _transition(step: int, model: Pomdp):
    """Division-free unfolding of the belief transition into ``step``.

    Encodes u_i(s') = sum_s Z(s', a_i, o_i) T(s, a_i, s') b_{i-1}(s) as one
    table over the selector pair, ``(ite (and (= a_i act) (= o_i obs)) <sum>
    ... 0)``, whose cases are linear sums over the nonzero entries, a unit
    coefficient written as the bare variable; then denom_i = sum u_i,
    denom_i > 0 and b_i(s') * denom_i = u_i(s'), with the selector domains,
    per-action availability and the (redundant but solver-friendly) simplex
    constraints on b_i.  Each ``(s, a)`` row is read once, so the term takes
    time linear in the model's nonzero entries.
    """
    n = len(model.states)
    n_actions = len(model.actions)
    # Only the belief variables of the previous step are read.
    prev = step_vars(step - 1, n, start=True).belief_vars
    cur = step_vars(step, n)
    a, o = cur.action_var, cur.observation_var
    parts: list = [("<=", 0, a), ("<", a, n_actions),
                   ("<=", 0, o), ("<", o, len(model.observations))]
    into: list[dict] = [{} for _ in range(n)]  # into[s2][act][s]: T(s, act, s2)
    where: list[list] = [[] for _ in range(n_actions)]  # the states an action exists in
    for s in range(n):
        for act in model.allowed_actions(s):
            where[act].append(prev[s])
        for act in range(n_actions):
            for s2, p in model.trans_dist(s, act).items():
                if p:
                    into[s2].setdefault(act, {})[s] = p

    # An action may be selected only when the previous belief's support lies
    # entirely inside the states where the action exists.
    for act, states in enumerate(where):
        if len(states) != n:
            mass = _app("+", states) if states else _ZERO
            parts.append(("or", ("not", ("=", a, act)), ("=", mass, _ONE)))

    for s2 in range(n):
        cases = []
        for act in range(n_actions):
            pushed = into[s2].get(act)
            if pushed:
                for obs, z in sorted(model.obs_dist(s2, act).items()):
                    if z:
                        terms = [_scaled(z * p, prev[s]) for s, p in pushed.items()]
                        cases.append((("and", ("=", a, act), ("=", o, obs)), _app("+", terms)))
        parts.append(("=", cur.unnorm_vars[s2], _ite_chain(cases)))

    denom = cur.denom_var
    parts.append(("=", denom, _app("+", cur.unnorm_vars)))
    parts.append(("<", _ZERO, denom))
    parts.extend(("=", ("*", b, denom), u) for b, u in zip(cur.belief_vars, cur.unnorm_vars))
    parts.append(("=", _app("+", cur.belief_vars), _ONE))
    parts.extend(("<=", _ZERO, b) for b in cur.belief_vars)
    return _app("and", parts)


def _predicate(pred: LinearBeliefPredicate, beliefs: Sequence[str]) -> tuple:
    mass = _app("+", [beliefs[j] for j in sorted(pred.state_set)])
    threshold = pred.threshold
    if pred.comparator == ">":
        return ("<", threshold, mass)
    if pred.comparator == "<":
        return ("<", mass, threshold)
    if pred.comparator == ">=":
        return ("<=", threshold, mass)
    return ("<=", mass, threshold)


def _holds(preds: Sequence[LinearBeliefPredicate], beliefs: Sequence[str]) -> list[tuple]:
    return [_predicate(p, beliefs) for p in preds]


def _fired(step: int, start: int, n: int, objective: SafeReachObjective):
    """The goal over ``start..step``: ``f_step``, or at the start step the
    start belief's goal test itself."""
    if step > start:
        return fired_var_name(step)
    return _app("and", _holds(objective.goal, step_vars(start, n, True).belief_vars))


def _chain(step: int, start: int, n: int, objective: SafeReachObjective):
    """The definitions of the transition into ``step``, sent after it:
    ``(= p_j (and p_{j-1} <safe(b_{j-1})>))`` and ``(= f_j (or f_{j-1} (and p_j
    <goal(b_j)>)))``.  The chain starts at the first transition: at j =
    start + 1, p_j is the start belief's safe test and f_{j-1} its goal test.
    A goal over start..k is then the one flag f_k, and each clause that
    reads a flag is of constant size."""
    earlier = [] if step == start + 1 else [safe_var_name(step - 1)]
    earlier += _holds(objective.safe, step_vars(step - 1, n, True).belief_vars)
    p, f = safe_var_name(step), fired_var_name(step)
    goal = _app("and", [p, *_holds(objective.goal, step_vars(step, n, True).belief_vars)])
    return ("and", ("=", p, _app("and", earlier) if earlier else True),
            ("=", f, ("or", _fired(step - 1, start, n, objective), goal)))


def _dead_action(lemma: DeadAction, start: int, end: int, n: int,
                 objective: SafeReachObjective):
    """``(not (and <pins of b_j> (= a_{j+1} action) (not f_j)))`` per step j
    with ``end - j <= budget``, or ``true``; filler after a goal is free.
    Only the lemma belief's support is pinned: b_j is a distribution, so
    those pins fix the rest at 0."""
    belief = lemma.belief
    clauses = [("not", ("and", *(("=", belief_var_name(j, i), belief.probs[i])
                                 for i in belief.indices),
                        ("=", action_var_name(j + 1), lemma.action),
                        ("not", _fired(j, start, n, objective))))
               for j in range(max(start, end - lemma.budget), end)]
    return _app("and", clauses) if clauses else True


def _winnable(goal: Goal, root: tuple[int, ...], run: RunContext):
    """``(or f_{j-1} (and (not <b_j has support S>)...))`` per step j of the
    goal's span before its end whose layer, the supports reachable from the
    ``root`` support at its start through ones that can still win, holds
    supports S that cannot win in the steps left; the guard only once an
    earlier layer may hold a goal.  Or ``true``.  The goal implies each
    clause (see the README)."""
    n, start = len(run.model.states), goal.start_step
    layer, guarded, clauses = {root}, False, []
    for j in range(start, goal.end_step):
        b, left = step_vars(j, n, True).belief_vars, goal.end_step - j
        hopeless = sorted(s for s in layer if not run.wins(s, left))
        if hopeless:
            off = [("not", _app("and", [("=", _app("+", [b[i] for i in s]), _ONE),
                                        *(("<", _ZERO, b[i]) for i in s if len(s) > 1)]))
                   for s in hopeless]
            guard = [_fired(j - 1, start, n, run.objective)] if guarded else []
            clauses.append(_app("or", [*guard, _app("and", off)]))
        guarded = guarded or any(run.wins(s, 0) for s in layer)  # may hold a goal
        layer = {s2 for s in layer if run.wins(s, left) for s2 in run.model.support_successors(s)}
    return _app("and", clauses) if clauses else True


def _declarations(constraint: Constraint, n: int) -> list[tuple]:
    """The ``declare-const`` commands, sorted by name, of the variables an
    initial belief or a transition introduces at its step; selectors are
    ``Int``, and the chain's flags ``Bool``."""
    if isinstance(constraint, Initial):
        sorts = dict.fromkeys(step_vars(constraint.step, n, start=True).belief_vars, "Real")
    elif isinstance(constraint, Transition):
        v = step_vars(constraint.step, n)
        sorts = {**dict.fromkeys((*v.belief_vars, *v.unnorm_vars, v.denom_var), "Real"),
                 v.action_var: "Int", v.observation_var: "Int",
                 safe_var_name(v.step): "Bool", fired_var_name(v.step): "Bool"}
    else:
        return []
    return [("declare-const", name, sort) for name, sort in sorted(sorts.items())]


# --------------------------------------------------------------------------
# Response parsing
# --------------------------------------------------------------------------

def parse_model(answer) -> dict[str, Union[Fraction, int, bool]]:
    """The values of a ``get-model`` answer term (with or without the
    ``model`` keyword); a ``Bool`` is ``true`` or ``false``."""
    if not isinstance(answer, tuple):
        raise SolverError(f"unexpected get-model response: {answer!r}")
    entries = answer[1:] if answer and answer[0] == "model" else answer
    model: dict[str, Union[Fraction, int, bool]] = {}
    for entry in entries:
        if not (isinstance(entry, tuple) and entry and entry[0] == "define-fun"):
            continue
        if len(entry) != 5:
            raise SolverError(f"malformed model entry: {entry!r}")
        _, name, _args, sort, term = entry
        if sort == "Bool":
            if type(term) is not bool:
                raise ModelValueError(f"non-boolean model value for {name}: {term!r}")
            model[name] = term
            continue
        value = numeral(term)
        if value is None:
            raise ModelValueError(f"non-rational model value for {name}: {term!r}")
        if sort == "Int" and Fraction(value).denominator != 1:
            raise ModelValueError(f"non-integer model value for {name}: {value}")
        model[name] = int(value) if sort == "Int" else Fraction(value)
    return model


def _decode_plan(values: Mapping[str, Union[Fraction, int]], start: int, horizon: int,
                 pomdp: Pomdp) -> CandidatePlan:
    """The plan a parsed model assigns over ``start..horizon``, not yet verified
    against the belief transition (that is :func:`~.session.extract_plan`)."""
    n = len(pomdp.states)
    try:
        beliefs = []
        for step in range(start, horizon + 1):
            try:
                beliefs.append(Belief(values[belief_var_name(step, j)] for j in range(n)))
            except ModelError as exc:
                raise PlanDecodeError(f"step {step}: {exc}") from None
        steps = range(start + 1, horizon + 1)
        for name in (*map(action_var_name, steps), *map(observation_var_name, steps)):
            if Fraction(values[name]).denominator != 1:
                raise PlanDecodeError(f"non-integer selector value for {name}: {values[name]}")
        actions = tuple(int(values[action_var_name(step)]) for step in steps)
        observations = tuple(int(values[observation_var_name(step)]) for step in steps)
    except KeyError as exc:
        raise PlanDecodeError(f"model is missing variable {exc.args[0]!r}") from None
    for a in actions:
        if not 0 <= a < len(pomdp.actions):
            raise PlanDecodeError(f"action selector out of range: {a}")
    for o in observations:
        if not 0 <= o < len(pomdp.observations):
            raise PlanDecodeError(f"observation selector out of range: {o}")
    return CandidatePlan(start, tuple(beliefs), actions, observations)


# --------------------------------------------------------------------------
# Solver endpoints
# --------------------------------------------------------------------------

class _SmtProcess:
    """One solver endpoint.  A subclass gives ``alive``, ``_write(command)``,
    ``close()`` and ``read(deadline)``: the next answer term, raising
    :class:`TimeoutError` past the deadline and :class:`SolverError` once no
    answer can come."""

    def __init__(self) -> None:
        """Every endpoint starts here, before its transport; tracers count endpoints by it."""

    def send(self, command: tuple) -> None:
        self._write(command)


class _InProcessSolver(_SmtProcess):
    """The bundled solver in the driver's process, sent the terms themselves
    and answering with terms.  Commands sent to it wait until an answer is
    read, as a solver process works while its driver waits to read, and are
    then all run, in the order sent.  ``(exit)`` or a failure inside the
    solver ends it; a failure is raised as a :class:`SolverError`."""

    def __init__(self) -> None:
        super().__init__()
        self._session = refsolver.Session()
        self._pending: list[tuple] = []
        self._answers: deque = deque()
        self.alive = True

    def _write(self, command: tuple) -> None:
        if not self.alive:
            raise SolverError("the bundled solver has ended")
        self._pending.append(command)

    def read(self, deadline: Optional[float]):
        if not self._answers and self.alive:
            commands, self._pending = iter(self._pending), []
            try:
                if not self._session.run(lambda: next(commands, None), self._answers.append,
                                         deadline):
                    self.close()
                elif not self._answers:
                    raise SolverError("no command is waiting for an answer")
            except BaseException as exc:
                self.close()
                if isinstance(exc, (SolverError, TimeoutError)) or not isinstance(exc, Exception):
                    raise
                raise SolverError(f"the bundled solver failed: {type(exc).__name__}: {exc}") \
                    from exc
        if not self._answers:
            raise SolverError("solver closed its output stream")
        return self._answers.popleft()

    def close(self) -> None:
        """Stop for good, dropping every assertion and waiting command."""
        self.alive = False
        self._session = None
        self._pending = []


class _SolverProcess(_SmtProcess):
    """A solver program, sent each command as a line of text over a pipe,
    whose answers are read back as terms."""

    def __init__(self, command: Sequence[str]) -> None:
        super().__init__()
        try:
            self._popen = subprocess.Popen(
                command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
        except OSError as exc:
            raise SolverError(f"cannot start solver {command!r}: {exc}") from exc
        self._reader = refsolver.CommandReader(self)
        self._buffer = b""
        self._deadline: Optional[float] = None

    @property
    def alive(self) -> bool:
        return self._popen.poll() is None

    def _write(self, command: tuple) -> None:
        assert self._popen.stdin is not None
        try:
            self._popen.stdin.write(render(command).encode() + b"\n")
            self._popen.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise SolverError(f"solver pipe closed: {exc}") from exc

    def read(self, deadline: Optional[float]):
        self._deadline = deadline
        try:
            return self._reader.next_command()
        except (SmtSyntaxError, UnicodeDecodeError) as exc:
            raise SolverError(f"malformed solver response: {exc}") from None

    def readline(self) -> str:
        """The stream :attr:`_reader` reads: the next line, by the read's deadline."""
        assert self._popen.stdout is not None
        fd = self._popen.stdout.fileno()
        while b"\n" not in self._buffer:
            if self._deadline is not None:
                remaining = self._deadline - time.monotonic()
                if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                    raise TimeoutError
            chunk = os.read(fd, 65536)
            if not chunk:
                raise SolverError("solver closed its output stream" + self._stderr_tail())
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode() + "\n"

    def _stderr_tail(self) -> str:
        if self._popen.stderr is None:
            return ""
        try:
            os.set_blocking(self._popen.stderr.fileno(), False)
            tail = self._popen.stderr.read() or b""
        except OSError:
            return ""
        text = tail.decode(errors="replace").strip()
        return f" (stderr: {text[-300:]})" if text else ""

    def close(self) -> None:
        try:
            if self._popen.stdin is not None:
                self._popen.stdin.close()
        except OSError:
            pass
        try:
            self._popen.terminate()
            self._popen.wait(timeout=2)
        except (OSError, subprocess.TimeoutExpired):
            self._popen.kill()
            self._popen.wait()
        for stream in (self._popen.stdout, self._popen.stderr):
            if stream is not None:
                stream.close()


class SolverPool:
    """Idle solver endpoints for the sessions of one run, newest first, and their ``config``.

    :meth:`take` hands out an idle endpoint, or starts one and sends it the
    header; :meth:`give_back` resets a healthy endpoint and keeps it.  Only
    the pool's owner closes it, and closing ends every idle endpoint: a run
    builds one pool, which all its sessions draw from, and closes it in a
    ``finally``.  An endpoint is handed back with no
    read of its own: a session reads every response it asks for, so the one
    thing that can be left over is an ``(error ...)`` line, which the next
    check reads as a solver failure.
    """

    def __init__(self, config: SolverConfig = SolverConfig()) -> None:
        self.config = config
        # ``None`` runs the bundled solver in this process.
        self.command = tuple(config.command) if config.command else None
        self._idle: list[_SmtProcess] = []

    def take(self) -> _SmtProcess:
        while self._idle:
            proc = self._idle.pop()
            if proc.alive:
                return proc
            proc.close()
        proc = _InProcessSolver() if self.command is None else _SolverProcess(self.command)
        try:
            for command in HEADER:
                proc.send(command)
        except SolverError:
            proc.close()
            raise
        return proc

    def give_back(self, proc: _SmtProcess) -> None:
        try:
            for command in (RESET, *HEADER):
                proc.send(command)
        except SolverError:
            proc.close()
            return
        self._idle.append(proc)

    def close(self) -> None:
        while self._idle:
            proc = self._idle.pop()
            try:
                proc.send(EXIT)
            except SolverError:
                pass
            proc.close()

    def __enter__(self) -> "SolverPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------------
# The session
# --------------------------------------------------------------------------

class SmtLibSession(SolverSession):
    """Drives one solver endpoint incrementally, or one per check from scratch,
    drawn from the run's ``pool``, which outlives it and whose config it runs.

    An added constraint, a push or a pop is only recorded.  A check whose
    goal the support game refutes at the root answers ``unsat`` with no
    endpoint, as the solver would at the root of the goal's clause
    (:func:`_winnable`); any other takes one, if the session holds none, and
    sends it what it lacks (:meth:`_send_live`)."""

    def __init__(self, run: RunContext, pool: SolverPool) -> None:
        super().__init__(run)
        self.config = pool.config
        self._pool = pool
        self._proc: Optional[_SmtProcess] = None
        self._dead = False
        self._held = [0]  # per open scope: how many of the run's lemmas are live in it
        self._sent = [0]  # per scope the endpoint holds, the base one first: the entries sent
        self._kept = 1  # how many of those scopes are still open

    # -- bookkeeping -------------------------------------------------------

    def _guard(self) -> None:
        super()._guard()
        if self._dead:
            raise SolverError("session is dead after a backend failure")

    def _ensure_process(self) -> _SmtProcess:
        if self._proc is None:
            try:
                self._proc = self._pool.take()
            except BaseException:
                self._die()
                raise
        return self._proc

    def _release(self) -> None:
        if self._proc is not None:
            self._pool.give_back(self._proc)
            self._proc = None

    def _die(self) -> None:
        """Mark the session dead and close its endpoint instead of handing it back."""
        self._dead = True
        if self._proc is not None:
            self._proc.close()
            self._proc = None

    def _commands(self, constraint: Union[Constraint, DeadAction], entry: list) -> tuple:
        """A live constraint's declarations and assertions, lowered at the first
        call against the session's unfolding, which no step joins while a goal
        or lemma is live, and kept on its ``entry``.  A transition is followed
        by its chain's definitions (:func:`_chain`), a goal by the game's
        clause it implies (:func:`_winnable`)."""
        if entry[0] is None:
            root, start, horizon = self._unfolding()
            n = len(self.model.states)
            assertions = [("assert", lower(constraint, self.run, (start, horizon)))]
            if isinstance(constraint, Transition):
                assertions.append(("assert", _chain(constraint.step, start, n,
                                                    self.run.objective)))
            elif isinstance(constraint, Goal):
                assertions.append(("assert", _winnable(constraint, root.indices, self.run)))
            entry[0] = (_declarations(constraint, n), assertions)
        return entry[0]

    def _send_live(self, proc: _SmtProcess) -> None:
        """Bring the endpoint up to date: from scratch, just reset, it is sent every
        live declaration, then every assertion.  Incrementally it is sent a pop
        for each scope it holds popped since the last call, then what each live
        scope gained, after a push for each scope it does not hold yet."""
        if not self.config.incremental:
            live = [self._commands(*item) for item in self._live()]
            for command in chain(*[d for d, _ in live], *[a for _, a in live]):
                proc.send(command)
            return
        for _ in self._sent[self._kept:]:
            proc.send(POP)
        del self._sent[self._kept:]
        for depth, frame in enumerate(self._frames):
            if depth == len(self._sent):
                proc.send(PUSH)
                self._sent.append(0)
            for item in frame[self._sent[depth]:]:
                for command in chain(*self._commands(*item)):
                    proc.send(command)
            self._sent[depth] = len(frame)
        self._kept = len(self._frames)

    # -- SolverSession hooks -----------------------------------------------

    def _admit(self, constraint: Union[Constraint, DeadAction]) -> list:
        """The slot for the constraint's commands, filled once they are lowered."""
        return [None]

    def _pushed(self) -> None:
        self._held.append(self._held[-1])

    def _popped(self) -> None:
        self._held.pop()
        self._kept = min(self._kept, len(self._frames))

    def check(self) -> SatResult:
        self._guard()
        root, start, horizon = self._unfolding()
        if self._goal is not None:
            if not self.run.wins(root.indices, horizon - start):
                return Unsat()  # the goal's clause is false under the initial pins
            # The run's lemmas no live scope holds, into the top one.
            lemmas = self.run.dead_actions[self._held[-1]:]
            self._frames[-1].extend((lemma, self._admit(lemma)) for lemma in lemmas)
            self._held[-1] += len(lemmas)
        proc = self._ensure_process()
        deadline = time.monotonic() + self.config.check_timeout
        try:
            self._send_live(proc)
            result = self._check_on(proc, deadline, start, horizon)
        except TimeoutError:
            self._die()
            return Unknown(f"check timed out after {self.config.check_timeout}s")
        except SolverError as exc:
            self._die()
            return Unknown(f"solver failure: {exc}")
        except BaseException:
            self._die()  # cut off mid-exchange: what the process says next is unknown
            raise
        if not self.config.incremental:
            self._release()
        return result

    def _check_on(self, proc: _SmtProcess, deadline: float, start: int,
                  horizon: int) -> SatResult:
        proc.send(CHECK_SAT)
        verdict = proc.read(deadline)
        if type(verdict) is tuple and verdict[:1] == ("error",):
            raise SolverError(f"solver error: {render(verdict)}")
        if verdict == "unsat":
            return Unsat()
        if verdict == "unknown":
            return Unknown("solver returned unknown")
        if verdict != "sat":
            raise SolverError(f"unexpected check-sat response: {render(verdict)!r}")
        proc.send(GET_MODEL)
        values = parse_model(proc.read(deadline))
        return Sat(_decode_plan(values, start, horizon, self.model))

    def close(self) -> None:
        if self._closed:
            return
        super().close()
        self._release()
