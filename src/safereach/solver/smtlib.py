"""External SMT backend: SMT-LIB v2 over a subprocess pipe.

The only backend that speaks SMT: each added constraint is lowered to a term
(:func:`safereach.encoding.lower`) and serialized once, into its
``declare-const`` and ``assert`` lines.  Drives any conforming solver binary
(``z3 -in`` works; the default is the bundled reference solver) with
``push``/``pop`` scopes, and parses models back into exact rationals, then
decodes them into the candidate plan a satisfying check answers with.  It
is the only module besides :mod:`safereach.encoding` that knows the
variable names.  In non-incremental mode every check replays the kept lines
of all live assertions into a solver process that has just been reset, for
the from-scratch comparison.

Solver processes are reused: a :class:`SolverPool` keeps a run's idle
processes, a session holds one while it is open (or, from scratch, for one
check) and hands it back after ``(reset)`` and the header, and a process
that timed out, crashed or answered with a model that does not decode is
killed instead.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from ..core import Belief, CandidatePlan, ModelError, Pomdp, RunContext
from ..encoding import (
    Add,
    And,
    BoolConst,
    Constraint,
    Eq,
    IConst,
    Ite,
    IVar,
    Le,
    Lt,
    Mul,
    Not,
    Or,
    RConst,
    RVar,
    Term,
    action_var_name,
    belief_var_name,
    lower,
    observation_var_name,
    term_variables,
)
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


HEADER = ("(set-option :produce-models true)", f"(set-logic {LOGIC})")


def default_solver_command() -> tuple[str, ...]:
    """Run the bundled reference solver with the current interpreter, lean.

    ``-I -S`` keeps the environment, the user site and ``site`` itself out
    of the child, and importing ``refsolver`` (rather than running it as a
    script) loads it from cached bytecode.  The package directory is
    appended to the path, so the standard library wins any name clash.
    """
    package = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = f"import sys; sys.path.append({package!r}); import refsolver; refsolver.main()"
    return (sys.executable, "-I", "-S", "-c", code)


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def _rational_literal(value: Fraction) -> str:
    if value < 0:
        return f"(- {_rational_literal(-value)})"
    if value.denominator == 1:
        return f"{value.numerator}.0"
    return f"(/ {value.numerator}.0 {value.denominator}.0)"


def serialize(term: Term) -> str:
    parts: list[str] = []
    _serialize_into(term, parts)
    return "".join(parts)


def _serialize_into(term: Term, parts: list[str]) -> None:
    if isinstance(term, RConst):
        parts.append(_rational_literal(term.value))
    elif isinstance(term, IConst):
        parts.append(str(term.value) if term.value >= 0 else f"(- {-term.value})")
    elif isinstance(term, (RVar, IVar)):
        parts.append(term.name)
    elif isinstance(term, BoolConst):
        parts.append("true" if term.value else "false")
    elif isinstance(term, (Add, Mul, And, Or)):
        op = {Add: "+", Mul: "*", And: "and", Or: "or"}[type(term)]
        if len(term.args) == 1:
            _serialize_into(term.args[0], parts)
            return
        parts.append(f"({op}")
        for arg in term.args:
            parts.append(" ")
            _serialize_into(arg, parts)
        parts.append(")")
    elif isinstance(term, (Eq, Le, Lt)):
        op = {Eq: "=", Le: "<=", Lt: "<"}[type(term)]
        parts.append(f"({op} ")
        _serialize_into(term.lhs, parts)
        parts.append(" ")
        _serialize_into(term.rhs, parts)
        parts.append(")")
    elif isinstance(term, Not):
        parts.append("(not ")
        _serialize_into(term.arg, parts)
        parts.append(")")
    elif isinstance(term, Ite):
        parts.append("(ite ")
        _serialize_into(term.cond, parts)
        parts.append(" ")
        _serialize_into(term.then, parts)
        parts.append(" ")
        _serialize_into(term.other, parts)
        parts.append(")")
    else:
        raise TypeError(f"cannot serialize {term!r}")


# --------------------------------------------------------------------------
# Response parsing
# --------------------------------------------------------------------------

def _tokenize(text: str) -> list[str]:
    out: list[str] = []
    token = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == '"':
            j = text.find('"', i + 1)
            out.append(text[i:j + 1])
            i = j + 1
            continue
        if c in "()":
            if token:
                out.append("".join(token))
                token = []
            out.append(c)
        elif c.isspace():
            if token:
                out.append("".join(token))
                token = []
        else:
            token.append(c)
        i += 1
    if token:
        out.append("".join(token))
    return out


def _parse_sexpr(tokens: list[str], pos: int = 0):
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while tokens[pos] != ")":
            item, pos = _parse_sexpr(tokens, pos)
            items.append(item)
        return items, pos + 1
    return tok, pos + 1


def _parse_numeric(node, context: str) -> Union[Fraction, int]:
    if isinstance(node, str):
        try:
            if "." in node:
                return Fraction(node)
            return int(node)
        except ValueError:
            raise ModelValueError(f"non-rational model value for {context}: {node}") from None
    if isinstance(node, list) and node:
        if node[0] == "-" and len(node) == 2:
            return -_parse_numeric(node[1], context)
        if node[0] == "/" and len(node) == 3:
            num = _parse_numeric(node[1], context)
            den = _parse_numeric(node[2], context)
            return Fraction(num) / Fraction(den)
    raise ModelValueError(f"non-rational model value for {context}: {node}")


def parse_model(text: str) -> dict[str, Union[Fraction, int]]:
    """Parse a ``get-model`` response (with or without the ``model`` keyword)."""
    tokens = _tokenize(text)
    tree, _ = _parse_sexpr(tokens)
    if not isinstance(tree, list):
        raise SolverError(f"unexpected get-model response: {text[:200]}")
    entries = tree[1:] if tree and tree[0] == "model" else tree
    model: dict[str, Union[Fraction, int]] = {}
    for entry in entries:
        if not (isinstance(entry, list) and entry and entry[0] == "define-fun"):
            continue
        name, _args, sort, value = entry[1], entry[2], entry[3], entry[4]
        parsed = Fraction(_parse_numeric(value, name))
        if sort == "Int" and parsed.denominator != 1:
            raise ModelValueError(f"non-integer model value for {name}: {parsed}")
        model[name] = int(parsed) if sort == "Int" else parsed
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
# Process plumbing
# --------------------------------------------------------------------------

class _SmtProcess:
    def __init__(self, command: Sequence[str]) -> None:
        try:
            self.proc = subprocess.Popen(
                command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
        except OSError as exc:
            raise SolverError(f"cannot start solver {command!r}: {exc}") from exc
        self._buffer = b""

    def send(self, line: str) -> None:
        assert self.proc.stdin is not None
        try:
            self.proc.stdin.write(line.encode() + b"\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise SolverError(f"solver pipe closed: {exc}") from exc

    def _fill(self, deadline: Optional[float]) -> None:
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise TimeoutError
        chunk = os.read(fd, 65536)
        if not chunk:
            raise SolverError("solver closed its output stream" + self._stderr_tail())
        self._buffer += chunk

    def read_line(self, deadline: Optional[float]) -> str:
        while b"\n" not in self._buffer:
            self._fill(deadline)
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode().strip()

    def read_sexpr(self, deadline: Optional[float]) -> str:
        """Read one balanced s-expression (may span lines)."""
        text = ""
        while True:
            text += self.read_line(deadline) + "\n"
            depth = 0
            in_string = False
            opened = False
            for c in text:
                if c == '"':
                    in_string = not in_string
                elif not in_string and c == "(":
                    depth += 1
                    opened = True
                elif not in_string and c == ")":
                    depth -= 1
            if opened and depth == 0:
                return text

    def _stderr_tail(self) -> str:
        if self.proc.stderr is None:
            return ""
        try:
            os.set_blocking(self.proc.stderr.fileno(), False)
            tail = self.proc.stderr.read() or b""
        except OSError:
            return ""
        text = tail.decode(errors="replace").strip()
        return f" (stderr: {text[-300:]})" if text else ""

    def close(self) -> None:
        try:
            if self.proc.stdin is not None:
                self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.terminate()
            self.proc.wait(timeout=2)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        for stream in (self.proc.stdout, self.proc.stderr):
            if stream is not None:
                stream.close()


class SolverPool:
    """Idle solver processes for the sessions of one run, newest first.

    :meth:`take` hands out an idle process, or spawns one and sends it the
    header; :meth:`give_back` resets a healthy process and keeps it.  Only
    the pool's owner closes it, and closing ends every idle process: a run
    builds one pool and closes it in a ``finally``, and a session opened
    without a pool owns a private one.  A process is handed back with no
    read of its own: a session reads every response it asks for, so the one
    thing that can be left over is an ``(error ...)`` line, which the next
    check reads as a solver failure.
    """

    def __init__(self, config: SolverConfig = SolverConfig()) -> None:
        self.command = tuple(config.command) if config.command else default_solver_command()
        self._idle: list[_SmtProcess] = []

    def take(self) -> _SmtProcess:
        while self._idle:
            proc = self._idle.pop()
            if proc.proc.poll() is None:
                return proc
            proc.close()
        proc = _SmtProcess(self.command)
        try:
            for line in HEADER:
                proc.send(line)
        except SolverError:
            proc.close()
            raise
        return proc

    def give_back(self, proc: _SmtProcess) -> None:
        try:
            for line in ("(reset)", *HEADER):
                proc.send(line)
        except SolverError:
            proc.close()
            return
        self._idle.append(proc)

    def close(self) -> None:
        while self._idle:
            proc = self._idle.pop()
            try:
                proc.send("(exit)")
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

@dataclass(frozen=True)
class _Asserted:
    """A constraint as the solver sees it, serialized once when added."""

    # Variable name -> its ``declare-const`` line, for names first seen here.
    declarations: dict[str, str]
    assertion: str


class SmtLibSession(SolverSession):
    """Drives one solver process incrementally, or one per check from scratch,
    taken from ``pool`` (by default a private pool that closes with the
    session)."""

    def __init__(self, run: RunContext, config: SolverConfig = SolverConfig(),
                 pool: Optional[SolverPool] = None) -> None:
        super().__init__(run)
        self.config = config
        self._owns_pool = pool is None
        self._pool = SolverPool(config) if pool is None else pool
        self._proc: Optional[_SmtProcess] = None
        self._dead = False

    # -- bookkeeping -------------------------------------------------------

    def _guard(self) -> None:
        super()._guard()
        if self._dead:
            raise SolverError("session is dead after a backend failure")

    def _ensure_process(self) -> _SmtProcess:
        if self._proc is None:
            self._proc = self._pool.take()
        return self._proc

    def _release(self) -> None:
        if self._proc is not None:
            self._pool.give_back(self._proc)
            self._proc = None

    def _die(self) -> None:
        """Mark the session dead and kill its process instead of handing it back."""
        self._dead = True
        if self._proc is not None:
            self._proc.close()
            self._proc = None

    def _send_incremental(self, lines: Iterable[str]) -> None:
        if self.config.incremental:
            try:
                proc = self._ensure_process()
                for line in lines:
                    proc.send(line)
            except BaseException:
                self._die()
                raise

    # -- SolverSession hooks -----------------------------------------------

    def _admit(self, constraint: Constraint) -> _Asserted:
        term = lower(constraint, self.run)
        known = {name for _, entry in self._live() for name in entry.declarations}
        declarations = {
            name: f"(declare-const {name} {sort})"
            for name, sort in sorted(term_variables(term).items())
            if name not in known
        }
        entry = _Asserted(declarations, f"(assert {serialize(term)})")
        self._send_incremental([*declarations.values(), entry.assertion])
        return entry

    def _pushed(self) -> None:
        self._send_incremental(["(push 1)"])

    def _popped(self) -> None:
        self._send_incremental(["(pop 1)"])

    def check(self) -> SatResult:
        self._guard()
        _, start, horizon = self._unfolding()
        deadline = time.monotonic() + self.config.check_timeout
        try:
            proc = self._ensure_process()
            if not self.config.incremental:
                for _, entry in self._live():
                    for line in entry.declarations.values():
                        proc.send(line)
                for _, entry in self._live():
                    proc.send(entry.assertion)
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
        proc.send("(check-sat)")
        verdict = proc.read_line(deadline)
        while verdict == "":
            verdict = proc.read_line(deadline)
        if verdict.startswith("(error"):
            raise SolverError(f"solver error: {verdict}")
        if verdict == "unsat":
            return Unsat()
        if verdict == "unknown":
            return Unknown("solver returned unknown")
        if verdict != "sat":
            raise SolverError(f"unexpected check-sat response: {verdict!r}")
        proc.send("(get-model)")
        text = proc.read_sexpr(deadline)
        return Sat(_decode_plan(parse_model(text), start, horizon, self.model))

    def close(self) -> None:
        if self._closed:
            return
        super().close()
        self._release()
        if self._owns_pool:
            self._pool.close()
