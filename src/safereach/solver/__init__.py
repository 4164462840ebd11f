"""Satisfiability backends for the bounded encoding.

Two interchangeable session kinds sit behind one interface: an SMT-LIB v2
session with push/pop scopes, which lowers each constraint once to an
SMT-LIB term, and a built-in exact enumerative backend that interprets the
constraints directly and doubles as an independent oracle.  Commands and
answers are terms; text is what a pipe carries: the bundled solver, run in
this process, is handed the command terms and answers with terms, and a
solver program is written each command as text and read back by the same
reader its own commands are read with.  Either answers a satisfying check with a
candidate plan (:class:`Sat`), which :func:`extract_plan` re-verifies; only
the SMT-LIB backend knows the SMT variable names.
"""

from .session import (
    PlanDecodeError,
    Sat,
    SatResult,
    SolverConfig,
    SolverError,
    SolverSession,
    SolverUsageError,
    Unknown,
    Unsat,
    extract_plan,
)
from .enumerative import EnumerativeSession, enumerative_check
from .smtlib import ModelValueError, SmtLibSession, SolverPool, default_solver_command

__all__ = [
    "EnumerativeSession",
    "ModelValueError",
    "PlanDecodeError",
    "Sat",
    "SatResult",
    "SmtLibSession",
    "SolverConfig",
    "SolverError",
    "SolverPool",
    "SolverSession",
    "SolverUsageError",
    "Unknown",
    "Unsat",
    "default_solver_command",
    "enumerative_check",
    "extract_plan",
]
