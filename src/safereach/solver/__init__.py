"""Satisfiability backends for the bounded encoding.

Two interchangeable session kinds sit behind one interface: an SMT-LIB v2
session with push/pop scopes, which lowers each constraint once to an
SMT-LIB term, handed as it is to the bundled solver (run in this process)
or written as text to a solver program (over a pipe), and a built-in exact
enumerative backend that interprets the constraints directly and doubles
as an independent oracle.  Either answers a satisfying check with a
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
