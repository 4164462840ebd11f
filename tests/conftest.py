from __future__ import annotations

import os
import re
import signal
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))  # make `oracles` importable

from safereach import build_pickup_example
from safereach.core import RunContext
from safereach.refsolver import render
from safereach.solver import smtlib


def _live_children() -> dict[int, str]:
    """Live (not zombie) child processes of this process, with their command
    lines, read from /proc."""
    me = os.getpid()
    out = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except OSError:
            continue
        fields = stat.rsplit(b")", 1)[1].split()
        if int(fields[1]) == me and fields[0] != b"Z":
            out[int(entry)] = cmdline.replace(b"\0", b" ").decode(errors="replace")[:120]
    return out


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Fail a test that leaves a child process (a solver, say) running; the
    leaked children are killed so the next test starts clean."""
    yield
    if sys.platform != "linux":
        return
    leaked = _live_children()
    for pid in leaked:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    if leaked:
        pytest.fail(f"child processes still alive after the test: {leaked}")


@pytest.fixture
def live_children():
    """The live child processes of the test process, as a callable."""
    if sys.platform != "linux":
        pytest.skip("reads child processes from /proc")
    return _live_children


@pytest.fixture
def spawned(monkeypatch):
    """Every solver endpoint started during the test, each with the commands
    it was sent, rendered as lines of text."""
    processes = []
    spawn, send = smtlib._SmtProcess.__init__, smtlib._SmtProcess.send

    def recording_spawn(proc):
        spawn(proc)
        proc.lines = []
        processes.append(proc)

    def recording_send(proc, command):
        proc.lines.append(render(command))
        send(proc, command)

    monkeypatch.setattr(smtlib._SmtProcess, "__init__", recording_spawn)
    monkeypatch.setattr(smtlib._SmtProcess, "send", recording_send)
    return processes


@pytest.fixture
def reached(monkeypatch):
    """For each smtlib check, in order, whether it reaches a solver: it does
    unless the support game, played on a run context of its own, refutes the
    live goal's whole span from the initial belief's support."""
    reaches = []
    check = smtlib.SmtLibSession.check

    def recording_check(session):
        root, start, _ = session._unfolding()
        goal, game = session._goal, RunContext(session.model, session.run.objective)
        reaches.append(goal is None or game.wins(root.indices, goal.end_step - start))
        return check(session)

    monkeypatch.setattr(smtlib.SmtLibSession, "check", recording_check)
    return reaches


@pytest.fixture
def pool():
    """The bundled solver's pool for the test's sessions, closed after it."""
    with smtlib.SolverPool() as pool:
        yield pool


@pytest.fixture(scope="session")
def pickup():
    """(model, initial belief, objective) for the two-hand pick-up choice."""
    return build_pickup_example()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion, every run."""
    lines = []
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = re.search(r"test_acceptance\.py::test_criterion_(\d+)", report.nodeid)
            if match:
                label = report.nodeid.split("::")[-1]
                lines.append((int(match.group(1)), status.upper(), label))
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for number, status, label in sorted(lines):
        terminalreporter.write_line(f"criterion {number}: {status}  ({label})")
