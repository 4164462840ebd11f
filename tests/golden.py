"""Golden behaviour digests: two SHA-256 digests per synthesis run, committed.

The work digest covers what "same behaviour" means for this project: the
verdict, the policy tree (every belief as exact rationals), the check trace,
the blocking events, ``zero_probability_skips``, ``interactions`` and
``final_horizon``; for an ``smtlib`` run also every command sent to its
solvers, in order, ``(reset)`` and header included, each as the line of
text a solver process is sent.  The outcome digest covers only the verdict
and the policy tree, so a run whose work moved can be told from one whose
answer moved.  In the file, the work
digests sit under their group names and the outcome digests under
``"outcome"``.  ``tests/test_golden.py`` recomputes both digests of every
run and fails on any difference, naming the half that moved.  A change
that alters the work on purpose regenerates the file and says which
digests moved and why:

    PYTHONPATH=src python tests/golden.py --write

``--write`` cannot move an outcome silently: if any outcome digest differs
(a verdict or policy moved, or a run appeared or disappeared), it writes
nothing, names those runs and exits 1.  A change that means to move an
outcome says so with ``--write --outcome``.  Without ``--write`` the script
compares and lists the runs that differ.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Callable, Iterator

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "golden_digests.json"

RANDOM_SEEDS = range(200)

# (label, width, height, shadow cells, storage cell, obstacles, deterministic, horizon)
KITCHENS = (
    ("kitchen-3x2-M1-det-h6", 3, 2, ((1, 0), (1, 1)), (2, 0), 1, True, 6),
    ("kitchen-3x3-M1-det-h7", 3, 3, ((1, 0), (1, 1), (1, 2)), (2, 0), 1, True, 7),
    ("kitchen-4x3-M2-det-h5", 4, 3, ((1, 0), (1, 1), (2, 1), (2, 2)), (3, 0), 2, True, 5),
    ("kitchen-3x2-M1-noisy-h6", 3, 2, ((1, 0), (1, 1)), (2, 0), 1, False, 6),
)
DET = {"p_fail": 0, "p_fp": 0, "p_fn": 0}

GROUPS = ("enum-random", "enum-kitchen", "smtlib")
OUTCOME = "outcome"  # the key of the outcome digests in the file


def _kitchen(width, height, shadow, storage, obstacles, det):
    from safereach import build_kitchen

    return build_kitchen(width, height, list(shadow), storage, (0, 0),
                         obstacles=obstacles, **(DET if det else {}))


def runs(group: str) -> Iterator[tuple[str, Callable]]:
    """(name, thunk returning a SynthesisResult) for every run of a group."""
    from oracles import random_instance
    from safereach import SolverConfig, SynthesisConfig, build_pickup_example, synthesis_run

    def run(problem, horizon, backend="enum", incremental=True):
        config = SynthesisConfig(horizon=horizon, backend=backend,
                                 solver=SolverConfig(incremental=incremental))
        return lambda: synthesis_run(*problem, config)

    if group == "enum-random":
        for seed in RANDOM_SEEDS:
            model, b_init, objective, horizon = random_instance(random.Random(seed))
            yield f"random-{seed:03d}", run((model, b_init, objective), horizon)
    elif group == "enum-kitchen":
        for label, *geometry, horizon in KITCHENS:
            yield label, run(_kitchen(*geometry), horizon)
    elif group == "smtlib":
        problems = (("pickup-h3", build_pickup_example(), 3),
                    ("kitchen-2x2-M1-det-h4",
                     _kitchen(2, 2, ((0, 1), (1, 1)), (1, 0), 1, True), 4))
        for label, problem, horizon in problems:
            for incremental in (True, False):
                mode = "inc" if incremental else "scratch"
                yield f"{label}-smtlib-{mode}", run(problem, horizon, "smtlib", incremental)
    else:
        raise ValueError(f"unknown group {group!r}")


def _belief(belief) -> list[str]:
    return [str(p) for p in belief.probs]


def _tree(node):
    if node is None:
        return None
    return {"belief": _belief(node.belief), "action": node.action,
            "goal": node.goal_reached,
            "children": {str(o): _tree(child) for o, child in node.children.items()}}


def render(result, sent=None) -> str:
    """The canonical text a digest is taken over; ``sent`` are the lines an
    ``smtlib`` run sent to its solver processes."""
    stats = result.stats
    record = {
        "verdict": result.verdict,
        "policy": _tree(result.policy),
        "check_trace": [list(entry) for entry in stats.check_trace],
        "blocking_events": [[e.horizon, e.fail_step, _belief(e.start_belief),
                             list(e.actions), list(e.observations)]
                            for e in stats.blocking_events],
        "zero_probability_skips": stats.zero_probability_skips,
        "interactions": stats.interactions,
        "final_horizon": stats.final_horizon,
    }
    if sent is not None:
        record["smtlib_text"] = sent
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def render_outcome(result) -> str:
    """The canonical text an outcome digest is taken over."""
    record = {"verdict": result.verdict, "policy": _tree(result.policy)}
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(result, sent=None) -> tuple[str, str]:
    """The (work, outcome) digests of one run."""
    return _sha256(render(result, sent)), _sha256(render_outcome(result))


def recording_sends(thunk: Callable):
    """``thunk()`` and every command it sent to a solver, in order, each
    rendered as the line of text a solver process is sent."""
    from safereach.refsolver import render as render_command
    from safereach.solver import smtlib

    sent: list[str] = []
    send = smtlib._SmtProcess.send

    def recording(proc, command):
        sent.append(render_command(command))
        send(proc, command)

    smtlib._SmtProcess.send = recording
    try:
        return thunk(), sent
    finally:
        smtlib._SmtProcess.send = send


def compute(group: str) -> dict[str, tuple[str, str]]:
    """Run name -> its (work, outcome) digests."""
    if group == "smtlib":
        return {name: digests(*recording_sends(thunk)) for name, thunk in runs(group)}
    return {name: digests(thunk()) for name, thunk in runs(group)}


def load() -> dict[str, dict[str, tuple[str, str]]]:
    """Group -> run name -> its committed (work, outcome) digests."""
    doc = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    outcomes = doc.get(OUTCOME, {})
    return {group: {name: (work, outcomes.get(group, {}).get(name))
                    for name, work in doc.get(group, {}).items()}
            for group in GROUPS}


def differences(expected: dict[str, tuple[str, str]],
                actual: dict[str, tuple[str, str]]) -> dict[str, str]:
    """Run name -> the half that moved, for every run that changed, appeared
    or disappeared: "outcome" when its verdict or policy moved (its work
    digest moves with them), "work" when only the work digest did."""
    moved = {}
    for name in sorted(expected.keys() | actual.keys()):
        (work, outcome), (new_work, new_outcome) = (
            expected.get(name, (None, None)), actual.get(name, (None, None)))
        if outcome != new_outcome:
            moved[name] = "outcome"
        elif work != new_work:
            moved[name] = "work"
    return moved


def describe(moved: dict[str, str]) -> str:
    return ", ".join(f"{name} ({half})" for name, half in moved.items())


def main(argv: list[str]) -> int:
    computed = {group: compute(group) for group in GROUPS}
    total = sum(map(len, computed.values()))
    expected = load()
    moved = {}
    for group in GROUPS:
        moved.update(differences(expected[group], computed[group]))
    outcomes = [name for name, half in moved.items() if half == "outcome"]
    if "--write" in argv:
        if outcomes and "--outcome" not in argv:
            print(f"refusing to write: the outcome of {len(outcomes)} run(s) moved: "
                  f"{', '.join(outcomes)}; if that is intended, pass --outcome too")
            return 1
        doc = {group: {name: work for name, (work, _) in runs.items()}
               for group, runs in computed.items()}
        doc[OUTCOME] = {group: {name: outcome for name, (_, outcome) in runs.items()}
                        for group, runs in computed.items()}
        DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote the work and outcome digests of {total} runs to {DIGESTS}")
        return 0
    for name, half in moved.items():
        print(f"changed: {name} ({half})")
    print(f"{len(moved)} of {total} runs differ: {len(outcomes)} in outcome, "
          f"{len(moved) - len(outcomes)} in work only")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    sys.exit(main(sys.argv[1:]))
