"""The benchmark tracer's hooks still fit the functions they wrap.

``perfbench/tracer.py`` replaces public functions and session methods by
name; a rename or a moved argument would silently stop a count.  This runs
the tracer as ``perfbench/run.py --trace 1`` does and applies the same gate:
the traced checks, plan extractions and blocking constraints equal what the
run records.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from safereach import synthesis
from safereach.synthesis import VERDICT_VALID, SynthesisConfig, synthesis_run

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("backend", ["enum", "smtlib"])
def test_trace_counts_match_the_run_record(pickup, backend):
    tracing = load_tracer()
    tracer = tracing.Tracer()
    bps = synthesis.bps
    with tracing.Instrumented(tracer):
        assert synthesis.bps is not bps
        result = synthesis_run(*pickup, SynthesisConfig(horizon=3, backend=backend))
    assert synthesis.bps is bps
    assert result.verdict == VERDICT_VALID
    stats, counts = result.stats, tracer.counts
    checks = counts["solver.enum.check"] + counts["solver.smtlib.check"]
    assert (checks, counts["solver.extract_plan"], counts["encoding.blocking_constraint"]) \
        == (stats.solver_calls, stats.plans_checked, len(stats.blocking_events))
    assert counts["synthesis.synthesis_run"] == 1
    assert counts["synthesis.bps"] > 0 and counts["synthesis.policy_generation"] > 0
    assert 0 < counts["solver.sessions_opened"] <= counts["synthesis.bps"]
    assert counts["encoding.goal_constraint"] > 0
