"""safereach benchmark: time to verdict on four workloads, plus a per-layer trace.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload kitchen-noisy-enum --seed 1 --seconds 25 --trace 0

One process runs one workload, one instance at a time (closed loop, one
client), and repeats passes over the workload's instances until
``--seconds`` have gone by.  Every verdict is checked; a mismatch prints
``"correct": false`` with no metrics and exits 1.  ``--trace 0`` times
``synthesis_run`` untraced and reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is the JSON result; see README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("kitchen-noisy-enum", "kitchen-det-enum", "random-smtlib", "kitchen-smtlib")
OUT_DIR = HERE / "out"
# At least this many set-up probes per run; the median is setup_s.
SETUP_PROBES = 11
STARTUP_PROBES = 5
# The metrics of the JSON line, with their units, as BENCHMARK.json lists them.
BENCHMARK = ROOT / "BENCHMARK.json"
# A shared host's speed swings by up to 2x, in phases of seconds to minutes
# that slow wall and CPU time alike.  Every end-to-end time is therefore
# scaled to a reference speed, measured by a fixed pure-Python kernel timed
# right before and right after it.  CAL_REF_S is about the kernel's fastest
# time on a 2-vCPU Xeon VM with CPython 3.11, so scaled times read as seconds
# on that host when it is quiet.
CAL_ITERATIONS = 5000
CAL_REF_S = 4.0e-6 * CAL_ITERATIONS


class BenchmarkFailure(Exception):
    """A verdict mismatch, a trace/stats disagreement, drift or a leaked child."""


def _terminate(signum, _frame):
    # Unwind through synthesis' finally blocks so every solver child is closed.
    raise SystemExit(128 + signum)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _child_pids() -> dict[int, bytes]:
    """Live child processes of this process, with their command lines."""
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
            out[int(entry)] = cmdline
    return out


def _kill_children() -> list[int]:
    leaked = sorted(_child_pids())
    for pid in leaked:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return leaked


def _kernel(iterations: int) -> int:
    """Fixed work of the kind safereach does: exact fractions, tuples, dicts."""
    table: dict = {}
    acc = Fraction(0)
    for i in range(iterations):
        acc += Fraction(i % 7 + 1, i % 11 + 3) * Fraction(3, 5)
        key = (i % 31, i % 17)
        table[key] = table.get(key, 0) + 1
        if acc.denominator > 10**6:
            acc = Fraction(acc.numerator % 997, 7)
    return len(table)


def calibrate() -> float:
    """Wall time of one run of the reference kernel."""
    started = time.perf_counter()
    _kernel(CAL_ITERATIONS)
    return time.perf_counter() - started


def scaled(elapsed: float, cal_before: float, cal_after: float) -> float:
    """``elapsed`` at the reference speed, from the kernel times around it."""
    return elapsed * 2 * CAL_REF_S / (cal_before + cal_after)


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    """One set-up time, measured in a fresh interpreter: raw and scaled."""
    cal_before = calibrate()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    raw = json.loads(done.stdout.splitlines()[-1])["setup_s"]
    return raw, scaled(raw, cal_before, calibrate())


def refsolver_startup_ms() -> float:
    """Median wall time to start the bundled solver and answer one check-sat."""
    from safereach.solver import default_solver_command

    samples = []
    for _ in range(STARTUP_PROBES):
        started = time.perf_counter()
        proc = subprocess.Popen(default_solver_command(), stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        out, _ = proc.communicate(b"(check-sat)\n(exit)\n", timeout=60)
        samples.append((time.perf_counter() - started) * 1000)
        if out.split()[:1] != [b"sat"]:
            raise BenchmarkFailure(f"refsolver answered {out!r} to an empty check-sat")
    return statistics.median(samples)


def source_digest() -> str:
    """Hash of the code under test and of the benchmark, to key counter history."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + [ROOT / "tests" / "oracles.py"] \
        + sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# --------------------------------------------------------------------------
# Passes
# --------------------------------------------------------------------------

@dataclass
class Pass:
    """One run of the workload's instances, in order."""

    traced: bool
    times: list[float] = field(default_factory=list)
    # The same times scaled to the reference speed.
    scaled_times: list[float] = field(default_factory=list)
    signatures: list[tuple] = field(default_factory=list)
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    spawns: list[int] = field(default_factory=list)
    final_horizon: int = 0
    child_cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    tracer: object = None

    @property
    def solve_s(self) -> float:
        return sum(self.times)


def run_pass(workload, traced: bool) -> Pass:
    import workloads
    from tracer import Instrumented, Tracer

    result_pass = Pass(traced)
    tracer = Tracer() if traced else None
    cpu_before = _children_cpu_s()
    cal_before = calibrate()
    for index, inst in enumerate(workload.instances):
        if tracer is not None:
            tracer.request = index
            before = Counter(tracer.counts)
            with Instrumented(tracer):
                started = time.perf_counter()
                result = inst.run()
                elapsed = time.perf_counter() - started
            cal_after = calibrate()
            tracer.distinct_updates()
        else:
            started = time.perf_counter()
            result = inst.run()
            elapsed = time.perf_counter() - started
            cal_after = calibrate()
        result_pass.scaled_times.append(scaled(elapsed, cal_before, cal_after))
        cal_before = cal_after
        mismatch = workloads.check_result(inst, result)
        if mismatch is not None:
            raise BenchmarkFailure(mismatch)
        stats = result.stats
        if result.verdict == workloads.VERDICT_ERROR:
            result_pass.failed += 1
            result_pass.failures.append(f"{inst.label}: {result.error}")
        result_pass.times.append(elapsed)
        result_pass.final_horizon += stats.final_horizon
        result_pass.signatures.append((inst.label, result.verdict, stats.solver_calls,
                                       stats.plans_checked, len(stats.blocking_events),
                                       stats.final_horizon))
        if tracer is not None:
            delta = tracer.counts - before
            spans_of_checks = delta["solver.enum.check"] + delta["solver.smtlib.check"]
            observed = (spans_of_checks, delta["solver.extract_plan"],
                        delta["encoding.blocking_constraint"])
            claimed = (stats.solver_calls, stats.plans_checked, len(stats.blocking_events))
            if observed != claimed:
                raise BenchmarkFailure(
                    f"{inst.label}: trace counts (checks, plans, blocks) {observed} "
                    f"differ from SynthesisStats {claimed}")
            result_pass.spawns.append(delta["solver.smtlib.spawn"])
    result_pass.child_cpu_s = _children_cpu_s() - cpu_before
    result_pass.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result_pass.tracer = tracer
    return result_pass


def run_passes(workload, seconds: float,
               trace: bool) -> tuple[list[Pass], list[tuple[float, float]]]:
    """Complete passes until ``seconds`` have gone by, and set-up samples.

    Traced, untraced and traced passes alternate, with at least one of each.
    One set-up probe runs after each pass, topped up to ``SETUP_PROBES``, so
    the set-up samples are spread over the run like the passes are.  Each
    set-up sample is a (raw, scaled) pair.
    """
    deadline = time.perf_counter() + seconds
    passes: list[Pass] = []
    setups: list[tuple[float, float]] = []
    while time.perf_counter() < deadline or (trace and len(passes) < 2):
        passes.append(run_pass(workload, trace and len(passes) % 2 == 1))
        setups.append(setup_probe(workload.name, workload.seed))
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(workload.name, workload.seed))
    return passes, setups


def check_repeats(passes: list[Pass]) -> None:
    """Deterministic counters must repeat exactly from pass to pass."""
    first = passes[0].signatures
    for p in passes[1:]:
        if p.signatures != first:
            raise BenchmarkFailure(
                "nondeterminism: verdicts or counters (checks, plans, blocks, final "
                f"horizon) drifted between passes: {first} vs {p.signatures}")
    traced = [p for p in passes if p.traced]
    for p in traced[1:]:
        if p.spawns != traced[0].spawns:
            raise BenchmarkFailure(
                f"nondeterminism: solver spawns drifted: {traced[0].spawns} vs {p.spawns}")


def check_history(name: str, seed: int, passes: list[Pass]) -> None:
    """Compare the counters with earlier runs of the same code, workload and seed."""
    key = f"{name}|{seed}|{source_digest()}"
    path = OUT_DIR / "counters.json"
    history = json.loads(path.read_text()) if path.is_file() else {}
    entry = history.setdefault(key, {})
    current = {"signatures": [list(s) for s in passes[0].signatures]}
    traced = [p for p in passes if p.traced]
    if traced:
        current["spawns"] = traced[0].spawns
    for field, value in current.items():
        if field in entry and entry[field] != value:
            raise BenchmarkFailure(
                f"nondeterminism: {field} differ from an earlier run of this code "
                f"with seed {seed}: {entry[field]} vs {value}")
        entry[field] = value
    OUT_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(history, indent=1, sort_keys=True))
    tmp.replace(path)


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def end_to_end(workload, passes: list[Pass],
               setups: list[tuple[float, float]]) -> tuple[dict[str, tuple], list[float]]:
    """End-to-end metrics, and each instance's median scaled untraced time.

    Times are scaled to the reference speed (see ``CAL_REF_S``), and each is
    the median over the run's samples of that time.  Instances that end in
    ``error`` are left out: their time is the benchmark's fixed solver
    timeout, a wait that does not scale with the host's speed.  They count
    in ``failed`` instead, and check_repeats() makes sure a verdict is the
    same in every pass.
    """
    import workloads

    untraced = [p for p in passes if not p.traced]
    per_instance = [statistics.median(p.scaled_times[i] for p in untraced)
                    for i, signature in enumerate(passes[0].signatures)
                    if signature[1] != workloads.VERDICT_ERROR]
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "solve_s": (sum(per_instance), "s"),
        "instance_p50_s": (statistics.median(per_instance), "s"),
        # At the end of the first pass: later passes add allocator creep, and
        # their number depends on speed.
        "peak_rss_mb": (passes[0].peak_rss_mb, "MB"),
    }
    return metrics, per_instance


def layer_metrics(traced: Pass, untraced_solve_s: float) -> dict[str, tuple]:
    """Per-layer metrics of one traced pass."""
    from tracer import aggregate, layer_of

    tracer = traced.tracer
    spans = aggregate(tracer.spans)
    counts = tracer.counts

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def layer_self(layer):
        return sum(v["self_s"] for k, v in spans.items() if layer_of(k) == layer)

    checks = calls("solver.enum.check") + calls("solver.smtlib.check")
    smt_checks = calls("solver.smtlib.check")
    plans = calls("solver.extract_plan")
    m = {
        "core.belief_update.calls": (calls("core.belief_update"), "count"),
        "core.unnormalized_update.calls": (calls("core.unnormalized_update"), "count"),
        "core.observation_probability.calls": (calls("core.observation_probability"), "count"),
        "core.update.reuse": (tracer.update_entries / tracer.distinct_update_pairs
                              if tracer.distinct_update_pairs else 0.0, "ratio"),
        "core.update.self_s": (layer_self("core"), "s"),
    }
    for name in ("initial_constraint", "transition_constraint", "goal_constraint",
                 "blocking_constraint"):
        m[f"encoding.{name}.calls"] = (calls(f"encoding.{name}"), "count")
        m[f"encoding.{name}.self_s"] = (self_s(f"encoding.{name}"), "s")
    m["encoding.self_s"] = (layer_self("encoding"), "s")
    m.update({
        "solver.check.calls": (checks, "count"),
        "solver.check.sat_share": (counts["solver.check.sat"] / checks if checks else 0.0,
                                   "share"),
        "solver.check.self_s": (self_s("solver.enum.check") + self_s("solver.smtlib.check"),
                                "s"),
        "solver.enum.check.self_s": (self_s("solver.enum.check"), "s"),
        "solver.smtlib.check_s": (total_s("solver.smtlib.check"), "s"),
        "solver.smtlib.add_s": (total_s("solver.smtlib.add"), "s"),
        "solver.smtlib.bytes_sent": (counts["solver.smtlib.bytes_sent"], "B"),
        "solver.processes_spawned": (calls("solver.smtlib.spawn"), "count"),
        "solver.sessions_opened": (counts["solver.sessions_opened"], "count"),
        "solver.extract_plan.calls": (plans, "count"),
        "solver.extract_plan.self_s": (self_s("solver.extract_plan"), "s"),
        "refsolver.child_cpu_s": (traced.child_cpu_s, "s"),
        "refsolver.cpu_per_check_ms": (traced.child_cpu_s * 1000 / smt_checks
                                       if smt_checks else 0.0, "ms"),
        "synthesis.bps.calls": (calls("synthesis.bps"), "count"),
        "synthesis.policy_generation.calls": (calls("synthesis.policy_generation"), "count"),
        "synthesis.plans_checked": (plans, "count"),
        "synthesis.blocks": (calls("encoding.blocking_constraint"), "count"),
        "synthesis.final_horizon": (traced.final_horizon, "count"),
        "synthesis.plan_yield": (counts["synthesis.policies_returned"] / plans
                                 if plans else 0.0, "ratio"),
        "synthesis.self_s": (layer_self("synthesis"), "s"),
        "validate.validate_policy.calls": (calls("validate.validate_policy"), "count"),
        "validate.paths": (counts["validate.paths"], "count"),
        "validate.self_s": (layer_self("validate"), "s"),
        "validate.total_s": (total_s("validate.validate_policy"), "s"),
        "trace.solve_s": (traced.solve_s, "s"),
        "trace.overhead_s": (traced.solve_s - untraced_solve_s, "s"),
        "trace.overhead_share": ((traced.solve_s - untraced_solve_s) / untraced_solve_s,
                                 "share"),
    })
    return m


def per_layer(workload, passes: list[Pass]) -> dict[str, tuple]:
    """The fastest traced pass's metrics; counts must repeat in every traced pass."""
    import workloads

    untraced_best = min(p.solve_s for p in passes if not p.traced)
    per_pass = [layer_metrics(p, untraced_best) for p in passes if p.traced]
    for name, (value, unit) in per_pass[0].items():
        if unit == "count" and any(m[name][0] != value for m in per_pass):
            raise BenchmarkFailure(f"nondeterminism: {name} drifted between traced passes")
    merged = dict(min(per_pass, key=lambda m: m["trace.solve_s"][0]))
    merged["refsolver.startup_ms"] = (refsolver_startup_ms(), "ms")
    build_samples = []
    for _ in range(3):
        started = time.perf_counter()
        workloads.build(workload.name, workload.seed)
        build_samples.append(time.perf_counter() - started)
    merged["domains.build_s"] = (statistics.median(build_samples), "s")
    merged["domains.states"] = (workload.states, "count")
    return dict(sorted(merged.items()))


def write_trace(name: str, seed: int, passes: list[Pass], layers: dict) -> Path:
    """Write every traced span as JSON lines, and the layer table beside it."""
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{name}-seed{seed}.spans.jsonl"
    with open(spans_path, "w") as fh:
        for number, p in enumerate(passes):
            if not p.traced:
                continue
            for request, span_id, parent, span, start, end, self_s in p.tracer.spans:
                fh.write(json.dumps({"pass": number, "request": request, "id": span_id,
                                     "parent": parent, "name": span, "start": start,
                                     "end": end, "self_s": self_s}) + "\n")
    (OUT_DIR / f"{name}-seed{seed}.layers.json").write_text(
        json.dumps({k: {"value": v, "unit": u} for k, (v, u) in layers.items()}, indent=1))
    return spans_path


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _table(title: str, rows: dict[str, tuple], notes: dict[str, str]) -> None:
    print(title)
    for name, (value, unit) in rows.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:38s} {value:>16.6g} {unit}{note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "safereach" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"no safereach sources under {ROOT}: need src/safereach and tests/oracles.py",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    signal.signal(signal.SIGTERM, _terminate)
    # One CPU for this process and, by inheritance, every solver child and
    # set-up probe.  Only one of them computes at a time, and the reference
    # kernel then measures the CPU that the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    attempted = failed = 0
    try:
        import workloads

        workload = workloads.build(args.workload, args.seed)
        mismatches = workloads.reference(workload)
        if mismatches:
            raise BenchmarkFailure("; ".join(mismatches))
        passes, setup_samples = run_passes(workload, args.seconds, bool(args.trace))
        attempted = sum(len(p.times) for p in passes)
        failed = sum(p.failed for p in passes)
        check_repeats(passes)
        check_history(args.workload, args.seed, passes)
        leaked = _kill_children()
        if leaked:
            raise BenchmarkFailure(f"solver children still alive after the workload: {leaked}")
        e2e, per_instance = end_to_end(workload, passes, setup_samples)
        layers = per_layer(workload, passes) if args.trace else {}
    except BenchmarkFailure as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    finally:
        _kill_children()

    untraced = [p for p in passes if not p.traced]
    n = len(per_instance)
    timed = f"{n} of {len(workload.instances)} instances, those that do not end in error"
    raw_setup = statistics.median(r for r, _ in setup_samples)
    notes = {
        "setup_s": f"median of {len(setup_samples)} scaled set-ups; raw {raw_setup:.4g} s",
        "solve_s": f"sum over {timed}, of each one's median scaled time over "
                   f"{len(untraced)} untraced passes",
        "instance_p50_s": f"median over n={n} instances of their median scaled time",
    }
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)} "
          f"({len(untraced)} untraced)  instances/pass {len(workload.instances)}")
    print("pass times (s), raw/scaled: " + " ".join(
        f"{p.solve_s:.3f}/{sum(p.scaled_times):.3f}{'T' if p.traced else ''}"
        for p in passes))
    _table("end to end (tracing off)", e2e, notes)
    if n >= 100:
        p90 = statistics.quantiles(per_instance, n=100)[89]
        print(f"  {'instance_p90_s':38s} {p90:>16.6g} s  (n={n} instances)")
    share = failed / attempted
    print(f"  {'failed_share':38s} {share:>16.6g} share  ({failed} of {attempted} "
          f"instance runs ended in error)")
    for line in sorted(set(f for p in passes for f in p.failures)):
        print(f"    failed: {line}")
    if args.trace:
        _table("per layer (traced passes)", layers, {})
        print(f"spans written to {write_trace(args.workload, args.seed, passes, layers)}")
    listed = json.loads(BENCHMARK.read_text())["per_layer" if args.trace else "end_to_end"]
    measured = layers if args.trace else e2e
    chosen = {}
    for metric in listed:
        value, unit = measured[metric["name"]]
        if unit != metric["unit"]:
            raise ValueError(f"{metric['name']} is measured in {unit}, "
                             f"BENCHMARK.json says {metric['unit']}")
        chosen[metric["name"]] = (value, unit)
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
