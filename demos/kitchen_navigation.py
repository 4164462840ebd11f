#!/usr/bin/env python3
"""Kitchen navigation: look before you step, then pick up the cup.

A 3x2 grid with a two-cell "shadow" corridor holding one obstacle in an
unknown cell.  Walking into the corridor blind puts half the probability
mass on a collision, which breaks the safety threshold, so the robot has
to spend actions looking.  The demo shows how few candidate plans the
goal-constrained search inspects compared to the reachable-plan count, and
what the incremental solver buys on the SMT-LIB backend.
"""

import time

from safereach import (
    SolverConfig,
    SynthesisConfig,
    build_kitchen,
    synthesis_run,
    validate_policy,
)

WIDTH, HEIGHT = 3, 2
SHADOW = [(1, 0), (1, 1)]
STORAGE, START = (2, 0), (0, 0)
HORIZON = 6

model, b_init, objective = build_kitchen(
    WIDTH, HEIGHT, SHADOW, STORAGE, START, obstacles=1,
    p_fail=0, p_fp=0, p_fn=0)

print(f"grid {WIDTH}x{HEIGHT}, shadow cells {SHADOW}, storage {STORAGE}, "
      f"start {START}")
print(f"joint states after reachability pruning: {len(model.states)}")
print(f"actions ({len(model.actions)}): {', '.join(model.actions)}")
print()

result = synthesis_run(model, b_init, objective,
                       SynthesisConfig(horizon=HORIZON, backend="enum"))
stats = result.stats
print(f"verdict: {result.verdict} at horizon {stats.final_horizon}")
print(f"root action: {model.actions[result.policy.action]}")
print(f"policy height {result.policy.height()}, nodes {result.policy.node_count()}")
print(f"validation: {validate_policy(result.policy, model, objective, HORIZON).valid}")
print()

# The scale argument: moves have one observation branch, looks have two,
# so the reachable belief space holds (4 + 4*2)^h plans at horizon h.
moves = sum(1 for a in model.actions if a.startswith("move_"))
looks = sum(1 for a in model.actions if a.startswith("look_"))
reachable = (moves + looks * 2) ** HORIZON
print(f"plans in the reachable space at h={HORIZON}: "
      f"(4 + 4*2)^{HORIZON} = {reachable:,}")
print(f"candidate plans actually checked: {stats.plans_checked}")
print(f"ratio: {reachable // max(stats.plans_checked, 1):,}x fewer")
print()

print("per-horizon search effort (checks / sat / blocked prefixes):")
for horizon in sorted(stats.per_horizon):
    bucket = stats.per_horizon[horizon]
    print(f"  k={horizon}: {bucket['checks']:3d} checks, "
          f"{bucket['sat']:2d} sat, {bucket['blocks']:2d} blocks")
print()

# Incremental vs from-scratch solving on the SMT-LIB backend, smaller
# instance so the from-scratch replay stays quick.
small = build_kitchen(2, 2, [(0, 1), (1, 1)], (1, 0), (0, 0), obstacles=1,
                      p_fail=0, p_fp=0, p_fn=0)
for incremental in (True, False):
    config = SynthesisConfig(
        horizon=4, backend="smtlib",
        solver=SolverConfig(incremental=incremental))
    started = time.monotonic()
    outcome = synthesis_run(*small, config)
    elapsed = time.monotonic() - started
    label = "incremental push/pop" if incremental else "reset + replay per check"
    print(f"smtlib, {label:25s}: {outcome.verdict}, {elapsed:.2f}s, "
          f"{outcome.stats.solver_calls} checks")
