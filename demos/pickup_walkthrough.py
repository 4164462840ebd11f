#!/usr/bin/env python3
"""Walk through the two-hand pick-up problem end to end.

Shows why maximizing expected success picks the wrong hand here, and how
searching the goal-constrained belief space picks the right one: the left
hand looks better on average (9/10 vs 17/20), but one of its observation
branches lands in a belief that violates both thresholds, so no valid
policy can start with it.
"""

from safereach import (
    SolverConfig,
    SynthesisConfig,
    build_pickup_example,
    simulate,
    synthesis_run,
    validate_policy,
)
from safereach.formats import policy_to_dot

model, b_init, objective = build_pickup_example()

print("states:      ", model.states)
print("actions:     ", model.actions)
print("observations:", model.observations)
print("initial belief:", tuple(str(p) for p in b_init.probs))
print()

# The one-step belief tree: every action and each possible observation with
# its probability and posterior, from one push-forward per action.
print("one-step belief transitions")
for a, action in enumerate(model.actions):
    for o, (p, posterior) in model.successors(b_init, a).items():
        obs = model.observations[o]
        marks = []
        if objective.is_goal(posterior):
            marks.append("goal")
        if not objective.is_safe(posterior):
            marks.append("UNSAFE")
        note = f"  <- {', '.join(marks)}" if marks else ""
        print(f"  {action:10s} --{obs} (p={p})--> "
              f"{tuple(str(x) for x in posterior.probs)}{note}")
print()

# pick_left / o_neg gives (0, 7/25, 18/25): goal mass 0.72 < 0.8 and unsafe
# mass 0.28 > 0.2. Expected reward would never see it; the synthesizer must.

result = synthesis_run(model, b_init, objective,
                       SynthesisConfig(horizon=3, backend="enum"))
print(f"verdict: {result.verdict}")
print(f"root action: {model.actions[result.policy.action]}")
print(f"solver calls: {result.stats.solver_calls}, "
      f"plans checked: {result.stats.plans_checked}")
for event in result.stats.blocking_events:
    prefix = " ".join(model.actions[a] for a in event.actions)
    print(f"blocked prefix at horizon {event.horizon}: [{prefix}]")
print()

# Same run through the SMT-LIB pipe (bundled reference solver by default;
# point SolverConfig(command=...) at 'z3 -in' to use a real SMT solver).
smt = synthesis_run(model, b_init, objective,
                    SynthesisConfig(horizon=3, backend="smtlib",
                                    solver=SolverConfig()))
print(f"smtlib backend agrees: verdict={smt.verdict}, "
      f"identical policy: {smt.policy == result.policy}")
print()

report = validate_policy(result.policy, model, objective, horizon=3)
print(f"exhaustive validation: valid={report.valid}, paths={report.paths}")

mc = simulate(result.policy, model, objective, episodes=100_000, seed=7)
print(f"monte carlo over {mc.episodes} episodes:")
print(f"  goal frequency   {mc.goal_freq:.4f}  (chain probability 0.85)")
print(f"  unsafe frequency {mc.unsafe_visit_freq:.4f}  (chain probability 0.10)")
print()

print("policy tree in DOT form:")
print(policy_to_dot(result.policy, model))
