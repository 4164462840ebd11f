"""The benchmark's workloads: instances, expected verdicts and reference results.

Every workload is a fixed list of synthesis instances run one at a time.
The kitchen workloads use fixed geometries; the run seed only sets the order
in which their instances run.  ``random-smtlib`` draws a fixed pool of 100
``tests/oracles.random_instance`` problems and lets the run seed relabel the
states of every problem and order the pool.  Relabelling states gives a
different but isomorphic input: verdicts, check counts, plans, blocks and
solver spawns are unchanged, so every seed does the same work and the
seed-to-seed spread of a timing is measurement noise, not a different mix of
easy and hard problems.

Importing this module imports ``safereach`` and ``oracles``; the caller puts
``src`` and ``tests`` on ``sys.path`` first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from oracles import brute_force_feasible, random_instance
from safereach import (
    VERDICT_ERROR,
    VERDICT_NO_POLICY,
    VERDICT_VALID,
    Belief,
    LinearBeliefPredicate,
    Pomdp,
    SafeReachObjective,
    SolverConfig,
    SynthesisConfig,
    SynthesisResult,
    build_kitchen,
    synthesis_run,
)

VALID, NO_POLICY = VERDICT_VALID, VERDICT_NO_POLICY

# Builder-default noise is the build_kitchen defaults; "det" turns it off.
DET = {"p_fail": 0, "p_fp": 0, "p_fn": 0}
SHADOW_3X2 = ((1, 0), (1, 1))
SHADOW_2X2 = ((0, 1), (1, 1))

# Per-check timeout for the instance known to exceed the default 60 s on the
# smtlib backend.  It is short so the known failure costs a fixed 2 s per
# pass and still counts in failed_share.
KNOWN_TIMEOUT_CHECK_S = 2.0

# The random-smtlib pool.  With this pool seed the 100 problems make 334
# checks; the slowest takes ~2 s of a ~12 s pass, so process start-up, not
# refsolver search, dominates.
RANDOM_POOL_SEED = 1
RANDOM_POOL_SIZE = 100

# A timed-out or failed solver is reported by synthesis_run as an error
# whose message starts with this; any other error is a wrong answer.
SOLVER_FAILURE_PREFIX = "solver returned unknown"


@dataclass
class Instance:
    label: str
    model: Pomdp
    b_init: Belief
    objective: SafeReachObjective
    config: SynthesisConfig
    expected: str
    # Filled in by reference() on smtlib instances: the enum backend's policy.
    reference_policy: object = None

    def run(self) -> SynthesisResult:
        return synthesis_run(self.model, self.b_init, self.objective, self.config)


@dataclass
class Workload:
    name: str
    seed: int
    instances: list[Instance]

    @property
    def states(self) -> int:
        return sum(len(inst.model.states) for inst in self.instances)


def _smtlib(horizon: int, incremental: bool = True,
            check_timeout: float = SolverConfig.check_timeout) -> SynthesisConfig:
    solver = SolverConfig(incremental=incremental, check_timeout=check_timeout)
    return SynthesisConfig(horizon=horizon, backend="smtlib", solver=solver)


def _kitchen(label, horizon, config, expected, width, height, shadow, storage,
             obstacles=1, **noise) -> Instance:
    model, b_init, objective = build_kitchen(
        width, height, list(shadow), storage, (0, 0), obstacles=obstacles, **noise)
    return Instance(label, model, b_init, objective, config, expected)


def _kitchen_noisy_enum() -> list[Instance]:
    return [_kitchen("3x2-M1-noisy-h6", 6, SynthesisConfig(horizon=6), NO_POLICY,
                     3, 2, SHADOW_3X2, (2, 0))]


def _kitchen_det_enum() -> list[Instance]:
    return [
        _kitchen("3x2-M1-det-h6", 6, SynthesisConfig(horizon=6), VALID,
                 3, 2, SHADOW_3X2, (2, 0), **DET),
        _kitchen("3x3-M1-det-h7", 7, SynthesisConfig(horizon=7), VALID,
                 3, 3, ((1, 0), (1, 1), (1, 2)), (2, 0), **DET),
        _kitchen("4x3-M2-det-h5", 5, SynthesisConfig(horizon=5), NO_POLICY,
                 4, 3, ((1, 0), (1, 1), (2, 1), (2, 2)), (3, 0), obstacles=2, **DET),
    ]


def _kitchen_smtlib() -> list[Instance]:
    out = []
    for incremental in (True, False):
        mode = "inc" if incremental else "scratch"
        out.append(_kitchen(f"2x2-M1-det-h4-{mode}", 4, _smtlib(4, incremental), VALID,
                            2, 2, SHADOW_2X2, (1, 0), **DET))
        out.append(_kitchen(f"3x2-M1-det-h3-{mode}", 3, _smtlib(3, incremental), NO_POLICY,
                            3, 2, SHADOW_3X2, (2, 0), **DET))
    out.append(_kitchen("2x2-M1-noisy-h4-inc", 4,
                        _smtlib(4, check_timeout=KNOWN_TIMEOUT_CHECK_S), NO_POLICY,
                        2, 2, SHADOW_2X2, (1, 0)))
    return out


def relabel_states(model: Pomdp, b_init: Belief, objective: SafeReachObjective,
                   rng: random.Random):
    """The same problem with its state indices permuted."""
    n = len(model.states)
    perm = list(range(n))
    rng.shuffle(perm)
    states = [""] * n
    probs = [b_init[0]] * n
    for s in range(n):
        states[perm[s]] = model.states[s]
        probs[perm[s]] = b_init[s]
    transition = {(perm[s], a): {perm[s2]: p for s2, p in row.items()}
                  for (s, a), row in model.transition.items()}
    observe = {(perm[s2], a): dict(row) for (s2, a), row in model.observe.items()}
    availability = None
    if model.availability is not None:
        availability = {perm[s]: acts for s, acts in model.availability.items()}

    def move(pred: LinearBeliefPredicate) -> LinearBeliefPredicate:
        return LinearBeliefPredicate(frozenset(perm[s] for s in pred.state_set),
                                     pred.comparator, pred.threshold)

    return (Pomdp(tuple(states), model.actions, model.observations, transition, observe,
                  availability),
            Belief(tuple(probs)),
            SafeReachObjective(tuple(map(move, objective.goal)),
                               tuple(map(move, objective.safe))))


def _random_smtlib(seed: int) -> list[Instance]:
    pool_rng = random.Random(RANDOM_POOL_SEED)
    pool = [random_instance(pool_rng) for _ in range(RANDOM_POOL_SIZE)]
    rng = random.Random(seed)
    out = []
    for i, (model, b_init, objective, horizon) in enumerate(pool):
        model, b_init, objective = relabel_states(model, b_init, objective, rng)
        # Expected verdicts come from brute_force_feasible in reference().
        out.append(Instance(f"random-{i:03d}-h{horizon}", model, b_init, objective,
                            _smtlib(horizon), expected=""))
    return out


BUILDERS = {
    "kitchen-noisy-enum": lambda seed: _kitchen_noisy_enum(),
    "kitchen-det-enum": lambda seed: _kitchen_det_enum(),
    "random-smtlib": _random_smtlib,
    "kitchen-smtlib": lambda seed: _kitchen_smtlib(),
}


def build(name: str, seed: int) -> Workload:
    """Build every instance of a workload, in the order the seed gives."""
    instances = BUILDERS[name](seed)
    random.Random(seed).shuffle(instances)
    return Workload(name, seed, instances)


def reference(workload: Workload) -> list[str]:
    """Fill in what every run of each instance must reproduce.

    ``random-smtlib`` verdicts come from the independent brute-force oracle.
    Every smtlib instance must also return the verdict and policy that the
    enum backend returns for the same problem.  Returns the instances on
    which the oracle or the table and the enum backend disagree.
    """
    mismatches = []
    for inst in workload.instances:
        if not inst.expected:
            feasible = brute_force_feasible(inst.model, inst.objective, inst.b_init,
                                            inst.config.horizon)
            inst.expected = VALID if feasible else NO_POLICY
        if inst.config.backend != "smtlib":
            continue
        enum = synthesis_run(inst.model, inst.b_init, inst.objective,
                             SynthesisConfig(horizon=inst.config.horizon))
        if enum.verdict != inst.expected:
            mismatches.append(f"{inst.label}: enum backend says {enum.verdict}, "
                              f"expected {inst.expected}")
        inst.reference_policy = enum.policy
    return mismatches


def check_result(inst: Instance, result: SynthesisResult) -> Optional[str]:
    """A mismatch message, or ``None`` when the result is acceptable.

    An ``error`` verdict caused by the solver (timeout, unknown, backend
    failure) is a failed operation, not a mismatch; any other error, such as
    a policy that fails validation, is a wrong answer.
    """
    if result.verdict == VERDICT_ERROR:
        if (result.error or "").startswith(SOLVER_FAILURE_PREFIX):
            return None
        return f"{inst.label}: error verdict that is not a solver failure: {result.error}"
    if result.verdict != inst.expected:
        return f"{inst.label}: verdict {result.verdict}, expected {inst.expected}"
    if inst.config.backend == "smtlib" and result.policy != inst.reference_policy:
        return f"{inst.label}: policy differs from the enum backend's"
    return None
