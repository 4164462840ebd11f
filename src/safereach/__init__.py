"""Exact policy synthesis for discrete POMDPs with safe-reachability objectives.

The public surface: model types and belief operations (:mod:`safereach.core`),
the bounded constraint encoding (:mod:`safereach.encoding`), solver backends
(:mod:`safereach.solver`), the synthesis loops (:mod:`safereach.synthesis`),
exhaustive validation and simulation (:mod:`safereach.validate`), benchmark
builders (:mod:`safereach.domains`) and file formats (:mod:`safereach.formats`).
"""

from .core import (
    Belief,
    BlockEvent,
    CandidatePlan,
    LinearBeliefPredicate,
    ModelError,
    PolicyTree,
    Pomdp,
    RunContext,
    SafeReachObjective,
    SynthesisStats,
    belief_update,
    goal_step,
    observation_probability,
    plan_satisfies,
)
from .domains import build_kitchen, build_pickup_example
from .solver import SolverConfig
from .synthesis import (
    SynthesisConfig,
    SynthesisResult,
    VERDICT_ERROR,
    VERDICT_NO_POLICY,
    VERDICT_VALID,
    bps,
    policy_generation,
    synthesis_run,
)
from .validate import SimulationReport, ValidationReport, simulate, validate_policy

__version__ = "0.1.0"

__all__ = [
    "Belief",
    "BlockEvent",
    "CandidatePlan",
    "LinearBeliefPredicate",
    "ModelError",
    "PolicyTree",
    "Pomdp",
    "RunContext",
    "SafeReachObjective",
    "SimulationReport",
    "SolverConfig",
    "SynthesisConfig",
    "SynthesisResult",
    "SynthesisStats",
    "ValidationReport",
    "VERDICT_ERROR",
    "VERDICT_NO_POLICY",
    "VERDICT_VALID",
    "belief_update",
    "bps",
    "build_kitchen",
    "build_pickup_example",
    "goal_step",
    "observation_probability",
    "plan_satisfies",
    "policy_generation",
    "simulate",
    "synthesis_run",
    "validate_policy",
]
