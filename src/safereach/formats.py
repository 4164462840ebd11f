"""File formats: JSON models/objectives/policies/plans, DOT trees, stats CSV.

Rationals are serialized as "num/den" strings, never floats, so a parse →
serialize → parse round trip is the identity.  Loaders complete sparse
distributions, verify sums exactly, and warn when the goal predicates are
not provably contained in the safe set.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from fractions import Fraction
from typing import Optional

from .core import (
    Belief,
    CandidatePlan,
    LinearBeliefPredicate,
    ModelError,
    PolicyTree,
    Pomdp,
    SafeReachObjective,
    SynthesisStats,
    as_fraction,
)


class FormatError(ModelError):
    """Malformed input file; the message carries the offending location."""


class ObjectiveContainmentWarning(UserWarning):
    """Goal beliefs could not be shown to be safe beliefs."""


def fraction_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 \
        else str(value.numerator)


def _field(doc: object, key: str, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise FormatError(f"{where}: missing key {key!r}")
    return doc[key]


def _object(doc: object, key: str, where: str) -> dict:
    """``doc[key]``, which must be present and a JSON object."""
    value = _field(doc, key, where)
    if not isinstance(value, dict):
        raise FormatError(f"{where}: {key!r} must be an object")
    return value


def _list(doc: object, key: str, where: str) -> list:
    """``doc[key]``, which must be present and a JSON list."""
    value = _field(doc, key, where)
    if not isinstance(value, list):
        raise FormatError(f"{where}: {key!r} must be a list")
    return value


def _index(names: tuple, name: object, kind: str, where: str) -> int:
    """The position of ``name`` among a model's ``kind`` names."""
    try:
        return names.index(name)
    except ValueError:
        raise FormatError(f"{where}: unknown {kind} {name!r}") from None


def parse_fraction(value: object, where: str) -> Fraction:
    if isinstance(value, float):
        raise FormatError(f"{where}: floats are not exact; write \"p/q\" instead of {value!r}")
    try:
        return as_fraction(value)
    except ModelError as exc:
        raise FormatError(f"{where}: {exc}") from None


# --------------------------------------------------------------------------
# Model
# --------------------------------------------------------------------------

def model_to_json(model: Pomdp, b_init: Optional[Belief] = None) -> dict:
    doc: dict = {
        "states": list(model.states),
        "actions": list(model.actions),
        "observations": list(model.observations),
        "transition": [
            {
                "s": model.states[s],
                "a": model.actions[a],
                "to": {model.states[s2]: fraction_to_str(p)
                       for s2, p in sorted(dist.items()) if p},
            }
            for (s, a), dist in sorted(model.transition.items())
        ],
        "observe": [
            {
                "s": model.states[s2],
                "a": model.actions[a],
                "obs": {model.observations[o]: fraction_to_str(p)
                        for o, p in sorted(dist.items()) if p},
            }
            for (s2, a), dist in sorted(model.observe.items())
        ],
    }
    if model.availability is not None:
        doc["availability"] = {
            model.states[s]: [model.actions[a] for a in sorted(acts)]
            for s, acts in sorted(model.availability.items())
        }
    if b_init is not None:
        doc["initial"] = {
            model.states[j]: fraction_to_str(p)
            for j, p in enumerate(b_init.probs) if p
        }
    return doc


def _names(doc: dict, key: str) -> tuple[str, ...]:
    """``doc[key]``, a list of names, each of which must be a string."""
    names = tuple(doc[key])
    for i, name in enumerate(names):
        if not isinstance(name, str):
            raise FormatError(f"{key}[{i}]: a name must be a string, got {name!r}")
    return names


def model_from_json(doc: dict) -> tuple[Pomdp, Optional[Belief]]:
    for key in ("states", "actions", "observations", "transition", "observe"):
        if not isinstance(_field(doc, key, "model file"), (list, tuple)):
            raise FormatError(f"model file: {key!r} must be a list")
    states, actions, observations = (_names(doc, key)
                                     for key in ("states", "actions", "observations"))
    transition: dict[tuple[int, int], dict[int, Fraction]] = {}
    for row_no, row in enumerate(doc["transition"]):
        where = f"transition[{row_no}]"
        s = _index(states, _field(row, "s", where), "state", where)
        a = _index(actions, _field(row, "a", where), "action", where)
        if (s, a) in transition:
            raise FormatError(f"{where}: duplicate row for ({row['s']}, {row['a']})")
        transition[(s, a)] = {
            _index(states, name, "state", where): parse_fraction(p, where)
            for name, p in _object(row, "to", where).items()
        }
    observe: dict[tuple[int, int], dict[int, Fraction]] = {}
    for row_no, row in enumerate(doc["observe"]):
        where = f"observe[{row_no}]"
        s2 = _index(states, _field(row, "s", where), "state", where)
        a = _index(actions, _field(row, "a", where), "action", where)
        if (s2, a) in observe:
            raise FormatError(f"{where}: duplicate row for ({row['s']}, {row['a']})")
        observe[(s2, a)] = {
            _index(observations, name, "observation", where): parse_fraction(p, where)
            for name, p in _object(row, "obs", where).items()
        }
    availability = None
    if "availability" in doc:
        availability = {}
        for name, acts in _object(doc, "availability", "model file").items():
            if not isinstance(acts, (list, tuple)):
                raise FormatError(f"availability: {name!r} must be a list of actions")
            availability[_index(states, name, "state", "availability")] = \
                frozenset(_index(actions, a, "action", "availability") for a in acts)
    model = Pomdp(states, actions, observations, transition, observe, availability)
    b_init = None
    if "initial" in doc:
        b_init = _belief_from_json(_object(doc, "initial", "model file"), model, "initial")
    return model, b_init


# --------------------------------------------------------------------------
# Objective
# --------------------------------------------------------------------------

def objective_to_json(objective: SafeReachObjective, model: Pomdp) -> dict:
    def render(preds: tuple[LinearBeliefPredicate, ...]) -> list[dict]:
        return [
            {
                "states": [model.states[j] for j in sorted(p.state_set)],
                "cmp": p.comparator,
                "threshold": fraction_to_str(p.threshold),
            }
            for p in preds
        ]

    return {"goal": render(objective.goal), "safe": render(objective.safe)}


def objective_from_json(doc: dict, model: Pomdp) -> SafeReachObjective:
    def parse(entries: list, section: str) -> tuple[LinearBeliefPredicate, ...]:
        preds = []
        for i, entry in enumerate(entries):
            where = f"{section}[{i}]"
            names, comparator = _list(entry, "states", where), _field(entry, "cmp", where)
            state_set = frozenset(_index(model.states, s, "state", where) for s in names)
            threshold = parse_fraction(_field(entry, "threshold", where), where)
            try:
                preds.append(LinearBeliefPredicate(state_set, comparator, threshold))
            except ModelError as exc:
                raise FormatError(f"{where}: {exc}") from None
        return tuple(preds)

    where = "objective file"
    objective = SafeReachObjective(
        parse(_list(doc, "goal", where), "goal"),
        parse(_list(doc, "safe", where) if "safe" in doc else [], "safe"))
    check_goal_safety_containment(objective)
    return objective


def check_goal_safety_containment(objective: SafeReachObjective) -> bool:
    """Warn unless every goal belief is provably a safe belief.

    Provable case (the threshold form): a safe predicate mass(U) < d is
    implied by a goal predicate mass(G) > t whenever U and G are disjoint
    and 1 - t <= d.  Anything beyond that is model-specific, so the loader
    only warns.
    """
    for sp in objective.safe:
        implied = False
        if sp.comparator in ("<", "<="):
            for gp in objective.goal:
                if gp.comparator in (">", ">=") and not (sp.state_set & gp.state_set):
                    # goal mass > t forces off-goal mass < 1 - t
                    slack = 1 - gp.threshold
                    if slack < sp.threshold or (
                            slack == sp.threshold
                            and (gp.comparator == ">" or sp.comparator == "<=")):
                        implied = True
                        break
        if not implied:
            warnings.warn(
                "could not verify that goal beliefs are safe beliefs "
                f"(safe predicate over {sorted(sp.state_set)})",
                ObjectiveContainmentWarning,
                stacklevel=2,
            )
            return False
    return True


# --------------------------------------------------------------------------
# Beliefs, plans, policies
# --------------------------------------------------------------------------

def _belief_to_json(belief: Belief, model: Pomdp) -> dict:
    return {model.states[j]: fraction_to_str(p) for j, p in enumerate(belief.probs) if p}


def _belief_from_json(doc: dict, model: Pomdp, where: str) -> Belief:
    if not isinstance(doc, dict):
        raise FormatError(f"{where}: a belief must be an object")
    probs = [Fraction(0)] * len(model.states)
    for name, p in doc.items():
        probs[_index(model.states, name, "state", where)] = parse_fraction(p, where)
    try:
        return Belief(tuple(probs))
    except ModelError as exc:
        raise FormatError(f"{where}: {exc}") from None


def plan_to_json(plan: CandidatePlan, model: Pomdp) -> dict:
    return {
        "start_step": plan.start_step,
        "beliefs": [_belief_to_json(b, model) for b in plan.beliefs],
        "actions": [model.actions[a] for a in plan.actions],
        "observations": [model.observations[o] for o in plan.observations],
    }


def plan_from_json(doc: dict, model: Pomdp) -> CandidatePlan:
    where = "plan"
    start = _field(doc, "start_step", where)
    if not isinstance(start, int) or isinstance(start, bool):
        raise FormatError(f"{where}: 'start_step' must be an integer")
    beliefs = tuple(_belief_from_json(b, model, f"{where}.beliefs[{i}]")
                    for i, b in enumerate(_list(doc, "beliefs", where)))
    actions = tuple(_index(model.actions, a, "action", f"{where}.actions[{i}]")
                    for i, a in enumerate(_list(doc, "actions", where)))
    observations = tuple(
        _index(model.observations, o, "observation", f"{where}.observations[{i}]")
        for i, o in enumerate(_list(doc, "observations", where)))
    try:
        return CandidatePlan(start, beliefs, actions, observations)
    except ModelError as exc:
        raise FormatError(f"{where}: {exc}") from None


def policy_to_json(tree: PolicyTree, model: Pomdp) -> dict:
    return {
        "belief": _belief_to_json(tree.belief, model),
        "action": model.actions[tree.action] if tree.action is not None else None,
        "goal_reached": tree.goal_reached,
        "children": {
            model.observations[o]: policy_to_json(child, model)
            for o, child in sorted(tree.children.items())
        },
    }


def policy_from_json(doc: dict, model: Pomdp, where: str = "policy") -> PolicyTree:
    """The policy tree of ``doc``; ``where`` names the node in error messages."""
    if not isinstance(doc, dict):
        raise FormatError(f"{where}: a policy node must be an object")
    action = doc.get("action")
    children = _object(doc, "children", where) if "children" in doc else {}
    goal_reached = doc.get("goal_reached", False)
    if not isinstance(goal_reached, bool):
        raise FormatError(f"{where}: 'goal_reached' must be true or false")
    return PolicyTree(
        belief=_belief_from_json(_object(doc, "belief", where), model, f"{where} belief"),
        action=_index(model.actions, action, "action", where) if action is not None else None,
        children={
            _index(model.observations, o, "observation", f"{where}.children"):
                policy_from_json(child, model, f"{where}.children[{o!r}]")
            for o, child in children.items()
        },
        goal_reached=goal_reached,
    )


def policy_to_dot(tree: PolicyTree, model: Pomdp) -> str:
    """Graphviz rendering of the policy tree: beliefs in boxes, observations
    on edges."""
    lines = ["digraph policy {", "  rankdir=LR;", "  node [shape=box];"]
    counter = 0

    def belief_label(belief: Belief) -> str:
        entries = [f"{model.states[j]}={fraction_to_str(p)}"
                   for j, p in enumerate(belief.probs) if p]
        return "\\n".join(entries)

    def emit(node: PolicyTree) -> int:
        nonlocal counter
        me = counter
        counter += 1
        shape = "doubleoctagon" if node.goal_reached else "box"
        action = f"\\n{model.actions[node.action]}" if node.action is not None else ""
        lines.append(f'  n{me} [shape={shape}, label="{belief_label(node.belief)}{action}"];')
        for o in sorted(node.children):
            child_id = emit(node.children[o])
            lines.append(f'  n{me} -> n{child_id} [label="{model.observations[o]}"];')
        return me

    emit(tree)
    lines.append("}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Stats CSV
# --------------------------------------------------------------------------

STATS_COLUMNS = (
    "domain", "M", "N", "h", "backend", "incremental", "verdict",
    "solver_calls", "plans_checked", "interactions", "final_horizon", "wall_time_s",
)


def stats_csv_header() -> str:
    out = io.StringIO()
    csv.writer(out).writerow(STATS_COLUMNS)
    return out.getvalue()


def stats_csv_row(
    stats: SynthesisStats,
    domain: str,
    obstacles: object,
    n_cells: object,
    horizon: int,
    backend: str,
    incremental: bool,
    verdict: str,
) -> str:
    """One stats row; ``incremental`` reads n/a for the enum backend, which has no such mode."""
    out = io.StringIO()
    csv.writer(out).writerow([
        domain, obstacles, n_cells, horizon, backend,
        "n/a" if backend == "enum" else "yes" if incremental else "no", verdict,
        stats.solver_calls, stats.plans_checked, stats.interactions,
        stats.final_horizon, f"{stats.wall_time:.6f}",
    ])
    return out.getvalue()


def dump_json(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=False)
        handle.write("\n")


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from None
