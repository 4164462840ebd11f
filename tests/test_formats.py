from __future__ import annotations

from fractions import Fraction as F

import pytest

from safereach import formats
from safereach.domains import build_kitchen
from safereach.synthesis import SynthesisConfig, synthesis_run


@pytest.fixture(scope="module")
def pickup_policy(pickup):
    model, b_init, objective = pickup
    result = synthesis_run(model, b_init, objective, SynthesisConfig(horizon=3))
    return result.policy


def test_fraction_strings_round_trip():
    assert formats.fraction_to_str(F(3, 4)) == "3/4"
    assert formats.fraction_to_str(F(2)) == "2"
    assert formats.parse_fraction("3/4", "x") == F(3, 4)
    assert formats.parse_fraction("0.8", "x") == F(4, 5)
    assert formats.parse_fraction(1, "x") == F(1)


def test_floats_are_rejected():
    with pytest.raises(formats.FormatError, match="not exact"):
        formats.parse_fraction(0.8, "transition[0]")


def test_model_round_trip_identical(pickup):
    model, b_init, _ = pickup
    doc = formats.model_to_json(model, b_init)
    again, b_again = formats.model_from_json(doc)
    assert again == model
    assert b_again == b_init
    assert formats.model_to_json(again, b_again) == doc


def test_kitchen_model_round_trip_with_availability():
    model, b_init, _ = build_kitchen(2, 2, [(0, 1), (1, 1)], (1, 0), (0, 0),
                                     obstacles=1, p_fail="1/20", p_fp="1/50", p_fn="1/20")
    doc = formats.model_to_json(model, b_init)
    again, b_again = formats.model_from_json(doc)
    assert again == model
    assert b_again == b_init
    # serialized probabilities are strings, never floats
    sample = doc["transition"][0]["to"]
    assert all(isinstance(v, str) for v in sample.values())


def test_model_errors_carry_location(pickup):
    model, b_init, _ = pickup
    doc = formats.model_to_json(model, b_init)
    doc["transition"][0]["to"] = {"nowhere": "1"}
    with pytest.raises(formats.FormatError, match=r"transition\[0\]"):
        formats.model_from_json(doc)
    doc2 = formats.model_to_json(model, b_init)
    doc2["observe"][1]["obs"] = {"o_pos": 0.8}
    with pytest.raises(formats.FormatError, match=r"observe\[1\]"):
        formats.model_from_json(doc2)


@pytest.mark.parametrize("key, index, bad", [
    ("states", 0, ["s_left"]), ("actions", 1, {"pick": 1}), ("observations", 1, 7),
])
def test_a_name_that_is_not_a_string_is_a_located_error(pickup, key, index, bad):
    model, b_init, _ = pickup
    doc = formats.model_to_json(model, b_init)
    doc[key][index] = bad
    with pytest.raises(formats.FormatError,
                       match=rf"^{key}\[{index}\]: a name must be a string, got "):
        formats.model_from_json(doc)


def test_objective_round_trip(pickup):
    model, _, objective = pickup
    doc = formats.objective_to_json(objective, model)
    assert doc["goal"][0]["threshold"] == "4/5"
    again = formats.objective_from_json(doc, model)
    assert again == objective


def test_objective_containment_warning(pickup):
    model, _, _ = pickup
    leaky = {
        "goal": [{"states": ["s_goal"], "cmp": ">", "threshold": "1/2"}],
        "safe": [{"states": ["s_unsafe"], "cmp": "<", "threshold": "1/5"}],
    }
    with pytest.warns(formats.ObjectiveContainmentWarning):
        formats.objective_from_json(leaky, model)


def test_objective_containment_accepts_pickup(pickup):
    import warnings

    model, _, objective = pickup
    doc = formats.objective_to_json(objective, model)
    with warnings.catch_warnings():
        warnings.simplefilter("error", formats.ObjectiveContainmentWarning)
        formats.objective_from_json(doc, model)


def test_policy_round_trip_and_dot(pickup, pickup_policy):
    model, _, _ = pickup
    doc = formats.policy_to_json(pickup_policy, model)
    assert doc["action"] == "pick_right"
    again = formats.policy_from_json(doc, model)
    assert again == pickup_policy
    dot = formats.policy_to_dot(pickup_policy, model)
    assert dot.startswith("digraph policy {")
    assert 'label="o_pos"' in dot and "pick_right" in dot
    assert dot.count("->") == 2


def test_plan_round_trip(pickup):
    from safereach.core import CandidatePlan, belief_update

    model, b_init, _ = pickup
    plan = CandidatePlan(
        0, (b_init, belief_update(b_init, 1, 0, model)), (1,), (0,))
    doc = formats.plan_to_json(plan, model)
    assert doc["actions"] == ["pick_right"]
    assert formats.plan_from_json(doc, model) == plan


@pytest.mark.parametrize("damage, message", [
    (lambda doc: doc.pop("start_step"), r"^plan: missing key 'start_step'$"),
    (lambda doc: doc["beliefs"].__setitem__(0, "s_init"),
     r"^plan\.beliefs\[0\]: a belief must be an object$"),
    (lambda doc: doc.__setitem__("actions", "pick_right"), r"^plan: 'actions' must be a list$"),
])
def test_plan_errors_carry_location(pickup, damage, message):
    from safereach.core import CandidatePlan, belief_update

    model, b_init, _ = pickup
    plan = CandidatePlan(0, (b_init, belief_update(b_init, 1, 0, model)), (1,), (0,))
    doc = formats.plan_to_json(plan, model)
    damage(doc)
    with pytest.raises(formats.FormatError, match=message):
        formats.plan_from_json(doc, model)


def _not_a_distribution(model, b_init, policy):
    """A model, a policy and a plan document, each with one belief that is not
    a distribution, and the error each must raise."""
    from safereach.core import CandidatePlan, belief_update

    ready, unsafe = model.states[:2]
    model_doc = formats.model_to_json(model, b_init)
    model_doc["initial"] = {ready: "5/6"}
    policy_doc = formats.policy_to_json(policy, model)
    policy_doc["children"]["o_pos"]["belief"] = {ready: "2"}
    plan = CandidatePlan(0, (b_init, belief_update(b_init, 1, 0, model)), (1,), (0,))
    plan_doc = formats.plan_to_json(plan, model)
    plan_doc["beliefs"][0] = {ready: "-1", unsafe: "2"}
    return [
        (lambda: formats.model_from_json(model_doc),
         r"^initial: belief entries sum to 5/6, not 1$"),
        (lambda: formats.policy_from_json(policy_doc, model),
         r"^policy\.children\['o_pos'\] belief: belief entries sum to 2, not 1$"),
        (lambda: formats.plan_from_json(plan_doc, model),
         r"^plan\.beliefs\[0\]: belief has a negative entry: -1$"),
    ]


def test_a_belief_that_is_not_a_distribution_names_its_location(pickup, pickup_policy):
    model, b_init, _ = pickup
    for load, message in _not_a_distribution(model, b_init, pickup_policy):
        with pytest.raises(formats.FormatError, match=message):
            load()


def test_stats_csv_shape(pickup):
    from safereach.core import SynthesisStats

    header = formats.stats_csv_header().strip().split(",")
    assert header == list(formats.STATS_COLUMNS)
    trace = [(0, 0, "unsat"), (0, 1, "sat"), (0, 1, "unsat"), (0, 2, "sat"), (0, 2, "sat")]
    stats = SynthesisStats(interactions=3, final_horizon=1, wall_time=0.25, check_trace=trace)
    row = formats.stats_csv_row(stats, "pickup", 0, 0, 3, "smtlib", True, "valid")
    fields = row.strip().split(",")
    assert len(fields) == len(header)
    assert fields[:7] == ["pickup", "0", "0", "3", "smtlib", "yes", "valid"]
    assert fields[7:11] == ["5", "3", "3", "1"]
    for incremental in (True, False):  # the enum backend has no incremental mode
        row = formats.stats_csv_row(stats, "pickup", 0, 0, 3, "enum", incremental, "valid")
        assert row.split(",")[5] == "n/a"
