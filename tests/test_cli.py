from __future__ import annotations

import json

import pytest

from safereach import cli, formats
from safereach.cli import main


def run_cli(*argv):
    return main(list(argv))


def test_synth_pickup_writes_policy_and_stats(tmp_path, capsys):
    policy_path = tmp_path / "policy.json"
    dot_path = tmp_path / "policy.dot"
    stats_path = tmp_path / "stats.csv"
    code = run_cli(
        "synth", "--domain", "pickup", "--horizon", "3",
        "--out-policy", str(policy_path), "--out-dot", str(dot_path),
        "--stats-out", str(stats_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: valid" in out
    assert "root action: pick_right" in out
    doc = json.loads(policy_path.read_text())
    assert doc["action"] == "pick_right"
    assert dot_path.read_text().startswith("digraph")
    lines = stats_path.read_text().splitlines()
    assert lines[0].split(",") == list(formats.STATS_COLUMNS)
    assert lines[1].startswith("pickup,0,0,3,enum,n/a,valid,5,3,3,1,")


def test_synth_horizon_zero_reports_no_policy(capsys):
    assert run_cli("synth", "--domain", "pickup", "--horizon", "0") == 2
    assert "no valid policy within horizon 0" in capsys.readouterr().out


def test_synth_missing_inputs_is_an_error(capsys):
    assert run_cli("synth", "--horizon", "3") == 1


def test_usage_error_exits_1_not_2(capsys):
    # 2 is reserved for "no policy within the bound"
    assert run_cli("synth", "--domain", "pickup") == 1
    assert "--horizon" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run_cli("synth", "--help")
    assert exc.value.code == 0


@pytest.mark.parametrize("argv, message", [
    (("synth", "--horizon", "-1"), "--horizon: must be non-negative"),
    (("validate", "--policy", "p.json", "--horizon", "-1"), "--horizon: must be non-negative"),
    (("bench", "--horizons", "3,-1"), "--horizons: must be non-negative"),
    (("synth", "--horizon", "3", "-M", "-1"), "--obstacles/-M: must be non-negative"),
    (("synth", "--horizon", "3", "--check-timeout", "0"), "--check-timeout: must be a positive number"),
    (("synth", "--horizon", "3", "--check-timeout", "nan"), "--check-timeout: must be a positive number"),
    (("simulate", "--policy", "p.json", "--episodes", "0"), "--episodes: must be positive"),
    (("simulate", "--policy", "p.json", "--episodes", "-5"), "--episodes: must be positive"),
])
def test_bad_numeric_input_is_a_named_error(argv, message, capsys):
    assert run_cli(*argv, "--domain", "pickup") == 1
    assert message in capsys.readouterr().err


def test_bad_check_timeout_environment_is_a_named_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("SAFEREACH_CHECK_TIMEOUT", "soon")
    assert run_cli("synth", "--domain", "pickup", "--horizon", "3") == 1
    assert "--check-timeout" in capsys.readouterr().err
    # an explicit --check-timeout replaces the bad default; validate has no such option
    policy_path = tmp_path / "policy.json"
    assert run_cli("synth", "--domain", "pickup", "--horizon", "3", "--check-timeout", "5",
                   "--out-policy", str(policy_path)) == 0
    assert run_cli("validate", "--domain", "pickup", "--horizon", "3",
                   "--policy", str(policy_path)) == 0


def test_emitted_policy_passes_validate_command(tmp_path, capsys):
    policy_path = tmp_path / "policy.json"
    assert run_cli("synth", "--domain", "pickup", "--horizon", "3",
                   "--out-policy", str(policy_path)) == 0
    assert run_cli("validate", "--domain", "pickup", "--horizon", "3",
                   "--policy", str(policy_path)) == 0
    assert "valid (2 paths)" in capsys.readouterr().out


def test_validate_catches_corrupted_policy(tmp_path, capsys):
    policy_path = tmp_path / "policy.json"
    run_cli("synth", "--domain", "pickup", "--horizon", "3",
            "--out-policy", str(policy_path))
    doc = json.loads(policy_path.read_text())
    doc["action"] = "pick_left"
    policy_path.write_text(json.dumps(doc))
    cex_path = tmp_path / "cex.json"
    code = run_cli("validate", "--domain", "pickup", "--horizon", "3",
                   "--policy", str(policy_path),
                   "--out-counterexample", str(cex_path))
    assert code == 1
    assert "INVALID" in capsys.readouterr().out
    assert cex_path.exists()


def test_validate_rejects_a_policy_whose_leaf_has_branches(tmp_path, capsys):
    policy_path = tmp_path / "policy.json"
    run_cli("synth", "--domain", "pickup", "--horizon", "3", "--out-policy", str(policy_path))
    doc = json.loads(policy_path.read_text())
    leaf = doc["children"][next(iter(doc["children"]))]
    assert leaf["action"] is None
    leaf["children"] = {name: dict(leaf) for name in doc["children"]}
    policy_path.write_text(json.dumps(doc))
    code = run_cli("validate", "--domain", "pickup", "--horizon", "3",
                   "--policy", str(policy_path))
    assert code == 1
    out = capsys.readouterr().out
    assert "INVALID" in out and "a node with no action has branches" in out


def test_model_and_objective_files_match_builtin(tmp_path, capsys):
    from safereach.domains import build_pickup_example

    model, b_init, objective = build_pickup_example()
    model_path = tmp_path / "model.json"
    objective_path = tmp_path / "objective.json"
    formats.dump_json(formats.model_to_json(model, b_init), str(model_path))
    formats.dump_json(formats.objective_to_json(objective, model), str(objective_path))
    for backend in ("enum", "smtlib"):
        code = run_cli("synth", "--model", str(model_path),
                       "--objective", str(objective_path),
                       "--backend", backend, "--horizon", "3")
        assert code == 0
        assert "root action: pick_right" in capsys.readouterr().out


_MODEL = {"states": ["s"], "actions": ["a"], "observations": ["o"],
          "transition": [{"s": "s", "a": "a", "to": {"s": "1"}}],
          "observe": [{"s": "s", "a": "a", "obs": {"o": "1"}}], "initial": {"s": "1"}}
_GOAL = {"states": ["s"], "cmp": ">", "threshold": "1/2"}


@pytest.mark.parametrize("files, message", [
    ({"model": {**_MODEL, "transition": [{"s": "s", "a": "a", "to": {"typo": "1"}}]}},
     "transition[0]: unknown state 'typo'"),
    ({"model": {**_MODEL, "transition": [{"s": "s", "a": "a"}]}},
     "transition[0]: missing key 'to'"),
    ({"model": {**_MODEL, "observe": [{"a": "a", "obs": {"o": "1"}}]}},
     "observe[0]: missing key 's'"),
    ({"objective": {"goal": [{"states": ["s"], "threshold": "1/2"}]}},
     "goal[0]: missing key 'cmp'"),
    ({"model": "{not json"}, "model.json: not valid JSON"),
    ({"policy": {"action": None, "children": {}}}, "policy: missing key 'belief'"),
    ({"model": {**_MODEL, "transition": [{"s": "s", "a": "a", "to": "s"}]}},
     "transition[0]: 'to' must be an object"),
    ({"model": {**_MODEL, "observe": [{"s": "s", "a": "a", "obs": ["o"]}]}},
     "observe[0]: 'obs' must be an object"),
    ({"model": {**_MODEL, "initial": "s"}}, "model file: 'initial' must be an object"),
    ({"model": {**_MODEL, "availability": ["a"]}},
     "model file: 'availability' must be an object"),
    ({"model": {**_MODEL, "availability": {"s": "a"}}},
     "availability: 's' must be a list of actions"),
    ({"model": {**_MODEL, "transition": 5}}, "model file: 'transition' must be a list"),
    ({"policy": {"belief": {"s": "1"}, "action": "a", "children": "o"}},
     "policy: 'children' must be an object"),
    ({"policy": {"belief": {"s": "1"}, "action": "a", "children": {"o": "leaf"}}},
     "policy.children['o']: a policy node must be an object"),
    ({"policy": {"belief": "s", "action": None}}, "policy: 'belief' must be an object"),
    ({"policy": {"belief": {"s_nowhere": "1"}, "action": None}},
     "policy belief: unknown state 's_nowhere'"),
    ({"policy": {"belief": {"s": "1"}, "action": "fly", "children": {}}},
     "policy: unknown action 'fly'"),
    ({"policy": {"belief": {"s": "1"}, "action": "a", "children": {"o_x": {}}}},
     "policy.children: unknown observation 'o_x'"),
    ({"policy": {"belief": {"s": "1"}, "action": "a", "children": {
        "o": {"belief": {"s": "1"}, "action": "fly"}}}},
     "policy.children['o']: unknown action 'fly'"),
    ({"objective": {"goal": [{**_GOAL, "states": "s"}]}}, "goal[0]: 'states' must be a list"),
    ({"model": {**_MODEL, "initial": {"typo": "1"}}}, "initial: unknown state 'typo'"),
    ({"objective": {"goal": [{**_GOAL, "cmp": "=="}]}}, "goal[0]: unknown comparator '=='"),
    ({"objective": {"goal": [_GOAL], "safe": [{**_GOAL, "threshold": "3/2"}]}},
     "safe[0]: threshold 3/2 outside [0, 1]"),
    ({"objective": {"goal": [{**_GOAL, "states": []}]}},
     "goal[0]: predicate state set must be non-empty"),
    ({"objective": {"goal": _GOAL}}, "objective file: 'goal' must be a list"),
    ({"policy": {"belief": {"s": "1"}, "action": None, "goal_reached": "false"}},
     "policy: 'goal_reached' must be true or false"),
    ({"model": {**_MODEL, "states": [["s"], "t"]}},
     "states[0]: a name must be a string, got ['s']"),
    ({"model": {**_MODEL, "actions": ["a", {"b": 1}]}},
     "actions[1]: a name must be a string, got {'b': 1}"),
], ids=["unknown-state", "transition-missing-to", "observe-missing-s", "goal-missing-cmp",
        "model-not-json", "policy-missing-belief", "transition-to-not-object",
        "observe-obs-not-object", "initial-not-object", "availability-not-object",
        "availability-entry-not-list", "transition-not-list", "policy-children-not-object",
        "policy-child-not-object", "policy-belief-not-object", "policy-unknown-state",
        "policy-unknown-action", "policy-unknown-observation", "policy-child-unknown-action",
        "objective-states-not-list", "initial-unknown-state", "goal-unknown-cmp",
        "safe-threshold-above-1", "goal-states-empty", "goal-not-list",
        "policy-goal-reached-string", "state-name-a-list", "action-name-an-object"])
def test_malformed_model_file_is_location_bearing_error(tmp_path, caplog, files, message):
    docs = {"model": _MODEL, "objective": {"goal": [_GOAL]},
            "policy": {"belief": {"s": "1"}, "action": None}, **files}
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(doc if isinstance(doc, str) else json.dumps(doc))
    argv = ["--model", str(paths["model"]), "--objective", str(paths["objective"]),
            "--horizon", "1"]
    command = ["validate", "--policy", str(paths["policy"])] if "policy" in files else ["synth"]
    assert run_cli(*command, *argv) == 1
    assert any(message in r.message for r in caplog.records)


def test_a_model_whose_initial_belief_is_not_a_distribution_names_it(tmp_path, capsys,
                                                                     caplog):
    model_path, objective_path = tmp_path / "model.json", tmp_path / "objective.json"
    model_path.write_text(json.dumps({**_MODEL, "initial": {"s": "5/6"}}))
    objective_path.write_text(json.dumps({"goal": [_GOAL]}))
    assert_named_error(("synth", "--model", str(model_path), "--objective",
                        str(objective_path), "--horizon", "1"),
                       "initial: belief entries sum to 5/6, not 1", capsys, caplog)


def test_simulate_command(tmp_path, capsys):
    policy_path = tmp_path / "policy.json"
    run_cli("synth", "--domain", "pickup", "--horizon", "3",
            "--out-policy", str(policy_path))
    code = run_cli("simulate", "--domain", "pickup", "--policy", str(policy_path),
                   "--episodes", "2000", "--seed", "5")
    assert code == 0
    out = capsys.readouterr().out
    assert "goal frequency: 0.8" in out
    assert "Wilson" in out


def test_simulate_on_a_malformed_policy_is_a_named_error(tmp_path, caplog):
    policy_path = tmp_path / "policy.json"
    run_cli("synth", "--domain", "pickup", "--horizon", "3", "--out-policy", str(policy_path))
    doc = json.loads(policy_path.read_text())
    del doc["children"]["o_neg"]
    policy_path.write_text(json.dumps(doc))
    assert run_cli("simulate", "--domain", "pickup", "--policy", str(policy_path),
                   "--episodes", "200") == 1
    assert "policy has no branch for observation 'o_neg' after action 'pick_right'" \
        in caplog.text

    files = {"model": {**_MODEL, "availability": {"s": []}}, "objective": {"goal": [_GOAL]},
             "policy": {"belief": {"s": "1"}, "action": "a", "children": {}}}
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    assert run_cli("simulate", "--model", str(tmp_path / "model.json"),
                   "--objective", str(tmp_path / "objective.json"),
                   "--policy", str(tmp_path / "policy.json")) == 1
    assert "policy action 'a' is not allowed in sampled state 's'" in caplog.text


def elsewhere_rooted_policy(tmp_path):
    """A pickup policy file whose root is a goal belief, not the initial one."""
    path = tmp_path / "policy.json"
    path.write_text(json.dumps({"belief": {"s_goal": "1"}, "action": None,
                                "goal_reached": True, "children": {}}))
    return str(path)


def test_validate_rejects_a_policy_not_rooted_at_the_initial_belief(tmp_path, capsys):
    assert run_cli("validate", "--domain", "pickup", "--horizon", "3",
                   "--policy", elsewhere_rooted_policy(tmp_path)) == 1
    assert "INVALID: the policy's root belief is not the problem's initial belief" \
        in capsys.readouterr().out


def test_simulate_rejects_a_policy_not_rooted_at_the_initial_belief(tmp_path, capsys, caplog):
    assert run_cli("simulate", "--domain", "pickup", "--episodes", "10",
                   "--policy", elsewhere_rooted_policy(tmp_path)) == 1
    assert "goal frequency" not in capsys.readouterr().out
    assert "the policy's root belief is not the problem's initial belief" in caplog.text


def assert_named_error(argv, message, capsys, caplog):
    """``argv`` exits 1 with ``message`` logged as an error and no traceback."""
    assert run_cli(*argv) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [message]


@pytest.mark.parametrize("argv, message", [
    (("--obstacle-counts", "5"), "cannot place 5 obstacles in 2 shadow cells"),
    (("--p-fail", "abc"), "cannot parse exact rational from 'abc'"),
    (("--kitchen-storage", "9,9"), "storage cell (9, 9) is outside the 3x2 grid"),
    (("--kitchen-width", "0"), "width must be an integer >= 1, got 0"),
], ids=["obstacles", "p-fail", "storage", "width"])
def test_bench_bad_kitchen_parameter_is_a_named_error(argv, message, capsys, caplog):
    assert_named_error(("bench", "--horizons", "1", *argv), message, capsys, caplog)


@pytest.mark.parametrize("argv, message", [
    (("--delta1", "2"), "delta1 must lie in [0, 1], got 2"),
    (("--delta2", "-1"), "delta2 must lie in [0, 1], got -1"),
], ids=["delta1", "delta2"])
def test_synth_kitchen_tolerance_outside_the_unit_interval_is_a_named_error(argv, message,
                                                                           capsys, caplog):
    assert_named_error(("synth", "--domain", "kitchen", "--horizon", "1", *argv), message,
                       capsys, caplog)


@pytest.mark.parametrize("command", [("synth", "--horizon", "3"),
                                     ("validate", "--policy", "p.json", "--horizon", "3"),
                                     ("simulate", "--policy", "p.json")],
                         ids=["synth", "validate", "simulate"])
@pytest.mark.parametrize("files", [("--model",), ("--objective",), ("--model", "--objective")],
                         ids=["model", "objective", "both"])
def test_domain_with_model_files_is_a_usage_error(command, files, capsys, caplog):
    argv = [*command, "--domain", "pickup"]
    for option in files:
        argv += [option, f"/nonexistent/{option[2:]}.json"]
    assert_named_error(argv, "--domain cannot be combined with --model or --objective",
                       capsys, caplog)


@pytest.mark.parametrize("argv", [("--domain", "pickup"), ("--model", "/nonexistent.json"),
                                  ("--objective", "/nonexistent.json"), ("--obstacles", "2"),
                                  ("-M", "2")],
                         ids=["domain", "model", "objective", "obstacles", "M"])
def test_bench_takes_no_problem_options(argv, monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(cli, "synthesis_run", lambda *args: runs.append(args))
    assert run_cli("bench", "--horizons", "2", *argv) == 1
    assert runs == []
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unwritable_stats_out_is_a_named_error(tmp_path, capsys, caplog):
    path = tmp_path / "missing" / "stats.csv"
    assert_named_error(("bench", "--horizons", "1", "--stats-out", str(path)),
                       f"[Errno 2] No such file or directory: '{path}'", capsys, caplog)


@pytest.mark.parametrize("argv", [("bench", "--horizons", "1"),
                                  ("synth", "--domain", "pickup", "--horizon", "3")],
                         ids=["bench", "synth"])
def test_unwritable_stats_out_fails_before_any_run(argv, tmp_path, capsys, caplog,
                                                   monkeypatch):
    runs = []
    monkeypatch.setattr(cli, "synthesis_run", lambda *args: runs.append(args))
    path = tmp_path / "missing" / "stats.csv"
    assert run_cli(*argv, "--stats-out", str(path)) == 1
    assert runs == []
    captured = capsys.readouterr()
    assert captured.out == ""  # no CSV row, no verdict: nothing ran
    assert "Traceback" not in captured.err
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] \
        == [f"[Errno 2] No such file or directory: '{path}'"]


def test_synth_stats_out_appends_one_header(tmp_path, capsys):
    path = tmp_path / "stats.csv"
    path.touch()  # an empty file still gets the header
    for _ in range(2):
        assert run_cli("synth", "--domain", "pickup", "--horizon", "3",
                       "--stats-out", str(path)) == 0
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == list(formats.STATS_COLUMNS)
    assert len(lines) == 3 and lines[1].startswith("pickup,") and lines[2].startswith("pickup,")


def bench_sweep(tmp_path, backend):
    stats_path = tmp_path / "bench.csv"
    code = run_cli(
        "bench", "--kitchen-width", "2", "--kitchen-height", "2",
        "--kitchen-shadow", "0,1;1,1", "--kitchen-storage", "1,0",
        "--kitchen-start", "0,0", "--p-fail", "0", "--p-fp", "0", "--p-fn", "0",
        "--obstacle-counts", "1", "--horizons", "3,4", "--backend", backend,
        "--compare-incremental", "--stats-out", str(stats_path))
    assert code == 0
    lines = stats_path.read_text().splitlines()
    assert lines[0].split(",") == list(formats.STATS_COLUMNS)
    assert all(line.split(",")[6] == "valid" for line in lines[1:])
    return [line.split(",")[5] for line in lines[1:]]


def test_bench_sweep_writes_csv(tmp_path, capsys):
    # two horizons x (incremental, from-scratch)
    assert bench_sweep(tmp_path, "smtlib") == ["yes", "no", "yes", "no"]


def test_enum_bench_runs_each_point_once(tmp_path, capsys):
    # the enum backend has no incremental mode to compare
    assert bench_sweep(tmp_path, "enum") == ["n/a", "n/a"]


def test_bench_honours_no_incremental(capsys):
    code = run_cli(
        "bench", "--kitchen-width", "2", "--kitchen-height", "2",
        "--kitchen-shadow", "0,1;1,1", "--kitchen-storage", "1,0",
        "--kitchen-start", "0,0", "--p-fail", "0", "--p-fp", "0", "--p-fn", "0",
        "--obstacle-counts", "1", "--horizons", "2", "--backend", "smtlib",
        "--no-incremental")
    assert code == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("kitchen,")]
    assert len(rows) == 1
    assert rows[0].split(",")[5] == "no"


def test_cli_synth_pickup_smtlib_backend(capsys):
    code = run_cli("synth", "--domain", "pickup", "--horizon", "3",
                   "--backend", "smtlib")
    assert code == 0
    assert "root action: pick_right" in capsys.readouterr().out


def test_explicit_solver_command_flag(capsys):
    import sys

    from safereach import refsolver

    command = f"{sys.executable} {refsolver.__file__}"
    code = run_cli("synth", "--domain", "pickup", "--horizon", "3",
                   "--backend", "smtlib", "--solver-cmd", command)
    assert code == 0
    assert "root action: pick_right" in capsys.readouterr().out


def test_a_blank_solver_command_runs_the_bundled_solver(capsys):
    code = run_cli("synth", "--domain", "pickup", "--horizon", "3",
                   "--backend", "smtlib", "--solver-cmd", "  ")
    assert code == 0
    assert "root action: pick_right" in capsys.readouterr().out


@pytest.mark.parametrize("source", ["flag", "environment"])
@pytest.mark.parametrize("command", ["synth", "bench"])
def test_an_unbalanced_quote_in_the_solver_command_is_a_usage_error(command, source,
                                                                    monkeypatch, capsys):
    argv = [command, "--backend", "smtlib"]
    if command == "synth":
        argv += ["--domain", "pickup", "--horizon", "3"]
    if source == "flag":
        argv += ["--solver-cmd", "z3 'x"]
    else:
        monkeypatch.setenv("SAFEREACH_SOLVER_CMD", "z3 'x")
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert "argument --solver-cmd: cannot split \"z3 'x\": No closing quotation" in err


def test_solver_command_environment_override(monkeypatch, capsys):
    import sys

    from safereach import refsolver

    monkeypatch.setenv("SAFEREACH_SOLVER_CMD", f"{sys.executable} {refsolver.__file__}")
    monkeypatch.setenv("SAFEREACH_CHECK_TIMEOUT", "30")
    code = run_cli("synth", "--domain", "pickup", "--horizon", "3",
                   "--backend", "smtlib")
    assert code == 0
    assert "root action: pick_right" in capsys.readouterr().out


def test_synth_emits_replayable_model_files(tmp_path, capsys):
    model_path = tmp_path / "kitchen.json"
    objective_path = tmp_path / "kitchen-objective.json"
    code = run_cli(
        "synth", "--domain", "kitchen", "--kitchen-width", "2",
        "--kitchen-height", "2", "--kitchen-shadow", "0,1;1,1",
        "--kitchen-storage", "1,0", "--kitchen-start", "0,0",
        "--p-fail", "0", "--p-fp", "0", "--p-fn", "0", "--horizon", "4",
        "--out-model", str(model_path), "--out-objective", str(objective_path))
    assert code == 0
    capsys.readouterr()
    replay = run_cli("synth", "--model", str(model_path),
                     "--objective", str(objective_path), "--horizon", "4")
    assert replay == 0
    assert "verdict: valid" in capsys.readouterr().out


def test_stats_rows_reproducible_except_wall_time(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for path in (first, second):
        assert run_cli("synth", "--domain", "pickup", "--horizon", "3",
                       "--stats-out", str(path)) == 0

    def strip_wall_time(path):
        rows = path.read_text().splitlines()
        return [",".join(line.split(",")[:-1]) for line in rows]

    assert strip_wall_time(first) == strip_wall_time(second)
