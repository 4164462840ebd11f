"""Command-line entry points.

Subcommands: ``synth`` (run synthesis, write policy/DOT/stats),
``validate`` (re-check a policy file), ``simulate`` (Monte Carlo executor)
and ``bench`` (kitchen parameter sweep, one CSV row per run).

Exit codes for ``synth``: 0 = valid policy, 2 = no policy within the bound,
1 = error.  Every subcommand exits 1 on a usage error (argparse's own code
would be 2).  Defaults for ``--solver-cmd`` and ``--check-timeout`` can also
be set through the environment as SAFEREACH_SOLVER_CMD and
SAFEREACH_CHECK_TIMEOUT; each is checked like the option itself.
"""

from __future__ import annotations

import argparse
import io
import logging
import math
import os
import shlex
import sys
from dataclasses import replace

from . import formats
from .core import Belief, ModelError, Pomdp, SafeReachObjective
from .domains import build_kitchen, build_pickup_example
from .solver import SolverConfig
from .synthesis import (
    SynthesisConfig,
    VERDICT_NO_POLICY,
    VERDICT_VALID,
    synthesis_run,
)
from .validate import simulate, validate_policy

EXIT_VALID = 0
EXIT_ERROR = 1
EXIT_NO_POLICY = 2

ROOT_NOT_INITIAL = "the policy's root belief is not the problem's initial belief"

log = logging.getLogger("safereach")


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive number of seconds, got {text}")
    return value


def _solver_command(text: str) -> tuple[str, ...] | None:
    try:
        return tuple(shlex.split(text)) or None  # blank: the bundled solver
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot split {text!r}: {exc}") from None


def _parse_cell(text: str) -> tuple[int, int]:
    x, y = text.split(",")
    return (int(x), int(y))


def _parse_cells(text: str) -> list[tuple[int, int]]:
    return [_parse_cell(part) for part in text.split(";") if part]


def _add_problem_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", help="model JSON file (with an 'initial' belief)")
    parser.add_argument("--objective", help="objective JSON file")
    parser.add_argument("--domain", choices=("pickup", "kitchen"),
                        help="use a built-in benchmark instead of files")
    kitchen = _add_kitchen_args(parser)
    kitchen.add_argument("--obstacles", "-M", type=_non_negative_int, default=1)


def _add_kitchen_args(parser: argparse.ArgumentParser):
    """The kitchen's geometry, noise and tolerances; the obstacle count is
    the caller's."""
    kitchen = parser.add_argument_group("kitchen domain")
    kitchen.add_argument("--kitchen-width", type=int, default=3)
    kitchen.add_argument("--kitchen-height", type=int, default=2)
    kitchen.add_argument("--kitchen-shadow", type=_parse_cells, default=[(1, 0), (1, 1)],
                         metavar="X,Y;X,Y", help="cells that may hold obstacles")
    kitchen.add_argument("--kitchen-storage", type=_parse_cell, default=(2, 0), metavar="X,Y")
    kitchen.add_argument("--kitchen-start", type=_parse_cell, default=(0, 0), metavar="X,Y")
    kitchen.add_argument("--p-fail", default="0", help="move failure probability (exact)")
    kitchen.add_argument("--p-fp", default="0", help="look false-positive probability")
    kitchen.add_argument("--p-fn", default="0", help="look false-negative probability")
    kitchen.add_argument("--delta1", default="1/5", help="goal tolerance")
    kitchen.add_argument("--delta2", default="1/5", help="safety tolerance")
    return kitchen


def _add_solver_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=("smtlib", "enum"), default="enum")
    parser.add_argument("--solver-cmd", type=_solver_command,
                        default=os.environ.get("SAFEREACH_SOLVER_CMD"),
                        help="external solver command line, e.g. 'z3 -in' "
                             "(default: bundled reference solver)")
    parser.add_argument("--check-timeout", type=_positive_float,
                        default=os.environ.get("SAFEREACH_CHECK_TIMEOUT", "60"),
                        help="per-check timeout in seconds "
                             "(default: $SAFEREACH_CHECK_TIMEOUT, else 60)")
    parser.add_argument("--no-incremental", action="store_true",
                        help="smtlib: replay into a reset solver per check "
                             "instead of push/pop")


def _kitchen(args, obstacles: int) -> tuple[Pomdp, Belief, SafeReachObjective]:
    return build_kitchen(
        args.kitchen_width, args.kitchen_height, args.kitchen_shadow,
        args.kitchen_storage, args.kitchen_start, obstacles,
        args.p_fail, args.p_fp, args.p_fn, args.delta1, args.delta2)


def _build_problem(args) -> tuple[Pomdp, Belief, SafeReachObjective, str, int, int]:
    """Returns (model, b_init, objective, domain label, M, N)."""
    if args.domain and (args.model or args.objective):
        raise ModelError("--domain cannot be combined with --model or --objective")
    if args.domain == "pickup":
        model, b_init, objective = build_pickup_example()
        return model, b_init, objective, "pickup", 0, 0
    if args.domain == "kitchen":
        model, b_init, objective = _kitchen(args, args.obstacles)
        return (model, b_init, objective, "kitchen", args.obstacles,
                args.kitchen_width * args.kitchen_height)
    if not args.model or not args.objective:
        raise ModelError("either --domain or both --model and --objective are required")
    model, b_init = formats.model_from_json(formats.load_json(args.model))
    if b_init is None:
        raise ModelError(f"{args.model}: model file lacks an 'initial' belief")
    objective = formats.objective_from_json(formats.load_json(args.objective), model)
    return model, b_init, objective, os.path.basename(args.model), 0, len(model.states)


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        command=args.solver_cmd,
        check_timeout=args.check_timeout,
        incremental=not args.no_incremental,
    )


def _stats_file(path: str | None, mode: str):
    """The ``--stats-out`` file, opened before any run so that a bad path
    fails at once; without one, a buffer that is dropped."""
    return open(path, mode, encoding="utf-8") if path else io.StringIO()


def cmd_synthesize(args) -> int:
    model, b_init, objective, domain, obstacles, n_cells = _build_problem(args)
    config = SynthesisConfig(
        horizon=args.horizon,
        backend=args.backend,
        solver=_solver_config(args),
    )
    if args.out_model:
        formats.dump_json(formats.model_to_json(model, b_init), args.out_model)
    if args.out_objective:
        formats.dump_json(formats.objective_to_json(objective, model), args.out_objective)
    with _stats_file(args.stats_out, "a") as stats_out:
        result = synthesis_run(model, b_init, objective, config)
        stats = result.stats
        if not stats_out.tell():  # a new or empty file
            stats_out.write(formats.stats_csv_header())
        stats_out.write(formats.stats_csv_row(
            stats, domain, obstacles, n_cells, args.horizon,
            args.backend, not args.no_incremental, result.verdict))
    print(f"verdict: {result.verdict}")
    print(f"solver calls: {stats.solver_calls}, plans checked: {stats.plans_checked}, "
          f"interactions: {stats.interactions}, final horizon: {stats.final_horizon}, "
          f"wall time: {stats.wall_time:.3f}s")
    if result.verdict == VERDICT_VALID:
        assert result.policy is not None
        root_action = result.policy.action
        if root_action is not None:
            print(f"root action: {model.actions[root_action]}")
        if args.out_policy:
            formats.dump_json(formats.policy_to_json(result.policy, model), args.out_policy)
            print(f"policy written to {args.out_policy}")
        if args.out_dot:
            with open(args.out_dot, "w", encoding="utf-8") as handle:
                handle.write(formats.policy_to_dot(result.policy, model) + "\n")
        return EXIT_VALID
    if result.verdict == VERDICT_NO_POLICY:
        print(f"no valid policy within horizon {args.horizon}")
        return EXIT_NO_POLICY
    log.error("synthesis failed: %s", result.error)
    return EXIT_ERROR


def cmd_validate(args) -> int:
    model, b_init, objective, *_ = _build_problem(args)
    policy = formats.policy_from_json(formats.load_json(args.policy), model)
    if policy.belief != b_init:
        print(f"INVALID: {ROOT_NOT_INITIAL}")
        return EXIT_ERROR
    report = validate_policy(policy, model, objective, args.horizon)
    if report.valid:
        print(f"valid ({report.paths} paths)")
        return EXIT_VALID
    print(f"INVALID: {report.reason}")
    if report.counterexample is not None and args.out_counterexample:
        formats.dump_json(
            formats.plan_to_json(report.counterexample, model), args.out_counterexample)
        print(f"counterexample written to {args.out_counterexample}")
    return EXIT_ERROR


def cmd_simulate(args) -> int:
    model, b_init, objective, *_ = _build_problem(args)
    policy = formats.policy_from_json(formats.load_json(args.policy), model)
    if policy.belief != b_init:
        raise ModelError(ROOT_NOT_INITIAL)
    report = simulate(policy, model, objective, args.episodes, seed=args.seed)
    lo, hi = report.goal_interval
    print(f"goal frequency: {report.goal_freq:.4f} (95% Wilson [{lo:.4f}, {hi:.4f}])")
    lo, hi = report.unsafe_interval
    print(f"unsafe visit frequency: {report.unsafe_visit_freq:.4f} "
          f"(95% Wilson [{lo:.4f}, {hi:.4f}])")
    return EXIT_VALID


def cmd_bench(args) -> int:
    failures = 0
    solver = _solver_config(args)
    compare = args.compare_incremental and args.backend != "enum"  # enum has no such mode
    modes = (True, False) if compare else (solver.incremental,)
    with _stats_file(args.stats_out, "w") as stats_out:
        stats_out.write(formats.stats_csv_header())
        for obstacles in args.obstacle_counts:
            model, b_init, objective = _kitchen(args, obstacles)
            for horizon in args.horizons:
                for incremental in modes:
                    config = SynthesisConfig(
                        horizon=horizon,
                        backend=args.backend,
                        solver=replace(solver, incremental=incremental),
                    )
                    result = synthesis_run(model, b_init, objective, config)
                    if result.verdict not in (VERDICT_VALID, VERDICT_NO_POLICY):
                        failures += 1
                    row = formats.stats_csv_row(
                        result.stats, "kitchen", obstacles,
                        args.kitchen_width * args.kitchen_height, horizon,
                        args.backend, incremental, result.verdict)
                    stats_out.write(row)
                    print(row.strip())
    if args.stats_out:
        print(f"wrote {args.stats_out}")
    return EXIT_ERROR if failures else EXIT_VALID


def _count_list(text: str) -> list[int]:
    return [_non_negative_int(part) for part in text.split(",") if part]


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safereach",
        description="Policy synthesis for POMDPs with safe-reachability objectives",
    )
    parser.add_argument("--verbose", "-v", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize a policy")
    _add_problem_args(synth)
    _add_solver_args(synth)
    synth.add_argument("--horizon", type=_non_negative_int, required=True,
                       help="horizon bound h")
    synth.add_argument("--out-policy", help="write the policy JSON here")
    synth.add_argument("--out-dot", help="write a Graphviz rendering here")
    synth.add_argument("--out-model", help="write the (possibly generated) model JSON here")
    synth.add_argument("--out-objective", help="write the objective JSON here")
    synth.add_argument("--stats-out", help="append a stats CSV row here")
    synth.set_defaults(func=cmd_synthesize)

    val = sub.add_parser("validate", help="check a policy file exhaustively")
    _add_problem_args(val)
    val.add_argument("--policy", required=True, help="policy JSON file")
    val.add_argument("--horizon", type=_non_negative_int, required=True)
    val.add_argument("--out-counterexample", help="write the violating plan here")
    val.set_defaults(func=cmd_validate)

    sim = sub.add_parser("simulate", help="Monte Carlo execution of a policy")
    _add_problem_args(sim)
    sim.add_argument("--policy", required=True)
    sim.add_argument("--episodes", type=_positive_int, default=10000)
    sim.add_argument("--seed", type=int, default=0)
    sim.set_defaults(func=cmd_simulate)

    bench = sub.add_parser("bench", help="kitchen parameter sweep")
    _add_kitchen_args(bench)
    _add_solver_args(bench)
    bench.add_argument("--obstacle-counts", type=_count_list, default=[1],
                       metavar="M1,M2", help="obstacle counts to sweep")
    bench.add_argument("--horizons", type=_count_list, default=[6], metavar="H1,H2")
    bench.add_argument("--compare-incremental", action="store_true",
                       help="smtlib: run each point with and without incremental solving")
    bench.add_argument("--stats-out", help="write the CSV here")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code:  # a usage error; argparse's 2 would read as "no policy"
            return EXIT_ERROR
        raise
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ModelError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
