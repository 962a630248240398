"""Command-line front end.

Subcommands: gen-network, simulate, attack-plan, recover, compare, ablate,
count.  attack-plan prints a plan's wall time and both search counters,
and count the size of the naive configuration space.  Scenario files are
JSON (see harness.Scenario); result tables are written as CSV and JSON
side by side unless --format narrows that down.  Exit codes: 0 on
success, 2 on validation problems, 3 when an exact-mode run was skipped
because its enumeration exceeded the cap.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .adversary import DEFAULT_P, adversarial_outcome, simulate_adversarial
from .dynamics import closed_form_outcome, simulate
from .errors import CapExceededError, ConvergenceError, ValidationError, _check_count
from .harness import (
    Scenario,
    RESULT_HEADER,
    generate,
    result_rows_to_csv,
    result_rows_to_json,
    run_ablation,
    run_comparison,
)
from .optimizer import DEFAULT_CONFIG_CAP, count_configurations, solve_attack
from .recovery import RecoveryProblem, recover

DEFAULT_COMPARE_STRATEGIES = "ours_approx,variant_I,variant_IV,variant_V,variant_VI,random"


def _load_scenario(args):
    path = Path(args.scenario)
    scenario = Scenario.from_json(fileio.read_json(path), default_id=path.stem)
    if getattr(args, "seed", None) is not None:
        scenario = scenario.with_seed(args.seed)
    return scenario


def _out_dir(args):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_tables(args, stem, header, cells, payload):
    """Write the CSV table and the JSON payload that --format selects."""
    out = _out_dir(args)
    table_formats = ("csv", "json") if args.format is None else (args.format,)
    if "csv" in table_formats:
        path = out / f"{stem}.csv"
        fileio.write_csv(path, header, cells)
        print(path)
    if "json" in table_formats:
        path = out / f"{stem}.json"
        fileio.write_json(path, payload)
        print(path)


def cmd_gen_network(args):
    scenario = _load_scenario(args)
    out = _out_dir(args)
    _, params = generate(scenario)
    path = out / f"{scenario.scenario_id}_network.json"
    fileio.save_parameters(params, path)
    print(path)
    return 0


def cmd_simulate(args):
    params = fileio.load_parameters(args.network)
    _check_count(args.trajectories, "--trajectories")
    if args.z0 is not None and args.trajectories != 1:
        raise ValidationError(f"--z0 starts one rollout, got --trajectories {args.trajectories}")
    config = fileio.load_config(args.config) if args.config else None
    if args.z0 is not None:
        try:
            starts = [np.array([float(x) for x in args.z0.split(",")])]
        except ValueError as exc:
            raise ValidationError(f"--z0: {exc}") from None
    else:
        rng = np.random.default_rng(args.seed or 0)
        starts = [np.array(params.intrinsic)]
        starts += [rng.uniform(0.0, 1.0, params.n) for _ in range(args.trajectories - 1)]
    trajectories = []
    for z0 in starts:
        if config is None:
            trajectories.append(simulate(params, z0, args.rounds))
        else:
            trajectories.append(simulate_adversarial(params, config, z0, args.rounds))
    out = _out_dir(args)
    path = out / f"{Path(args.network).stem}_trajectories.json"
    fileio.save_trajectories(trajectories, path)
    print(path)
    return 0


def cmd_attack_plan(args):
    params = fileio.load_parameters(args.network)
    instance_id = args.id or Path(args.network).stem
    plan = solve_attack(
        params,
        p=args.p,
        leader_size=args.leader_size,
        follower_mode=args.mode,
        cap=args.cap,
    )
    g0 = closed_form_outcome(params).g
    out = _out_dir(args)
    path = out / f"{instance_id}_attack_plan.json"
    fileio.write_json(path, fileio.plan_to_json(plan))
    cells = [
        instance_id,
        fileio.format_sig(g0, 6),
        fileio.format_sig(plan.predicted_g, 6),
        fileio.format_sig(plan.predicted_g - g0, 6),
        fileio.format_sig(plan.wall_time * 1e3, 6),
        str(plan.leader_evaluations),
        str(plan.follower_candidates),
        fileio.format_sig(plan.upper_bound, 6),
    ]
    print(",".join(cells))
    return 0


def cmd_recover(args):
    network = fileio.load_network(args.network)
    trajectories = fileio.load_trajectories(args.trajectories)
    problem = RecoveryProblem(
        network=network, trajectories=tuple(trajectories), ridge=args.ridge
    )
    result = recover(problem)
    out = _out_dir(args)
    stem = Path(args.trajectories).stem
    params_path = out / f"{stem}_recovered.json"
    fileio.save_parameters(result.params, params_path)
    report_path = out / f"{stem}_recovery_report.json"
    fileio.write_json(
        report_path,
        {
            "per_agent_residual": [
                fileio.round_sig(x, 12) for x in result.per_agent_residual
            ],
            "identifiability_flags": list(result.identifiability_flags),
            "max_residual": fileio.round_sig(float(result.per_agent_residual.max()), 12),
            "flagged_agents": [
                i for i, flag in enumerate(result.identifiability_flags) if flag
            ],
        },
    )
    print(params_path)
    print(report_path)
    return 0


def cmd_compare(args):
    scenario = _load_scenario(args)
    strategies = [s for s in args.strategies.split(",") if s]
    rows = run_comparison(scenario, strategies, cap=args.cap)
    cells, payload = result_rows_to_csv(rows), result_rows_to_json(rows)
    _write_tables(args, f"{scenario.scenario_id}_compare", RESULT_HEADER, cells, payload)
    if any(row.status == "skipped" for row in rows):
        print("note: exact-mode rows skipped (enumeration over cap)", file=sys.stderr)
        return 3
    return 0


def cmd_ablate(args):
    scenario = _load_scenario(args)
    rows = run_ablation(scenario)
    cells, payload = result_rows_to_csv(rows), result_rows_to_json(rows)
    _write_tables(args, f"{scenario.scenario_id}_ablation", RESULT_HEADER, cells, payload)
    return 0


def cmd_count(args):
    if args.network:
        params = fileio.load_parameters(args.network)
        network = params.network
    else:
        scenario = _load_scenario(args)
        network, _ = generate(scenario)
    print(count_configurations(network, args.leader_size))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fjattack",
        description="Plan and evaluate stealthy influence attacks on opinion dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen-network", help="sample an instance from a scenario file")
    sp.add_argument("--scenario", required=True, help="scenario JSON file")
    sp.add_argument("--seed", type=int, help="override the scenario seed")
    sp.add_argument("--out-dir", default=".")
    sp.set_defaults(handler=cmd_gen_network)

    sp = sub.add_parser("simulate", help="roll out the dynamics, optionally attacked")
    sp.add_argument("--network", required=True, help="network + parameter JSON file")
    sp.add_argument("--rounds", type=int, required=True)
    sp.add_argument("--config", help="attack config JSON; pins adversaries at 1")
    sp.add_argument("--z0", help="comma-separated initial opinions for a single rollout")
    sp.add_argument(
        "--trajectories",
        type=int,
        default=1,
        help="number of rollouts; the first starts at the intrinsic opinions",
    )
    sp.add_argument("--seed", type=int, default=0, help="seed for the extra random starts")
    sp.add_argument("--out-dir", default=".")
    sp.set_defaults(handler=cmd_simulate)

    sp = sub.add_parser("attack-plan", help="search for the most damaging attack")
    sp.add_argument("--network", required=True, help="network + parameter JSON file")
    sp.add_argument("--p", type=float, default=DEFAULT_P)
    sp.add_argument("--leader-size", type=int, default=None)
    sp.add_argument("--mode", choices=("approx", "exact"), default="approx")
    sp.add_argument("--cap", type=int, default=DEFAULT_CONFIG_CAP)
    sp.add_argument("--id", help="instance id for the CSV line (default: file stem)")
    sp.add_argument("--out-dir", default=".")
    sp.set_defaults(handler=cmd_attack_plan)

    sp = sub.add_parser("recover", help="fit parameters to observed trajectories")
    sp.add_argument("--trajectories", required=True, help="trajectory JSON file")
    sp.add_argument("--network", required=True, help="JSON file with n and edges")
    sp.add_argument("--ridge", type=float, default=0.0)
    sp.add_argument("--out-dir", default=".")
    sp.set_defaults(handler=cmd_recover)

    sp = sub.add_parser("compare", help="score attack strategies on one instance")
    sp.add_argument("--scenario", required=True)
    sp.add_argument("--strategies", default=DEFAULT_COMPARE_STRATEGIES)
    sp.add_argument("--seed", type=int, help="override the scenario seed")
    sp.add_argument(
        "--cap", type=int, default=DEFAULT_CONFIG_CAP, help="exact-mode configuration cap"
    )
    sp.add_argument("--out-dir", default=".")
    sp.add_argument("--format", choices=("csv", "json"), default=None)
    sp.set_defaults(handler=cmd_compare)

    sp = sub.add_parser("ablate", help="score the planner with ingredients removed")
    sp.add_argument("--scenario", required=True)
    sp.add_argument("--seed", type=int, help="override the scenario seed")
    sp.add_argument("--out-dir", default=".")
    sp.add_argument("--format", choices=("csv", "json"), default=None)
    sp.set_defaults(handler=cmd_ablate)

    sp = sub.add_parser("count", help="exact size of the naive configuration space")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--network", help="network + parameter JSON file")
    group.add_argument("--scenario", help="scenario JSON file")
    sp.add_argument("--leader-size", type=int, default=None)
    sp.add_argument("--seed", type=int, help="override the scenario seed")
    sp.set_defaults(handler=cmd_count)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CapExceededError as exc:
        print(f"skipped: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
