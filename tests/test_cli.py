"""End-to-end command-line checks, run in process through main(argv).

Each test works inside its own tmp_path, writes the files a user would,
and asserts on exit codes plus the artifacts left behind.
"""

import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from fjattack import Scenario, ValidationError, generate
from fjattack.adversary import DEFAULT_P
from fjattack.cli import build_parser, main
from fjattack.fileio import read_json, save_parameters, write_json


def write_scenario(tmp_path, **overrides):
    payload = {"id": "demo", "topology": "complete", "n": 8, "seed": 5}
    payload.update(overrides)
    path = tmp_path / "scenario.json"
    write_json(path, payload)
    return path


def write_network(tmp_path, scenario_kwargs=None):
    kwargs = {"scenario_id": "demo", "topology": "complete", "n": 8, "seed": 5}
    kwargs.update(scenario_kwargs or {})
    _, params = generate(Scenario(**kwargs))
    path = tmp_path / "demo_network.json"
    save_parameters(params, path)
    return path


def test_gen_network(tmp_path):
    scenario = write_scenario(tmp_path)
    assert main(["gen-network", "--scenario", str(scenario), "--out-dir", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "demo_network.json")
    assert payload["n"] == 8
    assert len(payload["theta"]) == 8


def test_gen_network_seed_override(tmp_path):
    scenario = write_scenario(tmp_path)
    main(["gen-network", "--scenario", str(scenario), "--out-dir", str(tmp_path)])
    base = (tmp_path / "demo_network.json").read_text()
    main([
        "gen-network", "--scenario", str(scenario),
        "--seed", "99", "--out-dir", str(tmp_path),
    ])
    assert (tmp_path / "demo_network.json").read_text() != base


def test_simulate_writes_trajectories(tmp_path):
    network = write_network(tmp_path)
    code = main([
        "simulate", "--network", str(network), "--rounds", "12",
        "--trajectories", "3", "--seed", "7", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    payload = read_json(tmp_path / "demo_network_trajectories.json")
    assert payload["n"] == 8
    assert len(payload["trajectories"]) == 3
    assert len(payload["trajectories"][0]) == 13


def test_simulate_with_attack_config(tmp_path):
    network = write_network(tmp_path)
    config_path = tmp_path / "attack.json"
    write_json(
        config_path,
        {"adversaries": [0, 1], "targets": {"0": [2]}, "p": 0.001},
    )
    code = main([
        "simulate", "--network", str(network), "--rounds", "10",
        "--config", str(config_path),
        "--z0", ",".join(["0.5"] * 8), "--out-dir", str(tmp_path),
    ])
    assert code == 0
    payload = read_json(tmp_path / "demo_network_trajectories.json")
    rows = np.array(payload["trajectories"][0])
    assert np.array_equal(rows[:, 0], np.ones(11))
    assert np.array_equal(rows[:, 1], np.ones(11))


def test_attack_plan_json_and_csv_line(tmp_path, capsys):
    network = write_network(tmp_path)
    code = main([
        "attack-plan", "--network", str(network), "--p", "0.001",
        "--id", "demo", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    cells = line.split(",")
    assert cells[0] == "demo"
    assert len(cells) == 8
    plan = read_json(tmp_path / "demo_attack_plan.json")
    assert {"adversaries", "targets", "p", "predicted_g", "upper_bound", "wall_time_s"} <= set(plan)
    assert float(cells[2]) == pytest.approx(plan["predicted_g"], rel=1e-4)
    assert float(cells[7]) == pytest.approx(plan["upper_bound"], rel=1e-4)
    # The certified gap of an approx plan is small but never negative.
    assert 0.0 <= plan["upper_bound"] - plan["predicted_g"] < 1e-3


def test_attack_plan_deterministic_modulo_wall_time(tmp_path):
    network = write_network(tmp_path)
    argv = [
        "attack-plan", "--network", str(network),
        "--id", "demo", "--out-dir", str(tmp_path),
    ]
    main(argv)
    first = read_json(tmp_path / "demo_attack_plan.json")
    main(argv)
    second = read_json(tmp_path / "demo_attack_plan.json")
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert first == second


def test_recover_round_trip(tmp_path):
    network = write_network(tmp_path)
    main([
        "simulate", "--network", str(network), "--rounds", "10",
        "--trajectories", "3", "--seed", "2", "--out-dir", str(tmp_path),
    ])
    code = main([
        "recover",
        "--trajectories", str(tmp_path / "demo_network_trajectories.json"),
        "--network", str(network), "--out-dir", str(tmp_path),
    ])
    assert code == 0
    fitted = read_json(tmp_path / "demo_network_trajectories_recovered.json")
    report = read_json(tmp_path / "demo_network_trajectories_recovery_report.json")
    assert fitted["n"] == 8
    assert len(report["per_agent_residual"]) == 8
    assert report["max_residual"] >= 0.0


def test_compare_csv_and_exit_codes(tmp_path):
    scenario = write_scenario(tmp_path)
    code = main([
        "compare", "--scenario", str(scenario),
        "--strategies", "ours_approx,variant_I,random",
        "--format", "csv", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    lines = (tmp_path / "demo_compare.csv").read_text().strip().splitlines()
    assert lines[0].startswith("scenario_id,strategy,")
    assert len(lines) == 4


def test_exact_attack_plan_over_the_cap_is_skipped(tmp_path, capsys):
    network = write_network(tmp_path)
    code = main([
        "attack-plan", "--network", str(network), "--mode", "exact", "--cap", "1",
        "--out-dir", str(tmp_path),
    ])
    assert code == 3
    assert capsys.readouterr().err.startswith("skipped: exact follower space has ")
    assert not list(tmp_path.glob("*_attack_plan.json"))


def test_attack_plan_magnitude_defaults_to_the_package_default():
    args = build_parser().parse_args(["attack-plan", "--network", "net.json"])
    assert args.p == DEFAULT_P


def test_compare_skipped_exact_returns_three(tmp_path):
    scenario = write_scenario(tmp_path, n=12)
    code = main([
        "compare", "--scenario", str(scenario),
        "--strategies", "ours_exact", "--cap", "10",
        "--format", "json", "--out-dir", str(tmp_path),
    ])
    assert code == 3
    rows = read_json(tmp_path / "demo_compare.json")
    assert rows[0]["status"] == "skipped"
    assert rows[0]["delta_g"] is None


def test_ablate_outputs(tmp_path):
    scenario = write_scenario(tmp_path)
    code = main([
        "ablate", "--scenario", str(scenario),
        "--format", "json", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    rows = read_json(tmp_path / "demo_ablation.json")
    assert [row["strategy"] for row in rows] == [
        "full", "wo_both", "wo_pinning", "wo_targeting",
    ]


def test_count_paths(tmp_path, capsys):
    network = write_network(tmp_path, {"n": 13})
    assert main(["count", "--network", str(network)]) == 0
    assert capsys.readouterr().out.strip() == "204211150000"
    scenario = write_scenario(tmp_path, n=13)
    assert main(["count", "--scenario", str(scenario)]) == 0
    assert capsys.readouterr().out.strip() == "204211150000"
    assert main(["count", "--network", str(network), "--leader-size", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_validation_failures_exit_two(tmp_path):
    assert main(["simulate", "--network", str(tmp_path / "nope.json"), "--rounds", "5"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["count", "--network", str(bad)]) == 2
    scenario = write_scenario(tmp_path, topology="moebius")
    assert main(["gen-network", "--scenario", str(scenario)]) == 2
    network = write_network(tmp_path)
    assert main([
        "attack-plan", "--network", str(network), "--leader-size", "7",
        "--out-dir", str(tmp_path),
    ]) == 2


def test_attack_plan_malformed_network_exits_two(tmp_path, capsys):
    network = tmp_path / "network.json"
    payload = read_json(write_network(tmp_path))
    payload["w"][0] = payload["w"][0][:2]
    write_json(network, payload)
    code = main(["attack-plan", "--network", str(network), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "malformed parameter file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload",
    [
        {"n": "eight", "trajectories": [[[0.5] * 8, [0.5] * 8]]},
        {"n": 8, "trajectories": [[[0.5] * 8, [0.5] * 7]]},
        {"n": 8.5, "trajectories": [[[0.5] * 8, [0.5] * 8]]},
    ],
    ids=["non_integer_n", "ragged_rows", "fractional_n"],
)
def test_recover_malformed_trajectories_exit_two(tmp_path, capsys, payload):
    network = write_network(tmp_path)
    trajectories = tmp_path / "trajectories.json"
    write_json(trajectories, payload)
    code = main([
        "recover", "--trajectories", str(trajectories),
        "--network", str(network), "--out-dir", str(tmp_path),
    ])
    assert code == 2
    assert "malformed trajectory file" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("override", "message"),
    [
        ({"n": 8.5}, "must be an integer"),
        ({"edges": [[0, 1.6]]}, "must be an integer"),
        ({"edges": [[0, 1, 2]]}, "edges must be lists of 2 numbers"),
    ],
    ids=["count", "edge_endpoint", "edge_width"],
)
def test_recover_non_integral_network_exits_two(tmp_path, capsys, override, message):
    network = write_network(tmp_path)
    main([
        "simulate", "--network", str(network), "--rounds", "5",
        "--trajectories", "2", "--out-dir", str(tmp_path),
    ])
    payload = read_json(network)
    payload.update(override)
    write_json(network, payload)
    code = main([
        "recover", "--trajectories", str(tmp_path / "demo_network_trajectories.json"),
        "--network", str(network), "--out-dir", str(tmp_path),
    ])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "demo_network_trajectories_recovered.json").exists()


def test_scenario_that_is_not_an_object_exits_two(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    write_json(scenario, [{"id": "demo", "topology": "complete", "n": 8}])
    assert main(["ablate", "--scenario", str(scenario), "--out-dir", str(tmp_path)]) == 2
    assert "scenario must be a JSON object" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_ablation.*"))


def test_simulate_rejects_non_numeric_z0(tmp_path, capsys):
    network = write_network(tmp_path)
    code = main([
        "simulate", "--network", str(network), "--rounds", "5",
        "--z0", "0.1,abc", "--out-dir", str(tmp_path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --z0") and "'abc'" in err
    assert not (tmp_path / "demo_network_trajectories.json").exists()


@pytest.mark.parametrize("count", ["0", "-2"])
def test_simulate_rejects_nonpositive_trajectory_count(tmp_path, capsys, count):
    network = write_network(tmp_path)
    code = main([
        "simulate", "--network", str(network), "--rounds", "5",
        "--trajectories", count, "--out-dir", str(tmp_path),
    ])
    assert code == 2
    assert "--trajectories must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "demo_network_trajectories.json").exists()


def test_simulate_rejects_z0_with_several_trajectories(tmp_path, capsys):
    network = write_network(tmp_path)
    code = main([
        "simulate", "--network", str(network), "--rounds", "5",
        "--z0", ",".join(["0.5"] * 8), "--trajectories", "3", "--out-dir", str(tmp_path),
    ])
    assert code == 2
    assert "--z0 starts one rollout, got --trajectories 3" in capsys.readouterr().err
    assert not (tmp_path / "demo_network_trajectories.json").exists()


def test_negative_cap_exits_two(tmp_path, capsys):
    network = write_network(tmp_path)
    scenario = write_scenario(tmp_path)
    for argv in (
        ["attack-plan", "--network", str(network), "--mode", "approx"],
        ["attack-plan", "--network", str(network), "--mode", "exact"],
        ["compare", "--scenario", str(scenario), "--strategies", "random,ours_exact"],
    ):
        assert main(argv + ["--cap", "-1", "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: cap must be an int >= 1, got -1")
    assert not list(tmp_path.glob("*_attack_plan.json")) + list(tmp_path.glob("*_compare.*"))


def test_benchmark_is_not_a_subcommand(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["benchmark", "--scenario", str(scenario), "--out-dir", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "invalid choice: 'benchmark'" in capsys.readouterr().err
    assert not list(tmp_path.glob("demo_benchmark.*"))


@pytest.mark.parametrize(
    "message, overrides",
    (
        ("theta_dist must be", {"theta_dist": 0.5}),
        ("theta_dist must be", {"theta_dist": [0.1]}),
        ("theta_dist must be", {"theta_dist": "01"}),
        ("s_dist must be", {"s_dist": ["low", "high"]}),
        ("p must be", {"p": "abc"}),
        ("edge_prob must be", {"topology": "erdos_renyi", "edge_prob": "x"}),
        ("leader_size must be", {"leader_size": True}),
        ("seed must be", {"seed": True}),
        (
            "custom topology needs a network_file path",
            {"topology": "custom", "network_file": ["a"]},
        ),
    ),
    ids=(
        "theta_scalar", "theta_short", "theta_text", "s_text", "p_text", "edge_prob_text",
        "leader_size_bool", "seed_bool", "network_file_list",
    ),
)
def test_malformed_scenario_field_exits_two(tmp_path, capsys, message, overrides):
    path = write_scenario(tmp_path, **overrides)
    with pytest.raises(ValidationError, match=f"^{message}"):
        Scenario.from_json(read_json(path))
    code = main([
        "compare", "--scenario", str(path), "--strategies", "random",
        "--out-dir", str(tmp_path),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not list(tmp_path.glob("*_compare.*"))


def test_leader_size_beyond_the_budget_exits_two(tmp_path, capsys):
    path = write_scenario(tmp_path, n=6, leader_size=9)
    code = main([
        "compare", "--scenario", str(path), "--strategies", "random",
        "--out-dir", str(tmp_path),
    ])
    assert code == 2
    assert "leader_size 9 outside the feasible range 1..1" in capsys.readouterr().err


def readme_synopsis():
    """{subcommand: (required options, optional options)} from the README's
    CLI synopsis: a line starting "fjattack <subcommand>" and the indented
    lines after it, an option optional when it sits in brackets."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    commands = {}
    for line in block.splitlines():
        if line.startswith("fjattack "):
            name = line.split()[1]
            commands[name] = line
        elif line.strip():
            commands[name] += " " + line
    synopsis = {}
    for name, text in commands.items():
        optional = set(re.findall(r"--[\w-]+", " ".join(re.findall(r"\[[^\]]*\]", text))))
        required = set(re.findall(r"--[\w-]+", re.sub(r"\[[^\]]*\]", "", text)))
        synopsis[name] = required, optional
    return synopsis


def test_readme_synopsis_matches_the_parser():
    # An option of a required group of alternatives (count's --network |
    # --scenario) counts as required.
    (subparsers,) = (
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    parsers = {}
    for name, parser in subparsers.choices.items():
        grouped = {
            action for group in parser._mutually_exclusive_groups if group.required
            for action in group._group_actions
        }
        options = [action for action in parser._actions if action.option_strings]
        parsers[name] = tuple(
            {
                max(action.option_strings, key=len) for action in options
                if not isinstance(action, argparse._HelpAction)
                and (action.required or action in grouped) == required
            }
            for required in (True, False)
        )
    assert readme_synopsis() == parsers
