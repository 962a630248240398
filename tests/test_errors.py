"""The value rules that two or more modules apply live in fjattack.errors.

Each is defined there once, and every entry that applies one refuses with
that rule's message: one row per entry and rule, matched on the full message.
"""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fjattack
from conftest import complete_network, random_params
from fjattack import (
    AttackConfig,
    OpinionTrajectory,
    RecoveryProblem,
    Scenario,
    ValidationError,
    adversarial_outcome,
    baseline_variant,
    brute_force_oracle,
    fj_step,
    recovery_robustness,
    run_comparison,
    simulate,
    simulate_adversarial,
    solve_attack,
    solve_follower,
)
from fjattack.fileio import load_config, write_json

SHARED_RULES = (
    "_as_int",
    "_as_float",
    "_numbers",
    "check_integral",
    "_check_count",
    "_check_cap",
    "_check_known",
    "_check_index",
    "_check_nonnegative",
    "_check_magnitude",
    "_check_finite",
    "_check_unit",
    "_check_vector",
    "_check_unit_vector",
)


def test_each_shared_rule_is_defined_once_in_errors():
    sources = {path.name: path.read_text() for path in Path(fjattack.__file__).parent.glob("*.py")}
    for rule in SHARED_RULES:
        assert [name for name, text in sources.items() if f"def {rule}(" in text] == ["errors.py"], rule


def params():
    return random_params(np.random.default_rng(0), complete_network(5))


def problem(**changes):
    network = complete_network(3)
    truth = random_params(np.random.default_rng(0), network)
    trajectory = simulate(truth, np.full(3, 0.5), 4)
    return replace(RecoveryProblem(network=network, trajectories=(trajectory,), truth=truth), **changes)


def config_file(tmp_path, p):
    path = tmp_path / "config.json"
    write_json(path, {"adversaries": [1], "targets": {}, "p": p})
    return load_config(path)


@pytest.mark.parametrize(
    "message, build",
    (
        ("ridge must be nonnegative, got -0.5", lambda tmp: problem(ridge=-0.5)),
        ("ridge must be nonnegative, got -1.0", lambda tmp: problem(ridge=-1)),
        ("ridge must be nonnegative, got inf", lambda tmp: problem(ridge=np.inf)),
        ("noise level must be nonnegative, got -0.5", lambda tmp: recovery_robustness(problem(), [0.0, -0.5])),
        ("adversary 7 out of range for 5 agents", lambda tmp: AttackConfig((7,), {}).validate_against(params().network)),
        ("adversary 5 out of range for 5 agents", lambda tmp: adversarial_outcome(params(), AttackConfig((5,), {}))),
        ("pinned agent 5 out of range for 5 agents", lambda tmp: simulate(params(), np.full(5, 0.5), 2, pinned=(5,))),
        ("pinned agent -1 out of range for 5 agents", lambda tmp: fj_step(params(), np.full(5, 0.5), pinned=(-1,))),
        (
            "pinned agent 3 out of range for 2 agents",
            lambda tmp: OpinionTrajectory(1, np.full((2, 2), 0.5), pinned=(3,)),
        ),
        ("influence magnitude must lie in (0, 1), got 5.0", lambda tmp: AttackConfig((1,), {}, 5.0)),
        ("influence magnitude must lie in (0, 1), got 1.5", lambda tmp: config_file(tmp, 1.5)),
        ("influence magnitude must lie in (0, 1), got 1.0", lambda tmp: solve_attack(params(), p=1.0)),
        ("influence magnitude must lie in (0, 1), got 0.0", lambda tmp: solve_follower(params(), (1,), p=0.0)),
        ("influence magnitude must lie in (0, 1), got nan", lambda tmp: brute_force_oracle(params(), p=np.nan)),
        ("influence magnitude must lie in (0, 1), got 2.0", lambda tmp: baseline_variant(params(), "I", p=2.0)),
        ("p must lie in (0, 1), got 2.0", lambda tmp: Scenario(p=2.0)),
        ("cap must be an int >= 1, got 0", lambda tmp: solve_follower(params(), (1,), cap=0)),
        ("cap must be an int >= 1, got -1", lambda tmp: run_comparison(Scenario(n=5), ["random"], cap=-1)),
        ("unknown topology 'moebius'", lambda tmp: Scenario(topology="moebius")),
        ("unknown strategy 'best'", lambda tmp: run_comparison(Scenario(n=5), ["random", "best"])),
        ("unknown follower mode 'greedy'", lambda tmp: solve_attack(params(), follower_mode="greedy")),
        ("unknown variant 'VII'", lambda tmp: baseline_variant(params(), "VII")),
        ("z0 must have shape (5,), got (4,)", lambda tmp: simulate(params(), np.full(4, 0.5), 2)),
        (
            "z0 must have shape (5,), got (4,)",
            lambda tmp: simulate_adversarial(params(), AttackConfig((1,), {}), np.full(4, 0.5), 2),
        ),
        (
            "external_scores must have shape (5,), got (2,)",
            lambda tmp: baseline_variant(params(), "II", external_scores=[1, 2]),
        ),
    ),
    ids=(
        "ridge_negative",
        "ridge_negative_int",
        "ridge_inf",
        "noise_negative",
        "validate_against_index",
        "outcome_index",
        "simulate_pin",
        "step_pin",
        "trajectory_pin",
        "config_magnitude",
        "config_file_magnitude",
        "solve_attack_magnitude",
        "solve_follower_magnitude",
        "oracle_magnitude",
        "variant_magnitude",
        "scenario_magnitude",
        "follower_cap",
        "comparison_cap",
        "topology",
        "strategy",
        "follower_mode",
        "variant",
        "simulate_shape",
        "attacked_shape",
        "external_scores_shape",
    ),
)
def test_shared_rules_refuse_with_one_message(tmp_path, message, build):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build(tmp_path)
