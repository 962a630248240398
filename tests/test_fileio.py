"""Serialization round-trips and the significant-digit formatting rules."""

import json
import math

import numpy as np
import pytest

from conftest import random_feasible_config, random_instance
from fjattack import (
    AttackConfig,
    InfluenceNetwork,
    ValidationError,
    adversarial_outcome,
    simulate,
)
from fjattack.fileio import (
    config_to_json,
    csv_text,
    format_sig,
    load_config,
    load_parameters,
    load_trajectories,
    outcome_to_json,
    parameters_to_json,
    round_sig,
    save_config,
    save_parameters,
    save_trajectories,
    write_json,
)


def test_round_and_format_sig():
    assert round_sig(3.14159265358979, 6) == 3.14159
    assert round_sig(123456.789, 3) == 123000.0
    assert format_sig(0.000123456, 6) == "0.000123456"
    assert format_sig(float("nan"), 6) == ""
    assert format_sig(None, 6) == ""
    assert format_sig(2.0, 6) == "2"


def test_parameters_round_trip_is_lossless(tmp_path):
    network, params = random_instance(1, n=9)
    # inject awkward binary floats that short decimal forms cannot express
    theta = np.array(params.stubbornness)
    theta[0] = 0.1 + 0.2
    theta[1] = 1.0 / 3.0
    params = type(params)(
        network=network,
        intrinsic=params.intrinsic,
        stubbornness=theta,
        influence=params.influence,
    )
    path = tmp_path / "params.json"
    save_parameters(params, path)
    loaded = load_parameters(path)
    assert loaded.network == network
    assert np.array_equal(loaded.stubbornness, params.stubbornness)
    assert np.array_equal(loaded.intrinsic, params.intrinsic)
    assert np.array_equal(loaded.influence, params.influence)


def test_parameters_json_shape():
    network, params = random_instance(2, n=5)
    payload = parameters_to_json(params)
    assert payload["n"] == 5
    assert sorted(payload) == ["edges", "n", "s", "theta", "w"]
    assert all(len(triple) == 3 for triple in payload["w"])
    # a (row, column, weight) triple corresponds to the edge column -> row
    as_edges = {(j, i) for i, j, _ in payload["w"]}
    assert as_edges <= set(network.edges)


def test_parameters_load_errors(tmp_path):
    path = tmp_path / "broken.json"
    write_json(path, {"n": 3, "edges": [[0, 1]]})
    with pytest.raises(ValidationError):
        load_parameters(path)
    path2 = tmp_path / "badrow.json"
    write_json(
        path2,
        {
            "n": 2,
            "edges": [[0, 1], [1, 0]],
            "theta": [0.5, 0.5],
            "s": [0.5, 0.5],
            "w": [[0, 1, 0.9], [1, 0, 1.0]],
        },
    )
    with pytest.raises(ValidationError):
        load_parameters(path2)


def test_config_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    network, params = random_instance(4, n=10, density=0.9)
    config = random_feasible_config(rng, network, require_target=True)
    assert config is not None
    path = tmp_path / "config.json"
    save_config(config, path)
    assert load_config(path) == config
    payload = config_to_json(config)
    assert sorted(payload) == ["adversaries", "p", "targets"]
    assert all(isinstance(key, str) for key in payload["targets"])


def test_trajectories_round_trip(tmp_path):
    network, params = random_instance(5, n=6)
    rng = np.random.default_rng(6)
    trajectories = tuple(
        simulate(params, rng.uniform(0, 1, 6), 5) for _ in range(3)
    )
    path = tmp_path / "trajectories.json"
    save_trajectories(trajectories, path)
    loaded = load_trajectories(path)
    assert len(loaded) == 3
    for got, want in zip(loaded, trajectories):
        assert got.rounds == want.rounds
        assert np.array_equal(got.values, want.values)


def test_outcome_json_fields():
    rng = np.random.default_rng(7)
    network, params = random_instance(8, n=8, density=0.8)
    config = random_feasible_config(rng, network)
    outcome = adversarial_outcome(params, config)
    payload = outcome_to_json(outcome, baseline_g=1.25)
    assert {"g", "delta_g", "fixed_point"} <= set(payload)
    assert payload["delta_g"] == pytest.approx(outcome.g_value - 1.25, rel=1e-11)
    assert len(payload["fixed_point"]) == len(outcome.unpinned)


def test_csv_text_formatting():
    cells = [[format_sig(v, 6) for v in row]
             for row in [[1.23456789, float("nan")], [2.0, 0.5]]]
    text = csv_text(["a", "b"], cells)
    lines = text.strip().split("\n")
    assert lines == ["a,b", "1.23457,", "2,0.5"]


TWO_AGENTS = {
    "n": 2,
    "edges": [[0, 1], [1, 0]],
    "theta": [0.5, 0.5],
    "s": [0.25, 0.75],
    "w": [[0, 1, 1.0], [1, 0, 1.0]],
}


@pytest.mark.parametrize(
    "override",
    [{"n": 2.9}, {"edges": [[0, 1.6], [1, 0]]}, {"w": [[0, 1, 1.0], [1, 0.5, 1.0]]}],
    ids=["count", "edge_endpoint", "weight_index"],
)
def test_parameters_reject_non_integral_counts_and_indices(tmp_path, override):
    path = tmp_path / "params.json"
    write_json(path, {**TWO_AGENTS, **override})
    with pytest.raises(ValidationError, match="must be an integer"):
        load_parameters(path)


def test_integral_floats_load_as_ints(tmp_path):
    path = tmp_path / "params.json"
    write_json(path, {**TWO_AGENTS, "n": 2.0, "edges": [[0.0, 1], [1, 0.0]]})
    params = load_parameters(path)
    assert params.n == 2 and params.network.edges == ((0, 1), (1, 0))


def test_parameters_name_the_first_out_of_range_weight_entry(tmp_path):
    path = tmp_path / "params.json"
    weights = [[0, 1, 1.0], [1, 0, 1.0], [2, 0, 0.0], [0, -1, 0.0]]
    write_json(path, {**TWO_AGENTS, "w": weights})
    with pytest.raises(ValidationError, match=r"weight entry \(2, 0\) out of range"):
        load_parameters(path)


def test_parameters_keep_the_last_duplicate_weight_entry(tmp_path):
    path = tmp_path / "params.json"
    weights = [[0, 1, 0.5], [1, 0, 1.0], [0, 1, 1.0], [1, 0, 0.25], [1, 0, 1.0]]
    write_json(path, {**TWO_AGENTS, "w": weights})
    assert np.array_equal(load_parameters(path).influence, [[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize(
    "override",
    [
        {"edges": [[0, 1, 2], [1, 0, 2]]},
        {"edges": [[0, 1], [1]]},
        {"edges": [0, 1, 1, 0]},
        {"w": [[0, 1], [1, 0]]},
        {"w": [[0, 1, 1.0], [1, 0, "heavy"]]},
        {"theta": ["half", 0.5]},
    ],
    ids=["edge_triples", "ragged_edges", "flat_edges", "weight_pairs", "weight_text", "theta_text"],
)
def test_parameters_reject_malformed_records(tmp_path, override):
    path = tmp_path / "params.json"
    write_json(path, {**TWO_AGENTS, **override})
    with pytest.raises(ValidationError, match="malformed parameter file"):
        load_parameters(path)


def test_parameters_load_as_the_per_entry_loop_did(tmp_path):
    # Reference: the per-edge and per-entry Python loops this loader replaced.
    rng = np.random.default_rng(5)
    for seed in range(20):
        _, params = random_instance(seed, n=int(rng.integers(2, 30)), density=0.4)
        payload = parameters_to_json(params)
        payload["w"] += [list(t) for t in payload["w"][:: 3]][::-1]
        path = tmp_path / f"params_{seed}.json"
        write_json(path, payload)
        loaded = load_parameters(path)
        edges = tuple((int(src), int(dst)) for src, dst in payload["edges"])
        assert loaded.network == InfluenceNetwork(payload["n"], edges)
        w = np.zeros((payload["n"],) * 2)
        for i, j, value in payload["w"]:
            w[int(i), int(j)] = float(value)
        assert np.array_equal(loaded.influence, w)
        assert np.array_equal(loaded.stubbornness, params.stubbornness)
        assert np.array_equal(loaded.intrinsic, params.intrinsic)


def test_config_rejects_non_integral_agents(tmp_path):
    path = tmp_path / "config.json"
    write_json(path, {"adversaries": [1.5], "targets": {}, "p": 0.1})
    with pytest.raises(ValidationError, match="must be an integer"):
        load_config(path)
