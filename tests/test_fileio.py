"""Serialization round-trips and the significant-digit formatting rules."""

import gc
import json
import math
import re
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    dense_refusal,
    large_network,
    malformed_instances,
    random_feasible_config,
    random_instance,
    random_params,
    topology_edges,
)
from fjattack import (
    AttackConfig,
    FjParameters,
    InfluenceNetwork,
    OpinionTrajectory,
    RecoveryProblem,
    Scenario,
    ValidationError,
    generate,
    recover,
    run_comparison,
    simulate,
    solve_attack,
)
from fjattack.harness import result_rows_to_json
from fjattack.fileio import (
    config_to_json,
    csv_text,
    format_sig,
    load_config,
    load_network,
    load_parameters,
    load_trajectories,
    parameters_to_json,
    plan_to_json,
    round_sig,
    save_config,
    save_parameters,
    save_trajectories,
    trajectories_to_json,
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
    assert as_edges <= set(map(tuple, network.edges.tolist()))


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
    # Two edges cannot cover 10^9 agents: refused before any n-sized work.
    write_json(path, {**TWO_AGENTS, "n": 10**9})
    with pytest.raises(ValidationError, match=r"agent 2 has no in-neighbors$"):
        load_parameters(path)


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


def test_pinned_trajectories_round_trip_and_recover_alike(tmp_path):
    # Five 30-round runs with agents 2 and 5 held at 1.  The file keeps
    # each run's pinned agents, so recovering from it flags 2 and 5 with
    # theta = 1, as recovering in memory does; from a file that dropped
    # them, 5 came back unflagged with theta at its floor.
    _, params = generate(Scenario(topology="erdos_renyi", n=8, edge_prob=0.4, seed=3))
    rng = np.random.default_rng(3)
    runs = tuple(simulate(params, rng.uniform(0.0, 1.0, 8), 30, pinned=(2, 5)) for _ in range(5))
    path = tmp_path / "trajectories.json"
    save_trajectories(runs, path)
    assert path.read_text() == stdlib_text(trajectories_to_json(runs))
    assert trajectories_to_json(runs)["pinned"] == [[2, 5]] * 5
    loaded = load_trajectories(path)
    assert [run.pinned for run in loaded] == [(2, 5)] * 5
    in_memory = recover(RecoveryProblem(params.network, runs))
    from_file = recover(RecoveryProblem(params.network, tuple(loaded)))
    assert from_file.identifiability_flags == in_memory.identifiability_flags
    assert from_file.identifiability_flags[2] and from_file.identifiability_flags[5]
    assert np.array_equal(from_file.params.stubbornness, in_memory.params.stubbornness)
    assert from_file.params.stubbornness[5] == 1.0
    # A pin in one run of several is written for that run alone.
    mixed = (runs[0], simulate(params, rng.uniform(0.0, 1.0, 8), 30))
    save_trajectories(mixed, path)
    assert [run.pinned for run in load_trajectories(path)] == [(2, 5), ()]


@pytest.mark.parametrize(
    "pinned, message",
    [
        ([[0]], "pinned must hold one list of agents per trajectory"),
        ([0, 1], "pinned must hold one list of agents per trajectory"),
        ({"0": [1]}, "pinned must hold one list of agents per trajectory"),
        ([[0], [1.0]], "pinned agent must be an integer, got 1.0"),
        ([[0], [True]], "pinned agent must be an integer, got True"),
        ([[0], [2]], "trajectory 1 pins agent 2, out of range for 2 agents"),
        ([[-1], []], "trajectory 0 pins agent -1, out of range for 2 agents"),
    ],
    ids=["count", "flat", "mapping", "float", "bool", "past_n", "negative"],
)
def test_trajectory_files_refuse_malformed_pins(tmp_path, pinned, message):
    payload = {"n": 2, "trajectories": TRAJECTORIES["trajectories"] * 2, "pinned": pinned}
    path = written(tmp_path / "trajectories.json", payload)
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_trajectories(path)


def written(path, payload):
    write_json(path, payload)
    return path


MALFORMED_TRAJECTORY_FILES = (
    (
        lambda path: load_trajectories(written(path, {"trajectories": [[[0.5], [0.5]]]})),
        "missing required key 'n'",
    ),
    (
        lambda path: load_trajectories(written(path, {"n": 1})),
        "missing required key 'trajectories'",
    ),
    (
        lambda path: load_trajectories(written(path, {"n": 2, "trajectories": []})),
        "no trajectories",
    ),
    (
        lambda path: load_trajectories(written(path, {"n": 2, "trajectories": [[[0.5, 0.5]]]})),
        "trajectory 0 must be (rounds + 1) x 2 with rounds >= 1",
    ),
    (
        lambda path: load_trajectories(
            written(path, {"n": 2, "trajectories": [[[0.5, 0.5]] * 2, [[0.5, 0.5, 0.5]] * 2]})
        ),
        "trajectory 1 must be (rounds + 1) x 2 with rounds >= 1",
    ),
    (
        lambda path: load_trajectories(written(path, {"n": 2, "trajectories": [[0.5, 0.5]] * 2})),
        "trajectory 0 must be (rounds + 1) x 2 with rounds >= 1",
    ),
    (
        lambda path: save_trajectories(
            (
                OpinionTrajectory(rounds=1, values=np.full((2, 1), 0.5)),
                OpinionTrajectory(rounds=1, values=np.full((2, 2), 0.5)),
            ),
            path,
        ),
        "trajectories disagree on agent count: [1, 2]",
    ),
)


@pytest.mark.parametrize(
    "act, message",
    MALFORMED_TRAJECTORY_FILES,
    ids=("no_n", "no_trajectories_key", "empty", "one_row", "wide", "flat", "mixed_sizes"),
)
def test_trajectory_files_name_what_is_malformed(tmp_path, act, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        act(tmp_path / "trajectories.json")


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


NON_INTEGRAL = ({"n": 2.9}, {"edges": [[0, 1.6], [1, 0]]}, {"w": [[0, 1, 1.0], [1, 0.5, 1.0]]})


@pytest.mark.parametrize("override", NON_INTEGRAL, ids=["count", "edge_endpoint", "weight_index"])
def test_parameters_reject_non_integral_counts_and_indices(tmp_path, override):
    path = tmp_path / "params.json"
    write_json(path, {**TWO_AGENTS, **override})
    with pytest.raises(ValidationError, match="must be an integer"):
        load_parameters(path)


CONFIG = {"adversaries": [1, 2], "targets": {"1": [0]}, "p": 0.001}
TRAJECTORIES = {"n": 2, "trajectories": [[[0.5, 0.5], [0.5, 0.5]]]}

# Files keep the one integer rule, errors._as_int: 2.0, true and "2" are no
# count or index, and the first of them is named.  Values keep the one number
# rule, errors._as_float: true and "0.5" are no number.
NUMBER_RULE_REFUSALS = (
    (load_parameters, {**TWO_AGENTS, "n": 2.0}, "n must be an integer, got 2.0"),
    (load_parameters, {**TWO_AGENTS, "n": True}, "n must be an integer, got True"),
    (
        load_parameters,
        {**TWO_AGENTS, "edges": [[0, 1], [1, 0.0], [True, 1]]},
        "edge endpoint must be an integer, got 0.0",
    ),
    (
        load_parameters,
        {**TWO_AGENTS, "edges": [[0, 1], ["1", 0]]},
        "edge endpoint must be an integer, got '1'",
    ),
    (
        load_parameters,
        {**TWO_AGENTS, "w": [[0, 1, 1.0], [True, 0, 1.0]]},
        "weight index must be an integer, got True",
    ),
    (
        load_parameters,
        {**TWO_AGENTS, "w": [[0, 1, 1.0], [1, 0, "1.0"]]},
        "weight must be a number, got '1.0'",
    ),
    (
        load_parameters,
        {**TWO_AGENTS, "w": [[0, 1, True], [1, 0, 1.0]]},
        "weight must be a number, got True",
    ),
    (load_parameters, {**TWO_AGENTS, "theta": ["0.5", 0.5]}, "theta must be a number, got '0.5'"),
    (load_parameters, {**TWO_AGENTS, "theta": [0.5, True]}, "theta must be a number, got True"),
    (load_parameters, {**TWO_AGENTS, "s": [False, 0.5]}, "s must be a number, got False"),
    (load_parameters, {**TWO_AGENTS, "s": [0.5, None]}, "s must be a number, got None"),
    (load_trajectories, {**TRAJECTORIES, "n": 2.0}, "n must be an integer, got 2.0"),
    (
        load_trajectories,
        {"n": 2, "trajectories": [[[0.5, 0.5], [0.5, "0.5"]]]},
        "trajectory entry must be a number, got '0.5'",
    ),
    (
        load_trajectories,
        {"n": 2, "trajectories": [[[0.5, 0.5], [0.5, 0.5]], [[True, 0.5], [0.5, 0.5]]]},
        "trajectory entry must be a number, got True",
    ),
    (
        load_config,
        {**CONFIG, "adversaries": [True, 2.0]},
        "adversary must be an integer, got True",
    ),
    (load_config, {**CONFIG, "targets": {"1": [0.0]}}, "target must be an integer, got 0.0"),
    # A targets key is an int's own decimal text: int() alone would read
    # each of these as adversary 1 or 10, and "1" and "01" would collide.
    *(
        (load_config, {**CONFIG, "targets": {key: [0]}}, f"targets key must be an integer, got {key!r}")
        for key in (" 1", "1 ", "+1", "01", "-0", "\u0661", "1_0", "1.0", "one", "")
    ),
    (
        load_config,
        {**CONFIG, "targets": {"1": [0], "01": [0]}},
        "targets key must be an integer, got '01'",
    ),
    (load_config, {**CONFIG, "p": True}, "p must be a number, got True"),
    (load_config, {**CONFIG, "p": "0.001"}, "p must be a number, got '0.001'"),
)


def test_integral_floats_booleans_and_text_are_refused(tmp_path):
    path = tmp_path / "file.json"
    for load, payload, message in NUMBER_RULE_REFUSALS:
        write_json(path, payload)
        with pytest.raises(ValidationError, match=re.escape(f"({message})")):
            load(path)


def test_self_loops_are_refused_on_every_path(tmp_path):
    # No network has a self-loop, however its edges arrive: a list, an
    # int64 array (the constructor's fast path) or a file, through both
    # loaders.  The planners' premises rest on it (InfluenceNetwork).
    edges = [[0, 1], [1, 0], [1, 1], [0, 0]]
    message = re.escape("self-loop on agent 1 is not allowed")
    for given in (edges, np.array(edges, dtype=np.int64)):
        with pytest.raises(ValidationError, match=message):
            InfluenceNetwork(2, given)
    path = tmp_path / "params.json"
    write_json(path, {**TWO_AGENTS, "edges": edges, "w": [[0, 1, 0.5], [1, 0, 0.5], [1, 1, 0.5], [0, 0, 0.5]]})
    for load in (load_parameters, load_network):
        with pytest.raises(ValidationError, match=message):
            load(path)


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


MALFORMED_RECORDS = (
    {"edges": [[0, 1, 2], [1, 0, 2]]},
    {"edges": [[0, 1], [1]]},
    {"edges": [0, 1, 1, 0]},
    {"w": [[0, 1], [1, 0]]},
    {"w": [[0, 1, 1.0], [1, 0, "heavy"]]},
    {"theta": ["half", 0.5]},
)


@pytest.mark.parametrize(
    "override",
    MALFORMED_RECORDS,
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


def dense_load(path):
    """load_parameters as a dense build: W from a per-entry loop, the last
    of repeated entries winning, through the dense constructor."""
    payload = json.loads(open(path).read())
    n = payload["n"]
    w = np.zeros((n, n))
    for i, j, value in payload["w"]:
        w[i, j] = value
    network = InfluenceNetwork(n, np.array(payload["edges"], dtype=np.int64).reshape(-1, 2))
    return FjParameters(network, payload["s"], payload["theta"], w)


def test_parameters_load_as_the_dense_build_did(tmp_path, monkeypatch):
    # Files with repeated entries, -0.0 on and off the edges and zero weights
    # off them load to the dense build's bits, by the edge entry when every
    # kept entry lies on an edge and by the dense constructor otherwise.
    edge_entries = []
    real = FjParameters._from_edge_weights.__func__

    def spy(cls, *args):
        edge_entries.append(True)
        return real(cls, *args)

    monkeypatch.setattr(FjParameters, "_from_edge_weights", classmethod(spy))
    rng = np.random.default_rng(31)
    for trial in range(24):
        topology = ("complete", "erdos_renyi", "ring", "star")[trial % 4]
        n = int(rng.integers(4, 30))
        params = random_params(rng, InfluenceNetwork(n, topology_edges(topology, n, rng)))
        payload = parameters_to_json(params)
        triples = payload["w"]
        # Each row's first weight moves to its second edge, leaving -0.0.
        for first, second in zip(triples, triples[1:]):
            if first[0] == second[0] and rng.random() < 0.5:
                second[2] += first[2]
                first[2] = -0.0
        # Earlier entries for the same (i, j), with other weights, lose.
        chosen = rng.choice(len(triples), size=len(triples) // 3, replace=False)
        stale = [[triples[c][0], triples[c][1], float(rng.uniform(-1.0, 2.0))] for c in chosen]
        triples[:0] = stale
        off_edges = trial % 3 == 0
        if off_edges:
            rows, cols = np.nonzero(~params.network.support_mask())
            triples += [[int(rows[k]), int(cols[k]), (0.0, -0.0)[k % 2]] for k in range(0, len(rows), 4)]
        path = tmp_path / f"params_{trial}.json"
        write_json(path, payload)
        edge_entries.clear()
        loaded, want = load_parameters(path), dense_load(path)
        assert edge_entries == ([] if off_edges else [True])
        for field in ("intrinsic", "stubbornness", "influence", "_on_support"):
            assert getattr(loaded, field).tobytes() == getattr(want, field).tobytes()


def test_malformed_w_in_a_file_is_refused_as_the_dense_scan_refused_it(tmp_path):
    # Faults on the edges load by the edge entry, faults off them by the
    # dense constructor; both name what a dense scan of W named.
    path = tmp_path / "params.json"
    for name, params, theta, w, _ in malformed_instances(seed=3):
        payload = parameters_to_json(params)
        payload["theta"] = theta.tolist()
        payload["w"] = [[i, j, w[i, j]] for i, j in np.argwhere(w != 0.0).tolist()]
        write_json(path, payload)
        error, message = dense_refusal(params.network, theta, w)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            load_parameters(path)


def test_config_rejects_non_integral_agents(tmp_path):
    path = tmp_path / "config.json"
    write_json(path, {"adversaries": [1.5], "targets": {}, "p": 0.1})
    with pytest.raises(ValidationError, match="must be an integer"):
        load_config(path)


@contextmanager
def collector(enabled):
    """Run the block with the cyclic garbage collector on or off, then restore it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", (True, False), ids=("collector_on", "collector_off"))
def test_loads_and_writes_leave_the_collector_as_they_found_it(tmp_path, enabled):
    # The loaders pause the collector while a payload is alive; a caller that
    # turned it off must find it off, and one that left it on, on.
    rng = np.random.default_rng(3)
    network, params = random_instance(4, n=10, density=0.9)
    paths = {kind: tmp_path / f"{kind}.json" for kind in ("parameters", "config", "trajectories")}
    with collector(enabled):
        save_parameters(params, paths["parameters"])
        assert gc.isenabled() is enabled
        save_config(random_feasible_config(rng, network), paths["config"])
        save_trajectories((simulate(params, rng.uniform(0, 1, 10), 3),), paths["trajectories"])
        for load, kind in (
            (load_parameters, "parameters"),
            (load_network, "parameters"),
            (load_config, "config"),
            (load_trajectories, "trajectories"),
        ):
            load(paths[kind])
            assert gc.isenabled() is enabled


def refused_by(load, payload):
    return lambda path: load(written(path, payload))


# Each refusal above; load_network also takes the ones in n and the edges.
REFUSED_FILES = (
    *(refused_by(load, payload) for load, payload, _ in NUMBER_RULE_REFUSALS),
    *(refused_by(load_parameters, {**TWO_AGENTS, **bad}) for bad in NON_INTEGRAL + MALFORMED_RECORDS),
    *(refused_by(load_network, {**TWO_AGENTS, **bad}) for bad in NON_INTEGRAL[:2] + MALFORMED_RECORDS[:3]),
    *(act for act, _ in MALFORMED_TRAJECTORY_FILES),
)


@pytest.mark.parametrize("enabled", (True, False), ids=("collector_on", "collector_off"))
@pytest.mark.parametrize("act", REFUSED_FILES)
def test_refusals_leave_the_collector_as_they_found_it(tmp_path, act, enabled):
    with collector(enabled):
        with pytest.raises(ValidationError):
            act(tmp_path / "file.json")
        assert gc.isenabled() is enabled


def dense_parameters_to_json(params):
    """Reference writer: every nonzero of the dense W by ``argwhere``, sorted by (i, j)."""
    w = params.influence
    triples = []
    for i, j in np.argwhere(w != 0.0):
        triples.append([int(i), int(j), float(w[i, j])])
    triples.sort(key=lambda t: (t[0], t[1]))
    return {
        "n": params.n,
        "edges": [[src, dst] for src, dst in params.network.edges.tolist()],
        "theta": [float(x) for x in params.stubbornness],
        "s": [float(x) for x in params.intrinsic],
        "w": triples,
    }


def with_zero_weight(params, zero):
    """``params`` with agent 0's first in-neighbour weight moved to its second,
    leaving ``zero`` (0.0 or -0.0) on that edge."""
    first, second = params.network.in_neighbors(0)[:2]
    w = np.array(params.influence)
    w[0, second] += w[0, first]
    w[0, first] = zero
    return FjParameters(params.network, params.intrinsic, params.stubbornness, w)


def test_parameters_json_is_the_dense_writers_byte_for_byte():
    rng = np.random.default_rng(17)
    cases = []
    for trial in range(24):
        topology = ("complete", "erdos_renyi", "ring", "star")[trial % 4]
        n = int(rng.integers(4, 60))
        cases.append(random_params(rng, InfluenceNetwork(n, topology_edges(topology, n, rng))))
    cases += [with_zero_weight(cases[0], zero) for zero in (0.0, -0.0)]
    cases.append(random_params(rng, large_network(rng)))
    for params in cases:
        payload = parameters_to_json(params)
        want = json.dumps(dense_parameters_to_json(params), indent=2, sort_keys=True)
        assert json.dumps(payload, indent=2, sort_keys=True) == want
    for params in cases[-3:-1]:
        assert len(parameters_to_json(params)["w"]) == len(params.network.edges) - 1


def test_trajectories_json_holds_the_rollouts_python_floats(tmp_path):
    # Reference: the per-entry float() loop that ``values.tolist()`` replaced.
    network, params = random_instance(5, n=6)
    rng = np.random.default_rng(8)
    trajectories = tuple(simulate(params, rng.uniform(0, 1, 6), 7) for _ in range(2)) + (
        OpinionTrajectory(rounds=1, values=[[-0.0, 1 / 3, 1.0, 0.0, 1e-300, 0.1]] * 2),
    )
    reference = {
        "n": 6,
        "trajectories": [[[float(x) for x in row] for row in t.values] for t in trajectories],
    }
    payload = trajectories_to_json(trajectories)
    assert {type(x) for rows in payload["trajectories"] for row in rows for x in row} == {float}
    path = tmp_path / "trajectories.json"
    save_trajectories(trajectories, path)
    assert path.read_text() == stdlib_text(reference)


def stdlib_text(payload):
    """Reference: the stdlib's pure-Python indent=2 encoder, which the writer replaced."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def real_payloads():
    """Every kind of file the package writes, with a network of 1,000 agents among them."""
    rng = np.random.default_rng(23)
    network, params = random_instance(7, n=10, density=0.5)
    trajectories = tuple(simulate(params, rng.uniform(0, 1, 10), 8) for _ in range(3))
    recovered = recover(RecoveryProblem(network=network, trajectories=trajectories))
    scenarios = [
        Scenario(scenario_id="er", topology="erdos_renyi", n=9, seed=4),
        Scenario(scenario_id="ring", topology="ring", n=7, theta_dist=(0.3, 0.6), leader_size=1),
    ]
    rows = run_comparison(scenarios[0], ["ours_approx", "ours_exact", "variant_I", "random"])
    residual, flags = recovered.per_agent_residual, recovered.identifiability_flags
    return {
        "parameters": parameters_to_json(params),
        "parameters_n1000": parameters_to_json(random_params(rng, large_network(rng))),
        "trajectories": trajectories_to_json(trajectories),
        "plan": plan_to_json(solve_attack(params)),
        "config": config_to_json(random_feasible_config(rng, network, require_target=True)),
        "recovered": parameters_to_json(recovered.params),
        "recovery_report": {
            "per_agent_residual": [round_sig(x, 12) for x in residual],
            "identifiability_flags": list(flags),
            "max_residual": round_sig(float(residual.max()), 12),
            "flagged_agents": [i for i, flag in enumerate(flags) if flag],
        },
        "scenarios": [scenario.to_json() for scenario in scenarios],
        "compare_rows": result_rows_to_json(rows),
    }


def test_written_files_are_the_stdlib_encoders_byte_for_byte(tmp_path):
    path = tmp_path / "file.json"
    for name, payload in real_payloads().items():
        write_json(path, payload)
        assert path.read_text() == stdlib_text(payload), name


EDGE_PAYLOADS = {
    "scalar": 0.1,
    "text_scalar": "a]",
    "null": None,
    "non_finite": {"x": [math.nan, math.inf, -math.inf, -0.0], "rows": [[math.nan, -0.0], [math.inf, -math.inf]]},
    "bool_and_null_in_rows": [[1.5, True, None], [False, 2, -3], [None]],
    "big_ints": [[2**70, -(2**64)], [0, -1]],
    "text": ["]", "[", ",", '"', "],\n  [", 'x"y', "caf\u00e9 \u2603 \u65e5\u672c", ["[1, 2]", "a,b"]],
    "text_rows": [["]", "["], ["a,b", "]\n,["]],
    "text_in_number_rows": [[1, 2], [3, "]"]],
    "empty": {"list": [], "dict": {}, "rows": [[], []], "nested": [[[]], {}, [{}]]},
    "empty_row_among_rows": [[1], [], [2, 3]],
    "three_deep": [[[1, 2], [3]], [[4, 5, 6]], [[7], [8, 9]]],
    "ragged": [[[1, [2, 3]], [[4], [5, 6, [7]]]], [[[]]], [1, [2], [[3]]], [[1, 2], 3]],
    "tuples": (1, (2.5, 3), ((4,), ()), [(True, None)], [(1, 2), [3, 4]]),
    "numpy_float64": [np.float64(0.1), [np.float64(-0.0), np.float64(np.nan)], {"x": np.float64(1e300)}],
    "numpy_float64_rows": [[np.float64(0.5), 1.0], [np.float64(np.inf)]],
    "int_keys": {3: [1], 10: {"a": 2}, -1: None, 0: []},
    "scalar_keys": {1.5: [1], 2: "two", True: {}},
    "null_key": {None: [[1]]},
    "rows_in_dicts": {"a": {"b": [[1, 2], [3, 4]]}, "c": [{"d": [[5]]}]},
}


@pytest.mark.parametrize("payload", EDGE_PAYLOADS.values(), ids=EDGE_PAYLOADS.keys())
def test_written_edge_cases_are_the_stdlib_encoders_byte_for_byte(tmp_path, payload):
    path = tmp_path / "file.json"
    write_json(path, payload)
    assert path.read_text() == stdlib_text(payload)


SELF_LIST = []
SELF_LIST.append(SELF_LIST)
SELF_DICT = {}
SELF_DICT["self"] = [1, SELF_DICT]

UNWRITABLE = {
    "numpy_int64": ({"n": np.int64(3)}, TypeError),
    "numpy_int64_in_rows": ([[1, 2], [3, np.int64(4)]], TypeError),
    "tuple_key": ({(0, 1): 1.0}, TypeError),
    "self_referencing_list": (SELF_LIST, ValueError),
    "self_referencing_dict": (SELF_DICT, ValueError),
}


@pytest.mark.parametrize("payload, error", UNWRITABLE.values(), ids=UNWRITABLE.keys())
def test_unwritable_payloads_are_refused_as_the_stdlib_refuses_them(tmp_path, payload, error):
    # The text is rendered before the file is opened: no file is made, and
    # an existing one keeps its bytes.
    with pytest.raises(error) as want:
        stdlib_text(payload)
    path = tmp_path / "file.json"
    with pytest.raises(error, match=re.escape(str(want.value))):
        write_json(path, payload)
    assert not path.exists()
    path.write_text("kept\n")
    with pytest.raises(error):
        write_json(path, payload)
    assert path.read_text() == "kept\n"
