"""Core opinion-dynamics behavior against independent oracles.

The oracles here are deliberately naive: a scalar loop for one update and
plain fixed-point iteration for the equilibrium, so any indexing or
vectorization mistake in the library shows up as a disagreement.
"""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    complete_network,
    dense_refusal,
    large_network,
    malformed_instances,
    random_feasible_config,
    random_instance,
    random_network,
    random_params,
    topology_edges,
)
from fjattack import (
    AttackConfig,
    Scenario,
    ConvergenceError,
    FjParameters,
    InfluenceNetwork,
    OpinionTrajectory,
    RecoveryProblem,
    ValidationError,
    adversarial_outcome,
    apply_adversarial_weights,
    baseline_variant,
    closed_form_outcome,
    fj_step,
    generate,
    recovery_robustness,
    simulate,
    simulate_adversarial,
    solve_attack,
    solve_follower,
)
from fjattack import adversary, dynamics
from fjattack.dynamics import SPECTRAL_MARGIN
from fjattack.linalg import spectral_radius


def step_oracle(params, z, pinned=(), pinned_value=1.0):
    """One update computed entry by entry in pure Python."""
    n = params.network.agent_count
    theta, s, w = params.stubbornness, params.intrinsic, params.influence
    out = []
    for i in range(n):
        if i in pinned:
            out.append(pinned_value)
            continue
        acc = 0.0
        for j in range(n):
            acc += w[i, j] * z[j]
        out.append(theta[i] * s[i] + (1.0 - theta[i]) * acc)
    return np.array(out)


def fixed_point_oracle(params, tol=1e-12, max_rounds=100_000):
    """Iterate the update map until successive states agree to tol."""
    z = np.array(params.intrinsic)
    for _ in range(max_rounds):
        nxt = step_oracle(params, z)
        if np.max(np.abs(nxt - z)) <= tol:
            return nxt
        z = nxt
    raise AssertionError("oracle iteration did not settle")


def two_agent_params():
    network = InfluenceNetwork(2, ((0, 1), (1, 0)))
    return FjParameters(
        network=network,
        intrinsic=np.array([0.0, 1.0]),
        stubbornness=np.array([0.5, 0.5]),
        influence=np.array([[0.0, 1.0], [1.0, 0.0]]),
    )


def test_step_two_agent_hand_value():
    params = two_agent_params()
    out = fj_step(params, np.array([0.0, 1.0]))
    assert np.allclose(out, [0.5, 0.5], atol=1e-15)


def test_step_full_stubbornness_returns_intrinsic():
    network, params = random_instance(11, n=6)
    stubborn = FjParameters(
        network=network,
        intrinsic=params.intrinsic,
        stubbornness=np.ones(6),
        influence=params.influence,
    )
    z = np.random.default_rng(0).uniform(0, 1, 6)
    assert np.array_equal(fj_step(stubborn, z), stubborn.intrinsic)


def test_step_pinning_overrides_update():
    params = two_agent_params()
    out = fj_step(params, np.array([0.0, 1.0]), pinned=(1,), pinned_value=1.0)
    assert np.allclose(out, [0.5, 1.0], atol=1e-15)


def test_step_matches_scalar_oracle():
    for seed in range(12):
        network, params = random_instance(seed)
        rng = np.random.default_rng(seed + 1000)
        z = rng.uniform(0, 1, network.agent_count)
        pinned = tuple(rng.choice(network.agent_count, size=1))
        got = fj_step(params, z, pinned=pinned, pinned_value=1.0)
        want = step_oracle(params, z, pinned=pinned, pinned_value=1.0)
        assert np.max(np.abs(got - want)) <= 1e-14


def test_step_stays_in_unit_box():
    for seed in range(8):
        network, params = random_instance(seed, theta_range=(0.0, 1.0))
        z = np.random.default_rng(seed).uniform(0, 1, network.agent_count)
        out = fj_step(params, z)
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_simulate_two_agent_limit():
    trajectory = simulate(two_agent_params(), np.array([0.0, 1.0]), 200)
    assert np.max(np.abs(trajectory.values[-1] - [1 / 3, 2 / 3])) <= 1e-8


def test_simulate_full_stubbornness_rows():
    network, params = random_instance(5, n=5)
    stubborn = FjParameters(
        network=network,
        intrinsic=params.intrinsic,
        stubbornness=np.ones(5),
        influence=params.influence,
    )
    z0 = np.random.default_rng(2).uniform(0, 1, 5)
    trajectory = simulate(stubborn, z0, 4)
    assert np.array_equal(trajectory.values[0], z0)
    for row in trajectory.values[1:]:
        assert np.array_equal(row, stubborn.intrinsic)


def test_simulate_single_round_equals_one_step():
    network, params = random_instance(3)
    z0 = np.random.default_rng(3).uniform(0, 1, network.agent_count)
    trajectory = simulate(params, z0, 1)
    assert trajectory.values.shape == (2, network.agent_count)
    assert np.array_equal(trajectory.values[1], fj_step(params, z0))


def dense_rollout(params, z0, rounds, pinned=(), pinned_value=1.0):
    """The rollout as one dense matvec over all n^2 entries of W per round."""
    theta, s, w = params.stubbornness, params.intrinsic, params.influence
    values = [np.array(z0, dtype=float)]
    for _ in range(rounds):
        z = np.clip(theta * s + (1.0 - theta) * (w @ values[-1]), 0.0, 1.0)
        z[list(pinned)] = pinned_value
        values.append(z)
    return np.array(values)


def test_rollout_matches_dense_reference():
    rng = np.random.default_rng(909)
    cases = {"theta_0_and_1": 0, "pinned": 0}
    for trial in range(120):
        topology = ("complete", "erdos_renyi", "ring", "star")[trial % 4]
        n = int(rng.integers(4, 41))
        network = InfluenceNetwork(n, topology_edges(topology, n, rng))
        drawn = random_params(rng, network)
        theta = np.array(drawn.stubbornness)
        if trial % 2:
            # Never agent 0, so the star's hub keeps the dynamics contracting.
            theta[rng.choice(np.arange(1, n), size=2, replace=False)] = (0.0, 1.0)
        try:
            params = FjParameters(network, drawn.intrinsic, theta, drawn.influence)
        except ConvergenceError:
            continue
        pinned = tuple(rng.choice(n, size=int(rng.integers(0, 3)), replace=False).tolist())
        pinned_value = (0.0, 0.5, 1.0)[trial % 3]
        z0 = rng.uniform(0.0, 1.0, n)
        want = dense_rollout(params, z0, 25, pinned, pinned_value)
        got = simulate(params, z0, 25, pinned=pinned, pinned_value=pinned_value).values
        assert np.max(np.abs(got - want)) <= 1e-15
        step = fj_step(params, want[7], pinned=pinned, pinned_value=pinned_value)
        assert np.max(np.abs(step - want[8])) <= 1e-15
        cases["theta_0_and_1"] += trial % 2
        cases["pinned"] += bool(pinned)
    assert min(cases.values()) >= 20


def test_simulate_adversarial_matches_dense_reference():
    rng = np.random.default_rng(910)
    checked = stubbornless = 0
    for seed in range(40):
        network, params = random_instance(seed, n=int(rng.integers(4, 30)))
        if seed % 2:
            theta = np.array(params.stubbornness)
            theta[rng.choice(network.agent_count, size=2, replace=False)] = 0.0
            try:
                params = FjParameters(network, params.intrinsic, theta, params.influence)
            except ConvergenceError:
                continue
        config = random_feasible_config(rng, network, p=0.05, require_target=True)
        if config is None:
            continue
        adversaries = config.adversaries
        z0 = rng.uniform(0.0, 1.0, network.agent_count)
        start = z0.copy()
        start[list(adversaries)] = 1.0
        attacked = apply_adversarial_weights(params, config)
        want = dense_rollout(attacked, start, 30, adversaries, 1.0)
        got = simulate_adversarial(params, config, z0, 30).values
        assert np.max(np.abs(got - want)) <= 1e-15
        assert np.array_equal(got, simulate(attacked, start, 30, pinned=adversaries).values)
        checked += 1
        stubbornless += bool((params.stubbornness == 0.0).any())
    assert checked >= 20 and stubbornless >= 8


def test_simulate_adversarial_builds_no_parameters_and_no_dense_matrix(monkeypatch):
    rng = np.random.default_rng(912)
    n = 400
    network = random_network(rng, n, density=0.02)
    params = random_params(rng, network)
    config = random_feasible_config(rng, network, p=0.01, require_target=True)
    built = []
    original = FjParameters.__post_init__

    def spy(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(FjParameters, "__post_init__", spy)
    tracemalloc.start()
    try:
        simulate_adversarial(params, config, np.full(n, 0.5), 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built == []
    # Less than one dense float W: only the targeted rows are re-weighted.
    assert peak < n * n * 8


def test_simulate_adversarial_peak_when_most_agents_are_targeted():
    # Complete n = 300 with 99 adversaries targeting all 201 other agents:
    # |E| is close to n^2 and the re-weighted rows cover two thirds of W.
    # The rollout holds only the edge weights and one gathered edge array,
    # so the peak stays under three edge-length float arrays (2.15 MB).
    network = complete_network(300)
    params = random_params(np.random.default_rng(300), network)
    others = list(range(99, 300))
    targets = {j: tuple(others[(3 * j + t) % 201] for t in range(3)) for j in range(99)}
    config = AttackConfig(tuple(range(99)), targets, 1e-3)
    tracemalloc.start()
    try:
        simulate_adversarial(params, config, np.full(300, 0.5), 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(network.edges) * 8


def test_parameters_keep_w_on_the_edge_list_read_only():
    # Every rollout, bracket and file write reads this one gather, so none
    # may write to it.
    rng = np.random.default_rng(915)
    for network in (complete_network(6), large_network(rng, n=300, density=0.05)):
        params = random_params(rng, network)
        gather = params._on_support
        assert gather.tobytes() == params.influence[network._support].tobytes()
        assert not gather.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            gather[0] = 0.5


def test_sparse_rollout_matches_dense_reference():
    rng = np.random.default_rng(911)
    params = random_params(rng, large_network(rng))
    z0 = rng.uniform(0.0, 1.0, params.n)
    want = dense_rollout(params, z0, 50, (3, 500), 1.0)
    got = simulate(params, z0, 50, pinned=(3, 500)).values
    assert np.max(np.abs(got - want)) <= 1e-15


def every_rollout(params, config, z0, pinned):
    """simulate, fj_step and simulate_adversarial rows, pinned and unpinned."""
    return (
        simulate(params, z0, 12).values,
        simulate(params, z0, 12, pinned=pinned, pinned_value=0.25).values,
        fj_step(params, z0),
        fj_step(params, z0, pinned=pinned),
        simulate_adversarial(params, config, z0, 12).values,
    )


def test_rollout_kernels_agree_bitwise(monkeypatch):
    # SPARSE_MIN_EDGES = 0 makes every rollout a CSR product, one more than
    # the network's edges makes it a bincount over the edges; both sum each
    # row from 0 in source order.
    rng = np.random.default_rng(913)
    networks = [large_network(rng)]
    assert len(networks[0].edges) >= 20_000
    for trial in range(24):
        topology = ("complete", "erdos_renyi", "ring", "star")[trial % 4]
        n = int(rng.integers(4, 41))
        networks.append(InfluenceNetwork(n, topology_edges(topology, n, rng)))
    for network in networks:
        params = random_params(rng, network)
        n = network.agent_count
        config = random_feasible_config(rng, network, p=0.05) or AttackConfig((0,), {})
        z0 = rng.uniform(0.0, 1.0, n)
        pinned = tuple(rng.choice(n, size=2, replace=False).tolist())
        kernels = []
        for threshold in (0, len(network.edges) + 1):
            monkeypatch.setattr(dynamics, "SPARSE_MIN_EDGES", threshold)
            kernels.append(every_rollout(params, config, z0, pinned))
        sparse, counted = kernels
        assert all(a.tobytes() == b.tobytes() for a, b in zip(sparse, counted))


def test_importing_the_package_loads_no_scipy_sparse_module():
    # The sparse kernel imports scipy.sparse where it runs: at module level
    # it added about 2 MB of resident memory to every process.  An older
    # scipy loads it with scipy.linalg already, so only what the package's
    # own import adds counts.
    code = (
        "import sys, scipy.linalg\n"
        "loaded = lambda: {m for m in sys.modules if m.split('.')[:2] == ['scipy', 'sparse']}\n"
        "before = loaded()\n"
        "import fjattack\n"
        "print(sorted(loaded() - before))\n"
    )
    source = str(Path(dynamics.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"


def spy_csr(monkeypatch):
    """A list that records the network of every ``_csr`` build."""
    built = []
    original = InfluenceNetwork._csr
    monkeypatch.setattr(
        InfluenceNetwork, "_csr", lambda network, weights: built.append(network) or original(network, weights)
    )
    return built


def test_rollout_kernel_follows_the_edge_count(monkeypatch):
    rng = np.random.default_rng(914)
    small = random_params(rng, complete_network(8))
    large = random_params(rng, large_network(rng, n=300, density=0.05))
    assert len(small.network.edges) < dynamics.SPARSE_MIN_EDGES <= len(large.network.edges)
    built = spy_csr(monkeypatch)
    for params in (small, large):
        simulate(params, np.full(params.n, 0.5), 3)
        fj_step(params, np.full(params.n, 0.5))
    # At about 4,800 edges fj_step's one round does not pay for the CSR matrix.
    assert built == [large.network]


def test_one_round_takes_the_faster_kernel(monkeypatch):
    # One round builds the CSR matrix only where the product pays for it:
    # at about 20,000 edges, not at about 4,800, where two rounds already
    # do.  On both sides of that crossover one round reads the same bits
    # from either kernel.
    rng = np.random.default_rng(915)
    middle = random_params(rng, large_network(rng, n=300, density=0.05))
    large = random_params(rng, large_network(rng))
    assert 3_500 <= len(middle.network.edges) < 6_000 and len(large.network.edges) >= 20_000
    for params, csr in ((middle, False), (large, True)):
        config = random_feasible_config(rng, params.network, p=0.01, require_target=True)
        z0 = rng.uniform(0.0, 1.0, params.n)
        with pytest.MonkeyPatch.context() as patch:
            built = spy_csr(patch)
            step = fj_step(params, z0)
            pinned_step = fj_step(params, z0, pinned=(3, 200), pinned_value=0.25)
            one_round = simulate(params, z0, 1).values
            attacked = simulate_adversarial(params, config, z0, 1).values
            assert built == ([params.network] * 4 if csr else [])
            simulate(params, z0, 2)
            assert built[-1:] == [params.network]
        want = dense_rollout(params, z0, 1)
        assert np.max(np.abs(step - want[1])) <= 1e-15
        assert np.array_equal(one_round[1], step)
        assert np.max(np.abs(pinned_step - dense_rollout(params, z0, 1, (3, 200), 0.25)[1])) <= 1e-15
        assert np.array_equal(attacked, simulate_adversarial(params, config, z0, 2).values[:2])
        # Each kernel forced: 0 edges make every rollout pay for CSR, one
        # more than the network has makes none.
        for threshold in (0, len(params.network.edges) + 1):
            monkeypatch.setattr(dynamics, "SPARSE_MIN_EDGES", threshold)
            assert fj_step(params, z0).tobytes() == step.tobytes()
            pinned_again = fj_step(params, z0, pinned=(3, 200), pinned_value=0.25)
            assert pinned_again.tobytes() == pinned_step.tobytes()
            assert simulate(params, z0, 1).values.tobytes() == one_round.tobytes()
            assert simulate_adversarial(params, config, z0, 1).values.tobytes() == attacked.tobytes()
        monkeypatch.undo()


def clip_rollout(params, z0, rounds, pinned, pinned_value):
    """The rollout as a bincount over the edges with np.clip, row by row."""
    targets, sources = params.network._support
    theta = params.stubbornness
    weights = params.influence[targets, sources] * (1.0 - theta)[targets]
    values = [np.array(z0, dtype=float)]
    for _ in range(rounds):
        z = np.bincount(targets, weights=weights * values[-1][sources], minlength=params.n)
        z = np.clip(z + theta * params.intrinsic, 0.0, 1.0)
        z[list(pinned)] = pinned_value
        values.append(z)
    return np.array(values)


def test_rollout_clips_as_np_clip_did_signed_zeros_included():
    rng = np.random.default_rng(916)
    for network in (complete_network(8), large_network(rng, n=300, density=0.05)):
        params = random_params(rng, network)
        theta = np.array(params.stubbornness)
        theta[:3] = 0.0
        intrinsic = np.array(params.intrinsic)
        intrinsic[3:6] = -0.0
        params = FjParameters(network, intrinsic, theta, params.influence)
        z0 = rng.uniform(0.0, 1.0, params.n)
        z0[[0, 2, 4]] = -0.0
        for pinned, pinned_value in (((), 1.0), ((1, 5), -0.0), ((0, 7), 0.0)):
            want = clip_rollout(params, z0, 6, pinned, pinned_value)
            got = simulate(params, z0, 6, pinned=pinned, pinned_value=pinned_value).values
            assert got.tobytes() == want.tobytes()
            assert np.signbit(got).any()
            step = fj_step(params, z0, pinned=pinned, pinned_value=pinned_value)
            assert step.tobytes() == want[1].tobytes()


def large_instance(topology, n, zero_theta, seed):
    """The package's own scenario on n agents (about 20 in-neighbours each on
    Erdos-Renyi), with theta = 0 on 1% of the agents if ``zero_theta``."""
    params = generate(Scenario(topology=topology, n=n, edge_prob=20 / n, seed=seed))[1]
    if not zero_theta:
        return params
    theta = np.array(params.stubbornness)
    theta[np.random.default_rng(seed).choice(n, n // 100, replace=False)] = 0.0
    return FjParameters(params.network, params.intrinsic, theta, params.influence)


def heavy_attack(network, k=10, p=0.01):
    """The k agents of largest out-degree, each targeting its first eligible
    out-neighbours up to its budget."""
    degrees = [network.out_degree(a) for a in range(network.agent_count)]
    adversaries = sorted(np.argsort(degrees, kind="stable")[-k:].tolist())
    targets = {
        j: [i for i in network.out_neighbors(j) if i not in adversaries][: network.target_budget(j)]
        for j in adversaries
    }
    return AttackConfig(tuple(adversaries), targets, p)


def fixed_point_paths(monkeypatch):
    """A list that records each fixed point's path: "bracket" for a bracket
    that closed, "stopped" for one that stopped early, "dense" for each
    rcond-guarded dense solve."""
    paths = []
    bracket, solve = dynamics._bracket, dynamics.solve_conditioned

    def spy_bracket(*args):
        z = bracket(*args)
        paths.append("stopped" if z is None else "bracket")
        return z

    def spy_solve(*args):
        paths.append("dense")
        return solve(*args)

    for module in (dynamics, adversary):
        monkeypatch.setattr(module, "_bracket", spy_bracket)
        monkeypatch.setattr(module, "solve_conditioned", spy_solve)
    return paths


def dense_outcomes(monkeypatch, params, config):
    """closed_form_outcome and adversarial_outcome with the bracket gated off."""
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "SPARSE_MIN_EDGES", 10**9)
        return closed_form_outcome(params), adversarial_outcome(params, config)


@pytest.mark.parametrize("zero_theta", [False, True], ids=["theta", "theta0"])
@pytest.mark.parametrize(
    "topology, n",
    [("erdos_renyi", 500), ("erdos_renyi", 1000), ("erdos_renyi", 2000), ("ring", 1000), ("star", 1000)],
)
def test_bracket_matches_the_dense_solve(monkeypatch, topology, n, zero_theta):
    params = large_instance(topology, n, zero_theta, seed=n + len(topology))
    config = heavy_attack(params.network)
    assert len(params.network.edges) >= dynamics.SPARSE_MIN_EDGES
    # On the ring every out-degree is 2, so every target budget is 0.
    assert any(config.target_map().values()) or topology == "ring"
    want, want_attacked = dense_outcomes(monkeypatch, params, config)
    paths = fixed_point_paths(monkeypatch)
    got = closed_form_outcome(params)
    got_attacked = adversarial_outcome(params, config)
    assert paths == ["bracket", "bracket"]
    assert np.max(np.abs(got.fixed_point - want.fixed_point)) <= 1e-13
    assert abs(got.g - want.g) <= 1e-13 * n
    assert got_attacked.unpinned == want_attacked.unpinned
    assert np.max(np.abs(got_attacked.fixed_point - want_attacked.fixed_point)) <= 1e-13
    assert abs(got_attacked.g_value - want_attacked.g_value) <= 1e-13 * n


def test_bracket_with_many_adversaries_matches_the_dense_solve(monkeypatch):
    rng = np.random.default_rng(917)
    params = large_instance("erdos_renyi", 1000, True, seed=917)
    for _ in range(3):
        config = random_feasible_config(rng, params.network, p=0.01, require_target=True)
        want = dense_outcomes(monkeypatch, params, config)[1]
        paths = fixed_point_paths(monkeypatch)
        got = adversarial_outcome(params, config)
        monkeypatch.undo()
        assert paths == ["bracket"]
        assert np.max(np.abs(got.fixed_point - want.fixed_point)) <= 1e-13


def test_slow_contraction_falls_back_to_the_dense_solve_bitwise(monkeypatch):
    rng = np.random.default_rng(918)
    half = 500
    blocks = [large_network(rng, n=half, density=0.04) for _ in range(2)]
    network = InfluenceNetwork(2 * half, np.concatenate([blocks[0].edges, blocks[1].edges + half]))
    base = random_params(rng, network)
    config = heavy_attack(network)
    # With theta = 1e-4 everywhere the expected rate, 1 - 1e-4, cannot close
    # the bracket within the cap, so it never starts.  With theta = 0.9 on
    # the second of two unconnected blocks the mean rate, about 0.55, could,
    # so it starts; the first block's width shrinks at 1 - 1e-4, or little
    # faster with adversaries pinned, and stops it after round 4, the first
    # round it is projected from.
    slow = np.full(2 * half, 1e-4)
    mixed = slow.copy()
    mixed[half:] = 0.9
    for theta, expected in ((slow, ["dense", "dense"]), (mixed, ["stopped", "dense"] * 2)):
        params = FjParameters(network, base.intrinsic, theta, base.influence)
        assert len(network.edges) >= dynamics.SPARSE_MIN_EDGES
        want = dense_outcomes(monkeypatch, params, config)
        rounds = []
        advance = dynamics._advance
        monkeypatch.setattr(dynamics, "_advance", lambda *args: rounds.append(1) or advance(*args))
        paths = fixed_point_paths(monkeypatch)
        got = closed_form_outcome(params), adversarial_outcome(params, config)
        monkeypatch.undo()
        assert paths == expected
        # Two iterates for four rounds, in each of the two calls.
        assert len(rounds) == (0 if expected[0] == "dense" else 16)
        assert got[0].fixed_point.tobytes() == want[0].fixed_point.tobytes()
        assert got[0].g == want[0].g
        assert got[1].fixed_point.tobytes() == want[1].fixed_point.tobytes()
        assert got[1].g_value == want[1].g_value


def test_bracket_that_spends_its_cap_falls_back_to_the_dense_solve_bitwise(monkeypatch):
    # Two rounds cannot close the bracket, and its shrink rate is projected
    # only from round 4 on, so a cap of 2 is spent without closing.
    params = large_instance("erdos_renyi", 500, False, seed=922)
    assert len(params.network.edges) >= dynamics.SPARSE_MIN_EDGES
    assert dynamics._bracket(params, params._on_support, (), 2) is None
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "SPARSE_MIN_EDGES", 10**9)
        want = closed_form_outcome(params)
    monkeypatch.setattr(dynamics, "_bracket_cap", lambda params: 2)
    paths = fixed_point_paths(monkeypatch)
    got = closed_form_outcome(params)
    assert paths == ["stopped", "dense"]
    assert got.fixed_point.tobytes() == want.fixed_point.tobytes()
    assert got.g == want.g


def test_complete_network_of_100_stays_dense(monkeypatch):
    # 9,900 edges pass SPARSE_MIN_EDGES, but an LU of 100 x 100 costs a few
    # rounds, far fewer than a bracket is expected to need.
    rng = np.random.default_rng(919)
    params = random_params(rng, complete_network(100))
    config = random_feasible_config(rng, params.network, p=0.001, require_target=True)
    assert len(params.network.edges) == 9900
    assert dynamics._bracket_cap(params) == 0
    want = dense_outcomes(monkeypatch, params, config)
    paths = fixed_point_paths(monkeypatch)
    got = closed_form_outcome(params), adversarial_outcome(params, config)
    assert paths == ["dense", "dense"]
    assert got[0].fixed_point.tobytes() == want[0].fixed_point.tobytes()
    assert got[1].fixed_point.tobytes() == want[1].fixed_point.tobytes()


def test_bracket_gate_keeps_every_refusal(monkeypatch):
    params = large_instance("erdos_renyi", 1000, False, seed=920)
    network = params.network
    n = network.agent_count
    j = 0
    outside = next(i for i in range(1, n) if i not in network.out_neighbors(j))
    eligible = network.out_neighbors(j)
    cases = [
        (AttackConfig(tuple(range(n)), {}), False),
        (AttackConfig((n,), {}), True),
        (AttackConfig((j,), {j: (outside,)}), True),
        (AttackConfig((j,), {j: eligible[: network.target_budget(j) + 1]}), True),
        (AttackConfig(tuple(range(network.leader_budget() + 1)), {}), True),
    ]
    assert dynamics._bracket_cap(params) > 0
    for config, enforce_budgets in cases:
        refusals = []
        for gate in (dynamics.SPARSE_MIN_EDGES, 10**9):
            monkeypatch.setattr(dynamics, "SPARSE_MIN_EDGES", gate)
            with pytest.raises(ValidationError) as refused:
                adversarial_outcome(params, config, enforce_budgets)
            refusals.append(str(refused.value))
        assert refusals[0] == refusals[1]


def test_attacked_edge_weights_are_the_dense_rows_bytes():
    rng = np.random.default_rng(921)
    networks = [large_network(rng), complete_network(300)]
    for trial in range(20):
        topology = ("complete", "erdos_renyi", "ring", "star")[trial % 4]
        n = int(rng.integers(4, 41))
        networks.append(InfluenceNetwork(n, topology_edges(topology, n, rng)))
    for network in networks:
        params = random_params(rng, network)
        for p in (1e-3, 0.01):
            config = random_feasible_config(rng, network, p=p) or AttackConfig((0,), {})
            dense = apply_adversarial_weights(params, config, enforce_budgets=False)
            got = adversary._attacked_influence(params, config)
            assert got.tobytes() == dense.influence[network._support].tobytes()


def test_simulate_rejects_zero_rounds():
    params = two_agent_params()
    with pytest.raises(ValidationError):
        simulate(params, np.array([0.0, 1.0]), 0)


def test_simulate_differences_contract():
    for seed in range(6):
        network, params = random_instance(seed, theta_range=(0.1, 0.9))
        z0 = np.random.default_rng(seed).uniform(0, 1, network.agent_count)
        values = simulate(params, z0, 60).values
        gaps = np.max(np.abs(np.diff(values, axis=0)), axis=1)
        assert np.all(gaps[1:] <= gaps[:-1] + 1e-15)


def test_closed_form_two_agent():
    outcome = closed_form_outcome(two_agent_params())
    assert np.max(np.abs(outcome.fixed_point - [1 / 3, 2 / 3])) <= 1e-12
    assert abs(outcome.g - 1.0) <= 1e-12


def test_closed_form_full_stubbornness():
    network, params = random_instance(9, n=7)
    stubborn = FjParameters(
        network=network,
        intrinsic=params.intrinsic,
        stubbornness=np.ones(7),
        influence=params.influence,
    )
    outcome = closed_form_outcome(stubborn)
    assert np.allclose(outcome.fixed_point, stubborn.intrinsic, atol=1e-12)
    assert abs(outcome.g - stubborn.intrinsic.sum()) <= 1e-12


def test_closed_form_matches_iteration_oracle():
    for seed in range(6):
        network, params = random_instance(seed, theta_range=(0.15, 0.9))
        outcome = closed_form_outcome(params)
        oracle = fixed_point_oracle(params)
        assert np.max(np.abs(outcome.fixed_point - oracle)) <= 1e-10
        assert 0.0 <= outcome.g <= network.agent_count


def test_closed_form_matches_long_simulation():
    for seed in range(10):
        network, params = random_instance(seed)
        outcome = closed_form_outcome(params)
        trajectory = simulate(params, np.array(params.intrinsic), 500)
        assert abs(outcome.g - trajectory.values[-1].sum()) <= 1e-8


def test_permutation_equivariance():
    rng = np.random.default_rng(17)
    network, params = random_instance(17, n=8)
    n = network.agent_count
    perm = rng.permutation(n)
    permuted_edges = tuple((int(perm[a]), int(perm[b])) for a, b in network.edges)
    inverse = np.argsort(perm)
    permuted = FjParameters(
        network=InfluenceNetwork(n, permuted_edges),
        intrinsic=params.intrinsic[inverse],
        stubbornness=params.stubbornness[inverse],
        influence=params.influence[np.ix_(inverse, inverse)],
    )
    base = closed_form_outcome(params)
    moved = closed_form_outcome(permuted)
    assert abs(base.g - moved.g) <= 1e-10
    assert np.max(np.abs(moved.fixed_point[perm[np.arange(n)]] - base.fixed_point)) <= 1e-10


def test_network_validation():
    with pytest.raises(ValidationError):
        InfluenceNetwork(0, ())
    with pytest.raises(ValidationError):
        InfluenceNetwork(3, ((0, 0),))
    with pytest.raises(ValidationError):
        InfluenceNetwork(3, ((0, 3),))
    with pytest.raises(ValidationError):
        InfluenceNetwork(3, ((0, 1), (1, 0)))  # agent 2 has no in-neighbor


def reference_network(n, edges):
    """The per-edge validation loop InfluenceNetwork once ran, kept as the
    reference for the vectorized one.  Returns the ValidationError message,
    or the canonical edges, in- and out-neighbor tuples and support mask."""
    canon, seen = [], set()
    for src, dst in edges:
        src, dst = int(src), int(dst)
        if not (0 <= src < n and 0 <= dst < n):
            return f"edge ({src}, {dst}) out of range for {n} agents"
        if src == dst:
            return f"self-loop on agent {src} is not allowed"
        if (src, dst) not in seen:
            seen.add((src, dst))
            canon.append((src, dst))
    canon.sort()
    incoming = [[] for _ in range(n)]
    outgoing = [[] for _ in range(n)]
    mask = np.zeros((n, n), dtype=bool)
    for src, dst in canon:
        incoming[dst].append(src)
        outgoing[src].append(dst)
        mask[dst, src] = True
    for i in range(n):
        if not incoming[i]:
            return f"agent {i} has no in-neighbors"
    return tuple(canon), [tuple(v) for v in incoming], [tuple(v) for v in outgoing], mask


def test_network_validation_matches_the_per_edge_loop():
    rng = np.random.default_rng(2024)
    outcomes = {"ok": 0, "error": 0}
    for trial in range(400):
        n = int(rng.integers(1, 13))
        # A ring keeps most lists valid; random extra edges, redrawn until
        # they leave the diagonal (but for n = 1), bring duplicates, and a
        # few planted ones fall out of range or loop.
        edges = [(i, (i + 1) % n) for i in range(n) if trial % 5 or i]
        for _ in range(rng.integers(0, 3 * n)):
            src, dst = rng.integers(0, n, 2).tolist()
            while src == dst and n > 1:
                src, dst = rng.integers(0, n, 2).tolist()
            edges.append((src, dst))
        edges += [edges[k] for k in rng.integers(0, len(edges), 3)] if edges else []
        for _ in range(rng.choice(3, p=[0.6, 0.25, 0.15])):
            bad = [(int(rng.integers(-2, 0)), 0), (0, n + int(rng.integers(0, 2)))]
            bad.append((int(rng.integers(0, n)),) * 2)
            edges.insert(int(rng.integers(0, len(edges) + 1)), bad[rng.integers(0, 3)])
        rng.shuffle(edges)
        expected = reference_network(n, edges)
        if isinstance(expected, str):
            outcomes["error"] += 1
            with pytest.raises(ValidationError) as raised:
                InfluenceNetwork(n, tuple(edges))
            assert str(raised.value) == expected
            continue
        outcomes["ok"] += 1
        network = InfluenceNetwork(n, tuple(edges))
        canon, incoming, outgoing, mask = expected
        assert network.edges.dtype == np.int64 and network.edges.shape == (len(canon), 2)
        assert not network.edges.flags.writeable
        assert list(map(tuple, network.edges.tolist())) == list(canon)
        assert [network.in_neighbors(i) for i in range(n)] == incoming
        assert [network.out_neighbors(i) for i in range(n)] == outgoing
        budgets = [max(0, (len(out) - 1) // 3) for out in outgoing]
        for i in range(n):
            neighbors = network.in_neighbors(i) + network.out_neighbors(i)
            assert all(type(x) is int for x in neighbors)
            assert type(network.out_degree(i)) is int is type(network.target_budget(i))
            assert network.out_degree(i) == len(network.out_neighbors(i))
            assert network.target_budget(i) == budgets[i]
        assert network.out_degrees().tolist() == list(map(len, outgoing))
        assert network.target_budgets().tolist() == budgets
        for agent in (-1, n):
            with pytest.raises(IndexError, match=f"agent {agent} out of range for {n} agents"):
                network.in_neighbors(agent)
            with pytest.raises(IndexError, match=f"agent {agent} out of range"):
                network.out_degree(agent)
        assert np.array_equal(network.support_mask(), mask)
    assert min(outcomes.values()) > 100


def test_network_holds_its_support_as_arrays_only():
    # The edges in (source, target) order, the same pairs in row order and
    # their two pointers: about two edge arrays, and no per-edge Python
    # object.  Tuples for the edges and each agent's neighbours took 3.4 MB.
    pairs = np.array(large_network(np.random.default_rng(1001)).edges)
    tracemalloc.start()
    try:
        network = InfluenceNetwork(1000, pairs)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(network.edges) == len(pairs) >= 19_000
    assert held < 3 * pairs.nbytes


def test_networks_are_equal_by_value_and_unhashable():
    pairs = [(0, 1), (1, 2), (2, 0), (1, 0)]
    network = InfluenceNetwork(3, pairs)
    again = InfluenceNetwork(3, pairs[::-1] + pairs[:2])
    assert network == again and not network != again
    assert network != InfluenceNetwork(3, pairs[:3])
    assert network != InfluenceNetwork(4, pairs + [(0, 3), (3, 0)])
    assert network != pairs
    # Nothing keys a dict or set by a network, so none has a hash.
    for value in (network, again):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


def test_network_validation_names_the_first_offending_edge():
    with pytest.raises(ValidationError, match=r"self-loop on agent 2"):
        InfluenceNetwork(3, ((0, 1), (2, 2), (0, 5), (1, 1)))
    with pytest.raises(ValidationError, match=r"edge \(0, 5\) out of range for 3 agents"):
        InfluenceNetwork(3, ((0, 1), (0, 5), (2, 2), (-1, 0)))
    with pytest.raises(ValidationError, match=r"edge \(4, 4\) out of range"):
        InfluenceNetwork(3, ((4, 4), (1, 1)))
    with pytest.raises(ValidationError, match="pairs"):
        InfluenceNetwork(3, ((0, 1, 2),))


@pytest.mark.parametrize(
    "edges, message",
    (
        ([(0.7, 1), (True, 0)], r"^edge endpoint must be an int, got 0\.7$"),
        ([("0", "1"), ("1", "0")], r"^edge endpoint must be an int, got '0'$"),
        ([], r"^agent 0 has no in-neighbors$"),
        ([(True, 0), (1, 0), (0, 1)], r"^edge endpoint must be an int, got True$"),
        ([(2**70, 0), (1, 0)], r"^edge endpoint 1180591620717411303424 out of range for 2 agents$"),
        (np.array([[2**63, 0], [1, 0]], dtype=np.uint64), r"^edge endpoint 9223372036854775808 out of range"),
    ),
    ids=("float_and_bool", "text", "empty", "bool_among_ints", "past_int64", "uint64_past_int64"),
)
def test_network_refuses_endpoints_that_are_not_ints(edges, message):
    # A float, bool or text endpoint was once cut to an int: the first two
    # lists built the edges [[0, 1], [1, 0]], and so did a bool among ints,
    # which an int array cast promoted before its dtype was read.  An int
    # past int64 raised a bare OverflowError, or wrapped to a negative.
    with pytest.raises(ValidationError, match=message):
        InfluenceNetwork(2, edges)


@pytest.mark.parametrize(
    "edges",
    (np.array([[0, 1], [1, 0]], dtype=np.int32), ((0, 1), (1, 0))),
    ids=("int32_array", "tuple_of_ints"),
)
def test_network_takes_any_int_endpoints(edges):
    network = InfluenceNetwork(2, edges)
    assert network.edges.dtype == np.int64
    assert network.edges.tolist() == [[0, 1], [1, 0]]


def test_network_refuses_an_uncovered_agent_before_any_n_sized_work():
    # Two edges cannot give 10^9 agents an in-neighbour each: the refusal
    # names the first agent without one and allocates nothing of size n.
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=r"^agent 2 has no in-neighbors$"):
            InfluenceNetwork(10**9, ((0, 1), (1, 0)))
        with pytest.raises(ValidationError, match=r"^agent 0 has no in-neighbors$"):
            InfluenceNetwork(10**9, ((0, 5), (3, 7)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_network_budgets_and_degrees():
    network = complete_network(7)
    assert network.leader_budget() == 2
    assert network.out_degree(0) == 6
    assert network.target_budget(0) == 1
    star = InfluenceNetwork(4, ((0, 1), (0, 2), (0, 3), (1, 0)))
    assert star.out_degree(0) == 3
    assert star.target_budget(0) == 0
    assert star.target_budget(1) == 0
    # Agents 2 and 3 have no out-neighbour, and a budget of 0, not -1.
    assert star.out_degrees().tolist() == [3, 1, 0, 0]
    assert star.target_budget(2) == 0
    assert star.target_budgets().tolist() == [0, 0, 0, 0]
    assert sorted(star.out_neighbors(0)) == [1, 2, 3]
    assert sorted(star.in_neighbors(0)) == [1]


def test_parameters_validation():
    network = InfluenceNetwork(2, ((0, 1), (1, 0)))
    good = dict(
        network=network,
        intrinsic=np.array([0.2, 0.8]),
        stubbornness=np.array([0.5, 0.5]),
        influence=np.array([[0.0, 1.0], [1.0, 0.0]]),
    )
    FjParameters(**good)
    bad_row = dict(good, influence=np.array([[0.0, 0.9], [1.0, 0.0]]))
    with pytest.raises(ValidationError):
        FjParameters(**bad_row)
    off_support = dict(good, influence=np.array([[0.5, 0.5], [1.0, 0.0]]))
    with pytest.raises(ValidationError):
        FjParameters(**off_support)
    # Row 0 moves its weight off its one edge (1 -> 0) onto 2 -> 0: as many
    # nonzeros as W has edges, but not on them.
    path = InfluenceNetwork(3, ((1, 0), (0, 1), (2, 1), (0, 2)))
    with pytest.raises(ValidationError, match="outside the edge set"):
        FjParameters(path, np.full(3, 0.5), np.full(3, 0.5), [[0.0, 0.0, 1.0], [0.5, 0.0, 0.5], [1.0, 0.0, 0.0]])
    bad_theta = dict(good, stubbornness=np.array([0.5, 1.5]))
    with pytest.raises(ValidationError):
        FjParameters(**bad_theta)
    bad_s = dict(good, intrinsic=np.array([-0.1, 0.8]))
    with pytest.raises(ValidationError):
        FjParameters(**bad_s)


@pytest.mark.parametrize(
    "influence, message",
    (
        (np.eye(3), "influence must have shape (2, 2), got (3, 3)"),
        (np.full(4, 0.5), "influence must have shape (2, 2), got (4,)"),
        ([[0.0, 1.0], [-1.0, 2.0]], "influence weights must be nonnegative"),
        ([[0.0, 1.0], [np.nan, 0.0]], "influence weights must be finite, got nan"),
        ([[0.0, 1.0], [np.inf, 0.0]], "influence weights must be finite, got inf"),
    ),
    ids=("square", "flat", "negative", "nan", "inf"),
)
def test_parameters_name_a_malformed_influence(influence, message):
    network = InfluenceNetwork(2, ((0, 1), (1, 0)))
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        FjParameters(network, np.array([0.2, 0.8]), np.array([0.5, 0.5]), influence)


def test_malformed_w_is_refused_as_the_dense_scan_refused_it():
    # The rule reads W on its edges; the constructor's one dense pass is the
    # off-edge count.  Every refusal, through the dense constructor and, for
    # faults on the edges, through the edge entry, names what a scan of all
    # n^2 entries in the checks' order named.
    edge_entries = 0
    for name, params, theta, w, on_edges in malformed_instances():
        error, message = dense_refusal(params.network, theta, w)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            FjParameters(params.network, params.intrinsic, theta, w)
        if on_edges:
            edge_entries += 1
            on_support = w[params.network._support]
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                FjParameters._from_edge_weights(params.network, params.intrinsic, theta, on_support)
    assert edge_entries == 4 * 6


def test_edge_entry_builds_the_dense_constructors_parameters():
    # W on the edges, -0.0 included, gives the dense constructor's bits.
    rng = np.random.default_rng(77)
    for trial in range(12):
        topology = ("complete", "erdos_renyi", "ring", "star")[trial % 4]
        n = int(rng.integers(4, 30))
        params = random_params(rng, InfluenceNetwork(n, topology_edges(topology, n, rng)))
        on_support = np.array(params._on_support)
        if trial % 2:
            # Each row's first edge hands its weight to the next and keeps -0.0.
            pointer = params.network._row_pointer
            for start, stop in zip(pointer[:-1].tolist(), pointer[1:].tolist()):
                if stop - start > 1:
                    on_support[start + 1] += on_support[start]
                    on_support[start] = -0.0
        w = np.zeros((n, n))
        w[params.network._support] = on_support
        dense = FjParameters(params.network, params.intrinsic, params.stubbornness, w)
        edge = FjParameters._from_edge_weights(params.network, params.intrinsic, params.stubbornness, on_support)
        for field in ("intrinsic", "stubbornness", "influence", "_on_support"):
            assert getattr(edge, field).tobytes() == getattr(dense, field).tobytes()
            assert not getattr(edge, field).flags.writeable


def test_parameters_zero_stubbornness_spectral_gate():
    # theta = 0 on a bidirectional pair gives spectral radius exactly 1.
    network = InfluenceNetwork(2, ((0, 1), (1, 0)))
    with pytest.raises((ValidationError, ConvergenceError)):
        FjParameters(
            network=network,
            intrinsic=np.array([0.2, 0.8]),
            stubbornness=np.zeros(2),
            influence=np.array([[0.0, 1.0], [1.0, 0.0]]),
        )


def periodic_ring(last_theta):
    """Bipartite 4-ring, each agent weighting its neighbours 0.9 / 0.1, with
    only the last agent stubborn; returns FjParameters keyword arguments."""
    n = 4
    edges = tuple(((i + 1) % n, i) for i in range(n)) + tuple(((i - 1) % n, i) for i in range(n))
    w = np.zeros((n, n))
    for i in range(n):
        w[i, (i + 1) % n] = 0.9
        w[i, (i - 1) % n] = 0.1
    return dict(
        network=InfluenceNetwork(n, edges),
        intrinsic=np.full(n, 0.5),
        stubbornness=np.array([0.0, 0.0, 0.0, last_theta]),
        influence=w,
    )


def test_spectral_radius_bounds_periodic_ring():
    for last_theta in (3e-9, 1e-6, 1e-2, 0.1, 0.5):
        ring = periodic_ring(last_theta)
        matrix = (1.0 - ring["stubbornness"])[:, None] * ring["influence"]
        radius = np.max(np.abs(np.linalg.eigvals(matrix)))
        bound = spectral_radius(matrix)
        assert radius <= bound <= radius + 1e-12
    # theta = 3e-9 puts the radius, 1 - 7.5e-10, inside the 1e-9 margin.
    with pytest.raises(ConvergenceError, match="do not contract"):
        FjParameters(**periodic_ring(3e-9))
    FjParameters(**periodic_ring(1e-6))


def test_spectral_radius_is_an_upper_bound():
    rng = np.random.default_rng(41)
    for _ in range(300):
        m = int(rng.integers(1, 10))
        # Sparse draws include reducible and nilpotent matrices.
        matrix = rng.random((m, m)) * (rng.random((m, m)) < 0.35)
        radius = np.max(np.abs(np.linalg.eigvals(matrix)))
        assert spectral_radius(matrix) >= radius * (1.0 - 1e-12) - 1e-15
    assert spectral_radius(np.zeros((3, 3))) == 0.0
    # A Jordan block converges slowly; the bound stays valid and small.
    assert 0.0 <= spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) < 1e-4


def test_spectral_radius_stops_once_the_threshold_is_decided():
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
    limit = 1.0 - SPECTRAL_MARGIN
    # Decided after the second product, at the iterate (1, 0.02 / 1.02);
    # without a threshold the power iteration runs all 2000 steps.
    assert spectral_radius(jordan, threshold=limit) == 0.02 / 1.02
    for last_theta in (3e-9, 1e-6, 1e-2):
        ring = periodic_ring(last_theta)
        matrix = (1.0 - ring["stubbornness"])[:, None] * ring["influence"]
        radius = np.max(np.abs(np.linalg.eigvals(matrix)))
        decided = spectral_radius(matrix, threshold=limit)
        assert decided >= radius * (1.0 - 1e-12)
        assert (decided > limit) == (radius > limit)
        # Rejected (3e-9) and accepted (1e-6) before the iterate converges,
        # so at a looser upper bound than the converged one.
        assert decided > spectral_radius(matrix)
    rng = np.random.default_rng(43)
    for _ in range(200):
        m = int(rng.integers(1, 10))
        matrix = rng.random((m, m)) * (rng.random((m, m)) < 0.35)
        radius = np.max(np.abs(np.linalg.eigvals(matrix)))
        threshold = float(rng.uniform(0.5, 1.5)) * max(radius, 0.1)
        decided = spectral_radius(matrix, threshold=threshold)
        assert decided >= radius * (1.0 - 1e-12) - 1e-15
        if abs(radius - threshold) > 1e-6 * threshold:
            assert (decided > threshold) == (radius > threshold)


def test_spectral_radius_of_a_csr_matrix_bounds_and_decides_as_dense():
    from scipy.sparse import csr_array

    rng = np.random.default_rng(44)
    limit = 1.0 - SPECTRAL_MARGIN
    for _ in range(200):
        m = int(rng.integers(1, 12))
        matrix = rng.random((m, m)) * (rng.random((m, m)) < 0.35)
        radius = np.max(np.abs(np.linalg.eigvals(matrix)))
        sparse = csr_array(matrix)
        assert spectral_radius(sparse) >= radius * (1.0 - 1e-12) - 1e-15
        assert abs(spectral_radius(sparse) - spectral_radius(matrix)) <= 1e-12
        if abs(radius - limit) > 1e-6:
            assert (spectral_radius(sparse, threshold=limit) > limit) == (radius > limit)
    for last_theta in (3e-9, 1e-6):
        ring = periodic_ring(last_theta)
        matrix = (1.0 - ring["stubbornness"])[:, None] * ring["influence"]
        assert (spectral_radius(csr_array(matrix), threshold=limit) > limit) == (last_theta < 1e-6)


@pytest.mark.parametrize(
    "name, build",
    (
        ("seeds", lambda: recovery_robustness(problem_with_truth(), [0.0], seeds=2.5)),
        ("seeds", lambda: recovery_robustness(problem_with_truth(), [0.0], seeds=True)),
        ("agent_count", lambda: InfluenceNetwork(True, ())),
        ("rounds", lambda: OpinionTrajectory(rounds=True, values=np.zeros((2, 2)))),
        ("cap", lambda: solve_attack(planner_params(), cap=True)),
    ),
    ids=("seeds_fraction", "seeds_bool", "agent_count_bool", "rounds_bool", "cap_bool"),
)
def test_counts_reject_bools_and_non_ints(name, build):
    with pytest.raises(ValidationError, match=f"^{name} must be an int >= 1, got "):
        build()


@pytest.mark.parametrize(
    "message, build",
    (
        ("adversary must be an int, got 1.5", lambda: AttackConfig((1.5,), {})),
        ("adversary must be an int, got True", lambda: AttackConfig((True,), {})),
        ("adversary must be an int, got '1'", lambda: AttackConfig(("1",), {})),
        (
            "target key must be an int, got '1'",
            lambda: AttackConfig((1, 2), [(2, ()), ("1", ()), (1, (0,))]),
        ),
        ("target must be an int, got 0.5", lambda: AttackConfig((1,), {1: (0.5,)})),
        ("adversary must be an int, got 0.9", lambda: solve_follower(planner_params(), (0.9, 2))),
        (
            "pinned agent must be an int, got 1.5",
            lambda: simulate(planner_params(), np.full(5, 0.5), 3, pinned=[1.5]),
        ),
        (
            "pinned agent must be an int, got True",
            lambda: fj_step(planner_params(), np.full(5, 0.5), pinned=[True]),
        ),
        (
            "pinned agent must be an int, got '1'",
            lambda: OpinionTrajectory(rounds=1, values=np.zeros((2, 2)), pinned=("1",)),
        ),
    ),
    ids=(
        "adversary_fraction",
        "adversary_bool",
        "adversary_text",
        "target_key_text",
        "target_fraction",
        "follower_set_fraction",
        "simulate_pinned_fraction",
        "step_pinned_bool",
        "trajectory_pinned_text",
    ),
)
def test_agent_indices_must_be_ints(message, build):
    # Indices are never cut to an int: 1.5, True and "1" are not agent 1.
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build()


def test_numpy_integers_pass_as_python_ints():
    config = AttackConfig((np.int64(2), np.int32(0)), {np.int64(2): np.array([1, 3])})
    assert config == AttackConfig((0, 2), {2: (1, 3)})
    assert [type(x) for x in (*config.adversaries, *config.targets[1][1])] == [int] * 4
    network = InfluenceNetwork(np.int64(3), ((0, 1), (1, 2), (2, 0)))
    assert type(network.agent_count) is int
    params = planner_params()
    trajectory = simulate(params, np.full(5, 0.5), np.int64(3), pinned=np.array([4, 1]))
    assert type(trajectory.rounds) is int and trajectory.pinned == (1, 4)
    assert [type(i) for i in trajectory.pinned] == [int, int]
    plan = solve_attack(params, leader_size=np.int64(1), cap=np.int64(10))
    assert len(plan.config.adversaries) == 1
    scenario = Scenario(n=np.int64(9), seed=np.int64(1), leader_size=np.int64(2))
    assert [type(x) for x in (scenario.n, scenario.seed, scenario.leader_size)] == [int] * 3
    assert json.loads(json.dumps(scenario.to_json()))["n"] == 9


@pytest.mark.parametrize(
    "message, build",
    (
        ("influence magnitude must be a number, got 'x'", lambda: solve_attack(planner_params(), p="x")),
        ("influence magnitude must be a number, got None", lambda: solve_attack(planner_params(), p=None)),
        ("influence magnitude must be a number, got 'x'", lambda: AttackConfig((1,), {}, "x")),
        ("ridge must be a number, got 'x'", lambda: replace(problem_with_truth(), ridge="x")),
        (
            "noise level must be a number, got 'x'",
            lambda: recovery_robustness(problem_with_truth(), ["x"]),
        ),
        ("influence magnitude must be a number, got True", lambda: AttackConfig((1,), {}, True)),
        (
            f"influence magnitude must be a number, got {np.True_!r}",
            lambda: solve_attack(planner_params(), p=np.True_),
        ),
        ("ridge must be a number, got True", lambda: replace(problem_with_truth(), ridge=True)),
        ("p must be a number, got '0.002'", lambda: Scenario(p="0.002")),
        (
            "edge_prob must be a number, got b'0.5'",
            lambda: Scenario(topology="erdos_renyi", edge_prob=b"0.5"),
        ),
        (
            "noise level must be a number, got False",
            lambda: recovery_robustness(problem_with_truth(), [False]),
        ),
        # Arrays take the same rule, entry by entry (errors._numbers).
        ("z0 entry must be a number, got 'a'", lambda: simulate(planner_params(), ["a"] * 5, 2)),
        ("z0 entry must be a number, got True", lambda: simulate(planner_params(), [True] * 5, 2)),
        (
            f"z0 entry must be a number, got {np.True_!r}",
            lambda: simulate(planner_params(), [np.float64(0.5)] * 4 + [np.True_], 2),
        ),
        (
            f"z0 entry must be a number in float range, got {10**400!r}",
            lambda: simulate(planner_params(), [0.5] * 4 + [10**400], 2),
        ),
        (
            "z0 entry must be a number, got 'a'",
            lambda: simulate_adversarial(planner_params(), AttackConfig((1,), {}), ["a"] * 5, 2),
        ),
        ("z entry must be a number, got True", lambda: fj_step(planner_params(), np.ones(5, dtype=bool))),
        ("intrinsic entry must be a number, got 'a'", lambda: with_arrays(intrinsic=["a"] * 5)),
        ("intrinsic entry must be a number, got True", lambda: with_arrays(intrinsic=[True] * 5)),
        ("stubbornness entry must be a number, got 'a'", lambda: with_arrays(stubbornness=["a"] * 5)),
        ("stubbornness entry must be a number, got True", lambda: with_arrays(stubbornness=[True] * 5)),
        ("influence entry must be a number, got 'a'", lambda: with_arrays(influence=[["a"] * 5] * 5)),
        ("influence entry must be a number, got True", lambda: with_arrays(influence=np.eye(5, dtype=bool))),
        ("trajectory entry must be a number, got 'a'", lambda: OpinionTrajectory(1, [["a"] * 5] * 2)),
        ("trajectory entry must be a number, got True", lambda: OpinionTrajectory(1, [[True] * 5] * 2)),
        ("trajectory entry must be a number, got [0.5, 0.5]", lambda: OpinionTrajectory(1, [[0.5, 0.5], [0.5]])),
        (
            "intrinsic entry must be a number, got 'a'",
            lambda: replace(problem_with_truth(), intrinsic=["a"] * 3),
        ),
        (
            "intrinsic entry must be a number, got True",
            lambda: replace(problem_with_truth(), intrinsic=[True] * 3),
        ),
        (
            "pinned_value must be a number, got 'a'",
            lambda: simulate(planner_params(), np.full(5, 0.5), 2, pinned=(1,), pinned_value="a"),
        ),
        (
            "pinned_value must be a number, got True",
            lambda: simulate(planner_params(), np.full(5, 0.5), 2, pinned=(1,), pinned_value=True),
        ),
        (
            "external_scores entry must be a number, got 'a'",
            lambda: baseline_variant(planner_params(), "II", external_scores=["a"] * 5),
        ),
        (
            "external_scores entry must be a number, got True",
            lambda: baseline_variant(planner_params(), "III", external_scores=[True] * 5),
        ),
        (
            "noise_levels must be an iterable of numbers, got 0.1",
            lambda: recovery_robustness(problem_with_truth(), 0.1),
        ),
    ),
    ids=(
        "solve_attack_text",
        "solve_attack_none",
        "config_text",
        "ridge_text",
        "noise_text",
        "config_bool",
        "solve_attack_numpy_bool",
        "ridge_bool",
        "scenario_numeric_text",
        "edge_prob_bytes",
        "noise_bool",
        "simulate_z0_text",
        "simulate_z0_bool",
        "simulate_z0_numpy_bool",
        "simulate_z0_overflow",
        "attacked_z0_text",
        "step_z_numpy_bool",
        "intrinsic_text",
        "intrinsic_bool",
        "stubbornness_text",
        "stubbornness_bool",
        "influence_text",
        "influence_numpy_bool",
        "trajectory_text",
        "trajectory_bool",
        "trajectory_ragged",
        "problem_intrinsic_text",
        "problem_intrinsic_bool",
        "pinned_value_text",
        "pinned_value_bool",
        "external_scores_text",
        "external_scores_bool",
        "noise_levels_scalar",
    ),
)
def test_non_numbers_are_validation_errors(message, build):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build()


def with_arrays(**arrays):
    """planner_params rebuilt with some of its arrays replaced."""
    params = planner_params()
    fields = {"intrinsic": params.intrinsic, "stubbornness": params.stubbornness, "influence": params.influence}
    return FjParameters(params.network, **{**fields, **arrays})


def planner_params():
    return random_params(np.random.default_rng(0), complete_network(5))


def problem_with_truth():
    network = complete_network(3)
    truth = random_params(np.random.default_rng(0), network)
    trajectory = simulate(truth, np.full(3, 0.5), 4)
    return RecoveryProblem(network=network, trajectories=(trajectory,), truth=truth)


def test_numpy_scalars_pass_the_number_rule_as_their_values():
    # A list of numpy integer and floating scalars passes on its entries'
    # types, as Python ints and floats do, with the same values.
    z0 = [np.float64(0.25), np.float32(0.5), np.int64(1), np.uint8(0), 0.75]
    got = simulate(planner_params(), z0, 3).values
    assert got.tobytes() == simulate(planner_params(), np.array([0.25, 0.5, 1.0, 0.0, 0.75]), 3).values.tobytes()


def test_trajectory_validation():
    # Its rounds and entry rules are rows of the rule table (test_errors.py).
    with pytest.raises(ValidationError, match=r"^values must have shape \(rounds \+ 1, n\), got \(2, 2\)$"):
        OpinionTrajectory(rounds=2, values=np.zeros((2, 2)), pinned=())


@pytest.mark.parametrize("pinned, agent", [((-1,), -1), ((7,), 7), ((0, 3), 3)], ids=["negative", "past_n", "one_of_two"])
def test_trajectory_refuses_pins_outside_its_agents(pinned, agent):
    # A run of 3 agents pins only agents 0..2, by simulate's rule and message:
    # -1 would wrap onto agent 2 wherever the pins index an array.
    with pytest.raises(ValidationError, match=f"^pinned agent {agent} out of range for 3 agents$"):
        OpinionTrajectory(rounds=1, values=np.full((2, 3), 0.5), pinned=pinned)


def test_trajectory_keeps_valid_pins_sorted_with_duplicates():
    trajectory = OpinionTrajectory(rounds=1, values=np.full((2, 3), 0.5), pinned=[2, np.int64(0), 2])
    assert trajectory.pinned == (0, 2, 2)
    assert [type(i) for i in trajectory.pinned] == [int, int, int]
