"""Attack configuration, weight perturbation, and attacked-outcome checks.

The worked three-agent instance used throughout was first settled with a
pinned fixed-point iteration run to 1e-12; its numbers are frozen here so
any regression in the closed form shows up directly.
"""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

import fjattack
from conftest import (
    complete_network,
    random_feasible_config,
    random_instance,
    random_params,
    restricted_outcome,
    topology_edges,
)
from fjattack import (
    AttackConfig,
    ConvergenceError,
    FjParameters,
    InfluenceNetwork,
    Scenario,
    ValidationError,
    adversarial_outcome,
    apply_adversarial_weights,
    baseline_variant,
    closed_form_outcome,
    generate,
    outcome_metrics,
    simulate_adversarial,
    solve_attack,
)
from fjattack.adversary import _reweighted, _targeted_rows


def three_agent_instance():
    """Two persuadable agents listening to each other and to agent 2."""
    network = InfluenceNetwork(3, ((1, 0), (2, 0), (0, 1), (2, 1), (0, 2)))
    params = FjParameters(
        network=network,
        intrinsic=np.array([0.0, 0.0, 1.0]),
        stubbornness=np.array([0.5, 0.5, 0.5]),
        influence=np.array(
            [
                [0.0, 0.5, 0.5],
                [0.5, 0.0, 0.5],
                [1.0, 0.0, 0.0],
            ]
        ),
    )
    config = AttackConfig(
        adversaries=(2,), targets={2: (0,)}, influence_magnitude=0.1
    )
    return params, config


def test_reweighting_row_arithmetic():
    network = InfluenceNetwork(3, ((1, 0), (2, 0), (0, 1), (0, 2)))
    params = FjParameters(
        network=network,
        intrinsic=np.array([0.5, 0.5, 0.5]),
        stubbornness=np.array([0.5, 0.5, 0.5]),
        influence=np.array(
            [
                [0.0, 0.5, 0.5],
                [1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
            ]
        ),
    )
    config = AttackConfig(adversaries=(1,), targets={1: (0,)}, influence_magnitude=0.1)
    modified = apply_adversarial_weights(params, config, enforce_budgets=False)
    assert np.allclose(modified.influence[0], [0.0, 0.55, 0.45], atol=1e-15)
    # the untouched rows and the other parameter blocks are identical
    assert np.array_equal(modified.influence[1:], params.influence[1:])
    assert np.array_equal(modified.stubbornness, params.stubbornness)
    assert np.array_equal(modified.intrinsic, params.intrinsic)


def test_reweighting_requires_edge():
    params, _ = three_agent_instance()
    with pytest.raises(ValidationError):
        config = AttackConfig(
            adversaries=(1,), targets={1: (2,)}, influence_magnitude=0.1
        )
        apply_adversarial_weights(params, config, enforce_budgets=False)


def test_reweighting_no_targets_is_identity():
    for seed in range(5):
        network, params = random_instance(seed, n=8)
        config = AttackConfig(
            adversaries=(0, 3), targets={}, influence_magnitude=0.3
        )
        modified = apply_adversarial_weights(params, config, enforce_budgets=False)
        assert np.array_equal(modified.influence, params.influence)


def test_reweighting_preserves_row_sums():
    rng = np.random.default_rng(7)
    checked = 0
    for seed in range(200):
        n = int(rng.integers(7, 13))
        network, params = random_instance(seed, n=n, density=0.8)
        config = random_feasible_config(rng, network, p=1e-2, require_target=True)
        if config is None:
            continue
        modified = apply_adversarial_weights(params, config)
        sums = modified.influence.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12
        checked += 1
    assert checked >= 100


def dense_attacked_parameters(params, config):
    """apply_adversarial_weights as a dense re-weighting: copy W, re-weight
    the targeted rows in place and validate the copy as a new FjParameters."""
    rows, hits = _targeted_rows(config, params.n)
    w = np.array(params.influence)
    w[rows] = _reweighted(w[rows], hits, config.influence_magnitude)
    return FjParameters(params.network, params.intrinsic, params.stubbornness, w)


@pytest.fixture(scope="module")
def replay_instance():
    """Erdos-Renyi n = 1,000 with theta = 0 on 1% of the agents, so each
    FjParameters runs the spectral check, and a 10-adversary attack."""
    n = 1000
    params = generate(Scenario(topology="erdos_renyi", n=n, edge_prob=0.02, seed=1))[1]
    theta = np.array(params.stubbornness)
    theta[np.random.default_rng(1).choice(n, n // 100, replace=False)] = 0.0
    params = FjParameters(params.network, params.intrinsic, theta, params.influence)
    return params, baseline_variant(params, "I", leader_size=10)


def test_attacked_parameters_are_the_dense_reweightings_bits(replay_instance):
    rng = np.random.default_rng(29)
    cases = [replay_instance]
    for trial in range(32):
        topology = ("complete", "erdos_renyi", "ring", "star")[trial % 4]
        n = int(rng.integers(7, 15))
        network = InfluenceNetwork(n, topology_edges(topology, n, rng))
        params = random_params(rng, network)
        p = (1e-3, 0.05)[trial % 2]
        # A ring's target budgets are 0; elsewhere draw until a target is picked.
        config = AttackConfig((0,), {}, p)
        for _ in range(20 if topology != "ring" else 0):
            if drawn := random_feasible_config(rng, network, p=p, require_target=True):
                config = drawn
                break
        cases.append((params, config))
    targeted = 0
    for params, config in cases:
        got, want = apply_adversarial_weights(params, config), dense_attacked_parameters(params, config)
        for field in ("influence", "_on_support", "intrinsic", "stubbornness"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        targeted += any(targets for _, targets in config.targets)
    assert targeted >= 20


def test_attacked_parameters_hold_one_dense_w(replay_instance):
    # The attacked W is scattered once from its edge weights: no copy of
    # params' W and no dense scan of the result.  The dense re-weighting
    # peaked above two W (16 MB at n = 1,000).
    params, config = replay_instance
    tracemalloc.start()
    try:
        apply_adversarial_weights(params, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * params.n**2


def test_worked_instance_outcome():
    params, config = three_agent_instance()
    modified = apply_adversarial_weights(params, config, enforce_budgets=False)
    assert np.allclose(modified.influence[0], [0.0, 0.45, 0.55], atol=1e-15)
    outcome = adversarial_outcome(params, config, enforce_budgets=False)
    assert outcome.unpinned == (0, 1)
    # frozen from a pinned fixed-point iteration run to 1e-12
    assert np.max(np.abs(outcome.fixed_point - [0.35099338, 0.33774834])) <= 1e-7
    assert abs(outcome.g_value - 1.6887417218543046) <= 1e-12
    assert abs(outcome.g_value - (outcome.fixed_point.sum() + 1)) <= 1e-12


def test_worked_instance_targeting_helps():
    params, config = three_agent_instance()
    bare = AttackConfig(adversaries=(2,), targets={}, influence_magnitude=0.1)
    g_with = adversarial_outcome(params, config, enforce_budgets=False).g_value
    g_without = adversarial_outcome(params, bare, enforce_budgets=False).g_value
    assert g_with >= g_without


def test_empty_adversary_set_degenerates_to_plain_outcome():
    for seed in range(5):
        network, params = random_instance(seed)
        config = AttackConfig(adversaries=(), targets={}, influence_magnitude=0.5)
        attacked = adversarial_outcome(params, config)
        plain = closed_form_outcome(params)
        assert attacked.g_value == pytest.approx(plain.g, abs=1e-14)
        assert np.allclose(attacked.fixed_point, plain.fixed_point, atol=1e-14)


def test_outcome_bounds_and_offset():
    rng = np.random.default_rng(13)
    checked = 0
    for seed in range(120):
        network, params = random_instance(seed)
        config = random_feasible_config(rng, network)
        if config is None:
            continue
        outcome = adversarial_outcome(params, config)
        k, n = len(config.adversaries), network.agent_count
        assert k - 1e-12 <= outcome.g_value <= n + 1e-12
        assert abs(outcome.g_value - (outcome.fixed_point.sum() + k)) <= 1e-12
        checked += 1
    assert checked >= 50


def test_monotone_in_influence_magnitude():
    rng = np.random.default_rng(29)
    flagged = []
    checked = 0
    for seed in range(300):
        if checked >= 100:
            break
        n = int(rng.integers(7, 13))
        network, params = random_instance(seed, n=n, density=0.8)
        config = random_feasible_config(rng, network, require_target=True)
        if config is None:
            continue
        checked += 1
        sweep = [
            restricted_outcome(params, config.adversaries, config.targets, p)
            for p in (0.0, 1e-4, 1e-3, 1e-2)
        ]
        assert sweep[1] >= sweep[0] - 1e-12
        assert sweep[2] >= sweep[1] - 1e-12
        if sweep[3] < sweep[2] - 1e-12:
            flagged.append(seed)
    assert checked == 100
    if flagged:
        warnings.warn(f"g decreased on the 1e-3 -> 1e-2 step for seeds {flagged}")


def test_simulation_agrees_with_closed_form():
    params, config = three_agent_instance()
    trajectory = simulate_adversarial(
        params, config, np.array([0.0, 0.0, 1.0]), 500, enforce_budgets=False
    )
    outcome = adversarial_outcome(params, config, enforce_budgets=False)
    assert np.max(np.abs(trajectory.values[-1][:2] - outcome.fixed_point)) <= 1e-6
    # adversary rows are pinned at 1 from round 0 on
    assert np.array_equal(trajectory.values[:, 2], np.ones(501))
    assert trajectory.pinned == (2,)


def test_simulation_agrees_on_random_instances():
    rng = np.random.default_rng(31)
    checked = 0
    for seed in range(60):
        network, params = random_instance(seed, theta_range=(0.1, 0.9))
        config = random_feasible_config(rng, network)
        if config is None:
            continue
        z0 = rng.uniform(0, 1, network.agent_count)
        trajectory = simulate_adversarial(params, config, z0, 500)
        outcome = adversarial_outcome(params, config)
        unpinned = list(outcome.unpinned)
        assert np.max(np.abs(trajectory.values[-1][unpinned] - outcome.fixed_point)) <= 1e-6
        checked += 1
    assert checked >= 25


def test_simulation_rejects_zero_rounds():
    params, config = three_agent_instance()
    with pytest.raises(ValidationError):
        simulate_adversarial(
            params, config, np.array([0.0, 0.0, 1.0]), 0, enforce_budgets=False
        )


def test_budget_rejection():
    network = complete_network(7)  # leader budget 2
    _, params = random_instance(0, n=7, density=1.0)
    params = FjParameters(
        network=network,
        intrinsic=params.intrinsic,
        stubbornness=params.stubbornness,
        influence=np.where(np.eye(7) == 1, 0.0, 1.0 / 6.0),
    )
    oversized = AttackConfig(
        adversaries=(0, 1, 2, 3, 4, 5), targets={}, influence_magnitude=0.1
    )
    with pytest.raises(ValidationError):
        adversarial_outcome(params, oversized)
    # target budget on a complete 7-graph is floor((6-1)/3) = 1
    greedy = AttackConfig(
        adversaries=(0,), targets={0: (1, 2)}, influence_magnitude=0.1
    )
    with pytest.raises(ValidationError):
        adversarial_outcome(params, greedy)
    # both evaluate fine when the budget gate is lifted
    adversarial_outcome(params, oversized, enforce_budgets=False)
    adversarial_outcome(params, greedy, enforce_budgets=False)


def test_config_structural_validation():
    for message, adversaries, targets, p in (
        ("duplicate adversaries in (1, 1)", (1, 1), {}, 0.1),
        ("targets listed for non-adversary 2", (1,), {2: (0,)}, 0.1),
        ("adversary 2 cannot be a target", (1, 2), {1: (2,)}, 0.1),
        ("adversary 1 targets an agent twice", (1,), {1: (0, 0)}, 0.1),
        # p follows the planners' rule, errors._check_magnitude.
        ("influence magnitude must lie in (0, 1), got 0.0", (1,), {}, 0.0),
        ("influence magnitude must lie in (0, 1), got -0.2", (1,), {}, -0.2),
        ("influence magnitude must lie in (0, 1), got 1.0", (1,), {}, 1.0),
        ("influence magnitude must lie in (0, 1), got 5.0", (1,), {}, 5.0),
        # two adversaries pushing p = 0.6 into one row would need 2 * 0.6 < 1
        ("agent 0 is targeted by 2 adversaries with p=0.6; need |A_i| p < 1", (1, 2), {1: (0,), 2: (0,)}, 0.6),
    ):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            AttackConfig(adversaries=adversaries, targets=targets, influence_magnitude=p)


@pytest.mark.parametrize(
    "targets",
    ([(1, (0,)), (1, (3,))], [(1, ()), (np.int64(1), (0,))]),
    ids=("same_int", "numpy_int"),
)
def test_config_rejects_two_target_entries_for_one_adversary(targets):
    with pytest.raises(ValidationError, match=r"^adversary 1 has two target entries$"):
        AttackConfig(adversaries=(1, 2), targets=targets, influence_magnitude=0.1)


def test_config_canonical_form():
    a = AttackConfig(adversaries=(2, 1), targets={1: (5, 3)}, influence_magnitude=0.1)
    b = AttackConfig(
        adversaries=(1, 2), targets=((2, ()), (1, (3, 5))), influence_magnitude=0.1
    )
    assert a == b
    assert a.adversaries == (1, 2)
    assert a.targets == ((1, (3, 5)), (2, ()))
    assert a.target_map() == {1: (3, 5), 2: ()}
    assert a.targeted_by() == {3: (1,), 5: (1,)}


def test_metrics_zero_attack():
    network, params = random_instance(4)
    g0 = closed_form_outcome(params).g
    idle = adversarial_outcome(
        params, AttackConfig(adversaries=(), targets={}, influence_magnitude=0.1)
    )
    metrics = outcome_metrics(g0, idle)
    assert metrics.delta_g == pytest.approx(0.0, abs=1e-12)


def test_metrics_agreement_threshold():
    network = InfluenceNetwork(3, ((1, 0), (2, 0), (0, 1), (2, 1), (0, 2)))
    high = FjParameters(
        network=network,
        intrinsic=np.full(3, 0.6),
        stubbornness=np.ones(3),
        influence=np.array(
            [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [1.0, 0.0, 0.0]]
        ),
    )
    outcome = adversarial_outcome(
        high, AttackConfig(adversaries=(), targets={}, influence_magnitude=0.1)
    )
    assert np.allclose(outcome.fixed_point, 0.6)
    metrics = outcome_metrics(closed_form_outcome(high).g, outcome)
    assert metrics.agreement_fraction == 1.0


def test_metrics_worked_instance():
    params, config = three_agent_instance()
    g0 = closed_form_outcome(params).g
    attacked = adversarial_outcome(params, config, enforce_budgets=False)
    metrics = outcome_metrics(g0, attacked)
    assert metrics.delta_g == pytest.approx(attacked.g_value - g0, abs=1e-12)
    # fixed point (0.351, 0.338) sits below the 0.5 agreement line
    assert metrics.agreement_fraction == 0.0


def test_attacked_outcome_names_the_system_it_refuses(monkeypatch):
    # With RCOND_MIN at 1 every dense solve is refused.  The attacked
    # outcome names its restricted system, as the closed form names the
    # full one, so compare and ablate rows say which system failed.
    _, params = generate(Scenario(topology="complete", n=8, seed=1))
    config = solve_attack(params).config
    monkeypatch.setattr(fjattack.linalg, "RCOND_MIN", 1.0)
    with pytest.raises(
        ConvergenceError,
        match=r"^attacked system I_U - \(I_U - Theta_U\) W'_UU: system is singular or ill-conditioned",
    ):
        adversarial_outcome(params, config)
    with pytest.raises(ConvergenceError, match=r"^system I - \(I - Theta\) W: "):
        closed_form_outcome(params)
