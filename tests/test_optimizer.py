"""Planner checks: gain formula, follower modes, oracle agreement, baselines.

The marginal-gain formula is validated against finite differences of the
exact attacked outcome, which is the ground truth the planner is trying to
approximate; the enumeration paths are validated against a flat brute-force
oracle that shares nothing with the decomposed solver but the evaluator.
"""

import json
from itertools import combinations

import numpy as np
import pytest

import fjattack.linalg
import fjattack.optimizer
from conftest import complete_network, random_instance, random_params
from fjattack import (
    AttackConfig,
    CapExceededError,
    ConvergenceError,
    FjParameters,
    InfluenceNetwork,
    Scenario,
    ValidationError,
    adversarial_outcome,
    baseline_variant,
    brute_force_oracle,
    count_configurations,
    follower_candidate_bound,
    generate,
    marginal_gains,
    solve_attack,
    solve_follower,
)
from fjattack.adversary import _RestrictedSystem
from fjattack.fileio import plan_to_json, save_parameters
from fjattack.linalg import invert_conditioned
from fjattack.optimizer import LEADER_CHUNK
from test_adversary import three_agent_instance


def targeted_triples(count, start_seed=0, p=1e-6):
    """Yield (params, adversaries, target) triples with a usable target."""
    rng = np.random.default_rng(314)
    produced = 0
    seed = start_seed
    while produced < count:
        seed += 1
        n = int(rng.integers(6, 12))
        network, params = random_instance(seed, n=n, density=0.8)
        budget = network.leader_budget()
        if budget < 1:
            continue
        size = int(rng.integers(1, budget + 1))
        adversaries = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        pool = sorted(
            {
                i
                for j in adversaries
                for i in network.out_neighbors(j)
                if i not in adversaries
            }
        )
        if not pool:
            continue
        target = int(pool[rng.integers(0, len(pool))])
        produced += 1
        yield params, adversaries, target


def test_gain_matches_finite_difference():
    p = 1e-6
    for params, adversaries, target in targeted_triples(60, p=p):
        gains = marginal_gains(params, adversaries, p)
        supplier = next(
            j for j in adversaries if target in params.network.out_neighbors(j)
        )
        system = _RestrictedSystem(params, adversaries)
        g_base = system.outcome((), 0.0)[1]
        g_plus = system.outcome(((supplier, (target,)),), p)[1]
        predicted = gains.gain[target]
        assert abs((g_plus - g_base) - predicted) <= 1e-2 * abs(predicted) + 1e-12


def test_gain_three_agent_central_difference():
    params, _ = three_agent_instance()
    p = 1e-6
    gains = marginal_gains(params, (2,), p)
    system = _RestrictedSystem(params, (2,))
    g_plus = system.outcome(((2, (0,)),), p)[1]
    g_minus = system.outcome(((2, (0,)),), -p)[1]
    central = 0.5 * (g_plus - g_minus)
    assert abs(gains.gain[0] - central) <= 1e-3 * abs(central)


def test_gain_zero_when_row_mass_on_adversaries():
    # agent 1 listens only to the adversary, so it is already saturated
    network = InfluenceNetwork(4, ((0, 1), (0, 2), (1, 3), (2, 3), (3, 0), (1, 2)))
    rng = np.random.default_rng(5)
    params = random_params(rng, network)
    gains = marginal_gains(params, (0,), 1e-3)
    assert abs(gains.gain[1]) <= 1e-15
    assert gains.gain[0] == 0.0


def test_gain_zero_under_full_stubbornness():
    network = complete_network(6)
    rng = np.random.default_rng(6)
    base = random_params(rng, network)
    theta = np.ones(6)
    theta[0] = 0.4  # the adversary's own row is irrelevant
    params = FjParameters(
        network=network,
        intrinsic=base.intrinsic,
        stubbornness=theta,
        influence=base.influence,
    )
    gains = marginal_gains(params, (0,), 1e-3)
    assert np.max(np.abs(gains.gain)) <= 1e-15
    targets, g = solve_follower(params, (0,), 1e-3, mode="approx")
    assert all(chosen == () for chosen in targets.values())
    assert g == pytest.approx(
        adversarial_outcome(
            params, AttackConfig((0,), {}, 1e-3), enforce_budgets=False
        ).g_value,
        abs=1e-12,
    )


def test_gains_are_nonnegative():
    for params, adversaries, _ in targeted_triples(40, start_seed=500):
        gains = marginal_gains(params, adversaries, 1e-3)
        assert gains.gain.min() >= -1e-12


def test_follower_zero_budgets_returns_no_targets():
    # bidirectional ring: every out-degree is 2, so every budget is 0
    edges = []
    n = 6
    for i in range(n):
        edges += [(i, (i + 1) % n), ((i + 1) % n, i)]
    network = InfluenceNetwork(n, tuple(edges))
    params = random_params(np.random.default_rng(8), network)
    targets, g = solve_follower(params, (2, 5), 1e-3, mode="exact")
    assert targets == {2: (), 5: ()}
    bare = adversarial_outcome(
        params, AttackConfig((2, 5), {}, 1e-3), enforce_budgets=False
    )
    assert g == pytest.approx(bare.g_value, abs=1e-12)


def sparse_instances(seeds, n_range, density):
    for seed in seeds:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(*n_range))
        yield random_instance(seed, n=n, density=density)


def test_exact_solver_equals_oracle():
    cases = []
    for n in (5, 6, 7):
        cases.append(random_instance(n * 100, n=n, density=1.0))
    cases.extend(sparse_instances(range(20, 26), (8, 10), 0.35))
    for network, params in cases:
        exact = solve_attack(params, p=1e-3, follower_mode="exact")
        oracle = brute_force_oracle(params, p=1e-3)
        assert exact.config == oracle.config
        assert exact.predicted_g == pytest.approx(oracle.predicted_g, abs=1e-12)


def test_star_instance_cross_check():
    network = InfluenceNetwork(4, ((0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)))
    params = random_params(np.random.default_rng(9), network)
    exact = solve_attack(params, p=1e-3, follower_mode="exact")
    approx = solve_attack(params, p=1e-3, follower_mode="approx")
    oracle = brute_force_oracle(params, p=1e-3)
    # leader budget 1 and all target budgets 0: four candidate configs
    assert exact.leader_evaluations == 4
    assert exact.config == oracle.config == approx.config
    best_by_hand = max(
        range(4),
        key=lambda j: adversarial_outcome(
            params, AttackConfig((j,), {}, 1e-3)
        ).g_value,
    )
    assert exact.config.adversaries == (best_by_hand,)


def test_approx_close_to_oracle():
    matches = 0
    checked = 0
    for seed in range(40):
        rng = np.random.default_rng(seed + 7000)
        n = int(rng.integers(5, 9))
        network, params = random_instance(seed + 7000, n=n, density=0.7)
        approx = solve_attack(params, p=1e-3, follower_mode="approx")
        oracle = brute_force_oracle(params, p=1e-3)
        assert oracle.predicted_g >= approx.predicted_g - 1e-12
        assert oracle.predicted_g - approx.predicted_g <= 1e-4
        matches += approx.config == oracle.config
        checked += 1
    assert checked == 40
    assert matches >= 36


def reference_attack(params, sizes, p=1e-3):
    """Scalar reference planner: solve_follower on every adversary set in
    combinations order; an exact tie keeps the smaller set, which within
    one size is the first one enumerated."""
    best_g, best = -np.inf, None
    for size in sizes:
        for adversaries in combinations(range(params.n), size):
            targets, g = solve_follower(params, adversaries, p)
            if g > best_g or (g == best_g and adversaries < best[0]):
                best_g, best = g, (adversaries, targets)
    return AttackConfig(best[0], best[1], p), best_g


def assert_matches_reference(plan, params, sizes):
    config, g = reference_attack(params, sizes)
    assert plan.config == config
    assert plan.predicted_g == pytest.approx(g, abs=1e-12)
    return config


@pytest.mark.parametrize("topology", ("complete", "ring", "star", "erdos_renyi", "custom"))
def test_batched_approx_matches_scalar_reference(topology, tmp_path):
    for n in range(4, 15):
        if topology == "custom":
            path = tmp_path / f"custom_{n}.json"
            save_parameters(random_instance(n, n=n, density=0.5)[1], path)
            scenario = Scenario(topology="custom", network_file=str(path))
        else:
            scenario = Scenario(topology=topology, n=n, seed=n)
        _, params = generate(scenario)
        for leader_size in sorted({1, params.network.leader_budget()}):
            plan = solve_attack(params, p=1e-3, leader_size=leader_size)
            assert_matches_reference(plan, params, (leader_size,))


def test_batched_approx_all_leader_sizes_matches_reference():
    for topology in ("complete", "erdos_renyi"):
        _, params = generate(Scenario(topology=topology, n=11, seed=5))
        plan = solve_attack(params, p=1e-3, all_leader_sizes=True)
        assert_matches_reference(plan, params, range(1, 4))
        assert plan.leader_evaluations == 11 + 55 + 165


def test_batched_approx_winner_beyond_first_chunk():
    _, params = generate(Scenario(topology="complete", n=14, seed=0))
    plan = solve_attack(params, p=1e-3)
    config = assert_matches_reference(plan, params, (4,))
    assert list(combinations(range(14), 4)).index(config.adversaries) >= LEADER_CHUNK


def test_exact_ties_go_to_the_smallest_set():
    # Fully stubborn agents that already agree: every attack of every size
    # yields exactly g = n.
    network = complete_network(7)
    base = random_params(np.random.default_rng(16), network)
    params = FjParameters(
        network=network,
        intrinsic=np.ones(7),
        stubbornness=np.ones(7),
        influence=base.influence,
    )
    assert solve_attack(params, p=1e-3).config.adversaries == (0, 1)
    relaxed = solve_attack(params, p=1e-3, all_leader_sizes=True)
    assert relaxed.config.adversaries == (0,)
    assert relaxed.predicted_g == 7.0
    assert_matches_reference(relaxed, params, (1, 2))


def test_approx_search_is_conditioning_guarded(monkeypatch):
    _, params = random_instance(60, n=8, density=0.6)
    monkeypatch.setattr(fjattack.linalg, "RCOND_MIN", 1.0)
    with pytest.raises(ConvergenceError, match=r"adversary set \(0, 1\)"):
        solve_attack(params, p=1e-3)


def test_approx_search_guards_base_and_rescore_systems(monkeypatch):
    guarded = []

    def spy(stack, label):
        guarded.append(len(stack))
        return invert_conditioned(stack, label)

    monkeypatch.setattr(fjattack.optimizer, "invert_conditioned", spy)
    _, params = generate(Scenario(topology="complete", n=14, seed=1))
    plan = solve_attack(params, p=1e-3)
    assert sum(guarded) == 2 * plan.leader_evaluations == 2 * 1001


def test_invert_conditioned_names_the_first_singular_member():
    singular = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
    stack = np.stack([np.eye(3), singular, singular])
    with pytest.raises(ConvergenceError, match="member 1"):
        invert_conditioned(stack, lambda b: f"member {b}")
    good = np.array([[[2.0, 1.0], [1.0, 3.0]]])
    assert np.allclose(invert_conditioned(good, str)[0] @ good[0], np.eye(2))


def test_plan_invariants_and_determinism():
    for seed in (3, 14, 25):
        network, params = random_instance(seed, n=9, density=0.8)
        plan = solve_attack(params, p=1e-3, follower_mode="approx")
        scored = adversarial_outcome(params, plan.config)
        assert plan.predicted_g == pytest.approx(scored.g_value, abs=1e-12)
        plan.config.validate_against(network)
        assert plan.wall_time >= 0.0
        again = solve_attack(params, p=1e-3, follower_mode="approx")
        first = json.loads(json.dumps(plan_to_json(plan)))
        second = json.loads(json.dumps(plan_to_json(again)))
        first.pop("wall_time_s")
        second.pop("wall_time_s")
        assert first == second


def test_leader_size_relaxation_is_monotone():
    network, params = random_instance(42, n=10, density=0.9)
    budget = network.leader_budget()
    fixed = [
        solve_attack(params, p=1e-3, leader_size=k).predicted_g
        for k in range(1, budget + 1)
    ]
    relaxed = solve_attack(params, p=1e-3, all_leader_sizes=True)
    assert relaxed.predicted_g >= max(fixed) - 1e-12
    assert relaxed.predicted_g == pytest.approx(max(fixed), abs=1e-12)


def test_follower_candidates_within_stated_bound():
    for seed in (1, 2, 3):
        network, params = random_instance(seed, n=11, density=0.9)
        plan = solve_attack(params, p=1e-3, follower_mode="approx")
        per_set = plan.follower_candidates / plan.leader_evaluations
        assert per_set <= follower_candidate_bound(network.agent_count)


def test_small_instance_rejection():
    network, params = random_instance(50, n=3, density=1.0)
    with pytest.raises(ValidationError):
        solve_attack(params, p=1e-3)
    with pytest.raises(ValidationError):
        brute_force_oracle(params, p=1e-3)
    big_net, big_params = random_instance(51, n=9)
    with pytest.raises(ValidationError):
        solve_attack(big_params, p=1e-3, leader_size=5)


def test_exact_cap_enforced():
    network, params = random_instance(52, n=12, density=1.0)
    with pytest.raises(CapExceededError):
        solve_attack(params, p=1e-3, follower_mode="exact", cap=100)
    with pytest.raises(CapExceededError):
        brute_force_oracle(params, p=1e-3, cap=100)


def test_count_complete_thirteen():
    network = complete_network(13)
    assert count_configurations(network) == 204_211_150_000
    assert count_configurations(network, leader_size=0) == 1
    assert follower_candidate_bound(13) == 36.0


def test_count_small_cases_by_hand():
    # complete n=4: all target budgets 0, so only the C(4,1) leader choices
    assert count_configurations(complete_network(4)) == 4
    # complete n=7: per adversary 5 eligible targets, budget 1 -> 6 subsets
    assert count_configurations(complete_network(7)) == 21 * 36


def test_thirteen_agent_leader_enumeration():
    network = complete_network(13)
    params = random_params(np.random.default_rng(77), network)
    plan = solve_attack(params, p=1e-3, follower_mode="approx")
    assert plan.leader_evaluations == 715


def test_variant_star_hub():
    network = InfluenceNetwork(
        5, tuple((0, i) for i in range(1, 5)) + tuple((i, 0) for i in range(1, 5))
    )
    params = random_params(np.random.default_rng(11), network)
    config = baseline_variant(params, "I", leader_size=1)
    assert config.adversaries == (0,)
    # hub out-degree 4 gives target budget 1; spokes all have out-degree 1
    assert len(config.target_map()[0]) == 1


def test_variant_stubbornness_argmax():
    network = complete_network(5)
    rng = np.random.default_rng(12)
    base = random_params(rng, network)
    params = FjParameters(
        network=network,
        intrinsic=base.intrinsic,
        stubbornness=np.array([0.9, 0.1, 0.5, 0.5, 0.5]),
        influence=base.influence,
    )
    config = baseline_variant(params, "IV", leader_size=1)
    assert config.adversaries == (0,)
    # targets prefer the least stubborn out-neighbor, agent 1
    assert 1 in config.target_map()[0]


def test_variant_intrinsic_orderings():
    network = complete_network(6)
    rng = np.random.default_rng(13)
    base = random_params(rng, network)
    params = FjParameters(
        network=network,
        intrinsic=np.array([0.9, 0.2, 0.8, 0.1, 0.5, 0.5]),
        stubbornness=base.stubbornness,
        influence=base.influence,
    )
    top = baseline_variant(params, "V", leader_size=1)
    bottom = baseline_variant(params, "VI", leader_size=1)
    assert top.adversaries == (0,)
    assert bottom.adversaries == (3,)
    assert 2 in top.target_map()[0]  # next-highest support
    assert 1 in bottom.target_map()[3]  # next-lowest support


def test_variant_ties_break_to_lower_index():
    network = complete_network(7)
    rng = np.random.default_rng(14)
    base = random_params(rng, network)
    params = FjParameters(
        network=network,
        intrinsic=np.full(7, 0.5),
        stubbornness=np.full(7, 0.5),
        influence=base.influence,
    )
    for variant in ("I", "IV", "V", "VI"):
        config = baseline_variant(params, variant, leader_size=2)
        assert config.adversaries == (0, 1)


def test_variant_external_scores():
    network = complete_network(5)
    params = random_params(np.random.default_rng(15), network)
    scores = np.array([0.1, 0.9, 0.3, 0.2, 0.8])
    config = baseline_variant(params, "II", leader_size=1, external_scores=scores)
    assert config.adversaries == (1,)
    with pytest.raises(ValidationError):
        baseline_variant(params, "II", leader_size=1)
    with pytest.raises(ValidationError):
        baseline_variant(params, "nope", leader_size=1)


def test_exact_solver_dominates_variants():
    for seed in range(12):
        rng = np.random.default_rng(seed + 9000)
        n = int(rng.integers(6, 9))
        network, params = random_instance(seed + 9000, n=n, density=0.8)
        best = solve_attack(params, p=1e-3, follower_mode="exact").predicted_g
        for variant in ("I", "IV", "V", "VI"):
            config = baseline_variant(params, variant)
            g = adversarial_outcome(params, config).g_value
            assert best >= g - 1e-12
