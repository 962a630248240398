"""Planner checks: gain formula, follower modes, oracle agreement, baselines.

The marginal-gain formula is validated against finite differences of the
exact attacked outcome, which is the ground truth the planner is trying to
approximate.  Exact solve_attack, exact solve_follower and the brute-force
oracle share one batched enumeration engine, so their independent reference
is a test-local loop that builds every configuration with itertools and
scores it through public adversarial_outcome; the batched approx planner is
checked against the per-set scalar solve_follower.
"""

import json
import math
from itertools import combinations, product

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
from fjattack.adversary import _restricted_blocks, _RestrictedSystem
from fjattack.fileio import plan_to_json, save_parameters
from fjattack.linalg import check_conditioned, invert_conditioned
from fjattack.optimizer import (
    CONFIG_CHUNK,
    LEADER_CHUNK,
    _exact_scorer,
    _schur_gains,
    _SchurGains,
)
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


def best_scored(scored):
    """The winner among (config, g) pairs: higher g, then on an exact tie the
    smaller (adversaries, targets) key."""
    return min(scored, key=lambda item: (-item[1], item[0].adversaries, item[0].targets))


def scalar_set_search(params, adversaries, p=1e-3):
    """Every joint target choice of one adversary set, built with itertools
    and scored one at a time through adversarial_outcome.  Returns the best
    (config, g) and the configuration count."""
    network = params.network
    choices = [
        [
            c
            for r in range(network.target_budget(j) + 1)
            for c in combinations(
                [i for i in network.out_neighbors(j) if i not in adversaries], r
            )
        ]
        for j in adversaries
    ]
    scored = []
    for combo in product(*choices):
        config = AttackConfig(adversaries, dict(zip(adversaries, combo)), p)
        scored.append((config, adversarial_outcome(params, config).g_value))
    return best_scored(scored), len(scored)


def scalar_exact_search(params, size, p=1e-3):
    """scalar_set_search over every set of one size.  Returns the best
    (config, g), the configuration count and the largest count of one set."""
    results = [
        scalar_set_search(params, adversaries, p)
        for adversaries in combinations(range(params.n), size)
    ]
    counts = [count for _, count in results]
    return best_scored([best for best, _ in results]), sum(counts), max(counts)


def exact_engine_instances():
    """Seeded instances over four topologies, n = 4..10, sized so the scalar
    reference stays fast (complete graphs grow fastest, so stop at n = 7)."""
    for topology in ("complete", "erdos_renyi", "star", "ring"):
        for n in range(4, 8 if topology == "complete" else 11):
            scenario = Scenario(topology=topology, n=n, seed=100 + n, edge_prob=0.5)
            yield f"{topology}-{n}", generate(scenario)[1]


def test_exact_engine_matches_scalar_enumeration():
    checked = 0
    for name, params in exact_engine_instances():
        network = params.network
        budget = network.leader_budget()
        by_size = {k: scalar_exact_search(params, k) for k in range(1, budget + 1)}
        for sizes in ((budget,), range(1, budget + 1)):
            config, g = best_scored([by_size[k][0] for k in sizes])
            total = sum(by_size[k][1] for k in sizes)
            assert total == sum(count_configurations(network, k) for k in sizes), name
            exact = solve_attack(
                params, p=1e-3, follower_mode="exact", all_leader_sizes=len(sizes) > 1
            )
            assert exact.config == config, name
            assert exact.predicted_g == pytest.approx(g, abs=1e-12), name
            assert exact.follower_candidates == total, name
            assert exact.leader_evaluations == sum(math.comb(params.n, k) for k in sizes)
            checked += 1
        (config, g), total, _ = by_size[budget]
        oracle = brute_force_oracle(params, p=1e-3)
        assert oracle.config == config, name
        assert oracle.predicted_g == pytest.approx(g, abs=1e-12), name
        assert oracle.follower_candidates == total == count_configurations(network), name
        targets, follower_g = solve_follower(params, config.adversaries, 1e-3, mode="exact")
        assert AttackConfig(config.adversaries, targets, 1e-3) == config, name
        assert follower_g == pytest.approx(g, abs=1e-12), name
    assert checked == 2 * (4 + 3 * 7)


def test_exact_solve_follower_matches_scalar_enumeration():
    for seed in range(12):
        network, params = random_instance(seed + 400, n=9, density=0.6)
        rng = np.random.default_rng(seed)
        adversaries = tuple(sorted(rng.choice(9, size=2, replace=False).tolist()))
        (config, g), _ = scalar_set_search(params, adversaries)
        targets, follower_g = solve_follower(params, adversaries, 1e-3, mode="exact")
        assert AttackConfig(adversaries, targets, 1e-3) == config
        assert follower_g == pytest.approx(g, abs=1e-12)


@pytest.mark.parametrize("chunks", ((1, 1), (3, 7), (LEADER_CHUNK, CONFIG_CHUNK)))
def test_exact_engine_chunk_boundaries(monkeypatch, chunks):
    monkeypatch.setattr(fjattack.optimizer, "LEADER_CHUNK", chunks[0])
    monkeypatch.setattr(fjattack.optimizer, "CONFIG_CHUNK", chunks[1])
    for seed in (21, 22, 23):
        network, params = random_instance(seed, n=8, density=0.5)
        by_size = [scalar_exact_search(params, k) for k in (1, 2)]
        config, g = best_scored([best for best, _, _ in by_size])
        plan = solve_attack(params, p=1e-3, follower_mode="exact", all_leader_sizes=True)
        assert plan.config == config
        assert plan.predicted_g == pytest.approx(g, abs=1e-12)
        assert plan.follower_candidates == sum(total for _, total, _ in by_size)


def stubborn_target_instance():
    """Complete graph on 8 agents where every agent but 0 and 5 is fully
    stubborn: re-weighting a stubborn agent's row leaves g bit-for-bit
    unchanged, so adversary 0's best target choices tie exactly."""
    network = complete_network(8)
    base = random_params(np.random.default_rng(17), network)
    theta = np.ones(8)
    theta[[0, 5]] = (0.5, 0.3)
    return FjParameters(
        network=network,
        intrinsic=base.intrinsic,
        stubbornness=theta,
        influence=base.influence,
    )


@pytest.mark.parametrize("config_chunk", (1, 4, CONFIG_CHUNK))
def test_exact_ties_go_to_the_smallest_key(monkeypatch, config_chunk):
    monkeypatch.setattr(fjattack.optimizer, "CONFIG_CHUNK", config_chunk)
    params = stubborn_target_instance()
    # Budget 2 of 7 out-neighbours: (5,) comes first in canonical order, but
    # (1, 5), (2, 5), ... reach the same g and (1, 5) is the smallest key.
    targets, g = solve_follower(params, (0,), 1e-3, mode="exact")
    assert targets == {0: (1, 5)}
    alone = AttackConfig((0,), {0: (5,)}, 1e-3)
    assert g == adversarial_outcome(params, alone).g_value
    # Agreeing, fully stubborn agents: every configuration of every size
    # yields g = n exactly, so the smallest set with no targets wins.
    base = random_params(np.random.default_rng(16), complete_network(7))
    flat = FjParameters(
        network=base.network,
        intrinsic=np.ones(7),
        stubbornness=np.ones(7),
        influence=base.influence,
    )
    relaxed = solve_attack(flat, p=1e-3, follower_mode="exact", all_leader_sizes=True)
    assert relaxed.config == AttackConfig((0,), {}, 1e-3)
    assert relaxed.predicted_g == 7.0
    oracle = brute_force_oracle(flat, p=1e-3)
    assert oracle.config == AttackConfig((0, 1), {}, 1e-3)


def test_exact_cap_is_per_set_and_oracle_cap_is_total():
    network, params = random_instance(31, n=9, density=0.6)
    _, total, largest = scalar_exact_search(params, 2)
    assert largest < total
    plan = solve_attack(params, p=1e-3, follower_mode="exact", cap=largest)
    assert plan.follower_candidates == total
    with pytest.raises(CapExceededError, match=f"has {largest} configurations, cap is {largest - 1}"):
        solve_attack(params, p=1e-3, follower_mode="exact", cap=largest - 1)
    with pytest.raises(CapExceededError, match=f"{total} feasible configurations exceed the cap of {largest}"):
        brute_force_oracle(params, p=1e-3, cap=largest)
    assert brute_force_oracle(params, p=1e-3, cap=total).config == plan.config


def test_exact_and_oracle_paths_are_conditioning_guarded(monkeypatch):
    _, params = random_instance(60, n=8, density=0.6)
    monkeypatch.setattr(fjattack.linalg, "RCOND_MIN", 1.0)
    with pytest.raises(ConvergenceError, match=r"adversary set \(0, 1\)"):
        solve_attack(params, p=1e-3, follower_mode="exact")
    with pytest.raises(ConvergenceError, match=r"adversary set \(0, 1\)"):
        brute_force_oracle(params, p=1e-3)
    with pytest.raises(ConvergenceError, match=r"adversary set \(2, 5\)"):
        solve_follower(params, (2, 5), 1e-3, mode="exact")


def test_exact_engine_guards_every_configuration(monkeypatch):
    _, params = generate(Scenario(topology="erdos_renyi", n=12, edge_prob=0.25, seed=3))
    total = count_configurations(params.network)
    restricted = (params.n - params.network.leader_budget(),) * 2
    guarded, solved, exact_pass = [], [], [False]

    def check_spy(stack, label):
        # Only re-weighted systems solved by the exact scorer count.
        if exact_pass[0] and stack.shape[1:] == restricted:
            guarded.append(len(stack))
        return check_conditioned(stack, label)

    real_scorer = fjattack.optimizer._exact_scorer

    def scorer_spy(*args, **kwargs):
        score = real_scorer(*args, **kwargs)

        def spied(chunk):
            exact_pass[0] = True
            for g, chosen, owner in score(chunk):
                solved.append(len(g))
                yield g, chosen, owner
            exact_pass[0] = False

        return spied

    monkeypatch.setattr(fjattack.optimizer, "check_conditioned", check_spy)
    monkeypatch.setattr(fjattack.optimizer, "_exact_scorer", scorer_spy)
    # The oracle solves, and guards, every configuration.
    oracle = brute_force_oracle(params, p=1e-3)
    assert sum(guarded) == sum(solved) == oracle.follower_candidates == total
    assert max(guarded) <= CONFIG_CHUNK
    # Pruned exact guards every configuration it solves.  It solves fewer
    # than the winning set alone holds, so configurations of a surviving
    # set are pruned too.
    guarded.clear()
    solved.clear()
    plan = solve_attack(params, p=1e-3, follower_mode="exact")
    assert plan.config == oracle.config
    assert plan.follower_candidates == total
    _, winner_configs = scalar_set_search(params, plan.config.adversaries)
    assert 0 < sum(guarded) == sum(solved) < winner_configs


def bound_instances():
    """exact_engine_instances, each also with every third agent at theta = 0
    and with every theta scaled by 1e-5, which makes kappa_1(M) near 1e5."""
    for name, params in exact_engine_instances():
        yield name, params
        open_minded = with_open_minded_agents(params)
        if open_minded is not None:
            yield f"{name}-theta0", open_minded
        theta = params.stubbornness * 1e-5
        yield f"{name}-theta1e-5", FjParameters(
            params.network, params.intrinsic, theta, params.influence
        )


def test_first_order_bound_holds_for_every_configuration():
    # g(A, T) <= sum(z0) + |A| + the gains of T's targets, counted once per
    # adversary that picks them, up to the stated rounding allowance.
    checked = 0
    for name, params in bound_instances():
        for p in (1e-3, 0.2):
            gains = _SchurGains(params, p)
            score = _exact_scorer(params, p)
            for k in range(1, params.network.leader_budget() + 1):
                chunk = list(combinations(range(params.n), k))
                sets = np.array(chunk)
                z0, gain = gains(sets, _restricted_blocks(params, sets), str)
                base = z0.sum(axis=1) + k
                for g, chosen, owner in score(chunk):
                    bound = base[owner] + (chosen.sum(axis=1) * gain[owner]).sum(axis=1)
                    slack = np.array([gains.slack(x) for x in g])
                    assert (g <= bound + slack).all(), name
                    assert slack.min() > 0.0
                    checked += len(g)
    assert checked > 70_000


def assert_pruned_exact_matches_oracle(name, params, p=1e-3):
    oracle = brute_force_oracle(params, p=p)
    exact = solve_attack(params, p=p, follower_mode="exact")
    assert exact.config == oracle.config, name
    assert float.hex(exact.predicted_g) == float.hex(oracle.predicted_g), name
    assert exact.leader_evaluations == oracle.leader_evaluations, name
    assert exact.follower_candidates == oracle.follower_candidates, name
    targets, g = solve_follower(params, oracle.config.adversaries, p, mode="exact")
    assert AttackConfig(oracle.config.adversaries, targets, p) == oracle.config, name
    assert float.hex(g) == float.hex(oracle.predicted_g), name
    # Both modes certify the same upper bound, and it holds over the oracle.
    approx = solve_attack(params, p=p)
    slack = _SchurGains(params, p).slack(oracle.predicted_g)
    assert float.hex(exact.upper_bound) == float.hex(approx.upper_bound), name
    assert approx.predicted_g <= oracle.predicted_g <= approx.upper_bound + slack, name
    assert oracle.upper_bound == oracle.predicted_g
    return oracle


def test_pruned_exact_matches_the_oracle():
    for name, params in bound_instances():
        assert_pruned_exact_matches_oracle(name, params)


def test_pruned_exact_keeps_every_tie_at_the_bound(monkeypatch):
    # Star leaves hear only the hub, so a pinned hub's targets all have gain
    # 0 and every configuration of its set ties at the set's bound; the
    # oracle's tie rule must still see each of them.
    instances = []
    for n, seed in ((5, 0), (8, 8), (10, 10)):
        _, params = generate(Scenario(topology="star", n=n, seed=seed))
        oracle = assert_pruned_exact_matches_oracle(f"star-{n}", params)
        assert 0 in oracle.config.adversaries
        assert oracle.config.target_map() == {j: () for j in oracle.config.adversaries}
        instances.append((params, oracle))
    # Where the winner's bound equals the incumbent bitwise, the comparisons
    # alone decide: with no slack they must keep the winner's set and all
    # of its tied configurations.
    monkeypatch.setattr(_SchurGains, "slack", lambda self, g: 0.0)
    exact_ties = 0
    for params, oracle in instances:
        sets = np.array([oracle.config.adversaries])
        z0, _ = _SchurGains(params, 1e-3)(sets, _restricted_blocks(params, sets), str)
        if z0.sum() + sets.shape[1] == solve_attack(params, p=1e-3).predicted_g:
            assert_pruned_exact_matches_oracle("star at zero slack", params)
            exact_ties += 1
    assert exact_ties >= 1


def test_pruned_exact_keeps_winners_that_undercut_the_incumbent_by_rounding():
    undercut = 0
    for topology, n, seed in (("star", 5, 1), ("star", 8, 1), ("ring", 5, 1), ("ring", 10, 3)):
        _, params = generate(Scenario(topology=topology, n=n, seed=seed))
        oracle = assert_pruned_exact_matches_oracle(f"{topology}-{n}", params)
        incumbent = solve_attack(params, p=1e-3).predicted_g
        sets = np.array([oracle.config.adversaries])
        gains = _SchurGains(params, 1e-3)
        z0, gain = gains(sets, _restricted_blocks(params, sets), str)
        chosen = [i for _, targets in oracle.config.targets for i in targets]
        bound = z0.sum() + sets.shape[1] + gain[0, chosen].sum()
        # Where bound < incumbent, a zero slack would prune the winner.
        assert bound >= incumbent - gains.slack(incumbent)
        undercut += bound < incumbent
    assert undercut >= 1


def test_plan_json_carries_the_upper_bound():
    _, params = generate(Scenario(topology="erdos_renyi", n=9, seed=4))
    plan = solve_attack(params, p=1e-3)
    payload = plan_to_json(plan)
    assert payload["upper_bound"] == float(f"{plan.upper_bound:.12g}")
    assert payload["upper_bound"] >= payload["predicted_g"]


def test_check_conditioned_falls_back_to_the_exact_rcond():
    # Not diagonally dominant but well conditioned: passes via the fallback.
    swap = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    check_conditioned(swap, str)
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    stack = np.stack([np.eye(2), 0.5 * np.eye(2), singular])
    with pytest.raises(ConvergenceError, match="member 2"):
        check_conditioned(stack, lambda b: f"member {b}")


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


def test_approx_search_guards_the_full_system(monkeypatch):
    _, params = random_instance(60, n=8, density=0.6)
    monkeypatch.setattr(fjattack.linalg, "RCOND_MIN", 1.0)
    monkeypatch.setattr(fjattack.optimizer, "check_conditioned", lambda stack, label: None)
    with pytest.raises(ConvergenceError, match=r"system I - \(I - Theta\) W"):
        solve_attack(params, p=1e-3)


def test_approx_search_guards_base_and_rescore_systems(monkeypatch):
    checked, inverted = [], []

    def check_spy(stack, label):
        checked.append(stack.shape)
        return check_conditioned(stack, label)

    def invert_spy(stack, label):
        inverted.append(stack.shape)
        return invert_conditioned(stack, label)

    monkeypatch.setattr(fjattack.optimizer, "check_conditioned", check_spy)
    monkeypatch.setattr(fjattack.optimizer, "invert_conditioned", invert_spy)
    _, params = generate(Scenario(topology="complete", n=14, seed=1))
    plan = solve_attack(params, p=1e-3)
    # Each set's restricted M_UU and its re-scored system, then its Minv_AA.
    assert sum(shape[0] for shape in checked if shape[1:] == (10, 10)) == 2 * 1001
    assert sum(shape[0] for shape in checked if shape[1:] == (4, 4)) == 1001
    assert plan.leader_evaluations == 1001
    # The full M, once per search.
    assert inverted == [(1, 14, 14)]


def with_open_minded_agents(params):
    """params with every third agent's stubbornness set to 0, which sends
    the contraction check down its spectral path; None if that fails."""
    theta = np.array(params.stubbornness)
    theta[::3] = 0.0
    try:
        return FjParameters(params.network, params.intrinsic, theta, params.influence)
    except ConvergenceError:
        return None


@pytest.mark.parametrize("topology", ("complete", "ring", "star", "erdos_renyi", "custom"))
def test_schur_gains_match_scalar_marginal_gains(topology, tmp_path):
    p = 1e-3
    for n in range(4, 15):
        if topology == "custom":
            path = tmp_path / f"custom_{n}.json"
            save_parameters(random_instance(n, n=n, density=0.5)[1], path)
            scenario = Scenario(topology="custom", network_file=str(path))
        else:
            scenario = Scenario(topology=topology, n=n, seed=n)
        _, params = generate(scenario)
        for instance in (params, with_open_minded_agents(params)):
            if instance is None:
                continue
            system = np.eye(n) - (1.0 - instance.stubbornness)[:, None] * instance.influence
            minv = invert_conditioned(system[None], str)[0]
            for k in range(1, params.network.leader_budget() + 1):
                sets = np.array(list(combinations(range(n), k))[::5])
                blocks = _restricted_blocks(instance, sets)
                z0, gain = _schur_gains(minv, sets, blocks, p, str)
                for b, adversaries in enumerate(sets.tolist()):
                    reference = marginal_gains(instance, adversaries, p)
                    np.testing.assert_allclose(
                        z0[b], reference.base_fixed_point, rtol=1e-12, atol=1e-12
                    )
                    # Relative to the larger of p and the set's largest gain,
                    # since some sets have every gain zero up to rounding.
                    scale = max(p, np.abs(reference.gain).max())
                    assert np.abs(gain[b] - reference.gain).max() <= 1e-12 * scale


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
