"""Planner checks: gain formula, follower modes, oracle agreement, baselines.

The marginal-gain formula is validated against finite differences of the
exact attacked outcome, which is the ground truth the planner is trying to
approximate.  Exact solve_attack, exact solve_follower and the brute-force
oracle share one batched enumeration engine, so their independent reference
is a test-local loop that builds every configuration with itertools and
scores it through public adversarial_outcome.  The approx planner, approx
solve_follower and marginal_gains share one gain kernel; their reference is
a test-local per-set scalar path: an LU of the set's restricted system with
a forward and a transposed solve, the top-budget pick, and one re-score.
"""

import json
import math
import re
from itertools import chain, combinations, product

import numpy as np
import pytest
from scipy.linalg import lu_solve

import fjattack.linalg
import fjattack.optimizer
from conftest import complete_network, random_instance, random_params, restricted_outcome
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
    generate,
    marginal_gains,
    solve_attack,
    solve_follower,
)
from fjattack.adversary import _restricted_blocks
from fjattack.fileio import plan_to_json, save_parameters
from fjattack.linalg import check_conditioned, factor_conditioned, invert_conditioned
from fjattack.optimizer import (
    CONFIG_CHUNK,
    LEADER_CHUNK,
    _approx_scorer,
    _Argmax,
    _branch_and_bound,
    _child_bounds,
    _chunks,
    _exact_scorer,
    _leader_search,
    _SchurGains,
    _search,
    _space_sizer,
    _top_targets,
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
        g_base = restricted_outcome(params, adversaries, (), 0.0)
        g_plus = restricted_outcome(params, adversaries, ((supplier, (target,)),), p)
        predicted = gains.gain[target]
        assert abs((g_plus - g_base) - predicted) <= 1e-2 * abs(predicted) + 1e-12


def test_gain_three_agent_central_difference():
    params, _ = three_agent_instance()
    p = 1e-6
    gains = marginal_gains(params, (2,), p)
    g_plus = restricted_outcome(params, (2,), ((2, (0,)),), p)
    g_minus = restricted_outcome(params, (2,), ((2, (0,)),), -p)
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


def test_cap_none_means_no_cap_in_every_entry():
    _, params = random_instance(31, n=9, density=0.6)
    _, total, _ = scalar_exact_search(params, 2)
    oracle = brute_force_oracle(params, p=1e-3, cap=None)
    assert oracle.config == brute_force_oracle(params, p=1e-3, cap=total).config
    plan = solve_attack(params, p=1e-3, follower_mode="exact", cap=None)
    assert plan.config == oracle.config and plan.follower_candidates == total
    targets, g = solve_follower(params, plan.config.adversaries, 1e-3, "exact", cap=None)
    assert AttackConfig(plan.config.adversaries, targets, 1e-3) == plan.config
    assert g == plan.predicted_g


@pytest.mark.parametrize("cap", ("x", -1, 0, True, 2.5))
@pytest.mark.parametrize(
    "entry",
    (
        lambda params, cap: solve_attack(params, 1e-3, follower_mode="approx", cap=cap),
        lambda params, cap: solve_attack(params, 1e-3, follower_mode="exact", cap=cap),
        lambda params, cap: solve_follower(params, (0, 1), 1e-3, "approx", cap=cap),
        lambda params, cap: solve_follower(params, (0, 1), 1e-3, "exact", cap=cap),
        lambda params, cap: brute_force_oracle(params, 1e-3, cap=cap),
    ),
    ids=("attack_approx", "attack_exact", "follower_approx", "follower_exact", "oracle"),
)
def test_cap_is_checked_in_every_mode(entry, cap, monkeypatch):
    _, params = random_instance(31, n=9, density=0.6)

    def unreachable(*args, **kwargs):
        raise AssertionError("searched before the cap was checked")

    monkeypatch.setattr(fjattack.optimizer, "_search", unreachable)
    monkeypatch.setattr(fjattack.optimizer, "_leader_search", unreachable)
    with pytest.raises(ValidationError, match=r"^cap must be an int >= 1, got "):
        entry(params, cap)


def test_exact_and_oracle_paths_are_conditioning_guarded(monkeypatch):
    _, params = random_instance(60, n=8, density=0.6)
    monkeypatch.setattr(fjattack.linalg, "RCOND_MIN", 1.0)
    with pytest.raises(ConvergenceError, match=r"adversary set \(0, 1\)"):
        solve_attack(params, p=1e-3, follower_mode="exact")
    with pytest.raises(ConvergenceError, match=r"adversary set \(0, 1\)"):
        brute_force_oracle(params, p=1e-3)
    with pytest.raises(ConvergenceError, match=r"adversary set \(2, 5\)"):
        solve_follower(params, (2, 5), 1e-3, mode="exact")
    with pytest.raises(ConvergenceError, match=r"adversary set \(2, 5\)"):
        solve_follower(params, (2, 5), 1e-3, mode="approx")
    with pytest.raises(ConvergenceError, match=r"adversary set \(2, 5\)"):
        marginal_gains(params, (2, 5), 1e-3)


@pytest.mark.parametrize(
    "entry",
    (
        lambda params, everyone: marginal_gains(params, everyone),
        lambda params, everyone: solve_follower(params, everyone, mode="approx"),
        lambda params, everyone: solve_follower(params, everyone, mode="exact"),
        lambda params, everyone: adversarial_outcome(
            params, AttackConfig(everyone, {}, 1e-3), enforce_budgets=False
        ),
    ),
    ids=("marginal_gains", "approx_follower", "exact_follower", "adversarial_outcome"),
)
def test_every_agent_adversarial_is_rejected(entry):
    _, params = random_instance(61, n=6, density=0.6)
    with pytest.raises(ValidationError, match="every agent is adversarial"):
        entry(params, tuple(range(params.n)))


@pytest.mark.parametrize("mode", ("gains", "approx", "exact"))
@pytest.mark.parametrize(
    "adversaries, p, message",
    (
        ((), 1e-3, "adversary set must be nonempty"),
        ((2, 2), 1e-3, "duplicate adversaries in (2, 2)"),
        ((1, 9), 1e-3, "adversary 9 out of range for 7 agents"),
        ((1,), 0.0, "influence magnitude must lie in (0, 1), got 0.0"),
        ((1,), 1.0, "influence magnitude must lie in (0, 1), got 1.0"),
        ((1,), float("nan"), "influence magnitude must lie in (0, 1), got nan"),
        ((), 0.0, "influence magnitude must lie in (0, 1), got 0.0"),
    ),
    ids=("empty", "duplicate", "out_of_range", "p_zero", "p_one", "p_nan", "p_before_set"),
)
def test_fixed_set_entries_reject_bad_sets_and_magnitudes(mode, adversaries, p, message):
    _, params = random_instance(62, n=7)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        if mode == "gains":
            marginal_gains(params, adversaries, p)
        else:
            solve_follower(params, adversaries, p, mode=mode)


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

        def spied(chunk, *read):
            exact_pass[0] = True
            for g, chosen, owner in score(chunk, *read):
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
    # g(A, T) <= sum(z) + the gains of T's targets, counted once per
    # adversary that picks them, up to the stated rounding allowance; z is
    # the pinned fixed point, 1 on A.
    checked = 0
    for name, params in bound_instances():
        for p in (1e-3, 0.2):
            gains = _SchurGains(params, p)
            score = _exact_scorer(params, p)
            for k in range(1, params.network.leader_budget() + 1):
                sets = np.array(list(combinations(range(params.n), k)))
                z, gain = gains.read(sets)
                base = z.sum(axis=1)
                for g, chosen, owner in score(sets):
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


def test_exact_mode_is_one_pass(monkeypatch):
    # Exact solve_attack and exact solve_follower never walk their sets with
    # _leader_search.  The exact scorer gets each chunk the approx scorer
    # gets, right after it: the greedy set and the tree's leaves, each once.
    def walk(*args):
        raise AssertionError("exact mode walked its sets with _leader_search")

    received = []
    real_scorers = {
        name: getattr(fjattack.optimizer, name) for name in ("_approx_scorer", "_exact_scorer")
    }

    def spy(name):
        def scorer_spy(*args, **kwargs):
            score = real_scorers[name](*args, **kwargs)

            def spied(adversaries, *read):
                received.append((name, tuple(map(tuple, adversaries.tolist()))))
                return score(adversaries, *read)

            return spied

        return scorer_spy

    for name in real_scorers:
        monkeypatch.setattr(fjattack.optimizer, name, spy(name))
    monkeypatch.setattr(fjattack.optimizer, "_leader_search", walk)
    _, wide = generate(Scenario(topology="erdos_renyi", n=16, seed=11))
    several = 0
    for name, params in chain(
        regime_instances((10, 12), ("erdos_renyi", "ring")), [("erdos_renyi-16", wide)]
    ):
        received.clear()
        plan = solve_attack(params, p=1e-3, follower_mode="exact")
        approx, exact = received[0::2], received[1::2]
        assert {scorer for scorer, _ in approx} == {"_approx_scorer"}, name
        assert [chunk for _, chunk in approx] == [chunk for _, chunk in exact], name
        sets = [s for _, chunk in exact for s in chunk]
        assert len(set(sets)) == len(sets) and plan.config.adversaries in sets, name
        several += len(sets) > 1
        received.clear()
        solve_follower(params, plan.config.adversaries, p=1e-3, mode="exact")
        one = (plan.config.adversaries,)
        assert received == [("_approx_scorer", one), ("_exact_scorer", one)], name
    assert several >= 3


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
        z, _ = _SchurGains(params, 1e-3).read(sets)
        if z.sum() == solve_attack(params, p=1e-3).predicted_g:
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
        z, gain = gains.read(sets)
        chosen = [i for _, targets in oracle.config.targets for i in targets]
        bound = z.sum() + gain[0, chosen].sum()
        # Where bound < incumbent, a zero slack would prune the winner.
        assert bound >= incumbent - gains.slack(incumbent)
        undercut += bound < incumbent
    assert undercut >= 1


THETA_REGIMES = ((0.2, 0.8), (0.0, 0.05), (0.0, 1.0))


def regime_instances(sizes, topologies=("complete", "erdos_renyi", "ring", "star")):
    for topology in topologies:
        for theta in THETA_REGIMES:
            for n in sizes:
                _, params = generate(Scenario(topology=topology, n=n, seed=n, theta_dist=theta))
                yield f"{topology}-{theta}-{n}", params


def node_scores(gains, nodes):
    """``gains.scores`` of a stack of built nodes, read off R's diagonal."""
    return gains.scores(*nodes[2:], np.diagonal(nodes[1], axis1=1, axis2=2))


def tree_path_bounds(gains, k):
    """Every size-k set, walked down the leader tree unpruned (pinned in
    rank order), with the smallest of the child bounds along its path: the
    tree drops the set only when one of them is below its threshold.  Each
    child bound is at most its parent's UB+(S, C)."""
    nodes, path = gains.root, np.array([np.inf])
    for _ in range(k):
        bound = _child_bounds(gains.rank, nodes[0], *node_scores(gains, nodes), k)
        owner, v = np.nonzero(np.isfinite(bound))
        path = np.minimum(path[owner], bound[owner, v])
        nodes = gains.pin(nodes, gains.step(nodes, owner, v))
    return nodes[0], path


def test_leader_bound_covers_every_set():
    # The tree's node bounds, read off each parent's (R, z) by rank-1
    # downdates, cap every completion's first-order bound UB(A) and every
    # exact g of it, up to the rounding slack, at every depth.  Exact g is
    # solved for every configuration where a size has at most 20,000 (all
    # but complete n = 9 and 10).
    checked = 0
    for name, params in regime_instances(range(6, 11)):
        for p in (1e-3, 0.2):
            gains = _SchurGains(params, p)
            bounds = []
            approx, exact = _approx_scorer(params, p, gains, bounds), _exact_scorer(params, p)
            for k in range(1, params.network.leader_budget() + 1):
                sets, path = tree_path_bounds(gains, k)
                assert (np.diff(gains.rank[sets], axis=1) > 0).all()
                sets = np.sort(sets, axis=1)
                assert sorted(map(tuple, sets.tolist())) == list(combinations(range(params.n), k))
                list(approx(sets, *gains.read(sets)))
                assert (bounds[-1] <= path + gains.slack(bounds[-1].max())).all(), name
                if count_configurations(params.network, k) > 20_000:
                    continue
                for g, _, owner in exact(sets):
                    assert (g <= path[owner] + gains.slack(g.max())).all(), name
                    checked += len(g)
    assert checked > 100_000


def test_tree_downdates_match_direct_restricted_reads():
    # Every node's R, z and 1^T R, built from M^-1 by one rank-1 downdate
    # per pinned agent, against the inverse of its restricted M_UU, its
    # column sums and its pinned fixed point solved directly.  The
    # tolerance, n eps kappa_1(M), is a 64n-th of the slack.  The tree
    # scores a child before it builds R': its z, 1^T R and diagonal from
    # ``step`` are bitwise those of the built node.
    for name, params in regime_instances(range(6, 11)):
        gains = _SchurGains(params, 1e-3)
        n, k = params.n, params.network.leader_budget()
        kappa = np.abs(gains.system).sum(axis=0).max() * np.abs(gains.minv).sum(axis=0).max()
        tolerance = n * np.finfo(float).eps * kappa
        nodes = gains.root
        for _ in range(k):
            bound = _child_bounds(gains.rank, nodes[0], *node_scores(gains, nodes), k)
            owner, v = np.nonzero(np.isfinite(bound))
            *_, light_z, light_reach, diagonal = gains.step(nodes, owner, v)
            nodes = gains.pin(nodes, gains.step(nodes, owner, v))
            sets, inverse, z, reach = nodes
            assert diagonal.tobytes() == np.diagonal(inverse, axis1=1, axis2=2).tobytes()
            assert light_z.tobytes() == z.tobytes() and light_reach.tobytes() == reach.tobytes()
            rows = np.arange(len(sets))[:, None]
            blocks = _restricted_blocks(params, np.sort(sets, axis=1))
            pinned, unpinned, w_uu, w_ua, open_minded, base_rhs = blocks
            restricted = np.eye(n - sets.shape[1]) - open_minded[:, :, None] * w_uu
            direct = np.zeros_like(inverse)
            direct[rows[:, :, None], unpinned[:, :, None], unpinned[:, None, :]] = np.linalg.inv(
                restricted
            )
            fixed = np.ones_like(z)
            rhs = base_rhs + open_minded * w_ua.sum(axis=2)
            fixed[rows, unpinned] = np.linalg.solve(restricted, rhs[:, :, None])[:, :, 0]
            scale = np.abs(direct).max(axis=(1, 2))
            assert (np.abs(inverse - direct).max(axis=(1, 2)) <= tolerance * scale).all(), name
            assert np.abs(z - fixed).max() <= tolerance, name
            error = np.abs(reach - direct.sum(axis=1)).max(axis=1)
            assert (error <= n * tolerance * scale).all(), name
            # Pinned rows and columns are zeroed exactly, pinned z set to 1.
            assert not inverse[pinned].any() and not inverse.transpose(0, 2, 1)[pinned].any()
            assert (z[pinned] == 1.0).all() and not reach[pinned].any()


def kernel_state(gains):
    """Each attribute of a kernel by name: its identity and its contents,
    arrays as bytes and tuples walked."""

    def contents(value):
        if isinstance(value, np.ndarray):
            return value.dtype, value.shape, value.tobytes()
        if isinstance(value, tuple):
            return tuple(map(contents, value))
        return value

    return {name: (id(value), contents(value)) for name, value in vars(gains).items()}


def test_gain_kernel_keeps_no_search_state():
    # The tree hands each leaf chunk its read, and ``read`` returns one, so
    # after __init__ the kernel is read only: a search over several sizes
    # and reads of interleaved stacks leave every attribute as it was, and
    # a stack reads the same bits before and after the others.
    for topology in ("complete", "erdos_renyi", "ring", "star"):
        _, params = generate(Scenario(topology=topology, n=14, seed=1))
        gains = _SchurGains(params, 1e-3)
        before = kernel_state(gains)
        best, score = _Argmax(), _approx_scorer(params, 1e-3, gains, [])
        for k in (4, 3, 2):
            _branch_and_bound(gains, k, score, best)
        assert best.key is not None
        stacks = [
            np.array(list(combinations(range(14), k))[::stride])
            for k, stride in ((4, 50), (2, 7), (4, 33), (1, 1))
        ]
        first = [gains.read(stack) for stack in stacks]
        for stack, read in zip(reversed(stacks), reversed(first)):
            again = gains.read(stack)
            assert all(x.tobytes() == y.tobytes() for x, y in zip(read, again)), topology
        assert kernel_state(gains) == before, topology


def record_approx_reads(monkeypatch):
    """A list that collects, for every set the approx scorer scores, the
    set and the bytes of its g, target mask and UB(A)."""
    reads = []
    real_scorer = fjattack.optimizer._approx_scorer

    def scorer_spy(params, p, gains, bounds):
        score = real_scorer(params, p, gains, bounds)

        def spied(adversaries, *read):
            for g, chosen, owner in score(adversaries, *read):
                reads.extend(
                    (tuple(adversaries[b].tolist()), (g[b], chosen[b], bounds[-1][b]))
                    for b in owner.tolist()
                )
                yield g, chosen, owner

        return spied

    monkeypatch.setattr(fjattack.optimizer, "_approx_scorer", scorer_spy)
    return reads


def test_approx_reads_do_not_depend_on_the_stack(monkeypatch):
    # A set's g, target mask and UB(A) are bitwise the same read alone, in
    # its enumeration chunk or in a shuffled stack.  Every set the tree
    # scores, the greedy set first among them (read off the dive's nodes
    # where the dive pinned in rank order), reads the same bits as one-set
    # solve_follower and as the scorer over enumeration, which pin it from
    # the root in rank order; at n <= 14 so does every leaf of the
    # unpruned tree, read off its parent.  So the tree keeps enumeration's
    # plans and bounds.
    def same(x, y):
        return all(a.tobytes() == b.tobytes() for a, b in zip(x, y))

    for topology in ("complete", "erdos_renyi", "ring", "star"):
        for n, seed in ((10, 1), (14, 2), (20, 3)):
            _, params = generate(Scenario(topology=topology, n=n, seed=seed))
            k = params.network.leader_budget()
            bounds, kernel = [], _SchurGains(params, 1e-3)
            score = _approx_scorer(params, 1e-3, kernel, bounds)

            def read(stack):
                ((g, chosen, _),) = score(stack, *kernel.read(stack))
                return g, chosen, bounds[-1]

            chunk = next(_chunks([combinations(range(n), k)]))
            shuffle = np.random.default_rng(seed).permutation(len(chunk))
            together = read(chunk)
            shuffled = [x[np.argsort(shuffle)] for x in read(chunk[shuffle])]
            for b in range(len(chunk)):
                alone = read(chunk[b : b + 1])
                for x, y, z in zip(alone, together, shuffled):
                    assert x[0].tobytes() == y[b].tobytes() == z[b].tobytes(), (topology, n, b)

            with pytest.MonkeyPatch.context() as patch:
                reads = record_approx_reads(patch)
                plan = solve_attack(params, p=1e-3)
                tree = dict(reads)
                assert len(tree) == len(reads) and plan.config.adversaries in tree
                for adversaries, numbers in tree.items():
                    reads.clear()
                    _, g = solve_follower(params, adversaries, p=1e-3)
                    ((_, alone),) = reads
                    assert same(numbers, alone), (topology, n, adversaries)
                    assert float.hex(g) == float.hex(float(numbers[0])), (topology, n)
            index = {s: i for i, s in enumerate(combinations(range(n), k))}
            chunks = np.array(list(combinations(range(n), k)))
            for lo in sorted({index[s] // LEADER_CHUNK * LEADER_CHUNK for s in tree}):
                enumerated = read(chunks[lo : lo + LEADER_CHUNK])
                for adversaries, numbers in tree.items():
                    if lo <= index[adversaries] < lo + LEADER_CHUNK:
                        b = index[adversaries] - lo
                        assert same(numbers, [x[b] for x in enumerated]), (topology, n)
            if n > 14:
                continue
            gains = _SchurGains(params, 1e-3)
            leaf_score = _approx_scorer(params, 1e-3, gains, bounds)
            nodes = gains.root
            for depth in range(k):
                bound = _child_bounds(gains.rank, nodes[0], *node_scores(gains, nodes), k)
                owner, v = np.nonzero(np.isfinite(bound))
                if depth < k - 1:
                    nodes = gains.pin(nodes, gains.step(nodes, owner, v))
            covered = []
            for lo in range(0, len(v), LEADER_CHUNK):
                part = slice(lo, lo + LEADER_CHUNK)
                leaves, *leaf_read = gains.leaves(nodes, owner[part], v[part])
                covered.extend(map(tuple, leaves.tolist()))
                ((g, chosen, _),) = leaf_score(leaves, *leaf_read)
                assert same((g, chosen, bounds[-1]), read(leaves.copy())), (topology, n, lo)
            assert sorted(covered) == list(combinations(range(n), k))


def assert_pruned_matches_enumeration(name, params, sizes, p=1e-3):
    """solve_attack against _leader_search over every set, unpruned; returns
    the number of sets the pruned search scored."""
    scored = []
    real_scorer = fjattack.optimizer._approx_scorer

    def scorer_spy(*args):
        score = real_scorer(*args)

        def spied(adversaries, *read):
            scored.append(len(adversaries))
            return score(adversaries, *read)

        return spied

    bounds, gains = [], _SchurGains(params, p)
    approx = _approx_scorer(params, p, gains, bounds)
    (adversaries, items), g, sets, _ = _leader_search(
        [combinations(range(params.n), k) for k in sizes],
        lambda chunk: approx(chunk, *gains.read(chunk)),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fjattack.optimizer, "_approx_scorer", scorer_spy)
        plan = solve_attack(params, p=p, leader_size=sizes[-1], all_leader_sizes=len(sizes) > 1)
    assert plan.config == AttackConfig(adversaries, items, p), name
    assert float.hex(plan.predicted_g) == float.hex(g), name
    assert float.hex(plan.upper_bound) == float.hex(max(b.max() for b in bounds)), name
    assert plan.leader_evaluations == plan.follower_candidates == sets, name
    return sum(scored)


def test_pruned_leader_search_matches_enumeration():
    # n = 13..17 in every regime and n = 19 in the hard one (theta in
    # (0, 0.05)), where the bounds are loosest.
    pruned = 0
    instances = chain(
        regime_instances(range(13, 18)),
        (
            (name, params)
            for name, params in regime_instances((19,))
            if "(0.0, 0.05)" in name
        ),
    )
    for name, params in instances:
        budget = params.network.leader_budget()
        scored = assert_pruned_matches_enumeration(name, params, (budget,))
        pruned += scored < math.comb(params.n, budget)
    for name, params in regime_instances((13,), ("complete", "erdos_renyi")):
        assert_pruned_matches_enumeration(name, params, range(1, 5))
    assert pruned >= 60


def test_ranked_tree_matches_enumeration_on_small_grids():
    # n = 6..12 in every topology and theta regime, at the full budget.
    for name, params in regime_instances(range(6, 13)):
        assert_pruned_matches_enumeration(name, params, (params.network.leader_budget(),))


def test_rank_free_sums_match_a_full_selection():
    # top_sums and _child_bounds sum their largest values without a rank
    # per agent.  On values drawn from a few levels (ties, zeros and
    # negatives), on networks whose target budgets run from 0 up, they
    # match _top_targets' selection and a full sort within rounding.
    rng = np.random.default_rng(5)
    levels = np.array([-0.5, 0.0, 0.25, 0.5, 1.0])
    budgets_seen = set()
    for topology in ("complete", "erdos_renyi", "ring", "star"):
        for n in (5, 9, 14):
            _, params = generate(Scenario(topology=topology, n=n, seed=n))
            gains = _SchurGains(params, 1e-3)
            budgets_seen.add(int(gains.budgets.max()))
            gain = rng.choice(levels, size=(40, n))
            chosen = _top_targets(gain[:, None, :], gains.others[None], gains.budgets[None])
            want = np.where(chosen, gain[:, None, :], 0.0).sum(axis=2)
            assert np.abs(gains.top_sums(gain) - want).max() <= 1e-15 * n, (topology, n)
            k = params.network.leader_budget()
            rank = rng.permutation(n)
            for size in range(k):
                picks = [rng.choice(n, size, replace=False) for _ in range(30)]
                picks = [sorted(pick, key=rank.__getitem__) for pick in picks]
                sets = np.array(picks, dtype=np.intp).reshape(30, size)
                scores = rng.choice(levels, size=(30, n))
                scores[np.arange(30)[:, None], sets] = -np.inf
                base = rng.choice(levels, size=30)
                bound = _child_bounds(rank, sets, base, scores, k)
                later = k - size - 1
                for b in range(30):
                    last = rank[sets[b, -1]] if size else -1
                    for v in range(n):
                        if not last < rank[v] < n - later:
                            assert bound[b, v] == -np.inf
                            continue
                        rest = -np.sort(-scores[b, rank > rank[v]])[:later]
                        want = base[b] + scores[b, v] + rest.sum()
                        assert abs(bound[b, v] - want) <= 1e-15 * n, (topology, n, size)
    assert budgets_seen >= {0, 1, 2}


def count_tree_work(monkeypatch):
    """[nodes pinned, sets scored], counted by spies on ``_SchurGains.pin``
    and on the approx scorer."""
    work = [0, 0]
    real_pin = _SchurGains.pin
    real_scorer = fjattack.optimizer._approx_scorer

    def pin_spy(self, nodes, step):
        work[0] += len(step[1])
        return real_pin(self, nodes, step)

    def scorer_spy(*args):
        score = real_scorer(*args)

        def spied(adversaries, *read):
            work[1] += len(adversaries)
            return score(adversaries, *read)

        return spied

    monkeypatch.setattr(_SchurGains, "pin", pin_spy)
    monkeypatch.setattr(fjattack.optimizer, "_approx_scorer", scorer_spy)
    return work


@pytest.mark.parametrize("topology", ("erdos_renyi", "ring"))
def test_ranked_tree_work_stays_small_at_n_40(monkeypatch, topology):
    # With the children taken in index order, these plans pinned 74,452
    # (Erdos-Renyi) and 693,086 (ring, where every target budget is 0)
    # nodes to certify the greedy set.  Ranked by root score, the tree
    # certifies it after a few hundred, and scores next to nothing else.
    _, params = generate(Scenario(topology=topology, n=40, seed=1))
    work = count_tree_work(monkeypatch)
    plan = solve_attack(params, p=1e-3)
    pinned, scored = work
    assert pinned <= 2_000 and scored <= 16, (pinned, scored)
    assert plan.leader_evaluations == math.comb(40, 13)


def test_greedy_set_is_pinned_once(monkeypatch):
    # The dive pins k - 1 agents in greedy order; the greedy set is read
    # off its canonical node, pinned in rank order, reusing the dive's
    # nodes for the prefix where the two orders agree.  So it costs the
    # dive's k - 1 pins plus one per agent past that prefix.
    canonical_dives = 0
    for topology in ("complete", "erdos_renyi", "star"):
        for seed in range(4):
            _, params = generate(Scenario(topology=topology, n=14, seed=seed))
            k = params.network.leader_budget()
            pins, first = [], []
            real_pin = _SchurGains.pin
            real_scorer = fjattack.optimizer._approx_scorer

            def pin_spy(self, nodes, step):
                pins.append(step[1].tolist())
                return real_pin(self, nodes, step)

            def scorer_spy(*args):
                score = real_scorer(*args)

                def spied(adversaries, *read):
                    first.append((len(pins), adversaries[0].tolist()))
                    return score(adversaries, *read)

                return spied

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(_SchurGains, "pin", pin_spy)
                patch.setattr(fjattack.optimizer, "_approx_scorer", scorer_spy)
                solve_attack(params, p=1e-3)
            count, greedy = first[0]
            gains = _SchurGains(params, 1e-3)
            dive = [v for (v,) in pins[: k - 1]]
            canonical = sorted(greedy, key=lambda a: gains.rank[a])
            reused = next((i for i in range(k - 1) if dive[i] != canonical[i]), k - 1)
            assert reused >= 1 and count == 2 * (k - 1) - reused, (topology, seed)
            canonical_dives += reused == k - 1
    assert canonical_dives >= 2


def test_zero_magnitude_takes_no_gain_step(monkeypatch):
    # At p = 0 every gain is exactly 0: node scores and the approx scorer
    # skip the top-target step, and no target is chosen.
    def refuse(*args):
        raise AssertionError("top-target step at p = 0")

    monkeypatch.setattr(fjattack.optimizer, "_top_targets", refuse)
    _, params = generate(Scenario(topology="complete", n=10, seed=3))
    gains = _SchurGains(params, 0.0)
    assert not gains.targeting
    assert not gains.top_sums(np.ones((2, 10))).any()
    (adversaries, items), g, _, _, upper = _search(params, 0.0, "approx", None, (3,))
    assert all(targets == () for _, targets in items)
    assert upper >= g


def test_pruned_leader_search_keeps_star_ties_at_zero_slack(monkeypatch):
    # Star leaves hear only the hub, so many sets tie; with no slack the
    # strict comparison alone must keep every set that can win or tie.
    monkeypatch.setattr(_SchurGains, "slack", lambda self, g: 0.0)
    for name, params in regime_instances(range(6, 20), ("star",)):
        assert_pruned_matches_enumeration(name, params, (params.network.leader_budget(),))


def test_leader_bound_keeps_a_later_size_tie_at_zero_slack(monkeypatch):
    # Fully stubborn agents with 0/1 opinions make every sum exact: (0,)
    # and every pair holding 0 tie at g = sum(s) + 1, and the tree's bound
    # for (0,) equals that g bitwise.  Size 2 runs first, so (0, 1) is the
    # incumbent when (0,), the smaller key, meets its bound; only a
    # non-strict comparison keeps it.
    network = complete_network(7)
    base = random_params(np.random.default_rng(16), network)
    intrinsic = np.ones(7)
    intrinsic[0] = 0.0
    params = FjParameters(network, intrinsic, np.ones(7), base.influence)
    monkeypatch.setattr(_SchurGains, "slack", lambda self, g: 0.0)
    assert_pruned_matches_enumeration("stubborn ties", params, (1, 2))
    plan = solve_attack(params, p=1e-3, all_leader_sizes=True)
    assert plan.config.adversaries == (0,)
    assert plan.predicted_g == 7.0


def scored_sets_by_size_order(params, order, p=1e-3):
    """The tree over the sizes in ``order`` with one shared incumbent:
    ((adversaries, items), g, sets scored)."""
    gains, scored = _SchurGains(params, p), []
    approx = _approx_scorer(params, p, gains, [])

    def spied(adversaries, *read):
        scored.append(len(adversaries))
        return approx(adversaries, *read)

    best = _Argmax()
    for k in order:
        _branch_and_bound(gains, k, spied, best)
    return best.key, best.g, sum(scored)


def spy_on_scored_sets(monkeypatch):
    """A list that collects, as tuples, every set the approx scorer gets."""
    scored = []
    real_scorer = fjattack.optimizer._approx_scorer

    def scorer_spy(*args):
        score = real_scorer(*args)

        def spied(adversaries, *read):
            scored.extend(map(tuple, adversaries.tolist()))
            return score(adversaries, *read)

        return spied

    monkeypatch.setattr(fjattack.optimizer, "_approx_scorer", scorer_spy)
    return scored


def test_all_leader_sizes_runs_the_largest_size_first(monkeypatch):
    # The argmax does not depend on the order; searching the largest size
    # first gives the smaller sizes a strong incumbent.
    _, params = generate(Scenario(topology="complete", n=14, seed=11))
    scored = spy_on_scored_sets(monkeypatch)
    plan = solve_attack(params, p=1e-3, all_leader_sizes=True)
    key, g, smallest_first = scored_sets_by_size_order(params, (1, 2, 3, 4))
    assert (plan.config, plan.predicted_g) == (AttackConfig(*key, 1e-3), g)
    assert scored_sets_by_size_order(params, (4, 3, 2, 1)) == (key, g, len(scored))
    assert len(scored) < smallest_first


def test_leader_tree_scores_every_set_that_ties_its_bound(monkeypatch):
    # Fully stubborn agents with opinions 0, 0, 0, 1, 1, 1, 1 make every sum
    # exact: the pairs of {0, 1, 2} all reach g = 6, and so do their bounds
    # in the tree.  The greedy dive scores (0, 1); the other two pairs meet
    # a bound equal to the incumbent bitwise, and only non-strict
    # comparisons send them on to the tie rule.
    network = complete_network(7)
    base = random_params(np.random.default_rng(16), network)
    intrinsic = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    params = FjParameters(network, intrinsic, np.ones(7), base.influence)
    monkeypatch.setattr(_SchurGains, "slack", lambda self, g: 0.0)
    scored = spy_on_scored_sets(monkeypatch)
    plan = solve_attack(params, p=1e-3, leader_size=2)
    assert (plan.config.adversaries, plan.predicted_g) == ((0, 1), 6.0)
    assert sorted(scored) == [(0, 1), (0, 2), (1, 2)]


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


def scalar_marginal_gains(params, adversaries, p):
    """Per-set scalar reference for the gain kernel: one LU of the set's
    restricted M_UU, a forward solve for z0 and a transposed one for c.
    Returns z0 and the length-n gains."""
    stack = np.array([adversaries])
    _, unpinned, w_uu, w_ua, open_minded, base_rhs = (
        block[0] for block in _restricted_blocks(params, stack)
    )
    ones = np.ones(len(unpinned))
    factor = factor_conditioned(np.diag(ones) - open_minded[:, None] * w_uu)
    adversary_mass = w_ua.sum(axis=1)
    z0 = lu_solve(factor, base_rhs + open_minded * adversary_mass)
    c = open_minded * lu_solve(factor, ones, trans=1)
    gain = np.zeros(params.n)
    gain[unpinned] = p * (1.0 - (w_uu @ z0 + adversary_mass)) * c
    return z0, gain


def scalar_best_response(params, adversaries, p):
    """Per-set scalar reference for the approx follower: each adversary's
    top-budget strictly positive gains, ranked by (-gain, index), then one
    re-score.  Returns (items, g), items in canonical form."""
    network = params.network
    _, gain = scalar_marginal_gains(params, adversaries, p)
    items = []
    for j in adversaries:
        eligible = [i for i in network.out_neighbors(j) if i not in adversaries]
        ranked = sorted(eligible, key=lambda i: (-gain[i], i))
        chosen = [i for i in ranked if gain[i] > 0.0][: network.target_budget(j)]
        items.append((j, tuple(sorted(chosen))))
    return tuple(items), restricted_outcome(params, adversaries, items, p)


def reference_attack(params, sizes, p=1e-3):
    """Scalar reference planner: scalar_best_response on every adversary set
    in combinations order; an exact tie keeps the smaller set, which within
    one size is the first one enumerated."""
    best_g, best = -np.inf, None
    for size in sizes:
        for adversaries in combinations(range(params.n), size):
            items, g = scalar_best_response(params, adversaries, p)
            if g > best_g or (g == best_g and adversaries < best[0]):
                best_g, best = g, (adversaries, items)
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


@pytest.mark.parametrize("all_leader_sizes", (False, True))
def test_approx_counts_one_configuration_per_set(all_leader_sizes):
    _, params = generate(Scenario(topology="erdos_renyi", n=11, seed=5))
    plan = solve_attack(params, p=1e-3, all_leader_sizes=all_leader_sizes)
    sets = 11 + 55 + 165 if all_leader_sizes else 165
    assert plan.follower_candidates == plan.leader_evaluations == sets


def test_unknown_follower_mode_is_one_error():
    _, params = random_instance(7, n=7)
    with pytest.raises(ValidationError) as attack:
        solve_attack(params, p=1e-3, follower_mode="greedy")
    with pytest.raises(ValidationError) as follower:
        solve_follower(params, (0, 1), p=1e-3, mode="greedy")
    assert str(attack.value) == str(follower.value) == "unknown follower mode 'greedy'"


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
    for mode in ("approx", "exact"):
        with pytest.raises(ConvergenceError, match=r"system I - \(I - Theta\) W"):
            solve_follower(params, (2, 5), 1e-3, mode=mode)


def test_approx_search_guards_base_and_rescore_systems(monkeypatch):
    calls = []

    def check_spy(stack, label):
        calls.append(("check", stack.shape))
        return check_conditioned(stack, label)

    def invert_spy(stack, label):
        calls.append(("invert", stack.shape))
        return invert_conditioned(stack, label)

    scored = []
    real_scorer = fjattack.optimizer._approx_scorer

    def scorer_spy(*args):
        score = real_scorer(*args)

        def spied(adversaries, *read):
            scored.append(len(adversaries))
            return score(adversaries, *read)

        return spied

    monkeypatch.setattr(fjattack.optimizer, "check_conditioned", check_spy)
    monkeypatch.setattr(fjattack.optimizer, "invert_conditioned", invert_spy)
    monkeypatch.setattr(fjattack.optimizer, "_approx_scorer", scorer_spy)
    _, params = generate(Scenario(topology="complete", n=14, seed=1))
    plan = solve_attack(params, p=1e-3)
    # The full M first, once per search: it is accepted, so no unscored
    # set is guarded (a principal submatrix of an M-matrix is no worse
    # conditioned in the 1-norm).
    assert calls[0] == ("invert", (1, 14, 14))
    assert [call for call in calls if call[0] == "invert"] == [calls[0]]
    # Then only every scored set's restricted M_UU and re-scored system.
    # Its node read divides only by pivots R_vv >= 1, so no (k, k) block is
    # guarded.  The tree leaves most of the 1,001 sets unscored, yet every
    # set counts as covered.
    checked = [shape for kind, shape in calls if kind == "check"]
    assert 0 < sum(scored) < 1001
    assert {shape[1:] for shape in checked} == {(10, 10)}
    assert sum(shape[0] for shape in checked) == 2 * sum(scored)
    assert plan.leader_evaluations == plan.follower_candidates == 1001


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
            gains = _SchurGains(instance, p)
            for k in range(1, params.network.leader_budget() + 1):
                sets = np.array(list(combinations(range(n), k))[::5])
                z, gain = gains.read(sets)
                unpinned = _restricted_blocks(instance, sets)[1]
                for b, adversaries in enumerate(sets.tolist()):
                    reference_z0, reference_gain = scalar_marginal_gains(
                        instance, adversaries, p
                    )
                    assert (z[b, adversaries] == 1.0).all()
                    np.testing.assert_allclose(
                        z[b, unpinned[b]], reference_z0, rtol=1e-12, atol=1e-12
                    )
                    # Relative to the larger of p and the set's largest gain,
                    # since some sets have every gain zero up to rounding.
                    scale = max(p, np.abs(reference_gain).max())
                    assert np.abs(gain[b] - reference_gain).max() <= 1e-12 * scale
                # The public wrapper: the node read of a one-set stack.
                public = marginal_gains(instance, sets[0], p)
                reference_z0, reference_gain = scalar_marginal_gains(instance, sets[0], p)
                assert public.adversaries == tuple(sets[0].tolist())
                np.testing.assert_allclose(
                    public.base_fixed_point, reference_z0, rtol=1e-12, atol=1e-12
                )
                scale = max(p, np.abs(reference_gain).max())
                assert np.abs(public.gain - reference_gain).max() <= 1e-12 * scale


@pytest.mark.parametrize("topology", ("complete", "ring", "star", "erdos_renyi"))
def test_approx_follower_matches_scalar_reference(topology):
    # The two paths round differently, so a gain that is exactly 0 (a
    # theta = 0 agent whose in-neighbours all sit at opinion 1) can come out
    # as +-1e-19 in one and not the other; only such targets may differ.
    p = 1e-3
    for n in range(4, 14):
        _, params = generate(Scenario(topology=topology, n=n, seed=n))
        for instance in (params, with_open_minded_agents(params)):
            if instance is None:
                continue
            for k in range(1, params.network.leader_budget() + 1):
                for adversaries in list(combinations(range(n), k))[::7]:
                    targets, g = solve_follower(instance, adversaries, p)
                    items, reference_g = scalar_best_response(instance, adversaries, p)
                    _, gain = scalar_marginal_gains(instance, adversaries, p)
                    scale = max(p, np.abs(gain).max())
                    for j, chosen in items:
                        differ = list(set(chosen) ^ set(targets[j]))
                        assert np.abs(gain[differ]).max(initial=0.0) <= 1e-15 * scale
                    assert g == pytest.approx(reference_g, abs=1e-12)


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


def test_small_instance_rejection():
    network, params = random_instance(50, n=3, density=1.0)
    with pytest.raises(ValidationError):
        solve_attack(params, p=1e-3)
    with pytest.raises(ValidationError):
        brute_force_oracle(params, p=1e-3)
    big_net, big_params = random_instance(51, n=9)
    with pytest.raises(ValidationError):
        solve_attack(big_params, p=1e-3, leader_size=5)


@pytest.mark.parametrize("leader_size", (True, 2.5, "2"))
def test_leader_size_must_be_an_int(leader_size):
    network, params = random_instance(50, n=10)
    with pytest.raises(ValidationError, match=r"^leader_size must be an int >= 1, got "):
        solve_attack(params, p=1e-3, leader_size=leader_size)
    with pytest.raises(ValidationError, match=r"^leader_size must be an int >= 0, got "):
        count_configurations(network, leader_size)


def test_leader_size_range_messages():
    network, params = random_instance(50, n=10)
    with pytest.raises(ValidationError, match=r"^leader_size 4 outside the feasible range 1\.\.3$"):
        solve_attack(params, p=1e-3, leader_size=4)
    with pytest.raises(ValidationError, match=r"^leader_size 11 outside 0\.\.10$"):
        count_configurations(network, 11)


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


def test_count_small_cases_by_hand():
    # complete n=4: all target budgets 0, so only the C(4,1) leader choices
    assert count_configurations(complete_network(4)) == 4
    # complete n=7: per adversary 5 eligible targets, budget 1 -> 6 subsets
    assert count_configurations(complete_network(7)) == 21 * 36


def test_space_sizer_matches_direct_subset_sums():
    # The table is filled by a recurrence in exact integers; each set's
    # count is the product over its adversaries of sum_s C(d - o, s), up to
    # the target budget, with o the adversaries among the out-neighbours.
    checked = 0
    for topology in ("complete", "erdos_renyi", "ring", "star"):
        for n in (4, 9, 30, 61):
            network, _ = generate(Scenario(topology=topology, n=n, seed=n))
            support, rng = network.support_mask(), np.random.default_rng(n)
            sizes = _space_sizer(network)
            for k in sorted({1, 2, min(5, n), n - 1, n}):
                sets = np.sort([rng.choice(n, size=k, replace=False) for _ in range(20)], axis=1)
                for count, members in zip(sizes(sets), sets.tolist()):
                    direct = 1
                    for j in members:
                        left = network.out_degree(j) - int(support[members, j].sum())
                        direct *= sum(
                            math.comb(left, s) for s in range(network.target_budget(j) + 1)
                        )
                    assert type(count) is int and count == direct, (topology, n, k)
                    checked += 1
    assert checked == 4 * (4 + 3 * 5) * 20


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


@pytest.mark.parametrize(
    "scores",
    ([0.1, 0.9, 0.3, 0.2], np.ones((5, 1)), [0.1, np.nan, 0.3, 0.2, 0.8], [0.1, np.inf] * 2 + [0.0]),
    ids=("short", "column", "nan", "inf"),
)
@pytest.mark.parametrize("variant", ("II", "III"))
def test_variant_rejects_malformed_external_scores(variant, scores):
    params = random_params(np.random.default_rng(15), complete_network(5))
    with pytest.raises(ValidationError, match=r"^external_scores must be 5 finite values$"):
        baseline_variant(params, variant, leader_size=1, external_scores=scores)


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
