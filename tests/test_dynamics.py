"""Core opinion-dynamics behavior against independent oracles.

The oracles here are deliberately naive: a scalar loop for one update and
plain fixed-point iteration for the equilibrium, so any indexing or
vectorization mistake in the library shows up as a disagreement.
"""

import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    complete_network,
    random_feasible_config,
    random_instance,
    random_network,
    random_params,
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
    apply_adversarial_weights,
    closed_form_outcome,
    fj_step,
    recovery_robustness,
    simulate,
    simulate_adversarial,
    solve_attack,
    solve_follower,
)
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


def test_step_rejects_bad_inputs():
    params = two_agent_params()
    with pytest.raises(ValidationError):
        fj_step(params, np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ValidationError):
        fj_step(params, np.array([0.0, 1.5]))
    with pytest.raises(ValidationError):
        fj_step(params, np.array([0.0, 1.0]), pinned=(7,))


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


def topology_edges(topology, n, rng):
    if topology == "complete":
        return complete_network(n).edges
    if topology == "erdos_renyi":
        return random_network(rng, n, density=float(rng.uniform(0.1, 0.5))).edges
    if topology == "ring":
        return tuple((i, (i + d) % n) for i in range(n) for d in (1, n - 1))
    return tuple(e for i in range(1, n) for e in ((0, i), (i, 0)))  # star


def test_rollout_matches_dense_reference():
    rng = np.random.default_rng(909)
    cases = {"theta_0_and_1": 0, "self_loops": 0, "pinned": 0}
    for trial in range(120):
        topology = ("complete", "erdos_renyi", "ring", "star")[trial % 4]
        n = int(rng.integers(4, 41))
        edges = topology_edges(topology, n, rng)
        self_loops = trial % 3 == 0
        if self_loops:
            edges += tuple((i, i) for i in range(n) if rng.random() < 0.5)
        network = InfluenceNetwork(n, edges, allow_self_loops=self_loops)
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
        cases["self_loops"] += self_loops
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


def test_sparse_rollout_matches_dense_reference():
    rng = np.random.default_rng(911)
    n = 1000
    listens = rng.random((n, n)) < 0.02
    np.fill_diagonal(listens, False)
    listens[np.arange(n), (np.arange(n) + 1) % n] = True
    targets, sources = np.nonzero(listens)
    network = InfluenceNetwork(n, tuple(zip(sources.tolist(), targets.tolist())))
    params = random_params(rng, network)
    z0 = rng.uniform(0.0, 1.0, n)
    want = dense_rollout(params, z0, 50, (3, 500), 1.0)
    got = simulate(params, z0, 50, pinned=(3, 500)).values
    assert np.max(np.abs(got - want)) <= 1e-15


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


def reference_network(n, edges, allow_self_loops):
    """The per-edge validation loop InfluenceNetwork once ran, kept as the
    reference for the vectorized one.  Returns the ValidationError message,
    or the canonical edges, in- and out-neighbor tuples and support mask."""
    canon, seen = [], set()
    for src, dst in edges:
        src, dst = int(src), int(dst)
        if not (0 <= src < n and 0 <= dst < n):
            return f"edge ({src}, {dst}) out of range for {n} agents"
        if src == dst and not allow_self_loops:
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
        # A ring keeps most lists valid; random extra edges bring duplicates,
        # and a few planted ones fall out of range or loop.
        edges = [(i, (i + 1) % n) for i in range(n) if trial % 5 or i]
        edges += [tuple(rng.integers(0, n, 2).tolist()) for _ in range(rng.integers(0, 3 * n))]
        edges += [edges[k] for k in rng.integers(0, len(edges), 3)] if edges else []
        for _ in range(rng.choice(3, p=[0.6, 0.25, 0.15])):
            bad = [(int(rng.integers(-2, 0)), 0), (0, n + int(rng.integers(0, 2)))]
            bad.append((int(rng.integers(0, n)),) * 2)
            edges.insert(int(rng.integers(0, len(edges) + 1)), bad[rng.integers(0, 3)])
        rng.shuffle(edges)
        for allow in (False, True):
            expected = reference_network(n, edges, allow)
            if isinstance(expected, str):
                outcomes["error"] += 1
                with pytest.raises(ValidationError) as raised:
                    InfluenceNetwork(n, tuple(edges), allow_self_loops=allow)
                assert str(raised.value) == expected
                continue
            outcomes["ok"] += 1
            network = InfluenceNetwork(n, tuple(edges), allow_self_loops=allow)
            canon, incoming, outgoing, mask = expected
            assert network.edges == canon
            assert all(type(x) is int for edge in network.edges for x in edge)
            assert [network.in_neighbors(i) for i in range(n)] == incoming
            assert [network.out_neighbors(i) for i in range(n)] == outgoing
            assert np.array_equal(network.support_mask(), mask)
    assert min(outcomes.values()) > 100


def test_network_validation_names_the_first_offending_edge():
    with pytest.raises(ValidationError, match=r"self-loop on agent 2"):
        InfluenceNetwork(3, ((0, 1), (2, 2), (0, 5), (1, 1)))
    with pytest.raises(ValidationError, match=r"edge \(0, 5\) out of range for 3 agents"):
        InfluenceNetwork(3, ((0, 1), (0, 5), (2, 2), (-1, 0)), allow_self_loops=True)
    with pytest.raises(ValidationError, match=r"edge \(4, 4\) out of range"):
        InfluenceNetwork(3, ((4, 4), (1, 1)))
    with pytest.raises(ValidationError, match="pairs"):
        InfluenceNetwork(3, ((0, 1, 2),))


def test_network_budgets_and_degrees():
    network = complete_network(7)
    assert network.leader_budget() == 2
    assert network.out_degree(0) == 6
    assert network.target_budget(0) == 1
    star = InfluenceNetwork(4, ((0, 1), (0, 2), (0, 3), (1, 0)))
    assert star.out_degree(0) == 3
    assert star.target_budget(0) == 0
    assert star.target_budget(1) == 0
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
    ),
    ids=("solve_attack_text", "solve_attack_none", "config_text", "ridge_text", "noise_text"),
)
def test_non_numbers_are_validation_errors(message, build):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build()


def planner_params():
    return random_params(np.random.default_rng(0), complete_network(5))


def problem_with_truth():
    network = complete_network(3)
    truth = random_params(np.random.default_rng(0), network)
    trajectory = simulate(truth, np.full(3, 0.5), 4)
    return RecoveryProblem(network=network, trajectories=(trajectory,), truth=truth)


def test_trajectory_validation():
    with pytest.raises(ValidationError):
        OpinionTrajectory(rounds=0, values=np.zeros((1, 2)), pinned=())
    with pytest.raises(ValidationError):
        OpinionTrajectory(rounds=2, values=np.zeros((2, 2)), pinned=())
    with pytest.raises(ValidationError):
        OpinionTrajectory(rounds=1, values=np.full((2, 2), 1.5), pinned=())
