"""Shared instance generators for the test suite.

Everything is seeded through numpy Generators so tests are reproducible;
helpers return plain package objects and never cache state between calls.
"""

import numpy as np

from fjattack import AttackConfig, FjParameters, InfluenceNetwork
from fjattack.linalg import solve_conditioned


def random_network(rng, n, density=0.4):
    """Random directed graph with every in-neighborhood nonempty."""
    edges = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < density
    ]
    covered = {dst for _, dst in edges}
    for dst in range(n):
        if dst not in covered:
            edges.append(((dst + 1) % n, dst))
    return InfluenceNetwork(n, tuple(edges))


def complete_network(n):
    return InfluenceNetwork(
        n, tuple((i, j) for i in range(n) for j in range(n) if i != j)
    )


def topology_edges(topology, n, rng):
    if topology == "complete":
        return tuple(map(tuple, complete_network(n).edges.tolist()))
    if topology == "erdos_renyi":
        network = random_network(rng, n, density=float(rng.uniform(0.1, 0.5)))
        return tuple(map(tuple, network.edges.tolist()))
    if topology == "ring":
        return tuple((i, (i + d) % n) for i in range(n) for d in (1, n - 1))
    return tuple(e for i in range(1, n) for e in ((0, i), (i, 0)))  # star


def large_network(rng, n=1000, density=0.02):
    """Erdos-Renyi network built from one dense draw, plus a ring so every
    agent has an in-neighbour."""
    listens = rng.random((n, n)) < density
    np.fill_diagonal(listens, False)
    listens[np.arange(n), (np.arange(n) + 1) % n] = True
    targets, sources = np.nonzero(listens)
    return InfluenceNetwork(n, tuple(zip(sources.tolist(), targets.tolist())))


def random_params(rng, network, theta_range=(0.05, 0.95)):
    """Uniform opinions and stubbornness, Dirichlet rows on the support."""
    n = network.agent_count
    weights = np.zeros((n, n))
    for i in range(n):
        support = list(network.in_neighbors(i))
        weights[i, support] = rng.dirichlet(np.ones(len(support)))
    return FjParameters(
        network=network,
        intrinsic=rng.uniform(0.0, 1.0, n),
        stubbornness=rng.uniform(*theta_range, n),
        influence=weights,
    )


def random_instance(seed, n=None, density=0.4, theta_range=(0.05, 0.95)):
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(4, 11))
    network = random_network(rng, n, density)
    return network, random_params(rng, network, theta_range)


def random_feasible_config(rng, network, p=1e-3, require_target=False):
    """Uniform attack configuration satisfying every budget constraint.

    Returns None when require_target is set and no sampled adversary has a
    positive target budget.
    """
    n = network.agent_count
    leader_budget = network.leader_budget()
    if leader_budget < 1:
        return None
    size = int(rng.integers(1, leader_budget + 1))
    adversaries = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
    targets = {}
    any_target = False
    for j in adversaries:
        budget = network.target_budget(j)
        pool = [i for i in network.out_neighbors(j) if i not in adversaries]
        budget = min(budget, len(pool))
        if budget < 1:
            targets[j] = ()
            continue
        count = int(rng.integers(0, budget + 1))
        if count == 0:
            targets[j] = ()
            continue
        chosen = rng.choice(len(pool), size=count, replace=False)
        targets[j] = tuple(sorted(pool[k] for k in chosen))
        any_target = True
    if require_target and not any_target:
        return None
    return AttackConfig(adversaries=adversaries, targets=targets, influence_magnitude=p)


def restricted_blocks(params, adversaries):
    """Reference blocks of the restricted systems of a (sets, k) array of
    sorted adversary sets, gathered block by block: (pinned, unpinned,
    W_UU, W_UA, 1 - theta_U, theta_U s_U), each with a leading sets axis."""
    sets, k = adversaries.shape
    n = params.n
    pinned = np.zeros((sets, n), dtype=bool)
    pinned[np.arange(sets)[:, None], adversaries] = True
    unpinned = np.nonzero(~pinned)[1].reshape(sets, n - k)
    w_uu = params.influence[unpinned[:, :, None], unpinned[:, None, :]]
    w_ua = params.influence[unpinned[:, :, None], adversaries[:, None, :]]
    theta_u = params.stubbornness[unpinned]
    return pinned, unpinned, w_uu, w_ua, 1.0 - theta_u, theta_u * params.intrinsic[unpinned]


def dense_reweighted_systems(w_uu, w_ua, open_minded, base_rhs, hits, p):
    """Reference matrix and right-hand side of each re-weighted restricted
    system, built densely from its set's blocks (``restricted_blocks``):
    hits[b, u, a] marks unpinned agent u as a target of adversary a, and
    every row is scaled, targeted or not.  The package patches only the
    targeted rows of each set's untargeted system
    (``adversary._reweighted_systems``) and must match this bit for bit."""
    scale = (1.0 - hits.sum(axis=2) * p)[:, :, None]
    matrix = w_uu * scale
    matrix *= open_minded[:, :, None]
    np.subtract(np.eye(w_uu.shape[1]), matrix, out=matrix)
    mass = w_ua * scale
    mass += p * hits
    return matrix, base_rhs + open_minded * mass.sum(axis=2)


def dense_varah_rows(stack):
    """Reference Varah row data of a (batch, m, m) stack, scanned whole:
    (2 |a_ii| - sum_j |a_ij|, sum_j |a_ij|) per row."""
    a = np.abs(stack)
    row_sums = a.sum(axis=-1)
    return 2.0 * np.diagonal(a, axis1=-2, axis2=-1) - row_sums, row_sums


def restricted_outcome(params, adversaries, items, p):
    """Exact g of one target choice at any p, zero and negative included,
    which AttackConfig rejects.  ``items`` holds (adversary, targets) pairs
    for some of the adversaries; the others pick no target."""
    stack = np.array([adversaries])
    _, unpinned, w_uu, w_ua, open_minded, base_rhs = restricted_blocks(params, stack)
    hits = np.zeros(w_ua.shape, dtype=bool)
    for j, targets in items:
        hits[0, np.searchsorted(unpinned[0], targets), list(adversaries).index(j)] = True
    matrix, rhs = dense_reweighted_systems(w_uu, w_ua, open_minded, base_rhs, hits, p)
    return float(solve_conditioned(matrix[0], rhs[0]).sum()) + len(adversaries)
