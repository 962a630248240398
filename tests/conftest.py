"""Shared instance generators for the test suite.

Everything is seeded through numpy Generators so tests are reproducible;
helpers return plain package objects and never cache state between calls.
"""

import numpy as np

from fjattack import AttackConfig, ConvergenceError, FjParameters, InfluenceNetwork, ValidationError
from fjattack.dynamics import ROW_SUM_TOL, SPECTRAL_MARGIN, THETA_MIN
from fjattack.linalg import solve_conditioned, spectral_radius


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


def dense_refusal(network, stubbornness, influence):
    """(error type, message) of W's checks as a dense scan of all n^2
    entries makes them, in their order (finite, nonnegative, no weight off
    the edges, row sums, contraction), or None if W passes."""
    w = np.array(influence, dtype=float)
    finite = np.isfinite(w)
    if not finite.all():
        return ValidationError, f"influence weights must be finite, got {float(w[~finite][0])!r}"
    if (w < 0).any():
        return ValidationError, "influence weights must be nonnegative"
    if (w[~network.support_mask()] != 0).any():
        return ValidationError, "influence has nonzero weight outside the edge set"
    row_sums = w.sum(axis=1)
    bad = np.abs(row_sums - 1.0) > ROW_SUM_TOL
    if bad.any():
        i = int(np.argmax(bad))
        return ValidationError, f"influence row {i} sums to {row_sums[i]!r}, expected 1 within {ROW_SUM_TOL}"
    theta = np.asarray(stubbornness, dtype=float)
    if (theta < THETA_MIN).any():
        limit = 1.0 - SPECTRAL_MARGIN
        radius = spectral_radius((1.0 - theta)[:, None] * w, threshold=limit)
        if radius > limit:
            return ConvergenceError, (
                f"dynamics do not contract: spectral radius {radius:.12f} with stubbornness below {THETA_MIN}"
            )
    return None


def malformed_instances(seed=0):
    """(name, params, stubbornness, W, on_edges) of W, or theta, that
    FjParameters refuses: valid parameters on four topologies with one
    fault each, or two to see which one is named first.  ``on_edges``
    tells whether every entry W changes lies on an edge."""
    rng = np.random.default_rng(seed)
    for topology in ("complete", "erdos_renyi", "ring", "star"):
        n = int(rng.integers(5, 9))
        params = random_params(rng, InfluenceNetwork(n, topology_edges(topology, n, rng)))
        theta = params.stubbornness
        targets, sources = params.network._support
        off_rows, off_cols = np.nonzero(~params.network.support_mask())
        # The first and last entries on and off the edges, in row-major order.
        on = [(targets[0], sources[0]), (targets[-1], sources[-1])]
        off = [(off_rows[0], off_cols[0]), (off_rows[-1], off_cols[-1])]
        faults = {
            "nan_on": ([(on[0], np.nan)], True),
            "nan_off": ([(off[0], np.nan)], False),
            "inf_on": ([(on[1], np.inf)], True),
            "inf_off": ([(off[1], -np.inf)], False),
            "negative_on": ([(on[0], -0.25)], True),
            "negative_off": ([(off[1], -0.25)], False),
            "positive_off": ([(off[0], 0.25)], False),
            "row_sum": ([(on[1], params.influence[on[1]] + 1e-6)], True),
            "negative_before_nan": ([(on[0], -0.25), (on[1], np.nan)], True),
            "nan_off_and_inf_on": ([(off[0], np.nan), (on[1], np.inf)], False),
            "inf_on_and_nan_off": ([(on[0], np.inf), (off[1], np.nan)], False),
        }
        for name, (entries, on_edges) in faults.items():
            w = np.array(params.influence)
            for index, value in entries:
                w[index] = value
            yield f"{topology}-{name}", params, theta, w, on_edges
        yield f"{topology}-theta0", params, np.zeros(n), np.array(params.influence), True
