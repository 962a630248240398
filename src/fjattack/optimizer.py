"""Two-level search for the most damaging attack configuration.

The leader level enumerates adversary sets of a given size; the follower
level picks each adversary's targets.  The follower comes in two modes:

* ``exact`` enumerates every joint target choice across the adversaries
  (subject to a configuration cap) and keeps the best.
* ``approx`` scores each candidate targeting edge by its first-order
  effect on the aggregate g and keeps the top strictly-positive ones per
  adversary, then re-scores the assembled choice exactly once.

The first-order score of pointing one more adversary at agent i is

    m_i = p * (1 - r_i) * c_i

where r_i is the opinion mass row i already receives at the unattacked
pinned fixed point (weighted base opinions of its unpinned in-neighbors
plus the weight it places on adversaries, which broadcast 1), and c_i
measures how strongly a unit injected into agent i's mixing moves g.
Writing M = I - (I - Theta_U) W_UU for the restricted system, c is

    c = (I - Theta_U) M^-T 1

so both the base fixed point and c come from one factorization (or one
inverse) of M.  Gains are nonnegative up to rounding and additive to first
order when several adversaries pick the same target.

solve_attack runs the approx follower for every adversary set in chunks
of LEADER_CHUNK sets: the chunk's W_UU / W_UA blocks are stacked, one
batched inverse of M yields every set's z0 and c, a masked stable
top-budget selection picks the targets, and one batched solve re-scores
the re-weighted systems.  Every base and re-scored system passes the
batched rcond guard ``linalg.invert_conditioned``, which names the
adversary set it rejects.  ``marginal_gains`` and ``solve_follower`` keep
the per-set scalar path, the reference the batched search is tested
against.

Tie-breaking is deterministic everywhere: higher g wins, then the smaller
adversary tuple, then the smaller canonical target tuple.
"""

import math
import time
from dataclasses import dataclass
from itertools import combinations, islice, product

import numpy as np
from scipy.linalg import lu_solve

from .adversary import DEFAULT_P, AttackConfig, _RestrictedSystem
from .errors import CapExceededError, ValidationError
from .linalg import factor_conditioned, invert_conditioned

# Exhaustive target enumeration refuses to look at more configurations than this.
DEFAULT_CONFIG_CAP = 10_000_000

# Adversary sets scored together by the batched approx search.  A chunk's
# temporaries peak near 0.9 MB at n = 14 and 1.6 MB at n = 20; of 32-1024
# sets per chunk, 128 ran fastest at both sizes.
LEADER_CHUNK = 128


@dataclass(frozen=True, eq=False)
class MarginalGains:
    """First-order gain of adding one targeting edge toward each agent.

    ``gain`` has length n with zeros at the adversaries (they cannot be
    targeted); ``base_fixed_point`` is the pinned fixed point over the
    unpinned agents with no targeting applied.
    """

    adversaries: tuple
    unpinned: tuple
    base_fixed_point: np.ndarray
    gain: np.ndarray


@dataclass(frozen=True, eq=False)
class AttackPlan:
    """Search result: the chosen attack plus bookkeeping about the search.

    follower_candidates counts exact evaluations of the restricted system
    in exact mode and, in approx mode, three per adversary set: the two
    gain solves and the re-score of the per-set follower.  wall_time is
    in seconds.
    """

    config: AttackConfig
    predicted_g: float
    leader_evaluations: int
    follower_candidates: int
    wall_time: float


def _check_adversary_set(network, adversaries):
    """Structural checks only; staying within the leader budget is the
    caller's business (solve_attack generates within-budget sets itself)."""
    adversaries = tuple(sorted(int(j) for j in adversaries))
    if not adversaries:
        raise ValidationError("adversary set must be nonempty")
    if len(set(adversaries)) != len(adversaries):
        raise ValidationError(f"duplicate adversaries in {adversaries}")
    n = network.agent_count
    for j in adversaries:
        if not 0 <= j < n:
            raise ValidationError(f"adversary {j} out of range for {n} agents")
    return adversaries


def _check_leader_size(network, leader_size):
    """Resolve leader_size (default: the full adversary budget) and check it."""
    budget = network.leader_budget()
    if budget < 1:
        raise ValidationError(
            f"{network.agent_count} agents leave no adversary budget; need at least 4"
        )
    if leader_size is None:
        return budget
    if not 1 <= leader_size <= budget:
        raise ValidationError(
            f"leader_size {leader_size} outside the feasible range 1..{budget}"
        )
    return leader_size


def _check_magnitude(p):
    p = float(p)
    if not np.isfinite(p) or not 0.0 < p < 1.0:
        raise ValidationError(f"influence magnitude must lie in (0, 1), got {p!r}")
    return p


def marginal_gains(params, adversaries, p=DEFAULT_P):
    """First-order gain in g per added targeting edge, for a fixed adversary set.

    Solves the unattacked pinned system once (LU of the restricted matrix,
    then one forward and one transposed solve) and reads off

        m_i = p * (1 - r_i) * c_i      for unpinned i,  m_i = 0 otherwise.
    """
    adversaries = _check_adversary_set(params.network, adversaries)
    p = _check_magnitude(p)
    system = _RestrictedSystem(params, adversaries)
    open_minded = 1.0 - system.theta_u
    matrix = system.eye - open_minded[:, None] * system.w_uu
    factor = factor_conditioned(matrix)
    adversary_mass = system.w_ua.sum(axis=1)
    z0 = lu_solve(factor, system.theta_u * system.s_u + open_minded * adversary_mass)
    ones = np.ones(len(system.unpinned))
    c = open_minded * lu_solve(factor, ones, trans=1)
    received = system.w_uu @ z0 + adversary_mass
    gain = np.zeros(params.n)
    gain[list(system.unpinned)] = p * (1.0 - received) * c
    return MarginalGains(
        adversaries=adversaries,
        unpinned=system.unpinned,
        base_fixed_point=z0,
        gain=gain,
    )


def _target_subsets(network, adversaries):
    """Per-adversary candidate target tuples, canonically ordered (size, lex)."""
    adv_set = set(adversaries)
    subset_lists = []
    for j in adversaries:
        eligible = [i for i in network.out_neighbors(j) if i not in adv_set]
        budget = min(network.target_budget(j), len(eligible))
        subset_lists.append(
            [c for size in range(budget + 1) for c in combinations(eligible, size)]
        )
    return subset_lists


def _exact_space_size(network, adversaries):
    adv_set = set(adversaries)
    total = 1
    for j in adversaries:
        eligible = sum(1 for i in network.out_neighbors(j) if i not in adv_set)
        budget = min(network.target_budget(j), eligible)
        total *= sum(math.comb(eligible, size) for size in range(budget + 1))
    return total


def _best_response(params, adversaries, p, mode, cap):
    """Follower search for a fixed adversary set.

    Returns (target_items, g, evaluations) with target_items in canonical
    (adversary, sorted targets) form and g the exact outcome of that choice.
    """
    network = params.network
    if mode == "approx":
        gains = marginal_gains(params, adversaries, p)
        gain = gains.gain
        adv_set = set(adversaries)
        items = []
        for j in adversaries:
            eligible = [i for i in network.out_neighbors(j) if i not in adv_set]
            ranked = sorted(eligible, key=lambda i: (-gain[i], i))
            chosen = [i for i in ranked if gain[i] > 0.0][: network.target_budget(j)]
            items.append((j, tuple(sorted(chosen))))
        items = tuple(items)
        system = _RestrictedSystem(params, adversaries)
        _, g = system.outcome(items, p)
        return items, g, 3
    if mode == "exact":
        total = _exact_space_size(network, adversaries)
        if total > cap:
            raise CapExceededError(
                f"exact follower space has {total} configurations, cap is {cap}"
            )
        system = _RestrictedSystem(params, adversaries)
        best_items, best_g = None, -math.inf
        for combo in product(*_target_subsets(network, adversaries)):
            items = tuple(zip(adversaries, combo))
            _, g = system.outcome(items, p)
            if g > best_g or (g == best_g and items < best_items):
                best_items, best_g = items, g
        return best_items, best_g, total
    raise ValidationError(f"unknown follower mode {mode!r}")


def solve_follower(params, adversaries, p=DEFAULT_P, mode="approx", cap=DEFAULT_CONFIG_CAP):
    """Best target choice for a fixed adversary set; returns (targets, g).

    ``targets`` maps every adversary to its (possibly empty) tuple of
    targets; ``g`` is the exact outcome of that choice.
    """
    adversaries = _check_adversary_set(params.network, adversaries)
    p = _check_magnitude(p)
    items, g, _ = _best_response(params, adversaries, p, mode, cap)
    return dict(items), g


def _score_chunk(params, adversaries, p, listeners, target_budgets):
    """Approx follower for a chunk of same-size adversary sets at once.

    ``adversaries`` is a (sets, k) array of sorted sets.  Returns the exact
    g of every set's chosen targets and the (sets, k, n) boolean choice
    mask.  The arithmetic mirrors marginal_gains followed by
    _RestrictedSystem.outcome, stacked over the chunk.
    """
    sets, k = adversaries.shape
    n = params.n
    rows = np.arange(sets)[:, None]
    pinned = np.zeros((sets, n), dtype=bool)
    pinned[rows, adversaries] = True
    unpinned = np.nonzero(~pinned)[1].reshape(sets, n - k)
    w_uu = params.influence[unpinned[:, :, None], unpinned[:, None, :]]
    w_ua = params.influence[unpinned[:, :, None], adversaries[:, None, :]]
    theta_u = params.stubbornness[unpinned]
    open_minded = 1.0 - theta_u
    base_rhs = theta_u * params.intrinsic[unpinned]
    eye = np.eye(n - k)

    def label(b):
        return f"adversary set {tuple(adversaries[b].tolist())}"

    # One inverse of M = I - (I - Theta_U) W_UU gives z0 and c = (I - Theta_U) M^-T 1.
    inverse = invert_conditioned(eye - open_minded[:, :, None] * w_uu, label)
    adversary_mass = w_ua.sum(axis=2)
    z0 = np.matmul(inverse, (base_rhs + open_minded * adversary_mass)[:, :, None])[:, :, 0]
    c = open_minded * inverse.sum(axis=1)
    received = np.matmul(w_uu, z0[:, :, None])[:, :, 0] + adversary_mass
    gain = np.zeros((sets, n))
    gain[rows, unpinned] = p * (1.0 - received) * c

    # Each adversary keeps its top-budget eligible targets ranked by
    # (-gain, index); the stable sort puts equal gains in index order.
    eligible = listeners[adversaries] & ~pinned[:, None, :] & (gain > 0.0)[:, None, :]
    order = np.argsort(np.where(eligible, -gain[:, None, :], np.inf), axis=2, kind="stable")
    rank = np.empty_like(order)
    rank[rows[:, :, None], np.arange(k)[:, None], order] = np.arange(n)
    chosen = eligible & (rank < target_budgets[adversaries][:, :, None])

    # Re-score the re-weighted systems exactly; hits[b, u, a] marks target u of adversary a.
    hits = chosen[rows, :, unpinned]
    scale = (1.0 - hits.sum(axis=2) * p)[:, :, None]
    matrix = eye - open_minded[:, :, None] * (w_uu * scale)
    rhs = base_rhs + open_minded * (w_ua * scale + p * hits).sum(axis=2)
    invert_conditioned(matrix, label)
    z = np.linalg.solve(matrix, rhs[:, :, None])[:, :, 0]
    return z.sum(axis=1) + k, chosen


def _approx_leader_search(params, sizes, p):
    """Score every adversary set of the given sizes in chunks of LEADER_CHUNK.

    Returns ((adversaries, items), g, sets scored) for the best set, with
    solve_attack's tie rule: an exact tie goes to the smaller key.
    """
    network = params.network
    n = params.n
    listeners = network.support_mask().T
    target_budgets = np.array([network.target_budget(j) for j in range(n)])
    best_key, best_g, scored = None, -math.inf, 0
    for size in sizes:
        leaders = combinations(range(n), size)
        while chunk := list(islice(leaders, LEADER_CHUNK)):
            adversaries = np.array(chunk, dtype=int)
            g, chosen = _score_chunk(params, adversaries, p, listeners, target_budgets)
            scored += len(chunk)
            # argmax takes the first maximum: the smallest set among exact ties.
            b = int(np.argmax(g))
            if g[b] > best_g or (g[b] == best_g and chunk[b] < best_key[0]):
                items = tuple(
                    (j, tuple(np.flatnonzero(chosen[b, col]).tolist()))
                    for col, j in enumerate(chunk[b])
                )
                best_key, best_g = (chunk[b], items), float(g[b])
    return best_key, best_g, scored


def solve_attack(
    params,
    p=DEFAULT_P,
    leader_size=None,
    follower_mode="approx",
    all_leader_sizes=False,
    cap=DEFAULT_CONFIG_CAP,
):
    """Search adversary sets and their best responses for the largest g.

    Enumerates every adversary set of ``leader_size`` (default: the full
    adversary budget (n - 1) // 3; with ``all_leader_sizes`` every size
    from 1 up to the budget) and solves the follower problem for each.
    The returned plan's predicted_g is always an exact evaluation of the
    winning configuration.
    """
    start = time.perf_counter()
    network = params.network
    p = _check_magnitude(p)
    leader_size = _check_leader_size(network, leader_size)
    sizes = range(1, network.leader_budget() + 1) if all_leader_sizes else (leader_size,)
    if follower_mode == "approx":
        best_key, best_g, leader_evaluations = _approx_leader_search(params, sizes, p)
        follower_candidates = 3 * leader_evaluations
    else:
        best_key, best_g = None, -math.inf
        leader_evaluations = 0
        follower_candidates = 0
        for size in sizes:
            for adversaries in combinations(range(network.agent_count), size):
                items, g, evaluations = _best_response(params, adversaries, p, follower_mode, cap)
                leader_evaluations += 1
                follower_candidates += evaluations
                key = (adversaries, items)
                if g > best_g or (g == best_g and key < best_key):
                    best_key, best_g = key, g
    adversaries, items = best_key
    config = AttackConfig(adversaries=adversaries, targets=items, influence_magnitude=p)
    return AttackPlan(
        config=config,
        predicted_g=best_g,
        leader_evaluations=leader_evaluations,
        follower_candidates=follower_candidates,
        wall_time=time.perf_counter() - start,
    )


def brute_force_oracle(params, p=DEFAULT_P, leader_size=None, cap=DEFAULT_CONFIG_CAP):
    """Exhaustive reference search over every feasible attack configuration.

    Flat enumeration of (adversary set, joint target choice) pairs with the
    same tie-breaking order as solve_attack.  Refuses to run if the full
    space exceeds ``cap`` configurations.
    """
    start = time.perf_counter()
    network = params.network
    p = _check_magnitude(p)
    leader_size = _check_leader_size(network, leader_size)
    total = count_configurations(network, leader_size)
    if total > cap:
        raise CapExceededError(f"{total} feasible configurations exceed the cap of {cap}")
    best_key, best_g = None, -math.inf
    leader_evaluations = 0
    evaluated = 0
    for adversaries in combinations(range(network.agent_count), leader_size):
        system = _RestrictedSystem(params, adversaries)
        leader_evaluations += 1
        for combo in product(*_target_subsets(network, adversaries)):
            items = tuple(zip(adversaries, combo))
            _, g = system.outcome(items, p)
            evaluated += 1
            key = (adversaries, items)
            if g > best_g or (g == best_g and key < best_key):
                best_key, best_g = key, g
    adversaries, items = best_key
    config = AttackConfig(adversaries=adversaries, targets=items, influence_magnitude=p)
    return AttackPlan(
        config=config,
        predicted_g=best_g,
        leader_evaluations=leader_evaluations,
        follower_candidates=evaluated,
        wall_time=time.perf_counter() - start,
    )


def count_configurations(network, leader_size=None):
    """Exact number of feasible (adversary set, joint target choice) pairs.

    Computed in integer arithmetic as a sum over adversary sets of the
    product, across adversaries, of the number of eligible target subsets
    within budget.  leader_size defaults to the full adversary budget;
    leader_size 0 counts the single empty attack.
    """
    if leader_size is None:
        leader_size = network.leader_budget()
    if not 0 <= leader_size <= network.agent_count:
        raise ValidationError(
            f"leader_size {leader_size} outside 0..{network.agent_count}"
        )
    total = 0
    for adversaries in combinations(range(network.agent_count), leader_size):
        total += _exact_space_size(network, adversaries)
    return total


def follower_candidate_bound(n):
    """Worst-case follower candidates per adversary set under the gain reduction.

    The first-order follower looks at each adversary's eligible targets
    once instead of enumerating subsets, which caps the work per leader
    set at (2 n^2 - n - 1) / 9 candidate evaluations.
    """
    if n < 1:
        raise ValidationError(f"need at least one agent, got {n}")
    return (2.0 * n * n - n - 1.0) / 9.0


_VARIANT_RULES = {
    # variant: (adversary score, adversary order, target score, target order)
    # source "degree" ranks by out-degree, "stubbornness" by theta,
    # "intrinsic" by s, "external" by a caller-supplied score vector.
    "I": ("degree", "desc", "degree", "desc"),
    "II": ("external", "desc", "external", "asc"),
    "III": ("external", "desc", "external", "desc"),
    "IV": ("stubbornness", "desc", "stubbornness", "asc"),
    "V": ("intrinsic", "desc", "intrinsic", "desc"),
    "VI": ("intrinsic", "asc", "intrinsic", "asc"),
}


def baseline_variant(params, variant, leader_size=None, p=DEFAULT_P, external_scores=None):
    """Heuristic attack selection by per-agent scores instead of search.

    Variant "I" picks high out-degree adversaries and high out-degree
    targets; "IV" picks the most stubborn adversaries and the least
    stubborn targets; "V" picks the agents most supportive of the
    adversarial stance on both sides; "VI" the least supportive on both
    sides.  Variants "II" and "III" rank by a caller-supplied score vector
    (high-score adversaries targeting low- resp. high-score agents), which
    is how externally computed agent descriptors plug in.  Ties always go
    to the lower agent index, and every adversary takes its full target
    budget among eligible out-neighbors.
    """
    network = params.network
    n = network.agent_count
    p = _check_magnitude(p)
    leader_size = _check_leader_size(network, leader_size)
    if variant not in _VARIANT_RULES:
        raise ValidationError(f"unknown variant {variant!r}")
    adv_source, adv_order, tgt_source, tgt_order = _VARIANT_RULES[variant]

    def scores(source):
        if source == "degree":
            return np.array([float(network.out_degree(i)) for i in range(n)])
        if source == "stubbornness":
            return np.array(params.stubbornness)
        if source == "intrinsic":
            return np.array(params.intrinsic)
        if external_scores is None:
            raise ValidationError(f"variant {variant!r} needs external_scores")
        ext = np.asarray(external_scores, dtype=float)
        if ext.shape != (n,) or not np.all(np.isfinite(ext)):
            raise ValidationError(f"external_scores must be {n} finite values")
        return ext

    def ranked(indices, score, order):
        sign = -1.0 if order == "desc" else 1.0
        return sorted(indices, key=lambda i: (sign * score[i], i))

    adversaries = tuple(sorted(ranked(range(n), scores(adv_source), adv_order)[:leader_size]))
    adv_set = set(adversaries)
    tgt_score = scores(tgt_source)
    targets = {}
    for j in adversaries:
        eligible = [i for i in network.out_neighbors(j) if i not in adv_set]
        targets[j] = tuple(ranked(eligible, tgt_score, tgt_order)[: network.target_budget(j)])
    return AttackConfig(adversaries=adversaries, targets=targets, influence_magnitude=p)
