"""Two-level search for the most damaging attack configuration.

The leader level enumerates adversary sets of a given size; the follower
level picks each adversary's targets.  The follower comes in two modes:

* ``exact`` finds the best joint target choice across the adversaries
  (subject to a configuration cap), solving every choice a certified
  bound cannot rule out.
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

so both the base fixed point and c come from one factorization of M (or,
in the batched search, from one inverse of the full unrestricted system).
Gains are nonnegative up to rounding and additive to first order when
several adversaries pick the same target.

Both modes, and the ablation's planner models in ``harness``, run on one
driver, ``_leader_search``: it takes adversary sets
LEADER_CHUNK at a time, has a scorer yield the exact g of batches of
configurations, and keeps the lexicographic argmax.

* The approx scorer gets z0 and c from ``_SchurGains``, which inverts
  the full n x n system I - (I - Theta) W once per search;
  ``_schur_gains`` reads every set's z0 and c off that inverse through
  the Schur complement, with one (sets, n) product and one
  batched k x k solve each.  ``_top_targets`` (a masked stable top-budget
  selection, shared with the ablation's unpinned scorer) picks the
  targets, and one batched solve re-scores the re-weighted systems.  The
  full system passes ``linalg.invert_conditioned``; every set's
  restricted system, its k x k pivot block and its re-scored system pass
  ``linalg.check_conditioned``.
* The exact scorer serves exact solve_attack, exact solve_follower,
  brute_force_oracle and the ablation's ``wo_targeting``.  Each agent's
  within-budget target subsets are a table of boolean masks in canonical
  (size, lex) order; a set keeps the rows that avoid it, and its joint
  choices are decoded in mixed radix, last adversary fastest
  (itertools.product order).  CONFIG_CHUNK configurations at a time are
  stacked, guarded and solved together.

Exact solve_attack and exact solve_follower prune with a certified bound
(``_exact_search``).  For a set A, z0 its base fixed point and m its gains,
every targeting T obeys

    g(A, T) <= sum(z0) + |A| + sum over adversaries j of sum_{i in T_j} m_i

because the remainder is -1^T M'^-1 Delta M^-1 D (1 - r) <= 0: M and the
re-weighted M' are nonsingular M-matrices, so their inverses are entrywise
nonnegative (Berman & Plemmons, ch. 6), Delta >= 0, and the received mass
r <= 1 (W's rows sum to 1 and opinions lie in [0, 1]).  Its maximum over T,
UB(A), adds each adversary's top-budget positive gains to sum(z0) + |A|:
exactly what the approx scorer assembles.  So the approx search runs first;
its best g, an exact evaluation of a feasible configuration, is the
incumbent.  The exact scorer then visits only the sets with UB(A) >=
incumbent - slack and solves only their configurations whose own bound
clears the same threshold.  The comparisons are non-strict, so every bitwise
tie still reaches the tie rule.  The slack (``_SchurGains.slack``) is 64 n
eps kappa_1(M) max(|g|, n), one rounding rule that grows with the
conditioning of the full system.  Every set still passes the cap check, and
follower_candidates still counts every configuration of every set, solved or
certified unable to win.  brute_force_oracle and ``wo_targeting`` stay
exhaustive: the oracle is the reference the pruned search is tested against.

``check_conditioned`` clears a stack by a diagonal-dominance bound, or
else by the exact rcond; both guards name the adversary set they reject.
``marginal_gains`` and approx ``solve_follower`` keep the per-set scalar
path, the reference the batched approx search is tested against.  Every
exact score, stacked or one at a time (``adversarial_outcome``), builds
its system with ``adversary._reweighted_systems``; only the LAPACK solve
differs.

Tie-breaking is deterministic everywhere: higher g wins, then the smaller
adversary tuple, then the smaller canonical target tuple.
"""

import math
import time
from dataclasses import dataclass
from itertools import chain, combinations, compress, islice

import numpy as np
from scipy.linalg import lu_solve

from .adversary import (
    DEFAULT_P,
    AttackConfig,
    _restricted_blocks,
    _RestrictedSystem,
    _reweighted_systems,
)
from .errors import CapExceededError, ValidationError
from .linalg import check_conditioned, factor_conditioned, invert_conditioned

# Exhaustive target enumeration refuses to look at more configurations than this.
DEFAULT_CONFIG_CAP = 10_000_000

# Adversary sets scored together by _leader_search.  An approx search's
# allocations peak near 0.55 MB at n = 14 and 0.9 MB at n = 20 (complete
# graphs, tracemalloc); of 32-1024 sets per chunk, 128 ran fastest at both
# sizes.
LEADER_CHUNK = 128

# Configurations stacked into one guarded batched solve by the exact scorer.
# An exact search peaks near 1.9 MB at n = 12 and 4.4 MB at n = 20 (1.8M
# configurations); of 128-2048 per chunk, 256-1024 ran alike on plan_exact.
CONFIG_CHUNK = 512


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

    upper_bound is, in approx and exact mode, the largest first-order
    bound UB(A) over the searched sets.  No configuration of any searched
    set has a larger exact g, up to the rounding slack, so an approx
    plan's certified gap is upper_bound - predicted_g.  The oracle
    reports its best g, which its exhaustive search certifies.

    follower_candidates counts, in exact mode and for the oracle, every
    configuration of every searched set, which equals count_configurations
    over the searched leader sizes.  The oracle solves each one; exact
    mode solves only those its bound cannot rule out and certifies the
    rest.  In approx mode it is three per adversary set: the two k x k
    solves that give its z0 and c, and the re-score of its chosen
    targets.  wall_time is in seconds.
    """

    config: AttackConfig
    predicted_g: float
    upper_bound: float
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
    open_minded = system.open_minded
    ones = np.ones(len(system.unpinned))
    factor = factor_conditioned(np.diag(ones) - open_minded[:, None] * system.w_uu)
    adversary_mass = system.w_ua.sum(axis=1)
    z0 = lu_solve(factor, system.base_rhs + open_minded * adversary_mass)
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


def _best_response(params, adversaries, p):
    """Approx follower for a fixed adversary set: the per-set scalar reference.

    Returns (target_items, g) with target_items in canonical (adversary,
    sorted targets) form and g the exact outcome of that choice.
    """
    network = params.network
    gain = marginal_gains(params, adversaries, p).gain
    adv_set = set(adversaries)
    items = []
    for j in adversaries:
        eligible = [i for i in network.out_neighbors(j) if i not in adv_set]
        ranked = sorted(eligible, key=lambda i: (-gain[i], i))
        chosen = [i for i in ranked if gain[i] > 0.0][: network.target_budget(j)]
        items.append((j, tuple(sorted(chosen))))
    items = tuple(items)
    _, g = _RestrictedSystem(params, adversaries).outcome(items, p)
    return items, g


def solve_follower(params, adversaries, p=DEFAULT_P, mode="approx", cap=DEFAULT_CONFIG_CAP):
    """Best target choice for a fixed adversary set; returns (targets, g).

    ``targets`` maps every adversary to its (possibly empty) tuple of
    targets; ``g`` is the exact outcome of that choice.
    """
    adversaries = _check_adversary_set(params.network, adversaries)
    p = _check_magnitude(p)
    if mode == "approx":
        items, g = _best_response(params, adversaries, p)
    elif mode == "exact":
        (_, items), g, _, _, _ = _exact_search(params, p, lambda: [[adversaries]], cap)
    else:
        raise ValidationError(f"unknown follower mode {mode!r}")
    return dict(items), g


def _top_targets(gain, eligible, budgets):
    """Each adversary's top-budget targets among its eligible ones.

    ``eligible`` is a (sets, k, n) mask, ``gain`` broadcasts against it
    and ``budgets`` is (sets, k).  Only strictly positive gains count;
    targets rank by (-gain, index), the stable sort putting equal gains
    in index order.  Returns the (sets, k, n) mask of chosen targets.
    """
    eligible = eligible & (gain > 0.0)
    order = np.argsort(np.where(eligible, -gain, np.inf), axis=2, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(order.shape[2]), axis=2)
    return eligible & (rank < budgets[:, :, None])


def _schur_gains(minv, adversaries, blocks, p, label):
    """Base fixed point z0 over U and the (sets, n) gains of a stack of sets.

    ``minv`` is the inverse of the full M = I - (I - Theta) W and
    ``blocks`` the stack's _restricted_blocks.  With A a set and U the
    rest, (M_UU)^-1 = Minv_UU - Minv_UA (Minv_AA)^-1 Minv_AU (Hager 1989),
    so z0 = (M_UU)^-1 b_U and c = (I - Theta_U) (M_UU)^-T 1 cost one
    (sets, n) @ (n, n) product each and a k x k solve against Minv_AA,
    resp. its transpose; the gains are those of marginal_gains.  Every
    Minv_AA passes ``check_conditioned``, naming set b by ``label(b)``.
    """
    sets, k = adversaries.shape
    rows = np.arange(sets)[:, None]
    pinned, unpinned, w_uu, w_ua, open_minded, base_rhs = blocks
    minv_aa = minv[adversaries[:, :, None], adversaries[:, None, :]]
    check_conditioned(minv_aa, label)
    adversary_mass = w_ua.sum(axis=2)
    rhs = np.zeros(pinned.shape)
    rhs[rows, unpinned] = base_rhs + open_minded * adversary_mass
    y = rhs @ minv.T
    t = np.linalg.solve(minv_aa, y[rows, adversaries][:, :, None])
    # minv.T[adversaries][b, a, i] = Minv[i, A_a]: Minv_UA t for every row.
    z0 = (y[:, None, :] - np.matmul(t.transpose(0, 2, 1), minv.T[adversaries]))[:, 0]
    v = (~pinned) @ minv
    u = np.linalg.solve(minv_aa.transpose(0, 2, 1), v[rows, adversaries][:, :, None])
    c = (v[:, None, :] - np.matmul(u.transpose(0, 2, 1), minv[adversaries]))[:, 0]
    z0, c = z0[rows, unpinned], open_minded * c[rows, unpinned]
    received = np.matmul(w_uu, z0[:, :, None])[:, :, 0] + adversary_mass
    gain = np.zeros(pinned.shape)
    gain[rows, unpinned] = p * (1.0 - received) * c
    return z0, gain


class _SchurGains:
    """z0 and gains of stacks of sets off one inverse of the full system.

    Calling it runs _schur_gains on the inverse of M = I - (I - Theta) W.
    M passes ``invert_conditioned`` when first needed, so a caller can
    guard its first chunk's sets before the full system.
    """

    def __init__(self, params, p):
        self.system = np.eye(params.n) - (1.0 - params.stubbornness)[:, None] * params.influence
        self.p = p
        self.minv = None

    def inverse(self):
        if self.minv is None:
            full = invert_conditioned(self.system[None], lambda b: "system I - (I - Theta) W")
            self.minv = full[0]
        return self.minv

    def __call__(self, adversaries, blocks, label):
        return _schur_gains(self.inverse(), adversaries, blocks, self.p, label)

    def slack(self, g):
        """Rounding allowance when a computed first-order bound meets a computed g.

        Both are sums of n entries.  The systems solved for g have inverses
        entrywise at most M^-1: each is a principal submatrix of the
        M-matrix M, or one with smaller off-diagonal weights.  The Schur
        gains are read off M^-1 itself.  So each entry's error stays within
        a few ulps of max(|g|, n) times kappa_1(M) = ||M||_1 ||M^-1||_1.  The
        allowance is 64 n eps kappa_1(M) max(|g|, n), with recovery's
        multiplier for its own optimality test; it is never zero.
        """
        n = len(self.system)
        kappa = np.abs(self.system).sum(axis=0).max() * np.abs(self.inverse()).sum(axis=0).max()
        return 64.0 * n * np.finfo(float).eps * kappa * max(abs(g), n)


def _approx_scorer(params, p, gains, bounds):
    """score(chunk) for _leader_search: the approx follower of every set.

    Yields one batch per chunk: the exact g of every set's chosen targets,
    the (sets, k, n) boolean choice mask and the set indices.  The
    arithmetic mirrors marginal_gains followed by _RestrictedSystem.outcome,
    with z0 and the gains from ``gains`` (a _SchurGains).  Each chunk's
    first-order bounds UB(A) = sum(z0) + k + the chosen gains, which no
    configuration of A exceeds, are appended to ``bounds`` as one array.
    Each set's restricted M_UU and re-weighted system pass
    ``check_conditioned``; ``gains`` inverts the full M after the first
    chunk's restricted systems are checked, so a rejected set is named
    first.
    """
    network = params.network
    n = params.n
    listeners = network.support_mask().T
    budgets = np.array([network.target_budget(j) for j in range(n)])

    def score(chunk):
        adversaries = np.array(chunk, dtype=int)
        sets, k = adversaries.shape
        rows = np.arange(sets)[:, None]
        blocks = _restricted_blocks(params, adversaries)
        pinned, unpinned, w_uu, w_ua, open_minded, base_rhs = blocks

        def label(b):
            return f"adversary set {chunk[b]}"

        check_conditioned(np.eye(n - k) - open_minded[:, :, None] * w_uu, label)
        z0, gain = gains(adversaries, blocks, label)
        chosen = _top_targets(
            gain[:, None, :], listeners[adversaries] & ~pinned[:, None, :], budgets[adversaries]
        )
        bounds.append(z0.sum(axis=1) + k + np.einsum("bkn,bn->b", chosen, gain))
        matrix, rhs = _reweighted_systems(
            w_uu, w_ua, open_minded, base_rhs, chosen[rows, :, unpinned], p
        )
        check_conditioned(matrix, label)
        z = np.linalg.solve(matrix, rhs[:, :, None])[:, :, 0]
        yield z.sum(axis=1) + k, chosen, np.arange(sets)

    return score


def _leader_search(leader_sets, score):
    """Score the configurations a scorer yields for every set; keep the best.

    ``leader_sets`` is a sequence of iterables of sorted same-size sets,
    taken LEADER_CHUNK at a time.  ``score(chunk)`` yields (g, chosen,
    owner) batches: the exact g of each configuration it scores (all of
    them, unless it prunes), its (batch, k, n) target mask and the index
    of its set in the chunk.  Higher g wins; an exact tie goes to the
    smaller (adversaries, items) key.  Returns
    ((adversaries, items), g, sets scored, configurations scored).
    """
    best_key, best_g, sets, configs = None, -math.inf, 0, 0
    for group in leader_sets:
        group = iter(group)
        while chunk := list(islice(group, LEADER_CHUNK)):
            for g, chosen, owner in score(chunk):
                configs += len(g)
                top = g.max()
                if top < best_g:
                    continue
                for c in np.flatnonzero(g == top).tolist():
                    leaders = chunk[owner[c]]
                    items = tuple(
                        (j, tuple(np.flatnonzero(chosen[c, col]).tolist()))
                        for col, j in enumerate(leaders)
                    )
                    if top > best_g or (leaders, items) < best_key:
                        best_key, best_g = (leaders, items), float(top)
            sets += len(chunk)
    return best_key, best_g, sets, configs


def _space_sizes(network, adversaries, budgets):
    """Exact configuration count (Python ints) of each set in a (sets, k) array.

    Adversary a of a set chooses among the subsets of at most budgets[a]
    of its out-neighbours that avoid the set.
    """
    k = adversaries.shape[1]
    # subsets[j, o]: agent j's choices when o of its out-neighbours are
    # adversaries too.
    subsets = np.zeros((network.agent_count, k + 1), dtype=object)
    for j in np.unique(adversaries).tolist():
        degree = network.out_degree(j)
        for o in range(min(k, degree) + 1):
            subsets[j, o] = sum(math.comb(degree - o, s) for s in range(budgets[j] + 1))
    support = network.support_mask()
    overlap = support[adversaries[:, None, :], adversaries[:, :, None]].sum(axis=2)
    return subsets[adversaries, overlap].prod(axis=1)


def _subset_masks(network, agent, budget):
    """Boolean (subsets, n) masks of the agent's target choices of at most
    ``budget`` out-neighbours, in canonical (size, lex) order."""
    eligible = [i for i in network.out_neighbors(agent) if i != agent]
    subsets = [c for size in range(budget + 1) for c in combinations(eligible, size)]
    masks = np.zeros((len(subsets), network.agent_count), dtype=bool)
    masks[
        np.repeat(np.arange(len(subsets)), [len(c) for c in subsets]),
        np.fromiter(chain.from_iterable(subsets), dtype=int),
    ] = True
    return masks


def _exact_scorer(params, p, budgets=None, prune=None):
    """score(chunk) for _leader_search: every joint target choice of every set.

    Adversary a may target at most budgets[a] eligible out-neighbours
    (default: its target budget).  Its choices are rows of a per-agent
    table of masks in canonical (size, lex) order, built on first use;
    a set's joint choices are decoded in mixed radix, last adversary
    fastest, which is itertools.product order.  CONFIG_CHUNK
    configurations at a time are decoded; those kept are stacked, guarded
    by ``linalg.check_conditioned`` and solved together.

    With ``prune = (gains, threshold)``, gains a _SchurGains, a decoded
    configuration is stacked only if its first-order bound, sum(z0) + k
    plus the gains of its targets (each table row's sum taken once per
    set), reaches ``threshold``; the others are left unsolved.
    """
    network = params.network
    if budgets is None:
        budgets = [network.target_budget(j) for j in range(params.n)]
    tables = {}

    def score(chunk):
        adversaries = np.array(chunk, dtype=int)
        sets, k = adversaries.shape

        def label(b):
            return f"adversary set {chunk[b]}"

        agents = np.unique(adversaries).tolist()
        for j in agents:
            if j not in tables:
                tables[j] = _subset_masks(network, j, budgets[j])
        table = np.concatenate([tables[j] for j in agents])
        agent_of = np.repeat(agents, [len(tables[j]) for j in agents])
        blocks = _restricted_blocks(params, adversaries)
        _, unpinned, *system = blocks
        if prune is not None:
            gains, threshold = prune
            z0, gain = gains(adversaries, blocks, label)
            base = z0.sum(axis=1) + k
        # Per adversary column, the rows of its agent's table that avoid the
        # set, grouped by set in canonical order: set b's count[b, col]
        # choices start at kept[col][first[b, col]], and with pruning
        # sums[col] holds each kept row's gain for its set.
        free = ~table[:, adversaries].any(axis=2)
        kept, sums, count = [], [], np.empty((sets, k), dtype=np.int64)
        for col in range(k):
            which, row = np.nonzero((free & (agent_of[:, None] == adversaries[:, col])).T)
            kept.append(row)
            count[:, col] = np.bincount(which, minlength=sets)
            if prune is not None:
                sums.append(np.einsum("rn,rn->r", table[row], gain[which]))
        first = np.cumsum(count, axis=0) - count
        configs = count.prod(axis=1)
        ends = np.cumsum(configs)
        for lo in range(0, int(ends[-1]), CONFIG_CHUNK):
            index = np.arange(lo, min(lo + CONFIG_CHUNK, int(ends[-1])))
            owner = np.searchsorted(ends, index, side="right")
            local = index - (ends - configs)[owner]
            position = np.empty((len(index), k), dtype=np.int64)
            for col in reversed(range(k)):
                radix = count[owner, col]
                position[:, col] = first[owner, col] + local % radix
                local //= radix
            if prune is not None:
                bound = base[owner] + sum(sums[col][position[:, col]] for col in range(k))
                survive = np.flatnonzero(bound >= threshold)
                if not survive.size:
                    continue
                owner, position = owner[survive], position[survive]
            chosen = np.stack(
                [table[kept[col][position[:, col]]] for col in range(k)], axis=1
            )
            hits = chosen[np.arange(len(owner))[:, None], :, unpinned[owner]]
            matrix, rhs = _reweighted_systems(*(x[owner] for x in system), hits, p)
            check_conditioned(matrix, lambda c: label(owner[c]))
            z = np.linalg.solve(matrix, rhs[:, :, None])[:, :, 0]
            yield z.sum(axis=1) + k, chosen, owner

    return score


def _exact_search(params, p, leader_sets, cap):
    """Exact search with certified pruning; the engine of exact solve_attack
    and exact solve_follower.

    ``leader_sets()`` returns fresh groups of sets, as _leader_search takes
    them; it is called twice.  The first pass is the approx search: its best
    g is a feasible incumbent, and it gives every set's first-order bound
    UB(A), which no configuration of A exceeds.  Every set must stay within
    ``cap`` configurations, checked before its chunk is scored.  The second
    pass runs the exact scorer over the sets with UB(A) >= the threshold
    incumbent - slack (``_SchurGains.slack``), and stacks only their
    configurations whose own bound clears the same threshold.  The
    comparisons are non-strict, so every configuration that could tie the
    optimum bitwise is solved.  Returns ((adversaries, items), g, sets,
    configurations, max UB(A)); the configurations counted are all those of
    every set, solved or certified unable to beat the incumbent.
    """
    network = params.network
    budgets = [network.target_budget(j) for j in range(params.n)]
    gains = _SchurGains(params, p)
    bounds, counted = [], []
    approx = _approx_scorer(params, p, gains, bounds)

    def first_pass(chunk):
        sizes = _space_sizes(network, np.array(chunk, dtype=int), budgets)
        if cap is not None and (sizes > cap).any():
            size = sizes[np.argmax(sizes > cap)]
            raise CapExceededError(f"exact follower space has {size} configurations, cap is {cap}")
        counted.append(int(sizes.sum()))
        return approx(chunk)

    _, incumbent, sets, _ = _leader_search(leader_sets(), first_pass)
    threshold = incumbent - gains.slack(incumbent)
    bounds = np.concatenate(bounds)
    # compress stops at the end of each group without reading past it, so
    # the one iterator of keep flags walks the groups in order.
    keep = iter((bounds >= threshold).tolist())
    survivors = [compress(group, keep) for group in leader_sets()]
    key, best_g, _, _ = _leader_search(
        survivors, _exact_scorer(params, p, prune=(gains, threshold))
    )
    return key, best_g, sets, sum(counted), float(bounds.max())


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
    In exact mode every set must stay within ``cap`` configurations, and
    only the sets and configurations whose first-order bound can reach
    the approx incumbent are solved.  The returned plan's predicted_g is
    always an exact evaluation of the winning configuration.
    """
    start = time.perf_counter()
    network = params.network
    p = _check_magnitude(p)
    leader_size = _check_leader_size(network, leader_size)
    sizes = range(1, network.leader_budget() + 1) if all_leader_sizes else (leader_size,)

    def leader_sets():
        return [combinations(range(network.agent_count), size) for size in sizes]

    if follower_mode == "approx":
        bounds = []
        score = _approx_scorer(params, p, _SchurGains(params, p), bounds)
        (adversaries, items), best_g, sets, _ = _leader_search(leader_sets(), score)
        configs, upper = 3 * sets, max(float(b.max()) for b in bounds)
    elif follower_mode == "exact":
        (adversaries, items), best_g, sets, configs, upper = _exact_search(
            params, p, leader_sets, cap
        )
    else:
        raise ValidationError(f"unknown follower mode {follower_mode!r}")
    return AttackPlan(
        config=AttackConfig(adversaries, items, p),
        predicted_g=best_g,
        upper_bound=upper,
        leader_evaluations=sets,
        follower_candidates=configs,
        wall_time=time.perf_counter() - start,
    )


def brute_force_oracle(params, p=DEFAULT_P, leader_size=None, cap=DEFAULT_CONFIG_CAP):
    """Exhaustive reference search over every feasible attack configuration.

    Scores every (adversary set, joint target choice) pair with the same
    engine and tie-breaking order as exact solve_attack, without its
    pruning: every configuration is solved.  Refuses to run if the full
    space exceeds ``cap`` configurations.  upper_bound is the best g, the
    only bound an exhaustive search certifies.
    """
    start = time.perf_counter()
    network = params.network
    p = _check_magnitude(p)
    leader_size = _check_leader_size(network, leader_size)
    total = count_configurations(network, leader_size)
    if total > cap:
        raise CapExceededError(f"{total} feasible configurations exceed the cap of {cap}")
    leader_sets = [combinations(range(network.agent_count), leader_size)]
    (adversaries, items), best_g, sets, configs = _leader_search(
        leader_sets, _exact_scorer(params, p)
    )
    return AttackPlan(
        config=AttackConfig(adversaries, items, p),
        predicted_g=best_g,
        upper_bound=best_g,
        leader_evaluations=sets,
        follower_candidates=configs,
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
    budgets = [network.target_budget(j) for j in range(network.agent_count)]
    sets = combinations(range(network.agent_count), leader_size)
    total = 0
    while chunk := list(islice(sets, LEADER_CHUNK)):
        adversaries = np.array(chunk, dtype=int).reshape(len(chunk), leader_size)
        total += int(_space_sizes(network, adversaries, budgets).sum())
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
