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

so both the base fixed point and c come from one inverse of the full
unrestricted system (``_SchurGains``).
Gains are nonnegative up to rounding and additive to first order when
several adversaries pick the same target.

Both modes, and the ablation's planner models in ``harness``, run on one
loop, ``_leader_search``: it takes adversary sets LEADER_CHUNK at a time,
has a scorer yield the exact g of batches of configurations, and keeps
the lexicographic argmax.  The ablation's pinned models run the
approx search itself, at p = 0 when targeting is off.

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
* The exact scorer serves exact solve_attack, exact solve_follower and
  brute_force_oracle.  Each agent's within-budget target subsets are a
  table of boolean masks in canonical (size, lex) order; a set keeps the
  rows that avoid it, and its joint choices are decoded in mixed radix,
  last adversary fastest (itertools.product order).  CONFIG_CHUNK
  configurations at a time are stacked, guarded and solved together.

solve_attack and solve_follower run one entry, ``_search``, in either
mode.  Exact mode prunes with a certified bound.  For a set A, z0 its base
fixed point and m its gains, every targeting T obeys

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
certified unable to win.  brute_force_oracle stays exhaustive: it is the
reference the pruned search is tested against.

Both modes also skip whole adversary sets.  Pinned g0(A) = sum(z0) + |A|
is monotone and submodular in A (Gionis, Terzi & Tsaparas, "Opinion
Maximization in Social Networks", SDM 2013).  Read z_i(A) off a walk from
i: at agent j it is absorbed with value 1 if j is in A; else it stops with
value s_j with probability theta_j, or moves to k with probability
(1 - theta_j) w_jk.  Couple it with the walk that ignores A, stopping at
X_T.  Then z_i(A) = E[s_{X_T}] + E[(1 - s_{X_T}) 1{the walk meets A by
T}]: the indicator is a coverage function of A and 1 - s >= 0, so every
z_i, and g0 = sum_i z_i, is monotone and submodular.  Hence g0(A) <=
g0(empty) + sum over v in A of Delta_v, with Delta_v = g0({v}) -
g0(empty).  The gains only fall as A grows: for unpinned i, 1 - r_i falls
because pinning agents at 1 raises z0, and c_i falls because the inverse
of a principal submatrix of an M-matrix is entrywise nonnegative and at
most the same block of the full inverse.  So an adversary's top-budget
gains under A are at most top_v, its top-budget gains with nobody pinned
over all its out-neighbours, and

    UB(A) <= B(A) = g0(empty) + sum over v in A of (Delta_v + top_v).

``_SchurGains.leader_bounds`` scores every agent once per search, off the
full inverse.  ``_leader_search`` scores the first chunk as it comes; after
that only the sets with B(A) >= incumbent - slack, gathered into full
chunks in enumeration order.  A set is skipped only when its bound is
strictly below that threshold, so no set that could win or tie is lost, and
the argmax does not depend on which sets share a chunk: the plan is full
enumeration's, bit for bit.  A skipped set still counts in
leader_evaluations (and, in exact mode, its configurations in
follower_candidates) as covered.

``check_conditioned`` clears a stack by a diagonal-dominance bound, or
else by the exact rcond; both guards name the adversary set they reject.
``marginal_gains`` and approx ``solve_follower`` run the same kernel and
scorer on a one-set stack.  Every exact score, stacked or one at a time
(``adversarial_outcome``), builds its system with
``adversary._reweighted_systems``; only the LAPACK solve differs.

Tie-breaking is deterministic everywhere: higher g wins, then the smaller
adversary tuple, then the smaller canonical target tuple.
"""

import math
import time
from dataclasses import dataclass
from itertools import chain, combinations, groupby, islice

import numpy as np

from .adversary import DEFAULT_P, AttackConfig, _restricted_blocks, _reweighted_systems
from .dynamics import _check_count
from .errors import CapExceededError, ValidationError
from .linalg import check_conditioned, invert_conditioned

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

    leader_evaluations counts every adversary set of the searched sizes:
    scored, or skipped because its leader bound B(A) certifies that it
    cannot win.  B(A) caps UB(A) because pinned g0 is submodular (an
    absorbing-walk coverage argument) and the gains only fall as A grows
    (M-matrix monotonicity); see the module docstring.

    upper_bound is, in approx and exact mode, the largest first-order
    bound UB(A) over the scored sets, which is the largest over every
    set: a skipped set's UB(A) lies below the best g, which is at most
    the winner's UB(A).  No configuration of any set has a larger exact
    g, up to the rounding slack, so an approx plan's certified gap is
    upper_bound - predicted_g.  The oracle reports its best g, which its
    exhaustive search certifies.

    follower_candidates counts, in exact mode and for the oracle, every
    configuration of every searched set, which equals count_configurations
    over the searched leader sizes.  The oracle solves each one; exact
    mode solves only those its bounds cannot rule out and certifies the
    rest.  In approx mode it counts one configuration per set, so it
    equals leader_evaluations.  wall_time is in seconds.
    """

    config: AttackConfig
    predicted_g: float
    upper_bound: float
    leader_evaluations: int
    follower_candidates: int
    wall_time: float


def _check_adversary_set(network, adversaries, p):
    """(sorted set, p), checked by AttackConfig, plus what it allows but a
    fixed-set search cannot use; the leader budget is the caller's business."""
    config = AttackConfig(adversaries, (), _check_magnitude(p))
    config.validate_against(network, enforce_budgets=False)
    if not config.adversaries:
        raise ValidationError("adversary set must be nonempty")
    if len(config.adversaries) == network.agent_count:
        raise ValidationError("every agent is adversarial; nothing to evaluate")
    return config.adversaries, config.influence_magnitude


def _check_leader_size(network, leader_size):
    """Resolve leader_size (default: the full adversary budget) and check it."""
    budget = network.leader_budget()
    if budget < 1:
        raise ValidationError(
            f"{network.agent_count} agents leave no adversary budget; need at least 4"
        )
    if leader_size is None:
        return budget
    if _check_count(leader_size, "leader_size") > budget:
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

        m_i = p * (1 - r_i) * c_i      for unpinned i,  m_i = 0 otherwise.

    z0 and c are read off the inverse of the full system I - (I - Theta) W
    (``_schur_gains`` on a one-set stack), so their rounding grows with
    kappa_1 of that system, not of the restricted one.  The set's restricted
    system and its block of the inverse pass ``check_conditioned``.
    """
    adversaries, p = _check_adversary_set(params.network, adversaries, p)
    stack = np.array([adversaries])
    blocks = _restricted_blocks(params, stack)
    _, unpinned, w_uu, _, open_minded, _ = blocks

    def label(b):
        return f"adversary set {adversaries}"

    check_conditioned(np.eye(w_uu.shape[1]) - open_minded[:, :, None] * w_uu, label)
    z0, gain = _SchurGains(params, p)(stack, blocks, label)
    return MarginalGains(
        adversaries=adversaries,
        unpinned=tuple(unpinned[0].tolist()),
        base_fixed_point=z0[0],
        gain=gain[0],
    )


def solve_follower(params, adversaries, p=DEFAULT_P, mode="approx", cap=DEFAULT_CONFIG_CAP):
    """Best target choice for a fixed adversary set; returns (targets, g).

    ``targets`` maps every adversary to its (possibly empty) tuple of
    targets; ``g`` is the exact outcome of that choice.  Both modes run
    solve_attack's search on the one set.
    """
    adversaries, p = _check_adversary_set(params.network, adversaries, p)
    (_, items), g, _, _, _ = _search(params, p, lambda: [[adversaries]], mode, cap)
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
        self.params = params
        self.system = np.eye(params.n) - (1.0 - params.stubbornness)[:, None] * params.influence
        self.p = p
        self.minv = None
        self.kappa = None
        self.scores = None

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
        gains and the leader bounds are read off M^-1 itself.  So each
        entry's error stays within a few ulps of max(|g|, n) times
        kappa_1(M) = ||M||_1 ||M^-1||_1.  The allowance is
        64 n eps kappa_1(M) max(|g|, n), with recovery's multiplier for its
        own optimality test; it is never zero.
        """
        n = len(self.system)
        if self.kappa is None:
            self.kappa = (
                np.abs(self.system).sum(axis=0).max() * np.abs(self.inverse()).sum(axis=0).max()
            )
        return 64.0 * n * np.finfo(float).eps * self.kappa * max(abs(g), n)

    def leader_bounds(self, adversaries):
        """B(A) = g(empty) + sum of s_v over v in A, for a (sets, k) stack.

        With nobody pinned, z = M^-1 Theta s is the plain fixed point and
        1^T M^-1 is g's response to a unit injected at each agent.  Pinning
        v alone adds (1 - z_v) / Minv_vv times column v of M^-1 to z, so
        g rises by Delta_v = (1 - z_v) colsum(M^-1)_v / Minv_vv; the gains
        are m = p (1 - W z) (1 - Theta) M^-T 1; and s_v = Delta_v + top_v,
        top_v being v's top-budget positive gains over its out-neighbours
        other than itself.  B(A) >= UB(A), see the module docstring.  The
        scores are computed on first use, off the inverse the search holds.
        """
        if self.scores is None:
            params = self.params
            network = params.network
            minv = self.inverse()
            z = minv @ (params.stubbornness * params.intrinsic)
            reach = minv.sum(axis=0)
            pin = (1.0 - z) * reach / np.diag(minv)
            gain = self.p * (1.0 - params.influence @ z) * (1.0 - params.stubbornness) * reach
            others = network.support_mask().T & ~np.eye(params.n, dtype=bool)
            budgets = np.array([network.target_budget(j) for j in range(params.n)])
            top = _top_targets(gain, others[None], budgets[None])[0]
            self.scores = z.sum(), pin + np.where(top, gain, 0.0).sum(axis=1)
        empty, scores = self.scores
        return empty + scores[adversaries].sum(axis=1)


def _approx_scorer(params, p, gains, bounds):
    """score(chunk) for _leader_search: the approx follower of every set.

    Yields one batch per chunk: the exact g of every set's chosen targets,
    the (sets, k, n) boolean choice mask and the set indices.  z0 and the
    gains come from ``gains`` (a _SchurGains), as in marginal_gains; the
    re-score builds its systems as adversarial_outcome does.  Each chunk's
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

    def score(adversaries):
        sets, k = adversaries.shape
        rows = np.arange(sets)[:, None]
        blocks = _restricted_blocks(params, adversaries)
        pinned, unpinned, w_uu, w_ua, open_minded, base_rhs = blocks

        def label(b):
            return f"adversary set {tuple(adversaries[b].tolist())}"

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


def _stack(chunk):
    """A list of same-size sets as a (sets, k) index array."""
    k = len(chunk[0])
    flat = np.fromiter(chain.from_iterable(chunk), dtype=np.intp, count=len(chunk) * k)
    return flat.reshape(len(chunk), k)


def _leader_search(leader_sets, score, admit=None):
    """Score the configurations a scorer yields for every set; keep the best.

    ``leader_sets`` is a sequence of iterables of sorted same-size sets,
    taken LEADER_CHUNK at a time.  ``score(chunk)``, chunk a (sets, k)
    index array, yields (g, chosen, owner) batches: the exact g of each
    configuration it scores (all of them, unless it prunes), its
    (batch, k, n) target mask and the index of its set in the chunk.
    Higher g wins; an exact tie goes to the smaller (adversaries, items)
    key, so the result does not depend on which sets share a chunk.

    ``admit(adversaries, incumbent)``, if given, sees every LEADER_CHUNK
    sets as a (sets, k) array together with the best g so far (-inf
    before any set is scored) and returns their keep flags.  Only kept
    sets are scored, gathered LEADER_CHUNK at a time in enumeration order;
    the others count as covered.  Returns
    ((adversaries, items), g, sets covered, configurations scored).
    """
    best_key, best_g, sets, configs = None, -math.inf, 0, 0

    def chunks(group):
        nonlocal sets
        group, pending = iter(group), None
        while batch := list(islice(group, LEADER_CHUNK)):
            sets += len(batch)
            batch = _stack(batch)
            if admit is not None:
                batch = batch[admit(batch, best_g)]
            pending = batch if pending is None else np.concatenate([pending, batch])
            if len(pending) >= LEADER_CHUNK:
                yield pending[:LEADER_CHUNK]
                pending = pending[LEADER_CHUNK:]
        if pending is not None and len(pending):
            yield pending

    for group in leader_sets:
        for chunk in chunks(group):
            for g, chosen, owner in score(chunk):
                configs += len(g)
                top = g.max()
                if top < best_g:
                    continue
                for c in np.flatnonzero(g == top).tolist():
                    leaders = tuple(chunk[owner[c]].tolist())
                    items = tuple(
                        (j, tuple(np.flatnonzero(chosen[c, col]).tolist()))
                        for col, j in enumerate(leaders)
                    )
                    if top > best_g or (leaders, items) < best_key:
                        best_key, best_g = (leaders, items), float(top)
    return best_key, best_g, sets, configs


def _space_sizer(network):
    """sizes(adversaries): exact configuration count (Python ints) of each
    set in a (sets, k) array.

    Adversary a of a set chooses among the subsets of at most its target
    budget of its out-neighbours that avoid the set.  The count table is filled
    on first use and shared by every call of ``sizes``, so each of its
    entries is computed once.
    """
    degree = np.array([network.out_degree(j) for j in range(network.agent_count)])
    support = network.support_mask()
    # subsets[j, o]: agent j's choices when o of its out-neighbours are
    # adversaries too; filled[j] entries of row j are computed.
    subsets = np.zeros((network.agent_count, degree.max() + 1), dtype=object)
    filled = np.zeros(network.agent_count, dtype=int)

    def sizes(adversaries):
        agents = np.unique(adversaries)
        top = np.minimum(adversaries.shape[1], degree[agents]) + 1
        rows = (agents, degree[agents], filled[agents], top)
        for j, d, start, stop in zip(*(x.tolist() for x in rows)):
            for o in range(start, stop):
                budget = network.target_budget(j)
                subsets[j, o] = sum(math.comb(d - o, s) for s in range(budget + 1))
        filled[agents] = np.maximum(filled[agents], top)
        overlap = support[adversaries[:, None, :], adversaries[:, :, None]].sum(axis=2)
        return subsets[adversaries, overlap].prod(axis=1)

    return sizes


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


def _exact_scorer(params, p, prune=None):
    """score(chunk) for _leader_search: every joint target choice of every set.

    Adversary a may target at most its target budget of eligible
    out-neighbours.  Its choices are rows of a per-agent table of masks in
    canonical (size, lex) order, built on first use; a set's joint choices
    are decoded in mixed radix, last adversary fastest, which is
    itertools.product order.  CONFIG_CHUNK configurations at a time are
    decoded; those kept are stacked, guarded by ``linalg.check_conditioned``
    and solved together.

    With ``prune = (gains, threshold)``, gains a _SchurGains, a decoded
    configuration is stacked only if its first-order bound, sum(z0) + k
    plus the gains of its targets (each table row's sum taken once per
    set), reaches ``threshold``; the others are left unsolved.
    """
    network = params.network
    tables = {}

    def score(adversaries):
        sets, k = adversaries.shape

        def label(b):
            return f"adversary set {tuple(adversaries[b].tolist())}"

        agents = np.unique(adversaries).tolist()
        for j in agents:
            if j not in tables:
                tables[j] = _subset_masks(network, j, network.target_budget(j))
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


def _search(params, p, leader_sets, mode, cap):
    """The search of solve_attack and solve_follower in follower ``mode``.

    ``leader_sets()`` returns fresh groups of sets, as _leader_search takes
    them; it is called once.  Approx mode runs the approx scorer over the
    sets whose leader bound B(A) (``_SchurGains.leader_bounds``) reaches
    the threshold best g so far - slack (``_SchurGains.slack``); the first
    chunk is scored whole, so its sets are guarded before the full system
    is inverted.  Exact mode prunes with certified bounds.  Its first pass
    is that approx search: its best g is a feasible incumbent, and it gives
    every scored set's first-order bound UB(A), which no configuration of
    A exceeds.  Every set, scored or not, must stay within ``cap``
    configurations, checked before any of its chunk is scored.  The second
    pass runs the exact scorer over the scored sets with UB(A) >= the
    final threshold, and stacks only their configurations whose own bound
    clears it.  The comparisons are non-strict, so every set and
    configuration that could tie the optimum bitwise is solved.
    Returns ((adversaries, items), g, sets, configurations, max UB(A)).
    Both counts cover every set: approx mode counts one configuration per
    set, exact mode all those of every set, solved or certified unable to
    beat the incumbent.
    """
    if mode not in ("approx", "exact"):
        raise ValidationError(f"unknown follower mode {mode!r}")
    gains = _SchurGains(params, p)
    bounds = []
    approx = _approx_scorer(params, p, gains, bounds)

    def admit(adversaries, incumbent):
        if incumbent == -math.inf:
            return np.ones(len(adversaries), dtype=bool)
        return gains.leader_bounds(adversaries) >= incumbent - gains.slack(incumbent)

    if mode == "approx":
        key, g, sets, _ = _leader_search(leader_sets(), approx, admit)
        return key, g, sets, sets, max(float(b.max()) for b in bounds)
    counted, scored = [], []
    space_sizes = _space_sizer(params.network)

    def capped(adversaries, incumbent):
        sizes = space_sizes(adversaries)
        if cap is not None and (sizes > cap).any():
            size = sizes[np.argmax(sizes > cap)]
            raise CapExceededError(f"exact follower space has {size} configurations, cap is {cap}")
        counted.append(int(sizes.sum()))
        return admit(adversaries, incumbent)

    def first_pass(adversaries):
        scored.append(adversaries)
        return approx(adversaries)

    _, incumbent, sets, _ = _leader_search(leader_sets(), first_pass, capped)
    threshold = incumbent - gains.slack(incumbent)
    # The first pass scored its chunks in enumeration order, one size each.
    survivors = [
        [tuple(s) for chunk, ub in pairs for s in chunk[ub >= threshold].tolist()]
        for _, pairs in groupby(zip(scored, bounds), key=lambda pair: pair[0].shape[1])
    ]
    key, best_g, _, _ = _leader_search(
        survivors, _exact_scorer(params, p, prune=(gains, threshold))
    )
    return key, best_g, sets, sum(counted), max(float(b.max()) for b in bounds)


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
    from 1 up to the budget) and solves the follower problem for each
    whose leader bound can still reach the best g found so far; the plan
    is the one solving every set gives.
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

    (adversaries, items), best_g, sets, configs, upper = _search(
        params, p, leader_sets, follower_mode, cap
    )
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
    if _check_count(leader_size, "leader_size", minimum=0) > network.agent_count:
        raise ValidationError(
            f"leader_size {leader_size} outside 0..{network.agent_count}"
        )
    space_sizes = _space_sizer(network)
    sets = combinations(range(network.agent_count), leader_size)
    total = 0
    while chunk := list(islice(sets, LEADER_CHUNK)):
        total += int(space_sizes(_stack(chunk)).sum())
    return total


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
