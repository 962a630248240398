"""Two-level search for the most damaging attack configuration.

The leader level searches the adversary sets of a given size; the follower
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

Every search scores stacks of at most LEADER_CHUNK sets: a scorer yields
the exact g of batches of configurations, and ``_Argmax`` keeps the
lexicographic argmax.  Approx solve_attack picks the sets to score with
the leader tree (``_leader_tree``, below); the exact pass, the oracle,
one-set solve_follower and the ablation's drifting models walk their sets
with ``_leader_search``.  The ablation's pinned models run the approx
search itself, at p = 0 when targeting is off.

* The approx scorer gets z0 and c from ``_SchurGains``, which inverts
  the full n x n system I - (I - Theta) W once per search;
  ``_schur_gains`` reads every set's z0 and c off that inverse through
  the Schur complement, with one one-row product per set and one
  batched k x k solve each.  Every product is per set, so a set reads
  the same numbers whichever stack it rides in.  ``_top_targets`` (a masked stable top-budget
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
incumbent.  The exact scorer then visits only the scored sets with UB(A) >=
incumbent - slack and solves only their configurations whose own bound
clears the same threshold.  The comparisons are non-strict, so every bitwise
tie still reaches the tie rule.  The slack (``_SchurGains.slack``) is 64 n
eps kappa_1(M) max(|g|, n), one rounding rule that grows with the
conditioning of the full system.  Every set still passes the cap check, and
follower_candidates still counts every configuration of every set, solved or
certified unable to win.  brute_force_oracle stays exhaustive: it is the
reference the pruned search is tested against.

Approx mode does not enumerate adversary sets: ``_leader_tree`` runs a
certified branch-and-bound over them.  Pinned g0(A) = sum(z0) + |A| is
monotone and submodular in A (Gionis, Terzi & Tsaparas, "Opinion
Maximization in Social Networks", SDM 2013).  Read z_i(A) off a walk from
i: at agent j it is absorbed with value 1 if j is in A; else it stops with
value s_j with probability theta_j, or moves to k with probability
(1 - theta_j) w_jk.  Couple it with the walk that ignores A, stopping at
X_T.  Then z_i(A) = E[s_{X_T}] + E[(1 - s_{X_T}) 1{the walk meets A by
T}]: the indicator is a coverage function of A and 1 - s >= 0, so every
z_i, and g0 = sum_i z_i, is monotone and submodular.  Hence for A
containing S, g0(A) <= g0(S) + sum over v in A - S of Delta_v(S), with
Delta_v(S) = g0(S + {v}) - g0(S).  The gains only fall as A grows: for
unpinned i, 1 - r_i falls because pinning agents at 1 raises z0, and c_i
falls because the inverse of a principal submatrix of an M-matrix is
entrywise nonnegative and at most the same block of the full inverse.  So
an adversary's top-budget gains under A are at most top_j(m(S)), its
top-budget gains under S, and for every completion A of S from the
candidates C

    UB(A) <= UB+(S, C) = g0(S) + sum over j in S of top_j(m(S))
                         + the largest k - |S| values of
                           Delta_v(S) + top_v(m(S)) over v in C.

The tree grows sorted sets: the children of S are S + {v} for v > max S.
A node carries R, the restricted inverse (M_UU)^-1 embedded in n x n, and
z, its pinned fixed point; a child is one rank-1 downdate of its parent
(``_SchurGains.pin``), and every number of the bound is read off (R, z)
with no solve (``_SchurGains.scores``).  A greedy dive (the lazy-greedy
seed of Leskovec et al., KDD 2007) scores its set first.  A child is
dropped only when its bound, from the parent's data, is strictly below
incumbent - slack, so no set that could win or tie is lost; the leaves
are scored by the approx scorer, whose per-set numbers do not depend on
the stack, and the argmax does not depend on the order: the plan is full
enumeration's, bit for bit.  An unscored set still counts in
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
from itertools import chain, combinations, islice

import numpy as np

from .adversary import DEFAULT_P, AttackConfig, _restricted_blocks, _reweighted_systems
from .dynamics import _check_count
from .errors import CapExceededError, ValidationError
from .linalg import check_conditioned, invert_conditioned

# Exhaustive target enumeration refuses to look at more configurations than this.
DEFAULT_CONFIG_CAP = 10_000_000

# Adversary sets scored together, and leader-tree nodes expanded together.
# Of 32-1024 sets per chunk, 128 ran fastest for flat enumeration at n = 14
# and 20.  The tree holds at most one chunk of nodes, n^2 floats each, per
# depth: an approx plan peaks near 0.47 MB at n = 14 and 7.9 MB at
# Erdos-Renyi n = 30 (tracemalloc).
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
    scored, or left unscored because the leader tree's bound on a partial
    set certifies that none of its completions can win.  The bound caps
    UB(A) because pinned g0 is submodular (an absorbing-walk coverage
    argument) and the gains only fall as A grows (M-matrix monotonicity);
    see the module docstring.

    upper_bound is, in approx and exact mode, the largest first-order
    bound UB(A) over the scored sets, which is the largest over every
    set: an unscored set's UB(A) lies below the best g, which is at most
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
    label = _set_label(stack)
    _check_restricted(blocks, label)
    z0, gain = _SchurGains(params, p)(stack, blocks, label)
    return MarginalGains(
        adversaries=adversaries,
        unpinned=tuple(blocks[1][0].tolist()),
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
    (_, items), g, _, _, _ = _search(params, p, mode, cap, (len(adversaries),), adversaries)
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
    # The inverse permutation of each row's order is its rank.
    return eligible & (np.argsort(order, axis=2) < budgets[:, :, None])


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
    # Stacked one-row products, not one GEMM over the stack: a GEMM's
    # rounding depends on how many sets share it, and a set must read the
    # same z0 and gains whichever stack it rides in.
    y = np.matmul(rhs[:, None, :], minv.T)[:, 0]
    t = np.linalg.solve(minv_aa, y[rows, adversaries][:, :, None])
    # minv.T[adversaries][b, a, i] = Minv[i, A_a]: Minv_UA t for every row.
    z0 = (y[:, None, :] - np.matmul(t.transpose(0, 2, 1), minv.T[adversaries]))[:, 0]
    v = np.matmul(np.where(pinned, 0.0, 1.0)[:, None, :], minv)[:, 0]
    u = np.linalg.solve(minv_aa.transpose(0, 2, 1), v[rows, adversaries][:, :, None])
    c = (v[:, None, :] - np.matmul(u.transpose(0, 2, 1), minv[adversaries]))[:, 0]
    z0, c = z0[rows, unpinned], open_minded * c[rows, unpinned]
    received = np.matmul(w_uu, z0[:, :, None])[:, :, 0] + adversary_mass
    gain = np.zeros(pinned.shape)
    gain[rows, unpinned] = p * (1.0 - received) * c
    return z0, gain


class _SchurGains:
    """z0 and gains off one inverse of the full system M = I - (I - Theta) W.

    Calling it runs _schur_gains on a stack of sets.  M passes
    ``invert_conditioned`` when first needed, so a caller can guard sets'
    restricted systems before the full system.

    The other methods serve the leader tree.  A node is a sorted partial
    set S with two arrays: R, the restricted inverse (M_UU)^-1 embedded in
    n x n with zero rows and columns on S, and z, the pinned fixed point,
    1 on S.  Nodes travel as stacks (sets, R, z) of shapes (m, |S|),
    (m, n, n) and (m, n).
    """

    def __init__(self, params, p):
        self.params = params
        self.system = np.eye(params.n) - (1.0 - params.stubbornness)[:, None] * params.influence
        self.p = p
        self.minv = None
        self.kappa = None
        self.targets = None

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
        gains and the tree's nodes are read off M^-1 itself.  So each
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

    def root(self):
        """The tree's root: nobody pinned, R = M^-1 and z = M^-1 Theta s."""
        params = self.params
        if self.targets is None:
            network = params.network
            others = network.support_mask().T & ~np.eye(params.n, dtype=bool)
            budgets = np.array([network.target_budget(j) for j in range(params.n)])
            self.targets = others[None], budgets[None]
        minv = self.inverse()
        z = minv @ (params.stubbornness * params.intrinsic)
        return np.empty((1, 0), dtype=np.intp), minv[None], z[None]

    def scores(self, nodes):
        """(base, s) of a stack of nodes, read off (R, z) with no solve.

        The gains are m = p (1 - W z) (1 - Theta) 1^T R, zero on S, and
        top_j is agent j's top-budget positive gains over its out-neighbours
        other than itself (``_top_targets``).  S is where R's diagonal is
        0; elsewhere it is at least 1 (see ``pin``).  Pinning v adds
        (1 - z_v) R[:, v] / R_vv to z, so g0 rises by
        Delta_v = (1 - z_v) (1^T R)_v / R_vv.  base = g0(S) + the sum of
        top_j over j in S, with g0(S) = sum(z); s_v = Delta_v + top_v for v
        outside S and -inf on S.
        """
        _, inverse, z = nodes
        params = self.params
        diagonal = np.diagonal(inverse, axis1=1, axis2=2)
        pinned = diagonal == 0.0
        reach = inverse.sum(axis=1)
        gain = self.p * (1.0 - z @ params.influence.T) * (1.0 - params.stubbornness) * reach
        others, budgets = self.targets
        top = np.where(_top_targets(gain[:, None, :], others, budgets), gain[:, None, :], 0.0)
        top = top.sum(axis=2)
        delta = (1.0 - z) * reach / np.where(pinned, 1.0, diagonal)
        scores = np.where(pinned, -np.inf, delta + top)
        return z.sum(axis=1) + np.where(pinned, top, 0.0).sum(axis=1), scores

    def pin(self, nodes, owner, v):
        """The children S + {v[c]} of nodes owner[c]: one rank-1 downdate each.

        R' = R - R[:, v] R[v, :] / R_vv and z' = z + (1 - z_v) R[:, v] / R_vv,
        with row and column v of R' zeroed and z'_v = 1.  The pivot R_vv is
        at least 1, since M^-1 = sum of B^t >= I for the M-matrix M = I - B.
        """
        sets, inverse, z = nodes
        c = np.arange(len(v))
        inverse, z = inverse[owner], z[owner]
        column = inverse[c, :, v]
        pivot = column[c, v]
        inverse -= column[:, :, None] * (inverse[c, v, :] / pivot[:, None])[:, None, :]
        inverse[c, v, :] = 0.0
        inverse[c, :, v] = 0.0
        z += ((1.0 - z[c, v]) / pivot)[:, None] * column
        z[c, v] = 1.0
        return np.concatenate([sets[owner], v[:, None]], axis=1), inverse, z


def _child_bounds(sets, base, scores, k):
    """(m, n) bounds on every size-k completion through each child S + {v}.

    ``sets`` holds the nodes' S and (base, scores) is their
    ``_SchurGains.scores``.  The children of S are S + {v} for v > max S
    that leave room for k - |S| - 1 more agents above v.  Child v's bound
    is base + s_v + the largest k - |S| - 1 values of s_u over u > v; it is
    -inf where v is no child.  Its largest value is UB+(S, C), C = {v > max S}.
    """
    m, n = scores.shape
    later = k - sets.shape[1] - 1
    agents = np.arange(n)
    last = sets[:, -1:] if sets.shape[1] else np.full((m, 1), -1)
    bound = base[:, None] + scores
    if later:
        rest = np.where(agents[None, :] > agents[:, None], scores[:, None, :], -np.inf)
        bound = bound - np.sort(-rest, axis=2)[:, :, :later].sum(axis=2)
    return np.where((agents > last) & (agents < n - later), bound, -np.inf)


def _set_label(adversaries):
    """label(b) naming set b of a (sets, k) array in a guard's error."""
    return lambda b: f"adversary set {tuple(adversaries[b].tolist())}"


def _check_restricted(blocks, label):
    """Guard every set's restricted M_UU = I - (I - Theta_U) W_UU."""
    _, _, w_uu, _, open_minded, _ = blocks
    check_conditioned(np.eye(w_uu.shape[1]) - open_minded[:, :, None] * w_uu, label)


def _approx_scorer(params, p, gains, bounds):
    """score(chunk) for _leader_search: the approx follower of every set.

    Yields one batch per chunk: the exact g of every set's chosen targets,
    the (sets, k, n) boolean choice mask and the set indices.  z0 and the
    gains come from ``gains`` (a _SchurGains), as in marginal_gains; the
    re-score builds its systems as adversarial_outcome does.  Each chunk's
    first-order bounds UB(A) = sum(z0) + k + the chosen gains, which no
    configuration of A exceeds, are appended to ``bounds`` as one array.
    Every product is per set, so a set's g, targets and UB(A) do not depend
    on which sets share its chunk.  Each set's restricted M_UU and
    re-weighted system pass ``check_conditioned``.
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
        label = _set_label(adversaries)
        _check_restricted(blocks, label)
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


def _chunks(leader_sets):
    """(sets, k) index arrays of LEADER_CHUNK sets at a time, from a
    sequence of iterables of sorted same-size sets."""
    for group in leader_sets:
        group = iter(group)
        while chunk := list(islice(group, LEADER_CHUNK)):
            k = len(chunk[0])
            flat = np.fromiter(chain.from_iterable(chunk), dtype=np.intp, count=len(chunk) * k)
            yield flat.reshape(len(chunk), k)


class _Argmax:
    """The best configuration scored so far, and how many were scored.

    Higher g wins; an exact tie goes to the smaller (adversaries, items)
    key, so the result does not depend on the order in which sets are
    scored or on which sets share a chunk.  g is -inf before any score.
    """

    def __init__(self):
        self.key, self.g, self.configs = None, -math.inf, 0

    def score(self, score, chunk):
        """Keep the best configuration ``score(chunk)`` yields.

        ``score(chunk)``, chunk a (sets, k) index array, yields (g, chosen,
        owner) batches: the exact g of each configuration it scores (all of
        them, unless it prunes), its (batch, k, n) target mask and the
        index of its set in the chunk.
        """
        for g, chosen, owner in score(chunk):
            self.configs += len(g)
            top = g.max()
            if top < self.g:
                continue
            for c in np.flatnonzero(g == top).tolist():
                leaders = tuple(chunk[owner[c]].tolist())
                items = tuple(
                    (j, tuple(np.flatnonzero(chosen[c, col]).tolist()))
                    for col, j in enumerate(leaders)
                )
                if top > self.g or (leaders, items) < self.key:
                    self.key, self.g = (leaders, items), float(top)


def _leader_search(leader_sets, score):
    """Score the configurations a scorer yields for every set; keep the best.

    ``leader_sets`` is a sequence of iterables of sorted same-size sets,
    scored LEADER_CHUNK at a time; ``score`` and the tie rule are those
    of ``_Argmax``.  Returns
    ((adversaries, items), g, sets, configurations scored).
    """
    best, sets = _Argmax(), 0
    for chunk in _chunks(leader_sets):
        sets += len(chunk)
        best.score(score, chunk)
    return best.key, best.g, sets, best.configs


def _leader_tree(params, gains, sizes, score):
    """Certified branch-and-bound over the adversary sets of ``sizes``.

    Scores, with ``score`` (the approx scorer), every set that could beat
    or tie the best g found so far, and returns the argmax of full
    enumeration, ((adversaries, items), g).  The first LEADER_CHUNK sets
    in enumeration order have their restricted systems guarded before the
    full system is inverted, so a rejected set is named first.  The sizes
    run largest first and share one incumbent.
    """
    first = next(_chunks([combinations(range(params.n), k) for k in sorted(sizes)]))
    _check_restricted(_restricted_blocks(params, first), _set_label(first))
    best = _Argmax()
    for k in sorted(sizes, reverse=True):
        _branch_and_bound(gains, k, score, best)
    return best.key, best.g


def _branch_and_bound(gains, k, score, best):
    """One size of _leader_tree, sharing ``best`` (an _Argmax).

    The size is skipped when no child of the root reaches the incumbent
    - ``gains.slack``.  Otherwise a greedy dive from the root sets the first
    incumbent: k rank-1 steps, each pinning the agent with the largest
    s_v = Delta_v + top_v (the lowest index on a tie); the set it ends at
    is scored.  The tree then grows sorted sets depth first, LEADER_CHUNK
    children at a time, best bound first.  A child is dropped, before its
    (R, z) is built, only when its bound from the parent's data
    (``_child_bounds``) is strictly below the incumbent - ``gains.slack``,
    so every set that could win or tie bitwise reaches the tie rule.  The
    children at depth k are the leaves, scored LEADER_CHUNK at a time.  At
    most one chunk of nodes per depth is held at once, so memory stays
    O(k LEADER_CHUNK n^2).
    """
    stack = []

    def threshold():
        return best.g - gains.slack(best.g)

    def expand(nodes, bound):
        owner, v = np.nonzero(bound >= threshold())
        bound = bound[owner, v]
        order = np.argsort(-bound, kind="stable")
        for lo in reversed(range(0, len(order), LEADER_CHUNK)):
            part = order[lo : lo + LEADER_CHUNK]
            stack.append((nodes, owner[part], v[part], bound[part]))

    root = gains.root()
    base, scores = gains.scores(root)
    bound = _child_bounds(root[0], base, scores, k)
    if best.key is not None and not (bound >= threshold()).any():
        return
    nodes = root
    for step in range(k):
        if step:
            _, scores = gains.scores(nodes)
        nodes = gains.pin(nodes, np.zeros(1, dtype=np.intp), np.argmax(scores, axis=1))
    greedy = np.sort(nodes[0], axis=1)
    best.score(score, greedy)
    expand(root, bound)
    while stack:
        nodes, owner, v, bound = stack.pop()
        keep = bound >= threshold()
        owner, v = owner[keep], v[keep]
        if nodes[0].shape[1] < k - 1:
            if len(v):
                children = gains.pin(nodes, owner, v)
                expand(children, _child_bounds(children[0], *gains.scores(children), k))
            continue
        leaves = np.concatenate([nodes[0][owner], v[:, None]], axis=1)
        leaves = leaves[(leaves != greedy).any(axis=1)]
        if len(leaves):
            best.score(score, leaves)


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
        label = _set_label(adversaries)
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


def _search(params, p, mode, cap, sizes, adversaries=None):
    """The search of solve_attack and solve_follower in follower ``mode``.

    Searches every set of ``sizes``, or, given ``adversaries``, that one
    set.  Approx mode scores sets with the approx scorer: the one set
    directly, every set of ``sizes`` through the leader tree
    (``_leader_tree``), which scores only the sets whose bound reaches the
    best g so far - slack (``_SchurGains.slack``).  Exact mode prunes with
    certified bounds.  It first counts every set's configurations,
    unscored, and every set must stay within ``cap``.  Its first pass is
    that approx search: its best g is a feasible incumbent, and it gives
    every scored set's first-order bound UB(A), which no configuration of
    A exceeds.  The second pass runs the exact scorer over the scored sets
    with UB(A) >= the final threshold, and stacks only their
    configurations whose own bound clears it.  A set the tree did not
    score has UB(A) <= its tree bound, below that threshold.  The
    comparisons are non-strict, so every set and configuration that could
    tie the optimum bitwise is solved.
    Returns ((adversaries, items), g, sets, configurations, max UB(A)).
    Both counts cover every set: approx mode counts one configuration per
    set, exact mode all those of every set, solved or certified unable to
    beat the incumbent.
    """
    if mode not in ("approx", "exact"):
        raise ValidationError(f"unknown follower mode {mode!r}")

    def leader_sets():
        if adversaries is not None:
            return [[adversaries]]
        return [combinations(range(params.n), k) for k in sizes]

    if mode == "exact":
        configs = _count_configurations(params.network, leader_sets(), cap)
    gains = _SchurGains(params, p)
    bounds, scored = [], []
    approx = _approx_scorer(params, p, gains, bounds)

    def first_pass(chunk):
        scored.append(chunk)
        return approx(chunk)

    if adversaries is not None:
        key, incumbent, sets, _ = _leader_search(leader_sets(), first_pass)
    else:
        key, incumbent = _leader_tree(params, gains, sizes, first_pass)
        sets = sum(math.comb(params.n, k) for k in sizes)
    upper = max(float(b.max()) for b in bounds)
    if mode == "approx":
        return key, incumbent, sets, sets, upper
    threshold = incumbent - gains.slack(incumbent)
    survivors = {}
    for chunk, ub in zip(scored, bounds):
        kept = map(tuple, chunk[ub >= threshold].tolist())
        survivors.setdefault(chunk.shape[1], set()).update(kept)
    key, best_g, _, _ = _leader_search(
        [sorted(survivors[k]) for k in sorted(survivors)],
        _exact_scorer(params, p, prune=(gains, threshold)),
    )
    return key, best_g, sets, configs, upper


def solve_attack(
    params,
    p=DEFAULT_P,
    leader_size=None,
    follower_mode="approx",
    all_leader_sizes=False,
    cap=DEFAULT_CONFIG_CAP,
):
    """Search adversary sets and their best responses for the largest g.

    Searches the adversary sets of ``leader_size`` (default: the full
    adversary budget (n - 1) // 3; with ``all_leader_sizes`` every size
    from 1 up to the budget, largest first) by branch and bound, and
    solves the follower problem for each set the bound cannot rule out;
    the plan is the one solving every set gives.
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

    (adversaries, items), best_g, sets, configs, upper = _search(
        params, p, follower_mode, cap, sizes
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
    return _count_configurations(network, [combinations(range(network.agent_count), leader_size)])


def _count_configurations(network, leader_sets, cap=None):
    """Configurations of every set in ``leader_sets`` (as _leader_search
    takes them); raises CapExceededError if one set has more than ``cap``."""
    space_sizes = _space_sizer(network)
    total = 0
    for chunk in _chunks(leader_sets):
        sizes = space_sizes(chunk)
        if cap is not None and (sizes > cap).any():
            size = sizes[np.argmax(sizes > cap)]
            raise CapExceededError(f"exact follower space has {size} configurations, cap is {cap}")
        total += int(sizes.sum())
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
