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

where r_i = (W z)_i is the opinion mass row i already receives at the
unattacked pinned fixed point z (adversaries broadcast 1), and c_i
measures how strongly a unit injected into agent i's mixing moves g.
Writing M = I - (I - Theta) W and U for the unpinned agents, c is

    c = (I - Theta_U) (M_UU)^-T 1.

Gains are nonnegative up to rounding and additive to first order when
several adversaries pick the same target.

One kernel, ``_SchurGains``, gives every set's z and gains.  It inverts
the full n x n system M once per search, and ranks the agents once: by
descending root score s_v = Delta_v + top_v (below), the index breaking
ties.  A node of the leader tree is a partial set S, pinned in rank
order, with R = (M_UU)^-1 embedded in n x n, z and 1^T R; pinning one
more agent is one rank-1 downdate of all three (``_SchurGains.step``,
then ``pin``), and m = p (1 - W z) (1 - Theta) 1^T R.  A set is read off
its canonical node: the set pinned from the root in rank order, its last
agent applied to z and 1^T R only.  Every step is elementwise or a per-set
one-row product, so a set reads the same bits whichever stack carries it
and whether the tree, marginal_gains or solve_follower reaches it.  At
p = 0 every gain is exactly 0, and no gain is computed.

Every search scores stacks of at most LEADER_CHUNK sets: a scorer takes a
chunk with its read (z, gains) and yields the exact g of batches of
configurations; ``_Argmax`` keeps the lexicographic argmax.  solve_attack
and solve_follower run one entry, ``_search``, in either mode; it walks
the sets with the leader tree.  The oracle and the ablation's drifting
models walk every set with ``_leader_search``.  The ablation's pinned
models run the approx search itself, at p = 0 when targeting is off.

* The approx scorer picks each adversary's targets with ``_top_targets``
  (a masked stable top-budget selection, shared with the ablation's
  unpinned scorer); one guarded, batched solve (``_rescore``) re-scores
  the re-weighted systems.
* The exact scorer serves exact solve_attack, exact solve_follower and
  brute_force_oracle.  Each agent's within-budget target subsets are a
  table of boolean masks in canonical (size, lex) order; a set keeps the
  rows that avoid it, and its joint choices are decoded in mixed radix,
  last adversary fastest (itertools.product order).  CONFIG_CHUNK
  configurations at a time are re-scored together, by ``_rescore`` too.

Both modes prune with certified bounds.  For a set A, z its pinned fixed
point and m its gains, every targeting T obeys

    g(A, T) <= sum(z) + sum over adversaries j of sum_{i in T_j} m_i

because the remainder is -1^T M'^-1 Delta M^-1 D (1 - r) <= 0: M and the
re-weighted M' are nonsingular M-matrices, so their inverses are entrywise
nonnegative (Berman & Plemmons, ch. 6), Delta >= 0, and the received mass
r <= 1 (W's rows sum to 1 and opinions lie in [0, 1]).  Its maximum over T,
UB(A), adds each adversary's top-budget positive gains to sum(z): exactly
what the approx scorer assembles.  Exact mode scores each leaf chunk in one
visit: first with its approx configurations, whose exact g can raise the
incumbent, then with the exact scorer, which skips a set whose UB(A) is
below the live threshold incumbent - slack before decoding any of its
configurations, and solves only the configurations whose own bound reaches
it.  g lies in [0, n], so the slack is constant and the threshold only
rises: whatever was pruned early lies below the final threshold too.  The
comparisons are non-strict, so every bitwise tie still reaches the tie
rule.  The slack (``_SchurGains.slack``) is 64 n eps kappa_1(M) max(|g|,
n), one rounding rule that grows with the conditioning of the full system.
Every set still passes the cap check, and follower_candidates still counts
every configuration of every set, solved or certified unable to win.
brute_force_oracle stays exhaustive: it is the reference the pruned search
is tested against.

The leader tree (``_branch_and_bound``) does not enumerate adversary sets.
Pinned g0(A) = sum(z) is monotone and submodular in A (Gionis, Terzi &
Tsaparas, "Opinion Maximization in Social Networks", SDM 2013).  Read
z_i(A) off a walk from i: at agent j it is absorbed with value 1 if j is in
A; else it stops with value s_j with probability theta_j, or moves to k
with probability (1 - theta_j) w_jk.  Couple it with the walk that ignores
A, stopping at X_T.  Then z_i(A) = E[s_{X_T}] + E[(1 - s_{X_T}) 1{the walk
meets A by T}]: the indicator is a coverage function of A and 1 - s >= 0,
so every z_i, and g0 = sum_i z_i, is monotone and submodular.  Hence for A
containing S, g0(A) <= g0(S) + sum over v in A - S of Delta_v(S), with
Delta_v(S) = g0(S + {v}) - g0(S).  The gains only fall as A grows: for
unpinned i, 1 - r_i falls because pinning agents at 1 raises z, and c_i
falls because the inverse of a principal submatrix of an M-matrix is
entrywise nonnegative and at most the same block of the full inverse.  So
an adversary's top-budget gains under A are at most top_j(m(S)), its
top-budget gains under S, and for every completion A of S from the
candidates C

    UB(A) <= UB+(S, C) = g0(S) + sum over j in S of top_j(m(S))
                         + the largest k - |S| values of
                           Delta_v(S) + top_v(m(S)) over v in C.

The tree grows sets in rank order: the children of S are S + {v} for v
ranked after S's last agent, so a child's completions draw only on agents
ranked after it, and the best-scoring agents come first (ordering
candidates by score is standard for branch-and-bound over submodular
objectives: Nemhauser, Wolsey & Fisher, Math. Programming 1978).  Every
number of the bound is read off a node with no solve
(``_SchurGains.scores``); the sums of largest values it needs do not
depend on how ties are ordered, so they take one sort and a masked
cumulative count, not a rank per agent.  A greedy dive (the lazy-greedy
seed of Leskovec et al., KDD 2007) chooses the first set to score; its
nodes are reused for the greedy set's canonical read as far as it pinned
in rank order.  A child is scored from its parent's R before its own R
is built, and built only if one of its children can still reach the
threshold.  A child is dropped only when its bound, from the parent's
data, is strictly below incumbent - slack, so no set that could win or
tie is lost; the leaves are read off their parents (``_SchurGains.leaves``)
with the bits of their canonical nodes, and the argmax does not depend on
the order: the plan is full enumeration's, bit for bit.  An unscored set
still counts in leader_evaluations (and, in exact mode, its
configurations in follower_candidates) as covered.

The full system passes ``linalg.invert_conditioned`` as the kernel is
built; every scored set's restricted system and every re-scored system
pass ``linalg.check_conditioned``, which clears a stack by a
diagonal-dominance bound, or else by the exact rcond, and names the
adversary set it rejects.  Unscored sets are guarded only if M is
refused, so that ``_search`` names a refused set first on either entry:
while M passes, so does every restricted M_UU.  M
is a nonsingular M-matrix, so ||M_UU||_1 <= ||M||_1 (a principal
submatrix), and 0 <= (M_UU)^-1 <= (M^-1)_UU entrywise (the node's R, see
``_SchurGains.pin``), so ||(M_UU)^-1||_1 <= ||M^-1||_1 and
kappa_1(M_UU) <= kappa_1(M).  A node read divides only by pivots
R_vv >= 1.  Every exact score, stacked or one at a time
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
from .dynamics import _as_float, _check_count
from .errors import CapExceededError, ConvergenceError, ValidationError
from .linalg import check_conditioned, invert_conditioned

# Exhaustive target enumeration refuses to look at more configurations than this.
DEFAULT_CONFIG_CAP = 10_000_000

# Adversary sets scored together, and leader-tree leaves read together.
# Of 32-1024 sets per chunk, 128 ran fastest for flat enumeration at n = 14
# and 20.
LEADER_CHUNK = 128

# Bytes of R held per chunk of inner leader-tree nodes, n^2 floats each:
# LEADER_CHUNK nodes up to n = 30, fewer above (11 at n = 100).  The tree
# holds at most one chunk per depth, so its nodes peak near (k - 1)
# NODE_BYTES: 7.4 MB at n = 30 and 29 MB at n = 100 (k = 33).  Measured
# with tracemalloc, an approx plan peaks near 0.04 MB at complete n = 14,
# 0.4 MB at Erdos-Renyi n = 30, 4.4 MB at n = 40, 14.5 MB at n = 60 and
# 28 MB at n = 100 (edge probability 0.05, after its first minute).
NODE_BYTES = LEADER_CHUNK * 30 * 30 * 8


def _node_chunk(n):
    """Inner leader-tree nodes built together at n agents."""
    return max(1, min(LEADER_CHUNK, NODE_BYTES // (8 * n * n)))


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
    the winner's UB(A).  Each set's UB(A) is read off its canonical node,
    so both modes report the same bits.  No configuration of any set has
    a larger exact g, up to the rounding slack, so an approx plan's
    certified gap is upper_bound - predicted_g.  The oracle reports its
    best g, which its exhaustive search certifies.

    follower_candidates counts, in exact mode and for the oracle, every
    configuration of every searched set, which equals count_configurations
    over the searched leader sizes.  The oracle solves each one; exact
    mode, in its one pass over the leader tree, solves only those its
    bounds cannot rule out and certifies the rest.  In approx mode it
    counts one configuration per set, so it equals leader_evaluations.
    wall_time is in seconds.
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
    if (leader_size := _check_count(leader_size, "leader_size")) > budget:
        raise ValidationError(
            f"leader_size {leader_size} outside the feasible range 1..{budget}"
        )
    return leader_size


def _check_magnitude(p):
    p = _as_float(p, "influence magnitude")
    if not np.isfinite(p) or not 0.0 < p < 1.0:
        raise ValidationError(f"influence magnitude must lie in (0, 1), got {p!r}")
    return p


def _check_cap(cap):
    """Reject a configuration cap that is neither None (no cap) nor an int >= 1."""
    if cap is not None:
        _check_count(cap, "cap")


def marginal_gains(params, adversaries, p=DEFAULT_P):
    """First-order gain in g per added targeting edge, for a fixed adversary set.

        m_i = p * (1 - r_i) * c_i      for unpinned i,  m_i = 0 otherwise.

    z0 and c are read off the set's node in the leader tree
    (``_SchurGains.read``), which pins the set into the inverse of the full
    system I - (I - Theta) W one agent at a time, so their rounding grows
    with kappa_1 of that system, not of the restricted one.  The set's
    restricted system passes ``check_conditioned`` first.
    """
    adversaries, p = _check_adversary_set(params.network, adversaries, p)
    stack = np.array([adversaries])
    blocks = _restricted_blocks(params, stack)
    _check_restricted(blocks, _set_label(stack))
    z, gain = _SchurGains(params, p).read(stack)
    unpinned = blocks[1][0]
    return MarginalGains(
        adversaries=adversaries,
        unpinned=tuple(unpinned.tolist()),
        base_fixed_point=z[0, unpinned],
        gain=gain[0],
    )


def solve_follower(params, adversaries, p=DEFAULT_P, mode="approx", cap=DEFAULT_CONFIG_CAP):
    """Best target choice for a fixed adversary set; returns (targets, g).

    ``targets`` maps every adversary to its (possibly empty) tuple of
    targets; ``g`` is the exact outcome of that choice.  Both modes run
    solve_attack's search on the one set.
    """
    adversaries, p = _check_adversary_set(params.network, adversaries, p)
    _check_cap(cap)
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


class _SchurGains:
    """The leader tree's nodes, and every set's z and gains read off them.

    M = I - (I - Theta) W is inverted (``minv``, through
    ``invert_conditioned``, which refuses an ill-conditioned M) when the
    kernel is built, with kappa_1(M), the root and its scores.  A node is
    a partial set S, its agents in the order they were pinned, with three
    arrays: R, the restricted inverse (M_UU)^-1 embedded in n x n with
    zero rows and columns on S; z, the pinned fixed point, 1 on S; and
    1^T R, zero on S.  Nodes travel as stacks (sets, R, z, 1^T R) of
    shapes (m, |S|), (m, n, n), (m, n) and (m, n).  The root pins nobody,
    and its scores fix ``rank``.

    A set's z and gains come from its canonical node: the set pinned from
    the root in rank order, which is how the tree reaches it, with its
    last agent applied to z and 1^T R only (``leaves``, ``read``).  Every
    step is elementwise or a per-set one-row product, so a set reads the
    same bits whichever stack carries it and whichever caller reaches it.
    Reads are returned, never kept: after ``__init__`` nothing changes.
    """

    def __init__(self, params, p):
        network = params.network
        self.params = params
        self.system = np.eye(params.n) - (1.0 - params.stubbornness)[:, None] * params.influence
        self.p = p
        # Agent j may target its out-neighbours other than itself.
        self.others = network.support_mask().T & ~np.eye(params.n, dtype=bool)
        self.budgets = np.array([network.target_budget(j) for j in range(params.n)])
        # Whether any gain can be taken: at p = 0 every gain is exactly 0,
        # and with every budget 0 nobody may target.
        self.targeting = bool(p) and bool(self.budgets.any())
        # The agents with a budget, and each one's targets padded with n.
        self.targeters = np.flatnonzero(self.budgets)
        owner, target = np.nonzero(self.others[self.targeters])
        count = np.bincount(owner, minlength=len(self.targeters))
        self.targets = np.full((len(self.targeters), count.max(initial=0)), params.n)
        self.targets[owner, np.arange(len(owner)) - (np.cumsum(count) - count)[owner]] = target
        self.minv = invert_conditioned(self.system[None], lambda b: "system I - (I - Theta) W")[0]
        self.kappa = np.abs(self.system).sum(axis=0).max() * np.abs(self.minv).sum(axis=0).max()
        # The root pins nobody: R = M^-1 and z = M^-1 Theta s.
        z = self.minv @ (params.stubbornness * params.intrinsic)
        nobody = np.empty((1, 0), dtype=np.intp)
        self.root = nobody, self.minv[None], z[None], self.minv.sum(axis=0)[None]
        self.root_scores = self.scores(*self.root[2:], np.diagonal(self.minv)[None])
        # rank[v]: v's place in descending root score, the index breaking ties.
        self.rank = np.argsort(np.argsort(-self.root_scores[1][0], kind="stable"))

    def slack(self, g):
        """Rounding allowance when a computed first-order bound meets a computed g.

        Both are sums of n entries.  The systems solved for g have inverses
        entrywise at most M^-1: each is a principal submatrix of the
        M-matrix M, or one with smaller off-diagonal weights.  The nodes
        are read off M^-1 itself.  So each entry's error stays within a few
        ulps of max(|g|, n) times kappa_1(M) = ||M||_1 ||M^-1||_1.  The
        allowance is 64 n eps kappa_1(M) max(|g|, n), with recovery's
        multiplier for its own optimality test; it is never zero.
        """
        n = len(self.system)
        return 64.0 * n * np.finfo(float).eps * self.kappa * max(abs(g), n)

    def threshold(self, g):
        """The least bound that can still beat or tie an incumbent g."""
        return g - self.slack(g)

    def marginal(self, z, reach):
        """m = p (1 - W z) (1 - Theta) 1^T R of a stack of nodes' z and 1^T R.

        W z is one one-row product per node, not one GEMM over the stack,
        whose rounding would depend on how many nodes share it.  m is zero
        on S, where 1^T R is, and everywhere at p = 0.
        """
        if not self.p:
            return np.zeros_like(z)
        received = np.matmul(z[:, None, :], self.params.influence.T)[:, 0]
        return self.p * (1.0 - received) * (1.0 - self.params.stubbornness) * reach

    def top_sums(self, gain):
        """top_j of a (m, n) stack of gains: agent j's top-budget positive
        gains over its out-neighbours other than itself, summed.

        A sum does not depend on how equal gains are ordered, so no rank
        of the targets is built: each agent's targets' gains are gathered,
        floored at 0, sorted and the last budget of them summed.  With no
        gain to take every top_j is 0.
        """
        m, n = gain.shape
        top = np.zeros((m, n))
        if not self.targeting:
            return top
        floored = np.concatenate([np.maximum(gain, 0.0), np.zeros((m, 1))], axis=1)
        pool = floored[:, self.targets]
        pool.sort(axis=2)
        width = pool.shape[2]
        kept = np.arange(width) >= width - self.budgets[self.targeters, None]
        top[:, self.targeters] = np.where(kept, pool, 0.0).sum(axis=2)
        return top

    def scores(self, z, reach, diagonal):
        """(base, s) of a stack of nodes, from their z, 1^T R and R's diagonal.

        top_j is agent j's top-budget positive gains (``top_sums``).  S is
        where R's diagonal is 0; elsewhere it is at least 1 (see ``pin``).
        Pinning v adds (1 - z_v) R[:, v] / R_vv to z, so g0 rises by
        Delta_v = (1 - z_v) (1^T R)_v / R_vv.  base = g0(S) + the sum of
        top_j over j in S, with g0(S) = sum(z); s_v = Delta_v + top_v for v
        outside S and -inf on S.
        """
        pinned = diagonal == 0.0
        top = self.top_sums(self.marginal(z, reach))
        delta = (1.0 - z) * reach / np.where(pinned, 1.0, diagonal)
        scores = np.where(pinned, -np.inf, delta + top)
        return z.sum(axis=1) + np.where(pinned, top, 0.0).sum(axis=1), scores

    def step(self, nodes, owner, v):
        """The children S + {v[c]} of nodes owner[c], without building R'.

        Returns (owner, v, R[:, v], R[v, :] / R_vv, z', 1^T R', diag R'),
        for ``pin`` to finish and ``scores`` to read off the last three:
        z' = z + (1 - z_v) R[:, v] / R_vv, 1^T R' = 1^T R - (1^T R)_v R[v, :]
        / R_vv and diag R' = diag R - R[:, v] R[v, :] / R_vv, bitwise the
        diagonal ``pin`` builds, with z'_v = 1 and (1^T R')_v = diag R'_v = 0.
        """
        _, inverse, z, reach = nodes
        c = np.arange(len(v))
        z, reach, column = z[owner], reach[owner], inverse[owner, :, v]
        pivot = column[c, v]
        row = inverse[owner, v, :] / pivot[:, None]
        z += ((1.0 - z[c, v]) / pivot)[:, None] * column
        reach -= reach[c, v][:, None] * row
        diagonal = np.diagonal(inverse, axis1=1, axis2=2)[owner] - column * row
        z[c, v], reach[c, v], diagonal[c, v] = 1.0, 0.0, 0.0
        return owner, v, column, row, z, reach, diagonal

    def pin(self, nodes, step):
        """The children a ``step`` of ``nodes`` holds: one rank-1 downdate each.

        R' = R - R[:, v] R[v, :] / R_vv with row and column v zeroed, and z'
        and 1^T R' as ``step`` holds them.  The pivot R_vv is at least 1,
        since M^-1 = sum of B^t >= I for the M-matrix M = I - B.
        """
        owner, v, column, row, z, reach, _ = step
        c = np.arange(len(v))
        inverse = nodes[1][owner]
        inverse -= column[:, :, None] * row[:, None, :]
        inverse[c, v, :] = 0.0
        inverse[c, :, v] = 0.0
        return np.concatenate([nodes[0][owner], v[:, None]], axis=1), inverse, z, reach

    def leaves(self, nodes, owner, v):
        """(sets, z, gains) of the sets S + {v[c]} of nodes owner[c], read
        without building R: a (sets, k) stack of sorted sets, their pinned
        fixed points (1 on the set) and their gains (zero on the set)."""
        *_, z, reach, _ = self.step(nodes, owner, v)
        sets = np.sort(np.concatenate([nodes[0][owner], v[:, None]], axis=1), axis=1)
        return sets, z, self.marginal(z, reach)

    def read(self, adversaries):
        """(z, gains) of a (sets, k) stack of sorted sets, as ``leaves`` reads
        them off their canonical nodes, pinned from the root in rank order."""
        sets, k = adversaries.shape
        nodes, owner = self.root, np.zeros(sets, dtype=np.intp)
        pins = np.take_along_axis(adversaries, np.argsort(self.rank[adversaries], axis=1), axis=1)
        for col in range(k - 1):
            nodes, owner = self.pin(nodes, self.step(nodes, owner, pins[:, col])), np.arange(sets)
        return self.leaves(nodes, owner, pins[:, -1])[1:]


def _child_bounds(rank, sets, base, scores, k):
    """(m, n) bounds on every size-k completion through each child S + {v}.

    ``sets`` holds the nodes' S in rank order, (base, scores) is their
    ``_SchurGains.scores`` and ``rank`` the agents' rank.  The children of
    S are S + {v} for v ranked after S's last agent, leaving room for
    L = k - |S| - 1 more agents ranked after v.  Child v's bound is
    base + s_v + the largest L values of s_u over u ranked after v; it is
    -inf where v is no child.  Its largest value is UB+(S, C), C the agents
    ranked after S.  The sum does not depend on how equal scores are
    ordered, so no sort per child is needed: each node's scores are sorted
    once, and one masked cumulative count along that order keeps, for each
    v, the first L that rank after v.
    """
    m, n = scores.shape
    later = k - sets.shape[1] - 1
    after = rank[sets[:, -1:]] if sets.shape[1] else np.full((m, 1), -1)
    bound = base[:, None] + scores
    if later:
        order = np.argsort(-scores, axis=1)
        above = rank[order][:, None, :] > rank[None, :, None]
        above &= np.cumsum(above, axis=2, dtype=np.int16) <= later
        ranked = np.take_along_axis(scores, order, axis=1)
        bound = bound + np.where(above, ranked[:, None, :], 0.0).sum(axis=2)
    return np.where((rank > after) & (rank < n - later), bound, -np.inf)


def _set_label(adversaries):
    """label(b) naming set b of a (sets, k) array in a guard's error."""
    return lambda b: f"adversary set {tuple(adversaries[b].tolist())}"


def _check_restricted(blocks, label):
    """Guard every set's restricted M_UU = I - (I - Theta_U) W_UU."""
    _, _, w_uu, _, open_minded, _ = blocks
    check_conditioned(np.eye(w_uu.shape[1]) - open_minded[:, :, None] * w_uu, label)


def _rescore(batches, p):
    """(g, chosen, owner) of each batch (blocks, chosen, owner, label): the
    exact g of each configuration chosen[c], a (k, n) target mask, on the
    set whose ``_restricted_blocks`` (past ``pinned``) are member c of
    ``blocks``; each re-weighted system passes ``check_conditioned``.  A
    batch's blocks are released once its systems are built, its other arrays
    only after the next batch's exist: freed at once, they let glibc trim the
    heap and fault it back in (oracle +8%, plan_exact pool, 2-core host).
    """
    for blocks, chosen, owner, label in batches:
        unpinned, *system = blocks
        hits = chosen[np.arange(len(chosen))[:, None], :, unpinned]
        matrix, rhs = _reweighted_systems(*system, hits, p)
        del blocks, system
        check_conditioned(matrix, label)
        z = np.linalg.solve(matrix, rhs[:, :, None])[:, :, 0]
        yield z.sum(axis=1) + chosen.shape[1], chosen, owner


def _approx_scorer(params, p, gains, bounds):
    """score(chunk, z, gains), as _Argmax takes it: the approx follower of every set.

    Yields one batch per chunk (``_rescore``): the exact g of every set's
    chosen targets, the (sets, k, n) boolean choice mask and the set
    indices.  z and the gains are the chunk's read, passed in with it, and
    ``gains`` the _SchurGains that read it.  Each chunk's first-order
    bounds UB(A) = sum(z) + the chosen gains, which no configuration of A
    exceeds, are appended to ``bounds`` as one array.  Every product is per
    set, so a set's g, targets and UB(A) do not depend on which sets share
    its chunk.  Each set's restricted M_UU and its re-weighted system pass
    ``check_conditioned``.  With no gain to take (``gains.targeting`` false,
    as at p = 0) no target is chosen and the top-target step is skipped.
    """

    def score(adversaries, fixed, gain):
        sets, k = adversaries.shape
        blocks = _restricted_blocks(params, adversaries)
        label = _set_label(adversaries)
        _check_restricted(blocks, label)
        chosen = np.zeros((sets, k, params.n), dtype=bool)
        if gains.targeting:
            eligible = gains.others[adversaries] & ~blocks[0][:, None, :]
            chosen = _top_targets(gain[:, None, :], eligible, gains.budgets[adversaries])
        bounds.append(fixed.sum(axis=1) + np.einsum("bkn,bn->b", chosen, gain))
        yield from _rescore([(blocks[1:], chosen, np.arange(sets), label)], p)

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

    def score(self, score, chunk, *read):
        """Keep the best configuration ``score(chunk, *read)`` yields: chunk
        is a (sets, k) index array, ``read`` its (z, gains) if the scorer
        takes them.  The scorer yields (g, chosen, owner) batches: the exact
        g of each configuration it scores (all of them, unless it prunes),
        its (batch, k, n) target mask and the index of its set in the chunk.
        """
        for g, chosen, owner in score(chunk, *read):
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
    scored LEADER_CHUNK at a time, each chunk alone, with no read; ``score``
    and the tie rule are those of ``_Argmax``.  Returns
    ((adversaries, items), g, sets, configurations scored).
    """
    best, sets = _Argmax(), 0
    for chunk in _chunks(leader_sets):
        sets += len(chunk)
        best.score(score, chunk)
    return best.key, best.g, sets, best.configs


def _branch_and_bound(gains, k, score, best):
    """Certified branch-and-bound over the size-k sets, sharing ``best`` (an _Argmax).

    Scores, with ``score``, every set that could beat or tie the best g
    found so far, so ``best`` ends as the argmax of full enumeration.  The
    size is skipped when no child of the root reaches the threshold
    ``gains.threshold(best.g)``.  Otherwise a greedy dive from the root
    chooses the first set to score: k - 1 rank-1 steps, each pinning the
    agent with the largest s_v = Delta_v + top_v (the lowest index on a
    tie), then the best such agent of the last node.  The greedy set is
    read off its canonical node, pinned in rank order, so the dive's nodes
    are reused for as long as its pins follow that order (its first always
    does: the root's best agent ranks first), and only the rest is pinned
    again.

    The tree then grows sets in rank order (``gains.rank``) depth first,
    best bound first.  A child is dropped, before anything of it is read,
    only when its bound from the parent's data (``_child_bounds``) is
    strictly below the threshold, so every set that could win or tie
    bitwise reaches the tie rule.  A kept inner child is scored off its
    parent's R (``gains.step``), and its own R is built from that step
    (``gains.pin``) only if one of its children reaches the threshold.
    The children at depth k are the leaves: ``gains.leaves`` reads them
    off their parents, and ``score`` gets them LEADER_CHUNK at a time with
    their (z, gains).  Inner children are taken at most ``_node_chunk(n)``
    at a time, and one such chunk of nodes per depth is held, so the nodes
    peak near (k - 1) NODE_BYTES.
    """
    root, rank, stack = gains.root, gains.rank, []
    inner = _node_chunk(len(rank))

    def expand(nodes, bound):
        owner, v = np.nonzero(bound >= gains.threshold(best.g))
        bound = bound[owner, v]
        order = np.argsort(-bound, kind="stable")
        size = inner if nodes[0].shape[1] < k - 1 else LEADER_CHUNK
        for lo in reversed(range(0, len(order), size)):
            part = order[lo : lo + size]
            stack.append((nodes, owner[part], v[part], bound[part]))

    base, scores = gains.root_scores
    bound = _child_bounds(rank, root[0], base, scores, k)
    if best.key is not None and not (bound >= gains.threshold(best.g)).any():
        return
    one = np.zeros(1, dtype=np.intp)
    path = [root]
    for _ in range(k - 1):
        step = gains.step(path[-1], one, np.argmax(scores, axis=1))
        _, scores = gains.scores(*step[4:])
        path.append(gains.pin(path[-1], step))
    dive = np.append(path[-1][0][0], np.argmax(scores[0]))
    canonical = dive[np.argsort(rank[dive])]
    reused = np.argmin(np.append(dive[: k - 1] == canonical[: k - 1], False))
    nodes = path[reused]
    for v in canonical[reused : k - 1]:
        nodes = gains.pin(nodes, gains.step(nodes, one, v[None]))
    best.score(score, *gains.leaves(nodes, one, canonical[-1:]))
    expand(root, bound)
    while stack:
        nodes, owner, v, bound = stack.pop()
        threshold = gains.threshold(best.g)
        keep = bound >= threshold
        owner, v = owner[keep], v[keep]
        if nodes[0].shape[1] == k - 1:
            fresh = (nodes[0][owner] != canonical[:-1]).any(axis=1) | (v != canonical[-1])
            if fresh.any():
                best.score(score, *gains.leaves(nodes, owner[fresh], v[fresh]))
        elif len(v):
            sets = np.concatenate([nodes[0][owner], v[:, None]], axis=1)
            step = gains.step(nodes, owner, v)
            bound = _child_bounds(rank, sets, *gains.scores(*step[4:]), k)
            alive = (bound >= threshold).any(axis=1)
            if alive.any():
                expand(gains.pin(nodes, [x[alive] for x in step]), bound[alive])


def _space_sizer(network):
    """sizes(adversaries): exact configuration count (Python ints) of each
    set in a (sets, k) array.

    Adversary a of a set chooses among the subsets of at most its target
    budget of its out-neighbours that avoid the set.  The count table is
    filled once, when the sizer is built, and shared by every call.
    """
    degree = np.array([network.out_degree(j) for j in range(network.agent_count)])
    support = network.support_mask()
    # subsets[j, o]: agent j's choices when o of its out-neighbours are
    # adversaries too, F(d - o) for F(m) = sum_{s <= budget} C(m, s), which
    # obeys F(0) = 1 and F(t + 1) = 2 F(t) - C(t, budget); C(t, budget) is
    # 0 below t = budget, 1 at it, and C(t - 1, budget) t / (t - budget) above.
    subsets = np.zeros((len(degree), degree.max() + 1), dtype=object)
    for j, d in enumerate(degree.tolist()):
        budget, choices, comb = network.target_budget(j), [1], 0
        for t in range(d):
            comb = comb * t // (t - budget) if t > budget else int(t == budget)
            choices.append(2 * choices[-1] - comb)
        subsets[j, : d + 1] = choices[::-1]

    def sizes(adversaries):
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


def _exact_scorer(params, p, threshold=None):
    """score(chunk, z, gains), as _Argmax takes it: every joint target choice of every set.

    Adversary a may target at most its target budget of eligible
    out-neighbours.  Its choices are rows of a per-agent table of masks in
    canonical (size, lex) order, built on first use; a set's joint choices
    are decoded in mixed radix, last adversary fastest, which is
    itertools.product order.  CONFIG_CHUNK configurations at a time are
    decoded; those kept are re-scored together (``_rescore``).

    The scorer prunes iff it is given ``threshold``, a function of no
    arguments that returns the live threshold (``gains.threshold(best.g)``
    in ``_search``); the oracle gives none, and no read.  A pruned chunk
    comes with its z and gains, and a configuration's first-order bound is
    sum(z) plus the gains of its targets (each table row's sum taken once
    per set).  A set whose largest bound, UB(A), is below the threshold is
    skipped before any of its configurations is decoded.  Rounding is
    monotone, so UB(A) is bitwise the largest of its configurations'
    bounds.  Of the other sets, a decoded configuration is stacked only if
    its own bound reaches the threshold; the rest are left unsolved.
    """
    network = params.network
    prune = threshold is not None
    tables = {}

    def score(adversaries, fixed=None, gain=None):
        sets, k = adversaries.shape
        label = _set_label(adversaries)
        agents = np.unique(adversaries).tolist()
        for j in agents:
            if j not in tables:
                tables[j] = _subset_masks(network, j, network.target_budget(j))
        table = np.concatenate([tables[j] for j in agents])
        agent_of = np.repeat(agents, [len(tables[j]) for j in agents])
        blocks = _restricted_blocks(params, adversaries)[1:]
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
            if prune:
                sums.append(np.einsum("rn,rn->r", table[row], gain[which]))
        first = np.cumsum(count, axis=0) - count
        configs = count.prod(axis=1)
        if prune:
            base = fixed.sum(axis=1)
            # Every set keeps the empty choice, so each reduceat group is nonempty.
            top = base + sum(np.maximum.reduceat(sums[col], first[:, col]) for col in range(k))
            configs[top < threshold()] = 0
        ends = np.cumsum(configs)

        def batches():
            for lo in range(0, int(ends[-1]), CONFIG_CHUNK):
                index = np.arange(lo, min(lo + CONFIG_CHUNK, int(ends[-1])))
                owner = np.searchsorted(ends, index, side="right")
                local = index - (ends - configs)[owner]
                position = np.empty((len(index), k), dtype=np.int64)
                for col in reversed(range(k)):
                    radix = count[owner, col]
                    position[:, col] = first[owner, col] + local % radix
                    local //= radix
                if prune:
                    bound = base[owner] + sum(sums[col][position[:, col]] for col in range(k))
                    survive = np.flatnonzero(bound >= threshold())
                    if not survive.size:
                        continue
                    owner, position = owner[survive], position[survive]
                chosen = np.stack([table[kept[col][position[:, col]]] for col in range(k)], axis=1)
                yield [x[owner] for x in blocks], chosen, owner, lambda c: label(owner[c])

        yield from _rescore(batches(), p)

    return score


def _search(params, p, mode, cap, sizes, adversaries=None):
    """The search of solve_attack and solve_follower in follower ``mode``.

    One pass: searches every set of ``sizes`` with the leader tree
    (``_branch_and_bound``, largest size first, one shared incumbent), or,
    given ``adversaries``, that one set.  The approx scorer scores each set
    the search reaches; its g, an exact evaluation of a feasible
    configuration, can raise the incumbent.  Exact mode first counts every
    set's configurations, unscored, and every set must stay within
    ``cap``; then the exact scorer scores each chunk right after the
    approx scorer, pruned against the live threshold (``_exact_scorer``).
    Both get each chunk with its read: off the tree's leaves, or the one
    set's ``gains.read``.  The threshold only rises, since g lies in
    [0, n] and the slack is constant, so whatever it pruned lies below the
    final one too.  The kernel (``_SchurGains``) is built once, after the
    count pass, for either entry.  If it refuses the full system, the
    restricted systems of the first LEADER_CHUNK sets in enumeration order
    (the one set, if given) are guarded, so a refused set is named first,
    and otherwise the full system's error stands.  Returns ((adversaries,
    items), g, sets, configurations, max UB(A)).  Both counts cover every
    set: approx mode counts one configuration per set, exact mode all
    those of every set, solved or certified unable to beat the incumbent.
    """
    if mode not in ("approx", "exact"):
        raise ValidationError(f"unknown follower mode {mode!r}")

    def leader_sets():
        if adversaries is not None:
            return [[adversaries]]
        return [combinations(range(params.n), k) for k in sizes]

    if mode == "exact":
        configs = _count_configurations(params.network, leader_sets(), cap)
    try:
        gains = _SchurGains(params, p)
    except ConvergenceError:
        first = next(_chunks(leader_sets()))
        _check_restricted(_restricted_blocks(params, first), _set_label(first))
        raise
    best, bounds = _Argmax(), []
    scorers = [_approx_scorer(params, p, gains, bounds)]
    if mode == "exact":
        scorers.append(_exact_scorer(params, p, lambda: gains.threshold(best.g)))

    def score(chunk, *read):
        return chain.from_iterable(scorer(chunk, *read) for scorer in scorers)

    if adversaries is not None:
        chunk = np.array([adversaries])
        best.score(score, chunk, *gains.read(chunk))
        sets = 1
    else:
        for k in sorted(sizes, reverse=True):
            _branch_and_bound(gains, k, score, best)
        sets = sum(math.comb(params.n, k) for k in sizes)
    upper = max(float(b.max()) for b in bounds)
    return best.key, best.g, sets, configs if mode == "exact" else sets, upper


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
    the plan is the one solving every set gives.  Both modes walk the
    tree once.  In exact mode every set must stay within ``cap``
    configurations (None: no cap; every mode checks it), and each set
    the tree reaches is scored first by its approx configuration, then
    by the configurations whose first-order bound can still reach the
    best g found so far.  The returned plan's predicted_g is always an
    exact evaluation of the winning configuration.
    """
    start = time.perf_counter()
    network = params.network
    p = _check_magnitude(p)
    leader_size = _check_leader_size(network, leader_size)
    _check_cap(cap)
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
    space exceeds ``cap`` configurations (None: no cap).  upper_bound is
    the best g, the only bound an exhaustive search certifies.
    """
    start = time.perf_counter()
    network = params.network
    p = _check_magnitude(p)
    leader_size = _check_leader_size(network, leader_size)
    _check_cap(cap)
    total = count_configurations(network, leader_size)
    if cap is not None and total > cap:
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
    if (leader_size := _check_count(leader_size, "leader_size", minimum=0)) > network.agent_count:
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
