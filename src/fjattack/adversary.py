"""Adversarial perturbation of an influence network.

An attack turns a small set A of agents into adversaries that broadcast
opinion 1 regardless of what they hear, and lets each adversary j divert a
little of the attention of up to budget(j) of its out-neighbors.  For a
targeted agent i with adversary set A_i (the adversaries that picked i),
row i of W becomes

    w_ij <- (1 - |A_i| p) w_ij            for j not in A_i
    w_ij <- (1 - |A_i| p) w_ij + p        for j in A_i

which preserves the row sum (``_reweighted``, for any stack of rows).
With adversaries pinned at opinion 1, the remaining agents U reach the
fixed point of the restricted system

    z_U = (I_U - (I_U - Theta_U) W_UU)^-1 (Theta_U s_U + (I_U - Theta_U) W_UA 1)

and the attack outcome is g = sum(z_U) + |A|, which lies in [|A|, N].
On a large sparse network ``adversarial_outcome`` reaches z_U as
``dynamics.closed_form_outcome`` reaches z*, by a bracket on the attacked
edge weights that ``simulate_adversarial`` rolls out.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import FjParameters, _bracket, _bracket_cap, _simulate
from .errors import ValidationError, _as_int, _check_index, _check_magnitude, _check_vector
from .linalg import solve_conditioned

# Default per-edge influence magnitude p.
DEFAULT_P = 1e-3


@dataclass(frozen=True)
class AttackConfig:
    """An adversary set, a target set per adversary, and the magnitude p.

    ``targets`` may be given as a mapping {adversary: iterable of targets}
    or as (adversary, targets) pairs; it is stored canonically as a sorted
    tuple of (adversary, sorted target tuple) pairs covering every
    adversary, so equal configs compare and hash equal and the tuple
    itself serves as a deterministic tie-breaking key.

    An empty adversary set is legal and makes the attack a no-op.
    Structural constraints checked here: adversaries distinct, targets
    only for adversaries, no adversary is targeted, p in (0, 1) (the
    planners' rule, ``errors._check_magnitude``), and |A_i| p < 1 for every
    targeted agent i.  Constraints that need the graph (membership,
    budgets) live in ``validate_against``.
    """

    adversaries: tuple
    targets: tuple
    influence_magnitude: float = DEFAULT_P

    def __post_init__(self):
        adversaries = tuple(sorted(_as_int(a, "adversary") for a in self.adversaries))
        if len(set(adversaries)) != len(adversaries):
            raise ValidationError(f"duplicate adversaries in {adversaries}")
        adv_set = set(adversaries)

        raw = self.targets.items() if hasattr(self.targets, "items") else self.targets
        by_adv = {}
        for j, target_list in raw:
            j = _as_int(j, "target key")
            if j not in adv_set:
                raise ValidationError(f"targets listed for non-adversary {j}")
            if j in by_adv:
                raise ValidationError(f"adversary {j} has two target entries")
            targets = tuple(sorted(_as_int(i, "target") for i in target_list))
            if len(set(targets)) != len(targets):
                raise ValidationError(f"adversary {j} targets an agent twice")
            for i in targets:
                if i in adv_set:
                    raise ValidationError(f"adversary {i} cannot be a target")
            by_adv[j] = targets
        canon = tuple((j, by_adv.get(j, ())) for j in adversaries)

        p = _check_magnitude(self.influence_magnitude)
        counts = {}
        for _, targets in canon:
            for i in targets:
                counts[i] = counts.get(i, 0) + 1
        for i, k in counts.items():
            if k * p >= 1.0:
                raise ValidationError(
                    f"agent {i} is targeted by {k} adversaries with p={p}; need |A_i| p < 1"
                )

        object.__setattr__(self, "adversaries", adversaries)
        object.__setattr__(self, "targets", canon)
        object.__setattr__(self, "influence_magnitude", p)

    def target_map(self):
        """Targets as a plain dict keyed by adversary."""
        return {j: targets for j, targets in self.targets}

    def targeted_by(self):
        """Inverse map: targeted agent -> tuple of adversaries that chose it."""
        inverse = {}
        for j, targets in self.targets:
            for i in targets:
                inverse.setdefault(i, []).append(j)
        return {i: tuple(sorted(js)) for i, js in inverse.items()}

    def validate_against(self, network, enforce_budgets=True):
        """Check graph membership and (by default) both attack budgets.

        The budget caps bound the attacker's search problem; the outcome
        formulas stay well defined without them, so evaluation helpers can
        pass ``enforce_budgets=False`` to score diagnostic configs that a
        planner would never emit.
        """
        for j in self.adversaries:
            _check_index(j, network.agent_count, "adversary")
        adv_set = set(self.adversaries)
        for j, targets in self.targets:
            allowed = set(network.out_neighbors(j)) - adv_set
            for i in targets:
                if i not in allowed:
                    raise ValidationError(
                        f"agent {i} is not an eligible target of adversary {j}"
                    )
        if not enforce_budgets:
            return
        budget = network.leader_budget()
        if len(self.adversaries) > budget:
            raise ValidationError(
                f"{len(self.adversaries)} adversaries exceed the budget of {budget}"
            )
        for j, targets in self.targets:
            if len(targets) > network.target_budget(j):
                raise ValidationError(
                    f"adversary {j} has {len(targets)} targets, "
                    f"budget is {network.target_budget(j)}"
                )


@dataclass(frozen=True, eq=False)
class AdversarialOutcome:
    """Fixed point of the attacked dynamics over the non-adversarial agents.

    g_value = sum(fixed_point) + |adversaries| and always lies in
    [|adversaries|, n].
    """

    config: AttackConfig
    unpinned: tuple
    fixed_point: np.ndarray
    g_value: float


class OutcomeMetrics(NamedTuple):
    delta_g: float
    agreement_fraction: float


class _Systems(NamedTuple):
    """Untargeted restricted systems of a stack of sets (``_restricted_systems``).

    Each field has a leading sets axis.  ``unpinned`` lists a set's
    unpinned agents U in increasing order, ``weights`` is [W_UU | W_UA],
    its rows of W over U and then over its adversaries A,
    ``open_minded`` is 1 - theta_U and ``base_rhs`` theta_U s_U.
    ``matrix`` is M_UU = I - (I - Theta_U) W_UU and ``rhs`` is
    Theta_U s_U + (I - Theta_U) W_UA 1.
    """

    unpinned: np.ndarray
    weights: np.ndarray
    open_minded: np.ndarray
    base_rhs: np.ndarray
    matrix: np.ndarray
    rhs: np.ndarray


def _restricted_systems(params, adversaries):
    """(pinned, _Systems) of a (sets, k) array of sorted adversary sets.

    A stable sort of each set's pinned mask lists U, then A, both in
    increasing order, so one gather takes both blocks of W.
    """
    sets, k = adversaries.shape
    n = params.n
    pinned = np.zeros((sets, n), dtype=bool)
    pinned[np.arange(sets)[:, None], adversaries] = True
    order = np.argsort(pinned, axis=1, kind="stable")
    unpinned = order[:, : n - k]
    weights = params.influence[unpinned[:, :, None], order[:, None, :]]
    theta_u = params.stubbornness.take(unpinned)
    open_minded = 1.0 - theta_u
    base_rhs = theta_u * params.intrinsic.take(unpinned)
    matrix = np.eye(n - k) - open_minded[:, :, None] * weights[:, :, : n - k]
    rhs = base_rhs + open_minded * weights[:, :, n - k :].sum(axis=2)
    return pinned, _Systems(unpinned, weights, open_minded, base_rhs, matrix, rhs)


def _reweighted_systems(systems, owner, hits, p):
    """(matrix, rhs) of each re-weighted restricted system.

    Member c is set owner[c] of ``systems`` (a ``_Systems``) with its
    targets hits[a, c, u], which marks unpinned agent u as a target of
    adversary a.  Every exact score in the package builds its system here:
    the planners' stacks, and adversarial_outcome's one-member stack where
    it solves densely.

    Member c starts as a copy of its set's untargeted system, and only the
    rows its targets hit are rebuilt.  Row u of the re-weighted system is
    I_u - (1 - theta_u) (1 - h_u p) W_uU, where h_u adversaries target u,
    and its right-hand side is theta_u s_u + (1 - theta_u) sum_a
    ((1 - h_u p) w_ua + p [a targets u]).  A row nobody targets has scale
    1.0 - 0 * p == 1.0 and no +p, so the untargeted row is already its
    bits; a targeted row is rebuilt with the same operations in the same
    order.
    """
    k, _, m = hits.shape
    matrix = systems.matrix.take(owner, axis=0)
    rhs = systems.rhs.take(owner, axis=0)
    count = hits.sum(axis=0).ravel()
    (rebuilt,) = count.nonzero()
    u = rebuilt % m
    # Row b m + u of the sets' stacked rows, b = owner[c], for each rebuilt row.
    source = owner.take(rebuilt // m) * m + u
    open_minded = systems.open_minded.take(source)
    # Both blocks of each rebuilt row, scaled: [W_uU | W_uA] (1 - h_u p).
    rows = systems.weights.reshape(-1, m + k).take(source, axis=0)
    rows *= (1.0 - count.take(rebuilt) * p)[:, None]
    weights, mass = rows[:, :m], rows[:, m:]
    weights *= open_minded[:, None]
    matrix.reshape(-1, m)[rebuilt] = np.subtract(np.eye(m).take(u, axis=0), weights, out=weights)
    mass += p * hits.reshape(k, count.size).take(rebuilt, axis=1).T
    rhs.ravel()[rebuilt] = systems.base_rhs.take(source) + open_minded * mass.sum(axis=1)
    return matrix, rhs


def _reweighted(rows, hits, p):
    """Attacked rows of W; hits[..., i, j] marks i as a target of adversary j."""
    attacked = rows * (1.0 - hits.sum(axis=-1) * p)[..., None]
    return np.add(attacked, p, out=attacked, where=hits)


def _targeted_rows(config, n):
    """The targeted agents in increasing order and their (rows, n) hit stack."""
    pairs = np.array(
        [(i, j) for j, targets in config.targets for i in targets], dtype=np.intp
    ).reshape(-1, 2)
    rows = np.unique(pairs[:, 0])
    hits = np.zeros((len(rows), n), dtype=bool)
    hits[np.searchsorted(rows, pairs[:, 0]), pairs[:, 1]] = True
    return rows, hits


def _attacked_influence(params, config):
    """W on the edge list, in row order, with the targeted rows re-weighted.

    The array ``_kernel`` takes: a copy of ``params._on_support``, W on the
    network's ``_support``, where each targeted row's edges,
    ``_row_pointer[r]:_row_pointer[r + 1]``, are re-weighted by
    ``_reweighted``.  Every target is an out-neighbour of
    its adversary, so the +p lands on an edge.  Support, non-negativity and
    row sums hold by construction; no n x n array is built.
    """
    rows, hits = _targeted_rows(config, params.n)
    sources = params.network._support[1]
    bounds = params.network._row_pointer
    influence = np.array(params._on_support)
    for row, hit in zip(rows.tolist(), hits):
        edges = slice(bounds[row], bounds[row + 1])
        influence[edges] = _reweighted(influence[edges], hit[sources[edges]], config.influence_magnitude)
    return influence


def _check_solvable(config, network, enforce_budgets):
    """``validate_against``, then refuse a config that pins every agent:
    its restricted system has no unpinned agent to solve for."""
    config.validate_against(network, enforce_budgets)
    if len(config.adversaries) == network.agent_count:
        raise ValidationError("every agent is adversarial; nothing to evaluate")


def apply_adversarial_weights(params, config, enforce_budgets=True):
    """Return a copy of ``params`` with the attack's weight perturbation applied.

    Stubbornness and intrinsic opinions are untouched; only the rows of
    targeted agents change, and their sums are preserved.  The targeted
    rows are re-weighted on the edge list (``_attacked_influence``, as
    ``simulate_adversarial`` rolls them out), and the copy is built from
    those edge weights (``FjParameters._from_edge_weights``): W is not
    copied or scanned densely, only scattered once.  The weights, and W on
    the edges, have the bits a dense re-weighting of ``params.influence``
    gives; off the edges W is +0.0, so a -0.0 there in ``params`` is not
    carried over.
    """
    config.validate_against(params.network, enforce_budgets)
    return FjParameters._from_edge_weights(
        params.network, params.intrinsic, params.stubbornness, _attacked_influence(params, config)
    )


def adversarial_outcome(params, config, enforce_budgets=True):
    """Closed-form outcome of an attack with adversaries pinned at opinion 1.

    Solves the restricted fixed point over the non-adversarial agents U and
    returns g = sum(z_U) + |A|.  The system is M' = I_U - B' with
    B' = (I_U - Theta_U) W'_UU, W' the attacked weights.  It is solved as
    ``dynamics.closed_form_outcome`` solves M, on the same gate
    (``_bracket_cap``).  Below it, or when the bracket stops early, it is
    the rcond-guarded dense solve of the restricted system
    (``_restricted_systems``, ``_reweighted_systems``), which raises
    ConvergenceError if M' is too badly conditioned to trust.  Above it, it
    is the midpoint of the bracket on the attacked edge weights that
    ``simulate_adversarial`` rolls out (``_attacked_influence``), with the
    adversaries held at 1: no n x n gather and no LU.  The unpinned gap
    after T rounds is B'^T 1_U, so the width w is ||B'^T||_inf; as there,
    kappa_inf(M') <= 2 T / (1 - w), and each entry of z_U is within w / 2
    of the fixed point, plus at most (d + 2) u T of rounding.
    """
    _check_solvable(config, params.network, enforce_budgets)
    adversaries = config.adversaries
    cap = _bracket_cap(params)
    z = _bracket(params, _attacked_influence(params, config), adversaries, cap) if cap else None
    if z is not None:
        unpinned = np.delete(np.arange(params.n), adversaries)
        z_u = z[unpinned]
    else:
        stack = np.array(adversaries, dtype=int).reshape(1, -1)
        _, systems = _restricted_systems(params, stack)
        unpinned = systems.unpinned[0]
        pairs = [(a, i) for a, (_, targets) in enumerate(config.targets) for i in targets]
        hits = np.zeros((len(adversaries), params.n), dtype=bool)
        hits[tuple(np.array(pairs, dtype=np.intp).reshape(-1, 2).T)] = True
        owner = np.zeros(1, dtype=np.intp)
        matrix, rhs = _reweighted_systems(
            systems, owner, hits[:, None, unpinned], config.influence_magnitude
        )
        z_u = solve_conditioned(matrix[0], rhs[0])
    return AdversarialOutcome(
        config=config,
        unpinned=tuple(unpinned.tolist()),
        fixed_point=z_u,
        g_value=float(z_u.sum()) + len(adversaries),
    )


def simulate_adversarial(params, config, z0, rounds, enforce_budgets=True):
    """Roll out the attacked dynamics with adversaries pinned at opinion 1.

    The returned trajectory starts from ``z0`` with the adversary entries
    overwritten to 1, uses the re-weighted rows for targeted agents, and
    holds every adversary at 1 on each update.  Its tail converges to the
    same fixed point as ``adversarial_outcome``.

    Only the targeted rows are re-weighted, straight onto the edge list
    (``_attacked_influence``): no n x n float array and no second
    FjParameters.  The pinned rollout contracts: (I - Theta_U) W'_UU
    <= (I - Theta_U) W_UU entrywise (the +p lands in adversary columns, the
    scale is <= 1), a principal submatrix of the (I - Theta) W that
    ``params`` passed (Perron-Frobenius monotonicity).
    """
    config.validate_against(params.network, enforce_budgets)
    adversaries = list(config.adversaries)
    z_init = _check_vector(z0, params.n, "z0")
    z_init[adversaries] = 1.0
    influence = _attacked_influence(params, config)
    return _simulate(params, influence, z_init, rounds, adversaries, 1.0)


def outcome_metrics(baseline_g, outcome):
    """Gain over the unattacked outcome and the unpinned agreement fraction.

    agreement_fraction is the share of non-adversarial agents whose
    fixed-point opinion is at least 0.5.
    """
    agreeing = int(np.count_nonzero(outcome.fixed_point >= 0.5))
    return OutcomeMetrics(
        delta_g=outcome.g_value - baseline_g,
        agreement_fraction=agreeing / len(outcome.unpinned),
    )
