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
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import FjParameters, _as_float, _as_int, _simulate
from .errors import ValidationError
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
    only for adversaries, no adversary is targeted, p > 0, and |A_i| p < 1
    for every targeted agent i.  Constraints that need the graph
    (membership, budgets) live in ``validate_against``.
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

        p = _as_float(self.influence_magnitude, "influence magnitude")
        if not np.isfinite(p) or p <= 0.0:
            raise ValidationError(f"influence magnitude must be positive, got {p!r}")
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
        n = network.agent_count
        for j in self.adversaries:
            if not 0 <= j < n:
                raise ValidationError(f"adversary {j} out of range for {n} agents")
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


def _restricted_blocks(params, adversaries):
    """Stacked restricted systems for a (sets, k) array of sorted adversary sets.

    Returns (pinned, unpinned, W_UU, W_UA, 1 - theta_U, theta_U s_U), each
    with a leading sets axis.
    """
    sets, k = adversaries.shape
    n = params.n
    pinned = np.zeros((sets, n), dtype=bool)
    pinned[np.arange(sets)[:, None], adversaries] = True
    unpinned = np.nonzero(~pinned)[1].reshape(sets, n - k)
    w_uu = params.influence[unpinned[:, :, None], unpinned[:, None, :]]
    w_ua = params.influence[unpinned[:, :, None], adversaries[:, None, :]]
    theta_u = params.stubbornness[unpinned]
    return pinned, unpinned, w_uu, w_ua, 1.0 - theta_u, theta_u * params.intrinsic[unpinned]


def _reweighted_systems(w_uu, w_ua, open_minded, base_rhs, hits, p):
    """Matrix and right-hand side of each re-weighted restricted system.

    hits[b, u, a] marks unpinned agent u as a target of adversary a.  Every
    exact score in the package builds its system here: the planners'
    stacks, and adversarial_outcome's one-member stack.
    """
    scale = (1.0 - hits.sum(axis=2) * p)[:, :, None]
    # In place on fresh arrays: the same products, without the temporaries.
    matrix = w_uu * scale
    matrix *= open_minded[:, :, None]
    np.subtract(np.eye(w_uu.shape[1]), matrix, out=matrix)
    mass = w_ua * scale
    mass += p * hits
    return matrix, base_rhs + open_minded * mass.sum(axis=2)


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


def apply_adversarial_weights(params, config, enforce_budgets=True):
    """Return a copy of ``params`` with the attack's weight perturbation applied.

    Stubbornness and intrinsic opinions are untouched; only the rows of
    targeted agents change, and their sums are preserved.
    """
    config.validate_against(params.network, enforce_budgets)
    rows, hits = _targeted_rows(config, params.n)
    w = np.array(params.influence)
    w[rows] = _reweighted(w[rows], hits, config.influence_magnitude)
    return FjParameters(
        network=params.network,
        intrinsic=params.intrinsic,
        stubbornness=params.stubbornness,
        influence=w,
    )


def adversarial_outcome(params, config, enforce_budgets=True):
    """Closed-form outcome of an attack with adversaries pinned at opinion 1.

    Solves the restricted fixed point over the non-adversarial agents and
    returns g = sum(z_U) + |A|.
    """
    config.validate_against(params.network, enforce_budgets)
    adversaries = config.adversaries
    if len(adversaries) >= params.n:
        raise ValidationError("every agent is adversarial; nothing to evaluate")
    stack = np.array(adversaries, dtype=int).reshape(1, -1)
    _, unpinned, w_uu, w_ua, open_minded, base_rhs = _restricted_blocks(params, stack)
    hits = np.zeros(w_ua.shape, dtype=bool)
    for a, (_, targets) in enumerate(config.targets):
        hits[0, np.searchsorted(unpinned[0], targets), a] = True
    matrix, rhs = _reweighted_systems(
        w_uu, w_ua, open_minded, base_rhs, hits, config.influence_magnitude
    )
    z_u = solve_conditioned(matrix[0], rhs[0])
    return AdversarialOutcome(
        config=config,
        unpinned=tuple(unpinned[0].tolist()),
        fixed_point=z_u,
        g_value=float(z_u.sum()) + len(adversaries),
    )


def simulate_adversarial(params, config, z0, rounds, enforce_budgets=True):
    """Roll out the attacked dynamics with adversaries pinned at opinion 1.

    The returned trajectory starts from ``z0`` with the adversary entries
    overwritten to 1, uses the re-weighted rows for targeted agents, and
    holds every adversary at 1 on each update.  Its tail converges to the
    same fixed point as ``adversarial_outcome``.

    Only the targeted rows are re-weighted, straight onto the edge list:
    no n x n array and no second FjParameters.  Support, non-negativity
    and row sums hold by construction, and the pinned rollout contracts:
    (I - Theta_U) W'_UU <= (I - Theta_U) W_UU entrywise (the +p lands in
    adversary columns, the scale is <= 1), a principal submatrix of the
    (I - Theta) W that ``params`` passed (Perron-Frobenius monotonicity).
    """
    config.validate_against(params.network, enforce_budgets)
    adversaries = list(config.adversaries)
    z_init = np.array(z0, dtype=float)
    if z_init.shape == (params.n,):  # _simulate rejects every other shape
        z_init[adversaries] = 1.0
    rows, hits = _targeted_rows(config, params.n)
    attacked = _reweighted(params.influence[rows], hits, config.influence_magnitude)
    del hits
    targets, sources = params.network._support
    influence = params.influence[targets, sources]
    targeted = np.zeros(params.n, dtype=bool)
    targeted[rows] = True
    # The edges into the targeted rows, sorted by (source, target) as the
    # edge list is: the support of the transposed stack, in C order.
    influence[targeted[targets]] = attacked.T[params.network.support_mask()[rows].T]
    # The rollout needs only the edge weights.
    del rows, attacked
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
