"""Seeded experiment harness: instance generation, strategy comparison
and planner ablations.

Everything here is a pure function of the scenario: one master seed feeds
independently keyed substreams (topology, stubbornness, intrinsic
opinions, weights, the random strategy, ablation target draws), so adding
a strategy to a run never perturbs instance generation.  Result rows are
sorted by (scenario id, strategy name) before emission; wall-clock fields
are the only nondeterministic output.

Every planner keeps the optimizer's one argmax and tie rule: the
comparison's ``ours_*`` strategies through solve_attack, and the
ablation's models through the approx search (pinned adversaries, the
optimizer's leader tree) or ``_unpinned_scorer`` over every set with
``optimizer._leader_search`` (drifting adversaries), each at the
scenario's p or, with targeting off, at p = 0.
Each strategy's config is validated and re-scored under the true
attacked dynamics by one row builder, ``_result_row``.
A scenario's leader size passes ``optimizer._check_leader_size``, and a
comparison's cap ``optimizer._check_cap``, before any strategy runs; a
malformed field raises ValidationError.
"""

import math
import time
from dataclasses import astuple, dataclass, fields, replace
from itertools import combinations

import numpy as np

from .adversary import (
    DEFAULT_P,
    AttackConfig,
    _reweighted,
    adversarial_outcome,
    outcome_metrics,
)
from .dynamics import (
    THETA_MIN,
    FjParameters,
    InfluenceNetwork,
    _as_float,
    _check_count,
    _check_unit,
    closed_form_outcome,
)
from .errors import CapExceededError, ValidationError
from .fileio import format_sig, load_parameters, round_sig
from .linalg import check_conditioned, invert_conditioned
from .optimizer import (
    DEFAULT_CONFIG_CAP,
    _check_cap,
    _check_leader_size,
    _check_magnitude,
    _leader_search,
    _search,
    _set_label,
    _top_targets,
    baseline_variant,
    solve_attack,
)

TOPOLOGIES = ("complete", "ring", "star", "erdos_renyi", "custom")

COMPARISON_STRATEGIES = (
    "ours_approx",
    "ours_exact",
    "variant_I",
    "variant_IV",
    "variant_V",
    "variant_VI",
    "random",
)

# Each ablation mode's planner model: (adversaries pinned, targeting on).
_ABLATION_MODELS = {
    "full": (True, True),
    "wo_pinning": (False, True),
    "wo_targeting": (True, False),
    "wo_both": (False, False),
}
ABLATION_MODES = tuple(_ABLATION_MODELS)

# Substream keys hanging off the master seed.  Appending new consumers at
# the end keeps older scenarios byte-reproducible.
STREAM_TOPOLOGY = 0
STREAM_THETA = 1
STREAM_S = 2
STREAM_W = 3
STREAM_RANDOM_STRATEGY = 4
STREAM_ABLATION = 5

RESULT_HEADER = (
    "scenario_id",
    "strategy",
    "g0",
    "g_attack",
    "delta_g",
    "agreement_fraction",
    "wall_time_ms",
    "leader_evals",
    "follower_candidates",
    "status",
)

_VARIANT_STRATEGIES = {
    "variant_I": "I",
    "variant_IV": "IV",
    "variant_V": "V",
    "variant_VI": "VI",
}


def _substream(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


@dataclass(frozen=True)
class Scenario:
    """One fully seeded experiment configuration.

    ``leader_size`` is either the string "budget" (use the full adversary
    budget (n - 1) // 3) or an explicit integer.  ``edge_prob`` only
    matters for the erdos_renyi topology and ``network_file`` only for
    custom, in which case the instance is loaded verbatim from that file
    and the sampling fields are ignored.
    """

    scenario_id: str = "scenario"
    topology: str = "complete"
    n: int = 10
    edge_prob: float = 0.3
    network_file: str = None
    theta_dist: tuple = (0.2, 0.8)
    s_dist: tuple = (0.0, 1.0)
    p: float = DEFAULT_P
    seed: int = 0
    leader_size: object = "budget"

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise ValidationError(f"unknown topology {self.topology!r}")
        if self.topology == "custom":
            if not self.network_file or not isinstance(self.network_file, str):
                raise ValidationError(
                    f"custom topology needs a network_file path, got {self.network_file!r}"
                )
        else:
            object.__setattr__(self, "n", _check_count(self.n, "n", 2))
        if self.topology == "erdos_renyi":
            edge_prob = _as_float(self.edge_prob, "edge_prob")
            _check_unit(edge_prob, "edge_prob")
            object.__setattr__(self, "edge_prob", edge_prob)
        for name, dist in (("theta_dist", self.theta_dist), ("s_dist", self.s_dist)):
            try:
                # Text iterates too: "01" would otherwise read as (0, 1).
                low, high = (float(x) for x in (() if isinstance(dist, str) else dist))
            except (TypeError, ValueError):
                raise ValidationError(f"{name} must be a [low, high] pair, got {dist!r}") from None
            _check_unit((low, high), name)
            if low > high:
                raise ValidationError(f"{name} must have low <= high, got {dist!r}")
            object.__setattr__(self, name, (low, high))
        object.__setattr__(self, "p", _check_magnitude(_as_float(self.p, "p")))
        object.__setattr__(self, "seed", _check_count(self.seed, "seed", 0))
        if self.leader_size != "budget":
            object.__setattr__(self, "leader_size", _check_count(self.leader_size, "leader_size"))

    @classmethod
    def from_json(cls, payload, default_id="scenario"):
        known = {field.name: field.name for field in fields(cls)}
        known["id"] = known.pop("scenario_id")
        if not isinstance(payload, dict):
            raise ValidationError(f"scenario must be a JSON object, got {type(payload).__name__}")
        kwargs = {"scenario_id": default_id}
        for key, value in payload.items():
            if key not in known:
                raise ValidationError(f"unknown scenario key {key!r}")
            kwargs[known[key]] = value
        return cls(**kwargs)

    def to_json(self):
        payload = {
            "id": self.scenario_id,
            "topology": self.topology,
            "n": self.n,
            "theta_dist": list(self.theta_dist),
            "s_dist": list(self.s_dist),
            "p": self.p,
            "seed": self.seed,
            "leader_size": self.leader_size,
        }
        if self.topology == "erdos_renyi":
            payload["edge_prob"] = self.edge_prob
        if self.topology == "custom":
            payload["network_file"] = self.network_file
        return payload

    def with_seed(self, seed):
        return replace(self, seed=seed)


@dataclass(frozen=True)
class ResultRow:
    """One (scenario, strategy) outcome line of a result table."""

    scenario_id: str
    strategy: str
    g0: float
    g_attack: float
    delta_g: float
    agreement_fraction: float
    wall_time_ms: float
    leader_evals: int
    follower_candidates: int
    status: str = "ok"


def _complete_edges(n):
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def _ring_edges(n):
    edges = []
    for i in range(n):
        successor = (i + 1) % n
        edges.append((i, successor))
        edges.append((successor, i))
    return edges


def _star_edges(n):
    edges = []
    for i in range(1, n):
        edges.append((0, i))
        edges.append((i, 0))
    return edges


def _erdos_renyi_edges(n, edge_prob, rng):
    edges = []
    for src in range(n):
        # One draw per other agent, in index order: dst skips src.
        dst = np.flatnonzero(rng.random(n - 1) < edge_prob)
        dst[dst >= src] += 1
        edges.extend((src, d) for d in dst.tolist())
    # Repair agents that ended up with nobody to listen to.
    in_counts = [0] * n
    for _, dst in edges:
        in_counts[dst] += 1
    for dst in range(n):
        if in_counts[dst] == 0:
            candidates = [src for src in range(n) if src != dst]
            edges.append((candidates[int(rng.integers(len(candidates)))], dst))
    return edges


def generate(scenario):
    """Build the scenario's instance; returns (network, params).

    Stubbornness and intrinsic opinions are sampled uniformly from the
    scenario's ranges (stubbornness floored at the contraction threshold)
    and each influence row is sampled uniformly on the simplex over the
    agent's in-neighbors.  Deterministic given the seed.
    """
    if scenario.topology == "custom":
        params = load_parameters(scenario.network_file)
        return params.network, params
    n = scenario.n
    if scenario.topology == "complete":
        edges = _complete_edges(n)
    elif scenario.topology == "ring":
        edges = _ring_edges(n)
    elif scenario.topology == "star":
        edges = _star_edges(n)
    else:
        rng = _substream(scenario.seed, STREAM_TOPOLOGY)
        edges = _erdos_renyi_edges(n, scenario.edge_prob, rng)
    network = InfluenceNetwork(agent_count=n, edges=tuple(edges))
    low, high = scenario.theta_dist
    theta = np.maximum(_substream(scenario.seed, STREAM_THETA).uniform(low, high, n), THETA_MIN)
    low, high = scenario.s_dist
    intrinsic = _substream(scenario.seed, STREAM_S).uniform(low, high, n)
    rng_w = _substream(scenario.seed, STREAM_W)
    weights = np.zeros((n, n))
    for i in range(n):
        support = list(network.in_neighbors(i))
        weights[i, support] = rng_w.dirichlet(np.ones(len(support)))
    params = FjParameters(
        network=network, intrinsic=intrinsic, stubbornness=theta, influence=weights
    )
    return network, params


def _resolve_leader_size(scenario, network):
    """The scenario's leader size, checked as every planner checks it."""
    size = None if scenario.leader_size == "budget" else scenario.leader_size
    return _check_leader_size(network, size)


def _uniform_below(total, rng):
    """A uniform int in [0, total): one ``rng.integers`` draw while total
    fits in int64; above that, an int of total's bit length built from
    63-bit words, drawn again until it falls below total."""
    if total < 2**63:
        return int(rng.integers(total))
    bits = total.bit_length()
    words = -(-bits // 63)
    while True:
        value = 0
        for word in rng.integers(2**63, size=words).tolist():
            value = value << 63 | word
        value >>= 63 * words - bits
        if value < total:
            return value


def _random_targets(network, adversaries, rng):
    """Uniform draw of one feasible target subset per adversary.

    Adversary j's choices are the subsets of at most its target budget of
    eligible out-neighbours that are not adversaries, in the canonical
    (size, lex) order of ``optimizer._subset_masks``.  One draw picks a
    choice's rank, which is unranked without listing the choices.
    """
    barred = set(adversaries)
    targets = {}
    for j in adversaries:
        eligible = [i for i in network.out_neighbors(j) if i != j and i not in barred]
        m = len(eligible)
        per_size = [math.comb(m, size) for size in range(network.target_budget(j) + 1)]
        rank = _uniform_below(sum(per_size), rng)
        size = 0
        while rank >= per_size[size]:
            rank -= per_size[size]
            size += 1
        chosen, start = [], 0
        for left in range(size, 0, -1):
            # The next block of subsets takes eligible[start]; skip it unless rank is in it.
            while rank >= (block := math.comb(m - start - 1, left - 1)):
                rank -= block
                start += 1
            chosen.append(eligible[start])
            start += 1
        targets[j] = np.array(chosen, dtype=np.intp)
    return targets


def _random_config(network, leader_size, p, rng):
    n = network.agent_count
    adversaries = tuple(sorted(int(x) for x in rng.choice(n, size=leader_size, replace=False)))
    targets = _random_targets(network, adversaries, rng)
    return AttackConfig(adversaries=adversaries, targets=targets, influence_magnitude=p)


def _skipped_row(scenario, strategy, g0, wall_ms):
    return ResultRow(
        scenario_id=scenario.scenario_id,
        strategy=strategy,
        g0=g0,
        g_attack=float("nan"),
        delta_g=float("nan"),
        agreement_fraction=float("nan"),
        wall_time_ms=wall_ms,
        leader_evals=0,
        follower_candidates=0,
        status="skipped",
    )


def _result_row(scenario, strategy, params, baseline_g, config, start, leader_evals, candidates):
    """Validate a strategy's config, score it under the true attacked
    dynamics and build its row; the wall time runs from ``start``."""
    outcome = adversarial_outcome(params, config)
    metrics = outcome_metrics(baseline_g, outcome)
    return ResultRow(
        scenario_id=scenario.scenario_id,
        strategy=strategy,
        g0=baseline_g,
        g_attack=outcome.g_value,
        delta_g=metrics.delta_g,
        agreement_fraction=metrics.agreement_fraction,
        wall_time_ms=(time.perf_counter() - start) * 1e3,
        leader_evals=leader_evals,
        follower_candidates=candidates,
    )


def run_comparison(scenario, strategies, cap=DEFAULT_CONFIG_CAP):
    """Score each strategy on the scenario's one shared instance.

    All strategies see the identical parameters and p; every selected
    config is re-validated and re-scored through the closed-form outcome
    so the comparison is apples to apples.  An exact-mode strategy whose
    enumeration exceeds the cap (None for no cap) yields a row with status
    "skipped" instead of aborting the run.
    """
    for strategy in strategies:
        if strategy not in COMPARISON_STRATEGIES:
            raise ValidationError(f"unknown strategy {strategy!r}")
    _check_cap(cap)
    network, params = generate(scenario)
    baseline_g = closed_form_outcome(params).g
    leader_size = _resolve_leader_size(scenario, network)
    random_rng = _substream(scenario.seed, STREAM_RANDOM_STRATEGY)
    rows = []
    for strategy in strategies:
        start = time.perf_counter()
        leader_evals = 0
        candidates = 1
        try:
            if strategy in ("ours_approx", "ours_exact"):
                plan = solve_attack(
                    params,
                    scenario.p,
                    leader_size,
                    follower_mode=strategy.removeprefix("ours_"),
                    cap=cap,
                )
                config = plan.config
                leader_evals = plan.leader_evaluations
                candidates = plan.follower_candidates
            elif strategy == "random":
                config = _random_config(network, leader_size, scenario.p, random_rng)
            else:
                config = baseline_variant(
                    params, _VARIANT_STRATEGIES[strategy], leader_size, scenario.p
                )
        except CapExceededError:
            wall_ms = (time.perf_counter() - start) * 1e3
            rows.append(_skipped_row(scenario, strategy, baseline_g, wall_ms))
            continue
        rows.append(
            _result_row(
                scenario, strategy, params, baseline_g, config, start, leader_evals, candidates
            )
        )
    rows.sort(key=lambda row: (row.scenario_id, row.strategy))
    return rows


def _unpinned_scorer(params, p):
    """score(chunk) for _leader_search under the no-pinning planner model.

    Adversaries keep their stubbornness but take intrinsic opinion 1 and
    keep drifting with everyone else, so the model is plain dynamics on
    all n agents with M = I - (I - Theta) W for every set, and no set is
    pinned out of it.  So the planner's leader tree, which pins, has
    nothing to read here: only the guarded inverse of M
    (``invert_conditioned``), taken when the scorer is built, gives the
    sensitivity c = (I - Theta) M^-T 1 and, through one product per chunk,
    every set's fixed point z0.  Adversary j's gain on agent i is p c_i (z0_j - (W z0)_i);
    each adversary keeps its top target-budget eligible targets with a
    positive gain.  A boolean stack marks them, ``adversary._reweighted``
    re-weights W by the attack's one rule, and the chunk's n x n systems
    are guarded by ``check_conditioned`` and re-scored in one batched
    solve.  At p = 0, or with zero target budgets, every gain is 0 or
    untakeable, so no gain is computed.  A chunk in which no set chose a
    target keeps z0 instead, which is what that solve would return.
    Yields one configuration per set.
    """
    network = params.network
    theta = params.stubbornness
    weights = params.influence
    n = params.n
    system = np.eye(n) - (1.0 - theta)[:, None] * weights
    minv = invert_conditioned(system[None], lambda b: "system I - (I - Theta) W")[0]
    sensitivity = (1.0 - theta) * minv.sum(axis=0)
    listeners = network.support_mask().T
    budgets = np.array([network.target_budget(j) for j in range(n)])
    targeting = bool(p) and bool(budgets.any())

    def score(adversaries):
        sets, k = adversaries.shape
        rows = np.arange(sets)[:, None]
        pinned = np.zeros((sets, n), dtype=bool)
        pinned[rows, adversaries] = True
        rhs = np.where(pinned, 1.0, params.intrinsic) * theta
        z = rhs @ minv.T
        chosen = np.zeros((sets, k, n), dtype=bool)
        if targeting:
            received = z @ weights.T
            gain = p * sensitivity * (z[rows, adversaries][:, :, None] - received[:, None, :])
            chosen = _top_targets(
                gain, listeners[adversaries] & ~pinned[:, None, :], budgets[adversaries]
            )
        # With no target chosen every re-weighted matrix is M itself: z0 stands.
        if chosen.any():
            hits = np.zeros((sets, n, n), dtype=bool)
            hits[rows, :, adversaries] = chosen
            matrix = np.eye(n) - (1.0 - theta)[:, None] * _reweighted(weights, hits, p)
            check_conditioned(matrix, _set_label(adversaries))
            z = np.linalg.solve(matrix, rhs[:, :, None])[:, :, 0]
        yield z.sum(axis=1), chosen, np.arange(sets)

    return score


def run_ablation(scenario):
    """Score four planner models on one instance under the true dynamics.

    full          the shipped planner (pinning + targeting aware)
    wo_pinning    planner believes adversaries drift (intrinsic 1, no pin)
                  but keeps the targeting re-weighting
    wo_targeting  planner keeps pinning but assumes p = 0, so its target
                  choice carries no information and is drawn uniformly
    wo_both       planner plans on the unattacked model (adversary set
                  maximizes plain g with intrinsic 1), targets uniform

    Each mode is one row of ``_ABLATION_MODELS``.  A pinned model runs the
    approx search of solve_attack, a drifting one ``_unpinned_scorer``,
    both on the shared leader search; a model with targeting off plans at
    p = 0.  Whatever each planner believes, the emitted config carries the
    scenario's p and is validated and scored under the real attacked
    dynamics, so the rows isolate how much each modeling ingredient
    contributes.
    """
    network, params = generate(scenario)
    baseline_g = closed_form_outcome(params).g
    leader_size = _resolve_leader_size(scenario, network)

    def leader_sets():
        return [combinations(range(network.agent_count), leader_size)]

    rows = []
    for mode_index, (mode, (pinned, targeting)) in enumerate(_ABLATION_MODELS.items()):
        start = time.perf_counter()
        p = scenario.p if targeting else 0.0
        if pinned:
            key, _, sets, configs, _ = _search(params, p, "approx", None, (leader_size,))
        else:
            key, _, sets, configs = _leader_search(leader_sets(), _unpinned_scorer(params, p))
        adversaries, items = key
        if not targeting:
            rng = _substream(scenario.seed, STREAM_ABLATION, mode_index)
            items = _random_targets(network, adversaries, rng)
        config = AttackConfig(adversaries, items, scenario.p)
        rows.append(_result_row(scenario, mode, params, baseline_g, config, start, sets, configs))
    rows.sort(key=lambda row: (row.scenario_id, row.strategy))
    return rows


def _json_number(value, digits=12):
    if value is None or (isinstance(value, float) and np.isnan(value)):
        return None
    return round_sig(float(value), digits)


def result_rows_to_json(rows):
    """Result rows as JSON-ready dicts (12 significant digits)."""
    payload = []
    for row in rows:
        payload.append(
            {
                "scenario_id": row.scenario_id,
                "strategy": row.strategy,
                "g0": _json_number(row.g0),
                "g_attack": _json_number(row.g_attack),
                "delta_g": _json_number(row.delta_g),
                "agreement_fraction": _json_number(row.agreement_fraction),
                "wall_time_ms": row.wall_time_ms,
                "leader_evals": row.leader_evals,
                "follower_candidates": row.follower_candidates,
                "status": row.status,
            }
        )
    return payload


def result_rows_to_csv(rows):
    """Result rows as CSV cell lists (floats to 6 significant digits)."""
    return [
        [format_sig(v, 6) if isinstance(v, float) else str(v) for v in astuple(row)]
        for row in rows
    ]
