"""Seeded experiment harness: instance generation, strategy comparison,
planner ablations, and runtime benchmarks.

Everything here is a pure function of the scenario: one master seed feeds
independently keyed substreams (topology, stubbornness, intrinsic
opinions, weights, the random strategy, ablation target draws), so adding
a strategy to a run never perturbs instance generation.  Result rows are
sorted by (scenario id, strategy name) before emission; wall-clock fields
are the only nondeterministic output.

Every planner runs on the optimizer's one leader search,
``optimizer._leader_search``: the comparison's ``ours_*`` strategies
through solve_attack, and the ablation's models through the approx,
exact (pinned) and ``_unpinned_scorer`` (drifting adversaries) scorers.
Each strategy's config is validated and re-scored under the true
attacked dynamics by one row builder, ``_result_row``.
"""

import time
from dataclasses import dataclass, replace
from itertools import combinations
from typing import NamedTuple

import numpy as np
from scipy.linalg import lu_solve

from .adversary import (
    DEFAULT_P,
    AttackConfig,
    adversarial_outcome,
    outcome_metrics,
)
from .dynamics import THETA_MIN, FjParameters, InfluenceNetwork, closed_form_outcome
from .errors import CapExceededError, ValidationError
from .fileio import format_sig, load_parameters, round_sig
from .linalg import check_conditioned, factor_conditioned
from .optimizer import (
    _exact_scorer,
    _leader_search,
    _subset_masks,
    _top_targets,
    baseline_variant,
    count_configurations,
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

ABLATION_MODES = ("full", "wo_pinning", "wo_targeting", "wo_both")

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
            if not self.network_file:
                raise ValidationError("custom topology needs network_file")
        else:
            if not isinstance(self.n, int) or self.n < 2:
                raise ValidationError(f"need at least 2 agents, got {self.n!r}")
        if self.topology == "erdos_renyi":
            if not 0.0 <= float(self.edge_prob) <= 1.0:
                raise ValidationError(f"edge_prob must lie in [0, 1], got {self.edge_prob!r}")
        for name, dist in (("theta_dist", self.theta_dist), ("s_dist", self.s_dist)):
            low, high = (float(dist[0]), float(dist[1]))
            if not 0.0 <= low <= high <= 1.0:
                raise ValidationError(f"{name} must be 0 <= low <= high <= 1, got {dist!r}")
            object.__setattr__(self, name, (low, high))
        p = float(self.p)
        if not 0.0 < p < 1.0:
            raise ValidationError(f"p must lie in (0, 1), got {self.p!r}")
        object.__setattr__(self, "p", p)
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.leader_size != "budget":
            if not isinstance(self.leader_size, int) or self.leader_size < 1:
                raise ValidationError(
                    f'leader_size must be "budget" or a positive int, got {self.leader_size!r}'
                )

    @classmethod
    def from_json(cls, payload, default_id="scenario"):
        known = {
            "id": "scenario_id",
            "topology": "topology",
            "n": "n",
            "edge_prob": "edge_prob",
            "network_file": "network_file",
            "theta_dist": "theta_dist",
            "s_dist": "s_dist",
            "p": "p",
            "seed": "seed",
            "leader_size": "leader_size",
        }
        if not isinstance(payload, dict):
            raise ValidationError(f"scenario must be a JSON object, got {type(payload).__name__}")
        kwargs = {"scenario_id": default_id}
        for key, value in payload.items():
            if key not in known:
                raise ValidationError(f"unknown scenario key {key!r}")
            field = known[key]
            if field in ("theta_dist", "s_dist"):
                value = tuple(value)
            kwargs[field] = value
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


class BenchmarkSummary(NamedTuple):
    mean_solve_time: float
    mean_leader_eval_time: float
    config_count: int


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
        for dst in range(n):
            if src != dst and rng.random() < edge_prob:
                edges.append((src, dst))
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
    if scenario.leader_size == "budget":
        return network.leader_budget()
    return scenario.leader_size


def _random_targets(network, adversaries, rng):
    """Uniform draw of one feasible target subset per adversary."""
    targets = {}
    for j in adversaries:
        subsets = _subset_masks(network, j, network.target_budget(j))
        subsets = subsets[~subsets[:, list(adversaries)].any(axis=1)]
        targets[j] = np.flatnonzero(subsets[int(rng.integers(len(subsets)))])
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
    config.validate_against(params.network)
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


def run_comparison(scenario, strategies, cap=None):
    """Score each strategy on the scenario's one shared instance.

    All strategies see the identical parameters and p; every selected
    config is re-validated and re-scored through the closed-form outcome
    so the comparison is apples to apples.  An exact-mode strategy whose
    enumeration exceeds the cap yields a row with status "skipped" instead
    of aborting the run.
    """
    for strategy in strategies:
        if strategy not in COMPARISON_STRATEGIES:
            raise ValidationError(f"unknown strategy {strategy!r}")
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
            if strategy == "ours_approx":
                plan = solve_attack(params, scenario.p, leader_size, follower_mode="approx")
                config = plan.config
                leader_evals = plan.leader_evaluations
                candidates = plan.follower_candidates
            elif strategy == "ours_exact":
                kwargs = {} if cap is None else {"cap": cap}
                plan = solve_attack(
                    params, scenario.p, leader_size, follower_mode="exact", **kwargs
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


def _unpinned_scorer(params, p, budgets):
    """score(chunk) for _leader_search under the no-pinning planner model.

    Adversaries keep their stubbornness but take intrinsic opinion 1 and
    keep drifting with everyone else, so the model is plain dynamics on
    all n agents with M = I - (I - Theta) W for every set.  One
    conditioned LU of M gives the sensitivity c = (I - Theta) M^-T 1
    and, through one multi-right-hand-side solve per chunk, every set's
    fixed point z0.  Adversary j's gain on agent i is p c_i (z0_j - (W z0)_i); each
    adversary keeps its top budgets[j] eligible targets, and the chunk's
    re-weighted n x n systems are guarded by ``check_conditioned`` and
    re-scored in one batched solve.  Yields one configuration per set.
    """
    network = params.network
    theta = params.stubbornness
    weights = params.influence
    n = params.n
    factor = factor_conditioned(np.eye(n) - (1.0 - theta)[:, None] * weights)
    sensitivity = (1.0 - theta) * lu_solve(factor, np.ones(n), trans=1)
    listeners = network.support_mask().T
    budgets = np.asarray(budgets)

    def score(chunk):
        adversaries = np.array(chunk, dtype=int)
        sets, k = adversaries.shape
        rows = np.arange(sets)[:, None]
        pinned = np.zeros((sets, n), dtype=bool)
        pinned[rows, adversaries] = True
        rhs = np.where(pinned, 1.0, params.intrinsic) * theta
        z0 = lu_solve(factor, rhs.T).T
        received = z0 @ weights.T
        gain = p * sensitivity * (z0[rows, adversaries][:, :, None] - received[:, None, :])
        chosen = _top_targets(
            gain, listeners[adversaries] & ~pinned[:, None, :], budgets[adversaries]
        )
        # Row re-weighting as in apply_adversarial_weights: hits[b, i, j] when j targets i.
        hits = np.zeros((sets, n, n))
        hits[rows, :, adversaries] = chosen * p
        modified = weights * (1.0 - np.count_nonzero(hits, axis=2) * p)[:, :, None] + hits
        matrix = np.eye(n) - (1.0 - theta)[:, None] * modified
        check_conditioned(matrix, lambda b: f"adversary set {chunk[b]}")
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

    All four run on the shared leader search: ``full`` is approx
    solve_attack, ``wo_targeting`` the exact scorer and ``wo_both`` the
    unpinned scorer at zero target budgets, and ``wo_pinning`` the
    unpinned scorer at the target budgets.  Whatever each planner
    believes, the emitted config is validated and scored under the real
    attacked dynamics, so the rows isolate how much each modeling
    ingredient contributes.
    """
    network, params = generate(scenario)
    baseline_g = closed_form_outcome(params).g
    leader_size = _resolve_leader_size(scenario, network)
    n = network.agent_count
    p = scenario.p
    target_budgets = [network.target_budget(j) for j in range(n)]
    rows = []
    for mode_index, mode in enumerate(ABLATION_MODES):
        start = time.perf_counter()
        if mode == "full":
            plan = solve_attack(params, p, leader_size, follower_mode="approx")
            config = plan.config
            leader_evals = plan.leader_evaluations
            candidates = plan.follower_candidates
        else:
            scorer = _exact_scorer if mode == "wo_targeting" else _unpinned_scorer
            budgets = target_budgets if mode == "wo_pinning" else [0] * n
            (adversaries, items), _, leader_evals, candidates = _leader_search(
                [combinations(range(n), leader_size)], scorer(params, p, budgets=budgets)
            )
            if mode == "wo_pinning":
                candidates = 3 * leader_evals
            else:
                rng = _substream(scenario.seed, STREAM_ABLATION, mode_index)
                items = _random_targets(network, adversaries, rng)
            config = AttackConfig(adversaries=adversaries, targets=items, influence_magnitude=p)
        rows.append(
            _result_row(scenario, mode, params, baseline_g, config, start, leader_evals, candidates)
        )
    rows.sort(key=lambda row: (row.scenario_id, row.strategy))
    return rows


def benchmark(scenario, repeats=3):
    """Time the approx planner end to end; returns a BenchmarkSummary.

    mean_leader_eval_time averages wall time per adversary-set evaluation
    across repeats; config_count reports the size of the naive exhaustive
    space for the same leader size.
    """
    if not isinstance(repeats, int) or repeats < 1:
        raise ValidationError(f"repeats must be a positive int, got {repeats!r}")
    network, params = generate(scenario)
    leader_size = _resolve_leader_size(scenario, network)
    totals, per_eval = [], []
    for _ in range(repeats):
        plan = solve_attack(params, scenario.p, leader_size, follower_mode="approx")
        totals.append(plan.wall_time)
        per_eval.append(plan.wall_time / plan.leader_evaluations)
    return BenchmarkSummary(
        mean_solve_time=float(np.mean(totals)),
        mean_leader_eval_time=float(np.mean(per_eval)),
        config_count=count_configurations(network, leader_size),
    )


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
    """Result rows as CSV cell lists (6 significant digits)."""
    table = []
    for row in rows:
        table.append(
            [
                row.scenario_id,
                row.strategy,
                format_sig(row.g0, 6),
                format_sig(row.g_attack, 6),
                format_sig(row.delta_g, 6),
                format_sig(row.agreement_fraction, 6),
                format_sig(row.wall_time_ms, 6),
                str(row.leader_evals),
                str(row.follower_candidates),
                row.status,
            ]
        )
    return table
