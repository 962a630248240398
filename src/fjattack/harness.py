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
optimizer's leader tree) or ``optimizer._drifting_search`` over every set
(drifting adversaries), each at the scenario's p or, with targeting off,
at p = 0.  Both build M and its inverse in the optimizer's one kernel;
the harness scores no set itself.
Each strategy's config is validated and re-scored under the true
attacked dynamics by one row builder, ``_result_row``.
A scenario's leader size passes ``optimizer._check_leader_size``, its p
the sharing rule ``optimizer._check_sharing``, and a comparison's cap
``errors._check_cap``, before any strategy or model runs; a malformed
field raises ValidationError.
"""

import math
import time
from dataclasses import asdict, astuple, dataclass, fields, replace

import numpy as np

from .adversary import (
    DEFAULT_P,
    AttackConfig,
    adversarial_outcome,
    outcome_metrics,
)
from .dynamics import THETA_MIN, FjParameters, InfluenceNetwork, closed_form_outcome
from .errors import CapExceededError, ValidationError, _as_float, _check_cap, _check_count
from .errors import _check_known, _check_magnitude, _check_unit
from .fileio import format_sig, load_parameters, round_sig
from .optimizer import (
    DEFAULT_CONFIG_CAP,
    _check_leader_size,
    _check_sharing,
    _drifting_search,
    _search,
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
        _check_known(self.topology, TOPOLOGIES, "topology")
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
                low, high = (_as_float(x, name) for x in (() if isinstance(dist, str) else dist))
            except (TypeError, ValueError):
                raise ValidationError(f"{name} must be a [low, high] pair, got {dist!r}") from None
            _check_unit((low, high), name)
            if low > high:
                raise ValidationError(f"{name} must have low <= high, got {dist!r}")
            object.__setattr__(self, name, (low, high))
        object.__setattr__(self, "p", _check_magnitude(self.p, "p"))
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
        """The fields as ``from_json`` reads them: ``scenario_id`` as ``id``,
        the ranges as lists, and a topology's own field only for it."""
        only_for = {"edge_prob": "erdos_renyi", "network_file": "custom"}
        return {
            "id" if name == "scenario_id" else name: (
                list(value) if isinstance(value, tuple) else value
            )
            for name, value in asdict(self).items()
            if only_for.get(name, self.topology) == self.topology
        }

    def with_seed(self, seed):
        return replace(self, seed=seed)


@dataclass(frozen=True)
class ResultRow:
    """One (scenario, strategy) outcome line of a result table.

    The fields are the tables' schema: their names, in order, are the CSV
    header (``RESULT_HEADER``) and the keys of each JSON row.
    """

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


RESULT_HEADER = tuple(field.name for field in fields(ResultRow))


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
    """The scenario's leader size, checked as every planner checks it; the
    scenario's p then passes the sharing rule at that size."""
    size = None if scenario.leader_size == "budget" else scenario.leader_size
    size = _check_leader_size(network, size)
    _check_sharing(network, scenario.p, size)
    return size


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
        eligible = [i for i in network.out_neighbors(j) if i not in barred]
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


def _result_row(scenario, strategy, params, baseline_g, config, start, leader_evals, candidates):
    """Validate a strategy's config, score it under the true attacked
    dynamics and build its row; the wall time runs from ``start``.  With
    no config the strategy was skipped: its metrics are NaN."""
    g_attack = delta_g = agreement = math.nan
    if config is not None:
        outcome = adversarial_outcome(params, config)
        metrics = outcome_metrics(baseline_g, outcome)
        g_attack, delta_g, agreement = outcome.g_value, metrics.delta_g, metrics.agreement_fraction
    return ResultRow(
        scenario_id=scenario.scenario_id,
        strategy=strategy,
        g0=baseline_g,
        g_attack=g_attack,
        delta_g=delta_g,
        agreement_fraction=agreement,
        wall_time_ms=(time.perf_counter() - start) * 1e3,
        leader_evals=leader_evals,
        follower_candidates=candidates,
        status="skipped" if config is None else "ok",
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
        _check_known(strategy, COMPARISON_STRATEGIES, "strategy")
    _check_cap(cap)
    network, params = generate(scenario)
    baseline_g = closed_form_outcome(params).g
    leader_size = _resolve_leader_size(scenario, network)
    random_rng = _substream(scenario.seed, STREAM_RANDOM_STRATEGY)
    rows = []
    for strategy in strategies:
        start = time.perf_counter()
        config, leader_evals, candidates = None, 0, 1
        try:
            if strategy in ("ours_approx", "ours_exact"):
                mode = strategy.removeprefix("ours_")
                plan = solve_attack(params, scenario.p, leader_size, follower_mode=mode, cap=cap)
                config = plan.config
                leader_evals = plan.leader_evaluations
                candidates = plan.follower_candidates
            elif strategy == "random":
                config = _random_config(network, leader_size, scenario.p, random_rng)
            else:
                variant = strategy.removeprefix("variant_")
                config = baseline_variant(params, variant, leader_size, scenario.p)
        except CapExceededError:
            # Skipped: no config, and no configuration counted.
            candidates = 0
        rows.append(
            _result_row(
                scenario, strategy, params, baseline_g, config, start, leader_evals, candidates
            )
        )
    rows.sort(key=lambda row: (row.scenario_id, row.strategy))
    return rows


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
    approx search of solve_attack, a drifting one
    ``optimizer._drifting_search``, both on the optimizer's one kernel and
    tie rule; a model with targeting off plans at p = 0.  Whatever each
    planner believes, the emitted config carries the scenario's p and is
    validated and scored under the real attacked dynamics, so the rows
    isolate how much each modeling ingredient contributes.
    """
    network, params = generate(scenario)
    baseline_g = closed_form_outcome(params).g
    leader_size = _resolve_leader_size(scenario, network)
    rows = []
    for mode_index, (mode, (pinned, targeting)) in enumerate(_ABLATION_MODELS.items()):
        start = time.perf_counter()
        p = scenario.p if targeting else 0.0
        if pinned:
            key, _, sets, configs, _ = _search(params, p, "approx", None, leader_size)
        else:
            key, _, sets, configs = _drifting_search(params, p, leader_size)
        adversaries, items = key
        if not targeting:
            rng = _substream(scenario.seed, STREAM_ABLATION, mode_index)
            items = _random_targets(network, adversaries, rng)
        config = AttackConfig(adversaries, items, scenario.p)
        rows.append(_result_row(scenario, mode, params, baseline_g, config, start, sets, configs))
    rows.sort(key=lambda row: (row.scenario_id, row.strategy))
    return rows


def _json_number(value):
    return None if math.isnan(value) else round_sig(value, 12)


def result_rows_to_json(rows):
    """Result rows as JSON-ready dicts, keyed in field order: each metric
    to 12 significant digits (null on a skipped row), the wall time as
    measured, the counters and text as they are."""
    return [
        {
            name: (
                _json_number(value) if isinstance(value, float) and name != "wall_time_ms" else value
            )
            for name, value in asdict(row).items()
        }
        for row in rows
    ]


def result_rows_to_csv(rows):
    """Result rows as CSV cell lists (floats to 6 significant digits)."""
    return [
        [format_sig(v, 6) if isinstance(v, float) else str(v) for v in astuple(row)]
        for row in rows
    ]
