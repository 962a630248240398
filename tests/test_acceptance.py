"""Acceptance gate: the nine guarantees the package is shipped against.

One test per criterion, ordered.  Each test prints a single PASS/FAIL
line with the measured margins (visible with ``pytest -s``) before
asserting, so a red run shows exactly which guarantee broke and by how
much.  Everything here is seeded and self-contained; total runtime is
a few seconds, most of it the ablation sweep of criterion 6.
"""

import json
import time

import numpy as np

from conftest import (
    complete_network,
    random_feasible_config,
    random_instance,
    random_params,
)
from test_optimizer import targeted_triples
from test_recovery import round_trip_problem

from fjattack import (
    ABLATION_MODES,
    AttackConfig,
    Scenario,
    adversarial_outcome,
    apply_adversarial_weights,
    brute_force_oracle,
    closed_form_outcome,
    count_configurations,
    generate,
    marginal_gains,
    recover,
    run_ablation,
    run_comparison,
    simulate,
    simulate_adversarial,
    solve_attack,
)
from fjattack.cli import main

VARIANTS = ("variant_I", "variant_IV", "variant_V", "variant_VI")


def report(label, ok, detail):
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_01_closed_form_matches_long_simulation():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst_free = worst_pinned = 0.0
    pinned_checked = 0
    for k in range(50):
        scenario = Scenario(
            scenario_id=f"acc1-{k}",
            topology=("complete", "ring", "star", "erdos_renyi")[k % 4],
            n=4 + k % 9,
            edge_prob=0.5,
            seed=9000 + k,
        )
        network, params = generate(scenario)
        closed = closed_form_outcome(params)
        rolled = simulate(params, np.array(params.intrinsic), 500)
        worst_free = max(worst_free, abs(closed.g - float(rolled.values[-1].sum())))
        config = random_feasible_config(rng, network, p=scenario.p)
        if config is None:
            continue
        pinned_checked += 1
        pinned = adversarial_outcome(params, config)
        sim = simulate_adversarial(params, config, np.array(params.intrinsic), 500)
        worst_pinned = max(
            worst_pinned, abs(pinned.g_value - float(sim.values[-1].sum()))
        )
    elapsed = time.perf_counter() - start
    ok = (
        worst_free <= 1e-8
        and worst_pinned <= 1e-6
        and pinned_checked == 50
        and elapsed < 10.0
    )
    report(
        "criterion 1 closed form vs 500-round simulation",
        ok,
        f"free gap {worst_free:.2e} <= 1e-8, pinned gap {worst_pinned:.2e} <= 1e-6, "
        f"{pinned_checked}/50 pinned checks, {elapsed:.1f}s < 10s",
    )


def test_02_reweighted_rows_stay_normalized():
    rng = np.random.default_rng(77)
    checked, worst, seed = 0, 0.0, 0
    while checked < 1000:
        seed += 1
        network, params = random_instance(seed, n=int(rng.integers(5, 13)), density=0.8)
        config = random_feasible_config(
            rng, network, p=float(rng.uniform(1e-4, 5e-3)), require_target=True
        )
        if config is None:
            continue
        attacked = apply_adversarial_weights(params, config)
        worst = max(worst, float(np.max(np.abs(attacked.influence.sum(axis=1) - 1.0))))
        checked += 1
    ok = worst <= 1e-12
    report(
        "criterion 2 reweighted rows normalized",
        ok,
        f"worst row-sum deviation {worst:.2e} <= 1e-12 over {checked} configs",
    )


def test_03_first_order_gains_match_finite_differences():
    p = 1e-6
    worst_excess, min_gain = -np.inf, np.inf
    for params, adversaries, target in targeted_triples(200, p=p):
        gains = marginal_gains(params, adversaries, p)
        min_gain = min(min_gain, float(np.min(gains.gain)))
        supplier = next(
            j for j in adversaries if target in params.network.out_neighbors(j)
        )
        empty = {j: () for j in adversaries}
        base = adversarial_outcome(
            params,
            AttackConfig(adversaries, empty, p),
            enforce_budgets=False,
        ).g_value
        plus = adversarial_outcome(
            params,
            AttackConfig(adversaries, {**empty, supplier: (target,)}, p),
            enforce_budgets=False,
        ).g_value
        predicted = float(gains.gain[target])
        excess = abs((plus - base) - predicted) - (1e-2 * abs(predicted) + 1e-12)
        worst_excess = max(worst_excess, excess)
    ok = worst_excess <= 0.0 and min_gain >= -1e-12
    report(
        "criterion 3 finite-difference gain check",
        ok,
        f"worst tolerance excess {worst_excess:.2e} <= 0 over 200 triples, "
        f"min gain {min_gain:.2e} >= -1e-12",
    )


def test_04_planner_matches_brute_force_oracle():
    start = time.perf_counter()
    exact_ok = True
    for k in range(30):
        if k % 2 == 0:
            network = complete_network(5 + (k // 2) % 3)
            params = random_params(np.random.default_rng(4000 + k), network)
        else:
            network, params = random_instance(4100 + k, n=6 + (k // 2) % 4, density=0.5)
        exact = solve_attack(params, follower_mode="exact")
        oracle = brute_force_oracle(params)
        exact_ok = exact_ok and (
            exact.config == oracle.config
            and abs(exact.predicted_g - oracle.predicted_g) <= 1e-12
        )
    matches, worst_gap = 0, 0.0
    for k in range(200):
        if k % 2 == 0:
            network = complete_network(4 + (k // 2) % 4)
            params = random_params(np.random.default_rng(8000 + k), network)
        else:
            network, params = random_instance(8200 + k, n=4 + (k // 2) % 5, density=0.5)
        approx = solve_attack(params, follower_mode="approx")
        oracle = brute_force_oracle(params)
        gap = oracle.predicted_g - approx.predicted_g
        assert gap >= -1e-12, "oracle must dominate the first-order follower"
        worst_gap = max(worst_gap, gap)
        if approx.config == oracle.config:
            matches += 1
    elapsed = time.perf_counter() - start
    ok = exact_ok and worst_gap <= 1e-4 and matches >= 190 and elapsed < 300.0
    report(
        "criterion 4 oracle equivalence",
        ok,
        f"exact == oracle on 30/30: {exact_ok}, approx gap {worst_gap:.2e} <= 1e-4, "
        f"argmax matches {matches}/200 >= 190, {elapsed:.0f}s < 300s",
    )


def test_05_planner_dominates_baseline_variants():
    strategies = ("ours_exact", "ours_approx") + VARIANTS
    sums = dict.fromkeys(strategies, 0.0)
    exact_dominates = True
    for seed in range(100):
        scenario = Scenario(
            scenario_id="acc5", topology="ring", n=10, seed=5000 + seed
        )
        rows = {row.strategy: row for row in run_comparison(scenario, strategies)}
        assert all(row.status == "ok" for row in rows.values())
        for name in VARIANTS:
            exact_dominates = exact_dominates and (
                rows["ours_exact"].delta_g >= rows[name].delta_g - 1e-12
            )
        for name in strategies:
            sums[name] += rows[name].delta_g
    means = {name: total / 100 for name, total in sums.items()}
    margin = min(means["ours_approx"] - means[name] for name in VARIANTS)
    ok = exact_dominates and margin > 0.0
    report(
        "criterion 5 dominance over baseline variants",
        ok,
        f"exact >= variants on every instance: {exact_dominates}, "
        f"approx mean lead over best variant {margin:.3e} > 0 (100 seeds, n=10 ring)",
    )


def test_06_full_planner_ranks_highest_in_ablation():
    totals = dict.fromkeys(ABLATION_MODES, 0.0)
    for seed in range(100):
        scenario = Scenario(
            scenario_id="acc6", topology="complete", n=10, seed=6000 + seed
        )
        for row in run_ablation(scenario):
            totals[row.strategy] += row.delta_g
    means = {mode: totals[mode] / 100 for mode in ABLATION_MODES}
    print("ablation mean delta_g over 100 seeds (complete, n=10):")
    for mode in sorted(means, key=means.get, reverse=True):
        print(f"  {mode:<14} {means[mode]:.6f}")
    ok = all(means["full"] > means[mode] for mode in ABLATION_MODES if mode != "full")
    report(
        "criterion 6 ablation ordering",
        ok,
        "full formulation ranks highest" if ok else f"ordering violated: {means}",
    )


def test_07_recovery_round_trip():
    hits, worst_g = 0, 0.0
    for seed in range(50):
        problem = round_trip_problem(seed)
        truth = problem.truth
        result = recover(problem)
        err = max(
            float(np.max(np.abs(result.params.stubbornness - truth.stubbornness))),
            float(np.max(np.abs(result.params.influence - truth.influence))),
            float(np.max(np.abs(result.params.intrinsic - truth.intrinsic))),
        )
        if err <= 1e-3:
            hits += 1
        worst_g = max(
            worst_g,
            abs(closed_form_outcome(result.params).g - closed_form_outcome(truth).g),
        )
    ok = hits >= 48 and worst_g <= 1e-6
    report(
        "criterion 7 recovery round trip",
        ok,
        f"{hits}/50 instances within 1e-3 (need >= 48), worst g error {worst_g:.2e} <= 1e-6",
    )


def test_08_search_space_count_and_planner_speed():
    count = count_configurations(complete_network(13))
    scenario = Scenario(scenario_id="acc8", topology="complete", n=12, seed=42)
    _, params = generate(scenario)
    plans = [solve_attack(params, scenario.p, follower_mode="approx") for _ in range(3)]
    mean_solve = float(np.mean([plan.wall_time for plan in plans]))
    per_eval = float(np.mean([plan.wall_time / plan.leader_evaluations for plan in plans]))
    ok = count == 204_211_150_000 and mean_solve <= 5.0 and per_eval <= 0.050
    report(
        "criterion 8 tractability",
        ok,
        f"13-agent complete count {count} == 204211150000, "
        f"n=12 mean solve {mean_solve:.3f}s <= 5s, "
        f"per-evaluation {per_eval * 1e3:.3f}ms <= 50ms",
    )


def _is_wall_time(name):
    return "time" in name or name.endswith("_ms")


def _normalized(path):
    """File bytes with wall-time fields blanked, for run-to-run comparison."""
    text = path.read_text()
    if path.suffix == ".json":
        def scrub(node):
            if isinstance(node, dict):
                return {
                    key: None if _is_wall_time(key) else scrub(value)
                    for key, value in node.items()
                }
            if isinstance(node, list):
                return [scrub(item) for item in node]
            return node

        return json.dumps(scrub(json.loads(text)), sort_keys=True)
    lines = text.splitlines()
    header = lines[0].split(",")
    keep = [k for k, name in enumerate(header) if not _is_wall_time(name)]
    return "\n".join(
        ",".join(line.split(",")[k] for k in keep) for line in lines
    )


def test_09_harness_runs_are_deterministic(tmp_path):
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(
        json.dumps({"id": "det", "topology": "complete", "n": 8, "seed": 11})
    )
    out_dirs = []
    for run in ("a", "b"):
        out = tmp_path / run
        out.mkdir()
        base = ["--scenario", str(scenario_file), "--out-dir", str(out)]
        assert main(["compare"] + base) == 0
        assert main(["compare"] + base + ["--format", "json"]) == 0
        assert main(["ablate"] + base) == 0
        out_dirs.append(out)
    names = ("det_compare.csv", "det_compare.json", "det_ablation.csv")
    stable = [
        name
        for name in names
        if _normalized(out_dirs[0] / name) == _normalized(out_dirs[1] / name)
    ]
    ok = len(stable) == len(names)
    report(
        "criterion 9 determinism",
        ok,
        f"{len(stable)}/{len(names)} artifacts identical modulo wall-time fields",
    )
