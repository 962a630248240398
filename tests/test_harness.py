"""Scenario generation, strategy comparisons and ablations.

Determinism is the load-bearing property here: everything a scenario file
produces must be reproducible bit for bit, wall-clock fields aside, so the
tests lean on re-running and diffing serialized output.
"""

import json
import math
import re
from itertools import combinations

import numpy as np
import pytest
from scipy.linalg import lu_solve

import fjattack
from conftest import restricted_outcome
from fjattack import (
    ABLATION_MODES,
    CapExceededError,
    ConvergenceError,
    Scenario,
    ValidationError,
    generate,
    run_ablation,
    run_comparison,
)
from fjattack.fileio import parameters_to_json, save_parameters
from fjattack.harness import (
    RESULT_HEADER,
    _erdos_renyi_edges,
    _random_targets,
    _uniform_below,
    result_rows_to_csv,
    result_rows_to_json,
)
from fjattack.linalg import factor_conditioned, solve_conditioned
from fjattack.optimizer import _drifting_search, _subset_masks


def test_generate_complete_shape():
    scenario = Scenario(scenario_id="c", topology="complete", n=5, seed=3)
    network, params = generate(scenario)
    assert network.agent_count == 5
    for i in range(5):
        assert len(network.in_neighbors(i)) == 4
    assert np.max(np.abs(params.influence.sum(axis=1) - 1.0)) <= 1e-12


def test_generate_is_deterministic():
    scenario = Scenario(scenario_id="d", topology="erdos_renyi", n=9, edge_prob=0.4, seed=11)
    first = generate(scenario)
    second = generate(scenario)
    assert first[0] == second[0]
    assert json.dumps(parameters_to_json(first[1])) == json.dumps(
        parameters_to_json(second[1])
    )
    shifted = generate(scenario.with_seed(12))
    assert json.dumps(parameters_to_json(shifted[1])) != json.dumps(
        parameters_to_json(first[1])
    )


def test_generate_repairs_empty_in_neighborhoods():
    scenario = Scenario(
        scenario_id="r", topology="erdos_renyi", n=5, edge_prob=0.0, seed=0
    )
    network, _ = generate(scenario)
    for i in range(5):
        assert len(network.in_neighbors(i)) >= 1


def test_generate_ring_and_star():
    ring, _ = generate(Scenario(scenario_id="x", topology="ring", n=6, seed=1))
    for i in range(6):
        assert sorted(ring.in_neighbors(i)) == sorted(((i - 1) % 6, (i + 1) % 6))
    star, _ = generate(Scenario(scenario_id="y", topology="star", n=6, seed=1))
    assert star.out_degree(0) == 5
    for i in range(1, 6):
        assert sorted(star.in_neighbors(i)) == [0]


def test_generate_custom_file(tmp_path):
    base = Scenario(scenario_id="b", topology="complete", n=6, seed=5)
    _, params = generate(base)
    path = tmp_path / "net.json"
    save_parameters(params, path)
    custom = Scenario(
        scenario_id="b2", topology="custom", n=6, network_file=str(path), seed=5
    )
    network, loaded = generate(custom)
    assert network == params.network
    assert np.array_equal(loaded.influence, params.influence)
    assert np.array_equal(loaded.stubbornness, params.stubbornness)


def test_generate_sampling_respects_ranges():
    scenario = Scenario(
        scenario_id="s",
        topology="complete",
        n=20,
        theta_dist=(0.3, 0.4),
        s_dist=(0.6, 0.9),
        seed=2,
    )
    _, params = generate(scenario)
    assert params.stubbornness.min() >= 0.3 and params.stubbornness.max() <= 0.4
    assert params.intrinsic.min() >= 0.6 and params.intrinsic.max() <= 0.9


def test_scenario_json_round_trip():
    scenario = Scenario(
        scenario_id="j",
        topology="erdos_renyi",
        n=8,
        edge_prob=0.25,
        p=5e-4,
        seed=77,
        leader_size=2,
    )
    assert Scenario.from_json(scenario.to_json()) == scenario
    custom = Scenario(scenario_id="k", topology="custom", network_file="net.json", seed=3)
    assert custom.to_json()["network_file"] == "net.json"
    assert Scenario.from_json(custom.to_json()) == custom
    with pytest.raises(ValidationError):
        Scenario.from_json({"id": "a", "topology": "complete", "n": 5, "bogus": 1})
    with pytest.raises(ValidationError):
        Scenario(scenario_id="bad", topology="moebius", n=5)


@pytest.mark.parametrize(
    "field, dist",
    (("theta_dist", (0.8, 0.2)), ("s_dist", [1.0, 0.0]), ("s_dist", (0.5, 0.4999))),
    ids=("theta", "s", "s_close"),
)
def test_scenario_ranges_need_low_at_most_high(field, dist):
    with pytest.raises(ValidationError, match=f"^{field} must have low <= high, got "):
        Scenario(scenario_id="r", topology="complete", n=5, **{field: dist})


@pytest.mark.parametrize(
    "field, dist",
    (("theta_dist", (False, "0.5")), ("s_dist", (True, True)), ("theta_dist", (0.2, "0.8"))),
    ids=("bool_and_text", "bools", "text"),
)
def test_scenario_range_bounds_keep_the_number_rule(field, dist):
    with pytest.raises(ValidationError, match=rf"^{field} must be a \[low, high\] pair, got "):
        Scenario(scenario_id="r", topology="complete", n=5, **{field: dist})


def per_pair_erdos_renyi_edges(n, edge_prob, rng):
    """Reference generator: one ``rng.random()`` call per ordered pair."""
    edges = []
    for src in range(n):
        for dst in range(n):
            if src != dst and rng.random() < edge_prob:
                edges.append((src, dst))
    in_counts = [0] * n
    for _, dst in edges:
        in_counts[dst] += 1
    for dst in range(n):
        if in_counts[dst] == 0:
            candidates = [src for src in range(n) if src != dst]
            edges.append((candidates[int(rng.integers(len(candidates)))], dst))
    return edges


def test_erdos_renyi_draws_match_the_per_pair_loop():
    # One draw per source row reads the same stream as one per pair, so
    # the edges, the repair draws and the state left behind all agree.
    for n in (2, 3, 7, 30, 100):
        for edge_prob in (0.0, 0.02, 0.3, 0.97, 1.0):
            for seed in range(3):
                got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = _erdos_renyi_edges(n, edge_prob, got_rng)
                assert got == per_pair_erdos_renyi_edges(n, edge_prob, want_rng), (n, edge_prob)
                assert all(type(x) is int for edge in got for x in edge)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize(
    "entry",
    (
        lambda scenario: run_comparison(scenario, ["random"]),
        lambda scenario: run_comparison(scenario, ["variant_I"]),
        lambda scenario: run_ablation(scenario),
    ),
    ids=("random", "variant_I", "ablation"),
)
def test_leader_size_is_checked_once_for_every_entry(entry):
    with pytest.raises(ValidationError, match=r"^leader_size 9 outside the feasible range 1\.\.1$"):
        entry(Scenario(n=6, leader_size=9))
    with pytest.raises(ValidationError, match="3 agents leave no adversary budget"):
        entry(Scenario(n=3))


def test_comparison_exact_dominates_heuristics():
    scenario = Scenario(scenario_id="t", topology="complete", n=7, seed=21)
    rows = run_comparison(
        scenario, ["ours_exact", "variant_I", "variant_IV", "variant_V", "variant_VI"]
    )
    by_name = {row.strategy: row for row in rows}
    for variant in ("variant_I", "variant_IV", "variant_V", "variant_VI"):
        assert by_name["ours_exact"].delta_g >= by_name[variant].delta_g - 1e-12


def test_comparison_rows_share_instance_and_sort():
    scenario = Scenario(scenario_id="u", topology="erdos_renyi", n=9, seed=33)
    strategies = ["variant_I", "ours_approx", "random"]
    rows = run_comparison(scenario, strategies)
    assert [row.strategy for row in rows] == ["ours_approx", "random", "variant_I"]
    assert len({row.g0 for row in rows}) == 1
    for row in rows:
        assert row.delta_g == pytest.approx(row.g_attack - row.g0, abs=1e-12)
        assert row.status == "ok"


def test_comparison_empty_and_unknown_strategies():
    scenario = Scenario(scenario_id="v", topology="ring", n=6, seed=4)
    assert run_comparison(scenario, []) == []
    with pytest.raises(ValidationError):
        run_comparison(scenario, ["ours_approx", "alchemy"])


def test_comparison_random_strategy_is_seeded():
    scenario = Scenario(scenario_id="w", topology="complete", n=8, seed=101)
    first = run_comparison(scenario, ["random"])
    second = run_comparison(scenario, ["random"])
    assert first[0].g_attack == second[0].g_attack
    moved = run_comparison(scenario.with_seed(102), ["random"])
    assert moved[0].g_attack != first[0].g_attack


def test_comparison_cap_marks_skipped_and_continues():
    scenario = Scenario(scenario_id="z", topology="complete", n=12, seed=5)
    rows = run_comparison(scenario, ["ours_exact", "variant_I"], cap=10)
    by_name = {row.strategy: row for row in rows}
    skipped = by_name["ours_exact"]
    assert skipped.status == "skipped"
    assert math.isnan(skipped.g_attack) and math.isnan(skipped.delta_g)
    assert by_name["variant_I"].status == "ok"


@pytest.mark.parametrize("cap", ("x", -1, 0, True, 2.5))
def test_comparison_checks_its_cap_before_any_strategy(cap, monkeypatch):
    def unreachable(*args):
        raise AssertionError("a strategy ran before the cap was checked")

    monkeypatch.setattr(fjattack.harness, "generate", unreachable)
    scenario = Scenario(scenario_id="z", topology="complete", n=8, seed=5)
    with pytest.raises(ValidationError, match=r"^cap must be an int >= 1, got "):
        run_comparison(scenario, ["random", "ours_exact"], cap=cap)


def test_comparison_cap_none_means_no_cap():
    scenario = Scenario(scenario_id="z", topology="complete", n=8, seed=5)
    unbounded = run_comparison(scenario, ["ours_exact"], cap=None)
    default = run_comparison(scenario, ["ours_exact"])
    assert strip_wall_times(result_rows_to_json(unbounded)) == strip_wall_times(
        result_rows_to_json(default)
    )
    assert unbounded[0].status == "ok"


def enumerated_random_targets(network, adversaries, rng):
    """Reference draw: list every choice in (size, lex) order, pick one by rank."""
    targets = {}
    for j in adversaries:
        subsets = _subset_masks(network, j, network.target_budget(j))
        subsets = subsets[~subsets[:, list(adversaries)].any(axis=1)]
        targets[j] = np.flatnonzero(subsets[int(rng.integers(len(subsets)))])
    return targets


def test_random_targets_unrank_the_enumerated_draw(monkeypatch):
    listed = []
    monkeypatch.setattr(
        fjattack.optimizer, "_subset_masks", lambda *args: listed.append(args)
    )
    assert not hasattr(fjattack.harness, "_subset_masks")
    cases = 0
    for topology in ("complete", "ring", "star", "erdos_renyi"):
        for n in range(5, 15):
            for seed in range(3):
                network, _ = generate(Scenario(topology=topology, n=n, seed=seed))
                picks = np.random.default_rng([seed, n])
                k = network.leader_budget()
                for draw in range(5):
                    adversaries = tuple(sorted(picks.choice(n, size=k, replace=False).tolist()))
                    got = _random_targets(network, adversaries, np.random.default_rng(draw))
                    want = enumerated_random_targets(
                        network, adversaries, np.random.default_rng(draw)
                    )
                    assert got.keys() == want.keys()
                    for j in adversaries:
                        assert got[j].dtype == want[j].dtype
                        assert got[j].tolist() == want[j].tolist()
                    cases += 1
    assert cases == 4 * 10 * 3 * 5
    assert listed == []


def test_random_strategy_runs_on_a_complete_forty_agent_network():
    # 4.7e7 target choices per adversary: listing them is out of reach.
    scenario = Scenario(scenario_id="r40", topology="complete", n=40, seed=1)
    (row,) = run_comparison(scenario, ["random"])
    assert row.status == "ok"


def test_random_strategy_draws_beyond_int64_on_a_complete_hundred_agent_network():
    # Each adversary has about 6.0e19 target choices, more than one int64
    # draw reaches (2^63 is about 9.2e18).
    scenario = Scenario(scenario_id="r100", topology="complete", n=100, seed=1)
    (row,) = run_comparison(scenario, ["random"])
    assert row.status == "ok"
    # Below 2^63 a rank is one rng.integers draw, as before; above, it is
    # read off 63-bit words and always lands in range.
    for total in (1, 5, 2**63 - 1):
        assert _uniform_below(total, np.random.default_rng(7)) == int(
            np.random.default_rng(7).integers(total)
        )
    for total in (2**63, 3 * 2**63 + 1, 10**40):
        draws = [_uniform_below(total, np.random.default_rng(seed)) for seed in range(200)]
        assert all(0 <= x < total for x in draws)
        assert min(draws) < total // 4 and max(draws) > 3 * total // 4


def test_comparison_approx_beats_variants_on_average():
    gaps = {v: [] for v in ("variant_I", "variant_IV", "variant_V", "variant_VI")}
    ours = []
    for seed in range(12):
        scenario = Scenario(scenario_id=f"m{seed}", topology="ring", n=10, seed=seed)
        rows = run_comparison(
            scenario,
            ["ours_approx", "variant_I", "variant_IV", "variant_V", "variant_VI"],
        )
        by_name = {row.strategy: row for row in rows}
        ours.append(by_name["ours_approx"].delta_g)
        for variant in gaps:
            gaps[variant].append(by_name[variant].delta_g)
    for variant, values in gaps.items():
        assert np.mean(ours) >= np.mean(values)


def test_ablation_rows_share_baseline():
    scenario = Scenario(scenario_id="a", topology="complete", n=9, seed=13)
    rows = run_ablation(scenario)
    assert [row.strategy for row in rows] == ["full", "wo_both", "wo_pinning", "wo_targeting"]
    assert len({row.g0 for row in rows}) == 1
    for row in rows:
        assert row.status == "ok"


def test_ablation_counts_one_configuration_per_set():
    scenario = Scenario(scenario_id="cnt", topology="complete", n=9, seed=13)
    rows = {row.strategy: row for row in run_ablation(scenario)}
    for mode in ABLATION_MODES:
        assert rows[mode].follower_candidates == rows[mode].leader_evals == 36, mode


@pytest.mark.parametrize("topology", ["complete", "erdos_renyi", "ring", "star"])
def test_ablation_wo_targeting_plans_the_untargeted_pinned_argmax(monkeypatch, topology):
    # wo_targeting's set maximizes the pinned g with no targets; the
    # first set in enumeration order wins a tie.
    configs = {}
    real_row = fjattack.harness._result_row

    def row_spy(scenario, strategy, params, baseline_g, config, *rest):
        configs[strategy] = config
        return real_row(scenario, strategy, params, baseline_g, config, *rest)

    monkeypatch.setattr(fjattack.harness, "_result_row", row_spy)
    for n in range(4, 12):
        scenario = Scenario(scenario_id="wt", topology=topology, n=n, seed=500 + n)
        network, params = generate(scenario)
        run_ablation(scenario)
        best_set, best_g = None, -np.inf
        for adversaries in combinations(range(n), network.leader_budget()):
            g = restricted_outcome(params, adversaries, (), 0.0)
            if g > best_g:
                best_set, best_g = adversaries, g
        assert configs["wo_targeting"].adversaries == best_set, n


def test_ablation_zero_target_budgets_collapse():
    # ring out-degrees are all 2, so targeting brings zero freedom
    scenario = Scenario(scenario_id="ab", topology="ring", n=10, seed=42)
    rows = {row.strategy: row for row in run_ablation(scenario)}
    assert rows["full"].delta_g == pytest.approx(
        rows["wo_targeting"].delta_g, abs=1e-12
    )


def test_ablation_full_wins_on_average():
    totals = {mode: 0.0 for mode in ("full", "wo_pinning", "wo_targeting", "wo_both")}
    for seed in range(10):
        scenario = Scenario(scenario_id=f"ac{seed}", topology="complete", n=9, seed=seed)
        for row in run_ablation(scenario):
            totals[row.strategy] += row.delta_g
    for mode in ("wo_pinning", "wo_targeting", "wo_both"):
        assert totals["full"] >= totals[mode] - 1e-12


def strip_wall_times(rows_json):
    for row in rows_json:
        row.pop("wall_time_ms")
    return rows_json


def test_outputs_are_reproducible_modulo_wall_time():
    scenario = Scenario(scenario_id="det", topology="erdos_renyi", n=10, seed=2024)
    strategies = ["ours_approx", "variant_I", "variant_V", "random"]
    first = run_comparison(scenario, strategies)
    second = run_comparison(scenario, strategies)
    assert strip_wall_times(result_rows_to_json(first)) == strip_wall_times(
        result_rows_to_json(second)
    )
    wall_index = RESULT_HEADER.index("wall_time_ms")

    def blank(table):
        return [row[:wall_index] + row[wall_index + 1 :] for row in table]

    assert blank(result_rows_to_csv(first)) == blank(result_rows_to_csv(second))
    ablation_first = strip_wall_times(result_rows_to_json(run_ablation(scenario)))
    ablation_second = strip_wall_times(result_rows_to_json(run_ablation(scenario)))
    assert ablation_first == ablation_second


def reference_unpinned_best_response(params, adversaries, p):
    """The per-set no-pinning follower, as a scalar reference: adversaries
    drift with intrinsic opinion 1, targets are ranked by first-order
    gain, and the assembled choice is scored under the same model."""
    network = params.network
    n = params.n
    intrinsic = np.array(params.intrinsic)
    intrinsic[list(adversaries)] = 1.0
    theta = params.stubbornness
    weights = params.influence
    factor = factor_conditioned(np.eye(n) - (1.0 - theta)[:, None] * weights)
    z0 = lu_solve(factor, theta * intrinsic)
    sensitivity = (1.0 - theta) * lu_solve(factor, np.ones(n), trans=1)
    received = weights @ z0
    items = []
    for j in sorted(adversaries):
        eligible = [i for i in network.out_neighbors(j) if i not in adversaries]
        gain = {i: p * sensitivity[i] * (z0[j] - received[i]) for i in eligible}
        ranked = sorted(eligible, key=lambda i: (-gain[i], i))
        chosen = [i for i in ranked if gain[i] > 0.0][: network.target_budget(j)]
        items.append((j, tuple(sorted(chosen))))
    hits = np.zeros((n, n))
    for j, targets in items:
        hits[list(targets), j] = p
    modified = weights * (1.0 - np.count_nonzero(hits, axis=1) * p)[:, None] + hits
    z = solve_conditioned(np.eye(n) - (1.0 - theta)[:, None] * modified, theta * intrinsic)
    return tuple(items), float(z.sum())


def reference_wo_pinning(params, p, leader_size):
    best_key, best_g = None, -np.inf
    for adversaries in combinations(range(params.n), leader_size):
        items, model_g = reference_unpinned_best_response(params, adversaries, p)
        key = (adversaries, items)
        if model_g > best_g or (model_g == best_g and key < best_key):
            best_key, best_g = key, model_g
    return best_key, best_g


def reference_wo_both(params, leader_size):
    n = params.n
    theta = params.stubbornness
    mass = lu_solve(
        factor_conditioned(np.eye(n) - (1.0 - theta)[:, None] * params.influence),
        np.ones(n),
        trans=1,
    )
    best_adv, best_g = None, -np.inf
    for adversaries in combinations(range(n), leader_size):
        intrinsic = np.array(params.intrinsic)
        intrinsic[list(adversaries)] = 1.0
        model_g = float(mass @ (theta * intrinsic))
        if model_g > best_g or (model_g == best_g and adversaries < best_adv):
            best_adv, best_g = adversaries, model_g
    return best_adv, best_g


@pytest.mark.parametrize("topology", ["complete", "erdos_renyi", "ring", "star"])
def test_unpinned_scorer_matches_per_set_reference(topology):
    for n in range(4, 12):
        scenario = Scenario(scenario_id="up", topology=topology, n=n, seed=300 + n)
        network, params = generate(scenario)
        size = network.leader_budget()
        key, model_g, sets, configs = _drifting_search(params, scenario.p, size)
        expected_key, expected_g = reference_wo_pinning(params, scenario.p, size)
        assert key == expected_key
        assert model_g == pytest.approx(expected_g, rel=1e-13)
        assert sets == configs == math.comb(n, size)
        (adversaries, items), model_g, _, _ = _drifting_search(params, 0.0, size)
        expected_adversaries, expected_g = reference_wo_both(params, size)
        assert adversaries == expected_adversaries
        assert model_g == pytest.approx(expected_g, rel=1e-13)
        assert all(targets == () for _, targets in items)


@pytest.mark.parametrize("leader_chunk", [1, 3])
def test_ablation_rows_do_not_depend_on_leader_chunk(monkeypatch, leader_chunk):
    scenarios = [
        Scenario(scenario_id="lc", topology="complete", n=9, seed=13),
        Scenario(scenario_id="lc", topology="erdos_renyi", n=10, seed=14),
    ]
    expected = [strip_wall_times(result_rows_to_json(run_ablation(s))) for s in scenarios]
    monkeypatch.setattr(fjattack.optimizer, "LEADER_CHUNK", leader_chunk)
    got = [strip_wall_times(result_rows_to_json(run_ablation(s))) for s in scenarios]
    assert got == expected


def test_unpinned_scorer_takes_no_gain_step_at_zero_magnitude(monkeypatch):
    # The ablation's drifting model with targeting off plans at p = 0,
    # where every gain is 0: it chooses no target without computing one.
    network, params = generate(Scenario(scenario_id="z", topology="complete", n=9, seed=2))
    expected = _drifting_search(params, 0.0, 2)

    def refuse(*args):
        raise AssertionError("top-target step at p = 0")

    monkeypatch.setattr(fjattack.optimizer, "_top_targets", refuse)
    got = _drifting_search(params, 0.0, 2)
    assert got == expected
    assert all(targets == () for _, targets in got[0][1])


def test_unpinned_scorer_is_conditioning_guarded(monkeypatch):
    network, params = generate(Scenario(scenario_id="g", topology="complete", n=10, seed=1))
    # A re-scored drifting system that fails the guard is refused with its set named.
    real_check = fjattack.optimizer.check_conditioned

    def refuse_drifting(matrix, label, *rest):
        if matrix.shape[1:] == (10, 10):
            raise ConvergenceError(f"{label(0)} refused")
        return real_check(matrix, label, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(fjattack.optimizer, "check_conditioned", refuse_drifting)
        with pytest.raises(ConvergenceError, match=r"adversary set \(0, 1, 2\)"):
            _drifting_search(params, 1e-3, 3)
    # M itself is refused by the kernel, before any set is scored.
    monkeypatch.setattr(fjattack.linalg, "RCOND_MIN", 1.0)
    with pytest.raises(ConvergenceError, match=r"system I - \(I - Theta\) W"):
        _drifting_search(params, 1e-3, 3)


@pytest.mark.parametrize("p", [1e-3, 0.0])
def test_drifting_search_inverts_m_once_through_the_kernel(monkeypatch, p):
    network, params = generate(Scenario(scenario_id="i", topology="erdos_renyi", n=10, seed=3))
    calls = []
    real_invert = fjattack.optimizer.invert_conditioned
    real_init = fjattack.optimizer._SchurGains.__init__
    building = []

    def init_spy(self, *args):
        building.append(True)
        try:
            real_init(self, *args)
        finally:
            building.pop()

    def invert_spy(matrix, label):
        calls.append((matrix.shape, bool(building), label(0)))
        return real_invert(matrix, label)

    monkeypatch.setattr(fjattack.optimizer, "invert_conditioned", invert_spy)
    monkeypatch.setattr(fjattack.optimizer._SchurGains, "__init__", init_spy)
    _drifting_search(params, p, network.leader_budget())
    assert calls == [((1, 10, 10), True, "system I - (I - Theta) W")]


SHARED_TARGET = "influence magnitude p=0.5 lets 2 adversaries target one agent; need p < 1/2"


@pytest.mark.parametrize("entry", ["compare", "ablate", "drifting"])
def test_sharing_rule_is_applied_before_any_strategy_or_model(monkeypatch, entry):
    # At p = 0.5 two adversaries that share a target would scale its row of
    # W by 1 - 2 p = 0.  Unchecked, the drifting planner chose adversaries
    # (6, 7) here, both targeting agents 1 and 3, and the comparison's
    # random strategy built a config that AttackConfig refused.
    def unreachable(*args, **kwargs):
        raise AssertionError("a strategy, model or scorer ran before the sharing rule")

    scenario = Scenario(scenario_id="s", topology="complete", n=8, seed=11, p=0.5)
    _, params = generate(scenario)
    for module, name in [
        (fjattack.harness, "solve_attack"),
        (fjattack.harness, "_random_config"),
        (fjattack.harness, "baseline_variant"),
        (fjattack.harness, "_search"),
        (fjattack.harness, "_drifting_search"),
        (fjattack.harness, "adversarial_outcome"),
        (fjattack.optimizer, "_SchurGains"),
        (fjattack.optimizer, "_leader_search"),
    ]:
        monkeypatch.setattr(module, name, unreachable)
    with pytest.raises(ValidationError, match=re.escape(SHARED_TARGET)):
        if entry == "compare":
            run_comparison(scenario, ["random", "variant_I", "ours_approx"])
        elif entry == "ablate":
            run_ablation(scenario)
        else:
            _drifting_search(params, scenario.p, 2)
