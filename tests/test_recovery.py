"""Parameter recovery: projection, round-trips, degeneracies, noise sweeps.

Round-trip tests generate trajectories from known parameters and demand the
fit reproduce them; the first trajectory always starts at the intrinsic
opinions because that row doubles as the estimate of s when none is given.
"""

import itertools
import warnings

import numpy as np
import pytest

from conftest import random_instance, random_network, random_params
from fjattack import (
    FjParameters,
    OpinionTrajectory,
    RecoveryProblem,
    Scenario,
    ValidationError,
    closed_form_outcome,
    generate,
    project_to_simplex,
    recover,
    recovery_robustness,
    simulate,
)
from fjattack import recovery
from fjattack.recovery import _simplex_least_squares


def round_trip_problem(seed, n=None, rounds=10, extra=2, with_truth=True):
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(4, 11))
    network = random_network(rng, n, 0.4)
    truth = random_params(rng, network, theta_range=(0.2, 0.8))
    trajectories = [simulate(truth, np.array(truth.intrinsic), rounds)]
    for _ in range(extra):
        trajectories.append(simulate(truth, rng.uniform(0, 1, n), rounds))
    return RecoveryProblem(
        network=network,
        trajectories=tuple(trajectories),
        truth=truth if with_truth else None,
    )


def test_simplex_projection_properties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        point = rng.normal(0, 3, size=rng.integers(1, 9))
        projected = project_to_simplex(point)
        assert projected.min() >= 0.0
        assert projected.sum() == pytest.approx(1.0, abs=1e-12)
        twice = project_to_simplex(projected)
        assert np.max(np.abs(twice - projected)) <= 1e-12
    interior = np.array([0.2, 0.3, 0.5])
    assert np.max(np.abs(project_to_simplex(interior) - interior)) <= 1e-15
    assert np.allclose(project_to_simplex(np.array([2.0, 0.0, 0.0])), [1, 0, 0])


def test_simplex_projection_is_nearest_point():
    rng = np.random.default_rng(1)
    for _ in range(30):
        point = rng.normal(0, 2, size=4)
        projected = project_to_simplex(point)
        base = np.linalg.norm(point - projected)
        for _ in range(60):
            other = rng.dirichlet(np.ones(4))
            assert np.linalg.norm(point - other) >= base - 1e-10


def test_noiseless_round_trip():
    for seed in range(15):
        problem = round_trip_problem(seed)
        truth = problem.truth
        result = recover(problem)
        assert np.max(np.abs(result.params.stubbornness - truth.stubbornness)) <= 1e-3
        assert np.max(np.abs(result.params.influence - truth.influence)) <= 1e-3
        assert abs(
            closed_form_outcome(result.params).g - closed_form_outcome(truth).g
        ) <= 1e-6


def test_recovered_rows_are_stochastic_on_support():
    problem = round_trip_problem(99, n=9)
    result = recover(problem)
    influence = result.params.influence
    mask = problem.network.support_mask()
    assert np.max(np.abs(influence.sum(axis=1) - 1.0)) <= 1e-9
    assert np.all(influence[~mask] == 0.0)


def test_residual_no_worse_than_truth():
    for seed in (2, 5, 11):
        problem = round_trip_problem(seed)
        truth = problem.truth
        result = recover(problem)
        # recompute the truth's one-step residual on the same stacked rows
        for i in range(problem.network.agent_count):
            fitted = result.per_agent_residual[i]
            errors = []
            for trajectory in problem.trajectories:
                values = trajectory.values
                for t in range(trajectory.rounds):
                    predicted = truth.stubbornness[i] * truth.intrinsic[i] + (
                        1 - truth.stubbornness[i]
                    ) * float(truth.influence[i] @ values[t])
                    errors.append((predicted - values[t + 1, i]) ** 2)
            truth_residual = float(np.sqrt(np.mean(errors)))
            assert fitted <= truth_residual + 1e-9


def test_full_stubbornness_is_flagged():
    rng = np.random.default_rng(3)
    network = random_network(rng, 6, 0.5)
    base = random_params(rng, network)
    truth = FjParameters(
        network=network,
        intrinsic=base.intrinsic,
        stubbornness=np.ones(6),
        influence=base.influence,
    )
    trajectories = (simulate(truth, rng.uniform(0, 1, 6), 8),)
    result = recover(
        RecoveryProblem(
            network=network, trajectories=trajectories, intrinsic=truth.intrinsic
        )
    )
    assert all(result.identifiability_flags)
    assert result.per_agent_residual.max() <= 1e-12
    for i in range(6):
        support = list(network.in_neighbors(i))
        assert np.allclose(result.params.influence[i, support], 1.0 / len(support))


def test_constant_trajectory_is_flagged():
    rng = np.random.default_rng(4)
    network = random_network(rng, 5, 0.5)
    level = rng.uniform(0, 1, 5)
    trajectory = OpinionTrajectory(rounds=6, values=np.tile(level, (7, 1)), pinned=())
    result = recover(
        RecoveryProblem(network=network, trajectories=(trajectory,), intrinsic=level)
    )
    assert all(result.identifiability_flags)


def test_problem_validation():
    problem = round_trip_problem(7, n=5)
    with pytest.raises(ValidationError):
        RecoveryProblem(network=problem.network, trajectories=())
    with pytest.raises(ValidationError):
        RecoveryProblem(
            network=problem.network,
            trajectories=problem.trajectories,
            ridge=-0.5,
        )
    other = random_network(np.random.default_rng(8), 6, 0.5)
    with pytest.raises(ValidationError):
        RecoveryProblem(network=other, trajectories=problem.trajectories)
    with pytest.raises(ValidationError):
        RecoveryProblem(
            network=problem.network,
            trajectories=problem.trajectories,
            intrinsic=np.full(5, 1.5),
        )


@pytest.mark.parametrize("seed, n", ((8, 5), (9, 6)), ids=("same_size", "larger"))
def test_problem_rejects_truth_on_another_network(seed, n):
    problem = round_trip_problem(7, n=5)
    other = round_trip_problem(seed, n=n).truth
    assert other.network != problem.network
    with pytest.raises(ValidationError, match="^truth parameters live on a different network$"):
        RecoveryProblem(
            network=problem.network, trajectories=problem.trajectories, truth=other
        )


def test_ridge_shrinks_but_stays_feasible():
    problem = round_trip_problem(12, n=6)
    plain = recover(problem)
    ridged = recover(
        RecoveryProblem(
            network=problem.network,
            trajectories=problem.trajectories,
            ridge=1e-3,
        )
    )
    assert np.max(np.abs(ridged.params.influence.sum(axis=1) - 1.0)) <= 1e-9
    # ridge trades fit for shrinkage, so the residual cannot improve
    assert ridged.per_agent_residual.sum() >= plain.per_agent_residual.sum() - 1e-12


def agent_rows(params, runs):
    """Each agent's (design, response), stacked trajectory by trajectory.

    The per-trajectory reference: ``recover`` stacks every trajectory once
    and slices each agent's rows out of the stack, and its fits must equal
    the fits on these rows bit for bit.
    """
    for i in range(params.n):
        support = list(params.network.in_neighbors(i))
        design = np.vstack(
            [np.column_stack([np.full(len(run) - 1, params.intrinsic[i]), run[:-1][:, support]])
             for run in runs]
        )
        yield design, np.concatenate([run[1:, i] for run in runs])


def assert_simplex_kkt(design, response, ridge, beta):
    """Feasibility and the KKT conditions of the simplex least-squares fit.

    At a simplex minimizer the gradient is equal across the support and no
    smaller off it.  Both hold to 1e-9 relative to the gradient's scale,
    the larger of its two terms.
    """
    assert beta.min() >= 0.0 and beta.sum() == pytest.approx(1.0, abs=1e-12)
    gram = design.T @ design + ridge * np.eye(beta.size)
    linear = design.T @ response
    gradient = gram @ beta - linear
    tol = 1e-9 * max(np.abs(gram @ beta).max(), np.abs(linear).max())
    on = beta > 0.0
    assert gradient[on].max() - gradient[on].min() <= tol
    if not on.all():
        assert gradient[~on].min() >= gradient[on].max() - tol
    return not on.all()


def noisy_erdos_renyi(seed):
    """Erdos-Renyi n = 8 parameters and five 30-round runs with +-1e-2 noise."""
    _, params = generate(Scenario(topology="erdos_renyi", n=8, edge_prob=0.3, seed=seed))
    rng = np.random.default_rng(seed)
    runs = []
    for _ in range(5):
        values = simulate(params, rng.uniform(0.0, 1.0, 8), 30).values
        runs.append(np.clip(values + rng.uniform(-1e-2, 1e-2, values.shape), 0.0, 1.0))
    return params, runs


def test_noisy_fits_with_active_simplex_constraint_meet_kkt():
    # Noisy rows whose fit sets some coefficient to zero, on a gradient
    # scale of 50-200.  The active-set solve ends on the support's own KKT
    # system, so the conditions hold to rounding, not to an iteration cap.
    active = 0
    for seed in (4, 16, 32):
        params, runs = noisy_erdos_renyi(seed)
        for design, response in agent_rows(params, runs):
            beta = _simplex_least_squares(design, response, 0.0)
            active += assert_simplex_kkt(design, response, 0.0, beta)
    assert active == 3


def test_interior_fit_solves_once_and_clipped_fit_ends_on_kkt(monkeypatch):
    # The active-set solve starts from the sum-constrained solution and
    # reuses it while every coordinate is free, so a fit that clips nothing
    # solves one KKT system, of the full support.  A fit that clips a
    # coordinate goes on to solve the smaller free system, and still ends
    # on a KKT point.
    solve = recovery._sum_constrained
    sizes = []
    monkeypatch.setattr(
        recovery, "_sum_constrained", lambda gram, linear: sizes.append(len(linear)) or solve(gram, linear)
    )
    interior = clipped = 0
    for seed in (4, 16, 32):
        params, runs = noisy_erdos_renyi(seed)
        for design, response in agent_rows(params, runs):
            sizes.clear()
            beta = _simplex_least_squares(design, response, 0.0)
            m = design.shape[1]
            if assert_simplex_kkt(design, response, 0.0, beta):
                clipped += 1
                assert sizes[0] == m and len(sizes) >= 2 and max(sizes[1:]) < m
            else:
                interior += 1
                assert sizes == [m]
    assert (interior, clipped) == (21, 3)


def test_recover_matches_per_trajectory_rows_bitwise(monkeypatch):
    # recover slices each agent's rows out of one stack of every
    # trajectory.  Its fits, residuals and flags must equal, bit for bit,
    # those on agent_rows' per-trajectory stacks: four topologies, clean
    # and 1e-2-noisy runs of 30, 1, 12 and 5 rounds, ridge 0 and 1e-3.
    # Rounding depends on the design's memory order, so equal values alone
    # would not do.
    solve = recovery._simplex_least_squares
    fits = []
    monkeypatch.setattr(
        recovery, "_simplex_least_squares", lambda *args: fits.append(solve(*args)) or fits[-1]
    )
    active = 0
    for topology, seed in itertools.product(("erdos_renyi", "complete", "ring", "star"), range(2)):
        n = 6 + seed
        _, params = generate(Scenario(topology=topology, n=n, edge_prob=0.4, seed=seed))
        rng = np.random.default_rng([seed, n])
        clean = [simulate(params, rng.uniform(0.0, 1.0, n), rounds).values for rounds in (30, 1, 12, 5)]
        for noise in (0.0, 1e-2):
            runs = [np.clip(v + rng.uniform(-noise, noise, v.shape), 0.0, 1.0) for v in clean]
            trajectories = tuple(
                OpinionTrajectory(rounds=len(v) - 1, values=v, pinned=()) for v in runs
            )
            for ridge in (0.0, 1e-3):
                fits.clear()
                result = recover(
                    RecoveryProblem(
                        network=params.network,
                        trajectories=trajectories,
                        ridge=ridge,
                        intrinsic=params.intrinsic,
                    )
                )
                for i, (design, response) in enumerate(agent_rows(params, runs)):
                    beta = solve(design, response, ridge)
                    assert np.array_equal(fits[i], beta)
                    active += bool((beta == 0.0).any())
                    stubborn = result.params.stubbornness[i] == 1.0
                    prediction = design[:, 0] if stubborn else design @ beta
                    assert result.per_agent_residual[i] == np.sqrt(np.mean((prediction - response) ** 2))
                    rank_deficient = np.linalg.matrix_rank(design) < design.shape[1]
                    assert result.identifiability_flags[i] == (stubborn or rank_deficient)
    assert active > 0


def test_simplex_fits_meet_kkt_across_noise_and_ridge():
    # Seeded rows on four topologies at noise 0, 1e-3 and 1e-2 and ridge 0
    # and 1e-3, plus a constant trajectory whose design has rank 1: every
    # fit is on the simplex and meets the KKT conditions.
    active = 0
    for topology in ("erdos_renyi", "complete", "ring", "star"):
        for seed in range(3):
            n = 5 + 2 * seed
            _, params = generate(Scenario(topology=topology, n=n, edge_prob=0.4, seed=seed))
            rng = np.random.default_rng([seed, n])
            clean = [simulate(params, rng.uniform(0.0, 1.0, n), 30).values for _ in range(4)]
            for noise in (0.0, 1e-3, 1e-2):
                runs = [np.clip(v + rng.uniform(-noise, noise, v.shape), 0.0, 1.0) for v in clean]
                for ridge in (0.0, 1e-3):
                    for design, response in agent_rows(params, runs):
                        beta = _simplex_least_squares(design, response, ridge)
                        active += assert_simplex_kkt(design, response, ridge, beta)
            constant = [np.tile(rng.uniform(0.0, 1.0, n), (7, 1))]
            for ridge in (0.0, 1e-3):
                for design, response in agent_rows(params, constant):
                    assert np.linalg.matrix_rank(design) == 1
                    beta = _simplex_least_squares(design, response, ridge)
                    assert_simplex_kkt(design, response, ridge, beta)
    assert active > 0


def test_robustness_noise_zero_matches_noiseless():
    problem = round_trip_problem(21, n=7)
    rows = recovery_robustness(problem, [0.0], seeds=3)
    result = recover(problem)
    truth = problem.truth
    expected_theta = float(
        np.mean(np.abs(result.params.stubbornness - truth.stubbornness))
    )
    assert rows[0].noise == 0.0
    assert rows[0].stubbornness_error == pytest.approx(expected_theta, abs=1e-12)
    assert rows[0].g_error <= 1e-6


def test_robustness_errors_grow_with_noise():
    problem = round_trip_problem(22, n=7)
    rows = recovery_robustness(problem, [0.0, 0.01, 0.05], seeds=4)
    weight_errors = [row.influence_error for row in rows]
    if not (weight_errors[0] <= weight_errors[1] + 1e-12 and
            weight_errors[1] <= weight_errors[2] + 1e-12):
        warnings.warn(f"weight error not monotone across noise levels: {weight_errors}")
    assert weight_errors[0] <= weight_errors[2]


def test_robustness_requires_truth_and_seeds():
    problem = round_trip_problem(23, n=5, with_truth=False)
    with pytest.raises(ValidationError):
        recovery_robustness(problem, [0.0], seeds=2)
    with_truth = round_trip_problem(23, n=5)
    with pytest.raises(ValidationError):
        recovery_robustness(with_truth, [0.0], seeds=0)
    with pytest.raises(ValidationError):
        recovery_robustness(with_truth, [-0.1], seeds=2)


@pytest.mark.parametrize("level", (float("nan"), float("inf")))
def test_robustness_rejects_non_finite_noise(level):
    problem = round_trip_problem(23, n=5)
    with pytest.raises(ValidationError, match=r"^noise level must be nonnegative, got (nan|inf)$"):
        recovery_robustness(problem, [level], seeds=2)


def test_problem_rejects_nan_intrinsic():
    # recover would otherwise fail deep inside LAPACK's SVD.
    problem = round_trip_problem(7, n=5)
    intrinsic = np.full(5, 0.5)
    intrinsic[2] = np.nan
    with pytest.raises(ValidationError, match=r"^intrinsic entries must lie in \[0, 1\], got nan$"):
        RecoveryProblem(
            network=problem.network, trajectories=problem.trajectories, intrinsic=intrinsic
        )
