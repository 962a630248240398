"""Parameter recovery: projection, round-trips, degeneracies, noise sweeps.

Round-trip tests generate trajectories from known parameters and demand the
fit reproduce them; the first trajectory always starts at the intrinsic
opinions because that row doubles as the estimate of s when none is given.
"""

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


def test_noisy_fits_with_active_simplex_constraint_meet_kkt():
    # Noisy Erdos-Renyi n = 8 rows (five 30-round trajectories, +-1e-2
    # noise) whose fit sets some coefficient to zero.  At a simplex
    # minimizer the gradient is equal across the support and no smaller
    # off it.  These rows stop at MAX_ITERATIONS, so equality holds only
    # to about 3e-6 on the gradient's scale of 50-200.
    active = 0
    for seed in (4, 16, 32):
        _, params = generate(
            Scenario(topology="erdos_renyi", n=8, edge_prob=0.3, seed=seed)
        )
        rng = np.random.default_rng(seed)
        runs = []
        for _ in range(5):
            values = simulate(params, rng.uniform(0.0, 1.0, 8), 30).values
            runs.append(np.clip(values + rng.uniform(-1e-2, 1e-2, values.shape), 0.0, 1.0))
        for i in range(8):
            support = list(params.network.in_neighbors(i))
            design = np.vstack(
                [np.column_stack([np.full(30, params.intrinsic[i]), run[:-1][:, support]])
                 for run in runs]
            )
            response = np.concatenate([run[1:, i] for run in runs])
            beta = _simplex_least_squares(design, response, 0.0)
            assert beta.min() >= 0.0 and beta.sum() == pytest.approx(1.0, abs=1e-12)
            on = beta > 0.0
            if on.all():
                continue
            active += 1
            gradient = design.T @ (design @ beta - response)
            assert gradient[on].max() - gradient[on].min() <= 1e-5
            assert gradient[~on].min() >= gradient[on].max() - 1e-5
    assert active == 3


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
