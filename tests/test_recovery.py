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
    InfluenceNetwork,
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
from fjattack.dynamics import THETA_MIN
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
    and slices each agent's rows out of the stack.  Like a lone agent's
    design there, each design here is F-ordered at in-degree >= 2 and
    C-ordered at in-degree 1.
    """
    for i in range(params.n):
        support = list(params.network.in_neighbors(i))
        design = np.vstack(
            [np.column_stack([np.full(len(run) - 1, params.intrinsic[i]), run[:-1][:, support]])
             for run in runs]
        )
        yield design, np.concatenate([run[1:, i] for run in runs])


def fit_stack(design, response, ridge):
    """The simplex least-squares fits of a (g, R, m) stack of designs."""
    return _simplex_least_squares(design, response, ridge, np.matmul(design.transpose(0, 2, 1), design))


def fit_row(design, response, ridge):
    """The simplex least-squares fit of one design, as a stack of one."""
    return fit_stack(design[None], response[None], ridge)[0]


def normal_equations(design, response, ridge):
    return design.T @ design + ridge * np.eye(design.shape[1]), design.T @ response


def assert_simplex_kkt(gram, linear, beta):
    """Feasibility and the KKT conditions of the simplex least-squares fit
    whose Gram matrix and linear term are given.

    At a simplex minimizer the gradient is equal across the support and no
    smaller off it.  Both hold to 1e-9 relative to the gradient's scale,
    the larger of its two terms.  Returns whether a coordinate is clipped.
    """
    assert beta.min() >= 0.0 and beta.sum() == pytest.approx(1.0, abs=1e-12)
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


def recover_runs(params, runs, ridge=0.0):
    trajectories = tuple(OpinionTrajectory(rounds=len(v) - 1, values=v, pinned=()) for v in runs)
    return recover(
        RecoveryProblem(
            network=params.network, trajectories=trajectories, ridge=ridge, intrinsic=params.intrinsic
        )
    )


def test_noisy_fits_with_active_simplex_constraint_meet_kkt():
    # Noisy rows whose fit sets some coefficient to zero, on a gradient
    # scale of 50-200.  The active-set solve ends on the support's own KKT
    # system, so the conditions hold to rounding, not to an iteration cap.
    active = 0
    for seed in (4, 16, 32):
        params, runs = noisy_erdos_renyi(seed)
        for design, response in agent_rows(params, runs):
            beta = fit_row(design, response, 0.0)
            active += assert_simplex_kkt(*normal_equations(design, response, 0.0), beta)
    assert active == 3


def test_kkt_solve_is_lstsq_on_the_bordered_system():
    # _sum_constrained calls LAPACK gelsd, the solve np.linalg.lstsq runs,
    # with lstsq's default rcond, eps (m + 1).  On full-rank and rank-1
    # designs it returns lstsq's solution; the SVD cut-off decides the
    # rank-1 ones, whose Gram is singular.  Two LAPACK builds may round
    # apart, hence the 1e-10 bound.
    rng = np.random.default_rng(7)
    params, runs = noisy_erdos_renyi(4)
    constant = [np.tile(rng.uniform(0.0, 1.0, params.n), (7, 1))]
    for rows in (runs, constant):
        for design, response in agent_rows(params, rows):
            gram, linear = normal_equations(design, response, 0.0)
            m = len(linear)
            kkt = np.ones((m + 1, m + 1))
            kkt[:m, :m] = gram
            kkt[m, m] = 0.0
            expected = np.linalg.lstsq(kkt, np.append(linear, 1.0), rcond=None)[0][:m]
            solved = recovery._sum_constrained(np.stack([gram, gram]), np.stack([linear, linear]))
            assert np.array_equal(solved[0], solved[1])
            assert np.max(np.abs(solved[0] - expected)) <= 1e-10


def test_interior_fit_solves_once_and_clipped_fit_ends_on_kkt(monkeypatch):
    # recover fits each in-degree's agents as one stack.  Every agent's
    # start is one KKT system of its full support, solved with its stack's;
    # a row whose start the simplex holds solves nothing more.  A row whose
    # start clips a coordinate goes on to the active-set loop, which solves
    # smaller free systems only and ends on a KKT point.
    solve, loop, fit = recovery._sum_constrained, recovery._active_set, recovery._simplex_least_squares
    starts, clipped_sizes, stacks = [], [], []

    def spy_solve(gram, linear):
        (clipped_sizes[-1] if looping else starts).extend([linear.shape[1]] * len(linear))
        return solve(gram, linear)

    def spy_loop(gram, linear, start, beta):
        nonlocal looping
        clipped_sizes.append([])
        looping = True
        try:
            beta = loop(gram, linear, start, beta)
        finally:
            looping = False
        assert 1 <= len(clipped_sizes[-1]) and max(clipped_sizes[-1]) < len(linear)
        assert assert_simplex_kkt(gram, linear, beta)
        return beta

    def spy_fit(design, response, ridge, cross):
        stacks.append((design, response, ridge, fit(design, response, ridge, cross)))
        return stacks[-1][-1]

    looping = False
    monkeypatch.setattr(recovery, "_sum_constrained", spy_solve)
    monkeypatch.setattr(recovery, "_active_set", spy_loop)
    monkeypatch.setattr(recovery, "_simplex_least_squares", spy_fit)
    interior = clipped = 0
    for seed in (4, 16, 32):
        params, runs = noisy_erdos_renyi(seed)
        starts.clear()
        clipped_sizes.clear()
        stacks.clear()
        recover_runs(params, runs)
        degrees = [len(params.network.in_neighbors(i)) for i in range(params.n)]
        assert sorted(starts) == sorted(d + 1 for d in degrees)
        assert sum(len(design) for design, *_ in stacks) == params.n
        for design, response, ridge, beta in stacks:
            for k in range(len(design)):
                assert_simplex_kkt(*normal_equations(design[k], response[k], ridge), beta[k])
        clipped += len(clipped_sizes)
        interior += params.n - len(clipped_sizes)
    assert (interior, clipped) == (21, 3)


def test_start_with_a_negative_entry_its_projection_keeps_goes_to_the_loop(monkeypatch):
    # A sum-constrained start can hold a negative entry of rounding size
    # that its projection does not clip, when the entries sum to less than
    # 1 by more.  It is no simplex point, so its row goes on to the
    # active-set loop like a clipped one and ends nonnegative.
    start = np.array([[0.6, 0.4 - 1e-16, -1e-17]])
    assert (project_to_simplex(start) > 0.0).all()
    solve = recovery._sum_constrained
    monkeypatch.setattr(
        recovery,
        "_sum_constrained",
        lambda gram, linear: start if linear.shape == start.shape else solve(gram, linear),
    )
    # Rows fitted exactly by (0.6, 0.4, 0): the start above is theirs up to
    # rounding.
    design = np.random.default_rng(8).uniform(0.0, 1.0, (1, 20, 3))
    beta = fit_stack(design, design @ np.array([0.6, 0.4, 0.0]), 0.0)[0]
    assert beta[2] == 0.0 and beta.min() >= 0.0
    assert np.max(np.abs(beta - [0.6, 0.4, 0.0])) <= 1e-12


def reference_row(design, response, ridge):
    """One agent's fit on its own design, read back as recover states it.

    The per-row reference for ``recover``, which fits each in-degree's
    agents as one stack: the Gram and linear term of the one design, its
    start from the same KKT solve, the active-set loop from the start's
    projection (a start the simplex holds is returned as it is), the RMS
    residuals, the canonical theta = 1 fallback and the rank flag.
    Returns (beta, theta, weight row, residual, flag).
    """
    m = design.shape[1]
    gram, linear = normal_equations(design, response, ridge)
    start = recovery._sum_constrained(gram[None], linear[None])[0]
    beta = recovery._active_set(gram, linear, start, project_to_simplex(start))
    stubborn = float(beta[0])
    fit_rms = float(np.sqrt(np.mean((design @ beta - response) ** 2)))
    pure_rms = float(np.sqrt(np.mean((design[:, 0] - response) ** 2)))
    degenerate = stubborn > recovery.STUBBORN_CEILING or pure_rms <= fit_rms + 1e-12
    if degenerate:
        stubborn, fit_rms, row = 1.0, pure_rms, np.full(m - 1, 1.0 / (m - 1))
    else:
        row = beta[1:] / (1.0 - stubborn)
        row /= row.sum()
    rank_deficient = bool(np.linalg.matrix_rank(design) < m)
    return beta, min(max(stubborn, THETA_MIN), 1.0), row, fit_rms, (degenerate, rank_deficient)


def assert_recover_matches_rows(params, runs, ridge):
    """recover on ``runs`` equals reference_row on agent_rows, bit for bit.

    Rounding depends on each design's memory order, so equal values alone
    would not do.  Returns each row's reference (beta, flag causes).
    """
    result = recover_runs(params, runs, ridge)
    rows = []
    for i, (design, response) in enumerate(agent_rows(params, runs)):
        beta, theta, row, residual, causes = reference_row(design, response, ridge)
        expected = np.zeros(params.n)
        expected[list(params.network.in_neighbors(i))] = row
        assert result.params.stubbornness[i] == theta
        assert np.array_equal(result.params.influence[i], expected)
        assert result.per_agent_residual[i] == residual
        assert result.identifiability_flags[i] == any(causes)
        rows.append((beta, causes))
    return rows


def test_recover_matches_per_trajectory_rows_bitwise():
    # Four topologies, clean and 1e-2-noisy runs of 30, 1, 12 and 5 rounds,
    # ridge 0 and 1e-3.  Erdos-Renyi and star networks mix in-degree 1
    # (C-ordered designs) with in-degree >= 2 (F-ordered ones); ring and
    # complete networks are one stack of one in-degree.
    active = 0
    for topology, seed in itertools.product(("erdos_renyi", "complete", "ring", "star"), range(2)):
        n = 6 + seed
        _, params = generate(Scenario(topology=topology, n=n, edge_prob=0.4, seed=seed))
        degrees = {len(params.network.in_neighbors(i)) for i in range(n)}
        assert (len(degrees) == 1) == (topology in ("complete", "ring"))
        assert (1 in degrees and len(degrees) > 1) == (topology in ("erdos_renyi", "star"))
        rng = np.random.default_rng([seed, n])
        clean = [simulate(params, rng.uniform(0.0, 1.0, n), rounds).values for rounds in (30, 1, 12, 5)]
        for noise in (0.0, 1e-2):
            runs = [np.clip(v + rng.uniform(-noise, noise, v.shape), 0.0, 1.0) for v in clean]
            for ridge in (0.0, 1e-3):
                rows = assert_recover_matches_rows(params, runs, ridge)
                active += sum(bool((beta == 0.0).any()) for beta, _ in rows)
    assert active > 0


def test_recover_matches_rows_bitwise_past_in_degree_eight():
    # From in-degree 8 on, numpy sums a row pairwise, eight running sums at
    # a time, so a row sum's grouping depends on how the row is laid out.
    # Agent i of 24 listens to the 1 + i % 12 agents after it: in-degrees 1
    # to 12, two agents each.  Five 30-round runs make every stack tall.
    n = 24
    edges = [((i + k) % n, i) for i in range(n) for k in range(1, 2 + i % 12)]
    network = InfluenceNetwork(n, edges)
    rng = np.random.default_rng(24)
    params = random_params(rng, network, theta_range=(0.2, 0.8))
    assert sorted({len(network.in_neighbors(i)) for i in range(n)}) == list(range(1, 13))
    clean = [simulate(params, rng.uniform(0.0, 1.0, n), 30).values for _ in range(5)]
    for noise in (0.0, 1e-2):
        runs = [np.clip(v + rng.uniform(-noise, noise, v.shape), 0.0, 1.0) for v in clean]
        for ridge in (0.0, 1e-3):
            assert_recover_matches_rows(params, runs, ridge)


def test_recover_splits_large_stacks_with_the_same_bits(monkeypatch):
    # A stack holds at most STACK_ENTRIES design entries.  Split stacks,
    # down to one agent each, fit every row with the bits of one stack.
    _, params = generate(Scenario(topology="complete", n=7, seed=3))
    rng = np.random.default_rng(3)
    runs = []
    for _ in range(2):
        values = simulate(params, rng.uniform(0.0, 1.0, 7), 10).values
        runs.append(np.clip(values + rng.uniform(-1e-2, 1e-2, values.shape), 0.0, 1.0))
    fit = recovery._simplex_least_squares
    stacks = []
    monkeypatch.setattr(recovery, "_simplex_least_squares", lambda *args: stacks.append(len(args[0])) or fit(*args))
    whole = recover_runs(params, runs)
    assert stacks == [7]
    for entries, sizes in ((2 * 7 * 20, [2, 2, 2, 1]), (1, [1] * 7)):
        stacks.clear()
        monkeypatch.setattr(recovery, "STACK_ENTRIES", entries)
        split = recover_runs(params, runs)
        assert stacks == sizes
        assert np.array_equal(split.params.stubbornness, whole.params.stubbornness)
        assert np.array_equal(split.params.influence, whole.params.influence)
        assert np.array_equal(split.per_agent_residual, whole.per_agent_residual)
        assert split.identifiability_flags == whole.identifiability_flags


def test_recover_layout_matches_lone_fits_bitwise(monkeypatch):
    # recover lays the agents out by in-degree, in index order within one,
    # and fits each in-degree's run of agents as stacks of that run.  Here
    # the in-degrees jump about with the agent index; agent 5, pinned in
    # every run, sits inside the in-degree-3 group; agent 9 alone has
    # in-degree 5; agents 2 and 12 have in-degree 9, past numpy's pairwise
    # summation threshold; and STACK_ENTRIES is cut so that the in-degree-3
    # group splits after its second agent and the in-degree-9 one after its
    # first.  Every free row must have the bits of its own lone fit, and the
    # pinned row those of the fallback.
    degrees = [3, 1, 9, 3, 2, 3, 1, 3, 2, 5, 3, 1, 9, 3]
    n, pinned = len(degrees), 5
    network = InfluenceNetwork(n, [((i + k) % n, i) for i in range(n) for k in range(1, 1 + degrees[i])])
    rng = np.random.default_rng(14)
    params = random_params(rng, network, theta_range=(0.2, 0.8))
    clean = [simulate(params, rng.uniform(0.0, 1.0, n), 30, pinned=(pinned,)).values for _ in range(5)]
    runs = [np.clip(v + rng.uniform(-1e-2, 1e-2, v.shape), 0.0, 1.0) for v in clean]
    runs = [np.where(np.arange(n) == pinned, v, noisy) for v, noisy in zip(clean, runs)]
    fit = recovery._simplex_least_squares
    stacks = []
    monkeypatch.setattr(recovery, "_simplex_least_squares", lambda *args: stacks.append(len(args[0])) or fit(*args))
    monkeypatch.setattr(recovery, "STACK_ENTRIES", 2 * 4 * 150)
    result = recover(
        RecoveryProblem(
            network,
            tuple(OpinionTrajectory(rounds=30, values=v, pinned=(pinned,)) for v in runs),
            intrinsic=params.intrinsic,
        )
    )
    # In-degree 1: agents 1, 6, 11; 2: 4, 8; 3: 0, 3 | 7, 10 | 13; 5: 9;
    # 9: 2 | 12.
    assert stacks == [3, 2, 2, 2, 1, 1, 1, 1]
    after = np.vstack([v[1:] for v in runs])
    for i, (design, response) in enumerate(agent_rows(params, runs)):
        support = list(network.in_neighbors(i))
        expected = np.zeros(n)
        if i == pinned:
            expected[support] = 1.0 / len(support)
            theta, residual, flagged = 1.0, np.sqrt(((params.intrinsic[i] - after[:, i]) ** 2).sum() / 150), True
        else:
            _, theta, row, residual, causes = reference_row(design, response, 0.0)
            expected[support] = row
            flagged = any(causes)
        assert result.params.stubbornness[i] == theta
        assert np.array_equal(result.params.influence[i], expected)
        assert result.per_agent_residual[i] == residual
        assert result.identifiability_flags[i] == flagged
    assert result.identifiability_flags[pinned] and not any(np.delete(result.identifiability_flags, pinned))


def test_recover_matches_rows_bitwise_on_every_flag_branch():
    # One stack holds fitted, fully stubborn and rank-deficient rows side
    # by side: on a two-way ring every agent has in-degree 2, agents 0, 3
    # and 4 ignore their neighbours, and 4 and 0 start at their intrinsic
    # opinions, so agent 5's neighbours hold still.  A constant run then
    # makes every design rank 1.
    rng = np.random.default_rng(6)
    n = 6
    network = InfluenceNetwork(n, [(i, (i + 1) % n) for i in range(n)] + [((i + 1) % n, i) for i in range(n)])
    base = random_params(rng, network, theta_range=(0.2, 0.8))
    theta = np.array(base.stubbornness)
    theta[[0, 3, 4]] = 1.0
    params = FjParameters(network=network, intrinsic=base.intrinsic, stubbornness=theta, influence=base.influence)
    runs = []
    for _ in range(3):
        start = rng.uniform(0.0, 1.0, n)
        start[[4, 0]] = params.intrinsic[[4, 0]]
        runs.append(simulate(params, start, 12).values)
    seen = set()
    for ridge in (0.0, 1e-3):
        for _, (degenerate, rank_deficient) in assert_recover_matches_rows(params, runs, ridge):
            seen.add((degenerate, rank_deficient))
        constant = [np.tile(rng.uniform(0.0, 1.0, n), (7, 1))]
        for _, causes in assert_recover_matches_rows(params, constant, ridge):
            assert causes[1]
            seen.add(causes)
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def spy_certificates(monkeypatch):
    """Record what the full computations behind recover's certificates see.

    Returns a dict with the rows ``recover`` hands ``project_to_simplex``,
    the starts it hands ``_active_set`` and the designs it hands
    ``np.linalg.matrix_rank``.  ``reference_row`` projects with the test
    module's own ``project_to_simplex`` and ranks one 2-D design, so only
    its ``_active_set`` calls show up here.
    """
    project, loop, rank = recovery.project_to_simplex, recovery._active_set, np.linalg.matrix_rank
    seen = {"projected": [], "looped": [], "ranked": []}

    def spy_project(point):
        seen["projected"].extend(np.atleast_2d(point))
        return project(point)

    def spy_loop(gram, linear, start, beta):
        seen["looped"].append(start)
        return loop(gram, linear, start, beta)

    def spy_rank(design, *args, **kwargs):
        if np.ndim(design) == 3:
            seen["ranked"].extend(design)
        return rank(design, *args, **kwargs)

    monkeypatch.setattr(recovery, "project_to_simplex", spy_project)
    monkeypatch.setattr(recovery, "_active_set", spy_loop)
    monkeypatch.setattr(np.linalg, "matrix_rank", spy_rank)
    return seen


def gram_ratio(design):
    """The least over the largest eigenvalue of XᵀX, as the rank certificate reads it."""
    eigenvalues = np.linalg.eigvalsh(design.T @ design)
    return eigenvalues[0] / eigenvalues[-1]


def test_recover_matches_rows_bitwise_on_both_sides_of_each_certificate(monkeypatch):
    # recover projects only the starts its interior certificate leaves open
    # and runs matrix_rank only on the designs its Gram certificate leaves
    # open; reference_row projects every start and ranks every design.
    # Seeded designs on both sides of each certificate, ridge 0 and 1e-3,
    # must get reference_row's bits.
    seen = spy_certificates(monkeypatch)
    rng = np.random.default_rng(34)
    ratios = []
    # Complete n = 6, five 30-round runs: one tall stack of (150, 6)
    # designs.  Agent 2 copies agent 1 up to Gaussian noise, so every other
    # agent's design holds a near-duplicate column pair.  Its Gram ratio,
    # about 0.4 noise^2, crosses RANK_GAP between noise 1e-3 and 1e-4;
    # matrix_rank finds those four designs rank deficient at noise 1e-15
    # and 0, and of full rank at 1e-13.
    _, params = generate(Scenario(topology="complete", n=6, seed=34))
    for noise in (1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-13, 1e-15, 0.0):
        runs = [rng.uniform(0.05, 0.95, (31, 6)) for _ in range(5)]
        for run in runs:
            run[:, 2] = run[:, 1] + noise * rng.standard_normal(31)
        for ridge in (0.0, 1e-3):
            seen["ranked"].clear()
            rows = assert_recover_matches_rows(params, runs, ridge)
            designs = [design for design, _ in agent_rows(params, runs)]
            ratios += [gram_ratio(design) for design in designs]
            uncertified = [d for d in designs if not gram_ratio(d) > recovery.RANK_GAP]
            assert len(seen["ranked"]) == len(uncertified)
            assert all(np.array_equal(a, b) for a, b in zip(seen["ranked"], uncertified))
            assert sum(causes[1] for _, causes in rows) == (4 if noise <= 1e-15 else 0)
    assert min(ratios) < recovery.RANK_GAP < max(ratios)
    # Fewer rows than columns: one 5-round run on complete n = 8 is rank
    # deficient outright, and two 10-round runs on complete n = 6 are not
    # tall (20 < 8 * 6 rows), so matrix_rank sees every design.
    for n, rounds in ((8, (5,)), (6, (10, 10))):
        _, params = generate(Scenario(topology="complete", n=n, seed=n))
        runs = [simulate(params, rng.uniform(0.0, 1.0, n), r).values for r in rounds]
        seen["ranked"].clear()
        rows = assert_recover_matches_rows(params, runs, 0.0)
        assert len(seen["ranked"]) == (0 if sum(rounds) < n else n)
        assert all(causes[1] for _, causes in rows) == (sum(rounds) < n)
    # A zero s column: agents 0 and 3 have s_i = 0, so their designs are
    # rank deficient, and the Gram certificate must leave them open.
    _, base = generate(Scenario(topology="erdos_renyi", n=8, edge_prob=0.4, seed=34))
    intrinsic = np.array(base.intrinsic)
    intrinsic[[0, 3]] = 0.0
    params = FjParameters(base.network, intrinsic, base.stubbornness, base.influence)
    runs = [simulate(params, rng.uniform(0.0, 1.0, 8), 30).values for _ in range(5)]
    seen["ranked"].clear()
    rows = assert_recover_matches_rows(params, runs, 0.0)
    assert [causes[1] for _, causes in rows] == [i in (0, 3) for i in range(8)]
    assert len(seen["ranked"]) == 2


@pytest.mark.parametrize("side", (1, -1), ids=("above", "below"))
def test_start_one_ulp_from_the_interior_margin_keeps_its_bits(monkeypatch, side):
    # A start whose least entry exceeds |sum - 1| + 8 m eps is a simplex
    # point its projection keeps whole, so recover does not project it.
    # Agent 0 alone has in-degree 2, so its stack is one (150, 3) design,
    # and its start is forced, as in the negative-entry test above, to
    # (a, 0.4, t): a sums it to exactly 1, so the margin is 24 eps, and t
    # lies 1 ulp above or below it.  Both sides keep reference_row's bits;
    # only the one below is projected.
    t = np.nextafter(24 * recovery._EPS, side * np.inf)
    start = np.array([[1.0 - 0.4 - t, 0.4, t]])
    margin = np.abs(start.sum(axis=1) - 1.0) + 8 * 3 * recovery._EPS
    assert margin[0] == 24 * recovery._EPS and start.min() == np.nextafter(margin[0], side * np.inf)
    solve = recovery._sum_constrained
    monkeypatch.setattr(
        recovery,
        "_sum_constrained",
        lambda gram, linear: start if linear.shape == start.shape else solve(gram, linear),
    )
    seen = spy_certificates(monkeypatch)
    edges = [(1, 0), (2, 0), (0, 1), (0, 2)] + [(j, i) for i in (3, 4) for j in (0, 1, 2)]
    network = InfluenceNetwork(5, edges)
    rng = np.random.default_rng(8)
    params = random_params(rng, network, theta_range=(0.2, 0.8))
    runs = [simulate(params, rng.uniform(0.0, 1.0, 5), 30).values for _ in range(5)]
    (beta, _), *_ = assert_recover_matches_rows(params, runs, 0.0)
    assert np.array_equal(beta, start[0])
    assert any(np.array_equal(row, start[0]) for row in seen["projected"]) == (side < 0)


def test_projection_and_rank_svd_see_only_what_the_certificates_leave_open(monkeypatch):
    # On fit_noisy-style instances (Erdos-Renyi n = 8, five 30-round runs,
    # 1e-2 noise) project_to_simplex sees exactly the starts that go on to
    # the active-set loop, and matrix_rank exactly the designs whose Gram
    # ratio does not clear RANK_GAP.  Seed 6 holds one such design: agent
    # 4's s_i is 1.2e-4, so its s column nearly vanishes, yet it has full
    # rank.
    seen = spy_certificates(monkeypatch)
    looped = ranked = 0
    for seed in (4, 6, 16, 32):
        params, runs = noisy_erdos_renyi(seed)
        for key in seen:
            seen[key].clear()
        result = recover_runs(params, runs)
        assert len(seen["projected"]) == len(seen["looped"])
        assert all(np.array_equal(a, b) for a, b in zip(seen["projected"], seen["looped"]))
        designs = [design for design, _ in agent_rows(params, runs)]
        uncertified = [d for d in designs if not gram_ratio(d) > recovery.RANK_GAP]
        assert len(seen["ranked"]) == len(uncertified)
        assert all(np.array_equal(a, b) for a, b in zip(seen["ranked"], uncertified))
        assert not any(result.identifiability_flags)
        looped += len(seen["looped"])
        ranked += len(seen["ranked"])
    assert (looped, ranked) == (3, 1)


def test_agents_pinned_in_any_trajectory_get_the_fallback_row():
    # Agents 2 and 5 are held at 1 in every run, so their updates follow
    # no FJ row.  They are not fitted: each gets theta = 1, a uniform row,
    # the residual of s_i and a flag.  Fitted as FJ agents, 5 came back
    # unflagged with theta at its floor and weight on 2 of its 4
    # in-neighbours.  The other agents keep the bits of the same runs
    # recovered with nobody pinned.
    _, params = generate(Scenario(topology="erdos_renyi", n=8, edge_prob=0.4, seed=3))
    rng = np.random.default_rng(3)
    pinned_runs = tuple(simulate(params, rng.uniform(0.0, 1.0, 8), 30, pinned=(2, 5)) for _ in range(5))
    result = recover(RecoveryProblem(params.network, pinned_runs, intrinsic=params.intrinsic))
    free = recover_runs(params, [run.values for run in pinned_runs])
    after = np.vstack([run.values[1:] for run in pinned_runs])
    for i in range(8):
        if i in (2, 5):
            support = list(params.network.in_neighbors(i))
            expected = np.zeros(8)
            expected[support] = 1.0 / len(support)
            assert result.identifiability_flags[i]
            assert result.params.stubbornness[i] == 1.0
            assert np.array_equal(result.params.influence[i], expected)
            assert result.per_agent_residual[i] == np.sqrt(((params.intrinsic[i] - after[:, i]) ** 2).sum() / 150)
        else:
            assert result.identifiability_flags[i] == free.identifiability_flags[i]
            assert result.params.stubbornness[i] == free.params.stubbornness[i]
            assert np.array_equal(result.params.influence[i], free.params.influence[i])
            assert result.per_agent_residual[i] == free.per_agent_residual[i]
    assert not free.identifiability_flags[5] and free.params.stubbornness[5] == THETA_MIN
    # Pinned in one run only is pinned too.
    once = (pinned_runs[0],) + tuple(simulate(params, rng.uniform(0.0, 1.0, 8), 30) for _ in range(4))
    flags = recover(RecoveryProblem(params.network, once, intrinsic=params.intrinsic)).identifiability_flags
    assert flags[2] and flags[5]


@pytest.mark.parametrize("topology, n, agent", [("erdos_renyi", 8, -1), ("complete", 3, 7)], ids=["negative", "past_n"])
def test_recover_refuses_pins_outside_the_network(topology, n, agent):
    # recover indexes its arrays with the pins, where -1 would wrap onto
    # agent n - 1 and 7 would run past 3 agents.  Runs carrying such a pin
    # are refused as they are built, with simulate's message.
    _, params = generate(Scenario(topology=topology, n=n, edge_prob=0.4, seed=3))
    rng = np.random.default_rng(3)
    runs = [simulate(params, rng.uniform(0.0, 1.0, n), 30).values for _ in range(5)]
    with pytest.raises(ValidationError, match=f"^pinned agent {agent} out of range for {n} agents$"):
        recover(
            RecoveryProblem(
                params.network,
                tuple(OpinionTrajectory(rounds=30, values=values, pinned=(agent,)) for values in runs),
                intrinsic=params.intrinsic,
            )
        )


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
                        beta = fit_row(design, response, ridge)
                        active += assert_simplex_kkt(*normal_equations(design, response, ridge), beta)
            constant = [np.tile(rng.uniform(0.0, 1.0, n), (7, 1))]
            for ridge in (0.0, 1e-3):
                for design, response in agent_rows(params, constant):
                    assert np.linalg.matrix_rank(design) == 1
                    beta = fit_row(design, response, ridge)
                    assert_simplex_kkt(*normal_equations(design, response, ridge), beta)
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
