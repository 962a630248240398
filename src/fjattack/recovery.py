"""Recovering dynamics parameters from observed opinion trajectories.

One update of agent i is linear in the stacked coefficient vector
beta = (a_i, v_i.) with a_i = theta_i and v_ij = (1 - theta_i) w_ij:

    z_i(t+1) = a_i s_i + sum_j v_ij z_j(t)

and beta lies on the probability simplex (nonnegative, sums to one).
Taking s as the first observed opinion vector, each agent's parameters are
recovered independently by least squares over its in-neighbor support,
constrained to the simplex and solved by projected gradient descent with
step 1/L.  Stubbornness and weights are then read back as theta_i = a_i
and w_ij = v_ij / (1 - a_i); rows with a_i at 1 carry no information about
their weights and are flagged, with a uniform fallback row.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import THETA_MIN, FjParameters, closed_form_outcome
from .errors import ValidationError

# Projected-gradient stopping tolerance on the gradient-mapping norm.
PG_TOL = 1e-10
MAX_ITERATIONS = 10_000

# Above this value of a_i the weight scale 1 - a_i is considered degenerate.
STUBBORN_CEILING = 1.0 - 1e-9


@dataclass(frozen=True, eq=False)
class RecoveryProblem:
    """Observed trajectories on a known graph, ready for parameter fitting.

    ``intrinsic`` optionally supplies the s vector; by default s is read
    off row 0 of the first trajectory.  ``truth`` optionally carries the
    generating parameters so robustness sweeps can report errors.
    """

    network: object
    trajectories: tuple
    ridge: float = 0.0
    intrinsic: np.ndarray = None
    truth: FjParameters = None

    def __post_init__(self):
        trajectories = tuple(self.trajectories)
        if not trajectories:
            raise ValidationError("need at least one trajectory")
        n = self.network.agent_count
        for k, trajectory in enumerate(trajectories):
            if trajectory.n != n:
                raise ValidationError(
                    f"trajectory {k} has {trajectory.n} agents, network has {n}"
                )
        ridge = float(self.ridge)
        if not np.isfinite(ridge) or ridge < 0.0:
            raise ValidationError(f"ridge must be nonnegative, got {self.ridge!r}")
        intrinsic = self.intrinsic
        if intrinsic is not None:
            intrinsic = np.array(intrinsic, dtype=float)
            if intrinsic.shape != (n,):
                raise ValidationError(f"intrinsic must have shape ({n},)")
            if (intrinsic < 0).any() or (intrinsic > 1).any():
                raise ValidationError("intrinsic opinions must lie in [0, 1]")
            intrinsic.setflags(write=False)
        if self.truth is not None and self.truth.network != self.network:
            raise ValidationError("truth parameters live on a different network")
        object.__setattr__(self, "trajectories", trajectories)
        object.__setattr__(self, "ridge", ridge)
        object.__setattr__(self, "intrinsic", intrinsic)


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """Fitted parameters plus per-agent fit diagnostics.

    per_agent_residual is the root-mean-square one-step prediction error
    of the fitted row; identifiability_flags marks rows whose design
    matrix is rank deficient or whose fitted stubbornness sits at 1.
    """

    params: FjParameters
    per_agent_residual: np.ndarray
    identifiability_flags: tuple


@dataclass(frozen=True)
class RobustnessRow:
    """Mean recovery errors at one observation-noise level."""

    noise: float
    stubbornness_error: float
    influence_error: float
    g_error: float


def project_to_simplex(point):
    """Euclidean projection onto the probability simplex.

    Sort-based algorithm: find the largest k such that shifting the top-k
    entries by a common offset lands them on the simplex, then clip.
    """
    v = np.asarray(point, dtype=float)
    u = np.sort(v)[::-1]
    shifted = np.cumsum(u) - 1.0
    ranks = np.arange(1, v.size + 1)
    support = np.nonzero(u - shifted / ranks > 0.0)[0]
    rho = int(support[-1])
    tau = shifted[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def _sum_constrained_start(gram, linear):
    """Minimizer of the quadratic subject to the coefficients summing to 1.

    Drops the nonnegativity constraints and solves the KKT system of the
    remaining equality-constrained problem; a least-squares solve covers
    the rank-deficient case.  Projecting this point onto the simplex gives
    a far better starting iterate than the barycenter, because trajectory
    columns flatten toward their fixed point and leave the design badly
    conditioned.
    """
    m = gram.shape[0]
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = gram
    kkt[:m, m] = 1.0
    kkt[m, :m] = 1.0
    rhs = np.append(linear, 1.0)
    solution = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    return project_to_simplex(solution[:m])


def _simplex_least_squares(design, response, ridge):
    """Minimize 0.5 ||X b - y||^2 + 0.5 ridge ||b||^2 over the simplex.

    Projected gradient with fixed step 1/L, warm-started from the
    projected sum-constrained solution and accelerated with Nesterov
    momentum (restarted whenever the objective rises).  Iteration stops
    when the gradient-mapping norm drops below PG_TOL; the best iterate
    seen is returned, so the result never falls behind the warm start.
    """
    m = design.shape[1]
    gram = design.T @ design + ridge * np.eye(m)
    linear = design.T @ response
    lipschitz = max(float(np.linalg.eigvalsh(gram)[-1]), 1e-12)

    def objective_at(point):
        return 0.5 * point @ (gram @ point) - linear @ point

    beta = _sum_constrained_start(gram, linear)
    best = beta
    best_objective = objective_at(beta)
    momentum = beta
    weight = 1.0
    for _ in range(MAX_ITERATIONS):
        gradient = gram @ momentum - linear
        candidate = project_to_simplex(momentum - gradient / lipschitz)
        mapping_norm = lipschitz * float(np.linalg.norm(candidate - momentum))
        candidate_objective = objective_at(candidate)
        if candidate_objective <= best_objective:
            best, best_objective = candidate, candidate_objective
        if candidate_objective > objective_at(beta):
            momentum, weight = beta, 1.0
        else:
            next_weight = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * weight * weight))
            momentum = candidate + ((weight - 1.0) / next_weight) * (candidate - beta)
            beta, weight = candidate, next_weight
        if mapping_norm <= PG_TOL:
            break
    return best


def recover(problem):
    """Fit stubbornness and influence weights to the observed trajectories.

    Each agent is fitted independently on the simplex-constrained linear
    model described in the module docstring, stacking the update rows of
    every trajectory.  Stubbornness estimates are floored at the
    contraction threshold so the returned parameters always validate.
    """
    network = problem.network
    n = network.agent_count
    if problem.intrinsic is not None:
        intrinsic = np.array(problem.intrinsic)
    else:
        intrinsic = np.array(problem.trajectories[0].values[0])
    theta = np.empty(n)
    weights = np.zeros((n, n))
    residuals = np.empty(n)
    flags = []
    for i in range(n):
        support = list(network.in_neighbors(i))
        blocks = []
        responses = []
        for trajectory in problem.trajectories:
            values = trajectory.values
            rows = values.shape[0] - 1
            block = np.column_stack(
                [np.full(rows, intrinsic[i]), values[:-1][:, support]]
            )
            blocks.append(block)
            responses.append(values[1:, i])
        design = np.vstack(blocks)
        response = np.concatenate(responses)
        beta = _simplex_least_squares(design, response, problem.ridge)
        stubborn = float(beta[0])
        # A row that full stubbornness explains exactly as well has no
        # weight information; canonicalize those fits to theta = 1 so the
        # ambiguity is reported instead of an arbitrary optimum.
        pure = np.zeros(len(support) + 1)
        pure[0] = 1.0
        fit_rms = float(np.sqrt(np.mean((design @ beta - response) ** 2)))
        pure_rms = float(np.sqrt(np.mean((design @ pure - response) ** 2)))
        degenerate = stubborn > STUBBORN_CEILING or pure_rms <= fit_rms + 1e-12
        rank_deficient = np.linalg.matrix_rank(design) < len(support) + 1
        flags.append(bool(degenerate or rank_deficient))
        if degenerate:
            stubborn = 1.0
            fit_rms = pure_rms
            row = np.full(len(support), 1.0 / len(support))
        else:
            row = beta[1:] / (1.0 - stubborn)
            row /= row.sum()
        theta[i] = min(max(stubborn, THETA_MIN), 1.0)
        weights[i, support] = row
        residuals[i] = fit_rms
    params = FjParameters(
        network=network, intrinsic=intrinsic, stubbornness=theta, influence=weights
    )
    return RecoveryResult(
        params=params,
        per_agent_residual=residuals,
        identifiability_flags=tuple(flags),
    )


def recovery_robustness(problem, noise_levels, seeds=5):
    """Mean recovery error under i.i.d. uniform observation noise.

    Requires ``problem.truth``.  For each noise level, every trajectory
    entry is perturbed by Uniform(-level, level), clipped back to [0, 1],
    and refitted; errors against the generating parameters are averaged
    over ``seeds`` independent draws.  Returns one RobustnessRow per level
    with mean absolute stubbornness error, mean absolute weight error over
    the edge support, and the absolute error of the aggregate outcome g.
    """
    truth = problem.truth
    if truth is None:
        raise ValidationError("robustness sweep needs problem.truth")
    if seeds < 1:
        raise ValidationError(f"seeds must be positive, got {seeds!r}")
    mask = problem.network.support_mask()
    true_g = closed_form_outcome(truth).g
    rows = []
    for level_index, level in enumerate(noise_levels):
        level = float(level)
        if level < 0.0:
            raise ValidationError(f"noise level must be nonnegative, got {level!r}")
        theta_errors, weight_errors, g_errors = [], [], []
        for seed in range(seeds):
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(level_index,))
            )
            noisy = []
            for trajectory in problem.trajectories:
                values = trajectory.values + rng.uniform(
                    -level, level, trajectory.values.shape
                )
                noisy.append(
                    type(trajectory)(
                        rounds=trajectory.rounds,
                        values=np.clip(values, 0.0, 1.0),
                        pinned=trajectory.pinned,
                    )
                )
            result = recover(
                RecoveryProblem(
                    network=problem.network,
                    trajectories=tuple(noisy),
                    ridge=problem.ridge,
                    intrinsic=problem.intrinsic,
                )
            )
            fitted = result.params
            theta_errors.append(
                float(np.mean(np.abs(fitted.stubbornness - truth.stubbornness)))
            )
            weight_errors.append(
                float(np.mean(np.abs(fitted.influence[mask] - truth.influence[mask])))
            )
            g_errors.append(abs(closed_form_outcome(fitted).g - true_g))
        rows.append(
            RobustnessRow(
                noise=level,
                stubbornness_error=float(np.mean(theta_errors)),
                influence_error=float(np.mean(weight_errors)),
                g_error=float(np.mean(g_errors)),
            )
        )
    return rows
