"""Recovering dynamics parameters from observed opinion trajectories.

One update of agent i is linear in the stacked coefficient vector
beta = (a_i, v_i.) with a_i = theta_i and v_ij = (1 - theta_i) w_ij:

    z_i(t+1) = a_i s_i + sum_j v_ij z_j(t)

and beta lies on the probability simplex (nonnegative, sums to one).
Taking s as the first observed opinion vector, each agent's parameters are
recovered independently by least squares over its in-neighbor support,
constrained to the simplex and solved exactly by a primal active-set
method.  Stubbornness and weights are then read back as theta_i = a_i
and w_ij = v_ij / (1 - a_i); rows with a_i at 1 carry no information about
their weights and are flagged, with a uniform fallback row.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import THETA_MIN, FjParameters, _as_float, _check_count, _check_unit_vector
from .dynamics import closed_form_outcome
from .errors import ConvergenceError, ValidationError

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
        ridge = _as_float(self.ridge, "ridge")
        if not np.isfinite(ridge) or ridge < 0.0:
            raise ValidationError(f"ridge must be nonnegative, got {self.ridge!r}")
        intrinsic = self.intrinsic
        if intrinsic is not None:
            intrinsic = _check_unit_vector(np.array(intrinsic, dtype=float), n, "intrinsic")
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


def _sum_constrained(gram, linear):
    """Minimizer of the quadratic subject to the coefficients summing to 1.

    Drops the nonnegativity constraints and solves the KKT system of the
    remaining equality-constrained problem; a least-squares solve covers
    the rank-deficient case, where trajectory columns flatten toward their
    fixed point.
    """
    m = gram.shape[0]
    kkt = np.ones((m + 1, m + 1))
    kkt[:m, :m] = gram
    kkt[m, m] = 0.0
    return np.linalg.lstsq(kkt, np.append(linear, 1.0), rcond=None)[0][:m]


def _simplex_least_squares(design, response, ridge):
    """Minimize 0.5 ||X b - y||^2 + 0.5 ridge ||b||^2 over the simplex.

    Primal active-set method (Lawson & Hanson), started from the projected
    sum-constrained solution.  Each step solves the sum-constrained
    problem on the free coordinates; while all are free that is the
    start's solution, reused, so a fit that clips nothing solves once.  If
    it has a negative entry, the iterate moves toward it until the first
    free coordinate reaches zero, which is then fixed.  Otherwise the
    iterate takes the solution and frees the fixed coordinate whose
    gradient falls furthest below the free ones, by more than a rounding
    slack; when none does, the KKT conditions hold.  Each step fixes or
    frees one coordinate; past 3m steps the solve raises ConvergenceError.
    """
    m = design.shape[1]
    gram = design.T @ design + ridge * np.eye(m)
    linear = design.T @ response
    slack = 64.0 * m * np.finfo(float).eps * max(np.abs(gram).max(), np.abs(linear).max())
    start = _sum_constrained(gram, linear)
    beta = project_to_simplex(start)
    free = beta > 0.0
    for _ in range(3 * m):
        target = start
        if not free.all():
            target = np.zeros(m)
            target[free] = _sum_constrained(gram[np.ix_(free, free)], linear[free])
        blocking = np.flatnonzero(free & (target < 0.0))
        if blocking.size:
            ratios = beta[blocking] / (beta[blocking] - target[blocking])
            first = np.argmin(ratios)
            beta = np.maximum(beta + ratios[first] * (target - beta), 0.0)
            beta[blocking[first]] = 0.0
            free[blocking[first]] = False
            continue
        beta = target
        gradient = gram @ beta - linear
        fixed_gradient = np.where(free, np.inf, gradient)
        release = int(np.argmin(fixed_gradient))
        if not fixed_gradient[release] < gradient[free].min() - slack:
            return beta
        free[release] = True
    raise ConvergenceError(f"simplex least squares did not settle in {3 * m} active-set steps")


def recover(problem):
    """Fit stubbornness and influence weights to the observed trajectories.

    Each agent is fitted independently on the simplex-constrained linear
    model described in the module docstring.  Every trajectory's update
    rows are stacked once, z(t) in ``before`` and z(t + 1) in ``after``;
    agent i's design is s_i beside its in-neighbours' columns of
    ``before``, and its response is column i of ``after``.  Stubbornness
    estimates are floored at the contraction threshold so the returned
    parameters always validate.
    """
    network = problem.network
    n = network.agent_count
    if problem.intrinsic is not None:
        intrinsic = np.array(problem.intrinsic)
    else:
        intrinsic = np.array(problem.trajectories[0].values[0])
    before = np.vstack([trajectory.values[:-1] for trajectory in problem.trajectories])
    after = np.vstack([trajectory.values[1:] for trajectory in problem.trajectories])
    theta = np.empty(n)
    weights = np.zeros((n, n))
    residuals = np.empty(n)
    flags = []
    # Agent i's in-neighbours are its row of W's support, in source order.
    sources, bounds = network._support[1], network._row_pointer.tolist()
    for i in range(n):
        support = sources[bounds[i] : bounds[i + 1]]
        design = np.column_stack([np.full(len(before), intrinsic[i]), before[:, support]])
        response = np.ascontiguousarray(after[:, i])
        beta = _simplex_least_squares(design, response, problem.ridge)
        stubborn = float(beta[0])
        # Full stubbornness predicts s_i, the design's column 0.  A row it
        # explains exactly as well has no weight information; canonicalize
        # those fits to theta = 1 so the ambiguity is reported instead of an
        # arbitrary optimum.
        fit_rms = float(np.sqrt(np.mean((design @ beta - response) ** 2)))
        pure_rms = float(np.sqrt(np.mean((design[:, 0] - response) ** 2)))
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
    return RecoveryResult(
        params=FjParameters(network, intrinsic, theta, weights),
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
    _check_count(seeds, "seeds")
    mask = problem.network.support_mask()
    true_g = closed_form_outcome(truth).g
    rows = []
    for level_index, level in enumerate(noise_levels):
        level = _as_float(level, "noise level")
        if not np.isfinite(level) or level < 0.0:
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
