"""Recovering dynamics parameters from observed opinion trajectories.

One update of agent i is linear in the stacked coefficient vector
beta = (a_i, v_i.) with a_i = theta_i and v_ij = (1 - theta_i) w_ij:

    z_i(t+1) = a_i s_i + sum_j v_ij z_j(t)

and beta lies on the probability simplex (nonnegative, sums to one).
Taking s as the first observed opinion vector, each agent's parameters are
recovered independently by least squares over its in-neighbor support,
constrained to the simplex and solved exactly by a primal active-set
method (Lawson & Hanson).  Stubbornness and weights are then read back as
theta_i = a_i and w_ij = v_ij / (1 - a_i); rows with a_i at 1 carry no
information about their weights and are flagged, with a uniform fallback
row.

The fits are independent but not made one at a time: the agents of equal
in-degree d are fitted as one stack of (R, d + 1) designs (several stacks
past ``STACK_ENTRIES`` entries).  A stack has one XᵀX product, shared by
the fits and the rank flags, and one KKT solve per agent.  Two cheap
certificates then settle most rows without the full computation, and
the rows they cannot settle get that computation (proofs at
``_simplex_least_squares`` and ``_rank_deficient``):

- a start whose least entry exceeds |sum - 1| + 8 (d + 1) eps is a
  simplex point its projection keeps whole, so it is the row's minimizer;
  only the other starts are projected onto the simplex, and only those
  the simplex does not hold go on to the active-set loop;
- a design with fewer rows than columns is rank deficient outright; in a
  tall stack, R >= 8 (d + 1), a design whose XᵀX has its least eigenvalue
  above 1e-8 times its largest is of full rank; only the other designs go
  to ``np.linalg.matrix_rank``.

On perfbench fit_noisy's pool (seed 1, 3,200 rows) 36 starts needed the
projection and 4 designs the SVD.  Dense stacks, R < 8 (d + 1), keep the
SVD of every design.  Each row gets the bits it would get on its own,
because every design keeps the memory order ``np.column_stack`` gives a
lone agent's design: F-ordered at in-degree d >= 2, C-ordered at d = 1.

A fit lays its agents out once, sorted by in-degree, so that each stack
is a contiguous run of agents, of edges and of design-column slots: a
stack's designs are one gather of its run of slots, and its results are
slice writes.  A stack keeps only the calls that need its designs: the
gather, XᵀX, the fits, the fitted products and the rank flags.  What is
done per agent after the fit runs once per fit, over all agents or over
the edge list: the residuals, the degenerate test, the weight rows and
their uniform fallback, the stubbornness floor and the flags.  The result
is built from those edge weights, with no dense pass over W (``recover``).
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .dynamics import THETA_MIN, FjParameters, closed_form_outcome
from .errors import ConvergenceError, ValidationError, _check_count, _check_nonnegative, _check_unit_vector

# Above this value of a_i the weight scale 1 - a_i is considered degenerate.
STUBBORN_CEILING = 1.0 - 1e-9

# A stack's designs, and its KKT systems, hold at most this many entries
# each (512 KB); more agents of one in-degree are split over several
# stacks.  Each row is fitted as it would be alone, so the split changes no
# bit, and a dense network's fit, all one in-degree, stays small.
STACK_ENTRIES = 1 << 16

# A tall design's rank is certified full, with no SVD, when the least
# eigenvalue of its XᵀX exceeds this share of the largest (``_rank_deficient``).
RANK_GAP = 1e-8

_EPS = float(np.finfo(float).eps)
_gelsd, _gelsd_lwork = get_lapack_funcs(("gelsd", "gelsd_lwork"), dtype=np.float64)


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
        ridge = _check_nonnegative(self.ridge, "ridge")
        intrinsic = self.intrinsic
        if intrinsic is not None:
            intrinsic = _check_unit_vector(intrinsic, n, "intrinsic")
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
    matrix is rank deficient, whose fitted stubbornness sits at 1, or
    whose agent is pinned in some trajectory.
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
    """Euclidean projection onto the probability simplex, of a vector or of
    each row (last axis) of a stack.

    Sort-based algorithm: find the largest k such that shifting the top-k
    entries by a common offset lands them on the simplex, then clip.  Each
    row is projected by the same operations, in the same order, as a lone
    vector, so a row's projection does not depend on its stack.
    """
    v = np.asarray(point, dtype=float)
    rows = v.reshape(-1, v.shape[-1])
    u = np.sort(rows, axis=1)[:, ::-1]
    shifted = np.cumsum(u, axis=1) - 1.0
    support = u - shifted / np.arange(1, u.shape[1] + 1) > 0.0
    # The last rank on the support: the first True counted from the end.
    rho = u.shape[1] - 1 - np.argmax(support[:, ::-1], axis=1)
    tau = shifted[np.arange(len(u)), rho] / (rho + 1.0)
    return np.maximum(rows - tau[:, None], 0.0).reshape(v.shape)


def _sum_constrained(gram, linear):
    """Minimizers of the quadratics subject to the coefficients summing to 1.

    ``gram`` is a (g, m, m) stack and ``linear`` a (g, m) one.  Drops the
    nonnegativity constraints and solves each KKT system of the remaining
    equality-constrained problem by LAPACK gelsd, the SVD least-squares
    solve that ``np.linalg.lstsq`` runs, with lstsq's default rcond,
    eps (m + 1).  Called directly it takes about half of lstsq's time per
    system; on an x86-64 host (numpy 2.4, scipy 1.17) it returned lstsq's
    bits.  The least-squares solve covers the rank-deficient case, where
    trajectory columns flatten toward their fixed point.
    """
    g, m = linear.shape
    # kkt[k] holds system k transposed, so kkt[k].T is the system in the
    # Fortran order gelsd works in, and gelsd may overwrite it, and rhs[k],
    # instead of copying them.
    kkt = np.zeros((g, m + 1, m + 1))
    kkt[:, :m, :m] = gram.transpose(0, 2, 1)
    kkt[:, m, :m] = kkt[:, :m, m] = 1.0
    rhs = np.ones((g, m + 1))
    rhs[:, :m] = linear
    rcond = _EPS * (m + 1)
    work, iwork = _gelsd_workspace(m + 1)
    solution = np.empty((g, m))
    for k in range(g):
        x, _, _, info = _gelsd(kkt[k].T, rhs[k], work, iwork, rcond, 1, 1)
        if info != 0:
            raise ConvergenceError(f"KKT least-squares solve did not converge (info={info})")
        solution[k] = x[:m]
    return solution


@functools.lru_cache(maxsize=64)
def _gelsd_workspace(size):
    """gelsd's workspace sizes (work, iwork) for one size x size system,
    queried once per size: a fit solves systems of a few sizes, its
    in-degrees plus one and the active-set loop's smaller ones."""
    work, iwork, _ = _gelsd_lwork(size, size, 1, cond=_EPS * size)
    return int(work), iwork


def _active_set(gram, linear, start, beta):
    """The simplex minimizer of one quadratic, from its projected start.

    Primal active-set method (Lawson & Hanson).  ``start`` is the
    sum-constrained solution and ``beta`` its projection onto the simplex.
    Each step solves the sum-constrained problem on the free coordinates;
    while all are free that is ``start``.  If it has a negative entry, the
    iterate moves toward it until the first free coordinate reaches zero,
    which is then fixed.  Otherwise the iterate takes the solution and
    frees the fixed coordinate whose gradient falls furthest below the free
    ones, by more than a rounding slack; when none does, the KKT conditions
    hold.  Each step fixes or frees one coordinate; past 3m steps the solve
    raises ConvergenceError.
    """
    m = len(linear)
    slack = 64.0 * m * _EPS * max(np.abs(gram).max(), np.abs(linear).max())
    free = beta > 0.0
    for _ in range(3 * m):
        target = start
        if not free.all():
            target = np.zeros(m)
            target[free] = _sum_constrained(gram[np.ix_(free, free)][None], linear[free][None])[0]
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


def _simplex_least_squares(design, response, ridge, cross):
    """Minimize 0.5 ||X b - y||^2 + 0.5 ridge ||b||^2 over the simplex, for
    each design X of a (g, R, m) stack and its response y of a (g, R) one.

    ``cross`` is the stack's XᵀX, which the rank flags share; the Gram
    matrices are cross + ridge I.  The sum-constrained starts come from
    one KKT solve each.  A start the simplex already holds, no coordinate
    clipped by its projection and none negative, is that row's minimizer:
    it solves one KKT system.  Every other row goes on to ``_active_set``
    from the stack's Gram, linear term, start and its projection.

    Only the starts that an interior certificate cannot settle are
    projected.  Let x be a start, with sum S over its m >= 2 entries (m is
    at least 2, since every agent has an in-neighbour), S' the sum as
    computed, u = eps / 2 the unit roundoff and c = (m - 1) u / (1 -
    (m - 1) u).  If

        min x > |S' - 1| + 8 m eps,

    every entry is positive, so each computed sum of x, S' and the
    projection's running sum C alike, lies within c S of S (Higham,
    *Accuracy and Stability of Numerical Algorithms*, section 4.2).  From
    m min x <= S and S (1 - c) - 1 <= |S' - 1| < min x comes S <= 2 +
    8 c, so |C - 1| <= |S' - 1| + 4.1 c.  The projection's shift at
    rank m is tau = fl(fl(C - 1) / m), so

        |tau| <= (|S' - 1| + 4.1 c)(1 + u)^2 / 2 < |S' - 1| + 8 m eps,

    and every entry exceeds tau.  A computed difference of two floats has
    the sign of the exact one, so the support test at rank m, min x -
    tau > 0, holds, the projection shifts by this tau and keeps every
    entry positive: the row is one the simplex holds, as the projection
    would find.  The other rows are projected as a stack of their own;
    ``project_to_simplex`` gives each row its lone-vector bits, so
    ``_active_set`` gets the rows, and the bits, a projection of the whole
    stack would give it.

    Each row rounds as it would alone, provided ``design[k]`` has the
    memory order it would have alone and ``response`` is C-contiguous: the
    products are BLAS calls whose rounding follows that order.
    """
    m = design.shape[2]
    # Adding 0 I would change no bit: x + 0.0 is x for every x but -0.0,
    # and XᵀX, summed by matmul from +0.0, holds no -0.0.
    gram = cross + ridge * np.eye(m) if ridge else cross
    linear = np.matmul(design.transpose(0, 2, 1), response[:, :, None])[:, :, 0]
    start = _sum_constrained(gram, linear)
    unsettled = (np.minimum.reduce(start, 1) <= abs(np.add.reduce(start, 1) - 1) + 8 * m * _EPS).nonzero()[0]
    if not unsettled.size:
        return start
    beta = start.copy()
    projected = project_to_simplex(start[unsettled])
    clipped = ~((projected > 0.0) & (start[unsettled] >= 0.0)).all(axis=1)
    for k, point in zip(unsettled[clipped], projected[clipped]):
        beta[k] = _active_set(gram[k], linear[k], start[k], point)
    return beta


def _rank_deficient(design, cross):
    """Whether ``np.linalg.matrix_rank`` finds each design of a (g, R, m)
    stack rank deficient, given the stack's XᵀX ``cross``.

    matrix_rank counts the computed singular values above its tolerance
    t sigma_1, with t = max(R, m) eps and sigma_1 the largest computed one.
    With R < m rows a design has at most R < m singular values, so it is
    rank deficient outright.  In a tall stack, R >= 8 m, a design is of
    full rank if

        lambda_m > r lambda_1,    r = max(RANK_GAP, 64 R m eps),

    where lambda_1 >= ... >= lambda_m are the eigenvalues ``eigvalsh``
    computes for its XᵀX.  Write s_1 >= ... >= s_m for the exact
    singular values of X.  The computed XᵀX is XᵀX + E with |E| <=
    gamma_R |X|ᵀ|X| entrywise, gamma_R = R u / (1 - R u) and u = eps / 2
    (Higham, section 3.5), so ||E||_2 <= gamma_R ||X||_F^2 <= 0.51 R m eps
    s_1^2.  eigvalsh's eigenvalues are exact for that matrix perturbed by
    F, ||F||_2 <= p eps ||XᵀX + E||_2 with p modest (about m).  By Weyl's
    theorem (Golub & Van Loan, *Matrix Computations*, section 8.1) each
    lambda_i then lies within e = ||E||_2 + ||F||_2 <= 0.64 R m eps s_1^2
    of s_i^2 (as m <= R / 8), so e <= r s_1^2 / 100.  While r <= 1, which
    holds below 7e13 design entries, a negative lambda_1 certifies
    nothing, and

        s_m^2 >= lambda_m - e > r lambda_1 - e >= r (s_1^2 - e) - e
              >= 0.98 r s_1^2.

    The SVD that matrix_rank runs moves each singular value by at most
    q eps s_1, q modest (Golub & Van Loan, section 8.6), and t <= R eps;
    both terms together stay below 2 R m eps s_1 <= r s_1 / 32, far below
    s_m >= (0.98 r)^(1/2) s_1.  So the computed smallest singular value
    clears t sigma_1, and matrix_rank reports full rank.  The rule cannot
    certify a rank-deficient design: there s_m = 0, so lambda_m <= e <
    r lambda_1.  Only the other designs go to matrix_rank, and so does
    every design of a stack shorter than 8 m rows, where the eigenvalue
    pass would mostly come on top of the SVD.
    """
    g, rows, m = design.shape
    if rows < m:
        return np.ones(g, dtype=bool)
    if rows < 8 * m:
        return np.linalg.matrix_rank(design) < m
    eigenvalues = np.linalg.eigvalsh(cross)
    gap = max(RANK_GAP, 64.0 * rows * m * _EPS)
    deficient = eigenvalues[:, 0] <= gap * eigenvalues[:, -1]
    if np.count_nonzero(deficient):
        deficient[deficient] = np.linalg.matrix_rank(design[deficient]) < m
    return deficient


def recover(problem):
    """Fit stubbornness and influence weights to the observed trajectories.

    Each agent is fitted independently on the simplex-constrained linear
    model described in the module docstring.  Every trajectory's update
    rows are stacked once, agent by agent: row j of ``before`` holds z_j(t)
    and row j of ``after`` z_j(t + 1), over every stacked t.  Agent i's
    design is s_i beside its in-neighbours' rows of ``before``, and its
    response is row i of ``after``.

    The fit has one layout.  One stable argsort puts the free agents in
    order of in-degree, in index order within one, and the pinned agents
    after them; each agent's edge positions are laid out from the row
    pointer in that order.  Each agent owns d + 1 consecutive slots, one
    per design column: s_i, then its in-neighbours' rows of ``before``,
    and each slot names the row of one per-fit table of R-long columns
    that it holds.  The g agents of in-degree d are then a contiguous run
    of slots: they are fitted together, as one (g, R, d + 1) stack of
    designs gathered from that run at once, or as several when
    g (d + 1) max(R, d + 2) exceeds ``STACK_ENTRIES``, which also bounds
    the memory a fit's designs take.  A stack holds only the work that
    needs its designs: the gather, one stacked XᵀX, shared by the fits
    (``_simplex_least_squares``, one KKT solve per agent) and the rank
    flags (``_rank_deficient``), and the fitted products; the projection
    and ``np.linalg.matrix_rank`` run only on the rows their certificates
    leave open.  A design is F-ordered at in-degree d >= 2 and C-ordered
    at d = 1, the order ``np.column_stack`` gives a lone agent's design,
    so each agent's fit has the bits of a fit on its own.

    Each stack writes (a_i, v_i.) into its slots, and its fitted products
    and rank flags, by slice, in layout order.  Every step after the
    stacks runs once per fit, over all agents or all edges: the RMS
    residuals, the degenerate test, the weight rows w_ij = v_ij / (1 - a_i)
    over their sums with the uniform fallback, the stubbornness floor and
    the flags.  Each step is elementwise, so a row gets the bits it would
    get alone, except a row's sum: numpy sums a row of 8 or more entries
    pairwise, so each row is summed as a row of its in-degree's (g, d)
    block, a reshape of the layout, as a lone agent's row would be.
    Degenerate rows never divide by 1 - a_i or by a zero sum.  The
    layout's inverse permutations put the results back in agent order and
    in the support's edge order, and the parameters are built from the
    edge weights (``FjParameters._from_edge_weights``), with no dense pass
    over W.  Stubbornness estimates are floored at the contraction
    threshold so the returned parameters always validate.

    An agent pinned in any trajectory did not follow the update rule
    there, so it is not fitted: it gets the fallback of a row with no
    weight information (theta = 1, a uniform row, the residual of s_i)
    and is flagged.  Fitting such an agent on the trajectories where it
    is free is left open.
    """
    network = problem.network
    n = network.agent_count
    intrinsic = problem.trajectories[0].values[0] if problem.intrinsic is None else problem.intrinsic
    after = np.concatenate([trajectory.values[1:].T for trajectory in problem.trajectories], axis=1)
    rounds = after.shape[1]
    # Every design column is a row of ``table``: z_j(t) over every stacked t
    # in row j (``before``), and s_j repeated in row n + j.
    table = np.empty((2 * n, rounds))
    np.concatenate([trajectory.values[:-1].T for trajectory in problem.trajectories], axis=1, out=table[:n])
    table[n:] = intrinsic[:, None]
    # Agent i's in-neighbours are its row of W's support, in source order.
    targets, sources = network._support
    pointer = network._row_pointer
    degrees = pointer[1:] - pointer[:-1]
    # The layout: the free agents by in-degree, in index order within one,
    # then the pinned ones, whose key is their in-degree plus n (an agent
    # pinned in several trajectories gets n once).  Layout agent k owns the
    # slot heads[k], for s_i and a_i, and one slot per in-neighbour j,
    # tails[starts[k]:starts[k] + width[k]], for z_j and v_ij; layout edge
    # e is edge edges[e] of the support, and slot q holds row source[q] of
    # ``table``.  Each in-degree's agents, edges and slots are contiguous,
    # so a stack's designs are one gather of its run of slots, and its
    # results are slice writes.
    key = degrees.copy()
    key[[agent for trajectory in problem.trajectories for agent in trajectory.pinned]] += n
    order = key.argsort(kind="stable")
    key, width = key[order], degrees[order]
    starts = width.cumsum() - width
    owner = np.arange(n).repeat(width)
    layout = np.arange(len(targets))
    edges = layout + (pointer[order] - starts)[owner]
    heads = starts + np.arange(n)
    tails = layout + owner + 1
    source = np.empty(n + len(targets), dtype=np.intp)
    source[heads] = n + order
    source[tails] = sources[edges]
    response = after[order]
    cuts = ((key[1:] != key[:-1]).nonzero()[0] + 1).tolist()
    groups = [(a, b, int(width[a]), int(starts[a])) for a, b in zip([0, *cuts], [*cuts, n]) if key[a] < n]
    # The stacks write each free agent's (a_i, v_i.) into its slots, and its
    # one-step prediction (into errors[0]) and rank flag; a pinned agent
    # keeps 0s.  errors[1] is the error of full stubbornness's prediction, s_i.
    solution = np.zeros(len(source))
    errors = np.zeros((2, n, rounds))
    np.subtract(intrinsic[order][:, None], response, out=errors[1])
    rank_deficient = np.zeros(n, dtype=bool)
    for first, end, d, edge in groups:
        size = max(1, STACK_ENTRIES // ((d + 1) * max(rounds, d + 2)))
        for top in range(first, end, size):
            bottom = min(top + size, end)
            # Agent k of in-degree d has its slots from edge + (k - first) d + k.
            stack = slice(edge + (top - first) * d + top, edge + (bottom - first) * d + bottom)
            design = table[source[stack]].reshape(-1, d + 1, rounds).transpose(0, 2, 1)
            design = np.ascontiguousarray(design) if d == 1 else design
            cross = np.matmul(design.transpose(0, 2, 1), design)
            beta = _simplex_least_squares(design, response[top:bottom], problem.ridge, cross)
            solution[stack].reshape(-1, d + 1)[...] = beta
            np.matmul(design, beta[:, :, None], out=errors[0, top:bottom, :, None])
            rank_deficient[top:bottom] = _rank_deficient(design, cross)
    # Full stubbornness predicts s_i, the design's column 0.  A row it
    # explains exactly as well has no weight information; those fits are
    # canonicalized to theta = 1, a uniform row and the residual of s_i, so
    # the ambiguity is reported instead of an arbitrary optimum.
    errors[0] -= response
    fit_rms, pure_rms = np.sqrt(np.add.reduce(np.square(errors, out=errors), 2) / rounds)
    stubborn = solution[heads]
    degenerate = (key >= n) | (stubborn > STUBBORN_CEILING) | (pure_rms <= fit_rms + 1e-12)
    # w_ij = v_ij / (1 - a_i) over its row's sum, each row summed as a row
    # of its in-degree's (g, d) block, as a lone agent's row would be.  A
    # degenerate row divides d 1s by 1 and then by their sum, d: it comes
    # out 1 / d, the uniform row, with no division by 1 - a_i or by 0.
    # Pinned rows are not summed; their sum is d from the start.
    w = np.where(degenerate[owner], 1.0, solution[tails]) / np.where(degenerate, 1.0, 1.0 - stubborn)[owner]
    totals = width.astype(float)
    for first, end, d, edge in groups:
        np.add.reduce(w[edge : edge + (end - first) * d].reshape(-1, d), 1, out=totals[first:end])
    w /= totals[owner]
    theta = np.minimum(np.maximum(np.where(degenerate, 1.0, stubborn), THETA_MIN), 1.0)
    # Back from the layout to agent order, and to the support's edge order.
    agent = order.argsort()
    return RecoveryResult(
        params=FjParameters._from_edge_weights(network, intrinsic, theta[agent], w[edges.argsort()]),
        per_agent_residual=np.where(degenerate, pure_rms, fit_rms)[agent],
        identifiability_flags=tuple((degenerate | rank_deficient)[agent].tolist()),
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
    try:
        levels = [_check_nonnegative(level, "noise level") for level in noise_levels]
    except TypeError:
        raise ValidationError(f"noise_levels must be an iterable of numbers, got {noise_levels!r}") from None
    mask = problem.network.support_mask()
    true_g = closed_form_outcome(truth).g
    rows = []
    for level_index, level in enumerate(levels):
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
