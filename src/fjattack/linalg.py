"""Dense linear-algebra helpers: the conditioning rule and its one guard.

All fixed-point computations in this package reduce to solving dense
systems of the form (I - D W) z = b.  The planners never guard a system
one at a time: each search proves a bound on the 1-norm condition number
of every system it may solve and admits the search only when ``certifies``
accepts that bound, before any set is scored (see the optimizer module
docstring).  The one guard left is ``solve_conditioned``, for a single
system no search certifies: it LU-factors once, estimates the reciprocal
condition number with the LAPACK gecon routine, and refuses to return an
answer from a system whose rcond falls below ``RCOND_MIN``.  Silent
garbage from a nearly singular solve is much harder to debug than an
early ConvergenceError.
"""

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import ConvergenceError

# Reciprocal-condition-number floor below which a solve is rejected.
RCOND_MIN = 1e-12

# Stopping rule of spectral_radius.
POWER_MAX_ITERATIONS = 2000
POWER_TOL = 1e-13


def certifies(kappa):
    """Whether every matrix with 1-norm condition number at most ``kappa``
    has a reciprocal condition number above RCOND_MIN with room to spare.

    True when kappa RCOND_MIN <= 1/2: each such matrix has rcond at least
    2 RCOND_MIN, and the factor 2 covers the rounding of a computed rcond
    and of ``kappa`` itself, so no rcond check on it could refuse.  The
    planners call it on a proven bound on kappa_1 of every system a search
    may solve, before any set is scored.  A NaN kappa certifies nothing.
    """
    return kappa * RCOND_MIN <= 0.5


def solve_conditioned(matrix, rhs):
    """Solve ``matrix @ x = rhs`` for a square matrix, with an rcond guard.

    LAPACK getrf factors the matrix, as ``scipy.linalg.lu_factor`` does
    without that wrapper's checks (on a 10 x 10 system they cost about four
    times the factorization); gecon estimates the 1-norm reciprocal
    condition number off the factor; getrs solves on it, as
    ``scipy.linalg.lu_solve`` runs it.  Raises ConvergenceError when the
    estimate is below RCOND_MIN, which covers exactly singular, and
    non-finite, input as well.
    """
    a = np.ascontiguousarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    getrf, gecon, getrs = get_lapack_funcs(("getrf", "gecon", "getrs"), (a, b))
    lu, piv, _ = getrf(a)
    rcond, info = gecon(lu, np.linalg.norm(a, 1), norm="1")
    if info != 0:
        raise ConvergenceError(f"condition estimate failed (info={info})")
    if not rcond > RCOND_MIN:
        raise ConvergenceError(
            f"system is singular or ill-conditioned (rcond={rcond:.3e})"
        )
    return getrs(lu, piv, b)[0]


def _collatz_wielandt(w, v):
    """(lower, upper) bracket of the spectral radius from w = A v, v >= 0.

    min_i w_i / v_i over v_i > 0 is a lower bound and max_i w_i / v_i an
    upper one; an entry of v that underflowed to zero under a positive w_i
    makes the upper bound infinite, which is still valid.
    """
    positive = v > 0.0
    ratio = np.divide(w, v, out=np.where(w > 0.0, np.inf, 0.0), where=positive)
    return float(ratio[positive].min()), float(ratio.max())


def spectral_radius(matrix, threshold=None):
    """Upper bound on the spectral radius of an entrywise nonnegative matrix.

    ``matrix`` is a dense array or a scipy.sparse matrix (CSR, say): only
    products with it are formed, so a sparse one is never densified.

    Power iteration on A + sI from the all-ones vector, with s a fiftieth
    of the largest row sum: the shift leaves the Perron vector alone but
    keeps periodic (for example bipartite) matrices from cycling.  It
    stops when the max-normalized iterate moves by at most POWER_TOL, or
    after POWER_MAX_ITERATIONS products, and returns the Collatz-Wielandt
    bound max_i (A v)_i / v_i at the final iterate v.  Because v is positive,
    that bound is never below the spectral radius, up to the rounding of
    the last product; it is tight once v has converged.

    With a ``threshold`` it stops as soon as the Collatz-Wielandt bracket
    min_i (A v)_i / v_i <= radius <= max_i (A v)_i / v_i lies wholly on
    one side of it, and returns the upper end: below the threshold if
    the radius is, above it if the radius is.
    """
    a = matrix if hasattr(matrix, "tocsr") else np.asarray(matrix, dtype=float)
    n = a.shape[0]
    if n == 0:
        return 0.0
    v = np.ones(n)
    w = a @ v
    shift = 0.02 * float(np.max(w))
    for iteration in range(POWER_MAX_ITERATIONS):
        if threshold is not None:
            lower, upper = _collatz_wielandt(w, v)
            if upper < threshold or lower > threshold:
                return upper
        step = w + shift * v
        norm = float(np.max(step))
        if norm == 0.0:
            return 0.0
        step /= norm
        if np.max(np.abs(step - v)) <= POWER_TOL or iteration == POWER_MAX_ITERATIONS - 1:
            break
        v = step
        w = a @ v
    return _collatz_wielandt(w, v)[1]
