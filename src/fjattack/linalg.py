"""Dense linear-algebra helpers with explicit conditioning checks.

All fixed-point computations in this package reduce to solving small dense
systems of the form (I - D W) z = b.  Rather than calling a bare solver we
LU-factor once, estimate the reciprocal condition number with the LAPACK
gecon routine, and refuse to return an answer from a system whose rcond
falls below ``RCOND_MIN``.  Silent garbage from a nearly singular solve is
much harder to debug than an early ConvergenceError.
"""

import warnings

import numpy as np
from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor, lu_solve

from .errors import ConvergenceError

# Reciprocal-condition-number floor below which a solve is rejected.
RCOND_MIN = 1e-12


def factor_conditioned(matrix):
    """LU-factor a square matrix, rejecting ill-conditioned input.

    Returns the ``(lu, piv)`` pair accepted by ``scipy.linalg.lu_solve``.
    Raises ConvergenceError when the 1-norm reciprocal condition estimate
    is below RCOND_MIN (this covers exactly singular input as well).
    """
    a = np.ascontiguousarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    anorm = np.linalg.norm(a, 1)
    with warnings.catch_warnings():
        # Exactly singular input makes lu_factor warn; the rcond check below
        # turns that case into a ConvergenceError, so the warning is noise.
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(a)
    gecon = get_lapack_funcs(("gecon",), (a,))[0]
    rcond, info = gecon(lu, anorm, norm="1")
    if info != 0:
        raise ConvergenceError(f"condition estimate failed (info={info})")
    if not rcond > RCOND_MIN:
        raise ConvergenceError(
            f"system is singular or ill-conditioned (rcond={rcond:.3e})"
        )
    return lu, piv


def invert_conditioned(stack, label):
    """Invert a (batch, m, m) stack of matrices, rejecting ill-conditioned members.

    Each member's exact 1-norm reciprocal condition number
    1 / (||A||_1 ||A^-1||_1) must exceed RCOND_MIN.  The gecon figure that
    factor_conditioned checks estimates ||A^-1||_1 from below, so this
    check is at least as strict.  ``label(b)`` names member b in the
    ConvergenceError raised otherwise.
    """
    a = np.asarray(stack, dtype=float)
    try:
        inverse = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        # Some member is exactly singular; name the first one.
        for b, member in enumerate(a):
            try:
                factor_conditioned(member)
            except ConvergenceError as exc:
                raise ConvergenceError(f"{label(b)}: {exc}") from None
        raise
    anorm = np.abs(a).sum(axis=-2).max(axis=-1)
    rcond = 1.0 / (anorm * np.abs(inverse).sum(axis=-2).max(axis=-1))
    rejected = np.flatnonzero(~(rcond > RCOND_MIN))
    if rejected.size:
        b = int(rejected[0])
        raise ConvergenceError(
            f"{label(b)}: system is singular or ill-conditioned (rcond={rcond[b]:.3e})"
        )
    return inverse


def check_conditioned(stack, label):
    """Reject ill-conditioned members of a (batch, m, m) stack of matrices.

    A member whose rows are strictly diagonally dominant with margin
    delta = min_i (|a_ii| - sum_{j != i} |a_ij|) has ||A^-1||_inf <= 1 / delta
    (Varah), so its 1-norm reciprocal condition number is at least
    delta / (m^2 ||A||_inf).  Members that bound clears above RCOND_MIN,
    with room for the rounding of delta, pass without a factorization; the
    rest go through invert_conditioned, whose ConvergenceError names the
    member by ``label(b)``.
    """
    a = np.abs(stack)
    m = a.shape[-1]
    row_sums = a.sum(axis=-1)
    margin = (2.0 * np.diagonal(a, axis1=-2, axis2=-1) - row_sums).min(axis=-1)
    norm = row_sums.max(axis=-1)
    rounding = 2.0 * m * np.finfo(float).eps * norm
    unsure = np.flatnonzero(~(margin - rounding > m * m * norm * RCOND_MIN))
    if unsure.size:
        invert_conditioned(stack[unsure], lambda b: label(int(unsure[b])))


def solve_conditioned(matrix, rhs):
    """Solve ``matrix @ x = rhs`` with an rcond guard."""
    return lu_solve(factor_conditioned(matrix), np.asarray(rhs, dtype=float))


def _collatz_wielandt(w, v):
    """(lower, upper) bracket of the spectral radius from w = A v, v >= 0.

    min_i w_i / v_i over v_i > 0 is a lower bound and max_i w_i / v_i an
    upper one; an entry of v that underflowed to zero under a positive w_i
    makes the upper bound infinite, which is still valid.
    """
    positive = v > 0.0
    ratio = np.divide(w, v, out=np.where(w > 0.0, np.inf, 0.0), where=positive)
    return float(ratio[positive].min()), float(ratio.max())


def spectral_radius(matrix, max_iterations=2000, tol=1e-13, threshold=None):
    """Upper bound on the spectral radius of an entrywise nonnegative matrix.

    Power iteration on A + sI from the all-ones vector, with s a fiftieth
    of the largest row sum: the shift leaves the Perron vector alone but
    keeps periodic (for example bipartite) matrices from cycling.  It
    stops when the max-normalized iterate moves by at most ``tol``, or at
    the iteration cap, and returns the Collatz-Wielandt bound
    max_i (A v)_i / v_i at the final iterate v.  Because v is positive,
    that bound is never below the spectral radius, up to the rounding of
    the last product; it is tight once v has converged.

    With a ``threshold`` it stops as soon as the Collatz-Wielandt bracket
    min_i (A v)_i / v_i <= radius <= max_i (A v)_i / v_i lies wholly on
    one side of it, and returns the upper end: below the threshold if
    the radius is, above it if the radius is.
    """
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    if n == 0:
        return 0.0
    v = np.ones(n)
    w = a @ v
    shift = 0.02 * float(np.max(w))
    for iteration in range(max_iterations):
        if threshold is not None:
            lower, upper = _collatz_wielandt(w, v)
            if upper < threshold or lower > threshold:
                return upper
        step = w + shift * v
        norm = float(np.max(step))
        if norm == 0.0:
            return 0.0
        step /= norm
        if np.max(np.abs(step - v)) <= tol or iteration == max_iterations - 1:
            break
        v = step
        w = a @ v
    return _collatz_wielandt(w, v)[1]
