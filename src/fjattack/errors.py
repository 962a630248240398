"""Exception types shared across the package, and the value rules that two
or more of its modules apply.

Each rule is stated once, here, with its message, and every entry calls it
by name.  A rule that one owner applies (an attack config's structure, a
network's edges, W's rule, a file's format, a planner's leader size and
sharing rule) stays with that owner.
"""

import math
import operator

import numpy as np


class ValidationError(ValueError):
    """An input violates a declared structural constraint."""


class ConvergenceError(RuntimeError):
    """A linear system is singular/ill-conditioned or the dynamics do not contract."""


class CapExceededError(RuntimeError):
    """An exhaustive search space is larger than the configured cap."""


def _as_int(value, name, rule="an int"):
    """``value`` as a Python int: anything ``operator.index`` takes but a
    bool, so 1.5, True and "1" are refused, not cut to 1."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{name} must be {rule}, got {value!r}")


def check_integral(values, what, rule="an integer"):
    """Refuse the first of the counts or indices in the list ``values`` that is no int.

    The integer rule (``_as_int``) takes an int, a numpy int included, and
    refuses 2.0, True and "2" instead of reading them as 2.  A type test
    passes a list of Python ints, and ``_as_int`` refuses the first other
    value in the words of ``rule``: "an integer" in files, "an int" for a
    network's edges.
    """
    if set(map(type, values)) - {int}:
        for value in values:
            if type(value) is not int:
                _as_int(value, what, rule)
    return values


def _as_float(value, name):
    """``value`` as a float, or a ValidationError if it is no number: a bool
    or text is refused, not read as 1.0 or parsed."""
    if not isinstance(value, (bool, np.bool_, str, bytes)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValidationError(f"{name} must be a number, got {value!r}")


def _numbers(values, name):
    """``values``, a scalar or a nested sequence or array, as a new float array.

    Every entry passes the number rule (``_as_float``): a bool or text entry
    is refused, not read as 1.0 or parsed, and so is a ragged row.  An array
    of floats or ints passes on its dtype alone; anything else has its
    entries' types scanned, and ``_as_float`` refuses the first entry that is
    no int or float.
    """
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "fiu"):
        entries = np.asarray(values, dtype=object).ravel().tolist()
        if set(map(type, entries)) - {int, float}:
            for value in entries:
                if type(value) not in (int, float):
                    _as_float(value, name)
    return np.array(values, dtype=float)


def _check_count(value, name, minimum=1):
    """``value`` as an int (``_as_int``) of at least ``minimum``."""
    rule = f"an int >= {minimum}"
    count = _as_int(value, name, rule)
    if count < minimum:
        raise ValidationError(f"{name} must be {rule}, got {value!r}")
    return count


def _check_cap(cap):
    """Reject a configuration cap that is neither None (no cap) nor an int >= 1."""
    if cap is not None:
        _check_count(cap, "cap")


def _check_known(value, known, what):
    """Refuse a ``value`` that is none of the names in ``known``."""
    if value not in known:
        raise ValidationError(f"unknown {what} {value!r}")


def _check_index(index, n, what):
    """Refuse an agent index outside 0..n-1, naming it as ``what``."""
    if not 0 <= index < n:
        raise ValidationError(f"{what} {index} out of range for {n} agents")


def _check_nonnegative(value, name):
    """``value`` as a finite float (``_as_float``) >= 0."""
    value = _as_float(value, name)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValidationError(f"{name} must be nonnegative, got {value!r}")
    return value


def _check_magnitude(p, name="influence magnitude"):
    """The magnitude ``p`` as a float (``_as_float``) in the open interval (0, 1)."""
    p = _as_float(p, name)
    if not 0.0 < p < 1.0:
        raise ValidationError(f"{name} must lie in (0, 1), got {p!r}")
    return p


def _check_finite(values, name):
    """Refuse a float array with a NaN or infinite entry."""
    finite = np.isfinite(values)
    if not finite.all():
        raise ValidationError(f"{name} must be finite, got {float(values[~finite].flat[0])!r}")


def _check_unit(values, name):
    """Reject a float array or scalar with an entry outside [0, 1], NaN included."""
    values = np.asarray(values)
    inside = (values >= 0.0) & (values <= 1.0)
    if not inside.all():
        raise ValidationError(f"{name} must lie in [0, 1], got {float(values[~inside].flat[0])!r}")


def _check_vector(values, n, name):
    """``values`` as a new float array (``_numbers``) of shape (n,)."""
    values = _numbers(values, f"{name} entry")
    if values.shape != (n,):
        raise ValidationError(f"{name} must have shape ({n},), got {values.shape}")
    return values


def _check_unit_vector(values, n, name):
    """``values`` as a new float array of shape (n,) with entries in [0, 1]."""
    values = _check_vector(values, n, name)
    _check_unit(values, f"{name} entries")
    return values
