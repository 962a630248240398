"""Friedkin-Johnsen opinion dynamics on directed influence networks.

Each agent i holds an opinion z_i in [0, 1] and updates it synchronously by
mixing a fixed intrinsic opinion s_i with the weighted average of its
in-neighbors' current opinions:

    z_i(t+1) = theta_i * s_i + (1 - theta_i) * sum_j w_ij * z_j(t)

where theta_i in [0, 1] is the agent's stubbornness and row i of the
influence matrix W is a probability vector supported on the agents that
point an edge at i.  When every agent retains some stubbornness (or, more
generally, when (I - Theta) W is a contraction) the dynamics converge to a
unique fixed point with the closed form

    z* = (I - (I - Theta) W)^-1 Theta s,

and the scalar outcome g = sum_i z*_i lies in [0, N].

W is supported on the network's |E| edges, so a rollout runs over the edge
list, not over the dense matrix: each round is one weighted ``bincount``,
and ``rounds`` rounds cost O(rounds * |E|) instead of O(rounds * n^2).
Row i of a round sums its in-neighbours' terms in increasing source order,
so every rollout is deterministic.
"""

import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, ValidationError
from .linalg import solve_conditioned, spectral_radius

# Stubbornness floor under which the contraction of (I - Theta) W is no
# longer automatic and is verified spectrally instead.
THETA_MIN = 1e-6

# Tolerance on |row sum - 1| for influence-matrix rows.
ROW_SUM_TOL = 1e-9

# The spectral radius of (I - Theta) W must stay below 1 by this margin.
SPECTRAL_MARGIN = 1e-9


def _as_int(value, name, rule="an int"):
    """``value`` as a Python int: anything ``operator.index`` takes but a
    bool, so 1.5, True and "1" are refused, not cut to 1."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{name} must be {rule}, got {value!r}")


def _as_float(value, name):
    """``value`` as a float, or a ValidationError if it is no number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a number, got {value!r}") from None


def _check_count(value, name, minimum=1):
    """``value`` as an int (``_as_int``) of at least ``minimum``."""
    rule = f"an int >= {minimum}"
    count = _as_int(value, name, rule)
    if count < minimum:
        raise ValidationError(f"{name} must be {rule}, got {value!r}")
    return count


def _check_unit(values, name):
    """Reject a float array or scalar with an entry outside [0, 1], NaN included."""
    values = np.asarray(values)
    inside = (values >= 0.0) & (values <= 1.0)
    if not inside.all():
        raise ValidationError(f"{name} must lie in [0, 1], got {float(values[~inside].flat[0])!r}")


def _check_unit_vector(values, n, name):
    """``values`` as a float array of shape (n,) with entries in [0, 1]."""
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise ValidationError(f"{name} must have shape ({n},), got {values.shape}")
    _check_unit(values, f"{name} entries")
    return values


@dataclass(frozen=True)
class InfluenceNetwork:
    """Directed influence graph on agents 0..agent_count-1.

    An edge (source, target) means the target listens to the source, i.e.
    w[target, source] may be nonzero.  Every agent must have at least one
    in-neighbor so each influence row has support to normalize over.
    Self-loops are rejected unless ``allow_self_loops`` is set.
    """

    agent_count: int
    edges: tuple
    allow_self_loops: bool = False

    def __post_init__(self):
        n = _check_count(self.agent_count, "agent_count")
        object.__setattr__(self, "agent_count", n)
        edges = np.array(self.edges, dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValidationError(f"edges must be (source, target) pairs, got shape {edges.shape}")
        sources, targets = edges.T
        outside = (edges < 0) | (edges >= n)
        rejected = outside[:, 0] | outside[:, 1]
        if not self.allow_self_loops:
            rejected |= sources == targets
        if rejected.any():
            first = int(np.argmax(rejected))
            src, dst = edges[first].tolist()
            if outside[first].any():
                raise ValidationError(f"edge ({src}, {dst}) out of range for {n} agents")
            raise ValidationError(f"self-loop on agent {src} is not allowed")
        # Keys src * n + dst sort like the (src, dst) pairs.
        sources, targets = np.divmod(np.unique(sources * n + targets), n)
        canon = tuple(zip(sources.tolist(), targets.tolist()))
        object.__setattr__(self, "edges", canon)

        incoming = [[] for _ in range(n)]
        outgoing = [[] for _ in range(n)]
        for src, dst in canon:
            incoming[dst].append(src)
            outgoing[src].append(dst)
        for i in range(n):
            if not incoming[i]:
                raise ValidationError(f"agent {i} has no in-neighbors")
        object.__setattr__(self, "_incoming", tuple(tuple(v) for v in incoming))
        object.__setattr__(self, "_outgoing", tuple(tuple(v) for v in outgoing))
        object.__setattr__(self, "_support", (targets, sources))

    def in_neighbors(self, agent):
        """Agents whose opinions feed agent's update, in index order."""
        return self._incoming[agent]

    def out_neighbors(self, agent):
        """Agents whose updates read agent's opinion, in index order."""
        return self._outgoing[agent]

    def out_degree(self, agent):
        return len(self._outgoing[agent])

    def target_budget(self, agent):
        """Max number of this agent's out-neighbors an attacker may re-weight."""
        return max(0, (self.out_degree(agent) - 1) // 3)

    def leader_budget(self):
        """Max number of agents that may be turned adversarial."""
        return (self.agent_count - 1) // 3

    def support_mask(self):
        """Boolean (n, n) mask; mask[i, j] is True iff w[i, j] may be nonzero."""
        n = self.agent_count
        mask = np.zeros((n, n), dtype=bool)
        mask[self._support] = True
        return mask


@dataclass(frozen=True, eq=False)
class FjParameters:
    """A network together with the full parameterization of its dynamics.

    intrinsic     s, shape (n,), entries in [0, 1]
    stubbornness  theta, shape (n,), entries in [0, 1]
    influence     W, shape (n, n), row-stochastic and supported on the edges

    Construction validates shapes, ranges, support, row sums, and that the
    dynamics contract (theta >= THETA_MIN everywhere, or failing that a
    spectral-radius check on (I - Theta) W).  Arrays are copied and frozen.
    """

    network: InfluenceNetwork
    intrinsic: np.ndarray
    stubbornness: np.ndarray
    influence: np.ndarray

    def __post_init__(self):
        n = self.network.agent_count
        s = _check_unit_vector(np.array(self.intrinsic, dtype=float), n, "intrinsic")
        theta = _check_unit_vector(np.array(self.stubbornness, dtype=float), n, "stubbornness")
        w = np.array(self.influence, dtype=float)
        if w.shape != (n, n):
            raise ValidationError(f"influence must have shape ({n}, {n}), got {w.shape}")
        finite = np.isfinite(w)
        if not finite.all():
            raise ValidationError(f"influence weights must be finite, got {float(w[~finite][0])!r}")
        if (w < 0).any():
            raise ValidationError("influence weights must be nonnegative")
        off_support = w[~self.network.support_mask()]
        if off_support.size and (off_support != 0.0).any():
            raise ValidationError("influence has nonzero weight outside the edge set")
        row_sums = w.sum(axis=1)
        bad = np.abs(row_sums - 1.0) > ROW_SUM_TOL
        if bad.any():
            i = int(np.argmax(bad))
            raise ValidationError(
                f"influence row {i} sums to {row_sums[i]!r}, expected 1 within {ROW_SUM_TOL}"
            )
        if (theta < THETA_MIN).any():
            limit = 1.0 - SPECTRAL_MARGIN
            radius = spectral_radius((1.0 - theta)[:, None] * w, threshold=limit)
            if radius > limit:
                raise ConvergenceError(
                    f"dynamics do not contract: spectral radius {radius:.12f} "
                    f"with stubbornness below {THETA_MIN}"
                )
        for arr in (s, theta, w):
            arr.setflags(write=False)
        object.__setattr__(self, "intrinsic", s)
        object.__setattr__(self, "stubbornness", theta)
        object.__setattr__(self, "influence", w)

    @property
    def n(self):
        return self.network.agent_count


@dataclass(frozen=True, eq=False)
class OpinionTrajectory:
    """Synchronous rollout of the dynamics: row t is the opinion vector z(t)."""

    rounds: int
    values: np.ndarray
    pinned: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "rounds", _check_count(self.rounds, "rounds"))
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != self.rounds + 1:
            raise ValidationError(
                f"values must have shape (rounds + 1, n), got {values.shape}"
            )
        _check_unit(values, "trajectory entries")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        pinned = tuple(sorted(_as_int(i, "pinned agent") for i in self.pinned))
        object.__setattr__(self, "pinned", pinned)

    @property
    def n(self):
        return self.values.shape[1]


class Outcome(NamedTuple):
    """Fixed point of the dynamics and its scalar aggregate g."""

    fixed_point: np.ndarray
    g: float


def _check_pinned(pinned, n, pinned_value):
    pinned = tuple(sorted({_as_int(i, "pinned agent") for i in pinned}))
    for i in pinned:
        if not 0 <= i < n:
            raise ValidationError(f"pinned agent {i} out of range for {n} agents")
    _check_unit(pinned_value, "pinned_value")
    return pinned


def _rollout(params, influence, z0, rounds, pinned, pinned_value):
    """(rounds + 1, n) array: row 0 is z0, row t + 1 the update of row t.

    ``influence`` is W gathered on the edges (source j, target i), in
    canonical order, a fresh array that is scaled in place by 1 - theta_i.
    Each round is one ``bincount`` over the edges of the terms
    (1 - theta_i) * w_ij * z_j, plus theta * s; the result is clipped to
    [0, 1] and the pinned agents are set to ``pinned_value``.  The inputs
    are taken as validated.
    """
    n = params.n
    targets, sources = params.network._support
    theta = params.stubbornness
    weights = influence
    weights *= (1.0 - theta)[targets]
    anchor = theta * params.intrinsic
    pinned = np.array(pinned, dtype=np.intp)
    values = np.empty((rounds + 1, n))
    values[0] = z0
    for t in range(rounds):
        row = values[t + 1]
        mixed = np.bincount(targets, weights=weights * values[t][sources], minlength=n)
        np.add(mixed, anchor, out=row)
        np.clip(row, 0.0, 1.0, out=row)
        row[pinned] = pinned_value
    return values


def fj_step(params, z, pinned=(), pinned_value=1.0):
    """One synchronous update of every agent's opinion.

    Agents listed in ``pinned`` ignore the update rule and are held at
    ``pinned_value`` instead.  The result of the convex mixing is clipped
    to [0, 1] to strip floating-point dust; in exact arithmetic the update
    maps [0, 1]^n into itself.  The update is one round of the rollout
    kernel: O(|E|), with each agent summing its in-neighbours in source
    order.
    """
    n = params.n
    z = _check_unit_vector(z, n, "z")
    pinned = _check_pinned(pinned, n, pinned_value)
    influence = params.influence[params.network._support]
    return _rollout(params, influence, z, 1, pinned, pinned_value)[1]


def simulate(params, z0, rounds, pinned=(), pinned_value=1.0):
    """Roll the dynamics out for ``rounds`` synchronous updates.

    Row 0 of the result is the supplied initial vector as given; pinning
    only constrains the updated rows.  The inputs are checked once; the
    rollout then costs O(rounds * |E|), each agent summing its
    in-neighbours in source order, and OpinionTrajectory checks every row.
    """
    influence = params.influence[params.network._support]
    return _simulate(params, influence, z0, rounds, pinned, pinned_value)


def _simulate(params, influence, z0, rounds, pinned, pinned_value):
    """simulate with W given on the edge list, as ``_rollout`` takes it."""
    n = params.n
    z0 = _check_unit_vector(z0, n, "z0")
    pinned = _check_pinned(pinned, n, pinned_value)
    rounds = _check_count(rounds, "rounds")
    values = _rollout(params, influence, z0, rounds, pinned, pinned_value)
    return OpinionTrajectory(rounds=rounds, values=values, pinned=pinned)


def closed_form_outcome(params):
    """Fixed point z* = (I - (I - Theta) W)^-1 Theta s and its sum g.

    Raises ConvergenceError if the system matrix is singular or too badly
    conditioned to trust.
    """
    theta = params.stubbornness
    system = np.eye(params.n) - (1.0 - theta)[:, None] * params.influence
    z = solve_conditioned(system, theta * params.intrinsic)
    return Outcome(fixed_point=z, g=float(z.sum()))
