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

W is supported on the network's |E| edges, which the network keeps in row
order (by target, then source) with a row pointer: the CSR layout of W.  A
rollout runs over that edge list, not over the dense matrix, so ``rounds``
rounds cost O(rounds * |E|) instead of O(rounds * n^2).  A round is one
weighted ``bincount`` below SPARSE_MIN_EDGES edges and one CSR product with
(I - Theta) W at or above it; both sum row i's terms from 0 in increasing
source order, so every rollout is deterministic and the two kernels agree
bit for bit.
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

# Edge count from which a rollout multiplies by (I - Theta) W as a scipy CSR
# matrix instead of running a weighted ``bincount``.  Measured on one core of
# a shared x86-64 host (numpy 2.4, scipy 1.17): a ``bincount`` round costs
# about 1.4 us plus 5 ns per edge, a CSR round about 3.5 us plus 1.7 ns per
# edge, and building the CSR matrix 15-40 us per rollout.  A 30- or 200-round
# ``simulate`` broke even between 800 and 1,250 edges.
SPARSE_MIN_EDGES = 1000


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
    """``value`` as a float, or a ValidationError if it is no number: a bool
    or text is refused, not read as 1.0 or parsed."""
    if not isinstance(value, (bool, np.bool_, str, bytes)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValidationError(f"{name} must be a number, got {value!r}")


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
    Self-loops are rejected unless ``allow_self_loops`` is set.  ``edges``
    is kept sorted by (source, target); the support of W, ``_support``, is
    kept in row order (by target, then source) with an int32 row pointer,
    ``_row_pointer``: the CSR layout of W.
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
        # Every agent needs an in-neighbour.  With fewer edges than agents one
        # of the agents 0..|E| has none, and it is named before anything of
        # size n is built.
        if len(edges) < n:
            first = min(set(range(len(edges) + 1)).difference(targets.tolist()))
            raise ValidationError(f"agent {first} has no in-neighbors")
        # Keys dst * n + src sort the edges into row order, by target and
        # then source: the layout of W's rows.  Keys src * n + dst sort them
        # into the canonical (src, dst) order.  Neither overflows int64: here
        # n <= |E|, and an n past 3e9 would need that many edges in memory.
        targets, sources = np.divmod(_distinct(targets * n + sources), n)
        agents = np.arange(n + 1)
        row_pointer = np.searchsorted(targets, agents).astype(np.int32)
        incoming = _slices(sources.tolist(), row_pointer.tolist())
        if not all(incoming):
            raise ValidationError(f"agent {incoming.index(())} has no in-neighbors")
        tails, heads = np.divmod(np.sort(sources * n + targets), n)
        heads = heads.tolist()
        object.__setattr__(self, "edges", tuple(zip(tails.tolist(), heads)))
        object.__setattr__(self, "_incoming", incoming)
        object.__setattr__(self, "_outgoing", _slices(heads, np.searchsorted(tails, agents).tolist()))
        object.__setattr__(self, "_support", (targets, sources))
        object.__setattr__(self, "_row_pointer", row_pointer)

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

    def _csr(self, weights):
        """The n x n scipy CSR matrix with ``weights`` on the support, in row order."""
        # Imported here, where the sparse kernel runs: at module level it
        # added about 2 MB of resident memory to every process.
        from scipy.sparse import csr_array

        n = self.agent_count
        return csr_array((weights, self._support[1], self._row_pointer), shape=(n, n))


def _distinct(values):
    """The distinct entries of an int array, sorted.

    np.unique by one sort: numpy 2.4's np.unique hashes first, and took
    3.8 ms on 20,000 edge keys against 0.17 ms for this.
    """
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def _slices(flat, bounds):
    """Tuple of the tuples flat[bounds[i]:bounds[i + 1]]."""
    return tuple(tuple(flat[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))


@dataclass(frozen=True, eq=False)
class FjParameters:
    """A network together with the full parameterization of its dynamics.

    intrinsic     s, shape (n,), entries in [0, 1]
    stubbornness  theta, shape (n,), entries in [0, 1]
    influence     W, shape (n, n), row-stochastic and supported on the edges

    Construction validates shapes, ranges, support, row sums, and that the
    dynamics contract (theta >= THETA_MIN everywhere, or failing that a
    spectral-radius check on (I - Theta) W).  Arrays are copied and frozen.
    Both the support and the spectral checks read W on its edge list: W has
    no weight off the edges iff it has as many nonzeros as its edges carry,
    and the spectral check multiplies by (I - Theta) W as a CSR matrix, so
    neither builds an n x n temporary.
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
        on_support = w[self.network._support]
        if np.count_nonzero(w) != np.count_nonzero(on_support):
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
            open_minded = (1.0 - theta)[self.network._support[0]] * on_support
            radius = spectral_radius(self.network._csr(open_minded), threshold=limit)
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

    ``influence`` is W gathered on the edges in row order (the network's
    ``_support``), a fresh array that is scaled in place by 1 - theta_i.
    Each round sums the terms (1 - theta_i) * w_ij * z_j of each row i, adds
    theta * s, clips the result to [0, 1] and sets the pinned agents to
    ``pinned_value``.  Below SPARSE_MIN_EDGES edges the sum is one
    ``bincount`` over the edges, at or above it one product with the CSR
    matrix (I - Theta) W; each sums a row from 0 in increasing source order,
    so both give the same bits.  The inputs are taken as validated.
    """
    n = params.n
    targets, sources = params.network._support
    theta = params.stubbornness
    weights = influence
    weights *= (1.0 - theta)[targets]
    if len(weights) >= SPARSE_MIN_EDGES:
        mix = params.network._csr(weights).dot
    else:

        def mix(z):
            return np.bincount(targets, weights=weights * z[sources], minlength=n)

    anchor = theta * params.intrinsic
    pinned = np.array(pinned, dtype=np.intp)
    values = np.empty((rounds + 1, n))
    values[0] = z0
    for t in range(rounds):
        row = values[t + 1]
        np.add(mix(values[t]), anchor, out=row)
        np.clip(row, 0.0, 1.0, out=row)
        row[pinned] = pinned_value
    return values


def fj_step(params, z, pinned=(), pinned_value=1.0):
    """One synchronous update of every agent's opinion.

    Agents listed in ``pinned`` ignore the update rule and are held at
    ``pinned_value`` instead.  The result of the convex mixing is clipped
    to [0, 1] to strip floating-point dust; in exact arithmetic the update
    maps [0, 1]^n into itself.  The update is one round of the rollout
    kernel (``_rollout``): O(|E|), with each agent summing its in-neighbours
    in source order.
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
