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
weighted ``bincount`` or one CSR product with (I - Theta) W; both sum row
i's terms from 0 in increasing source order, so every rollout is
deterministic and the two kernels agree bit for bit.  A rollout takes the
CSR product when its rounds save more than the CSR matrix costs to build
(``_kernel``): for many rounds from about SPARSE_MIN_EDGES edges on, for a
single round (``fj_step``) from about six times that.

The fixed point of a large sparse network comes from the same round
(``_bracket``): run it from all zeros and from all ones at once.  The
update z -> Theta s + (I - Theta) W z has a nonnegative matrix and maps
[0, 1]^n into itself, so the lower iterate rises to z* and the upper one
falls to it, and their gap is B^t 1 with B = (I - Theta) W.  Once the gap
is below BRACKET_TOL the midpoint is the answer, and the rounds it took
prove the system well conditioned.  The bracket runs from SPARSE_MIN_EDGES
edges and only while its projected rounds cost less than one dense LU
(``_bracket_cap``); otherwise, and below the gate, the fixed point is the
rcond-guarded dense solve (``linalg.solve_conditioned``).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, ValidationError, _as_float, _as_int, _check_count, _check_finite
from .errors import _check_index, _check_unit, _check_unit_vector, _numbers, check_integral
from .linalg import solve_conditioned, spectral_radius

# Stubbornness floor under which the contraction of (I - Theta) W is no
# longer automatic and is verified spectrally instead.
THETA_MIN = 1e-6

# Tolerance on |row sum - 1| for influence-matrix rows.
ROW_SUM_TOL = 1e-9

# The spectral radius of (I - Theta) W must stay below 1 by this margin.
SPECTRAL_MARGIN = 1e-9

# Edge count from which a round multiplies by (I - Theta) W as a scipy CSR
# matrix faster than it runs a weighted ``bincount``; ``_kernel`` weighs the
# CSR build against the rounds' savings.  Measured on one core of a shared
# x86-64 host (numpy 2.4, scipy 1.17): a ``bincount`` round costs about 3 us
# plus 5 ns per edge, a CSR round about 8 us plus 1 ns per edge, and
# building the CSR matrix 15-40 us per rollout, about what five rounds save
# at twice this edge count.  A 30- or 200-round ``simulate`` broke even
# between 800 and 1,250 edges, a 2-round one between 2,700 and 5,100 and a
# single round between 5,100 and 10,000.
SPARSE_MIN_EDGES = 1000

# Width of the fixed-point bracket at which ``_bracket`` stops.  Its midpoint
# is then within half of it of z*, up to the rounding of the rounds.
BRACKET_TOL = 1e-14

# Cost model of ``_bracket_cap``, in seconds.  Measured on a shared 2-core
# x86-64 host (numpy 2.4, scipy 1.17, OpenBLAS) on Erdos-Renyi, ring and
# complete networks with n = 100-2,000 and 2,000-80,000 edges: the dense
# path (form I - (I - Theta) W, LU, gecon, solve) took 0.14 ms at n = 100,
# 0.5 ms at 200, 5.5 ms at 500, 20-26 ms at 1,000 and 100-110 ms at 2,000,
# which 7 ps * n^3 + 12 ns * n^2 fits or undercuts by up to 30%; a bracket
# round (two CSR products, add, clip, pin and the width) took 13 us + 1.7 ns
# per edge + 10 ns per agent, or up to 20% less.  At n = 1,000 and 20,000
# edges that is 19 ms against 57 us: a cap of 333 rounds.
DENSE_SOLVE_COST = (7e-12, 1.2e-8)  # per n^3, per n^2
BRACKET_ROUND_COST = (1.3e-5, 1.7e-9, 1e-8)  # per round, per edge, per agent


def _check_weights(weights):
    """Refuse a non-finite, then a negative, entry of influence weights:
    the dense W, or W on its edges in row order, whose first non-finite
    entry is the dense W's when W is 0 off the edges."""
    _check_finite(weights, "influence weights")
    if (weights < 0).any():
        raise ValidationError("influence weights must be nonnegative")


@dataclass(frozen=True, eq=False)
class InfluenceNetwork:
    """Directed influence graph on agents 0..agent_count-1.

    An edge (source, target) means the target listens to the source, i.e.
    w[target, source] may be nonzero.  Every agent must have at least one
    in-neighbor so each influence row has support to normalize over.
    A self-loop (i, i) is always refused, so no agent listens to itself:
    W's diagonal is 0, M = I - (I - Theta) W has a diagonal of exactly 1,
    and an agent is never its own out-neighbour.  The planners rely on
    both: the optimizer's conditioning certificate and its target rules.

    The support is kept once per order, as arrays and nothing else.
    ``edges`` is a read-only (|E|, 2) int64 array of the distinct
    (source, target) pairs sorted by source, then target, with a column
    pointer, ``_column_pointer``, into it by source: it serves the
    out-neighbours.  ``_support`` holds the same pairs in row order (by
    target, then source) as (targets, sources) with an int32 row pointer,
    ``_row_pointer``: the CSR layout of W, which the dynamics run on and
    the in-neighbours are read from.  The neighbour methods build their
    tuples of Python ints on demand.  Two networks are equal when their
    agent counts and edges are; a network is not hashable.
    """

    agent_count: int
    edges: np.ndarray

    def __post_init__(self):
        n = _check_count(self.agent_count, "agent_count")
        object.__setattr__(self, "agent_count", n)
        edges = self.edges
        int_array = isinstance(edges, np.ndarray) and edges.dtype.kind in "iu"
        if not (int_array and np.can_cast(edges.dtype, np.int64)):
            # Endpoints follow _as_int: a float, bool or text endpoint is
            # refused, not cut to an int.  Anything but an int array whose
            # dtype fits int64 is read as Python objects, so a bool among
            # ints is not promoted to an int before the type test, and an
            # int past int64 is named, not an OverflowError.
            edges = np.asarray(edges, dtype=object)
            check_integral(edges.ravel().tolist(), "edge endpoint", "an int")
            try:
                edges = edges.astype(np.int64)
            except OverflowError:
                for endpoint in edges.flat:
                    _check_index(endpoint, n, "edge endpoint")
        edges = edges.astype(np.int64, copy=False)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValidationError(f"edges must be (source, target) pairs, got shape {edges.shape}")
        sources, targets = edges.T
        outside = (edges < 0) | (edges >= n)
        rejected = outside[:, 0] | outside[:, 1] | (sources == targets)
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
        uncovered = row_pointer[1:] == row_pointer[:-1]
        if uncovered.any():
            raise ValidationError(f"agent {int(np.argmax(uncovered))} has no in-neighbors")
        edges = np.column_stack(np.divmod(np.sort(sources * n + targets), n))
        column_pointer = np.searchsorted(edges[:, 0], agents)
        for arr in (edges, targets, sources, row_pointer, column_pointer):
            arr.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_column_pointer", column_pointer)
        object.__setattr__(self, "_support", (targets, sources))
        object.__setattr__(self, "_row_pointer", row_pointer)

    def __eq__(self, other):
        if not isinstance(other, InfluenceNetwork):
            return NotImplemented
        return self.agent_count == other.agent_count and np.array_equal(self.edges, other.edges)

    # A hash would have to read every edge, and nothing keys a dict or set
    # by a network, so a network has none.
    __hash__ = None

    def _span(self, pointer, agent):
        """(start, stop) of agent's entries under one of the two pointers, as
        Python ints; IndexError for an agent outside 0..n-1, which a negative
        index would otherwise wrap to the far end of the pointer."""
        if not 0 <= agent < self.agent_count:
            raise IndexError(f"agent {agent} out of range for {self.agent_count} agents")
        return pointer.item(agent), pointer.item(agent + 1)

    def in_neighbors(self, agent):
        """Agents whose opinions feed agent's update, in index order."""
        start, stop = self._span(self._row_pointer, agent)
        return tuple(self._support[1][start:stop].tolist())

    def out_neighbors(self, agent):
        """Agents whose updates read agent's opinion, in index order."""
        start, stop = self._span(self._column_pointer, agent)
        return tuple(self.edges[start:stop, 1].tolist())

    def out_degree(self, agent):
        start, stop = self._span(self._column_pointer, agent)
        return stop - start

    def out_degrees(self):
        """Every agent's out-degree, as an int array."""
        pointer = self._column_pointer
        return pointer[1:] - pointer[:-1]

    def target_budget(self, agent):
        """Max number of this agent's out-neighbors an attacker may re-weight."""
        return _target_budget(self.out_degree(agent))

    def target_budgets(self):
        """Every agent's target budget, as an int array."""
        return _target_budget(self.out_degrees())

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


def _target_budget(degree):
    """(d - 1) // 3 of an out-degree d, and 0 for d = 0: of an int, or of
    each entry of an int array."""
    return (degree - (degree > 0)) // 3


def _distinct(values):
    """The distinct entries of an int array, sorted.

    np.unique by one sort: numpy 2.4's np.unique hashes first, and took
    3.8 ms on 20,000 edge keys against 0.17 ms for this.
    """
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


@dataclass(frozen=True, eq=False)
class FjParameters:
    """A network together with the full parameterization of its dynamics.

    intrinsic     s, shape (n,), entries in [0, 1]
    stubbornness  theta, shape (n,), entries in [0, 1]
    influence     W, shape (n, n), row-stochastic and supported on the edges

    Construction validates shapes, ranges, support, row sums, and that the
    dynamics contract (theta >= THETA_MIN everywhere, or failing that a
    spectral-radius check on (I - Theta) W).  Arrays are copied and frozen.
    W's rule is stated once, on its edge list, ``_on_support`` (W on the
    network's ``_support`` in row order): every entry finite, then every
    entry nonnegative, then each row summing to 1 within ROW_SUM_TOL, then
    the contraction, whose spectral check multiplies by (I - Theta) W as a
    CSR matrix.  A row's sum is taken on its edges in source order, which
    differs from the dense ``w.sum(axis=1)`` only by rounding (at most
    4.4e-16 on an Erdos-Renyi network of 1,000 agents and 20,000 edges); a
    refused row's message prints the dense row's sum, ``w[i].sum()``.

    The constructor takes W dense.  Past its copy and shape check it reads
    all n^2 entries once: W has no weight off the edges iff it has as many
    nonzeros as its edges carry, and then every entry off them is exactly
    0, so finite and nonnegative.  If the counts differ, the dense W is
    scanned for a non-finite and a negative entry first, so each refusal
    names what a scan of W in that order would.  ``_from_edge_weights``
    takes W on the edges instead (loaded and attacked parameters), runs
    the same rule and scatters the dense W once.  The gather is kept
    frozen as ``_on_support``: every rollout, bracket and file write reads
    W there, so none gathers it again.
    """

    network: InfluenceNetwork
    intrinsic: np.ndarray
    stubbornness: np.ndarray
    influence: np.ndarray

    def __post_init__(self):
        self._settle(None)

    @classmethod
    def _from_edge_weights(cls, network, intrinsic, stubbornness, on_support):
        """FjParameters whose W is ``on_support`` on the network's edges, in
        row order, and 0 elsewhere: the rule on the edge list, then one
        scatter of the dense W.  ``on_support`` is taken, not copied."""
        params = object.__new__(cls)
        object.__setattr__(params, "network", network)
        object.__setattr__(params, "intrinsic", intrinsic)
        object.__setattr__(params, "stubbornness", stubbornness)
        params._settle(np.asarray(on_support, dtype=float))
        return params

    def _settle(self, on_support):
        """Check, freeze and store the arrays; W comes dense (``influence``)
        when ``on_support`` is None, else on the edge list."""
        network = self.network
        n = network.agent_count
        s = _check_unit_vector(self.intrinsic, n, "intrinsic")
        theta = _check_unit_vector(self.stubbornness, n, "stubbornness")
        if on_support is None:
            w = _numbers(self.influence, "influence entry")
            if w.shape != (n, n):
                raise ValidationError(f"influence must have shape ({n}, {n}), got {w.shape}")
            on_support = w[network._support]
            # Equal counts leave every entry off the edges exactly 0.
            if np.count_nonzero(w) != np.count_nonzero(on_support):
                _check_weights(w)
                raise ValidationError("influence has nonzero weight outside the edge set")
        else:
            w = np.zeros((n, n))
            w[network._support] = on_support
        _check_weights(on_support)
        row_sums = np.bincount(network._support[0], weights=on_support, minlength=n)
        bad = np.abs(row_sums - 1.0) > ROW_SUM_TOL
        if bad.any():
            i = int(np.argmax(bad))
            raise ValidationError(
                f"influence row {i} sums to {w[i].sum()!r}, expected 1 within {ROW_SUM_TOL}"
            )
        if (theta < THETA_MIN).any():
            limit = 1.0 - SPECTRAL_MARGIN
            open_minded = (1.0 - theta)[network._support[0]] * on_support
            radius = spectral_radius(network._csr(open_minded), threshold=limit)
            if radius > limit:
                raise ConvergenceError(
                    f"dynamics do not contract: spectral radius {radius:.12f} "
                    f"with stubbornness below {THETA_MIN}"
                )
        for arr in (s, theta, w, on_support):
            arr.setflags(write=False)
        object.__setattr__(self, "intrinsic", s)
        object.__setattr__(self, "stubbornness", theta)
        object.__setattr__(self, "influence", w)
        object.__setattr__(self, "_on_support", on_support)

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
        values = _numbers(self.values, "trajectory entry")
        if values.ndim != 2 or values.shape[0] != self.rounds + 1:
            raise ValidationError(
                f"values must have shape (rounds + 1, n), got {values.shape}"
            )
        _check_unit(values, "trajectory entries")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "pinned", _pinned_agents(self.pinned, values.shape[1]))

    @property
    def n(self):
        return self.values.shape[1]


class Outcome(NamedTuple):
    """Fixed point of the dynamics and its scalar aggregate g."""

    fixed_point: np.ndarray
    g: float


def _pinned_agents(pinned, n):
    """The pinned agents as a sorted tuple, each an int in 0..n-1."""
    pinned = tuple(sorted(_as_int(i, "pinned agent") for i in pinned))
    for i in pinned:
        _check_index(i, n, "pinned agent")
    return pinned


def _check_pinned(pinned, n, pinned_value):
    pinned = tuple(sorted(set(_pinned_agents(pinned, n))))
    _check_unit(_as_float(pinned_value, "pinned_value"), "pinned_value")
    return pinned


def _kernel(params, influence, rounds):
    """(mix, anchor) of a rollout round: z -> mix(z) + anchor is the update.

    ``influence`` is W gathered on the edges in row order (the network's
    ``_support``), such as ``params._on_support``; it is read, not written:
    the kernel scales a copy by 1 - theta_i.  mix(z) sums the terms
    (1 - theta_i) * w_ij * z_j of each row i and anchor is theta * s.  The
    sum is one product with the CSR matrix (I - Theta) W when the rollout's
    rounds pay for building it: a CSR round saves time in proportion to
    |E| - SPARSE_MIN_EDGES, and the build costs what five rounds save at
    2 SPARSE_MIN_EDGES edges, so it is taken when
    rounds (|E| - SPARSE_MIN_EDGES) >= 5 SPARSE_MIN_EDGES: from 6,000 edges
    for one round, 3,500 for two and about 1,000 for many.  Otherwise the
    sum is one ``bincount`` over the edges.  Each sums a row from 0 in
    increasing source order, so both give the same bits.
    """
    n = params.n
    targets, sources = params.network._support
    theta = params.stubbornness
    weights = influence * (1.0 - theta)[targets]
    if rounds * (len(weights) - SPARSE_MIN_EDGES) >= 5 * SPARSE_MIN_EDGES:
        mix = params.network._csr(weights).dot
    else:

        def mix(z):
            return np.bincount(targets, weights=weights * z[sources], minlength=n)

    return mix, theta * params.intrinsic


def _advance(mix, anchor, z, out, pinned, pinned_value):
    """One round into ``out`` (which may be ``z``): mix, add theta * s,
    clip to [0, 1] and set the pinned agents to ``pinned_value``."""
    np.add(mix(z), anchor, out=out)
    # The method, not np.clip: the same clip ufunc without np.clip's
    # dispatch, which cost more than a whole bincount round at n = 8.
    out.clip(0.0, 1.0, out=out)
    out[pinned] = pinned_value


def _rollout(params, influence, z0, rounds, pinned, pinned_value):
    """(rounds + 1, n) array: row 0 is z0, row t + 1 the update of row t.

    ``influence`` is W on the edge list, as ``_kernel`` takes it.  Each
    round is ``_advance``.  The inputs are taken as validated.
    """
    mix, anchor = _kernel(params, influence, rounds)
    pinned = np.array(pinned, dtype=np.intp)
    values = np.empty((rounds + 1, params.n))
    values[0] = z0
    for t in range(rounds):
        _advance(mix, anchor, values[t], values[t + 1], pinned, pinned_value)
    return values


def fj_step(params, z, pinned=(), pinned_value=1.0):
    """One synchronous update of every agent's opinion.

    Agents listed in ``pinned`` ignore the update rule and are held at
    ``pinned_value`` instead.  The result of the convex mixing is clipped
    to [0, 1] to strip floating-point dust; in exact arithmetic the update
    maps [0, 1]^n into itself.  The update is one round of the rollout
    kernel (``_rollout``), O(|E|), with each agent summing its
    in-neighbours in source order: a ``bincount`` over the edges, or a CSR
    product on networks large enough to pay for the matrix.
    """
    n = params.n
    z = _check_unit_vector(z, n, "z")
    pinned = _check_pinned(pinned, n, pinned_value)
    return _rollout(params, params._on_support, z, 1, pinned, pinned_value)[1]


def simulate(params, z0, rounds, pinned=(), pinned_value=1.0):
    """Roll the dynamics out for ``rounds`` synchronous updates.

    Row 0 of the result is the supplied initial vector as given; pinning
    only constrains the updated rows.  The inputs are checked once; the
    rollout then costs O(rounds * |E|), each agent summing its
    in-neighbours in source order, and OpinionTrajectory checks every row.
    """
    return _simulate(params, params._on_support, z0, rounds, pinned, pinned_value)


def _simulate(params, influence, z0, rounds, pinned, pinned_value):
    """simulate with W given on the edge list, as ``_rollout`` takes it."""
    n = params.n
    z0 = _check_unit_vector(z0, n, "z0")
    pinned = _check_pinned(pinned, n, pinned_value)
    rounds = _check_count(rounds, "rounds")
    values = _rollout(params, influence, z0, rounds, pinned, pinned_value)
    return OpinionTrajectory(rounds=rounds, values=values, pinned=pinned)


def _bracket_cap(params):
    """Rounds ``_bracket`` may run on ``params``' network, or 0 to solve densely.

    0 below SPARSE_MIN_EDGES edges, a check that costs O(1).  Otherwise the
    cap is the number of rounds that cost as much as one dense solve of the
    n x n system, under the cost model of DENSE_SOLVE_COST and
    BRACKET_ROUND_COST, and 0 when that many rounds are not expected to
    close the bracket at the shrink rate 1 - mean(theta).  The rows of
    (I - Theta) W sum to 1 - theta_i, so the rate lies between
    1 - max(theta) and 1 - min(theta), and on the package's networks it
    sat near 1 - mean(theta) (0.51 against 0.52 on Erdos-Renyi n = 200).
    The estimate only picks the path: where it is too hopeful the bracket
    stops itself after a few rounds, and where it is too gloomy the dense
    solve runs.  Against the bound 1 - max(theta) it keeps networks of
    some 200 agents and 2,000 edges, where the cap is about 30 rounds and
    the bracket needs about 50, from paying 4 rounds before their LU.
    """
    edges = len(params.network._support[0])
    if edges < SPARSE_MIN_EDGES:
        return 0
    n = params.n
    per_cube, per_square = DENSE_SOLVE_COST
    per_round, per_edge, per_agent = BRACKET_ROUND_COST
    cap = int(n * n * (per_cube * n + per_square) / (per_round + per_edge * edges + per_agent * n))
    theta_mean = float(params.stubbornness.mean())
    if theta_mean < 1.0 and cap * math.log1p(-theta_mean) > math.log(BRACKET_TOL):
        return 0
    return cap


def _bracket(params, influence, pinned, cap):
    """Fixed point of the rollout round with ``pinned`` agents held at 1, or None.

    Runs ``_advance`` on a lower iterate from all zeros and an upper one
    from all ones, the pinned agents at 1 in both, and returns their
    midpoint once the width max_i (upper_i - lower_i) is at most
    BRACKET_TOL.  From round 4 on it projects the rounds still needed from
    the width's shrink rate per round over the last two rounds, and returns
    None, for the caller to solve densely, as soon as the projection passes
    ``cap`` or the width did not shrink over those two rounds.  Two rounds,
    not one: on a bipartite network, a star whose hub has theta = 0 say,
    the width shrinks only every other round.  Round 4, not 3: the early
    rates run high (round 1's is max_i (1 - theta_i)), and on 31 networks
    of 150-600 agents that passed the gate the rate from rounds 1-3 stopped
    one bracket that would have closed within its cap, from rounds 2-4 none.
    ``influence`` is as ``_kernel`` takes it.
    """
    n = params.n
    mix, anchor = _kernel(params, influence, cap)
    pinned = np.array(pinned, dtype=np.intp)
    lower = np.zeros(n)
    lower[pinned] = 1.0
    upper = np.ones(n)
    gap = np.empty(n)
    widths = [1.0]
    for t in range(1, cap + 1):
        _advance(mix, anchor, lower, lower, pinned, 1.0)
        _advance(mix, anchor, upper, upper, pinned, 1.0)
        width = float(np.subtract(upper, lower, out=gap).max())
        if width <= BRACKET_TOL:
            return (lower + upper) / 2
        widths.append(width)
        if t > 3:
            shrink = width / widths[t - 2]
            if shrink >= 1.0 or t + 2 * math.log(BRACKET_TOL / width) / math.log(shrink) > cap:
                return None
    return None


def closed_form_outcome(params):
    """Fixed point z* = (I - (I - Theta) W)^-1 Theta s and its sum g.

    Write B = (I - Theta) W and M = I - B.  Below SPARSE_MIN_EDGES edges,
    or where ``_bracket_cap`` finds that the bracket would cost more than a
    dense LU, z* is the rcond-guarded dense solve of M z = Theta s, which
    raises ConvergenceError, naming the system as the planners do, if M is
    singular or too badly conditioned to trust.

    Otherwise z* is the midpoint of the bracket (``_bracket``): the rollout
    round run from all zeros and from all ones.  After T rounds their gap
    is B^T 1, so since B >= 0 the width w, the largest gap, is ||B^T||_inf.
    That proves M well conditioned: M^-1 = (I + B + ... + B^(T-1))
    (I - B^T)^-1 and ||B||_inf <= 1, so ||M^-1||_inf <= T / (1 - w) and,
    with ||M||_inf <= 2, kappa_inf(M) <= 2 T / (1 - w), about 2 T at the
    stop (w <= BRACKET_TOL, T within the cap of some hundreds): far inside
    the 1 / RCOND_MIN = 1e12 the dense path allows.  Error bound: in exact
    arithmetic z* lies in the bracket, so each midpoint entry is within
    w / 2 <= BRACKET_TOL / 2 of it.  Each round's rounding is at most
    (d + 2) u per entry (d the largest in-degree, u the unit roundoff), and
    B^k carries a round's error forward at most ||B^k||_inf = w_k, so the
    iterates drift by at most (d + 2) u (w_0 + ... + w_(T-1)) <= (d + 2) u T
    to first order; on a network with rate 0.5, about 2 (d + 2) u.  If the
    shrink rate projects past the cap, the bracket stops early and the
    dense solve runs as below the gate, bit for bit.
    """
    cap = _bracket_cap(params)
    z = _bracket(params, params._on_support, (), cap) if cap else None
    if z is None:
        theta = params.stubbornness
        system = np.eye(params.n) - (1.0 - theta)[:, None] * params.influence
        try:
            z = solve_conditioned(system, theta * params.intrinsic)
        except ConvergenceError as exc:
            raise ConvergenceError(f"system I - (I - Theta) W: {exc}") from None
    return Outcome(fixed_point=z, g=float(z.sum()))
