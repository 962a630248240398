"""The benchmark's workloads: seeded inputs, one operation each, and its checks.

Every workload builds its inputs in ``setup`` from the workload seed alone
and then runs one closed-loop operation ("op") at a time through the
package's public functions.  Each call into the package sits inside a
span named ``<layer>.<function>``; with tracing off the spans cost one
no-op context manager each.  Every op checks its own answer and raises
``CheckFailed`` when the answer is wrong.
"""

import bisect
import os
from dataclasses import dataclass
from itertools import combinations

import numpy as np

import fjattack as fj
from fjattack import fileio
from fjattack.harness import Scenario, generate


class CheckFailed(AssertionError):
    """An op's output disagrees with its reference answer."""


class Checker:
    """Compares program outputs with reference answers.

    ``skew`` is added to every numeric reference before the comparison.
    It is 0 in every benchmark run; the smoke tests set it to plant a
    wrong reference answer and show that the checks catch it.
    """

    def __init__(self, skew=0.0):
        self.skew = float(skew)

    def close(self, label, actual, reference, tol):
        error = float(np.max(np.abs(np.asarray(actual) - (np.asarray(reference) + self.skew))))
        if not error <= tol:
            raise CheckFailed(f"{label}: off by {error:.3e}, tolerance {tol:.1e}")

    def at_least(self, label, actual, reference, tol):
        if not actual >= reference + self.skew - tol:
            raise CheckFailed(f"{label}: {actual!r} below {reference + self.skew!r}")

    def at_most(self, label, actual, reference):
        if not actual <= reference + self.skew:
            raise CheckFailed(f"{label}: {actual!r} above {reference + self.skew!r}")

    def holds(self, label, condition):
        if not condition:
            raise CheckFailed(label)


def instance_seed(seed, workload_key, index):
    """Scenario seed of instance ``index``: a pure function of the workload seed."""
    state = np.random.SeedSequence([seed, workload_key, index]).generate_state(1)
    return int(state[0])


def traced_generate(tracer, scenario):
    with tracer.span("harness.generate"):
        return generate(scenario)[1]


@dataclass
class PlanApprox:
    """Approx ``solve_attack`` at the full leader budget, one instance per op."""

    n: int = 14
    pool_size: int = 160
    verify_instances: int = 4

    name = "plan_approx"
    key = 1
    edge_prob = 0.3
    stream_passes = 0
    work_unit = "leader sets"
    # erdos_renyi appears twice so the median op lands inside one topology's
    # cluster of op times instead of on the gap between two clusters.
    topologies = ("complete", "erdos_renyi", "ring", "erdos_renyi", "star")

    def setup(self, seed, workdir, tracer):
        self.pool = []
        self.plans = {}
        for index in range(self.pool_size):
            scenario = Scenario(
                topology=self.topologies[index % len(self.topologies)],
                n=self.n,
                edge_prob=self.edge_prob,
                seed=instance_seed(seed, self.key, index),
            )
            params = traced_generate(tracer, scenario)
            with tracer.span("dynamics.closed_form_outcome"):
                g0 = fj.closed_form_outcome(params).g
            self.pool.append((params, g0))

    def op(self, index, tracer, check):
        position = index % len(self.pool)
        params, g0 = self.pool[position]
        with tracer.span("optimizer.solve_attack"):
            plan = fj.solve_attack(params)
        self.plans[position] = plan
        with tracer.span("adversary.AttackConfig.validate_against"):
            plan.config.validate_against(params.network)
        with tracer.span("adversary.adversarial_outcome"):
            outcome = fj.adversarial_outcome(params, plan.config)
        check.close("adversarial_outcome g vs predicted_g", outcome.g_value, plan.predicted_g, 1e-9)
        check.at_least("planned g vs unattacked g0", plan.predicted_g, g0, 1e-12)
        return plan.leader_evaluations, {"leader_sets": plan.leader_evaluations}

    def verify(self, tracer, check):
        """Check the plans of the first few instances the ops answered
        against a reference: every leader set solved through the public
        ``solve_follower``, the best kept with solve_attack's tie-breaking
        (the first set in enumeration order wins a tie)."""
        for position in sorted(self.plans)[: self.verify_instances]:
            params, _ = self.pool[position]
            plan = self.plans[position]
            best_g, best = -np.inf, None
            for adversaries in combinations(range(params.n), params.network.leader_budget()):
                with tracer.span("optimizer.solve_follower"):
                    targets, g = fj.solve_follower(params, adversaries)
                if g > best_g:
                    best_g, best = g, (adversaries, targets)
            check.close("predicted_g vs the reference best over every leader set", plan.predicted_g, best_g, 1e-12)
            reference = fj.AttackConfig(
                adversaries=best[0], targets=best[1], influence_magnitude=plan.config.influence_magnitude
            )
            check.holds("plan config equals the reference best config", plan.config == reference)


@dataclass
class PlanExact:
    """Count, exact ``solve_attack`` and the brute-force oracle on one instance per op.

    The configuration count, and with it an op's time, spreads over two
    orders of magnitude between instances.  So the pool is a stratified
    sample: seeded draws are sorted into equally likely strata of the
    count, and ops cycle through the strata.  Every run then sees the
    same mix of small and large instances as the underlying distribution.
    """

    n: int = 12
    edge_prob: float = 0.25
    pool_size: int = 160
    # Boundaries of 15 equally likely strata of count_configurations on
    # erdos_renyi(12, 0.25), estimated from 3000 draws.  With 15 strata the
    # median op and the 90th-percentile op each fall in the middle of a
    # stratum rather than on the edge between two.
    count_strata: tuple = (
        490, 711, 815, 1115, 1205, 1317, 1511, 1859, 2056, 2299, 2829, 3259, 4120, 5489
    )

    name = "plan_exact"
    key = 2
    stream_passes = 0
    work_unit = "follower configurations"

    def setup(self, seed, workdir, tracer):
        strata = [[] for _ in range(len(self.count_strata) + 1)]
        per_stratum = -(-self.pool_size // len(strata))
        index = 0
        while min(len(stratum) for stratum in strata) < per_stratum:
            params = traced_generate(
                tracer,
                Scenario(
                    topology="erdos_renyi",
                    n=self.n,
                    edge_prob=self.edge_prob,
                    seed=instance_seed(seed, self.key, index),
                ),
            )
            index += 1
            with tracer.span("optimizer.count_configurations"):
                count = fj.count_configurations(params.network)
            stratum = strata[bisect.bisect_right(self.count_strata, count)]
            if len(stratum) < per_stratum:
                stratum.append(params)
        self.pool = [
            strata[i % len(strata)][i // len(strata)] for i in range(per_stratum * len(strata))
        ]

    def op(self, index, tracer, check):
        params = self.pool[index % len(self.pool)]
        with tracer.span("optimizer.count_configurations"):
            count = fj.count_configurations(params.network)
        with tracer.span("optimizer.solve_attack"):
            exact = fj.solve_attack(params, follower_mode="exact")
        with tracer.span("optimizer.brute_force_oracle"):
            oracle = fj.brute_force_oracle(params)
        check.holds("exact config equals the oracle's", exact.config == oracle.config)
        check.close("exact g vs oracle g", exact.predicted_g, oracle.predicted_g, 1e-12)
        check.holds("oracle scored every counted configuration", oracle.follower_candidates == count)
        check.holds("exact follower scored every counted configuration", exact.follower_candidates == count)
        configs = exact.follower_candidates + oracle.follower_candidates
        return configs, {
            "leader_sets": exact.leader_evaluations + oracle.leader_evaluations,
            "follower_configs": configs,
        }


# The noisy-level g error stays below this on every instance tried (the
# largest seen was 3e-3 at noise 1e-2, over 200 instances at n = 8 and 12).
NOISY_G_BOUND = 0.05


def constrained_rows(problem):
    """Rows whose least-squares fit under the sum-to-one constraint alone
    has a negative coefficient, so the simplex constraint of ``recover`` is
    active at the optimum.

    On fit_noisy's instances a row converges in one projected-gradient step
    when the constraint is inactive and runs to MAX_ITERATIONS when it is
    active, so this count sets an op's cost.
    """
    count = 0
    for i in range(problem.network.agent_count):
        support = list(problem.network.in_neighbors(i))
        design = np.vstack(
            [
                np.column_stack([np.full(len(t.values) - 1, problem.intrinsic[i]), t.values[:-1][:, support]])
                for t in problem.trajectories
            ]
        )
        response = np.concatenate([t.values[1:, i] for t in problem.trajectories])
        m = design.shape[1]
        kkt = np.ones((m + 1, m + 1))
        kkt[:m, :m] = design.T @ design
        kkt[m, m] = 0.0
        solution = np.linalg.lstsq(kkt, np.append(design.T @ response, 1.0), rcond=None)[0]
        count += bool((solution[:m] < 0.0).any())
    return count


@dataclass
class FitNoisy:
    """Parameter recovery from clean and noisy trajectories, one instance per op.

    An op costs about 8 ms plus about 0.3 s for every row of its noisy fit
    whose simplex constraint is active (see ``constrained_rows``), so a
    run's throughput follows how many such rows its instances hold: with
    plain seeded draws it spread by 11% from seed to seed.  The pool is
    therefore a stratified sample.  Setup draws a fixed number of
    instances (more if a stratum is still short), sorts them into those
    with no constrained row and those with at least one, and keeps each
    stratum in its population share, interleaved so that every stretch of
    ops has the same mix.
    """

    n: int = 8
    trajectories: int = 5
    rounds: int = 30
    pool_size: int = 200

    name = "fit_noisy"
    key = 3
    edge_prob = 0.3
    noise = 1e-2
    # Population shares of instances with no constrained row and with at
    # least one, from 3000 draws (1.3% of draws have two or three).
    stratum_shares = (0.8187, 0.1813)
    stream_passes = 0
    work_unit = "agents fitted"

    def draw(self, seed, index, tracer):
        """Instance ``index``: clean and noisy recovery problems and the true g."""
        instance = instance_seed(seed, self.key, index)
        params = traced_generate(
            tracer,
            Scenario(topology="erdos_renyi", n=self.n, edge_prob=self.edge_prob, seed=instance),
        )
        rng = np.random.default_rng(instance)
        clean, noisy = [], []
        for _ in range(self.trajectories):
            with tracer.span("dynamics.simulate"):
                trajectory = fj.simulate(params, rng.uniform(0.0, 1.0, self.n), self.rounds)
            clean.append(trajectory)
            values = trajectory.values + rng.uniform(-self.noise, self.noise, trajectory.values.shape)
            noisy.append(
                fj.OpinionTrajectory(
                    rounds=trajectory.rounds, values=np.clip(values, 0.0, 1.0), pinned=trajectory.pinned
                )
            )
        with tracer.span("dynamics.closed_form_outcome"):
            true_g = fj.closed_form_outcome(params).g

        def problem(trajectories):
            return fj.RecoveryProblem(
                network=params.network, trajectories=tuple(trajectories), intrinsic=params.intrinsic
            )

        return problem(clean), problem(noisy), true_g

    def setup(self, seed, workdir, tracer):
        shares = np.array(self.stratum_shares) * self.pool_size
        quotas = np.floor(shares).astype(int)
        # Largest remainders round the quotas to a total of pool_size.
        quotas[np.argsort(quotas - shares)[: self.pool_size - quotas.sum()]] += 1
        strata = [[] for _ in quotas]
        # A fixed number of draws keeps setup_s the same from seed to seed;
        # a third more than the pool fills both quotas on all but about 2%
        # of seeds, which draw on until they are filled.
        index = 0
        short = lambda: any(len(stratum) < quota for stratum, quota in zip(strata, quotas))
        while index < self.pool_size * 4 // 3 or short():
            instance = self.draw(seed, index, tracer)
            index += 1
            strata[min(constrained_rows(instance[1]), len(strata) - 1)].append(instance)
        strata = [stratum[:quota] for stratum, quota in zip(strata, quotas)]
        # Instance k of a stratum of size q sits at (k + 1/2) / q along the pool.
        slots = sorted(
            ((k + 0.5) / len(stratum), s, k) for s, stratum in enumerate(strata) for k in range(len(stratum))
        )
        self.pool = [strata[s][k] for _, s, k in slots]

    def op(self, index, tracer, check):
        problem, noisy_problem, true_g = self.pool[index % len(self.pool)]
        with tracer.span("recovery.recover"):
            result = fj.recover(problem)
        fitted = result.params
        with tracer.span("dynamics.FjParameters"):
            # Raises if the fitted parameters do not validate.
            fj.FjParameters(
                network=fitted.network,
                intrinsic=fitted.intrinsic,
                stubbornness=fitted.stubbornness,
                influence=fitted.influence,
            )
        with tracer.span("dynamics.closed_form_outcome"):
            fitted_g = fj.closed_form_outcome(fitted).g
        check.close("clean fit g vs true g", fitted_g, true_g, 1e-8)
        with tracer.span("recovery.recover"):
            noisy = fj.recover(noisy_problem)
        with tracer.span("dynamics.closed_form_outcome"):
            noisy_error = abs(fj.closed_form_outcome(noisy.params).g - true_g)
        check.at_most("noisy fit g error", noisy_error, NOISY_G_BOUND)
        return 2 * self.n, {
            "agents_fitted": 2 * self.n,
            "recover_calls": 2,
            "rows_fitted": self.n,
            "rows_flagged": sum(result.identifiability_flags),
            "g_abs_err": noisy_error,
        }


@dataclass
class ReplayLarge:
    """Load a large network file, then run the closed form and two rollouts."""

    n: int = 1000
    edge_prob: float = 0.02
    adversaries: int = 10
    start_vectors: int = 64

    name = "replay_large"
    key = 4
    zero_theta_frac = 0.01
    rounds = 200
    # Its ops are dominated by n x n products, so host-speed calibration
    # adds matrix streaming to the reference kernel.
    stream_passes = 4
    work_unit = "agent-rounds"

    def setup(self, seed, workdir, tracer):
        instance = instance_seed(seed, self.key, 0)
        params = traced_generate(
            tracer,
            Scenario(topology="erdos_renyi", n=self.n, edge_prob=self.edge_prob, seed=instance),
        )
        rng = np.random.default_rng(instance)
        # Agents with theta = 0 send the contraction check down its spectral path.
        theta = np.array(params.stubbornness)
        zeroed = rng.choice(self.n, max(1, int(self.zero_theta_frac * self.n)), replace=False)
        theta[zeroed] = 0.0
        with tracer.span("dynamics.FjParameters"):
            params = fj.FjParameters(
                network=params.network,
                intrinsic=params.intrinsic,
                stubbornness=theta,
                influence=params.influence,
            )
        self.path = os.path.join(workdir, f"replay_large_{seed}.json")
        with tracer.span("fileio.save_parameters"):
            fileio.save_parameters(params, self.path)
        with tracer.span("dynamics.closed_form_outcome"):
            self.g = fj.closed_form_outcome(params).g
        with tracer.span("optimizer.baseline_variant"):
            self.config = fj.baseline_variant(params, "I", leader_size=self.adversaries)
        self.starts = rng.uniform(0.0, 1.0, (self.start_vectors, self.n))

    def op(self, index, tracer, check):
        z0 = self.starts[index % len(self.starts)]
        with tracer.span("fileio.load_parameters"):
            loaded = fileio.load_parameters(self.path)
        # Rebuilding from the loaded arrays times validation on its own, so
        # load_parameters splits into parsing and validation.
        with tracer.span("dynamics.FjParameters"):
            params = fj.FjParameters(
                network=loaded.network,
                intrinsic=loaded.intrinsic,
                stubbornness=loaded.stubbornness,
                influence=loaded.influence,
            )
        with tracer.span("dynamics.closed_form_outcome"):
            outcome = fj.closed_form_outcome(params)
        with tracer.span("dynamics.simulate"):
            trajectory = fj.simulate(params, z0, self.rounds)
        with tracer.span("adversary.apply_adversarial_weights"):
            attacked = fj.apply_adversarial_weights(params, self.config)
        with tracer.span("adversary.simulate_adversarial"):
            attacked_trajectory = fj.simulate_adversarial(params, self.config, z0, self.rounds)
        with tracer.span("adversary.adversarial_outcome"):
            attacked_outcome = fj.adversarial_outcome(params, self.config)
        check.close("closed-form g after the file round trip", outcome.g, self.g, 1e-9)
        check.close("simulate tail vs closed form", trajectory.values[-1], outcome.fixed_point, 1e-9)
        check.close("attacked rows stay stochastic", attacked.influence.sum(axis=1), 1.0, 1e-9)
        tail = attacked_trajectory.values[-1][list(attacked_outcome.unpinned)]
        check.close("simulate_adversarial tail vs adversarial_outcome", tail, attacked_outcome.fixed_point, 1e-9)
        agent_rounds = 2 * self.n * self.rounds
        return agent_rounds, {"agent_rounds": agent_rounds}


WORKLOADS = {cls.name: cls for cls in (PlanApprox, PlanExact, FitNoisy, ReplayLarge)}
