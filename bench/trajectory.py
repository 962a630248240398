"""Write points of the benchmark trajectory: one BENCH_<date>_<sha>.json per checkout.

    python bench/trajectory.py [--root CHECKOUT [--sha SHA]] ... [--out-dir DIR]

Measures the fjattack sources of each ``--root`` (default: this
checkout) with one BLAS thread, as perfbench does, and records for each:

* the host, the Python, numpy and scipy versions and the live BLAS
  thread count (``perfbench/run.py``'s ``environment``);
* the median wall time of approx ``solve_attack`` on the north-star grid:
  complete networks with n = 10..20, and Erdos-Renyi, ring and star
  networks with n = 16 (``harness.generate``, seed 1, default settings);
* perfbench plan_exact's pool (``workloads.PlanExact``, one pool seed):
  the time per op of ``count_configurations``, exact ``solve_attack`` and
  ``brute_force_oracle``, each the median over rounds of its mean over
  the pool;
* one ``run_ablation`` on Erdos-Renyi n = 22 (seed 1), whose drifting
  planners score all C(22, 7) = 170,544 sets, and one approx
  ``solve_follower`` on Erdos-Renyi n = 1,000 (edge probability 0.02,
  seed 1) for the fixed set of agents 0..k-1, k the leader budget (333):
  one timing of each per round, and their median over the rounds;
* ``recover`` on perfbench fit_noisy's pool (``workloads.FitNoisy``, the
  same pool seed, 400 problems, clean and noisy): the time per call, the
  median over rounds of one pass's mean; and ``recover`` on complete
  n = 120 (seed 1, five 30-round runs from uniform starts, s given), a
  dense stack of (150, 120) designs: one timing per round, and the median.

Host speed drifts by tens of percent within minutes on a shared host, so
checkouts measured one after the other are not comparable.  The
measurement runs in rounds instead: each round times every checkout once,
in a fresh process, alternating which goes first, and each figure is a
median over the rounds.  Give every checkout to compare in one call.
Each point also carries a digest of every answer it timed (configs, the
bits of g, and the bits of every recovered theta, W, residual and flag),
so two points show whether they planned and fitted the same.  The
split of each run into search phases waits for a planner trace record.
"""

import os

for _variable in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_variable] = "1"

import argparse
import datetime
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REPO = HERE.parent

GRID = [("complete", n) for n in range(10, 21)] + [
    (topology, 16) for topology in ("erdos_renyi", "ring", "star")
]
# Rounds over every checkout, timed plans per grid network per round, and
# the perfbench plan_exact pool seed.
ROUNDS, REPEATS, POOL_SEED = 7, 9, 1
# The scenarios timed once per round: the ablation, and the network whose
# fixed set solve_follower reads.
ABLATION = {"topology": "erdos_renyi", "n": 22, "seed": 1}
FOLLOWER = {"topology": "erdos_renyi", "n": 1000, "edge_prob": 0.02, "seed": 1}
# The dense recovery timed once per round: five runs of this many rounds.
DENSE_RECOVER = {"topology": "complete", "n": 120, "seed": 1}
DENSE_RUNS, DENSE_ROUNDS = 5, 30

# What perfbench's own noise measurements (CHANGES.md FOUND lines) say a
# pair of runs can resolve; the same limits bound a comparison of points.
RESOLUTION = [
    "plan_approx cannot resolve a 1-2% shift: code it never runs read 1.4% lower in 9 of 10 "
    "alternating pairs, and the parent's own code, copied into a second directory, read 0.3% "
    "lower than itself in 5 of 6 pairs.",
    "fit_noisy cannot resolve a 3% change: work_per_s read 2.8% lower in 5 of 5 pairs on a "
    "change that does not touch its path.",
    "setup_s is too noisy to resolve changes well inside its 25% bound: over 4 parent runs "
    "plan_exact read an IQR of 0.079 s on a 0.236 s median (33%), over 10 runs plan_approx "
    "0.016 s on 0.122 s (13%).",
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, action="append", help="checkout whose src/ is measured")
    parser.add_argument("--sha", action="append", help="commit of each --root (default: git)")
    parser.add_argument("--out-dir", type=Path, default=HERE, help="where the JSON files go")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def short_sha(root, sha):
    if sha:
        return sha[:7]
    try:
        return subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--short=7", "HEAD"],
            check=True, capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sys.exit(f"{root} is not a git checkout; give its commit with --sha")


def timed(call):
    start = time.perf_counter()
    result = call()
    return time.perf_counter() - start, result


def plan_answer(plan):
    return [plan.config.adversaries, plan.config.targets, float.hex(plan.predicted_g),
            float.hex(plan.upper_bound), plan.leader_evaluations, plan.follower_candidates]


def recover_answer(result):
    """The bits of one recovery: theta, W, residuals and flags."""
    digest = hashlib.sha256()
    for array in (result.params.stubbornness, result.params.influence, result.per_agent_residual):
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(bytes(result.identifiability_flags))
    return digest.hexdigest()


def dense_recovery_problem(fj):
    params = fj.generate(fj.Scenario(**DENSE_RECOVER))[1]
    rng = np.random.default_rng(DENSE_RECOVER["seed"])
    runs = tuple(fj.simulate(params, rng.uniform(0.0, 1.0, params.n), DENSE_ROUNDS) for _ in range(DENSE_RUNS))
    return fj.RecoveryProblem(network=params.network, trajectories=runs, intrinsic=params.intrinsic)


def measure_round(root):
    """One round on the checkout at ``root``, in this process: a JSON-ready
    dict of grid times, pool times per op, answers and the environment."""
    sys.path[:0] = [str(root / "src"), str(REPO / "perfbench")]
    import fjattack as fj

    source = Path(fj.__file__).resolve().parent
    if source != (root / "src" / "fjattack").resolve():
        sys.exit(f"imported fjattack from {source}, not from {root}")
    import run as perfbench
    from fjattack.harness import result_rows_to_json
    from spans import NullTracer
    from workloads import FitNoisy, PlanExact

    answers, grid = [], []
    for topology, n in GRID:
        params = fj.generate(fj.Scenario(topology=topology, n=n, seed=1))[1]
        # The first plan in a fresh process also pays one-time costs.
        fj.solve_attack(params)
        times = []
        for _ in range(REPEATS):
            seconds, plan = timed(lambda: fj.solve_attack(params))
            times.append(seconds)
        grid.append({"times": times, "leader_evaluations": plan.leader_evaluations})
        answers.append(plan_answer(plan))
    workload = PlanExact()
    workload.setup(POOL_SEED, None, NullTracer())
    pool = {"count": 0.0, "exact": 0.0, "oracle": 0.0}
    for params in workload.pool:
        seconds, count = timed(lambda: fj.count_configurations(params.network))
        pool["count"] += seconds
        seconds, exact = timed(lambda: fj.solve_attack(params, follower_mode="exact"))
        pool["exact"] += seconds
        seconds, oracle = timed(lambda: fj.brute_force_oracle(params))
        pool["oracle"] += seconds
        if exact.config != oracle.config or oracle.follower_candidates != count:
            sys.exit("exact plan and oracle disagree on the plan_exact pool")
        answers.append([plan_answer(exact), plan_answer(oracle)])
    once = {}
    once["ablation_s"], rows = timed(lambda: fj.run_ablation(fj.Scenario(**ABLATION)))
    for row in result_rows_to_json(rows):
        row.pop("wall_time_ms")
        answers.append(row)
    params = fj.generate(fj.Scenario(**FOLLOWER))[1]
    adversaries = tuple(range(params.network.leader_budget()))
    once["follower_s"], (targets, g) = timed(lambda: fj.solve_follower(params, adversaries))
    answers.append([sorted(targets.items()), float.hex(g)])
    fit = FitNoisy()
    fit.setup(POOL_SEED, None, NullTracer())
    problems = [problem for clean, noisy, _ in fit.pool for problem in (clean, noisy)]
    # A first pass pays the one-time costs.
    for problem in problems:
        fj.recover(problem)
    recover_s, results = timed(lambda: [fj.recover(problem) for problem in problems])
    answers.append([recover_answer(result) for result in results])
    problem = dense_recovery_problem(fj)
    once["dense_recover_s"], result = timed(lambda: fj.recover(problem))
    answers.append(recover_answer(result))
    return {
        "environment": perfbench.environment(),
        "grid": grid,
        "instances": len(workload.pool),
        "pool": {name: seconds / len(workload.pool) for name, seconds in pool.items()},
        "once": once,
        "recover_pool": {"problems": len(problems), "s_per_call": recover_s / len(problems)},
        "answers_sha256": hashlib.sha256(json.dumps(answers).encode()).hexdigest(),
    }


def summarize(rounds, sha):
    """The BENCH point of one checkout from its rounds."""
    digests = {one["answers_sha256"] for one in rounds}
    if len(digests) != 1:
        sys.exit(f"{sha}: rounds planned different answers")
    grid = []
    for index, (topology, n) in enumerate(GRID):
        times = [t for one in rounds for t in one["grid"][index]["times"]]
        quartiles = statistics.quantiles(times, n=4)
        grid.append({
            "topology": topology,
            "n": n,
            "median_s": statistics.median(times),
            "iqr_s": quartiles[2] - quartiles[0],
            "runs": len(times),
            "leader_evaluations": rounds[0]["grid"][index]["leader_evaluations"],
        })
    pool = {
        f"{name}_s_per_op": statistics.median(one["pool"][name] for one in rounds)
        for name in ("count", "exact", "oracle")
    }
    once = {}
    dense = {**DENSE_RECOVER, "runs": DENSE_RUNS, "rounds_per_run": DENSE_ROUNDS}
    for name, scenario in (("ablation", ABLATION), ("follower", FOLLOWER), ("dense_recover", dense)):
        times = [one["once"][f"{name}_s"] for one in rounds]
        quartiles = statistics.quantiles(times, n=4)
        once[name] = {
            **scenario,
            "median_s": statistics.median(times),
            "iqr_s": quartiles[2] - quartiles[0],
            "runs": len(times),
        }
    environment = rounds[0]["environment"]
    environment["git_sha"] = sha
    return {
        "date": datetime.date.today().isoformat(),
        "sha": sha,
        "environment": environment,
        "rounds": len(rounds),
        "approx_grid": grid,
        "plan_exact_pool": {
            "pool_seed": POOL_SEED,
            "instances": rounds[0]["instances"],
            **pool,
            "total_s_per_op": sum(pool.values()),
        },
        "run_ablation": once["ablation"],
        "solve_follower": once["follower"],
        "recover_fit_noisy_pool": {
            "pool_seed": POOL_SEED,
            "problems": rounds[0]["recover_pool"]["problems"],
            "s_per_call": statistics.median(one["recover_pool"]["s_per_call"] for one in rounds),
        },
        "recover_complete": once["dense_recover"],
        "answers_sha256": digests.pop(),
        "resolution": RESOLUTION,
        "not_recorded": "the split of each run into search phases (needs a planner trace record)",
    }


def main(argv=None):
    args = parse_args(argv)
    if args.worker:
        json.dump(measure_round(args.worker), sys.stdout)
        return 0
    roots = [root.resolve() for root in args.root or [REPO]]
    shas = args.sha or [None] * len(roots)
    if len(shas) != len(roots):
        sys.exit("give --sha for every --root, or for none")
    shas = [short_sha(root, sha) for root, sha in zip(roots, shas)]
    rounds = {sha: [] for sha in shas}
    for index in range(ROUNDS):
        order = list(zip(roots, shas))
        for root, sha in order if index % 2 == 0 else order[::-1]:
            worker = [sys.executable, __file__, "--worker", str(root)]
            done = subprocess.run(worker, check=True, capture_output=True, text=True)
            rounds[sha].append(json.loads(done.stdout))
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for sha in shas:
        point = summarize(rounds[sha], sha)
        path = args.out_dir / f"BENCH_{point['date']}_{sha}.json"
        path.write_text(json.dumps(point, indent=2) + "\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
