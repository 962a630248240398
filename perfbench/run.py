"""fjattack benchmark: one closed-loop caller, seeded workloads, checked answers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload plan_approx --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run sets the workload up several times (the median
is ``setup_s``), then runs ops back to back for ``--seconds`` seconds and
reports the end-to-end metrics.  With ``--trace 1`` it runs each op twice,
once with spans and once without, alternating which goes first, and
reports per-layer metrics plus the tracing overhead.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# BLAS and OpenMP read these once, when numpy loads them, so they are set
# before anything imports numpy.  With two OpenBLAS threads on a 2-core
# host a single n = 400 closed-form solve swung between 5 ms and 160 ms.
for _variable in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_variable] = "1"

import argparse
import bisect
import ctypes
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from spans import NullTracer, Tracer, summarize, wrapped

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

SETUP_REPEATS = 3

# A shared host's speed drifts by up to +-30% for seconds at a time, because
# other tenants use its cores.  A fixed reference kernel that does not touch
# fjattack runs between ops about every CALIBRATE_EVERY_S of op time; its
# times around each op measure that drift, and end-to-end times are scaled
# to a host on which the kernel takes REFERENCE_KERNEL_S, plus
# REFERENCE_PASS_S per streaming pass.
REFERENCE_KERNEL_S = 0.002
REFERENCE_PASS_S = 0.0005
CALIBRATE_EVERY_S = 0.05

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Throughputs printed for the workloads whose ops report the counter.
RATES = (
    ("sets_per_s", "leader_sets"),
    ("configs_per_s", "follower_configs"),
    ("agents_fitted_per_s", "agents_fitted"),
    ("agent_rounds_per_s", "agent_rounds"),
)

# Per-layer metrics of the traced run.  "per op" values are divided by the
# number of traced ops; a layer a workload never calls reports 0.
PER_OP_BUSY = (
    "optimizer.solve_attack",
    "optimizer.brute_force_oracle",
    "optimizer.count_configurations",
    "adversary.simulate_adversarial",
    "adversary.apply_adversarial_weights",
    "dynamics.simulate",
    "dynamics.closed_form_outcome",
    "dynamics.FjParameters",
    "recovery.recover",
    "fileio.load_parameters",
)
LAYERS = ("optimizer", "adversary", "dynamics", "recovery", "fileio", "bench")
PER_LAYER = (
    tuple((f"{name}.busy_s", "s/op") for name in PER_OP_BUSY)
    + tuple((f"{layer}.self_s", "s/op") for layer in LAYERS)
    + (
        ("optimizer.leader_sets", "count/op"),
        ("optimizer.follower_configs", "count/op"),
        ("optimizer.marginal_gains.us_per_call", "us"),
        ("optimizer.solve_follower.us_per_call", "us"),
        ("optimizer.gains_s", "s/op"),
        ("optimizer.select_rescore_s", "s/op"),
        ("optimizer.leader_loop_self_s", "s/op"),
        ("adversary.adversarial_outcome.us_per_call", "us"),
        ("recovery.recover.calls", "count/op"),
        ("recovery.flagged_frac", "ratio"),
        ("recovery.g_abs_err", "g"),
        ("harness.generate.busy_s", "s"),
        ("trace.ops", "count"),
        ("trace.overhead_frac", "ratio"),
    )
)


# Functions that solve_attack calls through fjattack.optimizer's globals for
# every leader set.  The traced ops wrap them in spans, so solve_attack's own
# time splits into gains, selection plus re-score (the rest of
# _best_response), and the leader loop (solve_attack's self time).
INTERNAL_SPANS = ("marginal_gains", "_best_response")


def add_source_path():
    """Put the checkout's ``src`` first on sys.path; False if it is missing."""
    if not (SOURCE / "fjattack" / "__init__.py").is_file():
        return False
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    return True


def timed_op(workload, index, tracer, check, failures):
    """Run one op; returns (seconds, work units, counters).  A failed check
    or an exception is appended to ``failures`` and the run goes on."""
    start = time.perf_counter()
    try:
        with tracer.span("bench.op"):
            work, counters = workload.op(index, tracer, check)
    except Exception:
        failures.append(traceback.format_exc())
        work, counters = 0, {}
    return time.perf_counter() - start, work, counters


_KERNEL_MATRIX = 10.0 * np.eye(12) + np.arange(144.0).reshape(12, 12) / 144.0


class SpeedProbe:
    """Times a fixed reference kernel about every CALIBRATE_EVERY_S of work.

    The kernel never calls fjattack.  Its small dense solves, fancy
    indexing and dict work slow down with the host the way an op's inner
    loop does; a workload whose ops stream large matrices sets
    ``stream_passes``, and the kernel adds that many products with a
    1000 x 1000 matrix, which slow down the way memory-bound ops do.

    ``scale(at)`` is the reference time over the median kernel time of the
    NEAREST samples taken closest to the moment ``at``: the factor that
    turns a time measured then into one on the reference host.  The host's
    slow spells last seconds, so a local factor tracks them better than
    one factor for the whole run.
    """

    NEAREST = 5

    def __init__(self, stream_passes=0):
        self.stream_passes = stream_passes
        self.reference = REFERENCE_KERNEL_S + stream_passes * REFERENCE_PASS_S
        self.matrix = np.full((1000, 1000), 1e-3) if stream_passes else None
        self.stamps = []
        self.samples = []
        self.pending = 0.0

    def kernel(self):
        """Run the reference kernel once; returns its wall time in seconds."""
        start = time.perf_counter()
        rows = np.arange(12)
        for k in range(60):
            block = _KERNEL_MATRIX[np.ix_(rows, rows)].copy()
            block[k % 12] *= 0.5
            np.linalg.solve(block, np.ones(12))
            table = {i: (i * k) % 7 for i in range(24)}
            sorted(table, key=lambda i: (-table[i], i))
        for _ in range(self.stream_passes):
            self.matrix @ self.matrix[0]
        return time.perf_counter() - start

    def after(self, elapsed):
        self.pending += elapsed
        if self.pending >= CALIBRATE_EVERY_S:
            self.sample()

    def sample(self):
        self.stamps.append(time.perf_counter())
        self.samples.append(self.kernel())
        self.pending = 0.0

    def scale(self, at):
        position = bisect.bisect_left(self.stamps, at)
        low = max(0, min(position - self.NEAREST // 2, len(self.samples) - self.NEAREST))
        return self.reference / statistics.median(self.samples[low : low + self.NEAREST])


def run_verify(workload, tracer, check, failures):
    """Run the workload's after-the-ops reference check, if it has one;
    returns the number of ops it counts as (0 or 1)."""
    verify = getattr(workload, "verify", None)
    if verify is None:
        return 0
    try:
        with tracer.span("bench.verify"):
            verify(tracer, check)
    except Exception:
        failures.append(traceback.format_exc())
    return 1


def add_counters(total, counters):
    for key, value in counters.items():
        total[key] = total.get(key, 0) + value


def run_untraced(workload, seed, seconds, workdir, check):
    """Set up SETUP_REPEATS times, run one untimed warm-up op, then time ops
    for ``seconds``."""
    tracer = NullTracer()
    probe = SpeedProbe(workload.stream_passes)
    failures = []
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(seed, workdir, tracer)
        setups.append((start, time.perf_counter() - start))
        for _ in range(probe.NEAREST):
            probe.sample()
    # The warm-up op stays out of setup_s: its time depends on which
    # instance comes first (on fit_noisy it is 8 ms or 0.4 s).
    timed_op(workload, 0, tracer, check, failures)
    ops, counters = [], {}
    deadline = time.perf_counter() + seconds
    index = 1
    while not ops or time.perf_counter() < deadline:
        start = time.perf_counter()
        elapsed, units, op_counters = timed_op(workload, index, tracer, check, failures)
        probe.after(elapsed)
        ops.append((start, elapsed, units))
        add_counters(counters, op_counters)
        index += 1
    # Checked after the timing, so it costs no op time.
    verified = run_verify(workload, tracer, check, failures)
    times = [elapsed for _, elapsed, _ in ops]
    scaled = [elapsed * probe.scale(start) for start, elapsed, _ in ops]
    scaled_setups = [elapsed * probe.scale(start) for start, elapsed in setups]
    busy = sum(times)
    work = sum(units for _, _, units in ops)
    metrics = {
        "setup_s": statistics.median(scaled_setups),
        "op_p50_s": statistics.median(scaled),
        "op_p90_s": percentile(scaled, 0.9),
        "work_per_s": work / sum(scaled),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "raw.setup_s": statistics.median(elapsed for _, elapsed in setups),
        "raw.op_p50_s": statistics.median(times),
        "raw.op_p90_s": percentile(times, 0.9),
        "raw.work_per_s": work / busy,
        "host_speed_factor": statistics.median(s / t for s, t in zip(scaled, times)),
        "ops_per_s": len(ops) / busy,
        "median_op_work_per_s": statistics.median(units / t for (_, _, units), t in zip(ops, scaled)),
    }
    info.update(
        (name, counters[counter] / busy) for name, counter in RATES if counter in counters
    )
    return metrics, info, len(times) + 1 + verified, failures


def run_traced(workload, seed, seconds, workdir, check, spans_path):
    """Pair every op with a traced copy of itself; returns per-layer metrics."""
    import fjattack.optimizer as optimizer

    tracer = Tracer()
    untraced = NullTracer()
    failures = []
    with tracer.span("bench.setup"):
        workload.setup(seed, workdir, tracer)
    timed_op(workload, 0, untraced, check, failures)  # untimed warm-up op
    traced_s = untraced_s = 0.0
    ops = 0
    counters = {}
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        index = ops + 1
        for traced in ((False, True) if ops % 2 == 0 else (True, False)):
            if traced:
                tracer.begin_op(index)
                with wrapped(tracer, optimizer, INTERNAL_SPANS):
                    elapsed, _, op_counters = timed_op(workload, index, tracer, check, failures)
                tracer.end_op()
                traced_s += elapsed
                add_counters(counters, op_counters)
            else:
                untraced_s += timed_op(workload, index, untraced, check, failures)[0]
        ops += 1
    attempted = 2 * ops + 1 + run_verify(workload, tracer, check, failures)
    records = tracer.records()
    tracer.write(spans_path)
    metrics = layer_metrics(records, counters, ops, traced_s / untraced_s - 1.0)
    return metrics, attempted, failures


def layer_metrics(records, counters, ops, overhead):
    by_name, self_by_layer = summarize(records, {"bench.op"})
    setup, _ = summarize(records, {"bench.setup"})
    verify, _ = summarize(records, {"bench.verify"})

    def total(spans, name, field="busy_s"):
        return spans.get(name, {}).get(field, 0.0)

    def us_per_call(spans, name):
        calls = total(spans, name, "calls")
        return 1e6 * total(spans, name) / calls if calls else 0.0

    metrics = {f"{name}.busy_s": total(by_name, name) / ops for name in PER_OP_BUSY}
    metrics.update({f"{layer}.self_s": self_by_layer.get(layer, 0.0) / ops for layer in LAYERS})
    rows = counters.get("rows_fitted", 0)
    metrics.update(
        {
            "optimizer.leader_sets": counters.get("leader_sets", 0) / ops,
            "optimizer.follower_configs": counters.get("follower_configs", 0) / ops,
            "optimizer.marginal_gains.us_per_call": us_per_call(by_name, "optimizer.marginal_gains"),
            "optimizer.solve_follower.us_per_call": us_per_call(verify, "optimizer.solve_follower"),
            "optimizer.gains_s": total(by_name, "optimizer.marginal_gains") / ops,
            "optimizer.select_rescore_s": total(by_name, "optimizer._best_response", "self_s") / ops,
            "optimizer.leader_loop_self_s": total(by_name, "optimizer.solve_attack", "self_s") / ops,
            "adversary.adversarial_outcome.us_per_call": us_per_call(by_name, "adversary.adversarial_outcome"),
            "recovery.recover.calls": counters.get("recover_calls", 0) / ops,
            "recovery.flagged_frac": counters.get("rows_flagged", 0) / rows if rows else 0.0,
            "recovery.g_abs_err": counters.get("g_abs_err", 0.0) / ops,
            "harness.generate.busy_s": total(setup, "harness.generate"),
            "trace.ops": ops,
            "trace.overhead_frac": overhead,
        }
    )
    return metrics


def percentile(values, share):
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_runtime():
    """Version string and live thread count of each OpenBLAS numpy and scipy load."""
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    found = []
    for package in ("numpy", "scipy"):
        libs = Path(sys.modules[package].__file__).resolve().parent.parent / f"{package}.libs"
        for path in sorted(libs.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            entry = {"library": path.name}
            for field, stem, restype in (
                ("config", "get_config", ctypes.c_char_p),
                ("threads", "get_num_threads", ctypes.c_int),
            ):
                for prefix in ("scipy_openblas_", "openblas_"):
                    for suffix in ("64_", ""):
                        function = getattr(lib, f"{prefix}{stem}{suffix}", None)
                        if function is not None and field not in entry:
                            function.restype = restype
                            value = function()
                            entry[field] = value.decode() if isinstance(value, bytes) else value
            found.append(entry)
    return found


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment():
    import scipy

    uname = os.uname()
    blas = blas_runtime()
    return {
        "host": uname.nodename,
        "machine": uname.machine,
        "kernel": uname.release,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads": max((entry.get("threads", 0) for entry in blas), default=0),
        "git_sha": git_sha(),
    }


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None):
    if not add_source_path():
        print(f"perfbench: no fjattack sources at {SOURCE}", file=sys.stderr)
        return 2
    import fjattack

    if Path(fjattack.__file__).resolve().parent != SOURCE / "fjattack":
        print(f"perfbench: imported fjattack from {fjattack.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Checker

    args = parse_args(argv, sorted(WORKLOADS))
    workload = WORKLOADS[args.workload]()
    check = Checker()
    WORKDIR.mkdir(exist_ok=True)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"work unit: {workload.work_unit}")
    with tempfile.TemporaryDirectory(dir=WORKDIR) as workdir:
        if args.trace:
            spans_path = WORKDIR / f"spans_{args.workload}_seed{args.seed}.jsonl"
            values, attempted, failures = run_traced(
                workload, args.seed, args.seconds, workdir, check, spans_path
            )
            units = dict(PER_LAYER)
            print(f"spans written to {spans_path}")
        else:
            values, info, attempted, failures = run_untraced(
                workload, args.seed, args.seconds, workdir, check
            )
            units = dict(END_TO_END)
            for name, value in info.items():
                print(f"{name:<44} {value:>16.6g}")
    for failure in failures[:3]:
        print(failure, file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:<44} {values[name]:>16.6g} {unit}")
    print(f"{'failed_frac':<44} {len(failures) / attempted:>16.6g} ratio")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
