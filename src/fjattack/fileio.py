"""JSON and CSV file formats.

Network parameters travel as a single JSON object:

    {"n": 3, "edges": [[0, 1], [1, 0]], "theta": [...], "s": [...],
     "w": [[i, j, weight], ...]}

where each w triple gives one nonzero influence entry (omitted entries are
zero).  Floats are written with Python's shortest round-trip repr, so a
save/load cycle is lossless.  Attack configurations and trajectories have
similarly small schemas, documented on their writers.  Result tables are
written both as CSV (6 significant digits) and JSON (12 significant
digits); wall-clock fields are the only nondeterministic content.
"""

import csv
import io
import json

import numpy as np

from .adversary import AttackConfig
from .dynamics import FjParameters, InfluenceNetwork, OpinionTrajectory
from .errors import ValidationError


def round_sig(value, digits):
    """Round a float to the given number of significant digits."""
    return float(f"{value:.{digits}g}")


def format_sig(value, digits):
    """Fixed-significant-digit string for CSV cells; empty for missing values."""
    if value is None or (isinstance(value, float) and np.isnan(value)):
        return ""
    return f"{value:.{digits}g}"


def write_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def csv_text(header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _require(payload, key, path):
    if key not in payload:
        raise ValidationError(f"{path}: missing required key {key!r}")
    return payload[key]


def check_integral(values, what):
    """Pass JSON counts or indices through if all are integers, so int() never truncates 2.7."""
    array = np.asarray(values, dtype=float)
    bad = (np.trunc(array) != array) | (np.abs(array) > 2.0**53)
    if bad.any():
        raise ValidationError(f"{what} must be an integer, got {float(array[bad][0])!r}")
    return values


def parameters_to_json(params):
    w = params.influence
    triples = []
    for i, j in np.argwhere(w != 0.0):
        triples.append([int(i), int(j), float(w[i, j])])
    triples.sort(key=lambda t: (t[0], t[1]))
    return {
        "n": params.n,
        "edges": [[src, dst] for src, dst in params.network.edges],
        "theta": [float(x) for x in params.stubbornness],
        "s": [float(x) for x in params.intrinsic],
        "w": triples,
    }


def save_parameters(params, path):
    write_json(path, parameters_to_json(params))


def load_parameters(path, allow_self_loops=False):
    payload = read_json(path)
    try:
        n = int(check_integral(_require(payload, "n", path), "n"))
        edges = check_integral(_require(payload, "edges", path), "edge endpoint")
        edges = [(int(src), int(dst)) for src, dst in edges]
        theta = [float(x) for x in _require(payload, "theta", path)]
        s = [float(x) for x in _require(payload, "s", path)]
        entries = _require(payload, "w", path)
        triples = [(int(i), int(j), float(v)) for i, j, v in entries]
        check_integral(np.asarray(entries, dtype=float)[..., :2], "weight index")
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed parameter file ({exc})") from exc
    network = InfluenceNetwork(agent_count=n, edges=tuple(edges), allow_self_loops=allow_self_loops)
    w = np.zeros((n, n))
    for i, j, value in triples:
        if not (0 <= i < n and 0 <= j < n):
            raise ValidationError(f"{path}: weight entry ({i}, {j}) out of range")
        w[i, j] = value
    return FjParameters(network=network, intrinsic=s, stubbornness=theta, influence=w)


def config_to_json(config):
    return {
        "adversaries": list(config.adversaries),
        "targets": {str(j): list(targets) for j, targets in config.targets},
        "p": config.influence_magnitude,
    }


def save_config(config, path):
    write_json(path, config_to_json(config))


def load_config(path):
    payload = read_json(path)
    try:
        adversaries = check_integral(_require(payload, "adversaries", path), "adversary")
        adversaries = [int(j) for j in adversaries]
        targets = {
            int(j): [int(i) for i in check_integral(chosen, "target")]
            for j, chosen in _require(payload, "targets", path).items()
        }
        p = float(_require(payload, "p", path))
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed attack config ({exc})") from exc
    return AttackConfig(adversaries=adversaries, targets=targets, influence_magnitude=p)


def trajectories_to_json(trajectories):
    sizes = {trajectory.n for trajectory in trajectories}
    if len(sizes) != 1:
        raise ValidationError(f"trajectories disagree on agent count: {sorted(sizes)}")
    return {
        "n": sizes.pop(),
        "trajectories": [
            [[float(x) for x in row] for row in trajectory.values]
            for trajectory in trajectories
        ],
    }


def save_trajectories(trajectories, path):
    write_json(path, trajectories_to_json(trajectories))


def load_trajectories(path):
    payload = read_json(path)
    try:
        n = int(check_integral(_require(payload, "n", path), "n"))
        raw = [np.array(rows, dtype=float) for rows in _require(payload, "trajectories", path)]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed trajectory file ({exc})") from exc
    if not raw:
        raise ValidationError(f"{path}: no trajectories")
    out = []
    for index, values in enumerate(raw):
        if values.ndim != 2 or values.shape[0] < 2 or values.shape[1] != n:
            raise ValidationError(
                f"{path}: trajectory {index} must be (rounds + 1) x {n} with rounds >= 1"
            )
        out.append(OpinionTrajectory(rounds=values.shape[0] - 1, values=values))
    return out


def outcome_to_json(outcome, baseline_g):
    """AdversarialOutcome payload: g, delta_g, the fixed point, and the cast."""
    return {
        "g": round_sig(outcome.g_value, 12),
        "delta_g": round_sig(outcome.g_value - baseline_g, 12),
        "fixed_point": [round_sig(x, 12) for x in outcome.fixed_point],
        "unpinned": list(outcome.unpinned),
        "adversaries": list(outcome.config.adversaries),
    }


def plan_to_json(plan):
    payload = config_to_json(plan.config)
    payload.update(
        {
            "predicted_g": round_sig(plan.predicted_g, 12),
            "leader_evaluations": plan.leader_evaluations,
            "follower_candidates": plan.follower_candidates,
            "wall_time_s": plan.wall_time,
        }
    )
    return payload
