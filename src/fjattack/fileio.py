"""JSON and CSV file formats.

Network parameters travel as a single JSON object:

    {"n": 3, "edges": [[0, 1], [1, 0]], "theta": [...], "s": [...],
     "w": [[i, j, weight], ...]}

where each w triple gives one nonzero influence entry (omitted entries are
zero).  Counts and indices (n, edge endpoints, weight indices, adversaries
and targets) must be JSON integers: 2.0, true and "2" are refused.  Floats
are written with Python's shortest round-trip repr, so a save/load cycle is
lossless.  Attack configurations and trajectories have similarly small
schemas, documented on their writers.  Result tables are written both as
CSV (6 significant digits) and JSON (12 significant digits); wall-clock
fields are the only nondeterministic content.

Every loader, and the writer that builds a parameter file's payload, runs
with Python's cyclic garbage collector paused (``_collector_paused``): the
decode, the record and type checks and the construction of the network
and parameters.  A decoded payload is a tree of lists, dicts and scalars,
some 40,000 lists for a network of 1,000 agents and 20,000 edges, and
while it is alive every collection that the loader's own allocations
trigger (the decoder's lists, say) walks all of it: a quarter of a load
there, about 20 of 75 ms, when the network still built per-edge tuples.
The pause delays no garbage: a JSON tree holds no reference cycle, so
reference counting frees every part of it when the loader returns.  The
collector is process-wide state, so the pause puts it back as it found
it, on a refusal too: it re-enables the collector only if it was enabled
on entry, and a caller that turned it off finds it off.

Every JSON file has the bytes that ``json.dump(payload, f, indent=2,
sort_keys=True)`` and a newline would write, so files stay diffable and a
re-save is byte-stable.  ``json.dump`` itself is not used: any ``indent``
sends it to the stdlib's pure-Python encoder, about 180 ms of a 190 ms
save at 1,000 agents and 20,000 edges.  ``write_json`` walks in Python
only the containers that hold containers, in the stdlib's order (sorted
keys, then values), and hands the rest to the stdlib's C encoder, built
with that encoder's own string, number and refusal rules
(``encode_basestring_ascii``, ``float.__repr__``, NaN and Infinity, a
TypeError for an object JSON cannot hold).  Its item separator is a line
break and the indent of the items' level, so one C call renders a list of
scalars with only the brackets' lines left to add.  A list of number rows
(``edges``, ``w``, a trajectory's rounds) is one C call too, at the rows'
item indent; the rows' own brackets then sit one level too deep and are
moved by one ``replace`` of ``"],<line>["``.  That holds only if every
"]" and "[" in the text is a row's bracket and every row opens a line, so
the rows path is guarded: every row is a non-empty list or tuple of
numbers, bools or nulls.  Any other list, an empty row or text among the
rows say, is walked item by item.  The text is rendered before the file
is opened, so a payload that cannot be written (an ``np.int64``, a cycle,
refused with the stdlib's TypeError and ValueError) leaves no file or an
old file's bytes.
"""

import csv
import gc
import io
import json
from contextlib import contextmanager
from functools import cache
from itertools import chain, compress, cycle
from json.encoder import c_make_encoder, encode_basestring_ascii

import numpy as np

from .adversary import AttackConfig
from .dynamics import FjParameters, InfluenceNetwork, OpinionTrajectory
from .errors import ValidationError, _as_float, _numbers, check_integral


def round_sig(value, digits):
    """Round a float to the given number of significant digits."""
    return float(f"{value:.{digits}g}")


def format_sig(value, digits):
    """Fixed-significant-digit string for CSV cells; empty for missing values."""
    if value is None or (isinstance(value, float) and np.isnan(value)):
        return ""
    return f"{value:.{digits}g}"


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector; re-enable it only if it was on."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


_INDENT = "  "
_SCALARS = frozenset({str, int, float, bool, type(None)})
_NUMBERS = _SCALARS - {str}


@cache
def _encoder(depth):
    """The stdlib's C encoder, with ``json.dump(indent=2, sort_keys=True)``'s
    rules, whose item separator starts a new line at ``depth`` indents."""
    return c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring_ascii, None,
        ": ", ",\n" + _INDENT * depth, True, False, True,
    )


def _render(value, depth, out, markers):
    """Append the indent=2 text of ``value``, a container's items ``depth + 1``
    indents deep, to ``out``; ``markers`` holds the ids of the containers
    being rendered, to refuse a cycle."""
    if isinstance(value, (list, tuple)):
        if value:
            _render_list(value, depth, out, markers)
        else:
            out.append("[]")
    elif isinstance(value, dict):
        if value:
            _render_dict(value, depth, out, markers)
        else:
            out.append("{}")
    else:
        out += _encoder(0)(value, 0)


def _enter(container, markers):
    if id(container) in markers:
        raise ValueError("Circular reference detected")
    markers.add(id(container))


def _render_list(items, depth, out, markers):
    close = "\n" + _INDENT * depth
    line = close + _INDENT
    kinds = set(map(type, items))
    if kinds <= _SCALARS:
        # "[a,<line>b]" from one C call: only the brackets' lines are missing.
        text = "".join(_encoder(depth + 1)(items, 0))
        out += ("[", line, text[1:-1], close, "]")
    elif kinds <= {list, tuple} and all(items) and set(map(type, chain.from_iterable(items))) <= _NUMBERS:
        # Rows of numbers from one C call, "[[a,<row>b],<row>[c,<row>d]]":
        # with no text in a row, every "]" and "[" is a row's bracket.
        row = line + _INDENT
        text = "".join(_encoder(depth + 2)(items, 0))
        rows = text[2:-2].replace("]," + row + "[", line + "]," + line + "[" + row)
        out += ("[", line, "[", row, rows, line, "]", close, "]")
    else:
        _enter(items, markers)
        separator = "[" + line
        for item in items:
            out.append(separator)
            separator = "," + line
            _render(item, depth + 1, out, markers)
        out += (close, "]")
        markers.remove(id(items))


def _render_dict(mapping, depth, out, markers):
    _enter(mapping, markers)
    close = "\n" + _INDENT * depth
    separator = "{" + close + _INDENT
    for key, value in sorted(mapping.items()):
        if not isinstance(key, str):
            if not (key is None or isinstance(key, (int, float))):
                raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
            key = "".join(_encoder(0)(key, 0))
        out += (separator, encode_basestring_ascii(key), ": ")
        separator = "," + close + _INDENT
        _render(value, depth + 1, out, markers)
    out += (close, "}")
    markers.remove(id(mapping))


def write_json(path, payload):
    """Write the bytes of ``json.dump(payload, f, indent=2, sort_keys=True)``
    and a newline; the text is rendered before ``path`` is opened, so a
    payload that cannot be written leaves no file behind."""
    out = []
    _render(payload, 0, out, set())
    out.append("\n")
    with open(path, "w") as handle:
        handle.writelines(out)


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        handle.write(csv_text(header, rows))


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


@contextmanager
def _malformed(path, what):
    """Refuse, as a malformed ``what`` at ``path``, any TypeError, ValueError
    (a ValidationError of a value rule included), OverflowError or
    AttributeError that reading the decoded payload raises."""
    try:
        yield
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: malformed {what} ({exc})") from exc


def _flat_records(records, width, what):
    """The entries of a JSON list of ``width``-long lists, flattened in record order."""
    if set(map(type, records)) - {list} or set(map(len, records)) - {width}:
        raise ValueError(f"{what} must be lists of {width} numbers")
    return list(chain.from_iterable(records))


@_collector_paused()
def parameters_to_json(params):
    """The file payload of ``params``: W as its nonzero [i, j, weight] triples.

    W is read on its edge list, ``_support``, which is in row order, sorted
    by (i, j), and holds every nonzero (``FjParameters`` refuses weight off
    the edges); an entry of 0.0 or -0.0 is left out, as ``w != 0.0`` does.
    """
    targets, sources = params.network._support
    on_support = params._on_support
    kept = on_support != 0.0
    triples = zip(targets[kept].tolist(), sources[kept].tolist(), on_support[kept].tolist())
    return {
        "n": params.n,
        "edges": params.network.edges.tolist(),
        "theta": params.stubbornness.tolist(),
        "s": params.intrinsic.tolist(),
        "w": list(map(list, triples)),
    }


def save_parameters(params, path):
    write_json(path, parameters_to_json(params))


def _read_network(payload, path, what):
    """The InfluenceNetwork of a file's n and edges; ``what`` names the file kind."""
    with _malformed(path, what):
        (n,) = check_integral([_require(payload, "n", path)], "n")
        ends = check_integral(_flat_records(_require(payload, "edges", path), 2, "edges"), "edge endpoint")
        edges = np.array(ends, dtype=np.int64).reshape(-1, 2)
    return InfluenceNetwork(agent_count=n, edges=edges)


@_collector_paused()
def load_network(path):
    """Network file for recovery: only n and edges are read."""
    return _read_network(read_json(path), path, "network file")


@_collector_paused()
def load_parameters(path):
    """The FjParameters of a parameter file.

    A repeated [i, j, weight] keeps its last weight.  When every kept entry
    lies on an edge, the weights are placed on the edge list and the
    parameters built from it (``FjParameters._from_edge_weights``), with no
    dense pass over W.  Otherwise W is built dense and goes through the
    constructor, which names the problem; the parameters and every refusal
    are the same either way.
    """
    payload = read_json(path)
    network = _read_network(payload, path, "parameter file")
    n = network.agent_count
    with _malformed(path, "parameter file"):
        theta = _numbers(_require(payload, "theta", path), "theta")
        s = _numbers(_require(payload, "s", path), "s")
        entries = _flat_records(_require(payload, "w", path), 3, "weight entries")
        # The (i, j) of each [i, j, weight], in file order.
        index = check_integral(list(compress(entries, cycle((True, True, False)))), "weight index")
        index = np.array(index, dtype=np.int64).reshape(-1, 2)
        weights = _numbers(entries[2::3], "weight")
    outside = ((index < 0) | (index >= n)).any(axis=1)
    if outside.any():
        i, j = index[np.argmax(outside)].tolist()
        raise ValidationError(f"{path}: weight entry ({i}, {j}) out of range")
    # A repeated (i, j) keeps its last value: assign only last occurrences.
    keys = index[:, 0] * n + index[:, 1]
    kept, last = np.unique(keys[::-1], return_index=True)
    last = len(keys) - 1 - last
    # The edges in row order have sorted keys target * n + source.
    targets, sources = network._support
    edge_keys = targets * n + sources
    position = np.searchsorted(edge_keys, kept)
    if (edge_keys.take(position, mode="clip") == kept).all():
        on_support = np.zeros(len(edge_keys))
        on_support[position] = weights[last]
        return FjParameters._from_edge_weights(network, s, theta, on_support)
    w = np.zeros((n, n))
    w[index[last, 0], index[last, 1]] = weights[last]
    return FjParameters(network=network, intrinsic=s, stubbornness=theta, influence=w)


def config_to_json(config):
    return {
        "adversaries": list(config.adversaries),
        "targets": {str(j): list(targets) for j, targets in config.targets},
        "p": config.influence_magnitude,
    }


def save_config(config, path):
    write_json(path, config_to_json(config))


def _target_key(key):
    """A targets key as the adversary it names: only an int's own decimal
    text, so " 2", "+2", "02" and "1_0" name no adversary, and no two keys
    name one."""
    try:
        adversary = int(key)
        if str(adversary) == key:
            return adversary
    except ValueError:
        pass
    raise ValueError(f"targets key must be an integer, got {key!r}")


@_collector_paused()
def load_config(path):
    payload = read_json(path)
    with _malformed(path, "attack config"):
        adversaries = check_integral(_require(payload, "adversaries", path), "adversary")
        targets = {
            _target_key(j): check_integral(chosen, "target")
            for j, chosen in _require(payload, "targets", path).items()
        }
        p = _as_float(_require(payload, "p", path), "p")
    return AttackConfig(adversaries=adversaries, targets=targets, influence_magnitude=p)


def trajectories_to_json(trajectories):
    """The file payload of ``trajectories``: ``n`` and each run's values,
    plus each run's pinned agents under ``pinned`` when some run pins one,
    so a file with no pinned agent keeps its bytes."""
    sizes = {trajectory.n for trajectory in trajectories}
    if len(sizes) != 1:
        raise ValidationError(f"trajectories disagree on agent count: {sorted(sizes)}")
    payload = {
        "n": sizes.pop(),
        "trajectories": [trajectory.values.tolist() for trajectory in trajectories],
    }
    if any(trajectory.pinned for trajectory in trajectories):
        payload["pinned"] = [list(trajectory.pinned) for trajectory in trajectories]
    return payload


def save_trajectories(trajectories, path):
    write_json(path, trajectories_to_json(trajectories))


@_collector_paused()
def load_trajectories(path):
    """The OpinionTrajectory runs of a trajectory file, each with the agents
    its ``pinned`` entry names (none when the file has no ``pinned``)."""
    payload = read_json(path)
    with _malformed(path, "trajectory file"):
        (n,) = check_integral([_require(payload, "n", path)], "n")
        raw = [_numbers(rows, "trajectory entry") for rows in _require(payload, "trajectories", path)]
        pinned = payload.get("pinned", [[]] * len(raw))
        if type(pinned) is not list or set(map(type, pinned)) - {list} or len(pinned) != len(raw):
            raise ValueError("pinned must hold one list of agents per trajectory")
        pinned = [check_integral(agents, "pinned agent") for agents in pinned]
    if not raw:
        raise ValidationError(f"{path}: no trajectories")
    out = []
    for index, (values, agents) in enumerate(zip(raw, pinned)):
        if values.ndim != 2 or values.shape[0] < 2 or values.shape[1] != n:
            raise ValidationError(
                f"{path}: trajectory {index} must be (rounds + 1) x {n} with rounds >= 1"
            )
        outside = [agent for agent in agents if not 0 <= agent < n]
        if outside:
            raise ValidationError(
                f"{path}: trajectory {index} pins agent {outside[0]}, out of range for {n} agents"
            )
        out.append(OpinionTrajectory(rounds=values.shape[0] - 1, values=values, pinned=agents))
    return out


def plan_to_json(plan):
    payload = config_to_json(plan.config)
    payload.update(
        {
            "predicted_g": round_sig(plan.predicted_g, 12),
            "upper_bound": round_sig(plan.upper_bound, 12),
            "leader_evaluations": plan.leader_evaluations,
            "follower_candidates": plan.follower_candidates,
            "wall_time_s": plan.wall_time,
        }
    )
    return payload
