"""In-memory spans recorded around the benchmark's own calls into fjattack.

A span has a name, a start, an end, a parent span and the op it belongs
to.  Spans stay in memory until the traced run ends, then are written out
once.  Names are ``<layer>.<function>`` for calls into the package and
``bench.<step>`` for the benchmark's own grouping spans, so a layer's self
time is the time its spans cover minus the time covered by their children.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: every span is a shared no-op context manager."""

    enabled = False

    def span(self, name):
        return _NULL_SPAN


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer, index):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        self.tracer._stack.append(self.index)
        self.tracer._records[self.index][4] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._records[self.index][5] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Records spans as ``[id, parent, op, name, start, end]`` lists.

    ``op`` tags every span opened while ``begin_op`` is in force, so spans
    of one operation share an identifier; spans outside any op carry -1.
    """

    enabled = True

    def __init__(self):
        self._records = []
        self._stack = []
        self.op = -1

    def begin_op(self, op):
        self.op = op

    def end_op(self):
        self.op = -1

    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self._records)
        self._records.append([index, parent, self.op, name, 0.0, 0.0])
        return _Span(self, index)

    def records(self):
        return self._records

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for index, parent, op, name, start, end in self._records:
                handle.write(
                    json.dumps(
                        {"id": index, "parent": parent, "op": op, "name": name,
                         "start": start, "end": end}
                    )
                )
                handle.write("\n")


@contextmanager
def wrapped(tracer, module, names):
    """Replace ``module.<name>`` for each name by a copy that runs inside a
    span ``<layer>.<name>``, where the layer is the module's last dotted
    component; the originals are back in place on exit.

    Calls the package makes through that module's globals are then timed
    from inside, with no edit to the package.  A name the module lacks is
    skipped, and its spans simply never appear.
    """
    layer = module.__name__.rsplit(".", 1)[-1]
    originals = {name: getattr(module, name) for name in names if hasattr(module, name)}

    def traced(name, function):
        label = f"{layer}.{name}"

        @wraps(function)
        def call(*args, **kwargs):
            with tracer.span(label):
                return function(*args, **kwargs)

        return call

    for name, function in originals.items():
        setattr(module, name, traced(name, function))
    try:
        yield
    finally:
        for name, function in originals.items():
            setattr(module, name, function)


def summarize(records, root_names):
    """Busy time, self time and call count per span name, per layer.

    Only spans that descend from a span named in ``root_names`` count.
    Returns ``(by_name, self_by_layer)`` where ``by_name[name]`` is
    ``{"busy_s", "self_s", "calls"}`` and ``self_by_layer[layer]`` sums
    the self time of that layer's spans.  Children of one span never
    overlap (the benchmark is single-threaded), so a span's self time is
    its duration minus the sum of its children's durations.
    """
    names = {}
    child_time = defaultdict(float)
    included = set()
    for index, parent, _op, name, start, end in records:
        names[index] = name
        if parent == -1:
            if name in root_names:
                included.add(index)
        elif parent in included:
            included.add(index)
            child_time[parent] += end - start
    by_name = defaultdict(lambda: {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
    self_by_layer = defaultdict(float)
    for index, _parent, _op, name, start, end in records:
        if index not in included:
            continue
        own = (end - start) - child_time[index]
        entry = by_name[name]
        entry["busy_s"] += end - start
        entry["self_s"] += own
        entry["calls"] += 1
        self_by_layer[name.split(".", 1)[0]] += own
    return dict(by_name), dict(self_by_layer)
