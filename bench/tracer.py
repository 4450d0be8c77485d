"""Span tracer that wraps censym's layer boundaries from outside the package.

Each layer's public functions are replaced, in every censym module that
holds them, by a wrapper that records a span: name, start, end and parent
span, under the tracer's pass id.  The classes a layer defines are wrapped
by the same rule: their public methods, property getters, ``__init__`` and
arithmetic dunders count under the layer, named ``layer.Class.method``, so
building a ``Permutation`` or a ``LatticePath`` is charged to ``perms`` or
``paths`` whoever asks for it.  A function is wrapped separately in each
module that holds it, so the counters know which namespace the call went
through: ``perms.lis_length@oracle`` is the oracle's own containment test,
while a call written ``perms.descent_set(p)`` in another module counts as
``@perms``.  A call made while the innermost open span already belongs to
the same layer is counted but gets no span of its own, so spans mark the
places where work crosses from one layer into another.  Generator
functions get one span per resumption, so the time a consumer spends
between two items is not charged to the generator.

Spans stay in memory in flat arrays; ``write_spans`` writes them out once
the pass is over, and ``uninstall`` puts every original function back.
"""

import gzip
import importlib
import inspect
import time
from array import array
from collections import Counter

# censym modules in the order a call descends through them
LAYERS = ("cli", "verify", "tables", "oracle", "bijection", "paths", "perms", "series")

# dunders wrapped on the layers' classes besides their public members:
# construction, and the arithmetic that is the series layer's API
DUNDERS = (
    "__init__", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__",
)
# calls counted as series.ops (__rmul__ is the same method as __mul__)
SERIES_OPS = tuple(
    f"series.BivariateSeries.{method}"
    for method in ("__mul__", "__rmul__", "__truediv__", "sqrt")
)

# functions whose calls also count path steps, from (args, result)
STEP_COUNTERS = {
    "bijection.phi": lambda args, result: len(result),
    "bijection.phi_inverse": lambda args, result: len(args[0]),
}

# the oracle's pattern tests: perms functions looked up in the oracle module
ORACLE_TESTS = ("perms.word_contains_pattern@oracle", "perms.lis_length@oracle")
ORACLE_MEMBERS = "oracle.enumerate_class.items"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """In-memory spans plus named counters for one pass process."""

    def __init__(self, pass_id: int = 0, clock=time.perf_counter):
        self.pass_id = pass_id
        self.clock = clock
        self.names = []  # span name table; spans store an index into it
        self.name_ids = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.open = [-1]  # indices of the spans not yet ended
        self.open_layers = [""]
        self.counts = Counter()
        self._patched = []  # (owner, attribute, original value)

    def __len__(self):
        return len(self.start)

    def enter(self, name: str) -> int:
        name_id = self.name_ids.get(name)
        if name_id is None:
            name_id = self.name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.open[-1])
        self.end.append(0.0)
        self.open.append(index)
        self.open_layers.append(layer_of(name))
        self.start.append(self.clock())
        return index

    def exit(self, index: int):
        self.end[index] = self.clock()
        self.open.pop()
        self.open_layers.pop()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name, caller):
        call_key = f"{name}@{caller}"
        layer = layer_of(name)
        counts = self.counts
        open_layers = self.open_layers
        enter, leave = self.enter, self.exit

        if inspect.isgeneratorfunction(fn):
            items_key = name + ".items"

            def traced_gen(*args, **kwargs):
                counts[call_key] += 1
                it = fn(*args, **kwargs)
                while True:
                    span = None if open_layers[-1] == layer else enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        if span is not None:
                            leave(span)
                    counts[items_key] += 1
                    yield item

            return traced_gen

        steps = STEP_COUNTERS.get(name)
        steps_key = name + ".steps"

        def traced(*args, **kwargs):
            counts[call_key] += 1
            if open_layers[-1] == layer:
                result = fn(*args, **kwargs)
            else:
                span = enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(span)
            if steps is not None:
                counts[steps_key] += steps(args, result)
            return result

        return traced

    def _patch(self, owner, attribute, value):
        self._patched.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def _wrap_member(self, value, name, layer):
        """A class attribute with its function wrapped, or None if it has none."""
        if inspect.isfunction(value):
            return self._wrap(value, name, layer)
        if isinstance(value, (classmethod, staticmethod)):
            return type(value)(self._wrap(value.__func__, name, layer))
        if isinstance(value, property) and value.fget is not None:
            return value.getter(self._wrap(value.fget, name, layer))
        return None

    def install(self):
        """Wrap every layer's public functions wherever censym holds them,
        and the public members and listed dunders of every layer's classes."""
        modules = {layer: importlib.import_module(f"censym.{layer}") for layer in LAYERS}
        names = {}
        classes = []
        for layer, module in modules.items():
            for attribute, value in vars(module).items():
                own = getattr(value, "__module__", None) == module.__name__
                if attribute.startswith("_") or not own:
                    continue
                if inspect.isfunction(value):
                    names[value] = f"{layer}.{attribute}"
                elif inspect.isclass(value):
                    classes.append((layer, value))
        for caller, module in modules.items():
            for attribute, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in names:
                    wrapped = self._wrap(value, names[value], caller)
                    self._patch(module, attribute, wrapped)
        for layer, cls in classes:
            for attribute, value in list(vars(cls).items()):
                if attribute.startswith("_") and attribute not in DUNDERS:
                    continue
                name = f"{layer}.{cls.__name__}.{attribute}"
                wrapped = self._wrap_member(value, name, layer)
                if wrapped is not None:
                    self._patch(cls, attribute, wrapped)

    def uninstall(self):
        """Put back every attribute ``install`` replaced, newest first."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def write_spans(self, path):
        """Append this pass's spans to a gzip CSV: pass,id,name,start,end,parent."""
        with gzip.open(path, "at", encoding="utf-8", compresslevel=1) as out:
            names, pass_id = self.names, self.pass_id
            for index in range(len(self.start)):
                out.write(
                    f"{pass_id},{index},{names[self.name[index]]},"
                    f"{self.start[index]:.9f},{self.end[index]:.9f},"
                    f"{self.parent[index]}\n"
                )

    def summary(self) -> dict:
        return summarize(
            [self.names[i] for i in self.name], self.start, self.end, self.parent, self.counts
        )


def self_times(start, end, parent) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    for s, e, p in zip(start, end, parent):
        if p >= 0:
            own[p] -= e - s
    return own


def summarize(names, start, end, parent, counts) -> dict:
    """Per-layer work counts and times from one pass's spans and counters.

    ``<layer>.calls`` counts every wrapped call, spanned or not.
    ``<layer>.self_s`` sums the self time of the layer's spans.
    ``<layer>.busy_s`` sums the duration of the layer's spans, time spent
    in other layers underneath included.  A span's parent always belongs
    to another layer, censym's modules import one another without cycles,
    and no layer calls methods on objects of a layer above it, so a layer's
    spans never nest and this counts no time twice.
    """
    own = self_times(start, end, parent)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.busy_s"] = 0.0
    for name, s, e, t in zip(names, start, end, own):
        layer = layer_of(name)
        out[f"{layer}.self_s"] += t
        out[f"{layer}.busy_s"] += e - s
    for key, value in counts.items():
        if "@" in key:
            out[f"{layer_of(key)}.calls"] += value
    out["series.ops"] = sum(
        value for key, value in counts.items() if key.split("@")[0] in SERIES_OPS
    )
    members = counts.get(ORACLE_MEMBERS, 0)
    tests = sum(counts.get(key, 0) for key in ORACLE_TESTS)
    out["oracle.members"] = members
    out["oracle.tests_per_member"] = tests / members if members else 0.0
    steps = sum(counts.get(name + ".steps", 0) for name in STEP_COUNTERS)
    busy = out["bijection.busy_s"]
    out["bijection.steps"] = steps
    out["bijection.steps_per_s"] = steps / busy if busy > 0 else 0.0
    return out
