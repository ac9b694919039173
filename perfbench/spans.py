"""Span tracing installed from outside the package.

``install`` wraps the public functions of every layer module of
``amalgams`` and rebinds each wrapped function wherever the package
holds a reference to it: module attributes (including the names that
``from .x import y`` copies into other modules and the package root)
and module-level dispatch dicts such as ``verify.CRITERIA``.  No file
of the package is edited; ``uninstall`` puts every original back.

Each timed call opens a span (name, parent, start, end).  A span's
self time is its duration minus the time of the spans it encloses.
The ``intersections_with_box`` generator is timed only while it runs:
every resume is a span of its own, so the consumer's work between two
pieces stays in the consumer's self time.  Leaf helpers that are called
millions of times per pass are left unwrapped, so that their cost lands
in the caller's self time at its real size; only ``GroupDescriptor.hom_norm``
is counted.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "groups",
    "simplefn",
    "partitions",
    "amalgam",
    "fracmean",
    "counterexample",
    "verify",
    "cli",
)

# Called once per pair of cells (or per exponent) in the O(n^2) loops; a
# wrapper would cost more than the call itself.
UNWRAPPED = {
    "simplefn.boxes_overlap",
    "simplefn.box_intersection",
    "simplefn.box_subtract",
    "fracmean.inv",
    "fracmean.conjugate",
}

# Functions whose span name carries the group of their function argument.
BY_GROUP = {"amalgam.ball_norm", "amalgam.partition_norm", "amalgam.conv_q_indicator"}

SPAN_CAP = 50_000


def _group_of_first(args, kwargs) -> str:
    f = args[0] if args else kwargs["f"]
    return f.group.name


def _grid_size(args, kwargs) -> int:
    grid = args[3] if len(args) > 3 else kwargs["grid"]
    return len(grid.radii())


class Tracer:
    """Aggregated span statistics plus the first ``SPAN_CAP`` raw spans."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[list] = []  # [name, parent index, start, end, busy]
        self.dropped = 0
        self.origin = perf_counter()
        self._stack: list[list] = []  # [span index, start, child time]

    def open(self, name: str, span: int | None = None) -> list:
        """Start timing ``name``; ``span`` resumes an existing raw span."""
        if span is None:
            if len(self.spans) < SPAN_CAP:
                parent = self._stack[-1][0] if self._stack else -1
                span = len(self.spans)
                self.spans.append([name, parent, perf_counter() - self.origin, 0.0, 0.0])
            else:
                span = -1
                self.dropped += 1
        frame = [span, perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def close(self, frame: list, name: str, new_call: bool = True) -> None:
        end = perf_counter()
        self._stack.pop()
        dur = end - frame[1]
        if new_call:
            self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - frame[2]
        if self._stack:
            self._stack[-1][2] += dur
        if frame[0] >= 0:
            rec = self.spans[frame[0]]
            rec[3] = end - self.origin
            rec[4] += dur

    def timed_generator(self, name: str, gen):
        """Re-yield ``gen``, timing only the time spent inside it."""
        span = None
        pieces = 0
        try:
            while True:
                frame = self.open(name, span)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(frame, name, new_call=span is None)
                    span = frame[0]
                pieces += 1
                yield item
        finally:
            self.counts[name + ".pieces"] += pieces

    def dump(self) -> dict:
        """Raw spans in a compact, JSON-ready form (times in seconds)."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "fields": ["name", "parent", "start", "end", "busy"],
            "names": names,
            "spans": [
                [index[n], p, round(s, 7), round(e, 7), round(b, 7)]
                for n, p, s, e, b in self.spans
            ],
            "dropped": self.dropped,
        }


def _timed(tracer: Tracer, name: str, fn, by_group: bool, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = f"{name}.{_group_of_first(args, kwargs)}" if by_group else name
        frame = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame, span)
        if count is not None:
            key, measure = count
            tracer.counts[key] += measure(args, kwargs, result)
        return result

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    calls = tracer.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _generator(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        span = f"{name}.{self.group.name}"
        return tracer.timed_generator(span, fn(self, *args, **kwargs))

    return wrapper


COUNTS = {
    "simplefn.simple_function": ("simplefn.simple_function.cells", lambda a, k, r: len(r.cells)),
    "fracmean.fractional_norm_partition": ("fracmean.radii", lambda a, k, r: _grid_size(a, k)),
    "fracmean.fractional_norm_ball": ("fracmean.radii", lambda a, k, r: _grid_size(a, k)),
}


def install(tracer: Tracer, package):
    """Wrap every public layer function of ``package``; returns an undo callable."""
    criteria = {fn: name for name, fn in package.verify.CRITERIA.items()}
    wrappers = {}
    for layer in LAYERS:
        mod = getattr(package, layer)
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if name in UNWRAPPED:
                continue
            if fn in criteria:
                wrappers[fn] = _timed(tracer, f"verify.{criteria[fn]}", fn, False)
            else:
                wrappers[fn] = _timed(tracer, name, fn, name in BY_GROUP, COUNTS.get(name))

    undo = rebind(package, wrappers)
    methods = (
        (package.groups.GroupDescriptor, "hom_norm", lambda fn: _counted(tracer, "groups.hom_norm", fn)),
        (
            package.partitions.UniformPartition,
            "intersections_with_box",
            lambda fn: _generator(tracer, "partitions.intersections_with_box", fn),
        ),
    )
    for cls, attr, wrap in methods:
        original = vars(cls)[attr]
        setattr(cls, attr, wrap(original))
        undo.append((cls, attr, original))

    return lambda: restore(undo)


def rebind(package, replacements: dict) -> list:
    """Replace each function in ``replacements`` wherever the package holds it.

    Covers module attributes of the package root and of every layer module,
    and the values of their module-level dicts.  Returns the undo list.
    """
    undo = []
    for mod in [package] + [getattr(package, layer) for layer in LAYERS]:
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in replacements:
                setattr(mod, attr, replacements[val])
                undo.append((mod, attr, val))
            elif isinstance(val, dict) and not attr.startswith("__"):
                for key, item in list(val.items()):
                    if inspect.isfunction(item) and item in replacements:
                        val[key] = replacements[item]
                        undo.append((val, key, item))
    return undo


def restore(undo: list) -> None:
    for owner, key, original in reversed(undo):
        if isinstance(owner, dict):
            owner[key] = original
        else:
            setattr(owner, key, original)
