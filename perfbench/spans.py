"""Spans and counts recorded around calls into reillylab's layers.

The benchmark measures every layer from outside: a wrapper replaces a
function or method where the calling module looks it up, so no file of
the program changes.  Each wrapped call becomes a span (id, parent,
operation, name, start, end); spans stay in memory and are written out
when the run ends.  A target that a later version of the program no
longer has is reported as missing instead of raising.

Clocks are ``time.perf_counter``, which on Linux is the system-wide
monotonic clock, so spans recorded in a child process line up with the
parent's spans.
"""

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass


class Tracer:
    """Span stack and counters for one process.

    ``tag`` prefixes span ids so that spans from several processes merge
    without clashes.  Operations are numbered by the benchmark; spans
    recorded outside an operation carry the operation ``None``.
    """

    def __init__(self, tag="", op=None, parent=None):
        self.tag = tag
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self._stack = [] if parent is None else [parent]
        self._next = 0
        self.op = op
        self.missing = set()

    def _new_id(self):
        self._next += 1
        return "%s%d" % (self.tag, self._next)

    def begin(self):
        sid = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def end(self, sid, parent, name, start, stop):
        self._stack.pop()
        self.spans.append((sid, parent, self.op, name, start, stop))

    def count(self, key, amount=1):
        self.counts[self.op][key] += amount

    def span(self, name):
        return _SpanContext(self, name)

    def operation(self, op):
        """Root span named "op" around one benchmark operation."""
        self.op = op
        return _SpanContext(self, "op")

    def merge(self, doc):
        """Add the spans and counts a child process wrote with ``dump``."""
        self.spans.extend(tuple(s) for s in doc["spans"])
        for op, counts in doc["counts"]:
            for key, value in counts.items():
                self.counts[op][key] += value
        self.missing.update(doc["missing"])

    def dump(self):
        return {"spans": [list(s) for s in self.spans],
                "counts": [[op, dict(c)] for op, c in self.counts.items()],
                "missing": sorted(self.missing)}


class _SpanContext:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.sid, self.parent = self.tracer.begin()
        self.start = time.perf_counter()
        return self.sid

    def __exit__(self, *exc):
        self.tracer.end(self.sid, self.parent, self.name, self.start,
                        time.perf_counter())
        return False


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``attr`` (possibly ``Class.method``) as
    module ``module`` binds it.  ``kind`` is "span" or "count"; ``hook``
    reads counts from a span's result."""

    name: str
    module: str
    attr: str
    kind: str = "span"
    hook: object = None

    @property
    def label(self):
        return "%s.%s" % (self.module, self.attr)


def _span_wrapper(tracer, target, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid, parent = tracer.begin()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(sid, parent, target.name, start, time.perf_counter())
        if target.hook is not None:
            target.hook(tracer, result)
        return result
    return wrapper


def _count_wrapper(tracer, target, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(target.name)
        return fn(*args, **kwargs)
    return wrapper


def _resolve(target):
    """(owner, attribute name, current value), or None when missing."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(leaf) if isinstance(owner, type) \
        else getattr(owner, leaf, None)
    if value is None:
        return None
    return owner, leaf, value


def install(tracer, targets):
    """Wrap every target and return a function that undoes it.

    Targets that cannot be found are added to ``tracer.missing``.
    """
    saved = []
    for target in targets:
        found = _resolve(target)
        if found is None:
            tracer.missing.add(target.label)
            continue
        owner, leaf, fn = found
        make = _span_wrapper if target.kind == "span" else _count_wrapper
        setattr(owner, leaf, make(tracer, target, fn))
        saved.append((owner, leaf, fn))

    def restore():
        for owner, leaf, fn in reversed(saved):
            setattr(owner, leaf, fn)
    return restore


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Span id -> duration minus the part its children cover."""
    children = defaultdict(list)
    for sid, parent, _op, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _op, _name, start, end in spans:
        kids = [(max(a, start), min(b, end)) for a, b in children[sid]]
        out[sid] = (end - start) - covered([k for k in kids if k[1] > k[0]])
    return out


def per_operation(spans, counts):
    """Operation -> {"total": {name: s}, "self": {name: s},
    "calls": {name: n}, "counts": {key: n}}.

    "total" is the union of a name's spans, so a layer that calls itself
    is not counted twice.
    """
    selfs = self_times(spans)
    by_op = defaultdict(lambda: defaultdict(list))
    for sid, _parent, op, name, start, end in spans:
        by_op[op][name].append((sid, start, end))
    out = {}
    for op, names in by_op.items():
        if op is None:
            continue
        out[op] = {
            "total": {n: covered([(a, b) for _, a, b in v])
                      for n, v in names.items()},
            "self": {n: sum(selfs[sid] for sid, _, _ in v)
                     for n, v in names.items()},
            "calls": {n: len(v) for n, v in names.items()},
            "counts": dict(counts.get(op, {})),
        }
    return out
