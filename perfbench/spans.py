"""Span recorder that times pilotkit's layers from outside the program.

``SpanRecorder.install`` replaces every public method of the classes a
layer module defines, and every public module-level function, with a
wrapper that records one span per call: name, thread, start, end and the
span that was open on the same thread when it started (its parent).
Functions that other pilotkit modules imported by name are replaced there
too. ``uninstall`` puts the originals back. Spans are kept in memory, in
per-thread arrays so that no lock is taken on the hot path, and are written
out only when the benchmark asks for them.
"""

from __future__ import annotations

import enum
import gzip
import importlib
import inspect
import itertools
import sys
import threading
import time
from array import array
from collections import Counter

PACKAGE = "pilotkit"

# Modules of the package that are timed; each is one layer of the report.
LAYERS = ("client", "core", "scheduler", "simulator", "executor", "agent",
          "bus", "tracer", "raptor", "analytics")

# Constructors are not public methods, but these do a layer's set-up work.
CONSTRUCTORS = frozenset({"simulator.SimAgent", "agent.LocalAgent", "client.Session"})


class _ThreadSpans:
    """Spans recorded on one thread, one array per field."""

    __slots__ = ("index", "thread_name", "name", "parent", "start", "end",
                 "failed", "stack", "counters")

    def __init__(self, index: int, thread_name: str):
        self.index = index
        self.thread_name = thread_name
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.failed = array("b")
        self.stack: list[int] = []
        self.counters: Counter = Counter()


class SpanSummary:
    """Per-name totals over all finished spans of one recording."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.failed: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.failed_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        # (parent name, child layer) -> total duration of direct children
        self.child_ns: Counter = Counter()
        self.counters: Counter = Counter()
        self.unfinished = 0
        self.spans = 0

    def mean_us(self, name: str, ok_only: bool = False) -> float:
        calls = self.calls[name] - (self.failed[name] if ok_only else 0)
        total = self.total_ns[name] - (self.failed_ns[name] if ok_only else 0)
        return total / calls / 1e3 if calls else 0.0

    def total_s(self, name: str) -> float:
        return self.total_ns[name] / 1e9


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class SpanRecorder:
    """Wraps the layer modules of pilotkit and records a span per call.

    ``hooks`` maps a span name to ``hook(counters, args, result)``, called
    after a successful call to count work at the same boundary.
    """

    def __init__(self, hooks: dict | None = None):
        self.hooks = hooks or {}
        self.names: list[str] = []
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.t0_ns = time.perf_counter_ns()

    # recording -----------------------------------------------------------

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            with self._lock:
                spans = _ThreadSpans(len(self._threads), threading.current_thread().name)
                self._threads.append(spans)
            self._local.spans = spans
        return spans

    def _wrap(self, fn, span_name: str):
        name_id = len(self.names)
        self.names.append(span_name)
        hook = self.hooks.get(span_name)
        get_spans = self._spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            spans = get_spans()
            stack = spans.stack
            idx = len(spans.start)
            spans.name.append(name_id)
            spans.parent.append(stack[-1] if stack else -1)
            spans.failed.append(0)
            spans.end.append(0)
            stack.append(idx)
            spans.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.end[idx] = clock()
                spans.failed[idx] = 1
                stack.pop()
                raise
            spans.end[idx] = clock()
            stack.pop()
            if hook is not None:
                hook(spans.counters, args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", span_name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    # installation --------------------------------------------------------

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, layer: str, cls):
        for attr, value in list(vars(cls).items()):
            qual = f"{layer}.{cls.__name__}.{attr}"
            public = not attr.startswith("_")
            if attr == "__init__" and f"{layer}.{cls.__name__}" in CONSTRUCTORS:
                public = True
            if not public:
                continue
            if isinstance(value, (classmethod, staticmethod)):
                self._patch(cls, attr, type(value)(self._wrap(value.__func__, qual)))
            elif inspect.isfunction(value):
                self._patch(cls, attr, self._wrap(value, qual))

    def install(self):
        """Wrap every layer module; idempotent per recorder."""
        if self._patches:
            return
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, value in list(vars(mod).items()):
                # Private classes count: their public methods are called
                # across modules (the bus endpoint behind every receive).
                if inspect.isclass(value) and value.__module__ == mod.__name__ \
                        and not issubclass(value, (BaseException, enum.Enum)):
                    self._wrap_class(layer, value)
                elif inspect.isfunction(value) and value.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    wrapper = self._wrap(value, f"{layer}.{attr}")
                    replaced[id(value)] = (value, wrapper)
        # Replace each wrapped function wherever a package module holds it,
        # including names imported with ``from .module import function``.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # results -------------------------------------------------------------

    def counters(self) -> Counter:
        """Hook counters summed over threads; ``*_max`` keys take the maximum."""
        total: Counter = Counter()
        for spans in self._threads:
            for key, value in spans.counters.items():
                if key.endswith("_max"):
                    total[key] = max(total[key], value)
                else:
                    total[key] += value
        return total

    def summarize(self) -> SpanSummary:
        """Totals per span name. Self time is a span's duration minus the
        durations of its direct children on the same thread; spans still
        open (a thread that outlived the recording) are left out."""
        out = SpanSummary()
        names = self.names
        layers = [layer_of(n) for n in names]
        for spans in self._threads:
            n = len(spans.start)
            out.spans += n
            name_ids, parents, failed = spans.name, spans.parent, spans.failed
            starts, ends = spans.start, spans.end
            child = array("q", bytes(8 * n))
            for i in range(n):
                p = parents[i]
                if p >= 0 and ends[i]:
                    d = ends[i] - starts[i]
                    child[p] += d
                    out.child_ns[(names[name_ids[p]], layers[name_ids[i]])] += d
            for i in range(n):
                if not ends[i]:
                    out.unfinished += 1
                    continue
                name = names[name_ids[i]]
                d = ends[i] - starts[i]
                out.calls[name] += 1
                out.total_ns[name] += d
                out.self_ns[name] += d - child[i]
                if failed[i]:
                    out.failed[name] += 1
                    out.failed_ns[name] += d
        out.counters = self.counters()
        return out

    def write(self, path: str):
        """Write every span as gzip CSV: thread, index, parent, name,
        start and end in ns since the recorder was created, failed."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("thread,thread_name,index,parent,name,start_ns,end_ns,failed\n")
            t0 = self.t0_ns
            names = self.names
            for spans in self._threads:
                tname = spans.thread_name.replace(",", ";")
                rows = zip(spans.name, spans.parent, spans.start, spans.end, spans.failed)
                for first in range(0, len(spans.start), 65536):
                    fh.write("".join(
                        f"{spans.index},{tname},{i},{p},{names[nid]},{s - t0},"
                        f"{(e - t0) if e else ''},{f}\n"
                        for i, (nid, p, s, e, f) in enumerate(
                            itertools.islice(rows, 65536), first)))
