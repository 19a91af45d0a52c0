"""In-memory span tracer that wraps phicon's public functions from outside.

A span has a name, a start, an end and the span that was open when it
started (its parent). Self time is the span's duration minus the time its
child spans cover. Spans stay in memory and are written out once, at exit.

Functions called once per sentence or token (``hot`` targets) would hold
millions of span records per run, so for those only the per-name totals
(calls, duration, self time) are kept; their time still counts as child time
of the span that called them.

Targets are wrapped by rebinding the module attribute at every import site:
each ``phicon`` module whose namespace holds the original function object
gets the wrapper, so ``phicon.augment.validate_bio`` is traced as well as
``phicon.corpus.validate_bio``. No file of the program is changed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans, per-name totals and named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.stats: dict[str, list] = {}  # name -> [calls, total, self time]
        self.counters: dict[str, float] = {}
        self.memo: dict = {}  # scratch state for observe hooks
        self._child: list[float] = []  # child time of each open span
        self._ids: list[int] = [0]  # ids of the open kept spans; 0 is root
        self._next_id = 1

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def timed(self, name: str, fn, keep: bool = True):
        """fn wrapped so that every call is recorded as a span of ``name``."""
        clock, child, stat = self.clock, self._child, self._stat(name)

        if not keep:
            def call(*args, **kwargs):
                child.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    stat[0] += 1
                    stat[1] += duration
                    stat[2] += duration - child.pop()
                    if child:
                        child[-1] += duration
            return call

        def call(*args, **kwargs):
            opened = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(stat, name, *opened)
        return call

    def _open(self) -> tuple:
        span_id = self._next_id
        self._next_id += 1
        parent = self._ids[-1]
        self._ids.append(span_id)
        self._child.append(0.0)
        return span_id, parent, self.clock()

    def _close(self, stat, name, span_id, parent, start) -> None:
        end = self.clock()
        duration = end - start
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - self._child.pop()
        if self._child:
            self._child[-1] += duration
        self._ids.pop()
        self.spans.append((span_id, parent, name, start, end))

    @contextmanager
    def span(self, name: str):
        """Record the block as one kept span."""
        stat = self._stat(name)
        opened = self._open()
        try:
            yield
        finally:
            self._close(stat, name, *opened)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def records(self):
        """Every kept span, then one totals line per name and the counters,
        as JSON-ready dicts."""
        for span_id, parent, name, start, end in self.spans:
            yield {"id": span_id, "parent": parent, "name": name,
                   "start": start, "end": end}
        for name in sorted(self.stats):
            calls, total, self_time = self.stats[name]
            yield {"totals": name, "calls": calls, "s": total,
                   "self_s": self_time}
        for name in sorted(self.counters):
            yield {"counter": name, "value": self.counters[name]}


def _resolve(module, attr: str):
    """(owner, attribute name, function) for "func" or "Class.method"."""
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _make_wrapper(tracer: Tracer, fn, target):
    timed = tracer.timed(target.span, fn, keep=not target.hot)
    observe = target.observe
    if observe is None:
        return functools.wraps(fn)(timed)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = timed(*args, **kwargs)
        observe(tracer, fn, args, kwargs, result)
        return result
    return wrapper


@contextmanager
def installed(tracer: Tracer, targets):
    """Wrap each target at every import site inside the ``phicon`` package
    for the duration of the block, then restore the originals.

    targets: iterable of objects with ``module`` (e.g. "phicon.corpus"),
    ``attr`` ("validate_bio" or "SynonymProvider.pos_pool"), ``span`` (the
    span name), ``hot`` and ``observe`` (None or a callable taking the
    tracer, the original function, args, kwargs and result). Yields the span
    names of targets whose module or attribute no longer exists; those are
    skipped.
    """
    bindings: list[tuple] = []  # (owner, attribute, original, wrapper)
    absent: list[str] = []
    for t in targets:
        try:
            module = importlib.import_module(t.module)
            owner, attr, original = _resolve(module, t.attr)
        except (ImportError, AttributeError):
            absent.append(t.span)
            continue
        wrapper = _make_wrapper(tracer, original, t)
        if owner is not module:  # a method: its class is the one binding
            bindings.append((owner, attr, original, wrapper))
            continue
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "phicon"
                                   or name.startswith("phicon.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    bindings.append((mod, key, original, wrapper))
    try:
        for owner, attr, _, wrapper in bindings:
            setattr(owner, attr, wrapper)
        yield absent
    finally:
        for owner, attr, original, _ in reversed(bindings):
            setattr(owner, attr, original)
