"""Spans and counters recorded around the program's public entry points.

The tracer replaces a function at the binding its caller looks up (a
module attribute, or a class attribute for methods) with a wrapper that
records one span: name, start, end, parent span, job id, the counter
values accumulated while it was open, an optional integer tag computed
from its arguments and result, and whether it raised.  Counted functions
get no span, only a counter increment, because they are called too often
for a span each.  Spans stay in memory in flat arrays until ``write``.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict

NO_PARENT = -1
NO_TAG = -1


class Tracer:
    def __init__(self, counters: tuple[str, ...] = ()) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.tag = array("l")
        self.failed = array("b")
        self.counter_names = counters
        self.counts = {name: 0 for name in counters}
        self.span_counts = {name: array("l") for name in counters}
        self.current_job = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def add_span(self, name: str, start: float, end: float, parent: int,
                 job: int) -> int:
        """Append a span with no tag, failure or counts and return its index."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(self._name_ids[name])
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.job.append(job)
        self.tag.append(NO_TAG)
        self.failed.append(0)
        for cname in self.counter_names:
            self.span_counts[cname].append(0)
        return len(self.name_id) - 1

    def span(self, name: str, fn, tag=None):
        """Wrap ``fn`` so that each call records a span named ``name``."""
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.add_span(name, 0.0, 0.0,
                                  tracer._stack[-1] if tracer._stack else NO_PARENT,
                                  tracer.current_job)
            before = [tracer.counts[c] for c in tracer.counter_names]
            tracer._stack.append(idx)
            failed = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                tracer.failed[idx] = 1 if failed else 0
                for c, b in zip(tracer.counter_names, before):
                    tracer.span_counts[c][idx] = tracer.counts[c] - b
                if tag is not None and not failed:
                    tracer.tag[idx] = tag(args, result)

        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` so that each call increments counter ``name``."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------
    def patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapper = classmethod(wrapper)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self, spans, counted) -> None:
        """Patch ``spans`` [(owner, attr, name, tag)] and ``counted`` [(owner, attr, counter)]."""
        for owner, attr, name, tag in spans:
            self.patch(owner, attr, self.span(name, _unwrap(owner.__dict__[attr]), tag))
        for owner, attr, cname in counted:
            self.patch(owner, attr, self.counter(cname, owner.__dict__[attr]))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def __len__(self) -> int:
        return len(self.name_id)

    def name(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in range(len(self))]
        for idx, par in enumerate(self.parent):
            if par != NO_PARENT:
                kids[par].append(idx)
        return kids

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover.

        Spans come from one thread through a stack, so the children of a
        span are disjoint and lie inside it.
        """
        child_time = [0.0] * len(self)
        for idx, par in enumerate(self.parent):
            if par != NO_PARENT:
                child_time[par] += self.duration(idx)
        out: dict[str, float] = defaultdict(float)
        for idx in range(len(self)):
            out[self.name(idx)] += self.duration(idx) - child_time[idx]
        return dict(out)

    def write(self, path) -> None:
        """Write every span as one gzip'd CSV row."""
        cols = ["name", "start_s", "end_s", "parent", "job", "tag", "failed",
                *self.counter_names]
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(",".join(cols) + "\n")
            for i in range(len(self)):
                row = [self.name(i), repr(self.start[i]), repr(self.end[i]),
                       str(self.parent[i]), str(self.job[i]), str(self.tag[i]),
                       str(self.failed[i])]
                row += [str(self.span_counts[c][i]) for c in self.counter_names]
                out.write(",".join(row) + "\n")


def _unwrap(obj):
    return obj.__func__ if isinstance(obj, classmethod) else obj
