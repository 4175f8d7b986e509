"""Span recording around the program's layer functions, from outside.

A :class:`Tracer` patches a function where its caller looks it up (a module
attribute such as ``stages.extract.decode_sentence_triples``, or a method on
a class) with a wrapper that records a span: name, start, end and parent.
Spans stay in memory; :meth:`Tracer.summary` reduces them to per-name call
counts, busy time (span durations) and self time (duration minus the time
covered by child spans). :meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent_index]
        self.counters = defaultdict(float)
        self._stack = []
        self._patched = []

    def span(self, name: str, fn, on_result=None):
        """``fn`` wrapped so each call records a span named ``name``;
        ``on_result(args, result)`` runs after the span closes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            rec = [name, time.perf_counter(), 0.0, parent]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def wrap(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` (looked up in the owner's own namespace)
        with ``make(original)``; :meth:`restore` undoes it."""
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        self.wrap(owner, attr, lambda fn: self.span(name, fn, on_result))

    def count(self, owner, attr: str, counter: str, when=None) -> None:
        """Replace ``owner.attr`` with a wrapper that only counts the calls
        whose positional arguments satisfy ``when`` (all calls if None)."""
        counters = self.counters

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if when is None or when(args):
                    counters[counter] += 1
                return original(*args, **kwargs)

            return wrapper

        self.wrap(owner, attr, make)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        """name → {"calls", "busy_s", "self_s"}: the number of spans, their
        summed duration and their summed self time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["busy_s"] += end - start
            s["self_s"] += (end - start) - child_time[i]
        return out
