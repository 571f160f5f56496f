"""In-memory span tracer that wraps the package's public functions from outside.

A span is (name, start, end, parent, run): the parent is the index of the
enclosing span (-1 for none) and run names the round it belongs to. Spans are
kept in a list while the benchmark runs and written out once it ends. A
layer's self time is the duration of its spans minus the time their child
spans cover, so by construction the self times of a round's spans add up to
its root span.

Nothing under src/ is changed: each wrapper is installed with setattr on the
module or class where callers look the name up, and removed again on exit.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

# Bookkeeping done after a wrapped call returns (work counters) is charged to
# this span name, so that it neither inflates the wrapped layer nor its parent.
COUNT_SPAN = "trace.count"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.round_counts: list[Counter] = []
        self.run = None
        self._stack: list[tuple[int, bool]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing wrappers ------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None, opaque: bool = False) -> None:
        """Replace owner.attr by a span-recording wrapper.

        Every call adds to the counter "<name>.calls" and every exception to
        "<name>.errors"; count(counts, result, *args) updates further work
        counters after a call that returned.
        An opaque span records no child spans: work it delegates to other
        wrapped functions is charged to its own self time.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if tracer.run is None or (stack and stack[-1][1]):
                return original(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            stack.append((idx, opaque))
            tracer.counts[name + ".calls"] += 1
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".errors"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.run)
            if count is not None:
                count(tracer.counts, result, *args)
                tracer.spans.append((COUNT_SPAN, end, perf_counter(), parent, tracer.run))
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- recording rounds ---------------------------------------------------

    def round_of(self, solve):
        """solve(*args), run as the root span of a round of its own.

        The work counters of each round are kept in round_counts; round k's
        spans have run k.
        """
        def traced(*args):
            self.run = len(self.round_counts)
            self.counts = Counter()
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append((idx, False))
            start = perf_counter()
            try:
                return solve(*args)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = ("bench.round", start, end, -1, self.run)
                self.run = None
                self.round_counts.append(self.counts)

        return traced

    # -- analysis -------------------------------------------------------------

    def self_times(self, run: int) -> dict[str, float]:
        """Total self time per span name over the spans of one round."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, r in self.spans:
            if parent >= 0 and r == run:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, r), child in zip(self.spans, covered):
            if r == run:
                out[name] += end - start - child
        return dict(out)

    def durations(self, name: str, run: int) -> list[float]:
        return [end - start for n, start, end, _, r in self.spans if n == name and r == run]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps([name, start, end, parent, run]) + "\n")
