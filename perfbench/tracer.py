"""Spans, counters and the arithmetic the report derives from them.

A span is one timed call: name, start, end, the index of the span that was
open when it began (its parent, -1 at top level) and the run id. Spans are
kept in memory and written out when the benchmark ends. The layer of a span
is the part of its name before the first dot ("phasor_net.forward" belongs
to phasor_net), and a layer's self time is the time its spans cover minus
the part of that covered by their child spans.

Everything here uses only the standard library, so the tests can import it
without the package under test.
"""

import functools
import json
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    run_id: str

    @property
    def duration(self):
        return self.end - self.start

    @property
    def layer(self):
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory span and counter recorder built on time.perf_counter."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counters = {}
        self._open = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        rec = Span(name, time.perf_counter(), math.nan, parent, self.run_id)
        self.spans.append(rec)
        self._open.append(index)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, fn, name):
        """fn with every call recorded as a span called name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def durations(self, name, parent=None):
        """Durations of the spans called name, optionally only those whose
        parent span is called parent."""
        return [s.duration for s in self.spans
                if s.name == name and (parent is None or (
                    s.parent >= 0 and self.spans[s.parent].name == parent))]

    def count_within(self, name, ancestor):
        """Number of spans called name that ran inside a span called ancestor."""
        n = 0
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p >= 0 and self.spans[p].name != ancestor:
                p = self.spans[p].parent
            n += p >= 0
        return n

    def dump(self, path):
        """Write the run id, counters and spans as JSON."""
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id, "counters": self.counters,
                       "spans": [asdict(s) for s in self.spans]}, f)


@contextmanager
def traced_calls(tracer, targets):
    """Replace each (owner, attribute) function by a span-recording wrapper
    for the duration of the block, then restore the original.

    The span is named after the defining module without its package prefix,
    the owning class if any, and the attribute: ("optim.Adam", "step") gives
    "optim.Adam.step". Targets that do not exist are skipped and returned in
    the yielded list, so a renamed function shows up as missing, not as a
    crash.
    """
    saved, missing = [], []
    try:
        for owner, attr in targets:
            fn = getattr(owner, attr, None)
            if fn is None:
                missing.append(f"{owner.__name__}.{attr}")
                continue
            module = fn.__module__.rsplit(".", 1)[-1]
            scope = f"{owner.__name__}." if isinstance(owner, type) else ""
            setattr(owner, attr, tracer.wrap(fn, f"{module}.{scope}{attr}"))
            saved.append((owner, attr, fn))
        yield missing
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def self_times(spans):
    """Self time of every span: its duration minus the union of its
    children's intervals (clipped to the span)."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for k in sorted(kids, key=lambda c: c.start):
            lo, hi = max(k.start, reach), min(k.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def layer_self_times(spans):
    """Total self time per layer, in seconds."""
    totals = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s.layer] = totals.get(s.layer, 0.0) + t
    return totals


PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)


def tail_percentile(n):
    """The highest percentile of the ladder with at least ten of n samples
    beyond it, or None when even the median has fewer than ten."""
    best = None
    for p in PERCENTILE_LADDER:
        if round(n * (100.0 - p) / 100.0, 6) >= 10.0:  # 100 - 99.9 is not exact
            best = p
    return best


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def timing_summary(values):
    """Median, the tail percentile chosen by tail_percentile and the sample
    count. Without enough samples for a tail, the tail is the median."""
    n = len(values)
    pct = tail_percentile(n)
    median = statistics.median(values)
    tail = percentile(values, pct) if pct is not None else median
    return {"median": median, "tail": tail,
            "tail_pct": pct if pct is not None else 50.0, "n": n}
