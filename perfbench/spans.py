"""In-memory spans around the calls into each layer, recorded from outside.

A traced run replaces public methods at the layer boundaries with
timing wrappers set as instance attributes on the live objects, so the
program's own code is untouched and the untraced run pays nothing.
Each span has a name, start and end, the span that caused it and the
operation (ranked document) it belongs to.  Spans stay in memory until
the run ends and are written out then.

A layer's self time is its span's duration minus the time its child
spans cover; children of one span run one after another, so that is
the sum of their durations.
"""

import json
import time
from collections import defaultdict


class SpanRecorder:
    """Collects spans and boundary counts for one traced run."""

    def __init__(self):
        # [span id, parent id (-1 for a root), operation, name, start, end]
        self.spans = []
        self.counts = defaultdict(int)
        self.operation = 0
        self._stack = []
        self._installed = []

    def wrap(self, obj, method, name, count=None):
        """Time every call of ``obj.<method>`` as a span called *name*.

        *count*, when given, is called as ``count(counts, args, result)``
        after each call to add boundary counts.
        """
        if method in vars(obj):
            raise RuntimeError(f"{name}: {method} is already wrapped")
        original = getattr(obj, method)
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        def timed(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, self.operation, name, 0.0, 0.0]
            spans.append(span)
            stack.append(span[0])
            span[4] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        setattr(obj, method, timed)
        self._installed.append((obj, method))

    def unwrap_all(self):
        """Remove every wrapper, restoring the class methods."""
        while self._installed:
            obj, method = self._installed.pop()
            delattr(obj, method)

    def totals(self):
        """name -> (span count, summed duration, summed self time)."""
        child_time = defaultdict(float)
        for span_id, parent, __, __, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {}
        for span_id, __, __, name, start, end in self.spans:
            calls, duration, own = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (
                calls + 1,
                duration + (end - start),
                own + (end - start) - child_time[span_id],
            )
        return totals

    def write(self, path):
        """Write the spans as JSON lines, times in µs from the first span."""
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as handle:
            for span_id, parent, operation, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "op": operation,
                            "name": name,
                            "start_us": (start - origin) * 1e6,
                            "dur_us": (end - start) * 1e6,
                        }
                    )
                    + "\n"
                )
