"""Lock-cheap metrics registry: counters, gauges, fixed-bucket histograms.

The serving hot path cannot afford a lock (or even a dict mutation)
per event, so every counter/histogram keeps one small float64 numpy
cell array *per writing thread*.  A thread's first event allocates its
shard under the registry lock; after that, recording an event is ~one
numpy array increment with no locking at all.  Readers merge the shards
on demand (``value`` / ``snapshot``), which is where exactness comes
from: no two threads ever read-modify-write the same cell, so totals
are exact under arbitrary concurrency — a single shared cell would
lose updates whenever two threads interleave inside ``x += 1``.

Metric families are addressed by name plus optional label key/values
(``registry.counter("search_queries_total", kind="phrase")``); the
same (name, labels) pair always returns the same metric object, so
instrumented code fetches its metrics once at construction and holds
them.  A disabled registry hands out shared no-op metrics instead, so
instrumentation sites never need an ``if enabled`` branch.

Exposition: :meth:`MetricsRegistry.snapshot` returns a plain nested
dict (JSON-ready) and :meth:`MetricsRegistry.render_prometheus`
renders the Prometheus text format (histograms as cumulative ``le``
buckets).
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "escape_label_value",
    "render_snapshot",
    "unescape_label_value",
]

# Prometheus-style inclusive upper bounds (an implicit +Inf bucket is
# always appended).  Latencies in seconds, 10 us .. 10 s.
DEFAULT_LATENCY_BUCKETS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
# Batch/cardinality sizes (documents per batch, phrases per lookup...).
DEFAULT_SIZE_BUCKETS = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
)

_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.10g}"


class _Sharded:
    """A per-thread family of float64 cell arrays, merged on read."""

    __slots__ = ("_width", "_lock", "_local", "_shards")

    def __init__(self, width: int, lock: threading.Lock):
        self._width = width
        self._lock = lock
        self._local = threading.local()
        self._shards: List[np.ndarray] = []

    def cells(self) -> np.ndarray:
        """The calling thread's cell array (allocated on first use)."""
        cells = getattr(self._local, "cells", None)
        if cells is None:
            cells = np.zeros(self._width)
            with self._lock:
                self._shards.append(cells)
            self._local.cells = cells
        return cells

    def merged(self) -> np.ndarray:
        with self._lock:
            if not self._shards:
                return np.zeros(self._width)
            # np.add over the stacked shards: one pass, exact for counts
            return np.sum(np.stack(self._shards), axis=0)

    def zero(self) -> None:
        with self._lock:
            for shard in self._shards:
                shard[:] = 0.0


class Counter:
    """Monotonic accumulator (float increments allowed)."""

    kind = "counter"
    __slots__ = ("name", "labels", "help", "_cells")

    def __init__(self, name: str, labels: LabelItems, help: str,
                 lock: threading.Lock):
        self.name = name
        self.labels = labels
        self.help = help
        self._cells = _Sharded(1, lock)

    def inc(self, amount: float = 1.0) -> None:
        self._cells.cells()[0] += amount

    @property
    def value(self) -> float:
        return float(self._cells.merged()[0])

    def _reset(self) -> None:
        self._cells.zero()

    def _series(self) -> Dict[str, object]:
        return {"labels": dict(self.labels), "value": self.value}


class Gauge:
    """Last-written value (low-frequency: sizes, capacities, configs)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "help", "_lock", "_value")

    def __init__(self, name: str, labels: LabelItems, help: str,
                 lock: threading.Lock):
        self.name = name
        self.labels = labels
        self.help = help
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        self.set(0.0)

    def _series(self) -> Dict[str, object]:
        return {"labels": dict(self.labels), "value": self.value}


class Histogram:
    """Fixed-bucket distribution; two array increments per observation.

    Cell layout per shard: one non-cumulative count per bucket bound,
    one overflow (+Inf) count, and the running value sum — observing is
    a bisect plus two ``+=`` on the thread's own array.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "help", "bounds", "_cells")

    def __init__(self, name: str, labels: LabelItems, help: str,
                 lock: threading.Lock,
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram buckets must be increasing and non-empty")
        self.name = name
        self.labels = labels
        self.help = help
        self.bounds = bounds
        self._cells = _Sharded(len(bounds) + 2, lock)

    def observe(self, value: float) -> None:
        cells = self._cells.cells()
        cells[bisect_left(self.bounds, value)] += 1.0
        cells[-1] += value

    @property
    def count(self) -> int:
        return int(self._cells.merged()[:-1].sum())

    @property
    def sum(self) -> float:
        return float(self._cells.merged()[-1])

    def bucket_counts(self) -> List[int]:
        """Non-cumulative per-bucket counts (+Inf overflow last)."""
        return [int(c) for c in self._cells.merged()[:-1]]

    def cumulative(self) -> List[Tuple[str, int]]:
        """Prometheus-style (le, cumulative count) pairs, +Inf last."""
        merged = self._cells.merged()[:-1]
        running = np.cumsum(merged)
        pairs = [
            (_format_value(bound), int(total))
            for bound, total in zip(self.bounds, running[:-1])
        ]
        pairs.append(("+Inf", int(running[-1])))
        return pairs

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the q-quantile (0 <= q <= 1).

        An empty histogram has no quantiles: the answer is ``nan``
        ("no data"), never 0.0 — a zero reads as "zero latency" on a
        dashboard, which is the opposite of "we have seen nothing".
        """
        counts = self._cells.merged()[:-1]
        total = counts.sum()
        if total <= 0:
            return float("nan")
        target = q * total
        running = 0.0
        for index, count in enumerate(counts.tolist()):
            running += count
            # `running > 0` keeps q=0.0 from answering with an empty
            # leading bucket's bound — the minimum observed value can
            # only live in the first *populated* bucket.
            if running >= target and running > 0:
                return self.bounds[index] if index < len(self.bounds) else float("inf")
        return float("inf")

    def _reset(self) -> None:
        self._cells.zero()

    def _series(self) -> Dict[str, object]:
        return {
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.sum,
            "buckets": [[le, count] for le, count in self.cumulative()],
        }


class NullCounter:
    """No-op stand-in handed out by a disabled registry."""

    kind = "counter"
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def _reset(self) -> None:
        pass


class NullGauge:
    kind = "gauge"
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float = 1.0) -> None:
        pass

    def _reset(self) -> None:
        pass


class NullHistogram:
    kind = "histogram"
    count = 0
    sum = 0.0
    bounds = ()

    def observe(self, value: float) -> None:
        pass

    def bucket_counts(self) -> List[int]:
        return []

    def cumulative(self) -> List[Tuple[str, int]]:
        return []

    def quantile(self, q: float) -> float:
        return float("nan")  # a null histogram never has data

    def _reset(self) -> None:
        pass


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()


class MetricsRegistry:
    """Get-or-create metric families keyed by (name, sorted labels).

    One registry is the unit of exposition: everything registered here
    appears in :meth:`snapshot` and :meth:`render_prometheus`.  The
    registry lock guards registration and shard creation only — the
    event path is lock-free (see module docstring).
    """

    def __init__(self, enabled: bool = True):
        self._enabled = bool(enabled)
        # RLock, not Lock: a GC callback (GcMonitor) can fire on an
        # allocation made *while holding* this lock — e.g. inside
        # _get_or_create — and the callback observes into a histogram
        # of the same registry, re-entering cells() on the same
        # thread.  A plain Lock self-deadlocks there.
        self._lock = threading.RLock()
        self._metrics: Dict[Tuple[str, LabelItems], object] = {}
        self._families: Dict[str, str] = {}  # name -> kind

    @property
    def enabled(self) -> bool:
        return self._enabled

    def _get_or_create(self, cls, name: str, help: str,
                       labels: Dict[str, object], **kwargs):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        key = (name, _label_items(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                kind = self._families.get(name)
                if kind is not None and kind != cls.kind:
                    raise ValueError(
                        f"metric {name!r} already registered as a {kind}"
                    )
                metric = cls(name, key[1], help, self._lock, **kwargs)
                self._metrics[key] = metric
                self._families[name] = cls.kind
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as a {metric.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        if not self._enabled:
            return _NULL_COUNTER
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        if not self._enabled:
            return _NULL_GAUGE
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        **labels,
    ) -> Histogram:
        if not self._enabled:
            return _NULL_HISTOGRAM
        return self._get_or_create(
            Histogram, name, help, labels, buckets=buckets
        )

    # -- exposition --------------------------------------------------------

    def _grouped(self) -> Dict[str, List[object]]:
        with self._lock:
            metrics = list(self._metrics.values())
        grouped: Dict[str, List[object]] = {}
        for metric in metrics:
            grouped.setdefault(metric.name, []).append(metric)
        return grouped

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Nested JSON-ready dict: name -> {type, help, series: [...]}."""
        out: Dict[str, Dict[str, object]] = {}
        for name, metrics in sorted(self._grouped().items()):
            out[name] = {
                "type": metrics[0].kind,
                "help": metrics[0].help,
                "series": [metric._series() for metric in metrics],
            }
        return out

    def render_prometheus(self, prefix: str = "repro_") -> str:
        """The Prometheus text exposition format for every family."""
        return render_snapshot(self.snapshot(), prefix=prefix)

    def reset(self) -> None:
        """Zero every registered metric (families stay registered)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric._reset()


def render_snapshot(
    snapshot: Dict[str, Dict[str, object]], prefix: str = "repro_"
) -> str:
    """Prometheus text for a :meth:`MetricsRegistry.snapshot` dict.

    Works on any snapshot-shaped payload, not just a live registry —
    ``python -m repro stats --snapshot FILE`` and ``--url`` render
    metrics captured by another process (or fetched over HTTP) through
    this same path, so the output is identical to what the originating
    process would have printed.
    """
    lines: List[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        full = prefix + name
        if family.get("help"):
            lines.append(f"# HELP {full} {family['help']}")
        lines.append(f"# TYPE {full} {family['type']}")
        for series in family.get("series", []):
            items = _label_items(series.get("labels", {}))
            base = _render_labels(items)
            if family["type"] == "histogram":
                for le, count in series.get("buckets", []):
                    labelset = _render_labels(items + (("le", str(le)),))
                    lines.append(f"{full}_bucket{labelset} {int(count)}")
                lines.append(
                    f"{full}_sum{base} {_format_value(float(series['sum']))}"
                )
                lines.append(f"{full}_count{base} {int(series['count'])}")
            else:
                lines.append(
                    f"{full}{base} {_format_value(float(series['value']))}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Inside a label value exactly three characters are escaped:
    backslash (``\\``), double-quote (``\"``), and line-feed (``\n``)
    — backslash first, so the other escapes are unambiguous and the
    encoding round-trips through :func:`unescape_label_value`.
    """
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def unescape_label_value(value: str) -> str:
    """Invert :func:`escape_label_value` (for tests and scrapers)."""
    out: List[str] = []
    index = 0
    while index < len(value):
        char = value[index]
        if char == "\\" and index + 1 < len(value):
            follower = value[index + 1]
            if follower in ('"', "\\"):
                out.append(follower)
                index += 2
                continue
            if follower == "n":
                out.append("\n")
                index += 2
                continue
        out.append(char)
        index += 1
    return "".join(out)


def _render_labels(items: LabelItems) -> str:
    if not items:
        return ""
    body = ",".join(
        f'{key}="{escape_label_value(value)}"' for key, value in items
    )
    return "{" + body + "}"
