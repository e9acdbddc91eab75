"""Runtime observability: metrics registry, stage spans, trace sinks.

The package keeps one process-wide default pair — a
:class:`MetricsRegistry` (enabled) and a :class:`Tracer` (histograms
on, trace retention off) — that the instrumented layers pick up when
no explicit registry/tracer is handed to them:

* the serving layer (:class:`~repro.runtime.framework.RankerService`,
  the relevance/interestingness stores, :class:`MappedPack`),
* the search engine (query counters by kind),
* the offline builder and ``repro rank`` (per-stage clock laps).

``configure(...)`` swaps in a fresh pair — call it **before**
constructing services or stores, because instrumented objects fetch
their metric handles at construction (that is what keeps the hot path
to ~one array increment per event).  ``python -m repro stats`` renders
the default registry after a sample workload; ``--trace-out`` on the
CLI verbs wires a :class:`JsonLinesTraceSink` into the default tracer.

The model-quality layer lives in explicit submodules — import
``repro.obs.explain`` (score decompositions), ``repro.obs.quality``
(CTR/churn monitors, drift detection), and ``repro.obs.server`` (the
telemetry HTTP server) directly; re-exporting them here would pull the
ranking stack into every ``repro.obs`` import and cycle back into the
instrumented layers.
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullCounter,
    NullGauge,
    NullHistogram,
    escape_label_value,
    render_snapshot,
    unescape_label_value,
)
from repro.obs.trace import (
    NULL_TRACE,
    JsonLinesTraceSink,
    Span,
    StageClock,
    Trace,
    Tracer,
    active_stages,
    mark_stage,
    set_stage_tracking,
    stage_tracking_enabled,
)
from repro.obs.profile import (  # noqa: E402 - needs trace/registry first
    GcMonitor,
    HeapProfiler,
    StackSampler,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "GcMonitor",
    "HeapProfiler",
    "Histogram",
    "JsonLinesTraceSink",
    "MetricsRegistry",
    "NULL_TRACE",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "Span",
    "StackSampler",
    "StageClock",
    "Trace",
    "Tracer",
    "active_stages",
    "configure",
    "escape_label_value",
    "get_registry",
    "get_tracer",
    "mark_stage",
    "render_snapshot",
    "set_registry",
    "set_stage_tracking",
    "set_tracer",
    "stage_tracking_enabled",
    "unescape_label_value",
]

_STATE_LOCK = threading.Lock()
_registry = MetricsRegistry(enabled=True)
_tracer = Tracer(registry=_registry, sample_every=0)


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install *registry* as the default; returns the previous one."""
    global _registry
    with _STATE_LOCK:
        previous, _registry = _registry, registry
    return previous


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Install *tracer* as the default; returns the previous one."""
    global _tracer
    with _STATE_LOCK:
        previous, _tracer = _tracer, tracer
    return previous


def configure(
    enabled: bool = True,
    sample_every: Optional[int] = 0,
    sink=None,
    keep_last: int = 8,
) -> Tuple[MetricsRegistry, Tracer]:
    """Replace the default registry/tracer pair with a fresh one.

    *enabled* turns the metrics surface on/off (off hands out no-op
    metrics); *sample_every* keeps every N-th request's full trace
    (0 disables retention; histograms still record when enabled);
    *sink* receives sampled traces (e.g. a JsonLinesTraceSink).
    Returns the new (registry, tracer) pair.  Construct services and
    stores *after* calling this.
    """
    registry = MetricsRegistry(enabled=enabled)
    tracer = Tracer(
        registry=registry,
        sample_every=sample_every,
        sink=sink,
        keep_last=keep_last,
    )
    set_registry(registry)
    set_tracer(tracer)
    return registry, tracer
