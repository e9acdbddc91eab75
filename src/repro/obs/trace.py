"""Request traces with 1-in-N sampling, and the stage clock that feeds them.

A :class:`Trace` is one request's (or one offline build's) flat list of
:class:`Span` timings, clocked with ``time.perf_counter`` (a monotonic
clock — wall-clock adjustments never corrupt durations; the single
``time.time`` stamp on the trace itself is presentation only).

The :class:`Tracer` is the cheap front door the instrumented code
talks to:

* ``tracer.start(kind)`` / ``tracer.finish(trace)`` — bracket one
  request.  Sampling happens at ``start``: with ``sample_every=N``
  only every N-th request gets a real :class:`Trace`; the rest get the
  shared :data:`NULL_TRACE`, so the unsampled hot path pays one
  counter increment and nothing else.
* ``tracer.clock(trace)`` — a :class:`StageClock` over the tracer's
  ``span_seconds{stage=...}`` histograms (the offline builder and
  ``repro rank`` time their stages with it).

A :class:`StageClock` times consecutive stages with one
``perf_counter`` reading per boundary.  ``clock.lap(stage)`` closes
the running stage — one histogram observation (always, sampled or not:
histograms are the cheap aggregate view) and, when the trace is kept,
one span from the same two readings — then opens *stage* and publishes
it to the profiler's thread→stage map.  ``clock.lap(None)`` closes the
last stage.  The serving path laps its own ``rank_stage_seconds``
histograms the same way.

Finished sampled traces go to the *sink* (``JsonLinesTraceSink`` for
``--trace-out``) and into a small ``recent`` ring buffer for ad-hoc
inspection (``python -m repro stats``).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from repro.obs.registry import DEFAULT_LATENCY_BUCKETS, MetricsRegistry

__all__ = [
    "JsonLinesTraceSink",
    "NULL_CLOCK",
    "NULL_TRACE",
    "Span",
    "StageClock",
    "Trace",
    "Tracer",
    "active_stages",
    "mark_stage",
    "set_stage_tracking",
    "stage_tracking_enabled",
]


# -- thread -> stage map (for the sampling profiler) -----------------------
#
# The stack sampler (repro.obs.profile) attributes CPU samples to the
# stage the sampled thread was executing.  Stage clocks publish their
# current stage here — but only while a sampler has switched tracking
# on, so the instrumented hot path pays exactly one module-global bool
# check per stage boundary when nothing is profiling.  The map is a
# flat {thread ident -> stage name} dict, and the GIL makes the
# int-keyed set/get/delete atomic enough for a sampler that only ever
# *reads*.

_STAGE_TRACKING = False
_THREAD_STAGES: Dict[int, str] = {}


def set_stage_tracking(enabled: bool) -> bool:
    """Turn the thread->stage map on/off; returns the previous state.

    Off also clears the map, so a finished profiling session never
    leaves stale attributions behind.
    """
    global _STAGE_TRACKING
    previous = _STAGE_TRACKING
    _STAGE_TRACKING = bool(enabled)
    if not _STAGE_TRACKING:
        _THREAD_STAGES.clear()
    return previous


def stage_tracking_enabled() -> bool:
    return _STAGE_TRACKING


def mark_stage(stage: Optional[str]) -> Optional[str]:
    """Set (None: clear) the calling thread's stage; returns the old one.

    No-op unless stage tracking is enabled.
    """
    if not _STAGE_TRACKING:
        return None
    ident = threading.get_ident()
    previous = _THREAD_STAGES.get(ident)
    if stage is None:
        _THREAD_STAGES.pop(ident, None)
    else:
        _THREAD_STAGES[ident] = stage
    return previous


def active_stages() -> Dict[int, str]:
    """A point-in-time copy of {thread ident -> current stage}."""
    return dict(_THREAD_STAGES)


class Span:
    """One timed stage inside a trace."""

    __slots__ = ("name", "start", "duration")

    def __init__(self, name: str, start: float, duration: float):
        self.name = name
        self.start = start  # perf_counter seconds, relative to the trace
        self.duration = duration

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start": round(self.start, 9),
            "duration": round(self.duration, 9),
        }


class Trace:
    """One sampled request: a kind, its stage spans, and free-form meta."""

    sampled = True
    __slots__ = ("kind", "timestamp", "started", "duration", "meta", "spans")

    def __init__(self, kind: str):
        self.kind = kind
        self.timestamp = time.time()  # wall-clock stamp for the sink only
        self.started = time.perf_counter()
        self.duration = 0.0
        self.meta: Dict[str, object] = {}
        self.spans: List[Span] = []

    def record(self, name: str, start: float, end: float) -> Span:
        """Attach an already-measured stage (the zero-extra-clock path).

        *start*/*end* are ``perf_counter`` readings the caller already
        took for its own accounting; recording reuses them instead of
        sampling the clock again.
        """
        span = Span(name, start - self.started, end - start)
        self.spans.append(span)
        return span

    def finish(self) -> None:
        self.duration = time.perf_counter() - self.started

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind,
            "timestamp": round(self.timestamp, 6),
            "duration": round(self.duration, 9),
            "spans": [span.to_dict() for span in self.spans],
        }
        if self.meta:
            out["meta"] = dict(self.meta)
        return out


class _NullTrace:
    """Shared stand-in for unsampled requests; every method no-ops."""

    sampled = False
    meta: Dict[str, object] = {}

    def record(self, name: str, start: float, end: float) -> None:
        return None

    def finish(self) -> None:
        pass

    def to_dict(self) -> None:
        return None


NULL_TRACE = _NullTrace()


class StageClock:
    """Times consecutive stages: one ``perf_counter`` reading per boundary.

    *histograms* maps each stage name to the histogram its durations
    feed; *trace* gets one span per closed stage when it is sampled.
    The clock reads ``time.perf_counter`` through the module at every
    lap, so a patched clock is seen by every caller alike.
    """

    __slots__ = ("_histograms", "_trace", "_stage", "_started")

    def __init__(self, histograms: Mapping[str, object], trace=NULL_TRACE):
        self._histograms = histograms
        self._trace = trace
        self._stage: Optional[str] = None
        self._started = 0.0

    def lap(self, stage: Optional[str]) -> float:
        """Close the running stage and open *stage* (None: open nothing).

        Returns the closed stage's seconds, 0.0 when none was running.
        """
        now = time.perf_counter()
        seconds = 0.0
        closed = self._stage
        if closed is not None:
            seconds = now - self._started
            self._histograms[closed].observe(seconds)
            if self._trace.sampled:
                self._trace.record(closed, self._started, now)
        self._stage = stage
        self._started = now
        if _STAGE_TRACKING:
            mark_stage(stage)
        return seconds


class _NullClock:
    """Stand-in clock for callers that time nothing; ``lap`` no-ops."""

    __slots__ = ()

    def lap(self, stage: Optional[str]) -> float:
        return 0.0


NULL_CLOCK = _NullClock()


class JsonLinesTraceSink:
    """Appends one JSON object per finished trace to a file.

    With *max_bytes* set, the file rotates before a write would push it
    past the limit: ``path`` moves to ``path.1`` (older generations
    shift to ``path.2`` … ``path.<keep>``, the oldest is dropped) and a
    fresh ``path`` is opened.  Long-running servers with trace sampling
    on can therefore never fill a disk with one unbounded file.  A
    single record larger than *max_bytes* still gets written whole —
    rotation bounds file growth, it never truncates a record.
    """

    def __init__(self, path, max_bytes: Optional[int] = None, keep: int = 3):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None)")
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self._path = str(path)
        self.max_bytes = max_bytes
        self.keep = int(keep)
        self._lock = threading.Lock()
        self._handle = open(self._path, "a", encoding="utf-8")
        self._size = self._handle.tell()  # append mode: current file size

    @property
    def path(self) -> str:
        return self._path

    def write(self, record: Dict[str, object]) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        encoded = len(line.encode("utf-8"))
        with self._lock:
            if (
                self.max_bytes is not None
                and self._size > 0
                and self._size + encoded > self.max_bytes
            ):
                try:
                    self._rotate()
                except OSError:
                    # A failed shift (permissions, a vanished directory,
                    # a crash-recovery race) must not drop the record:
                    # _rotate's finally clause re-opened the live file,
                    # so appending there keeps the stream ordered and a
                    # later write retries the rotation.
                    pass
            self._handle.write(line)
            self._handle.flush()
            self._size += encoded

    def _rotate(self) -> None:
        """Shift path -> path.1 -> ... -> path.keep (caller holds lock).

        The live file is fsynced *before* any rename: once ``path``
        shows up as ``path.1`` its records are durably on disk, so a
        crash in the middle of the shift can only leave a gap between
        generations, never two files whose records interleave.  The
        shift runs oldest-first for the same reason — at every
        intermediate state generation numbers still increase with age.
        """
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        try:
            oldest = Path(f"{self._path}.{self.keep}")
            if oldest.exists():
                oldest.unlink()
            for generation in range(self.keep - 1, 0, -1):
                source = Path(f"{self._path}.{generation}")
                if source.exists():
                    source.rename(f"{self._path}.{generation + 1}")
            Path(self._path).rename(f"{self._path}.1")
        finally:
            # Reopen whatever `path` now is: a fresh file after a
            # completed rotation, or the still-live one after a failed
            # shift.  A mid-rotation error therefore never leaves the
            # sink without a handle, and appends always land in the
            # newest generation.
            self._handle = open(self._path, "a", encoding="utf-8")
            self._size = self._handle.tell()

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "JsonLinesTraceSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _SpanHistograms(dict):
    """stage -> its ``span_seconds{stage=...}`` histogram, made on first use."""

    def __init__(self, registry: MetricsRegistry):
        super().__init__()
        self._registry = registry

    def __missing__(self, stage: str):
        histogram = self[stage] = self._registry.histogram(
            "span_seconds",
            help="tracer span durations by stage",
            buckets=DEFAULT_LATENCY_BUCKETS,
            stage=stage,
        )
        return histogram


class Tracer:
    """Sampling front door: per-request traces + always-on histograms.

    *sample_every*: keep the spans of every N-th ``start``; 0/None
    disables trace retention entirely (stage histograms still record).
    *sink* receives finished sampled traces as dicts; *keep_last*
    bounds the in-memory ring of recent traces.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        sample_every: Optional[int] = 1,
        sink=None,
        keep_last: int = 8,
    ):
        self._registry = registry if registry is not None else MetricsRegistry(
            enabled=False
        )
        self.sample_every = int(sample_every or 0)
        self.sink = sink
        self.recent: List[Dict[str, object]] = []
        self._keep_last = max(0, int(keep_last))
        self._requests = itertools.count()
        self._lock = threading.Lock()
        self._m_requests = self._registry.counter(
            "trace_requests_total", help="requests seen by the tracer"
        )
        self._m_sampled = self._registry.counter(
            "trace_sampled_total", help="requests that kept a full trace"
        )
        self._span_histograms = _SpanHistograms(self._registry)

    def start(self, kind: str):
        """A :class:`Trace` for every N-th request, NULL_TRACE otherwise."""
        self._m_requests.inc()
        if self.sample_every <= 0:
            return NULL_TRACE
        if next(self._requests) % self.sample_every:
            return NULL_TRACE
        self._m_sampled.inc()
        return Trace(kind)

    def finish(self, trace) -> None:
        """Close a trace from :meth:`start`; ship it if it was sampled."""
        if not trace.sampled:
            return
        trace.finish()
        record = trace.to_dict()
        if self._keep_last:
            with self._lock:
                self.recent.append(record)
                del self.recent[: -self._keep_last]
        if self.sink is not None:
            self.sink.write(record)

    def clock(self, trace=NULL_TRACE) -> StageClock:
        """A stage clock over ``span_seconds{stage}``, spans into *trace*."""
        return StageClock(self._span_histograms, trace)
