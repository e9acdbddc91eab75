"""Continuous profiling: sampling stack profiler + heap/GC telemetry.

Three independent instruments, all stdlib-only and cheap enough to run
under production traffic:

* :class:`StackSampler` — a daemon thread that walks
  ``sys._current_frames()`` at a configurable rate (default 97 hz, a
  prime so the cadence cannot alias with common loop periods), interns
  each code frame once, and folds the observed stacks into a call
  tree.  Samples are attributed per thread *and* per stage: every
  :class:`~repro.obs.trace.StageClock` publishes a thread→stage map
  while a sampler is running, so the CPU breakdown joins directly
  against the stage histograms the same clock laps feed
  (``rank_stage_seconds`` / ``span_seconds``) — the same stage names,
  now with per-frame attribution behind them.  Exports: the
  collapsed-stack text format (``a;b;c 42`` — pipe straight into
  ``flamegraph.pl``), a JSON call tree, and top-N stacks.

* :class:`GcMonitor` — hooks ``gc.callbacks`` and turns collector runs
  into registry telemetry: ``gc_pause_seconds`` (histogram),
  ``gc_collections_total{generation=...}``, collected/uncollectable
  counters, plus an on-demand :meth:`GcMonitor.snapshot` for
  ``GET /debug/gc``.

* :class:`HeapProfiler` — tracemalloc start/stop with net-allocation
  attribution keyed by stage (:meth:`HeapProfiler.stage` — the offline
  builder brackets every build stage with it), labeled snapshots with
  top-allocation diffs, and ``heap_current_bytes``/``heap_peak_bytes``
  gauges.

:func:`resident_bytes` and :func:`record_resident_bytes` complete the
memory picture for the *frozen* side: they walk an object graph for
numpy arrays / byte buffers and fold the totals into
``resident_bytes{component=...}`` gauges (the serving stores' packed
and coded arenas — see ``RankerService.observe_resident_bytes``).

The sampler's overhead contract is enforced by
``benchmarks/bench_profile.py``: ≤ 2% throughput cost at 97 hz on the
automaton hot path, ranked output byte-identical.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.obs.registry import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from repro.obs.trace import active_stages, set_stage_tracking

__all__ = [
    "GcMonitor",
    "HeapProfiler",
    "StackSampler",
    "active_heap_profiler",
    "heap_stage",
    "record_resident_bytes",
    "resident_bytes",
]

DEFAULT_HZ = 97  # prime: never phase-locks with ms-aligned loop periods

# Samples that hit a thread no span/stage has claimed.
UNTRACKED_STAGE = "untracked"

# GC pauses are short; reuse the latency buckets (10 us .. 10 s).
_GC_PAUSE_BUCKETS = DEFAULT_LATENCY_BUCKETS


def _default_registry() -> MetricsRegistry:
    from repro.obs import get_registry

    return get_registry()


# ---------------------------------------------------------------------------
# sampling stack profiler
# ---------------------------------------------------------------------------


def _frame_label(code) -> str:
    """``func (dir/file.py:firstlineno)`` — short, stable, ';'-free."""
    filename = code.co_filename.replace("\\", "/")
    parts = filename.rsplit("/", 2)
    short = "/".join(parts[-2:]) if len(parts) > 1 else filename
    return f"{code.co_name} ({short}:{code.co_firstlineno})".replace(";", ",")


class StackSampler:
    """Low-overhead sampling profiler over ``sys._current_frames()``.

    One daemon thread wakes every ``1/hz`` seconds, snapshots every
    thread's current frame stack, and folds each stack (root-first) into
    an interned tuple of frame ids — the walk allocates nothing per
    frame beyond the first sighting of a code object.  All mutation
    happens on the sampler thread; exports take the same lock the
    sampler holds per tick, so they see consistent counts while it
    runs.

    *track_stages* joins samples against the stage clocks' thread→stage
    map (enabled for the duration of the run, restored on stop); stage
    sample counts are also folded into the *registry* as
    ``profile_samples_total{stage=...}`` so the CPU breakdown lands
    next to the ``span_seconds`` histograms it explains.

    Use as a context manager (``with StackSampler() as sampler:``) or
    via explicit :meth:`start`/:meth:`stop`.
    """

    def __init__(
        self,
        hz: float = DEFAULT_HZ,
        registry: Optional[MetricsRegistry] = None,
        track_stages: bool = True,
        max_stack_depth: int = 256,
    ):
        if hz <= 0:
            raise ValueError("hz must be positive")
        self.hz = float(hz)
        self.max_stack_depth = int(max_stack_depth)
        self._track_stages = bool(track_stages)
        self._registry = (
            registry if registry is not None else _default_registry()
        )
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._previous_tracking: Optional[bool] = None
        # frame interning: code object -> id, id -> rendered label
        self._frame_ids: Dict[object, int] = {}
        self._frame_labels: List[str] = []
        # (stage, root-first frame-id tuple) -> sample count
        self._counts: Dict[Tuple[str, Tuple[int, ...]], int] = {}
        self._thread_names: Dict[int, str] = {}  # ident -> name cache
        self._thread_counts: Dict[str, int] = {}
        self._stage_counts: Dict[str, int] = {}
        self.sample_ticks = 0  # sampler wake-ups
        self.sample_count = 0  # thread stacks folded
        self.started_at: Optional[float] = None
        self.stopped_at: Optional[float] = None
        self._m_ticks = self._registry.counter(
            "profile_sample_ticks_total", help="stack-sampler wake-ups"
        )
        self._m_stage_samples: Dict[str, object] = {}

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "StackSampler":
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        if self._track_stages:
            self._previous_tracking = set_stage_tracking(True)
        self._stop_event.clear()
        self.started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="stack-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "StackSampler":
        if self._thread is None:
            return self
        self._stop_event.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self.stopped_at = time.perf_counter()
        if self._track_stages and self._previous_tracking is not None:
            set_stage_tracking(self._previous_tracking)
            self._previous_tracking = None
        return self

    def __enter__(self) -> "StackSampler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def duration_seconds(self) -> float:
        if self.started_at is None:
            return 0.0
        end = (
            self.stopped_at
            if self.stopped_at is not None
            else time.perf_counter()
        )
        return end - self.started_at

    # -- the sampling loop -------------------------------------------------

    def _run(self) -> None:
        interval = 1.0 / self.hz
        own_ident = threading.get_ident()
        next_tick = time.perf_counter() + interval
        # Event.wait gives both the cadence and prompt shutdown; the
        # absolute-deadline arithmetic keeps the average rate at hz even
        # when one tick runs long.
        while not self._stop_event.wait(
            max(0.0, next_tick - time.perf_counter())
        ):
            next_tick += interval
            self._sample_once(own_ident)
            behind = time.perf_counter() - next_tick
            if behind > interval:  # fell behind: drop missed ticks
                next_tick += interval * int(behind / interval)

    def _sample_once(self, own_ident: int) -> None:
        stages = active_stages() if self._track_stages else {}
        # sys._current_frames() holds the interpreter's thread-list lock
        # while it allocates frame objects.  A collection triggered there
        # can run a finalizer that releases the GIL, and a thread that is
        # starting or exiting then takes the GIL and blocks on that lock:
        # a deadlock.  No collection may run inside the call.
        collecting = gc.isenabled()
        gc.disable()
        try:
            frames = sys._current_frames()
        finally:
            if collecting:
                gc.enable()
        # threading.enumerate() walks a lock-guarded list and allocates;
        # at ~100 hz that is real overhead, so names are cached by ident
        # and the walk only happens when an unseen thread appears
        names = self._thread_names
        if any(ident not in names for ident in frames):
            for thread in threading.enumerate():
                if thread.ident is not None:
                    names[thread.ident] = thread.name
        with self._lock:
            self.sample_ticks += 1
            self._m_ticks.inc()
            for ident, frame in frames.items():
                if ident == own_ident:
                    continue
                stack = self._fold(frame)
                if not stack:
                    continue
                stage = stages.get(ident, UNTRACKED_STAGE)
                key = (stage, stack)
                self._counts[key] = self._counts.get(key, 0) + 1
                name = names.get(ident, f"thread-{ident}")
                self._thread_counts[name] = (
                    self._thread_counts.get(name, 0) + 1
                )
                self._stage_counts[stage] = (
                    self._stage_counts.get(stage, 0) + 1
                )
                counter = self._m_stage_samples.get(stage)
                if counter is None:
                    counter = self._registry.counter(
                        "profile_samples_total",
                        help="CPU samples by active tracer stage",
                        stage=stage,
                    )
                    self._m_stage_samples[stage] = counter
                counter.inc()
                self.sample_count += 1

    def _fold(self, frame) -> Tuple[int, ...]:
        """Intern one thread's stack, root-first."""
        ids: List[int] = []
        depth = 0
        frame_ids = self._frame_ids
        while frame is not None and depth < self.max_stack_depth:
            code = frame.f_code
            frame_id = frame_ids.get(code)
            if frame_id is None:
                frame_id = len(self._frame_labels)
                self._frame_labels.append(_frame_label(code))
                frame_ids[code] = frame_id
            ids.append(frame_id)
            frame = frame.f_back
            depth += 1
        ids.reverse()
        return tuple(ids)

    # -- exports -----------------------------------------------------------

    def _snapshot_counts(
        self, stage: Optional[str]
    ) -> Dict[Tuple[int, ...], int]:
        """Folded counts (optionally one stage's), under the lock."""
        with self._lock:
            items = list(self._counts.items())
        merged: Dict[Tuple[int, ...], int] = {}
        for (sample_stage, stack), count in items:
            if stage is not None and sample_stage != stage:
                continue
            merged[stack] = merged.get(stack, 0) + count
        return merged

    def collapsed(self, stage: Optional[str] = None) -> str:
        """flamegraph.pl collapsed-stack text: ``frame;frame;... count``.

        Lines are sorted by count (desc) then stack (asc), so the
        output is deterministic for a given set of samples.  *stage*
        restricts to samples attributed to that tracer stage.
        """
        labels = self._frame_labels
        rows = [
            (";".join(labels[fid] for fid in stack), count)
            for stack, count in self._snapshot_counts(stage).items()
        ]
        rows.sort(key=lambda row: (-row[1], row[0]))
        return "\n".join(f"{stack} {count}" for stack, count in rows) + (
            "\n" if rows else ""
        )

    def top_stacks(
        self, limit: int = 10, stage: Optional[str] = None
    ) -> List[Dict[str, object]]:
        """The *limit* hottest whole stacks, as JSON-ready dicts."""
        lines = self.collapsed(stage).splitlines()[: max(0, int(limit))]
        out = []
        for line in lines:
            stack, __, count = line.rpartition(" ")
            out.append({"stack": stack, "samples": int(count)})
        return out

    def top_functions(self, limit: int = 10) -> List[Dict[str, object]]:
        """Hottest leaf frames (self samples), JSON-ready."""
        leaf_counts: Dict[int, int] = {}
        for stack, count in self._snapshot_counts(None).items():
            leaf_counts[stack[-1]] = leaf_counts.get(stack[-1], 0) + count
        rows = sorted(
            leaf_counts.items(),
            key=lambda item: (-item[1], self._frame_labels[item[0]]),
        )
        return [
            {"function": self._frame_labels[fid], "self_samples": count}
            for fid, count in rows[: max(0, int(limit))]
        ]

    def call_tree(self) -> Dict[str, object]:
        """The folded samples as one JSON call tree.

        Every node: ``{"name", "value" (total samples through the
        node), "self" (samples with the node on top), "children"}`` —
        children sorted by value desc, name asc (deterministic).
        """
        root = {"name": "root", "value": 0, "self": 0, "children": {}}
        labels = self._frame_labels
        for stack, count in self._snapshot_counts(None).items():
            root["value"] += count
            node = root
            for fid in stack:
                name = labels[fid]
                child = node["children"].get(name)
                if child is None:
                    child = {
                        "name": name, "value": 0, "self": 0, "children": {}
                    }
                    node["children"][name] = child
                child["value"] += count
                node = child
            node["self"] += count

        def _finalize(node):
            children = sorted(
                node["children"].values(),
                key=lambda child: (-child["value"], child["name"]),
            )
            node["children"] = [_finalize(child) for child in children]
            return node

        return _finalize(root)

    def stage_samples(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._stage_counts)

    def thread_samples(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._thread_counts)

    def stats(self) -> Dict[str, object]:
        """One JSON-ready summary block (the /debug/profile envelope)."""
        return {
            "hz": self.hz,
            "duration_seconds": round(self.duration_seconds, 6),
            "sample_ticks": self.sample_ticks,
            "samples": self.sample_count,
            "distinct_stacks": len(self._snapshot_counts(None)),
            "stages": self.stage_samples(),
            "threads": self.thread_samples(),
        }

    def write_collapsed(self, path, stage: Optional[str] = None) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.collapsed(stage))


# ---------------------------------------------------------------------------
# GC telemetry
# ---------------------------------------------------------------------------


class GcMonitor:
    """``gc.callbacks`` → pause histogram + per-generation counters.

    CPython invokes the callbacks synchronously around every collector
    run on whichever thread triggered it, so pairing the ``start`` and
    ``stop`` phases per thread ident yields exact pause durations.
    Registry families: ``gc_pause_seconds`` (histogram),
    ``gc_collections_total{generation}``, ``gc_collected_objects_total``
    and ``gc_uncollectable_objects_total``.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        registry = registry if registry is not None else _default_registry()
        self._m_pauses = registry.histogram(
            "gc_pause_seconds",
            help="stop-the-world GC pause durations",
            buckets=_GC_PAUSE_BUCKETS,
        )
        self._m_collections = {
            generation: registry.counter(
                "gc_collections_total",
                help="collector runs by generation",
                generation=generation,
            )
            for generation in (0, 1, 2)
        }
        self._m_collected = registry.counter(
            "gc_collected_objects_total", help="objects freed by the GC"
        )
        self._m_uncollectable = registry.counter(
            "gc_uncollectable_objects_total",
            help="objects the GC found uncollectable",
        )
        self._starts: Dict[int, float] = {}
        self._installed = False
        self.pause_count = 0
        self.total_pause_seconds = 0.0
        self.max_pause_seconds = 0.0

    def start(self) -> "GcMonitor":
        if not self._installed:
            gc.callbacks.append(self._callback)
            self._installed = True
        return self

    def stop(self) -> "GcMonitor":
        if self._installed:
            try:
                gc.callbacks.remove(self._callback)
            except ValueError:  # someone cleared the list underneath us
                pass
            self._installed = False
        return self

    def __enter__(self) -> "GcMonitor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        ident = threading.get_ident()
        if phase == "start":
            self._starts[ident] = time.perf_counter()
            return
        started = self._starts.pop(ident, None)
        if started is None:  # monitor attached mid-collection
            return
        seconds = time.perf_counter() - started
        self._m_pauses.observe(seconds)
        counter = self._m_collections.get(info.get("generation"))
        if counter is not None:
            counter.inc()
        collected = info.get("collected", 0)
        if collected:
            self._m_collected.inc(collected)
        uncollectable = info.get("uncollectable", 0)
        if uncollectable:
            self._m_uncollectable.inc(uncollectable)
        self.pause_count += 1
        self.total_pause_seconds += seconds
        if seconds > self.max_pause_seconds:
            self.max_pause_seconds = seconds

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time GC state for ``GET /debug/gc`` (JSON-ready)."""
        return {
            "enabled": gc.isenabled(),
            "monitoring": self._installed,
            "counts": list(gc.get_count()),
            "thresholds": list(gc.get_threshold()),
            "per_generation": gc.get_stats(),
            "tracked_objects": len(gc.get_objects()),
            "pauses": {
                "count": self.pause_count,
                "total_seconds": round(self.total_pause_seconds, 9),
                "max_seconds": round(self.max_pause_seconds, 9),
            },
        }


# ---------------------------------------------------------------------------
# heap telemetry (tracemalloc)
# ---------------------------------------------------------------------------

_ACTIVE_HEAP_LOCK = threading.Lock()
_ACTIVE_HEAP: Optional["HeapProfiler"] = None


def active_heap_profiler() -> Optional["HeapProfiler"]:
    """The process's running :class:`HeapProfiler`, if any."""
    return _ACTIVE_HEAP


@contextmanager
def heap_stage(stage: str):
    """Attribute a block's net allocations to *stage* — no-op when no
    :class:`HeapProfiler` is active, so permanent instrumentation
    (the offline builder brackets every stage with this) costs one
    global read on the common path.
    """
    profiler = _ACTIVE_HEAP
    if profiler is None:
        yield None
        return
    with profiler.stage(stage) as measurement:
        yield measurement


class HeapProfiler:
    """tracemalloc telemetry: stage attribution, snapshots, gauges.

    ``start()`` begins tracing (unless something already did) and
    registers the instance as the process-wide active profiler so
    :func:`heap_stage` blocks — the offline builder's stage clock, the
    serving path when wired — attribute their net allocations to it.
    Per stage the profiler keeps net bytes and peak-traced bytes and
    folds them into ``heap_stage_net_bytes_total{stage}`` counters plus
    ``heap_current_bytes``/``heap_peak_bytes`` gauges.

    Labeled :meth:`snapshot` calls keep full tracemalloc snapshots so
    :meth:`diff_top` can report the top allocation-site deltas between
    any two labels (the ``/debug/heap`` drill-down).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        frames: int = 8,
    ):
        self.frames = int(frames)
        registry = registry if registry is not None else _default_registry()
        self._registry = registry
        self._m_current = registry.gauge(
            "heap_current_bytes", help="tracemalloc current traced bytes"
        )
        self._m_peak = registry.gauge(
            "heap_peak_bytes", help="tracemalloc peak traced bytes"
        )
        self._m_stage_net: Dict[str, object] = {}
        self._lock = threading.Lock()
        self._snapshots: Dict[str, tracemalloc.Snapshot] = {}
        self.stage_bytes: Dict[str, int] = {}
        self.stage_peaks: Dict[str, int] = {}
        self._owns_tracing = False
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "HeapProfiler":
        global _ACTIVE_HEAP
        if self._started:
            return self
        if not tracemalloc.is_tracing():
            tracemalloc.start(self.frames)
            self._owns_tracing = True
        with _ACTIVE_HEAP_LOCK:
            _ACTIVE_HEAP = self
        self._started = True
        return self

    def stop(self) -> "HeapProfiler":
        global _ACTIVE_HEAP
        if not self._started:
            return self
        with _ACTIVE_HEAP_LOCK:
            if _ACTIVE_HEAP is self:
                _ACTIVE_HEAP = None
        if self._owns_tracing and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._owns_tracing = False
        self._started = False
        return self

    def __enter__(self) -> "HeapProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- stage attribution -------------------------------------------------

    @contextmanager
    def stage(self, stage: str):
        """Measure a block's net traced allocation under *stage*."""
        if not tracemalloc.is_tracing():
            yield None
            return
        before, __ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        measurement: Dict[str, int] = {"stage": stage}
        try:
            yield measurement
        finally:
            current, peak = tracemalloc.get_traced_memory()
            net = current - before
            measurement["net_bytes"] = net
            measurement["peak_bytes"] = peak
            with self._lock:
                self.stage_bytes[stage] = (
                    self.stage_bytes.get(stage, 0) + net
                )
                if peak > self.stage_peaks.get(stage, 0):
                    self.stage_peaks[stage] = peak
                counter = self._m_stage_net.get(stage)
                if counter is None:
                    counter = self._registry.counter(
                        "heap_stage_net_bytes_total",
                        help="net traced bytes allocated per stage",
                        stage=stage,
                    )
                    self._m_stage_net[stage] = counter
            counter.inc(net)
            self._m_current.set(current)
            self._m_peak.set(peak)

    # -- snapshots & reporting ---------------------------------------------

    def snapshot(self, label: str) -> Dict[str, int]:
        """Keep a full snapshot under *label*; returns current/peak."""
        snapshot = tracemalloc.take_snapshot()
        with self._lock:
            self._snapshots[label] = snapshot
        current, peak = tracemalloc.get_traced_memory()
        self._m_current.set(current)
        self._m_peak.set(peak)
        return {"current_bytes": current, "peak_bytes": peak}

    def diff_top(
        self, label_before: str, label_after: str, limit: int = 15
    ) -> List[Dict[str, object]]:
        """Top allocation-site deltas between two labeled snapshots."""
        with self._lock:
            before = self._snapshots.get(label_before)
            after = self._snapshots.get(label_after)
        if before is None or after is None:
            missing = label_before if before is None else label_after
            raise KeyError(f"no heap snapshot labeled {missing!r}")
        stats = after.compare_to(before, "lineno")
        return [
            {
                "site": str(stat.traceback),
                "size_diff_bytes": stat.size_diff,
                "size_bytes": stat.size,
                "count_diff": stat.count_diff,
            }
            for stat in stats[: max(0, int(limit))]
        ]

    @staticmethod
    def top_allocations(limit: int = 15) -> List[Dict[str, object]]:
        """Top live allocation sites right now (requires tracing on)."""
        if not tracemalloc.is_tracing():
            return []
        snapshot = tracemalloc.take_snapshot()
        return [
            {
                "site": str(stat.traceback),
                "size_bytes": stat.size,
                "count": stat.count,
            }
            for stat in snapshot.statistics("lineno")[: max(0, int(limit))]
        ]

    def stats(self) -> Dict[str, object]:
        """JSON-ready heap state (the /debug/heap envelope)."""
        tracing = tracemalloc.is_tracing()
        current, peak = (
            tracemalloc.get_traced_memory() if tracing else (0, 0)
        )
        with self._lock:
            stage_bytes = dict(self.stage_bytes)
            stage_peaks = dict(self.stage_peaks)
        return {
            "tracing": tracing,
            "current_bytes": current,
            "peak_bytes": peak,
            "stage_net_bytes": stage_bytes,
            "stage_peak_bytes": stage_peaks,
        }


# ---------------------------------------------------------------------------
# resident-byte accounting for the frozen stores
# ---------------------------------------------------------------------------

_LEAF_BUFFER_TYPES = (bytes, bytearray, memoryview)


def resident_bytes(obj, max_depth: int = 4) -> int:
    """Bytes held in numpy arrays / byte buffers reachable from *obj*.

    A bounded, cycle-safe walk over ``__dict__``/``__slots__`` and the
    builtin containers; every distinct ``ndarray``/``bytes`` buffer is
    counted once.  This deliberately measures the *payload* (the arena
    columns and coded streams, packed sections) and not python
    object overhead — the number a capacity plan actually needs.
    """
    import numpy as np

    seen: set = set()
    counted: set = set()
    total = 0

    def walk(value, depth: int) -> None:
        nonlocal total
        if value is None or depth > max_depth:
            return
        marker = id(value)
        if marker in seen:
            return
        seen.add(marker)
        if isinstance(value, np.ndarray):
            base = value.base if value.base is not None else value
            if id(base) not in counted:
                counted.add(id(base))
                total += int(base.nbytes)
            return
        if isinstance(value, _LEAF_BUFFER_TYPES):
            if marker not in counted:
                counted.add(marker)
                total += len(value)
            return
        if isinstance(value, (str, int, float, bool, complex)):
            return
        if isinstance(value, dict):
            for child in value.values():
                walk(child, depth + 1)
            return
        if isinstance(value, (list, tuple, set, frozenset)):
            for child in value:
                walk(child, depth + 1)
            return
        child_dict = getattr(value, "__dict__", None)
        if isinstance(child_dict, dict):
            for child in child_dict.values():
                walk(child, depth + 1)
        for klass in type(value).__mro__:
            for slot_name in klass.__dict__.get("__slots__", ()):
                child = getattr(value, slot_name, None)
                if child is not None:
                    walk(child, depth + 1)

    walk(obj, 0)
    return total


def record_resident_bytes(
    components: Dict[str, object],
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, int]:
    """Measure each component and set ``resident_bytes{component=...}``.

    Returns the measured {component: bytes} map (also JSON-ready for
    the ``/debug/heap`` response).
    """
    registry = registry if registry is not None else _default_registry()
    measured: Dict[str, int] = {}
    for name, component in components.items():
        size = resident_bytes(component)
        measured[name] = size
        registry.gauge(
            "resident_bytes",
            help="payload bytes resident per serving component",
            component=name,
        ).set(size)
    return measured
