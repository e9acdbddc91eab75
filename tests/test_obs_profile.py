"""Continuous-profiling layer: sampler, stage map, GC/heap telemetry.

Covers ``repro.obs.profile`` — the sampling stack profiler (hot-frame
dominance, determinism of the exports, multi-thread coverage, stage
attribution through the tracer's thread→stage map), the GC pause
monitor, the tracemalloc stage profiler, and the resident-byte
accounting for the frozen stores — plus the contract the serving path
depends on: attaching the profiler must not change ranked output.
"""

import gc
import threading
import time

import numpy as np
import pytest

from repro.obs import (
    GcMonitor,
    HeapProfiler,
    MetricsRegistry,
    StackSampler,
    Tracer,
    active_stages,
    mark_stage,
    set_stage_tracking,
    stage_tracking_enabled,
)
from repro.obs.profile import (
    heap_stage,
    record_resident_bytes,
    resident_bytes,
)


def _hot_spin(seconds):
    """A deliberately recognizable CPU burner for dominance checks."""
    deadline = time.perf_counter() + seconds
    total = 0
    while time.perf_counter() < deadline:
        total += sum(i * i for i in range(500))
    return total


class TestStackSampler:
    def test_hot_function_dominates_collapsed_stacks(self):
        sampler = StackSampler(hz=250, registry=MetricsRegistry())
        with sampler:
            _hot_spin(0.5)
        collapsed = sampler.collapsed()
        assert collapsed.endswith("\n")
        rows = [line.rpartition(" ") for line in collapsed.splitlines()]
        hot = sum(
            int(count) for stack, __, count in rows if "_hot_spin" in stack
        )
        assert sampler.sample_count > 10
        # the burner owns the thread for the whole window; anything
        # else (pytest plumbing, other runner threads) is a sliver
        assert hot >= 0.8 * sampler.sample_count
        assert "_hot_spin" in collapsed.splitlines()[0]

    def test_exports_are_deterministic_and_consistent(self):
        sampler = StackSampler(hz=200, registry=MetricsRegistry())
        with sampler:
            _hot_spin(0.3)
        assert sampler.collapsed() == sampler.collapsed()
        tree = sampler.call_tree()
        assert tree == sampler.call_tree()
        # the tree's total equals the folded sample count, and the
        # collapsed rows sum to it too
        total = sum(
            int(line.rpartition(" ")[2])
            for line in sampler.collapsed().splitlines()
        )
        assert tree["value"] == total == sampler.sample_count
        top = sampler.top_stacks(limit=3)
        assert len(top) <= 3
        assert top[0]["samples"] == max(row["samples"] for row in top)
        functions = sampler.top_functions(limit=5)
        assert functions and functions[0]["self_samples"] > 0

    def test_write_collapsed(self, tmp_path):
        sampler = StackSampler(hz=200, registry=MetricsRegistry())
        with sampler:
            _hot_spin(0.2)
        out = tmp_path / "profile.collapsed"
        sampler.write_collapsed(out)
        text = out.read_text()
        assert text == sampler.collapsed()
        for line in text.splitlines():
            stack, __, count = line.rpartition(" ")
            assert int(count) > 0
            assert stack  # frame;frame;... format

    def test_eight_thread_sample_count_sanity(self):
        """Every running thread contributes one stack per tick."""
        sampler = StackSampler(hz=150, registry=MetricsRegistry())
        stop = threading.Event()

        def worker():
            while not stop.is_set():
                sum(i * i for i in range(200))

        threads = [
            threading.Thread(target=worker, name=f"burner-{n}", daemon=True)
            for n in range(8)
        ]
        for thread in threads:
            thread.start()
        try:
            with sampler:
                # wait for the ticks rather than a fixed time: under CPU
                # contention the sampler thread may run late
                deadline = time.monotonic() + 10.0
                while sampler.sample_ticks <= 10 and time.monotonic() < deadline:
                    time.sleep(0.05)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=5)
        assert sampler.sample_ticks > 10
        by_thread = sampler.thread_samples()
        burners = [
            name for name in by_thread if name.startswith("burner-")
        ]
        assert len(burners) == 8
        # 8 burners + the main thread: at least 8 stacks per tick must
        # have been folded on average (threads never block here)
        assert sampler.sample_count >= 8 * sampler.sample_ticks

    def test_registry_counters(self):
        registry = MetricsRegistry()
        with StackSampler(hz=200, registry=registry):
            _hot_spin(0.2)
        snap = registry.snapshot()
        ticks = snap["profile_sample_ticks_total"]["series"][0]["value"]
        assert ticks > 0
        stage_total = sum(
            series["value"]
            for series in snap["profile_samples_total"]["series"]
        )
        assert stage_total > 0

    def test_no_collection_inside_current_frames(self, monkeypatch):
        """``sys._current_frames()`` holds the thread-list lock while it
        allocates; a collection there can deadlock the sampler against
        a starting or exiting thread, so the collector is paused for
        the call and restored to its previous state afterwards."""
        import sys

        collector_on = []
        current_frames = sys._current_frames

        def recording():
            collector_on.append(gc.isenabled())
            return current_frames()

        monkeypatch.setattr(sys, "_current_frames", recording)
        sampler = StackSampler(hz=100, registry=MetricsRegistry())
        sampler._sample_once(threading.get_ident())
        assert collector_on == [False]
        assert gc.isenabled()
        gc.disable()
        try:
            sampler._sample_once(threading.get_ident())
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_rejects_bad_hz_and_double_start(self):
        with pytest.raises(ValueError):
            StackSampler(hz=0)
        sampler = StackSampler(hz=100, registry=MetricsRegistry())
        sampler.start()
        try:
            with pytest.raises(RuntimeError):
                sampler.start()
        finally:
            sampler.stop()


class TestStageTracking:
    def test_disabled_by_default_and_mark_is_noop(self):
        assert not stage_tracking_enabled()
        assert mark_stage("detect") is None
        assert active_stages() == {}

    def test_mark_save_restore_semantics(self):
        previous = set_stage_tracking(True)
        try:
            assert mark_stage("outer") is None
            assert mark_stage("inner") == "outer"  # returns the previous
            ident = threading.get_ident()
            assert active_stages()[ident] == "inner"
            assert mark_stage("outer") == "inner"
            assert mark_stage(None) == "outer"  # None clears the slot
            assert ident not in active_stages()
        finally:
            set_stage_tracking(previous)

    def test_disable_clears_the_map(self):
        set_stage_tracking(True)
        mark_stage("detect")
        set_stage_tracking(False)
        assert active_stages() == {}
        assert mark_stage("detect") is None  # tracking off again

    def test_tracer_spans_publish_stages_while_tracking(self):
        previous = set_stage_tracking(True)
        ident = threading.get_ident()
        try:
            tracer = Tracer(registry=MetricsRegistry())
            with tracer.trace("req"):
                with tracer.span("detect"):
                    assert active_stages()[ident] == "detect"
                    with tracer.span("features"):
                        assert active_stages()[ident] == "features"
                    assert active_stages()[ident] == "detect"  # restored
            assert ident not in active_stages()
        finally:
            set_stage_tracking(previous)

    def test_sampler_attributes_samples_to_marked_stage(self):
        sampler = StackSampler(hz=200, registry=MetricsRegistry())
        with sampler:  # start() turns stage tracking on
            assert stage_tracking_enabled()
            previous = mark_stage("hotstage")
            try:
                _hot_spin(0.4)
            finally:
                mark_stage(previous)
        assert not stage_tracking_enabled()  # restored on stop
        stages = sampler.stage_samples()
        assert stages.get("hotstage", 0) >= 0.8 * sampler.sample_count
        # the per-stage view only carries that stage's rows
        assert "_hot_spin" in sampler.collapsed(stage="hotstage")


class TestGcMonitor:
    def test_counts_collections_and_pauses(self):
        registry = MetricsRegistry()
        with GcMonitor(registry=registry) as monitor:
            for _ in range(3):
                gc.collect()
        assert monitor.pause_count >= 3
        assert monitor.total_pause_seconds >= 0.0
        assert monitor.max_pause_seconds >= 0.0
        snap = registry.snapshot()
        full = {
            series["labels"]["generation"]: series["value"]
            for series in snap["gc_collections_total"]["series"]
        }
        assert full["2"] >= 3  # gc.collect() runs generation 2
        assert snap["gc_pause_seconds"]["series"][0]["count"] >= 3

    def test_stop_detaches_the_callback(self):
        monitor = GcMonitor(registry=MetricsRegistry()).start()
        monitor.stop()
        assert monitor._callback not in gc.callbacks
        before = monitor.pause_count
        gc.collect()
        assert monitor.pause_count == before

    def test_callback_reentering_a_held_registry_lock_is_safe(self):
        """A collection can trigger on an allocation made while the
        registry lock is held (metric creation) — the callback then
        observes into the same registry on the same thread.  That
        re-entrance must complete, not self-deadlock (the registry
        lock is reentrant for exactly this reason)."""
        registry = MetricsRegistry()
        monitor = GcMonitor(registry=registry).start()
        done = threading.Event()

        def reenter():
            with registry._lock:  # simulates mid-_get_or_create state
                monitor._callback("start", {})
                monitor._callback(
                    "stop",
                    {"generation": 0, "collected": 1, "uncollectable": 0},
                )
            done.set()

        worker = threading.Thread(target=reenter, daemon=True)
        try:
            worker.start()
            assert done.wait(timeout=10), (
                "GC callback deadlocked against the registry lock"
            )
            assert monitor.pause_count == 1
        finally:
            monitor.stop()

    def test_snapshot_shape(self):
        with GcMonitor(registry=MetricsRegistry()) as monitor:
            gc.collect()
            snap = monitor.snapshot()
        assert snap["monitoring"] is True
        assert len(snap["counts"]) == 3
        assert snap["pauses"]["count"] >= 1
        assert snap["pauses"]["total_seconds"] >= 0.0


class TestHeapProfiler:
    def test_stage_attribution_of_net_allocations(self):
        registry = MetricsRegistry()
        profiler = HeapProfiler(registry=registry)
        profiler.start()
        try:
            keep = []
            with profiler.stage("build") as measurement:
                keep.append(bytearray(1_000_000))
            assert measurement["net_bytes"] >= 900_000
            assert profiler.stage_bytes["build"] >= 900_000
            assert profiler.stage_peaks["build"] >= 900_000
            del keep
        finally:
            profiler.stop()
        snap = registry.snapshot()
        stage_net = {
            series["labels"]["stage"]: series["value"]
            for series in snap["heap_stage_net_bytes_total"]["series"]
        }
        assert stage_net["build"] >= 900_000
        assert snap["heap_current_bytes"]["series"][0]["value"] > 0

    def test_heap_stage_helper_follows_the_active_profiler(self):
        # no active profiler: the block still runs, measuring nothing
        with heap_stage("idle") as measurement:
            pass
        assert measurement is None
        profiler = HeapProfiler(registry=MetricsRegistry()).start()
        try:
            keep = []
            with heap_stage("mine") as measurement:
                keep.append(bytearray(500_000))
            assert measurement["net_bytes"] >= 400_000
            assert profiler.stage_bytes["mine"] >= 400_000
        finally:
            profiler.stop()

    def test_snapshot_diff_top(self):
        profiler = HeapProfiler(registry=MetricsRegistry()).start()
        try:
            profiler.snapshot("before")
            keep = bytearray(2_000_000)
            profiler.snapshot("after")
            rows = profiler.diff_top("before", "after", limit=5)
            assert rows
            assert max(row["size_diff_bytes"] for row in rows) >= 1_500_000
            with pytest.raises(KeyError):
                profiler.diff_top("before", "missing")
            del keep
        finally:
            profiler.stop()

    def test_stats_reports_tracing_state(self):
        profiler = HeapProfiler(registry=MetricsRegistry())
        assert profiler.stats()["tracing"] is False
        profiler.start()
        try:
            assert profiler.stats()["tracing"] is True
        finally:
            profiler.stop()
        assert profiler.stats()["tracing"] is False


class TestResidentBytes:
    def test_counts_arrays_buffers_once_through_containers(self):
        array = np.zeros(1000, dtype=np.int64)
        view = array[:10]  # shares the base buffer: counted once
        payload = {
            "arena": [array, view],
            "cache": (b"xyzzy", bytearray(5)),
            "name": "ignored",
        }
        assert resident_bytes(payload) == array.nbytes + 5 + 5

    def test_walks_object_attributes_and_slots(self):
        class Slotted:
            __slots__ = ("column",)

            def __init__(self):
                self.column = np.ones(64, dtype=np.float64)

        class SlottedChild(Slotted):  # inherited slots count too
            __slots__ = ("extra",)

            def __init__(self):
                super().__init__()
                self.extra = np.ones(4, dtype=np.uint8)

        class Store:
            def __init__(self):
                self.inner = Slotted()
                self.child = SlottedChild()
                self.blob = b"0123456789"

        expected = 64 * 8 + (64 * 8 + 4) + 10
        assert resident_bytes(Store()) == expected

    def test_depth_bound_and_cycles_are_safe(self):
        a = {}
        a["self"] = a  # cycle
        a["deep"] = {"1": {"2": {"3": {"4": {"5": np.zeros(8)}}}}}
        assert resident_bytes(a, max_depth=3) == 0  # too deep to reach

    def test_record_resident_bytes_sets_gauges(self):
        registry = MetricsRegistry()
        measured = record_resident_bytes(
            {"store": np.zeros(100, dtype=np.uint8), "empty": object()},
            registry=registry,
        )
        assert measured == {"store": 100, "empty": 0}
        snap = registry.snapshot()
        by_component = {
            series["labels"]["component"]: series["value"]
            for series in snap["resident_bytes"]["series"]
        }
        assert by_component == {"store": 100.0, "empty": 0.0}


class TestProfilerDoesNotPerturbRanking:
    def test_ranked_output_identical_with_sampler(
        self, env_world, env_extractor, env_miner, env_pipeline, env_stories
    ):
        from repro.features import RelevanceModel
        from repro.ranking import RankSVM
        from repro.runtime import (
            PackedRelevanceStore,
            QuantizedInterestingnessStore,
            RankerService,
        )

        phrases = [c.phrase for c in env_world.concepts]
        interestingness = QuantizedInterestingnessStore.build(
            env_extractor, phrases
        )
        model = RelevanceModel.mine_all(env_miner, phrases[:20])
        relevance = PackedRelevanceStore.build(model)
        svm = RankSVM(epochs=10)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(24, 16))
        svm.fit(X, X[:, 0], np.repeat(np.arange(8), 3))
        registry = MetricsRegistry()
        service = RankerService(
            env_pipeline, interestingness, relevance, svm,
            registry=registry, tracer=Tracer(registry=registry),
        )
        texts = [story.text for story in env_stories[:6]]
        plain = service.process_batch(texts, top=5)
        with StackSampler(hz=400, registry=MetricsRegistry()) as sampler:
            profiled = service.process_batch(texts, top=5)
        assert profiled == plain
        # and the sampler saw the service's stage marks while running
        assert sampler.sample_count >= 0
