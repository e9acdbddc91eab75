"""Observability layer: registry exactness, tracing, and the wiring.

Covers the new ``repro.obs`` package (counters/gauges/histograms with
per-thread shards, span tracing with 1-in-N sampling, exposition) and
the instrumentation contracts the runtime now depends on: the legacy
``TimingStats`` API riding on registry counters and the service/builder
span surfaces.
"""

import json
import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.features import RelevanceModel
from repro.obs import (
    DEFAULT_SIZE_BUCKETS,
    JsonLinesTraceSink,
    MetricsRegistry,
    NullCounter,
    NullHistogram,
    Tracer,
    configure,
    escape_label_value,
    get_registry,
    get_tracer,
    render_snapshot,
    set_registry,
    set_tracer,
    unescape_label_value,
)
from repro.ranking import RankSVM
from repro.runtime import (
    PackedRelevanceStore,
    QuantizedInterestingnessStore,
    RankerService,
    TimingStats,
)


class TestRegistry:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", help="test events")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        gauge = registry.gauge("workers")
        gauge.set(4)
        gauge.add(1)
        assert gauge.value == 5.0

    def test_same_name_and_labels_returns_same_object(self):
        registry = MetricsRegistry()
        a = registry.counter("queries_total", kind="free")
        b = registry.counter("queries_total", kind="free")
        c = registry.counter("queries_total", kind="phrase")
        assert a is b
        assert a is not c

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing_total")
        with pytest.raises(ValueError):
            registry.histogram("thing_total")

    def test_invalid_name_raises(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("bad name")

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("sizes", buckets=(1, 10, 100))
        for value in (0.5, 1, 5, 10, 1000):
            hist.observe(value)
        assert hist.count == 5
        assert hist.sum == 1016.5
        # non-cumulative: <=1, <=10, <=100, +Inf
        assert hist.bucket_counts() == [2, 2, 0, 1]
        assert hist.cumulative() == [("1", 2), ("10", 4), ("100", 4), ("+Inf", 5)]
        assert hist.quantile(0.5) == 10

    def test_histogram_rejects_bad_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("h1", buckets=())
        with pytest.raises(ValueError):
            registry.histogram("h2", buckets=(1, 1, 2))

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", help="cache hits").inc(7)
        registry.histogram("batch", buckets=(1, 2)).observe(2)
        snap = registry.snapshot()
        assert snap["hits_total"]["type"] == "counter"
        assert snap["hits_total"]["series"][0]["value"] == 7.0
        assert snap["batch"]["series"][0]["buckets"][-1] == ["+Inf", 1]
        json.dumps(snap)  # JSON-ready, no numpy scalars

    def test_render_prometheus(self):
        registry = MetricsRegistry()
        registry.counter("queries_total", help="by kind", kind="free").inc(3)
        registry.histogram("lat", buckets=(0.1,), stage="stem").observe(0.05)
        text = registry.render_prometheus()
        assert "# HELP repro_queries_total by kind" in text
        assert "# TYPE repro_queries_total counter" in text
        assert 'repro_queries_total{kind="free"} 3' in text
        assert 'repro_lat_bucket{stage="stem",le="0.1"} 1' in text
        assert 'repro_lat_bucket{stage="stem",le="+Inf"} 1' in text
        assert 'repro_lat_count{stage="stem"} 1' in text

    def test_disabled_registry_is_noop(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("x_total")
        hist = registry.histogram("y")
        assert isinstance(counter, NullCounter)
        assert isinstance(hist, NullHistogram)
        counter.inc()
        hist.observe(1.0)
        assert registry.snapshot() == {}
        assert registry.render_prometheus() == ""

    def test_prometheus_label_escaping_round_trip(self):
        """Exposition-format escaping: backslash, double-quote, and
        newline in label values must render escaped and parse back to
        the original string (backslash first, or round-trip breaks)."""
        hostile = 'pack "v2"\nC:\\data\\packs'
        escaped = escape_label_value(hostile)
        assert "\n" not in escaped
        assert escaped == 'pack \\"v2\\"\\nC:\\\\data\\\\packs'
        assert unescape_label_value(escaped) == hostile
        # a value that is *already* escape-looking must survive too
        tricky = "trailing backslash \\ and literal \\n"
        assert unescape_label_value(escape_label_value(tricky)) == tricky

    def test_prometheus_render_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter(
            "loads_total", path='C:\\packs\n"v2"'
        ).inc()
        text = registry.render_prometheus()
        line = next(
            l for l in text.splitlines() if l.startswith("repro_loads_total{")
        )
        # one physical line, quotes and backslashes escaped per the
        # Prometheus exposition format
        assert line == (
            'repro_loads_total{path="C:\\\\packs\\n\\"v2\\""} 1'
        )

    def test_quantile_empty_histogram(self):
        """No observations means *no answer* — nan, never a made-up
        0.0 that reads as "the p50 was instant"."""
        hist = MetricsRegistry().histogram("empty", buckets=(1, 10))
        assert math.isnan(hist.quantile(0.0))
        assert math.isnan(hist.quantile(0.5))
        assert math.isnan(hist.quantile(1.0))
        assert math.isnan(NullHistogram().quantile(0.5))

    def test_quantile_q0_skips_empty_leading_buckets(self):
        """q=0 means the minimum, which lives in the first *populated*
        bucket — empty leading buckets must not answer."""
        hist = MetricsRegistry().histogram("lead", buckets=(1, 10, 100))
        hist.observe(50)
        assert hist.quantile(0.0) == 100
        assert hist.quantile(1.0) == 100

    def test_quantile_q1_and_overflow(self):
        hist = MetricsRegistry().histogram("edges", buckets=(1, 10))
        hist.observe(0.5)
        assert hist.quantile(1.0) == 1
        hist.observe(1000)  # lands in +Inf
        assert hist.quantile(0.5) == 1
        assert hist.quantile(1.0) == float("inf")

    def test_quantile_single_bucket(self):
        hist = MetricsRegistry().histogram("single", buckets=(5,))
        hist.observe(3)
        assert hist.quantile(0.0) == 5
        assert hist.quantile(0.5) == 5
        assert hist.quantile(1.0) == 5

    def test_render_snapshot_matches_live_render(self):
        """The snapshot renderer and the live renderer are one path —
        including after a JSON round-trip (the --snapshot source)."""
        registry = MetricsRegistry()
        registry.counter("queries_total", help="by kind", kind="free").inc(3)
        registry.gauge("workers").set(4)
        registry.histogram("lat", buckets=(0.1, 1.0), stage="stem").observe(0.05)
        live = registry.render_prometheus()
        assert render_snapshot(registry.snapshot()) == live
        round_tripped = json.loads(json.dumps(registry.snapshot()))
        assert render_snapshot(round_tripped) == live
        assert render_snapshot(round_tripped, prefix="x_").startswith("# TYPE x_")

    def test_reset_keeps_families(self):
        registry = MetricsRegistry()
        counter = registry.counter("n_total")
        counter.inc(9)
        registry.reset()
        assert counter.value == 0.0
        assert registry.counter("n_total") is counter


class TestConcurrency:
    def test_exact_totals_from_8_threads(self):
        """No lost updates: per-thread shards make totals exact."""
        registry = MetricsRegistry()
        counter = registry.counter("hammer_total")
        hist = registry.histogram("hammer_sizes", buckets=DEFAULT_SIZE_BUCKETS)
        increments = 10_000
        threads = 8

        def hammer():
            for i in range(increments):
                counter.inc()
                hist.observe(i % 7)

        pool = [threading.Thread(target=hammer) for __ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert counter.value == threads * increments
        assert hist.count == threads * increments
        expected_sum = threads * sum(i % 7 for i in range(increments))
        assert hist.sum == expected_sum

    def test_reads_during_writes_never_exceed_total(self):
        registry = MetricsRegistry()
        counter = registry.counter("racing_total")
        stop = threading.Event()
        seen = []

        def reader():
            while not stop.is_set():
                seen.append(counter.value)

        thread = threading.Thread(target=reader)
        thread.start()
        for __ in range(50_000):
            counter.inc()
        stop.set()
        thread.join()
        assert counter.value == 50_000
        assert all(0 <= value <= 50_000 for value in seen)


class TestTracer:
    def test_sampling_one_in_n(self):
        tracer = Tracer(sample_every=3)
        traces = [tracer.start("req") for __ in range(9)]
        assert sum(1 for t in traces if t.sampled) == 3
        for trace in traces:
            tracer.finish(trace)

    def test_sampling_disabled(self):
        tracer = Tracer(sample_every=0)
        assert not any(tracer.start("req").sampled for __ in range(5))

    def test_span_nesting_and_ambient_trace(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry, sample_every=1)
        with tracer.trace("req") as trace:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        assert trace.sampled
        assert [s.name for s in trace.spans] == ["outer"]
        assert [s.name for s in trace.spans[0].children] == ["inner"]
        assert trace.duration > 0
        # histograms record regardless of nesting
        snap = registry.snapshot()["span_seconds"]
        stages = {s["labels"]["stage"] for s in snap["series"]}
        assert stages == {"outer", "inner"}

    def test_span_histogram_records_when_unsampled(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry, sample_every=0)
        with tracer.span("stage"):
            pass
        series = registry.snapshot()["span_seconds"]["series"]
        assert series[0]["count"] == 1

    def test_span_as_decorator(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry, sample_every=0)

        @tracer.span("work")
        def work(x):
            return x * 2

        assert work(21) == 42
        assert registry.snapshot()["span_seconds"]["series"][0]["count"] == 1

    def test_record_reuses_clock_readings(self):
        tracer = Tracer(sample_every=1)
        trace = tracer.start("req")
        trace.record("stage", trace.started + 0.25, trace.started + 0.75)
        tracer.finish(trace)
        span = trace.spans[0]
        assert span.start == pytest.approx(0.25)
        assert span.duration == pytest.approx(0.5)

    def test_jsonl_sink_and_recent_ring(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        with JsonLinesTraceSink(path) as sink:
            tracer = Tracer(sample_every=1, sink=sink, keep_last=2)
            for __ in range(3):
                with tracer.trace("req"):
                    pass
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        record = json.loads(lines[0])
        assert record["kind"] == "req"
        assert len(tracer.recent) == 2  # ring bounded by keep_last

    def test_sink_rotation_by_size(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        record = {"kind": "req", "n": 0}
        line_bytes = len(json.dumps(record, sort_keys=True)) + 1
        sink = JsonLinesTraceSink(path, max_bytes=line_bytes * 2, keep=2)
        try:
            for n in range(7):
                sink.write({"kind": "req", "n": n})
        finally:
            sink.close()
        # 7 two-record generations: live file has 1, .1 has 2, .2 has 2,
        # the oldest generation fell off the end
        live = path.read_text().strip().splitlines()
        gen1 = (tmp_path / "traces.jsonl.1").read_text().strip().splitlines()
        gen2 = (tmp_path / "traces.jsonl.2").read_text().strip().splitlines()
        assert not (tmp_path / "traces.jsonl.3").exists()
        assert [json.loads(l)["n"] for l in live] == [6]
        assert [json.loads(l)["n"] for l in gen1] == [4, 5]
        assert [json.loads(l)["n"] for l in gen2] == [2, 3]

    def test_sink_rotation_never_truncates_a_record(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        sink = JsonLinesTraceSink(path, max_bytes=10, keep=1)
        try:
            sink.write({"kind": "huge", "payload": "x" * 100})
            sink.write({"kind": "huge", "payload": "y" * 100})
        finally:
            sink.close()
        # each oversized record is written whole; rotation separates them
        assert json.loads(path.read_text())["payload"] == "y" * 100
        assert json.loads(
            (tmp_path / "traces.jsonl.1").read_text()
        )["payload"] == "x" * 100

    def test_sink_rotation_counts_preexisting_bytes(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        path.write_text('{"kind": "old"}\n' * 5)
        size = path.stat().st_size
        sink = JsonLinesTraceSink(path, max_bytes=size + 1, keep=1)
        try:
            sink.write({"kind": "new"})
        finally:
            sink.close()
        # the append reopened an already-large file: first write rotates
        assert json.loads(path.read_text())["kind"] == "new"
        assert (tmp_path / "traces.jsonl.1").exists()

    def test_sink_rotation_fsyncs_before_rename(self, tmp_path, monkeypatch):
        """Durability ordering: once ``path.1`` exists its records are
        on disk — the live file must be fsynced before any rename."""
        events = []
        real_fsync = os.fsync
        real_rename = Path.rename

        def recording_fsync(fd):
            events.append("fsync")
            return real_fsync(fd)

        def recording_rename(source, target):
            events.append(f"rename:{Path(source).name}")
            return real_rename(source, target)

        monkeypatch.setattr("repro.obs.trace.os.fsync", recording_fsync)
        monkeypatch.setattr(Path, "rename", recording_rename)
        record = {"kind": "req", "n": 0}
        line_bytes = len(json.dumps(record, sort_keys=True)) + 1
        sink = JsonLinesTraceSink(tmp_path / "traces.jsonl",
                                  max_bytes=line_bytes, keep=2)
        try:
            sink.write({"kind": "req", "n": 0})
            sink.write({"kind": "req", "n": 1})  # triggers one rotation
        finally:
            sink.close()
        assert "rename:traces.jsonl" in events
        assert events.index("fsync") < events.index("rename:traces.jsonl")

    def test_sink_recovers_from_crash_mid_rotation(self, tmp_path,
                                                   monkeypatch):
        """A rename failing mid-shift (crash-recovery race, vanished
        directory) must not lose the record or wedge the sink: the
        write lands in the reopened live file and the next write
        retries the rotation."""
        path = tmp_path / "traces.jsonl"
        record = {"kind": "req", "n": 0}
        line_bytes = len(json.dumps(record, sort_keys=True)) + 1
        sink = JsonLinesTraceSink(path, max_bytes=line_bytes, keep=3)
        real_rename = Path.rename
        armed = {"fail": False}

        def flaky_rename(source, target):
            if armed["fail"]:
                armed["fail"] = False
                raise OSError("simulated crash during the shift")
            return real_rename(source, target)

        monkeypatch.setattr(Path, "rename", flaky_rename)
        try:
            sink.write({"kind": "req", "n": 0})  # fills the live file
            armed["fail"] = True
            sink.write({"kind": "req", "n": 1})  # rotation fails mid-shift
            # no generation was produced, but the record is on disk in
            # order — the failed shift reopened the live file
            assert not (tmp_path / "traces.jsonl.1").exists()
            live = path.read_text().strip().splitlines()
            assert [json.loads(l)["n"] for l in live] == [0, 1]
            sink.write({"kind": "req", "n": 2})  # retries, now succeeds
        finally:
            sink.close()
        live = path.read_text().strip().splitlines()
        gen1 = (tmp_path / "traces.jsonl.1").read_text().strip().splitlines()
        assert [json.loads(l)["n"] for l in live] == [2]
        assert [json.loads(l)["n"] for l in gen1] == [0, 1]

    def test_sink_rejects_bad_rotation_params(self, tmp_path):
        with pytest.raises(ValueError):
            JsonLinesTraceSink(tmp_path / "t.jsonl", max_bytes=0)
        with pytest.raises(ValueError):
            JsonLinesTraceSink(tmp_path / "t.jsonl", max_bytes=10, keep=0)

    def test_configure_swaps_globals(self):
        previous_registry, previous_tracer = get_registry(), get_tracer()
        try:
            registry, tracer = configure(enabled=True, sample_every=5)
            assert get_registry() is registry
            assert get_tracer() is tracer
        finally:
            set_registry(previous_registry)
            set_tracer(previous_tracer)


class TestTimingStats:
    def test_rate_zero_guards(self):
        """No measured work means the rate is *unknown* — nan, matching
        the empty-histogram quantile convention (0.0 would read as "we
        measured this and it was zero MB/s")."""
        stats = TimingStats()
        assert math.isnan(stats.stemmer_mb_per_second)
        assert math.isnan(stats.ranker_mb_per_second)
        assert math.isnan(stats.detections_per_document)
        # bytes without seconds (and vice versa) are equally unknown
        stats.bytes_processed = 1000
        assert math.isnan(stats.stemmer_mb_per_second)
        stats.bytes_processed = 0
        stats.stemmer_seconds = 1.0
        assert math.isnan(stats.stemmer_mb_per_second)

    def test_rate_non_finite_guard(self):
        stats = TimingStats(bytes_processed=100)
        assert math.isnan(stats._rate(float("nan")))
        assert math.isnan(stats._rate(float("inf")))
        assert math.isnan(stats._rate(-1.0))

    def test_merge_zero_byte_stats_is_safe(self):
        left = TimingStats(stemmer_seconds=1.0, bytes_processed=2_000_000)
        merged = left.merge(TimingStats())
        assert merged is left
        assert left.stemmer_mb_per_second == 2.0

    def test_keyword_construction_and_fields(self):
        stats = TimingStats(
            stemmer_seconds=1.5, documents=2, detections=3, bytes_processed=10
        )
        assert stats.stemmer_seconds == 1.5
        assert stats.documents == 2
        assert isinstance(stats.documents, int)
        assert stats.detections_per_document == 1.5
        assert stats.as_dict()["bytes_processed"] == 10

    def test_merge_accumulates_all_fields(self):
        left = TimingStats(stemmer_seconds=1.0, documents=2, detections=3)
        right = TimingStats(
            stemmer_seconds=0.5, ranker_seconds=2.0, documents=1, detections=4
        )
        left.merge(right)
        assert left.stemmer_seconds == 1.5
        assert left.ranker_seconds == 2.0
        assert left.documents == 3
        assert left.detections == 7

    def test_merge_zero_duration_side(self):
        """Merging a side with documents but no elapsed time must never
        raise (ZeroDivision) or go infinite — no-data rates are nan."""
        left = TimingStats(documents=2, detections=4)  # no seconds, no bytes
        right = TimingStats(bytes_processed=500, documents=1)  # zero seconds
        left.merge(right)
        assert left.documents == 3
        assert left.bytes_processed == 500
        assert math.isnan(left.stemmer_mb_per_second)
        assert math.isnan(left.ranker_mb_per_second)
        # and the mirror: real work absorbs a zero-duration side intact
        busy = TimingStats(stemmer_seconds=1.0, bytes_processed=1_000_000)
        busy.merge(TimingStats(documents=5))
        assert busy.stemmer_mb_per_second == 1.0
        assert busy.documents == 5

    def test_merge_duck_typed_partial_object(self):
        class Partial:
            documents = 2  # no other TimingStats fields at all

        stats = TimingStats(documents=1)
        stats.merge(Partial())
        assert stats.documents == 3
        assert stats.stemmer_seconds == 0.0

    def test_equality_and_repr(self):
        a = TimingStats(documents=2)
        b = TimingStats(documents=2)
        assert a == b
        assert a != TimingStats(documents=3)
        assert "documents=2" in repr(a)

    def test_snapshots_survive_reset(self):
        """The test_single_pass capture pattern: old views keep values."""
        first = TimingStats(documents=5)
        second = TimingStats()  # a reset_stats() replacement
        second.documents = 1
        assert first.documents == 5


class TestServiceInstrumentation:
    @pytest.fixture(scope="class")
    def setup(self, env_world, env_extractor, env_miner, env_pipeline):
        phrases = [c.phrase for c in env_world.concepts]
        interestingness = QuantizedInterestingnessStore.build(
            env_extractor, phrases
        )
        model = RelevanceModel.mine_all(
            env_miner, [c.phrase for c in env_world.concepts[:30]]
        )
        relevance = PackedRelevanceStore.build(model)
        svm = RankSVM(epochs=30)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 16))
        svm.fit(X, X[:, 0], np.repeat(np.arange(8), 5))
        return env_pipeline, interestingness, relevance, svm

    def _service(self, setup, registry, tracer):
        pipeline, interestingness, relevance, svm = setup
        return RankerService(
            pipeline, interestingness, relevance, svm,
            registry=registry, tracer=tracer,
        )

    def test_stage_histograms_and_counters(self, setup, env_stories):
        registry = MetricsRegistry()
        service = self._service(setup, registry, Tracer(registry=registry))
        texts = [s.text for s in env_stories[:4]]
        results = service.process_batch(texts, top=5)
        snap = registry.snapshot()
        assert (
            snap["rank_documents_total"]["series"][0]["value"] == len(texts)
        )
        stages = {
            s["labels"]["stage"]: s["count"]
            for s in snap["rank_stage_seconds"]["series"]
        }
        assert stages == {
            "stemmer": len(texts), "detect": len(texts),
            "features": len(texts), "rank": len(texts),
        }
        detections = snap["rank_detections_total"]["series"][0]["value"]
        assert detections == sum(len(r) for r in results)
        assert detections == service.stats.detections
        per_doc = snap["rank_detections_per_document"]["series"][0]
        assert per_doc["count"] == len(texts)

    def test_parallel_batch_chunk_metrics(self, setup, env_stories):
        registry = MetricsRegistry()
        service = self._service(setup, registry, Tracer(registry=registry))
        texts = [s.text for s in env_stories[:6]]
        service.process_batch(texts, top=5, workers=3)
        snap = registry.snapshot()
        assert snap["rank_batch_chunks_total"]["series"][0]["value"] == 3
        assert snap["rank_batch_chunk_run_seconds"]["series"][0]["count"] == 3
        assert snap["rank_batch_workers"]["series"][0]["value"] == 3
        assert snap["rank_documents_total"]["series"][0]["value"] == len(texts)

    def test_trace_spans_match_stage_order(self, setup, env_stories):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry, sample_every=1)
        service = self._service(setup, registry, tracer)
        service.process(env_stories[0].text, top=3)
        assert len(tracer.recent) == 1
        spans = tracer.recent[0]["spans"]
        assert [s["name"] for s in spans] == ["stemmer", "detect", "rank"]
        assert [c["name"] for c in spans[2]["children"]] == ["features"]

    def test_output_identical_with_observability_disabled(
        self, setup, env_stories
    ):
        on = self._service(
            setup, MetricsRegistry(), Tracer(sample_every=1)
        )
        off = self._service(
            setup, MetricsRegistry(enabled=False), Tracer(sample_every=0)
        )
        texts = [s.text for s in env_stories[:3]]
        assert on.process_batch(texts, top=5) == off.process_batch(texts, top=5)

    def test_legacy_stats_view_still_works(self, setup, env_stories):
        registry = MetricsRegistry()
        service = self._service(setup, registry, Tracer(registry=registry))
        service.process(env_stories[0].text)
        sequential = service.stats
        service.reset_stats()
        assert sequential.documents == 1  # captured view survives reset
        assert service.stats.documents == 0
        # registry counters are cumulative, not reset
        snap = registry.snapshot()
        assert snap["rank_documents_total"]["series"][0]["value"] == 1


class TestBuilderSpans:
    def test_build_records_stage_spans(self, tmp_path, env_world, env_log):
        from repro.offline.builder import BuildConfig, OfflineBuilder

        registry = MetricsRegistry()
        tracer = Tracer(registry=registry, sample_every=1)
        phrases = [c.phrase for c in env_world.concepts[:12]]
        report = OfflineBuilder(
            BuildConfig(workers=1), tracer=tracer
        ).build(env_world.web_corpus, env_log, phrases, tmp_path)
        stage_names = [stage.name for stage in report.stages]
        series = registry.snapshot()["span_seconds"]["series"]
        recorded = {s["labels"]["stage"] for s in series}
        assert recorded == set(stage_names)
        # the sampled build trace carries the same stages, in order
        assert len(tracer.recent) == 1
        trace = tracer.recent[0]
        assert trace["kind"] == "build-pack"
        assert [span["name"] for span in trace["spans"]] == stage_names
        # StageStats.seconds is the span duration, not a second clock
        for stage, span in zip(report.stages, trace["spans"]):
            assert stage.seconds == pytest.approx(span["duration"])


class TestPackMetrics:
    def test_mapped_pack_records_open_metrics(self, tmp_path):
        from repro.runtime.datapack import (
            MappedPack,
            save_relevance_store,
        )

        store = PackedRelevanceStore.build(
            RelevanceModel({"alpha beta": [("gamma", 1.0)]})
        )
        path = tmp_path / "relevance.rpak"
        save_relevance_store(store, path)
        previous = set_registry(MetricsRegistry())
        try:
            with MappedPack(path):
                pass
            snap = get_registry().snapshot()
            assert snap["pack_opens_total"]["series"][0]["value"] == 1.0
            assert snap["pack_open_seconds"]["series"][0]["count"] == 1
            sections = {
                s["labels"]["section"]
                for s in snap["pack_section_bytes_total"]["series"]
            }
            assert {"kind", "meta", "pairs"} <= sections
            assert (
                snap["pack_bytes_mapped_total"]["series"][0]["value"]
                == path.stat().st_size
            )
        finally:
            set_registry(previous)


class TestSearchCounters:
    def test_query_counters_by_kind(self):
        from repro.search import SearchEngine

        previous = set_registry(MetricsRegistry())
        try:
            engine = SearchEngine()
            engine.add_document(1, "alpha beta gamma")
            engine.add_document(2, "beta gamma delta")
            engine.search("beta")
            engine.search("gamma delta")
            engine.phrase_search("beta gamma")
            engine.result_count("alpha")
            engine.phrase_result_count("gamma delta")
            snap = get_registry().snapshot()
            kinds = {
                s["labels"]["kind"]: s["value"]
                for s in snap["search_queries_total"]["series"]
            }
            assert kinds == {
                "free": 2.0, "phrase": 1.0, "count": 1.0, "phrase_count": 1.0
            }
        finally:
            set_registry(previous)
