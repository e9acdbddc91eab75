"""Observability layer: registry exactness, tracing, and the wiring.

Covers the ``repro.obs`` package (counters/gauges/histograms with
per-thread shards, the stage clock and 1-in-N trace sampling,
exposition) and the instrumentation contracts the runtime depends on:
one clock reading per stage boundary in the service, the builder and
their traces, and the Section VI throughput read back from the stage
histograms.
"""

import json
import math
import os
import threading
import time
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
    StageClock,
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
from repro.obs.trace import active_stages, set_stage_tracking
from repro.ranking import RankSVM
from repro.runtime import (
    PackedRelevanceStore,
    QuantizedInterestingnessStore,
    RankerService,
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

    def test_span_histogram_records_when_unsampled(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry, sample_every=0)
        clock = tracer.clock(tracer.start("req"))
        clock.lap("stage")
        clock.lap(None)
        series = registry.snapshot()["span_seconds"]["series"]
        assert series[0]["count"] == 1

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
                trace = tracer.start("req")
                clock = tracer.clock(trace)
                clock.lap("stage")
                clock.lap(None)
                tracer.finish(trace)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        record = json.loads(lines[0])
        assert record["kind"] == "req"
        assert [span["name"] for span in record["spans"]] == ["stage"]
        assert "children" not in record["spans"][0]
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


class _FakePerfCounter:
    """A ``time.perf_counter`` stand-in that advances 1.0 per call."""

    def __init__(self):
        self.reads = []

    def __call__(self):
        value = float(len(self.reads))
        self.reads.append(value)
        return value


def _stage_series(registry, name="rank_stage_seconds"):
    """stage -> (count, sum) of one labelled histogram family."""
    return {
        series["labels"]["stage"]: (series["count"], series["sum"])
        for series in registry.snapshot()[name]["series"]
    }


class TestStageClock:
    def test_one_reading_per_boundary_feeds_histogram_and_span(
        self, monkeypatch
    ):
        registry = MetricsRegistry()
        histograms = {
            stage: registry.histogram("t_seconds", stage=stage)
            for stage in ("a", "b")
        }
        tracer = Tracer(registry=registry, sample_every=1)
        trace = tracer.start("req")
        fake = _FakePerfCounter()
        monkeypatch.setattr(time, "perf_counter", fake)
        clock = StageClock(histograms, trace)
        assert clock.lap("a") == 0.0  # nothing was running yet
        assert clock.lap("b") == 1.0
        assert clock.lap(None) == 1.0
        monkeypatch.undo()
        assert fake.reads == [0.0, 1.0, 2.0]
        assert _stage_series(registry, "t_seconds") == {
            "a": (1, 1.0), "b": (1, 1.0)
        }
        assert [(s.name, s.duration) for s in trace.spans] == [
            ("a", 1.0), ("b", 1.0)
        ]
        assert trace.spans[1].start == 1.0 - trace.started


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
        per_doc = snap["rank_detections_per_document"]["series"][0]
        assert per_doc["count"] == len(texts)

    def test_trace_spans_match_stage_order(self, setup, env_stories):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry, sample_every=1)
        service = self._service(setup, registry, tracer)
        service.process(env_stories[0].text, top=3)
        assert len(tracer.recent) == 1
        spans = tracer.recent[0]["spans"]
        assert [s["name"] for s in spans] == [
            "stemmer", "detect", "features", "rank"
        ]
        assert not any("children" in span for span in spans)

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

    def _ranked_text(self, service, env_stories):
        return next(s.text for s in env_stories if service.process(s.text))

    def _assert_one_lap_per_stage(self, registry, fake):
        assert len(fake.reads) == 5
        series = _stage_series(registry)
        assert {stage: count for stage, (count, __) in series.items()} == {
            "stemmer": 1, "detect": 1, "features": 1, "rank": 1
        }
        # the four stages tile the request: no gap, no double count
        assert sum(total for __, total in series.values()) == 4.0
        assert fake.reads[-1] - fake.reads[0] == 4.0

    def test_process_reads_the_clock_once_per_boundary(
        self, setup, env_stories, monkeypatch
    ):
        registry = MetricsRegistry()
        service = self._service(
            setup, registry, Tracer(registry=registry, sample_every=0)
        )
        text = self._ranked_text(service, env_stories)
        registry.reset()
        fake = _FakePerfCounter()
        monkeypatch.setattr(time, "perf_counter", fake)
        ranked = service.process(text, top=5)
        monkeypatch.undo()
        assert ranked
        self._assert_one_lap_per_stage(registry, fake)

    def test_unrankable_document_laps_every_stage(
        self, setup, monkeypatch
    ):
        registry = MetricsRegistry()
        service = self._service(
            setup, registry, Tracer(registry=registry, sample_every=0)
        )
        fake = _FakePerfCounter()
        monkeypatch.setattr(time, "perf_counter", fake)
        assert service.process("", top=5) == []
        monkeypatch.undo()
        self._assert_one_lap_per_stage(registry, fake)

    def test_explain_path_laps_the_same_stages(
        self, setup, env_stories, monkeypatch
    ):
        registry = MetricsRegistry()
        service = self._service(
            setup, registry, Tracer(registry=registry, sample_every=0)
        )
        text = self._ranked_text(service, env_stories)
        service.process(text, explain=True)  # build the explainer untimed
        registry.reset()
        fake = _FakePerfCounter()
        monkeypatch.setattr(time, "perf_counter", fake)
        ranked, explanations = service.process(text, top=5, explain=True)
        monkeypatch.undo()
        assert ranked and len(explanations) == len(ranked)
        self._assert_one_lap_per_stage(registry, fake)

    def test_sampled_spans_are_the_histogram_observations(
        self, setup, env_stories, monkeypatch
    ):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry, sample_every=1)
        service = self._service(setup, registry, tracer)
        text = self._ranked_text(service, env_stories)
        registry.reset()
        monkeypatch.setattr(time, "perf_counter", _FakePerfCounter())
        service.process(text, top=5)
        monkeypatch.undo()
        spans = tracer.recent[-1]["spans"]
        assert [span["name"] for span in spans] == [
            "stemmer", "detect", "features", "rank"
        ]
        assert not any("children" in span for span in spans)
        series = _stage_series(registry)
        for span in spans:
            assert series[span["name"]] == (1, span["duration"])

    def test_failed_request_clears_its_profiler_stage(self, setup):
        class FailingPipeline:
            def __init__(self, pipeline):
                self._pipeline = pipeline

            def stem_document(self, document):
                return self._pipeline.stem_document(document)

            def process_document(self, document, score=True):
                raise RuntimeError("detector failed")

        pipeline, interestingness, relevance, svm = setup
        service = RankerService(
            FailingPipeline(pipeline), interestingness, relevance, svm,
            registry=MetricsRegistry(), tracer=Tracer(sample_every=0),
        )
        previous = set_stage_tracking(True)
        try:
            with pytest.raises(RuntimeError):
                service.process("fidel castro visits havana")
            assert threading.get_ident() not in active_stages()
        finally:
            set_stage_tracking(previous)

    def test_throughput_from_the_stage_histograms(self, setup, env_stories):
        registry = MetricsRegistry()
        service = self._service(setup, registry, Tracer(registry=registry))
        before = service.throughput()
        assert set(before) == {
            "stemmer", "detect", "features", "rank", "ranker"
        }
        assert all(math.isnan(rate) for rate in before.values())
        service.process_batch([s.text for s in env_stories[:4]], top=5)
        megabytes = registry.snapshot()["rank_bytes_total"]["series"][0][
            "value"
        ] / 1e6
        seconds = {
            stage: total for stage, (__, total) in _stage_series(registry).items()
        }
        seconds["ranker"] = (
            seconds["detect"] + seconds["features"] + seconds["rank"]
        )
        rates = service.throughput()
        assert set(rates) == set(seconds)
        for name, spent in seconds.items():
            assert rates[name] == pytest.approx(megabytes / spent)
        # a reset registry is a fresh measurement window again
        registry.reset()
        assert all(math.isnan(rate) for rate in service.throughput().values())


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
        assert stage_names == [
            "corpus", "index", "units", "interestingness", "relevance",
            "quantize", "kernel", "pack",
        ]
        series = _stage_series(registry, "span_seconds")
        assert set(series) == set(stage_names)
        # the sampled build trace carries the same stages, in order
        assert len(tracer.recent) == 1
        trace = tracer.recent[0]
        assert trace["kind"] == "build-pack"
        assert [span["name"] for span in trace["spans"]] == stage_names
        # StageStats.seconds, the histogram and the span are one
        # measurement: the same two clock readings
        for stage, span in zip(report.stages, trace["spans"]):
            assert series[stage.name] == (1, stage.seconds)
            assert stage.seconds == pytest.approx(span["duration"], abs=1e-9)
            assert "children" not in span


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
            engine = SearchEngine.from_corpus(
                [(1, "alpha beta gamma"), (2, "beta gamma delta")]
            )
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

    def test_snippet_windows_intersect_each_phrase_once(self):
        from repro.search import SearchEngine, SnippetService

        previous = set_registry(MetricsRegistry())
        try:
            engine = SearchEngine.from_corpus(
                [(1, "alpha beta gamma"), (2, "beta gamma delta"), (3, "gamma beta")]
            )
            snippets = SnippetService(engine, window=2)
            assert [w.size for w in snippets.windows("beta gamma")] == [2, 2]
            assert len(snippets.windows("gamma")) == 3
            assert snippets.windows("missing words") == []
            snap = get_registry().snapshot()
            intersections = snap["index_phrase_intersections_total"]["series"]
            assert intersections[0]["value"] == 3.0
        finally:
            set_registry(previous)
