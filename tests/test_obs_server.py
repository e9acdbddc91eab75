"""Telemetry HTTP server: every endpoint against a live ephemeral port."""

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.features import RelevanceModel
from repro.obs import MetricsRegistry, Tracer
from repro.obs.quality import DriftBaseline, DriftDetector, QualityMonitor
from repro.obs.server import ROUTES, TelemetryServer
from repro.ranking import RankSVM
from repro.runtime import (
    PackedRelevanceStore,
    QuantizedInterestingnessStore,
    RankerService,
)


def _get(url, timeout=10):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


def _post(url, data, content_type="application/json", timeout=10):
    request = urllib.request.Request(
        url, data=data.encode("utf-8"), method="POST",
        headers={"Content-Type": content_type},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


@pytest.fixture(scope="module")
def stack(env_world, env_extractor, env_miner, env_pipeline):
    """A full serving stack behind a live TelemetryServer."""
    phrases = [c.phrase for c in env_world.concepts]
    interestingness = QuantizedInterestingnessStore.build(
        env_extractor, phrases
    )
    relevance = PackedRelevanceStore.build(
        RelevanceModel.mine_all(env_miner, phrases[:30])
    )
    svm = RankSVM(epochs=30)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 16))
    svm.fit(X, X[:, 0], np.repeat(np.arange(8), 5))

    registry = MetricsRegistry()
    tracer = Tracer(registry=registry, sample_every=1)
    quality = QualityMonitor(registry=registry, positions=4)
    drift = DriftDetector(
        DriftBaseline.from_store(interestingness), registry=registry
    )
    service = RankerService(
        env_pipeline, interestingness, relevance, svm,
        registry=registry, tracer=tracer, quality=quality, drift=drift,
    )
    server = TelemetryServer(
        service=service, registry=registry, tracer=tracer,
        drift=drift, quality=quality, port=0,
    )
    with server:
        yield server


@pytest.fixture(scope="module")
def story_text(env_stories):
    return env_stories[0].text


class TestEndpoints:
    def test_ephemeral_port_bound(self, stack):
        assert stack.port > 0
        assert stack.url == f"http://127.0.0.1:{stack.port}"

    def test_healthz(self, stack):
        status, body = _get(stack.url + "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["uptime_seconds"] >= 0

    def test_readyz_with_service(self, stack):
        status, body = _get(stack.url + "/readyz")
        assert status == 200
        payload = json.loads(body)
        assert payload["ready"] is True
        assert payload["service_loaded"] is True
        assert payload["drift"]["monitored"]
        assert payload["drift"]["unmonitored"] == ["relevance"]
        assert len(payload["quality"]["ctr_by_position"]) == 4

    def test_metrics_exposition(self, stack, story_text):
        stack.service.process(story_text, top=5)
        status, body = _get(stack.url + "/metrics")
        assert status == 200
        assert "# TYPE repro_rank_documents_total counter" in body
        assert "repro_rank_documents_total" in body
        assert "repro_feature_drift_zscore" in body
        # the server's own requests are instrumented into the same page
        status, body = _get(stack.url + "/metrics")
        assert (
            'repro_http_requests_total{method="GET",path="/metrics"'
            in body
        )

    def test_explain_json_body(self, stack, story_text):
        status, body = _post(
            stack.url + "/explain",
            json.dumps({"text": story_text, "top": 3}),
        )
        assert status == 200
        payload = json.loads(body)
        assert len(payload["ranked"]) <= 3
        assert len(payload["ranked"]) == len(payload["explanations"])
        assert payload["ranked"], "story must rank concepts"
        first = payload["explanations"][0]
        assert first["phrase"] == payload["ranked"][0]["phrase"]
        contributions = first["contributions"]
        total = sum(c["contribution"] for c in contributions)
        assert total == pytest.approx(first["decision_score"], abs=1e-9)

    def test_explain_raw_text_body(self, stack, story_text):
        status, body = _post(
            stack.url + "/explain", story_text, content_type="text/plain"
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["ranked"]

    def test_explain_bad_bodies(self, stack):
        status, body = _post(stack.url + "/explain", "")
        assert status == 400
        status, body = _post(stack.url + "/explain", '{"no_text": 1}')
        assert status == 400
        assert "text" in json.loads(body)["error"]

    def test_traces_recent_carries_sampled_requests(self, stack, story_text):
        stack.service.process(story_text, top=2, explain=True)
        status, body = _get(stack.url + "/traces/recent")
        assert status == 200
        traces = json.loads(body)["traces"]
        assert traces
        assert any(
            "explanations" in t.get("meta", {}) for t in traces
        )

    def test_unknown_path_404(self, stack):
        status, body = _get(stack.url + "/nope")
        assert status == 404
        status, __ = _get(stack.url + "/explain/deeper")
        assert status == 404

    def test_method_mismatches_405(self, stack):
        status, __ = _get(stack.url + "/explain")  # GET on POST route
        assert status == 405
        status, __ = _post(stack.url + "/metrics", "{}")
        assert status == 405

    def test_trailing_slash_routes(self, stack):
        status, __ = _get(stack.url + "/healthz/")
        assert status == 200

    def test_request_metrics_recorded(self, stack):
        _get(stack.url + "/healthz")
        snap = stack.registry.snapshot()
        series = snap["http_requests_total"]["series"]
        healthz = [
            s for s in series if s["labels"]["path"] == "/healthz"
        ]
        assert healthz and healthz[0]["value"] >= 1
        latency = [
            s
            for s in snap["http_request_seconds"]["series"]
            if s["labels"]["path"] == "/healthz"
        ]
        assert latency and latency[0]["count"] >= 1

    def test_404s_roll_up_to_other_route(self, stack):
        _get(stack.url + "/definitely/not/a/route")
        series = stack.registry.snapshot()["http_requests_total"]["series"]
        other = [
            s
            for s in series
            if s["labels"]["path"] == "other"
            and s["labels"]["status"] == "404"
        ]
        assert other and other[0]["value"] >= 1


class TestServerWithoutService:
    def test_degrades_to_metrics_only(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry, sample_every=0)
        with TelemetryServer(registry=registry, tracer=tracer) as server:
            status, __ = _get(server.url + "/healthz")
            assert status == 200
            status, body = _get(server.url + "/readyz")
            assert status == 503
            assert json.loads(body)["ready"] is False
            status, body = _post(
                server.url + "/explain", json.dumps({"text": "x"})
            )
            assert status == 503
            assert "no ranking service" in json.loads(body)["error"]
            status, __ = _get(server.url + "/metrics")
            assert status == 200
            status, body = _get(server.url + "/traces/recent")
            assert status == 200
            assert json.loads(body)["traces"] == []

    def test_double_start_refuses(self):
        server = TelemetryServer(registry=MetricsRegistry(),
                                 tracer=Tracer(sample_every=0))
        try:
            server.start()
            with pytest.raises(RuntimeError):
                server.start()
        finally:
            server.stop()

    def test_route_table_is_complete(self):
        assert set(ROUTES) == {
            "/metrics", "/healthz", "/readyz", "/explain", "/traces/recent",
            "/debug/profile", "/debug/heap", "/debug/gc",
        }


class TestDebugEndpoints:
    def test_profile_collapsed_default(self, stack):
        status, body = _get(stack.url + "/debug/profile?seconds=0.2")
        assert status == 200
        for line in body.strip().splitlines():
            stack_part, __, count = line.rpartition(" ")
            assert int(count) > 0
            assert ";" in stack_part or stack_part  # frame;frame count

    def test_profile_top_and_json_formats(self, stack):
        status, body = _get(
            stack.url + "/debug/profile?seconds=0.2&format=top&hz=200"
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["profile"]["sample_ticks"] > 0
        assert payload["profile"]["hz"] == 200
        assert "top_stacks" in payload and "top_functions" in payload
        status, body = _get(
            stack.url + "/debug/profile?seconds=0.2&format=json"
        )
        assert status == 200
        tree = json.loads(body)["call_tree"]
        assert tree["name"] == "root"
        assert isinstance(tree["children"], list)

    def test_profile_bad_params_400(self, stack):
        status, __ = _get(stack.url + "/debug/profile?seconds=abc")
        assert status == 400
        status, __ = _get(stack.url + "/debug/profile?format=flame")
        assert status == 400

    def test_profile_concurrent_runs_conflict(self, stack):
        import threading

        results = []

        def scrape():
            results.append(
                _get(stack.url + "/debug/profile?seconds=1")[0]
            )

        first = threading.Thread(target=scrape)
        first.start()
        # wait until the first scrape holds the lock, not a fixed sleep
        deadline = time.monotonic() + 10.0
        while not stack._profile_lock.locked():
            assert time.monotonic() < deadline, "first scrape never started"
            time.sleep(0.005)
        status, body = _get(stack.url + "/debug/profile?seconds=0.1")
        first.join()
        assert results == [200]
        assert status == 409
        assert "in progress" in json.loads(body)["error"]

    def test_heap_toggle_and_report(self, stack):
        status, body = _get(stack.url + "/debug/heap?tracemalloc=on")
        assert status == 200
        payload = json.loads(body)
        assert payload["heap"]["tracing"] is True
        # the serving stack reports its stores' resident bytes
        resident = payload["resident_bytes"]
        assert resident["interestingness_store"] > 0
        assert resident["relevance_store"] > 0
        status, body = _get(stack.url + "/debug/heap?top=3")
        payload = json.loads(body)
        assert len(payload["top_allocations"]) <= 3
        for row in payload["top_allocations"]:
            assert row["size_bytes"] >= 0
        status, body = _get(stack.url + "/debug/heap?tracemalloc=off")
        assert json.loads(body)["heap"]["tracing"] is False
        status, __ = _get(stack.url + "/debug/heap?tracemalloc=maybe")
        assert status == 400

    def test_gc_report(self, stack):
        status, body = _get(stack.url + "/debug/gc")
        assert status == 200
        payload = json.loads(body)
        assert payload["monitoring"] is True
        assert len(payload["counts"]) == 3
        assert payload["pauses"]["count"] >= 0

    def test_post_to_debug_routes_405(self, stack):
        for route in ("/debug/profile", "/debug/heap", "/debug/gc"):
            status, __ = _post(stack.url + route, "{}")
            assert status == 405
