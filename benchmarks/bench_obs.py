"""Observability overhead benchmark: metrics on vs. fully disabled.

The observability layer promises a lock-free hot path — per-thread
numpy shards, ~one array increment per event — so turning it on must
not meaningfully slow the serving path.  This benchmark builds the same
deterministic world twice, once with the registry disabled and once
with metrics enabled plus 1-in-100 trace sampling (the production
shape), runs the identical document batch through both services with
interleaved repeats, and records:

* end-to-end throughput in both modes and the relative overhead
  (**must stay under 3%** on the full run; the smoke run allows 10%
  for CI timer noise);
* a third *quality* mode — metrics plus an attached QualityMonitor and
  DriftDetector, the ``repro serve`` shape — whose explain=False
  throughput must stay within **1%** of plain metrics-on (smoke: 10%);
* a byte-identical check on the ranked output — observability must
  never change a score or an ordering — and an explain-equivalence
  check: ``process(..., explain=True)`` must reproduce the plain
  ranking (phrase, span, kind, score) byte for byte;
* the enabled registry's snapshot (via ``_report.attach_metrics``) so
  ``BENCH_obs.json`` doubles as an exposition-format example.

Run standalone (``python benchmarks/bench_obs.py [--smoke]``) or under
pytest (``PYTHONPATH=src pytest benchmarks/bench_obs.py``).
"""

import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
for path in (_HERE, os.path.join(os.path.dirname(_HERE), "src")):
    if path not in sys.path:  # allow `python benchmarks/bench_obs.py`
        sys.path.insert(0, path)

from _report import attach_metrics, record_section
from _service import build_service
from repro.obs import configure, get_registry

SNAPSHOT_PATH = os.path.join(_HERE, "BENCH_obs.json")

DOCUMENT_COUNT = int(os.environ.get("REPRO_BENCH_OBS_DOCS", "300"))
SMOKE_DOCUMENT_COUNT = 40
TRACE_SAMPLE_EVERY = 100
REPEATS = 3
SMOKE_REPEATS = 1
OVERHEAD_BAR = 0.03
SMOKE_OVERHEAD_BAR = 0.10
QUALITY_OVERHEAD_BAR = 0.01  # quality+drift vs plain metrics-on
SMOKE_QUALITY_OVERHEAD_BAR = 0.10
EXPLAIN_CHECK_DOCUMENTS = 40  # explain re-runs per-concept python loops


def _build_mode(enabled, document_count, with_quality=False):
    """(service, documents) built under a fresh registry/tracer pair.

    ``configure`` must run before construction: instrumented objects
    bind their metric handles when built, so the disabled service holds
    no-op metrics end to end.
    """
    configure(
        enabled=enabled,
        sample_every=TRACE_SAMPLE_EVERY if enabled else 0,
    )
    return build_service(document_count, with_quality=with_quality)


def _serialized(results):
    """Ranked output as canonical bytes for the byte-identical check."""
    return json.dumps(
        [
            [(d.phrase, d.start, d.end, d.kind, d.score) for d in ranked]
            for ranked in results
        ],
        sort_keys=True,
    ).encode("utf-8")


def _explain_matches_plain(service, documents):
    """explain=True reproduces the plain ranking byte for byte."""
    for text in documents:
        plain = service.process(text, top=5)
        ranked, explanations = service.process(text, top=5, explain=True)
        if _serialized([plain]) != _serialized([ranked]):
            return False
        if len(explanations) != len(ranked):
            return False
        for detection, explanation in zip(ranked, explanations):
            if explanation.phrase != detection.phrase:
                return False
            if abs(explanation.contribution_sum()
                   - explanation.decision_score) > 1e-9:
                return False
    return True


def run_obs_benchmark(document_count=DOCUMENT_COUNT, repeats=REPEATS):
    # Build order: disabled first, then the enabled pair — the
    # quality-mode registry must be the installed one afterwards so
    # attach_metrics exports the full serving shape.
    service_off, documents = _build_mode(False, document_count)
    service_on, documents_on = _build_mode(True, document_count)
    registry_on = get_registry()
    service_quality, documents_quality = _build_mode(
        True, document_count, with_quality=True
    )
    registry_quality = get_registry()
    assert documents == documents_on == documents_quality  # same seeds
    total_bytes = sum(len(text.encode("utf-8")) for text in documents)

    # one warmup pass each (kernels compile, caches settle identically)
    results_off = service_off.process_batch(documents, top=5)
    results_on = service_on.process_batch(documents, top=5)
    results_quality = service_quality.process_batch(documents, top=5)
    explain_identical = _explain_matches_plain(
        service_quality, documents[:EXPLAIN_CHECK_DOCUMENTS]
    )

    # interleaved repeats, min-of: robust to machine noise drifting
    # between the measurement blocks
    seconds_off, seconds_on, seconds_quality = [], [], []
    for __ in range(repeats):
        started = time.perf_counter()
        service_off.process_batch(documents, top=5)
        seconds_off.append(time.perf_counter() - started)
        started = time.perf_counter()
        service_on.process_batch(documents, top=5)
        seconds_on.append(time.perf_counter() - started)
        started = time.perf_counter()
        service_quality.process_batch(documents, top=5)
        seconds_quality.append(time.perf_counter() - started)
    best_off = min(seconds_off)
    best_on = min(seconds_on)
    best_quality = min(seconds_quality)
    overhead = (best_on - best_off) / best_off
    quality_overhead = (best_quality - best_on) / best_on

    sampled = registry_quality.snapshot().get("trace_sampled_total")
    snapshot = {
        "config": {
            "documents": len(documents),
            "bytes": total_bytes,
            "repeats": repeats,
            "trace_sample_every": TRACE_SAMPLE_EVERY,
            "overhead_bar": OVERHEAD_BAR,
            "quality_overhead_bar": QUALITY_OVERHEAD_BAR,
            "explain_check_documents": EXPLAIN_CHECK_DOCUMENTS,
        },
        "disabled": {
            "seconds": round(best_off, 4),
            "mb_per_second": round(total_bytes / best_off / 1e6, 4),
        },
        "enabled": {
            "seconds": round(best_on, 4),
            "mb_per_second": round(total_bytes / best_on / 1e6, 4),
            "sampled_traces": (
                int(sampled["series"][0]["value"]) if sampled else 0
            ),
        },
        "quality": {
            "seconds": round(best_quality, 4),
            "mb_per_second": round(total_bytes / best_quality / 1e6, 4),
        },
        "overhead_fraction": round(overhead, 5),
        "quality_overhead_fraction": round(quality_overhead, 5),
        "equivalence": {
            "identical_with_observability": (
                results_on == results_off
                and _serialized(results_on) == _serialized(results_off)
            ),
            "identical_with_quality_monitors": (
                _serialized(results_quality) == _serialized(results_off)
            ),
            "explain_order_identical": explain_identical,
            "overhead_within_bar": overhead < OVERHEAD_BAR,
            "quality_overhead_within_bar": (
                quality_overhead < QUALITY_OVERHEAD_BAR
            ),
        },
    }
    return attach_metrics(snapshot, registry_quality)


def check_snapshot(
    snapshot, overhead_bar=OVERHEAD_BAR,
    quality_overhead_bar=QUALITY_OVERHEAD_BAR,
):
    """The PR's acceptance criteria, enforced on every run."""
    assert snapshot["equivalence"]["identical_with_observability"]
    assert snapshot["equivalence"]["identical_with_quality_monitors"]
    assert snapshot["equivalence"]["explain_order_identical"]
    assert snapshot["overhead_fraction"] < overhead_bar, snapshot
    assert (
        snapshot["quality_overhead_fraction"] < quality_overhead_bar
    ), snapshot
    assert snapshot["enabled"]["sampled_traces"] >= 1, snapshot["enabled"]
    assert "metrics" in snapshot and "rank_stage_seconds" in snapshot["metrics"]
    assert "feature_drift_zscore" in snapshot["metrics"]


def report_lines(snapshot):
    return [
        f"documents: {snapshot['config']['documents']}, "
        f"{snapshot['config']['bytes'] / 1e6:.2f} MB total, "
        f"min of {snapshot['config']['repeats']} interleaved repeats",
        f"observability off: {snapshot['disabled']['mb_per_second']:6.3f} MB/s",
        f"observability on : {snapshot['enabled']['mb_per_second']:6.3f} MB/s "
        f"(1/{snapshot['config']['trace_sample_every']} trace sampling, "
        f"{snapshot['enabled']['sampled_traces']} traces kept)",
        f"quality+drift on : {snapshot['quality']['mb_per_second']:6.3f} MB/s",
        f"overhead: {snapshot['overhead_fraction'] * 100:+.2f}% "
        f"(bar: {snapshot['config']['overhead_bar'] * 100:.0f}%)",
        f"quality overhead vs metrics-on: "
        f"{snapshot['quality_overhead_fraction'] * 100:+.2f}% "
        f"(bar: {snapshot['config']['quality_overhead_bar'] * 100:.0f}%)",
        f"ranked output byte-identical: "
        f"{snapshot['equivalence']['identical_with_observability']}, "
        f"with quality monitors: "
        f"{snapshot['equivalence']['identical_with_quality_monitors']}, "
        f"explain order: "
        f"{snapshot['equivalence']['explain_order_identical']}",
    ]


def test_observability_overhead():
    """Pytest entry: smoke-size run with the relaxed noise bar."""
    snapshot = run_obs_benchmark(SMOKE_DOCUMENT_COUNT, repeats=SMOKE_REPEATS)
    check_snapshot(
        snapshot,
        overhead_bar=SMOKE_OVERHEAD_BAR,
        quality_overhead_bar=SMOKE_QUALITY_OVERHEAD_BAR,
    )
    record_section("Observability — overhead of metrics + tracing", report_lines(snapshot))


def main(argv):
    smoke = "--smoke" in argv
    count = SMOKE_DOCUMENT_COUNT if smoke else DOCUMENT_COUNT
    repeats = SMOKE_REPEATS if smoke else REPEATS
    snapshot = run_obs_benchmark(count, repeats=repeats)
    check_snapshot(
        snapshot,
        overhead_bar=SMOKE_OVERHEAD_BAR if smoke else OVERHEAD_BAR,
        quality_overhead_bar=(
            SMOKE_QUALITY_OVERHEAD_BAR if smoke else QUALITY_OVERHEAD_BAR
        ),
    )
    if not smoke:  # the snapshot tracks the full-size run only
        with open(SNAPSHOT_PATH, "w") as handle:
            json.dump(snapshot, handle, indent=1)
            handle.write("\n")
    print("\n".join(report_lines(snapshot)))
    print("observability benchmark OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
