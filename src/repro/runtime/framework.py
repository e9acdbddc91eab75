"""The production runtime service (paper Section VI, Figure 4).

Composes the offline-built hash-table stores into the real-time path:

    document --> TokenizedDocument --> Stemmer --> detection
             --> feature lookups --> Ranker

and instruments the timed components the paper reports (stemmer and
ranker throughput in MB/sec over a document batch), plus per-stage
detection and feature-lookup timings.

The path is single-pass: the document is tokenized exactly once into a
shared :class:`TokenizedDocument`; the stemmer output becomes the
ranker's relevance context and the detectors walk the same token
stream.  The concept-vector baseline score is never computed here —
the RankSVM decision replaces it for every candidate.
``process_batch`` optionally fans a batch out over worker threads,
preserving input order and merging the per-worker timing stats.

Observability: every processed document feeds the service's
:class:`~repro.obs.MetricsRegistry` (per-stage latency histograms,
document/byte/detection counters, detections-per-document, and — in
batch mode — worker chunk queue/run timings), and the service's
:class:`~repro.obs.Tracer` keeps the full nested span tree
(stemmer → detect → rank[features]) for 1-in-N sampled requests.  The
legacy :class:`TimingStats` surface is now a thin view over the same
registry machinery; ranked output is byte-identical with observability
enabled or disabled (``benchmarks/bench_obs.py`` enforces < 3%
throughput overhead).

Ranking-quality observability rides on the same path: ``process(...,
explain=True)`` swaps in the :class:`~repro.obs.explain.ExplainableRanker`
(same floats, same order, plus per-feature score decompositions), an
attached :class:`~repro.obs.quality.QualityMonitor` sees every ranking,
and an attached :class:`~repro.obs.quality.DriftDetector` taps every
assembled feature matrix through ``ConceptRanker.feature_observer``.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

from repro.detection.base import Detection
from repro.detection.pipeline import AnnotatedDocument, ShortcutsPipeline
from repro.obs import (
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
    Tracer,
    get_registry,
    get_tracer,
)
from repro.obs.trace import mark_stage, stage_tracking_enabled
from repro.ranking.model import ConceptRanker, FeatureAssembler
from repro.ranking.ranksvm import RankSVM
from repro.runtime.store import QuantizedInterestingnessStore
from repro.runtime.tid import PackedRelevanceStore
from repro.text.tokenized import TokenizedDocument


_STAGES = ("stemmer", "detect", "features", "rank")


class TimingStats:
    """Accumulated component timings over processed documents.

    ``stemmer_seconds`` and ``ranker_seconds`` are the paper's two
    reported components (the ranker covers everything after stemming);
    ``detection_seconds`` and ``feature_seconds`` break the ranker
    component down into its detection and feature-lookup stages.

    The public API is unchanged from the original dataclass (keyword
    construction, attribute reads/writes, ``merge``, the ``*_mb_per_second``
    rates), but the fields now live as counters in a
    :class:`~repro.obs.MetricsRegistry` — by default a private one per
    instance, so snapshots taken before a reset keep their values.
    Pass *registry* to aggregate several views in one place.
    """

    _FLOAT_FIELDS = (
        "stemmer_seconds",
        "ranker_seconds",
        "detection_seconds",
        "feature_seconds",
    )
    _INT_FIELDS = ("bytes_processed", "documents", "detections")
    FIELDS = _FLOAT_FIELDS + _INT_FIELDS

    __slots__ = ("_counters",)

    def __init__(
        self,
        stemmer_seconds: float = 0.0,
        ranker_seconds: float = 0.0,
        detection_seconds: float = 0.0,
        feature_seconds: float = 0.0,
        bytes_processed: int = 0,
        documents: int = 0,
        detections: int = 0,
        registry: Optional[MetricsRegistry] = None,
    ):
        if registry is None or not registry.enabled:
            registry = MetricsRegistry()
        object.__setattr__(
            self,
            "_counters",
            {
                name: registry.counter(
                    f"timing_{name}_total",
                    help=f"legacy TimingStats field {name}",
                )
                for name in self.FIELDS
            },
        )
        initial = {
            "stemmer_seconds": stemmer_seconds,
            "ranker_seconds": ranker_seconds,
            "detection_seconds": detection_seconds,
            "feature_seconds": feature_seconds,
            "bytes_processed": bytes_processed,
            "documents": documents,
            "detections": detections,
        }
        for name, value in initial.items():
            if value:
                self._counters[name].inc(value)

    def _get(self, name: str) -> float:
        return self._counters[name].value

    def _set(self, name: str, value: float) -> None:
        self._counters[name]._set_total(value)

    def _rate(self, seconds: float) -> float:
        """MB/s over the accumulated byte count; ``nan`` before any work.

        Guards every division edge: zero/negative/non-finite seconds
        and a zero byte count all report ``nan`` ("no measurement")
        rather than raising or propagating inf — consistent with
        :meth:`~repro.obs.registry.Histogram.quantile` on an empty
        histogram, and unlike 0.0 never mistakable for a measured
        zero-throughput run.
        """
        bytes_processed = self.bytes_processed
        if (
            seconds <= 0.0
            or not math.isfinite(seconds)
            or bytes_processed <= 0
        ):
            return float("nan")
        return bytes_processed / seconds / 1e6

    @property
    def stemmer_mb_per_second(self) -> float:
        return self._rate(self.stemmer_seconds)

    @property
    def ranker_mb_per_second(self) -> float:
        return self._rate(self.ranker_seconds)

    @property
    def detection_mb_per_second(self) -> float:
        return self._rate(self.detection_seconds)

    @property
    def feature_mb_per_second(self) -> float:
        return self._rate(self.feature_seconds)

    @property
    def detections_per_document(self) -> float:
        documents = self.documents
        return self.detections / documents if documents else float("nan")

    def record_document(
        self,
        stem_seconds: float,
        detection_seconds: float,
        ranker_seconds: float,
        feature_seconds: float,
        document_bytes: int,
        detections: int,
    ) -> None:
        """Accumulate one document's timings via shard-local increments.

        Attribute ``+=`` on this class costs a locked merge-read plus a
        locked zero-and-set across every shard per field; the hot path
        calls this instead — seven lock-free ``Counter.inc`` bumps.
        """
        counters = self._counters
        counters["stemmer_seconds"].inc(stem_seconds)
        counters["detection_seconds"].inc(detection_seconds)
        counters["ranker_seconds"].inc(ranker_seconds)
        counters["feature_seconds"].inc(feature_seconds)
        counters["bytes_processed"].inc(document_bytes)
        counters["documents"].inc()
        if detections:
            counters["detections"].inc(detections)

    def merge(self, other: "TimingStats") -> "TimingStats":
        """Accumulate *other* into this stats object (returns self).

        Accepts any object exposing the seven field attributes; absent
        or falsy fields (a zero-byte stats object) merge as 0.0.
        """
        for name in self.FIELDS:
            value = getattr(other, name, 0) or 0
            if value:
                self._counters[name].inc(float(value))
        return self

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}

    def __eq__(self, other) -> bool:
        if not isinstance(other, TimingStats):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self.FIELDS
        )

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"TimingStats({body})"


def _timing_field(name: str, is_int: bool) -> property:
    if is_int:

        def fget(self):
            return int(self._get(name))

    else:

        def fget(self):
            return self._get(name)

    def fset(self, value):
        self._set(name, float(value))

    return property(fget, fset)


for _name in TimingStats._FLOAT_FIELDS:
    setattr(TimingStats, _name, _timing_field(_name, is_int=False))
for _name in TimingStats._INT_FIELDS:
    setattr(TimingStats, _name, _timing_field(_name, is_int=True))
del _name


class RankerService:
    """End-to-end runtime: quantized stores + trained model.

    Unlike the offline evaluation path, every feature consulted here
    comes from the precomputed columnar stores — the quantized
    interestingness matrix and the packed (or Golomb-compressed)
    relevance arena — exactly as the production framework requires.
    A document's candidates are scored with one batched ``score_many``
    arena pass instead of per-phrase dict lookups.

    *registry*/*tracer* default to the process-wide pair from
    :mod:`repro.obs`; pass explicit ones to isolate a service's
    telemetry (tests do).  Registry counters are cumulative for the
    life of the service — ``reset_stats`` only resets the legacy
    :class:`TimingStats` view, matching its original snapshot
    semantics.
    """

    def __init__(
        self,
        pipeline: ShortcutsPipeline,
        interestingness_store: QuantizedInterestingnessStore,
        relevance_store: Optional[PackedRelevanceStore],
        model: RankSVM,
        exclude_groups: Tuple[str, ...] = (),
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        quality=None,
        drift=None,
    ):
        self._pipeline = pipeline
        assembler = FeatureAssembler(
            extractor=interestingness_store,
            relevance_scorer=relevance_store,
            exclude_groups=exclude_groups,
        )
        self._store = interestingness_store
        self._assembler = assembler
        self._model = model
        self._ranker = ConceptRanker(assembler, model)
        self._explainer = None  # built lazily on the first explain=True
        self.quality = quality
        self.drift = drift
        if drift is not None:
            drift.bind(assembler.feature_names())
            self._ranker.feature_observer = drift.observe
        self._registry = registry if registry is not None else get_registry()
        self._tracer = tracer if tracer is not None else get_tracer()
        reg = self._registry
        self._m_stage = {
            stage: reg.histogram(
                "rank_stage_seconds",
                help="per-document stage latency",
                stage=stage,
            )
            for stage in _STAGES
        }
        self._m_stage_totals = {
            stage: reg.counter(
                "rank_stage_seconds_total",
                help="cumulative seconds by stage",
                stage=stage,
            )
            for stage in _STAGES
        }
        self._m_documents = reg.counter(
            "rank_documents_total", help="documents processed"
        )
        self._m_bytes = reg.counter(
            "rank_bytes_total", help="utf-8 bytes processed"
        )
        self._m_detections = reg.counter(
            "rank_detections_total", help="ranked detections emitted"
        )
        self._m_detections_per_doc = reg.histogram(
            "rank_detections_per_document",
            help="ranked detections per document",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._m_chunk_queue = reg.histogram(
            "rank_batch_chunk_queue_seconds",
            help="batch chunk time from submit to worker start",
        )
        self._m_chunk_run = reg.histogram(
            "rank_batch_chunk_run_seconds",
            help="batch chunk time on the worker",
        )
        self._m_chunks = reg.counter(
            "rank_batch_chunks_total", help="batch chunks dispatched"
        )
        self._m_batch_size = reg.histogram(
            "rank_batch_documents",
            help="documents per process_batch call",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._m_workers = reg.gauge(
            "rank_batch_workers", help="workers used by the last batch"
        )
        self.stats = TimingStats()

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry

    @property
    def tracer(self) -> Tracer:
        return self._tracer

    def reset_stats(self) -> None:
        """Fresh legacy stats view (registry counters stay cumulative)."""
        self.stats = TimingStats()

    def observe_resident_bytes(self) -> dict:
        """Measure the serving stores' payload bytes into the registry.

        Sets ``resident_bytes{component=...}`` gauges for the quantized
        interestingness matrix, the relevance arena (packed or
        Golomb–Rice coded), and the feature arena, and returns the
        measured map — the ``/debug/heap`` surface calls this per
        scrape, so the gauges track arena growth live.
        """
        from repro.obs.profile import record_resident_bytes

        components = {"interestingness_store": self._store}
        relevance = self._assembler.relevance_scorer
        if relevance is not None:
            components["relevance_store"] = relevance
        arena = getattr(self._assembler, "_numeric_arena", None)
        if arena is not None:
            components["feature_arena"] = arena
        return record_resident_bytes(components, registry=self._registry)

    def _explainable_ranker(self):
        """The explain-path twin of the ranker (built on first use)."""
        if self._explainer is None:
            from repro.obs.explain import ExplainableRanker

            explainer = ExplainableRanker(self._assembler, self._model)
            explainer.feature_observer = self._ranker.feature_observer
            self._explainer = explainer
        return self._explainer

    def process(
        self, text: str, top: Optional[int] = None, explain: bool = False
    ):
        """Detect, score, and rank the concepts of *text* (timed).

        Returns the ranked detections; with ``explain=True`` returns
        ``(ranked, explanations)`` instead, where ``explanations[i]``
        decomposes ``ranked[i]``'s score per feature (linear kernel
        only).  The ranked order is identical either way — the explain
        path replays the exact same float operations.
        """
        return self._process(text, top, self.stats, explain=explain)

    def _process(
        self,
        text: str,
        top: Optional[int],
        stats: TimingStats,
        explain: bool = False,
    ):
        """One document through the single-pass path, timed into *stats*."""
        trace = self._tracer.start("process")
        # Publish the stage the thread is in for the sampling profiler
        # (repro.obs.profile) — one module-global bool check per stage
        # boundary when nothing is profiling, so the hot path stays hot.
        marking = stage_tracking_enabled()
        if marking:
            mark_stage("stemmer")
        started = time.perf_counter()
        document = TokenizedDocument(text)
        # The Stemmer component's pass: tokenize once, stem once.  The
        # result stays cached on `document` and becomes the relevance
        # context of the ranking stage below — timed work is real work.
        # Routed through the pipeline so a compiled detection kernel's
        # vocab->stem table serves the pass (Porter only for OOV words);
        # without a kernel this is exactly `document.stemmed_terms`.
        self._pipeline.stem_document(document)
        stem_done = time.perf_counter()

        if marking:
            mark_stage("detect")
        # Unscored: the ranker below overwrites every detection's score,
        # so the concept-vector baseline would be discarded work.
        annotated = self._pipeline.process_document(document, score=False)
        detect_done = time.perf_counter()
        if marking:
            mark_stage("rank")

        known = [
            d for d in annotated.rankable() if d.phrase in self._store
        ]
        pruned = AnnotatedDocument(
            text=annotated.text, detections=known, tokens=document
        )
        explanations = None
        if explain:
            ranked, explanations, feature_seconds = (
                self._explainable_ranker().explain_document_timed(pruned)
            )
        else:
            ranked, feature_seconds = self._ranker.rank_document_timed(pruned)
        if self.quality is not None and ranked:
            self.quality.observe_ranking(
                [d.phrase for d in ranked], [d.score for d in ranked]
            )
        if top is not None:
            ranked = ranked[:top]
            if explanations is not None:
                explanations = explanations[:top]
        rank_done = time.perf_counter()
        if marking:
            mark_stage(None)

        stem_seconds = stem_done - started
        detect_seconds = detect_done - stem_done
        rank_seconds = rank_done - detect_done
        document_bytes = len(text.encode("utf-8"))

        stats.record_document(
            stem_seconds,
            detect_seconds,
            rank_done - stem_done,
            feature_seconds,
            document_bytes,
            len(ranked),
        )

        self._m_stage["stemmer"].observe(stem_seconds)
        self._m_stage["detect"].observe(detect_seconds)
        self._m_stage["features"].observe(feature_seconds)
        self._m_stage["rank"].observe(rank_seconds)
        self._m_stage_totals["stemmer"].inc(stem_seconds)
        self._m_stage_totals["detect"].inc(detect_seconds)
        self._m_stage_totals["features"].inc(feature_seconds)
        self._m_stage_totals["rank"].inc(rank_seconds)
        self._m_documents.inc()
        self._m_bytes.inc(document_bytes)
        self._m_detections.inc(len(ranked))
        self._m_detections_per_doc.observe(len(ranked))

        if trace.sampled:
            # Reuse the clock readings already taken above — the trace
            # costs no extra perf_counter calls on the hot path.
            trace.record("stemmer", started, stem_done)
            trace.record("detect", stem_done, detect_done)
            rank_span = trace.record("rank", detect_done, rank_done)
            feature_span = trace.record_duration(
                "features", detect_done, feature_seconds
            )
            rank_span.children.append(feature_span)
            trace.spans.remove(feature_span)
            trace.meta.update(
                {
                    "bytes": document_bytes,
                    "detections": len(ranked),
                    "top": top,
                }
            )
            if explanations is not None:
                trace.meta["explanations"] = [
                    e.to_dict() for e in explanations
                ]
        self._tracer.finish(trace)
        if explain:
            return ranked, explanations if explanations is not None else []
        return ranked

    def process_batch(
        self,
        documents: Sequence[str],
        top: Optional[int] = None,
        workers: Optional[int] = None,
    ) -> List[List[Detection]]:
        """The Section VI throughput experiment over a document batch.

        With ``workers`` > 1 the batch is split into contiguous chunks
        processed on a thread pool; results come back in input order and
        every worker's :class:`TimingStats` is merged into
        ``self.stats``, so the aggregate counters match sequential mode.
        Chunk queue time (submit → worker pickup) and run time feed the
        batch histograms.
        """
        self._m_batch_size.observe(len(documents))
        if workers is None or workers <= 1 or len(documents) <= 1:
            self._m_workers.set(1)
            return [self.process(text, top=top) for text in documents]
        worker_count = min(workers, len(documents))
        self._m_workers.set(worker_count)
        chunk_size = -(-len(documents) // worker_count)  # ceil division
        chunks = [
            documents[offset : offset + chunk_size]
            for offset in range(0, len(documents), chunk_size)
        ]
        submitted = time.perf_counter()

        def run_chunk(chunk: Sequence[str]) -> Tuple[List[List[Detection]], TimingStats]:
            picked_up = time.perf_counter()
            stats = TimingStats()
            results = [self._process(text, top, stats) for text in chunk]
            self._m_chunk_queue.observe(picked_up - submitted)
            self._m_chunk_run.observe(time.perf_counter() - picked_up)
            self._m_chunks.inc()
            return results, stats

        ranked: List[List[Detection]] = []
        with ThreadPoolExecutor(max_workers=worker_count) as pool:
            for results, stats in pool.map(run_chunk, chunks):
                ranked.extend(results)
                self.stats.merge(stats)
        return ranked
