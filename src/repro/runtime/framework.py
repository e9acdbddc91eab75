"""The production runtime service (paper Section VI, Figure 4).

Composes the offline-built hash-table stores into the real-time path:

    document --> TokenizedDocument --> Stemmer --> detection
             --> feature lookups --> Ranker

and times it with one :class:`~repro.obs.trace.StageClock` per request:
four consecutive stages, ``stemmer`` -> ``detect`` -> ``features`` ->
``rank``, one ``perf_counter`` reading per boundary.  Each reading pair
feeds the stage's ``rank_stage_seconds`` histogram, the sampled trace's
span and the profiler's thread->stage map, so the four histograms add
up to the whole request.  :meth:`RankerService.throughput` turns them
into the MB/s figures the paper reports (stemmer and ranker throughput
over a document batch).

The path is single-pass: the document is tokenized exactly once into a
shared :class:`TokenizedDocument`; the stemmer output becomes the
ranker's relevance context and the detectors walk the same token
stream.  The concept-vector baseline score is never computed here —
the RankSVM decision replaces it for every candidate.

Observability: every processed document feeds the service's
:class:`~repro.obs.MetricsRegistry` (per-stage latency histograms,
document/byte/detection counters, detections-per-document), and the
service's :class:`~repro.obs.Tracer` keeps the flat stage spans of
1-in-N sampled requests.  Ranked output is byte-identical with
observability enabled or disabled (``benchmarks/bench_obs.py`` checks
that and times the overhead).

Ranking-quality observability rides on the same path: ``process(...,
explain=True)`` swaps in the :class:`~repro.obs.explain.ExplainableRanker`
(same floats, same order, plus per-feature score decompositions), an
attached :class:`~repro.obs.quality.QualityMonitor` sees every ranking,
and an attached :class:`~repro.obs.quality.DriftDetector` taps every
assembled feature matrix through ``ConceptRanker.feature_observer``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.detection.base import Detection
from repro.detection.pipeline import AnnotatedDocument, ShortcutsPipeline
from repro.obs import (
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
    Tracer,
    get_registry,
    get_tracer,
)
from repro.obs.trace import StageClock
from repro.ranking.model import ConceptRanker, FeatureAssembler
from repro.ranking.ranksvm import RankSVM
from repro.runtime.store import QuantizedInterestingnessStore
from repro.runtime.tid import PackedRelevanceStore
from repro.text.tokenized import TokenizedDocument


_STAGES = ("stemmer", "detect", "features", "rank")
# The paper's "ranker" component: everything after stemming.
_RANKER_STAGES = ("detect", "features", "rank")


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
    telemetry (tests and benches do: :meth:`throughput` reads the
    registry's stage histograms, and ``registry.reset()`` starts a new
    measurement window).
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
        self._m_batch_size = reg.histogram(
            "rank_batch_documents",
            help="documents per process_batch call",
            buckets=DEFAULT_SIZE_BUCKETS,
        )

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry

    @property
    def tracer(self) -> Tracer:
        return self._tracer

    def throughput(self) -> Dict[str, float]:
        """Section VI throughput in MB/s, from this service's registry.

        One figure per stage — bytes processed over the stage's summed
        ``rank_stage_seconds`` — plus ``ranker``, the paper's second
        component: detect + features + rank.  A stage with no measured
        time (before any document, or with metrics disabled) reports
        ``nan``, never a 0.0 that would read as a measured standstill.
        """
        megabytes = self._m_bytes.value / 1e6
        seconds = {stage: self._m_stage[stage].sum for stage in _STAGES}
        seconds["ranker"] = sum(seconds[stage] for stage in _RANKER_STAGES)
        nan = float("nan")
        return {
            name: megabytes / spent if megabytes > 0 and spent > 0 else nan
            for name, spent in seconds.items()
        }

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
        trace = self._tracer.start("process")
        clock = StageClock(self._m_stage, trace)
        clock.lap("stemmer")
        try:
            document = TokenizedDocument(text)
            # The Stemmer component's pass: tokenize once, stem once.  The
            # result stays cached on `document` and becomes the relevance
            # context of the ranking stage below — timed work is real work.
            # Routed through the pipeline so its compiled detection
            # kernel's vocab->stem table serves the pass (Porter only for
            # OOV words).
            self._pipeline.stem_document(document)
            clock.lap("detect")
            # Unscored: the ranker below overwrites every detection's score,
            # so the concept-vector baseline would be discarded work.
            annotated = self._pipeline.process_document(document, score=False)
            clock.lap("features")
            known = [
                d for d in annotated.rankable() if d.phrase in self._store
            ]
            pruned = AnnotatedDocument(
                text=annotated.text, detections=known, tokens=document
            )
            # The ranker laps "rank" once the feature matrix is built.
            explanations = None
            if explain:
                explainer = self._explainable_ranker()
                ranked, explanations = explainer.explain_document(
                    pruned, clock=clock
                )
            else:
                ranked = self._ranker.rank_document(pruned, clock)
            if self.quality is not None and ranked:
                self.quality.observe_ranking(
                    [d.phrase for d in ranked], [d.score for d in ranked]
                )
            if top is not None:
                ranked = ranked[:top]
                if explanations is not None:
                    explanations = explanations[:top]
        finally:
            # Also on failure: a raised stage must not stay published
            # to the profiler's thread->stage map.
            clock.lap(None)

        document_bytes = len(text.encode("utf-8"))
        self._m_documents.inc()
        self._m_bytes.inc(document_bytes)
        self._m_detections.inc(len(ranked))
        self._m_detections_per_doc.observe(len(ranked))
        if trace.sampled:
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
            return ranked, explanations
        return ranked

    def process_batch(
        self, documents: Sequence[str], top: Optional[int] = None
    ) -> List[List[Detection]]:
        """The Section VI throughput experiment over a document batch."""
        self._m_batch_size.observe(len(documents))
        return [self.process(text, top=top) for text in documents]
