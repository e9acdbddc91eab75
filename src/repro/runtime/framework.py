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
explain=True)`` decomposes the ranker's own scoring pass per feature
(:func:`~repro.obs.explain.explain_ranking`: same floats, same order),
an attached :class:`~repro.obs.quality.QualityMonitor` sees every ranking,
and an attached :class:`~repro.obs.quality.DriftDetector` taps every
assembled feature matrix through ``ConceptRanker.feature_observer``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.detection.base import Detection
from repro.detection.pipeline import PATTERN, ShortcutsPipeline, TerminalColumns
from repro.obs import (
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
    Tracer,
    get_registry,
    get_tracer,
)
from repro.obs.explain import explain_ranking
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
    A document's candidates are scored with one row gather from the
    interestingness store's dequantized matrix and one batched
    ``score_many`` arena pass.  The stores and the feature assembler
    are immutable, so concurrent ``process`` calls (the telemetry
    server runs one thread per request) share them without a lock.

    Candidates stay ids from the scan to the sort: each terminal of the
    pipeline's detector scan is mapped once, per kernel, to its store
    rows (:meth:`_terminal_rows`), so a document's store filter and
    feature rows are list reads, and :class:`Detection` objects are
    built only for the list :meth:`process` returns.

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
        # (terminal columns, interestingness rows, relevance rows): the
        # store rows of each terminal of the pipeline kernel's scan
        self._rows: Optional[Tuple[TerminalColumns, List[int], List[int]]] = None
        assembler = FeatureAssembler(
            extractor=interestingness_store,
            relevance_scorer=relevance_store,
            exclude_groups=exclude_groups,
        )
        self._store = interestingness_store
        self._assembler = assembler
        self._model = model
        self._ranker = ConceptRanker(assembler, model)
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
        interestingness store, the relevance arena (packed or
        Golomb–Rice coded), and the feature arena (the interestingness
        store's dequantized matrix, which the first gauge includes),
        and returns the measured map — the ``/debug/heap`` surface
        calls this per scrape.
        """
        from repro.obs.profile import record_resident_bytes

        components = {
            "interestingness_store": self._store,
            "feature_arena": self._store.dequantized,
        }
        relevance = self._assembler.relevance_scorer
        if relevance is not None:
            components["relevance_store"] = relevance
        return record_resident_bytes(components, registry=self._registry)

    def _terminal_rows(
        self, columns: TerminalColumns
    ) -> Tuple[TerminalColumns, List[int], List[int]]:
        """Each terminal's interestingness-store row and relevance-arena
        row (-1 where absent, and at states that end no phrase), looked
        up once per attached kernel by its canonical phrase."""
        rows = self._rows
        if rows is not None and rows[0] is columns:
            return rows
        keys = columns.keys
        phrases = [key for key in keys if key is not None]

        def column(store) -> List[int]:
            found = dict(zip(phrases, store.rows_of(phrases).tolist()))
            return [found.get(key, -1) for key in keys]

        relevance = self._assembler.relevance_scorer
        # published with one assignment: two threads mapping a new
        # kernel at once can at worst both build it
        rows = self._rows = (
            columns,
            column(self._store),
            column(relevance) if relevance is not None else [-1] * len(keys),
        )
        return rows

    def process(
        self, text: str, top: Optional[int] = None, explain: bool = False
    ):
        """Detect, score, and rank the concepts of *text* (timed).

        Returns the ranked detections; with ``explain=True`` returns
        ``(ranked, explanations)`` instead, where ``explanations[i]``
        decomposes ``ranked[i]``'s score per feature (linear kernel
        only).  The ranked order is identical either way — both come
        from the same scoring pass.
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
            candidates = self._pipeline.process_document(
                document, score=False
            ).detections
            clock.lap("features")
            columns, interestingness, relevance = self._terminal_rows(
                candidates.columns
            )
            keys = columns.keys
            # The store filter: a phrase the interestingness store holds,
            # written as its canonical phrase.  A concept written across
            # a newline, a double space or a hyphen is detected but not
            # ranked: its surface key is no store phrase.
            known = [
                row
                for row in candidates.rows
                if row[2] != PATTERN
                and interestingness[row[3]] >= 0
                and row[5] == keys[row[3]]
            ]
            rows = np.array([interestingness[row[3]] for row in known], dtype=np.int64)
            relevance_rows = np.array(
                [relevance[row[3]] for row in known], dtype=np.int64
            )
            # The ranker laps "rank" once the feature matrix is built.
            scored = self._ranker.scoring_pass(
                rows, relevance_rows, document, clock
            )
            order = scored.order()
            scores = scored.scores.tolist()
            returned = order if top is None else order[:top]
            ranked = [candidates.detection(known[i], scores[i]) for i in returned]
            explanations = None
            if explain:
                explanations = explain_ranking(
                    self._ranker, scored, order, [d.phrase for d in ranked]
                )
            if self.quality is not None and order:
                self.quality.observe_ranking(
                    [known[i][5] for i in order], [scores[i] for i in order]
                )
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
