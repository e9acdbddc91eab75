"""One-command offline build: corpus + query log -> v2 datapacks.

Paper Section VI describes the production split: every ranking artifact
— the positional index behind phrase result counts, the MI-mined unit
lexicon, the Table I interestingness vectors, the per-concept
relevantTerms — is computed offline and shipped to the runtime as
quantized stores.  :class:`OfflineBuilder` runs that whole offline half
as an explicit stage DAG::

    corpus -> index -> units -> interestingness -> relevance -> quantize
           -> kernel -> pack

with per-stage timings from one stage clock (the same readings feed
the report, the ``span_seconds`` histograms and the sampled build
trace).  One tokenization pass is shared by all stages
(:class:`TokenizedCorpus`); the index is the CSR frozen index, the
relevant keywords are mined on id arrays
(:class:`~repro.offline.mining.VectorizedKeywordMiner`), and the
per-concept relevance mining can fan out over a process pool.

Every worker count produces byte-identical packs — chunk results merge
in input order and global TIDs are assigned in phrase order, so the
pack bytes never depend on scheduling.  The seed-era serial build's
packs are pinned by hash: ``tests/test_offline_builder.py`` for a tiny
world, ``perfbench/golden.json`` for the benchmark's.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.corpus.dictionaries import EditorialDictionary
from repro.corpus.wikipedia import WikipediaStore
from repro.obs import Tracer, get_tracer
from repro.obs.trace import StageClock
from repro.obs.quality import DriftBaseline
from repro.features.interestingness import InterestingnessExtractor
from repro.features.relevance import RESOURCE_SNIPPETS, RelevanceModel
from repro.detection.concepts import detectable_concept_phrases
from repro.detection.kernel import DetectionKernel
from repro.offline.corpus import TokenizedCorpus, normalize_documents
from repro.offline.mining import VectorizedKeywordMiner
from repro.querylog.log import QueryLog
from repro.querylog.units import UnitMiner
from repro.runtime.datapack import (
    save_detection_kernel,
    save_interestingness_store,
    save_relevance_store,
)
from repro.runtime.store import QuantizedInterestingnessStore
from repro.runtime.tid import PackedRelevanceStore
from repro.search.suggestions import SuggestionService

INTERESTINGNESS_PACK = "interestingness.rpak"
RELEVANCE_PACK = "relevance.rpak"
DETECTION_PACK = "detection.rpak"
MANIFEST = "manifest.json"


@dataclass(frozen=True)
class BuildConfig:
    """Knobs for one offline build."""

    workers: Optional[int] = None  # None -> os.cpu_count()
    resource: str = RESOURCE_SNIPPETS
    keyword_count: int = 100
    k1: float = 1.2
    b: float = 0.75

    def resolved_workers(self) -> int:
        if self.workers is None:
            return os.cpu_count() or 1
        return max(1, int(self.workers))


@dataclass
class StageStats:
    """Wall-clock and throughput for one pipeline stage."""

    name: str
    seconds: float
    items: int
    unit: str

    @property
    def items_per_second(self) -> float:
        if self.seconds <= 0.0:
            return 0.0
        return self.items / self.seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "seconds": round(self.seconds, 6),
            "items": self.items,
            "unit": self.unit,
            "items_per_second": round(self.items_per_second, 3),
        }


@dataclass
class BuildReport:
    """Everything a caller (CLI, bench, tests) needs about one build."""

    workers: int
    document_count: int
    concept_count: int
    stages: List[StageStats] = field(default_factory=list)
    pack_paths: Dict[str, str] = field(default_factory=dict)
    pack_sha256: Dict[str, str] = field(default_factory=dict)
    # Per-feature serving-value moments for the drift detector; optional
    # so manifests from older builds (and their readers) stay valid.
    feature_baselines: Optional[Dict[str, object]] = None

    @property
    def total_seconds(self) -> float:
        return sum(stage.seconds for stage in self.stages)

    def stage(self, name: str) -> StageStats:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"unknown stage: {name!r}")

    @property
    def docs_per_second(self) -> float:
        seconds = self.stage("corpus").seconds + self.stage("index").seconds
        if seconds <= 0.0:
            return 0.0
        return self.document_count / seconds

    @property
    def concepts_per_second(self) -> float:
        seconds = (
            self.stage("interestingness").seconds + self.stage("relevance").seconds
        )
        if seconds <= 0.0:
            return 0.0
        return self.concept_count / seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "workers": self.workers,
            "document_count": self.document_count,
            "concept_count": self.concept_count,
            "total_seconds": round(self.total_seconds, 6),
            "docs_per_second": round(self.docs_per_second, 3),
            "concepts_per_second": round(self.concepts_per_second, 3),
            "stages": [stage.as_dict() for stage in self.stages],
            "pack_paths": dict(self.pack_paths),
            "pack_sha256": dict(self.pack_sha256),
            **(
                {"feature_baselines": self.feature_baselines}
                if self.feature_baselines is not None
                else {}
            ),
        }


class _StageRunner:
    """Collects :class:`StageStats` around pipeline sections.

    Each stage's thunk runs between two laps of the build's
    :class:`~repro.obs.trace.StageClock`, so the seconds that land in
    the :class:`BuildReport` are the very same two readings that feed
    the ``span_seconds{stage=...}`` histogram and the sampled build
    trace — the report and the observability surface cannot drift
    apart.  The lap also publishes the stage to the profiler's
    thread→stage map, and a ``heap_stage`` bracket attributes the
    stage's net allocations when a :class:`~repro.obs.profile.
    HeapProfiler` is active (both no-ops otherwise).
    """

    def __init__(self, clock: StageClock):
        self.stages: List[StageStats] = []
        self._clock = clock

    def run(self, name: str, items: int, unit: str, thunk):
        from repro.obs.profile import heap_stage

        with heap_stage(name):
            self._clock.lap(name)
            try:
                result = thunk()
            finally:
                seconds = self._clock.lap(None)
        self.stages.append(StageStats(name, seconds, items, unit))
        return result


class OfflineBuilder:
    """Runs the offline stage DAG and writes the serving datapacks."""

    def __init__(
        self,
        config: Optional[BuildConfig] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.config = config or BuildConfig()
        self._tracer = tracer if tracer is not None else get_tracer()

    def build(
        self,
        documents: Iterable,
        query_log: QueryLog,
        phrases: Sequence[str],
        out_dir,
        dictionary: Optional[EditorialDictionary] = None,
        wikipedia: Optional[WikipediaStore] = None,
    ) -> BuildReport:
        """Build packs for *phrases* into *out_dir* and report timings.

        *documents* may be (doc_id, text) pairs or objects with
        ``doc_id``/``text``; *dictionary*/*wikipedia* default to empty
        stand-ins (their features then read as absent).
        """
        config = self.config
        docs = normalize_documents(documents)
        phrases = list(phrases)
        dictionary = dictionary if dictionary is not None else EditorialDictionary([])
        wikipedia = wikipedia if wikipedia is not None else WikipediaStore({})
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        trace = self._tracer.start("build-pack")
        try:
            report = self._run_stages(
                _StageRunner(self._tracer.clock(trace)),
                config, docs, query_log, phrases, out, dictionary, wikipedia,
            )
            if trace.sampled:
                trace.meta.update(
                    {
                        "workers": report.workers,
                        "documents": report.document_count,
                        "concepts": report.concept_count,
                    }
                )
        finally:
            self._tracer.finish(trace)
        return report

    def _run_stages(
        self, runner, config, docs, query_log, phrases, out, dictionary,
        wikipedia,
    ) -> BuildReport:
        corpus, stemmed_df = runner.run(
            "corpus",
            len(docs),
            "docs",
            lambda: self._corpus(docs),
        )
        engine = runner.run(
            "index",
            len(docs),
            "docs",
            lambda: corpus.engine(k1=config.k1, b=config.b),
        )
        lexicon = runner.run(
            "units",
            len(query_log),
            "queries",
            lambda: UnitMiner().mine(query_log),
        )

        extractor = InterestingnessExtractor(
            query_log, lexicon, engine, dictionary, wikipedia
        )
        vectors = runner.run(
            "interestingness",
            len(phrases),
            "concepts",
            lambda: extractor.extract_many(phrases),
        )

        miner = VectorizedKeywordMiner(
            corpus,
            engine,
            SuggestionService(query_log),
            stemmed_df,
            config.keyword_count,
        )
        workers = config.resolved_workers()
        model = runner.run(
            "relevance",
            len(phrases),
            "concepts",
            lambda: RelevanceModel.mine_all(
                miner, phrases, config.resource, workers=workers
            ),
        )

        def _quantize():
            store = QuantizedInterestingnessStore.from_vectors(vectors)
            # The drift baseline measures the *dequantized* values the
            # serving feature matrix will actually contain, so it is
            # taken from the store rather than the raw vectors.
            return store, PackedRelevanceStore.build(model), DriftBaseline.from_store(store)

        interestingness_store, relevance_store, baseline = runner.run(
            "quantize", len(phrases), "concepts", _quantize
        )

        def _kernel() -> DetectionKernel:
            # Compile the detection kernel from the same inventories the
            # runtime detectors hold.  Inventories are sorted so the
            # automaton layout — and therefore the pack bytes — never
            # depend on set/hash iteration order; matching semantics are
            # inventory-order-independent either way.
            detectable = sorted(
                detectable_concept_phrases(
                    (tuple(phrase.split()) for phrase in phrases),
                    lexicon,
                    query_log,
                )
            )
            named = sorted(tuple(key.split()) for key in dictionary.phrases())
            stem_terms = corpus.stem_terms
            return DetectionKernel.build(
                concept_phrases=detectable,
                named_phrases=named,
                lexicon=lexicon,
                vocab_terms=corpus.terms,
                stem_of={
                    term: stem_terms[sid]
                    for term, sid in zip(corpus.terms, corpus.stem_ids.tolist())
                },
            )

        kernel = runner.run("kernel", len(phrases), "concepts", _kernel)

        pack_paths = {
            "interestingness": str(out / INTERESTINGNESS_PACK),
            "relevance": str(out / RELEVANCE_PACK),
            "detection": str(out / DETECTION_PACK),
        }
        runner.run(
            "pack",
            len(phrases),
            "concepts",
            lambda: (
                save_interestingness_store(
                    interestingness_store, pack_paths["interestingness"]
                ),
                save_relevance_store(relevance_store, pack_paths["relevance"]),
                save_detection_kernel(kernel, pack_paths["detection"]),
            ),
        )

        report = BuildReport(
            workers=workers,
            document_count=len(docs),
            concept_count=len(phrases),
            stages=runner.stages,
            pack_paths=pack_paths,
            pack_sha256={
                name: _sha256(path) for name, path in pack_paths.items()
            },
            feature_baselines=baseline.as_dict(),
        )
        (out / MANIFEST).write_text(
            json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
        )
        return report

    @staticmethod
    def _corpus(docs):
        corpus = TokenizedCorpus(docs)
        return corpus, corpus.stemmed_df()


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
