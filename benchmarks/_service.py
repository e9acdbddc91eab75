"""The serving-shape fixture shared by the observability benchmarks.

``build_service`` assembles a :class:`~repro.runtime.RankerService` over
a small deterministic world (``HOTPATH_WORLD``) plus a batch of news
stories to rank.  The pipeline compiles its detection kernel from the
live inventories on the first document, so every timed pass runs the
compiled path the service serves.  ``bench_obs.py`` and
``bench_profile.py`` time this service with and without their
instrumentation attached.
"""

import numpy as np

from repro.corpus import SyntheticWorld, WorldConfig
from repro.detection import (
    ConceptDetector,
    ConceptVectorScorer,
    NamedEntityDetector,
    ShortcutsPipeline,
    detectable_concept_phrases,
)
from repro.features import (
    InterestingnessExtractor,
    RelevanceModel,
    RelevantKeywordMiner,
    build_stemmed_df,
)
from repro.querylog import UnitMiner, query_log_for_world
from repro.ranking import RankSVM
from repro.runtime import (
    PackedRelevanceStore,
    QuantizedInterestingnessStore,
    RankerService,
)
from repro.search import PrismaTool, SearchEngine, SnippetService, SuggestionService

HOTPATH_WORLD = WorldConfig(
    seed=7,
    vocabulary_size=2000,
    topic_count=24,
    words_per_topic=50,
    concept_count=220,
    topic_page_count=150,
)
RELEVANCE_PHRASES = 40


def build_service(document_count, with_quality=False):
    """A RankerService over a small deterministic world, plus documents.

    With *with_quality* the service also carries a QualityMonitor and a
    DriftDetector baselined on the fresh store (both registering into
    the process-wide registry), matching the ``repro serve`` shape.
    """
    world = SyntheticWorld.build(HOTPATH_WORLD)
    log = query_log_for_world(world)
    lexicon = UnitMiner().mine(log)
    engine = SearchEngine.from_corpus(world.web_corpus)
    detectable = detectable_concept_phrases(
        (tuple(c.terms) for c in world.concepts), lexicon, log
    )
    pipeline = ShortcutsPipeline(
        ConceptDetector(detectable, lexicon),
        ConceptVectorScorer(world.doc_frequency, lexicon),
        named_detector=NamedEntityDetector(world.dictionary),
    )
    extractor = InterestingnessExtractor(
        log, lexicon, engine, world.dictionary, world.wikipedia
    )
    phrases = [c.phrase for c in world.concepts]
    interestingness = QuantizedInterestingnessStore.build(extractor, phrases)
    miner = RelevantKeywordMiner(
        SnippetService(engine),
        PrismaTool(engine),
        SuggestionService(log),
        build_stemmed_df(doc.text for doc in world.web_corpus),
    )
    model = RelevanceModel.mine_all(miner, phrases[:RELEVANCE_PHRASES])
    relevance = PackedRelevanceStore.build(model)

    feature_dim = extractor.extract(phrases[0]).numeric(()).size + 1
    svm = RankSVM(epochs=30)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, feature_dim))
    svm.fit(X, X[:, 0], np.repeat(np.arange(8), 5))

    quality = drift = None
    if with_quality:
        from repro.obs.quality import (
            DriftBaseline,
            DriftDetector,
            QualityMonitor,
        )

        quality = QualityMonitor()
        drift = DriftDetector(DriftBaseline.from_store(interestingness))
    service = RankerService(
        pipeline, interestingness, relevance, svm, quality=quality, drift=drift
    )
    documents = [
        story.text for story in world.story_generator(seed=4242).generate_many(
            document_count
        )
    ]
    return service, documents
