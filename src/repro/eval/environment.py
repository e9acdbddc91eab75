"""One-stop experiment environment.

``Environment.build(EnvironmentConfig(...))`` assembles the entire
stack — world, query log, unit lexicon, search engine, snippet/Prisma/
suggestion services, detectors, the concept-vector baseline, feature
extractors, and the relevant-keyword miner — from a single seed, so an
experiment (or an example script) needs exactly one object.  The
engine, the miner and the stemmed df are the offline build's own: one
:class:`~repro.text.corpus.TokenizedCorpus` of the web corpus under a
CSR-indexed engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.clicks.model import ClickModelConfig, UserClickModel
from repro.clicks.tracking import ClickTracker
from repro.corpus.world import SyntheticWorld, WorldConfig
from repro.detection.concepts import ConceptDetector, detectable_concept_phrases
from repro.detection.conceptvector import ConceptVectorScorer
from repro.detection.named import NamedEntityDetector
from repro.detection.pipeline import ShortcutsPipeline
from repro.features.interestingness import InterestingnessExtractor
from repro.features.relevance import (
    RESOURCE_SNIPPETS,
    RelevanceModel,
    RelevantKeywordMiner,
)
from repro.querylog.generator import query_log_for_world
from repro.querylog.log import QueryLog
from repro.querylog.units import UnitLexicon, UnitMiner
from repro.search.engine import SearchEngine
from repro.search.prisma import PrismaTool
from repro.search.snippets import SnippetService
from repro.search.suggestions import SuggestionService


@dataclass(frozen=True)
class EnvironmentConfig:
    """Everything needed to reproduce an experiment end to end."""

    world: WorldConfig = WorldConfig()
    query_log_seed: int = 101
    click_model: ClickModelConfig = ClickModelConfig()
    click_seed: int = 97


@dataclass
class Environment:
    """The assembled substrate stack."""

    config: EnvironmentConfig
    world: SyntheticWorld
    query_log: QueryLog
    lexicon: UnitLexicon
    engine: SearchEngine
    snippets: SnippetService
    prisma: PrismaTool
    suggestions: SuggestionService
    extractor: InterestingnessExtractor
    miner: RelevantKeywordMiner
    concept_detector: ConceptDetector
    baseline_scorer: ConceptVectorScorer
    pipeline: ShortcutsPipeline
    _relevance_models: Dict[str, RelevanceModel] = field(
        default_factory=dict, repr=False
    )

    @classmethod
    def build(cls, config: EnvironmentConfig = EnvironmentConfig()) -> "Environment":
        """Deterministically assemble the full stack."""
        world = SyntheticWorld.build(config.world)
        query_log = query_log_for_world(world, seed=config.query_log_seed)
        lexicon = UnitMiner().mine(query_log)
        engine = SearchEngine.from_corpus(world.web_corpus)
        snippets = SnippetService(engine)
        prisma = PrismaTool(engine)
        suggestions = SuggestionService(query_log)
        miner = RelevantKeywordMiner(
            snippets, prisma, suggestions, engine.corpus.stemmed_df()
        )
        extractor = InterestingnessExtractor(
            query_log, lexicon, engine, world.dictionary, world.wikipedia
        )
        detectable = detectable_concept_phrases(
            (tuple(c.terms) for c in world.concepts), lexicon, query_log
        )
        concept_detector = ConceptDetector(detectable, lexicon)
        baseline_scorer = ConceptVectorScorer(world.doc_frequency, lexicon)
        pipeline = ShortcutsPipeline(
            concept_detector,
            baseline_scorer,
            named_detector=NamedEntityDetector(world.dictionary),
        )
        return cls(
            config=config,
            world=world,
            query_log=query_log,
            lexicon=lexicon,
            engine=engine,
            snippets=snippets,
            prisma=prisma,
            suggestions=suggestions,
            extractor=extractor,
            miner=miner,
            concept_detector=concept_detector,
            baseline_scorer=baseline_scorer,
            pipeline=pipeline,
        )

    # -- derived helpers ----------------------------------------------------

    def click_model(self, seed: Optional[int] = None) -> UserClickModel:
        """A fresh click model (independent user randomness per call)."""
        return UserClickModel(
            self.config.click_model,
            seed=self.config.click_seed if seed is None else seed,
        )

    def tracker(
        self,
        seed: Optional[int] = None,
        annotate_top: Optional[int] = None,
        ranker=None,
        interest_boosts=None,
    ) -> ClickTracker:
        """A production tracker over this environment's pipeline."""
        return ClickTracker(
            self.world,
            self.pipeline,
            self.click_model(seed),
            annotate_top=annotate_top,
            ranker=ranker,
            interest_boosts=interest_boosts,
        )

    def relevance_model(
        self,
        phrases: Sequence[str],
        resource: str = RESOURCE_SNIPPETS,
    ) -> RelevanceModel:
        """Mine (and cache) relevant keywords for *phrases* per resource.

        The cache is per resource and grows monotonically: phrases mined
        earlier are not re-mined.
        """
        cached = self._relevance_models.get(resource)
        have = set(cached.phrases()) if cached else set()
        missing = [p for p in dict.fromkeys(p.lower() for p in phrases) if p not in have]
        if cached is None or missing:
            entries = (
                {p: cached.relevant_terms(p) for p in cached.phrases()}
                if cached
                else {}
            )
            for phrase in missing:
                entries[phrase] = self.miner.mine(phrase, resource)
            cached = RelevanceModel(entries)
            self._relevance_models[resource] = cached
        return cached

    def stories(self, count: int, seed: int = 1) -> List:
        """Generate *count* fresh news stories."""
        return self.world.story_generator(seed=seed).generate_many(count)
