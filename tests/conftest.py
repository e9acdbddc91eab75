"""Shared fixtures: one small synthetic environment for the whole suite.

Building a world, query log, unit lexicon, search engine, and detectors
takes a couple of seconds; session scope keeps the suite fast.
"""

import numpy as np
import pytest

from repro.corpus import SyntheticWorld, WorldConfig
from repro.detection import (
    ConceptDetector,
    ConceptVectorScorer,
    NamedEntityDetector,
    ShortcutsPipeline,
    detectable_concept_phrases,
)
from repro.querylog import UnitMiner, query_log_for_world
from repro.search import PrismaTool, SearchEngine, SnippetService, SuggestionService

ENV_CONFIG = WorldConfig(
    seed=21,
    vocabulary_size=2000,
    topic_count=24,
    words_per_topic=50,
    concept_count=220,
    topic_page_count=150,
)


@pytest.fixture(scope="session")
def env_world():
    return SyntheticWorld.build(ENV_CONFIG)


@pytest.fixture(scope="session")
def env_log(env_world):
    return query_log_for_world(env_world)


@pytest.fixture(scope="session")
def env_lexicon(env_log):
    return UnitMiner().mine(env_log)


@pytest.fixture(scope="session")
def env_engine(env_world):
    return SearchEngine.from_corpus(env_world.web_corpus)


@pytest.fixture(scope="session")
def env_snippets(env_engine):
    return SnippetService(env_engine)


@pytest.fixture(scope="session")
def env_prisma(env_engine):
    return PrismaTool(env_engine)


@pytest.fixture(scope="session")
def env_suggestions(env_log):
    return SuggestionService(env_log)


@pytest.fixture(scope="session")
def env_detectable(env_world, env_lexicon, env_log):
    return detectable_concept_phrases(
        (tuple(c.terms) for c in env_world.concepts), env_lexicon, env_log
    )


@pytest.fixture(scope="session")
def env_concept_detector(env_detectable, env_lexicon):
    return ConceptDetector(env_detectable, env_lexicon)


@pytest.fixture(scope="session")
def env_scorer(env_world, env_lexicon):
    return ConceptVectorScorer(env_world.doc_frequency, env_lexicon)


@pytest.fixture(scope="session")
def env_pipeline(env_concept_detector, env_scorer, env_world):
    return ShortcutsPipeline(
        env_concept_detector,
        env_scorer,
        named_detector=NamedEntityDetector(env_world.dictionary),
    )


@pytest.fixture(scope="session")
def env_stories(env_world):
    return env_world.story_generator(seed=2).generate_many(40)


@pytest.fixture(scope="session")
def env_stemmed_df(env_engine):
    return env_engine.corpus.stemmed_df()


@pytest.fixture(scope="session")
def env_reference(env_world):
    """The seed engine and miners over the web corpus (tests/reference.py)."""
    from tests.reference import ReferenceEngine

    return ReferenceEngine((page.doc_id, page.text) for page in env_world.web_corpus)


@pytest.fixture(scope="session")
def env_miner(env_snippets, env_prisma, env_suggestions, env_stemmed_df):
    from repro.features import RelevantKeywordMiner

    return RelevantKeywordMiner(
        env_snippets, env_prisma, env_suggestions, env_stemmed_df
    )


@pytest.fixture(scope="session")
def env_extractor(env_log, env_lexicon, env_engine, env_world):
    from repro.features import InterestingnessExtractor

    return InterestingnessExtractor(
        env_log, env_lexicon, env_engine, env_world.dictionary, env_world.wikipedia
    )
