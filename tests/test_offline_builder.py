"""OfflineBuilder: stage DAG, pinned pack bytes; the miners against
the seed references."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.relevance import (
    RESOURCES,
    RelevanceModel,
    RelevantKeywordMiner,
)
from repro.offline.builder import (
    INTERESTINGNESS_PACK,
    MANIFEST,
    RELEVANCE_PACK,
    BuildConfig,
    OfflineBuilder,
)
from repro.querylog.log import QueryLog
from repro.runtime.datapack import load_interestingness_store, load_relevance_store
from repro.search.engine import SearchEngine
from repro.search.prisma import PrismaTool
from repro.search.snippets import SnippetService
from repro.search.suggestions import SuggestionService
from tests.reference import ReferenceEngine, stemmed_df
from tests.test_frozen_index import WORDS, documents

VOCAB = [
    "cuba", "fidel", "castro", "talks", "election", "embargo", "trade",
    "weather", "storm", "havana", "summit", "policy", "crisis", "leader",
]

CONCEPTS = ["cuba talks", "fidel castro", "embargo", "storm warning", "havana summit"]

# The tiny world's pack hashes, as the seed-era serial build wrote them
# (its dict index, string miners and unit miner): the vectorized build
# must keep writing exactly these bytes.
SEED_PACK_SHA256 = {
    "interestingness": (
        "b801896a8d53b600b34a5613b3c91f858984bf4f2c554c2ac28afb75477183e4"
    ),
    "relevance": (
        "041e2868397aa3b2db137603936ae26e6051797965f7d7dab27ad15ad4ea987a"
    ),
    "detection": (
        "467eaa795a7ceca4213b1a05bbc6b7f0ffd7d2bdca5cf5b4f5b788aa52722372"
    ),
}


def tiny_world(seed=13, docs=30):
    rng = random.Random(seed)
    documents = []
    for doc_id in range(1, docs + 1):
        tokens = [rng.choice(VOCAB) for __ in range(rng.randint(12, 30))]
        for phrase in rng.sample(CONCEPTS, 2):
            position = rng.randint(0, len(tokens))
            tokens[position:position] = phrase.split()
        documents.append((doc_id, " ".join(tokens)))
    queries = {}
    for phrase in CONCEPTS:
        queries[phrase] = rng.randint(3, 25)
        queries[f"{phrase} {rng.choice(VOCAB)}"] = rng.randint(1, 6)
    for __ in range(20):
        queries.setdefault(
            f"{rng.choice(VOCAB)} {rng.choice(VOCAB)}", rng.randint(1, 9)
        )
    return documents, QueryLog.from_strings(queries)


@pytest.fixture(scope="module")
def world():
    return tiny_world()


def build(world, tmp_path, tag, **kwargs):
    documents, query_log = world
    return OfflineBuilder(BuildConfig(**kwargs)).build(
        documents, query_log, CONCEPTS, tmp_path / tag
    )


class TestBuilder:
    def test_pack_bytes_match_seed_build(self, world, tmp_path):
        report = build(world, tmp_path, "pinned", workers=1)
        assert report.pack_sha256 == SEED_PACK_SHA256

    def test_worker_count_does_not_change_pack_bytes(self, world, tmp_path):
        serial = build(world, tmp_path, "w1", workers=1)
        fanned = build(world, tmp_path, "w4", workers=4)
        assert serial.pack_sha256 == fanned.pack_sha256
        assert fanned.workers == 4

    def test_report_stages_and_manifest(self, world, tmp_path):
        report = build(world, tmp_path, "report", workers=1)
        assert [stage.name for stage in report.stages] == [
            "corpus", "index", "units", "interestingness",
            "relevance", "quantize", "kernel", "pack",
        ]
        assert report.total_seconds == pytest.approx(
            sum(stage.seconds for stage in report.stages)
        )
        assert report.document_count == len(world[0])
        assert report.concept_count == len(CONCEPTS)
        assert report.docs_per_second >= 0
        assert report.concepts_per_second >= 0
        manifest = json.loads((tmp_path / "report" / MANIFEST).read_text())
        assert manifest["pack_sha256"] == report.pack_sha256
        assert len(manifest["stages"]) == 8

    def test_manifest_bakes_drift_baseline(self, world, tmp_path):
        from repro.obs.quality import DriftBaseline, load_baseline

        report = build(world, tmp_path, "baseline", workers=1)
        assert report.feature_baselines is not None
        assert report.as_dict()["feature_baselines"] == report.feature_baselines
        manifest = json.loads(
            (tmp_path / "baseline" / MANIFEST).read_text()
        )
        assert manifest["feature_baselines"] == report.feature_baselines

        baseline = load_baseline(tmp_path / "baseline")
        assert baseline is not None
        assert baseline.count == len(CONCEPTS)
        # the baseline measures the dequantized serving-side vectors
        store = load_interestingness_store(
            tmp_path / "baseline" / INTERESTINGNESS_PACK
        )
        recomputed = DriftBaseline.from_store(store)
        assert baseline.names == recomputed.names
        assert list(baseline.mean) == pytest.approx(list(recomputed.mean))
        width = store.extract(CONCEPTS[0]).numeric(()).size
        assert len(baseline.names) == width

    def test_old_manifests_without_baseline_still_load(self, world, tmp_path):
        from repro.obs.quality import load_baseline

        build(world, tmp_path, "oldpack", workers=1)
        manifest_path = tmp_path / "oldpack" / MANIFEST
        manifest = json.loads(manifest_path.read_text())
        del manifest["feature_baselines"]  # simulate a pre-baseline pack
        manifest_path.write_text(json.dumps(manifest))
        assert load_baseline(tmp_path / "oldpack") is None
        # and the stores themselves are oblivious to the manifest change
        store = load_interestingness_store(
            tmp_path / "oldpack" / INTERESTINGNESS_PACK
        )
        assert CONCEPTS[0] in store

    def test_packs_load_back(self, world, tmp_path):
        build(world, tmp_path, "load", workers=1)
        interestingness = load_interestingness_store(
            tmp_path / "load" / INTERESTINGNESS_PACK
        )
        relevance = load_relevance_store(tmp_path / "load" / RELEVANCE_PACK)
        for phrase in CONCEPTS:
            assert phrase in interestingness
            vector = interestingness.extract(phrase)
            assert vector.number_of_chars == len(phrase)
            assert relevance.packed(phrase).size > 0


def production_miner(documents, query_log, window=48):
    """The build's miner over *documents*, as ``OfflineBuilder`` wires it."""
    engine = SearchEngine.from_corpus(documents)
    return RelevantKeywordMiner(
        SnippetService(engine, window=window),
        PrismaTool(engine),
        SuggestionService(query_log),
        engine.corpus.stemmed_df(),
    )


def check_df(produced, df):
    assert produced.total_documents == df.total_documents
    assert sorted(produced.terms()) == sorted(df.terms())
    for term in df.terms():
        assert produced.document_frequency(term) == df.document_frequency(term)


def check_miner(miner, prisma, reference, df, suggestions, phrases, window=48):
    """Feedback, the stemmed df and all three resources' keywords equal
    the seed references (*reference*, *df*), floats bit for bit."""
    check_df(miner._df, df)
    for phrase in phrases:
        assert prisma.feedback(phrase) == reference.feedback(phrase)
        for resource in RESOURCES:
            assert miner.mine(phrase, resource) == reference.mine(
                phrase, resource, df, suggestions, window
            ), (resource, phrase)


def check_documents(documents, query_log, phrases, window=48):
    miner = production_miner(documents, query_log, window)
    check_miner(
        miner,
        miner._prisma,
        ReferenceEngine(documents),
        stemmed_df(text for __, text in documents),
        SuggestionService(query_log),
        phrases,
        window,
    )


phrases = st.lists(
    st.lists(st.sampled_from(WORDS + ["unseen"]), min_size=1, max_size=2).map(
        " ".join
    ),
    min_size=1,
    max_size=4,
)


@pytest.fixture(scope="module")
def miner(world):
    return production_miner(*world)


class TestVectorizedMiners:
    """The id-array miners and the stemmed df against the seed's string
    versions (tests/reference.py), floats bit for bit."""

    @given(
        documents,
        phrases,
        st.dictionaries(phrases.map(" ".join), st.integers(1, 40), max_size=6),
        st.integers(1, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_all_resources_match_seed(self, docs, concepts, queries, window):
        check_documents(docs, QueryLog.from_strings(queries), concepts, window)

    def test_prisma_tool_matches_seed(self, world):
        documents, query_log = world
        check_documents(documents, query_log, CONCEPTS + ["cuba", "unseenword"])

    @given(documents)
    @settings(max_examples=100, deadline=None)
    def test_stemmed_df_matches_seed(self, docs):
        check_df(
            SearchEngine.from_corpus(docs).corpus.stemmed_df(),
            stemmed_df(text for __, text in docs),
        )

    def test_tests_world_matches_seed(
        self, env_world, env_miner, env_prisma, env_suggestions, env_reference
    ):
        """A sample of the session world's concepts, at full size."""
        check_miner(
            env_miner,
            env_prisma,
            env_reference,
            stemmed_df(page.text for page in env_world.web_corpus),
            env_suggestions,
            [concept.phrase for concept in env_world.concepts[::22]],
        )

    def test_mine_many_parallel_matches_serial(self, miner):
        serial = {
            resource: {phrase: miner.mine(phrase, resource) for phrase in CONCEPTS}
            for resource in RESOURCES
        }
        fanned = miner.mine_many(CONCEPTS, RESOURCES, workers=2, chunk_size=2)
        assert fanned == serial

    def test_mine_all_workers_match(self, miner):
        one = RelevanceModel.mine_all(miner, CONCEPTS, workers=1)
        many = RelevanceModel.mine_all(miner, CONCEPTS, workers=3)
        assert one.phrases() == many.phrases()
        for phrase in one.phrases():
            assert one.relevant_terms(phrase) == many.relevant_terms(phrase)
