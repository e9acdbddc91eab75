"""OfflineBuilder: stage DAG, pinned pack bytes, vectorized miners."""

import json
import random

import pytest

from repro.features.relevance import (
    RESOURCES,
    RelevanceModel,
    RelevantKeywordMiner,
    build_stemmed_df,
)
from repro.offline.builder import (
    INTERESTINGNESS_PACK,
    MANIFEST,
    RELEVANCE_PACK,
    BuildConfig,
    OfflineBuilder,
)
from repro.offline.corpus import TokenizedCorpus
from repro.offline.mining import VectorizedKeywordMiner, VectorizedPrismaTool
from repro.querylog.log import QueryLog
from repro.runtime.datapack import load_interestingness_store, load_relevance_store
from repro.search.engine import SearchEngine
from repro.search.prisma import PrismaTool
from repro.search.snippets import SnippetService
from repro.search.suggestions import SuggestionService

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


def seed_engine(documents):
    engine = SearchEngine()
    for doc_id, text in documents:
        engine.add_document(doc_id, text)
    return engine


@pytest.fixture(scope="module")
def miners(world):
    documents, query_log = world
    suggestions = SuggestionService(query_log)
    engine = seed_engine(documents)
    seed_df = build_stemmed_df(text for __, text in documents)
    seed = RelevantKeywordMiner(
        SnippetService(engine), PrismaTool(engine), suggestions, seed_df
    )
    corpus = TokenizedCorpus(documents)
    fast = VectorizedKeywordMiner(
        corpus, corpus.engine(), suggestions, corpus.stemmed_df()
    )
    return seed, fast


class TestVectorizedMiners:
    def test_all_resources_match_seed(self, miners):
        seed, fast = miners
        for resource in RESOURCES:
            for phrase in CONCEPTS:
                assert seed.mine(phrase, resource) == fast.mine(phrase, resource), (
                    resource,
                    phrase,
                )

    def test_prisma_tool_matches_seed(self, world):
        documents, __ = world
        engine = seed_engine(documents)
        corpus = TokenizedCorpus(documents)
        fast = VectorizedPrismaTool(corpus.engine(), corpus)
        slow = PrismaTool(engine)
        for query in CONCEPTS + ["cuba", "unseenword"]:
            assert slow.feedback(query) == fast.feedback(query)

    def test_stemmed_df_matches_seed(self, world):
        documents, __ = world
        seed_df = build_stemmed_df(text for __, text in documents)
        fast_df = TokenizedCorpus(documents).stemmed_df()
        assert fast_df.total_documents == seed_df.total_documents
        for term in VOCAB + ["talk", "unseen"]:
            assert fast_df.document_frequency(term) == seed_df.document_frequency(term)

    def test_frozen_engine_required(self, world):
        documents, query_log = world
        corpus = TokenizedCorpus(documents)
        with pytest.raises(ValueError):
            VectorizedKeywordMiner(
                corpus,
                seed_engine(documents),  # not frozen
                SuggestionService(query_log),
                corpus.stemmed_df(),
            )

    def test_mine_many_parallel_matches_serial(self, miners):
        seed, __ = miners
        serial = {
            resource: {phrase: seed.mine(phrase, resource) for phrase in CONCEPTS}
            for resource in RESOURCES
        }
        fanned = seed.mine_many(CONCEPTS, RESOURCES, workers=2, chunk_size=2)
        assert fanned == serial

    def test_mine_all_workers_match(self, miners):
        __, fast = miners
        one = RelevanceModel.mine_all(fast, CONCEPTS, workers=1)
        many = RelevanceModel.mine_all(fast, CONCEPTS, workers=3)
        assert one.phrases() == many.phrases()
        for phrase in one.phrases():
            assert one.relevant_terms(phrase) == many.relevant_terms(phrase)

