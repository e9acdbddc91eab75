"""Tests for the production runtime: TID stores and the ranker service."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import RelevanceModel, RelevanceScorer
from repro.ranking import RankSVM
from repro.runtime import (
    MAX_SCORE_CODE,
    MAX_TID,
    CompressedRelevanceStore,
    GlobalTidTable,
    PackedRelevanceStore,
    QuantizedInterestingnessStore,
    RankerService,
    pack_pair,
    unpack_pair,
)


class TestPackedPairs:
    def test_pack_unpack(self):
        packed = pack_pair(12345, 678)
        assert unpack_pair(packed) == (12345, 678)

    def test_limits(self):
        assert unpack_pair(pack_pair(MAX_TID, MAX_SCORE_CODE)) == (
            MAX_TID,
            MAX_SCORE_CODE,
        )
        with pytest.raises(ValueError):
            pack_pair(MAX_TID + 1, 0)
        with pytest.raises(ValueError):
            pack_pair(0, MAX_SCORE_CODE + 1)

    def test_fits_32_bits(self):
        assert pack_pair(MAX_TID, MAX_SCORE_CODE) < (1 << 32)

    @given(st.integers(0, MAX_TID), st.integers(0, MAX_SCORE_CODE))
    @settings(max_examples=50)
    def test_round_trip_property(self, tid, code):
        assert unpack_pair(pack_pair(tid, code)) == (tid, code)


class TestGlobalTidTable:
    def test_assign_stable(self):
        table = GlobalTidTable()
        a = table.assign("cuba")
        b = table.assign("talks")
        assert table.assign("cuba") == a
        assert a != b

    def test_lookup_unknown(self):
        assert GlobalTidTable().lookup("nope") is None

    def test_tids_of_drops_unknown(self):
        table = GlobalTidTable()
        table.assign("cuba")
        assert table.tids_of(["cuba", "nope"]) == {0}


class TestPackedRelevanceStore:
    @pytest.fixture(scope="class")
    def model(self):
        return RelevanceModel(
            {
                "global warming": (("climat", 50.0), ("carbon", 30.0), ("ice", 5.0)),
                "my favorite": (("stuff", 2.0),),
            }
        )

    def test_build_and_score(self, model):
        store = PackedRelevanceStore.build(model)
        context = store.context_stems("the climate and carbon debate")
        score = store.score("global warming", context)
        assert score == pytest.approx(80.0, rel=0.01)

    def test_scores_match_reference_scorer(self, model):
        """The packed store must approximate the float RelevanceScorer."""
        store = PackedRelevanceStore.build(model)
        reference = RelevanceScorer(model)
        text = "climate carbon ice melting stuff"
        packed_score = store.score_text("global warming", text)
        float_score = reference.score_text("global warming", text)
        assert packed_score == pytest.approx(float_score, rel=0.01)

    def test_junk_ceiling_low(self, model):
        store = PackedRelevanceStore.build(model)
        junk_best = store.score_text("my favorite", "stuff stuff stuff")
        real_best = store.score_text("global warming", "climat carbon ice")
        assert junk_best < real_best / 10

    def test_unknown_phrase_zero(self, model):
        store = PackedRelevanceStore.build(model)
        assert store.score_text("unknown", "climate") == 0.0

    def test_memory_accounting(self, model):
        store = PackedRelevanceStore.build(model)
        assert store.memory_bytes() == 4 * 4  # four pairs, 32 bits each

    def test_compressed_smaller_for_large_stores(self, env_world, env_miner):
        phrases = [c.phrase for c in env_world.concepts[:12]]
        model = RelevanceModel.mine_all(env_miner, phrases)
        store = PackedRelevanceStore.build(model)
        compressed = CompressedRelevanceStore.from_packed(store)
        assert compressed.memory_bytes() < store.memory_bytes()

    def test_shared_tids_across_concepts(self, env_world, env_miner):
        """Related concepts share keywords, so TIDs grow sub-linearly."""
        phrases = [c.phrase for c in env_world.concepts[:30]]
        model = RelevanceModel.mine_all(env_miner, phrases)
        table = GlobalTidTable()
        store = PackedRelevanceStore.build(model, table)
        assert store.tid_table is table
        total_terms = sum(len(model.relevant_terms(p)) for p in phrases)
        assert 0 < len(table) < total_terms


class TestQuantizedInterestingnessStore:
    def test_round_trip_close(self, env_world, env_extractor):
        phrases = [c.phrase for c in env_world.concepts[:20]]
        store = QuantizedInterestingnessStore.build(env_extractor, phrases)
        for phrase in phrases:
            live = env_extractor.extract(phrase)
            stored = store.extract(phrase)
            assert stored.high_level_type == live.high_level_type
            assert stored.concept_size == live.concept_size
            assert stored.number_of_chars == live.number_of_chars
            assert stored.freq_exact == pytest.approx(live.freq_exact, abs=2)
            assert stored.unit_score == pytest.approx(live.unit_score, abs=0.01)

    def test_memory_is_18_bytes_per_concept(self, env_world, env_extractor):
        phrases = [c.phrase for c in env_world.concepts[:20]]
        store = QuantizedInterestingnessStore.build(env_extractor, phrases)
        assert store.memory_bytes() == len(phrases) * 18

    def test_unknown_phrase_raises(self, env_world, env_extractor):
        store = QuantizedInterestingnessStore.build(
            env_extractor, [env_world.concepts[0].phrase]
        )
        with pytest.raises(KeyError):
            store.extract("missing concept")


class TestRankerService:
    @pytest.fixture(scope="class")
    def service(self, env_world, env_extractor, env_miner, env_pipeline):
        phrases = [c.phrase for c in env_world.concepts]
        interestingness = QuantizedInterestingnessStore.build(
            env_extractor, phrases
        )
        model = RelevanceModel.mine_all(
            env_miner, [c.phrase for c in env_world.concepts[:40]]
        )
        relevance = PackedRelevanceStore.build(model)
        # a tiny trained model: prefer higher freq_exact (feature 0)
        svm = RankSVM(epochs=30)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 16))
        y = X[:, 0]
        g = np.repeat(np.arange(8), 5)
        svm.fit(X, y, g)
        return RankerService(env_pipeline, interestingness, relevance, svm)

    def test_process_returns_ranked_detections(self, service, env_stories):
        ranked = service.process(env_stories[0].text)
        scores = [d.score for d in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_top_limit(self, service, env_stories):
        assert len(service.process(env_stories[1].text, top=3)) <= 3

    def test_stats_accumulate(self, service, env_stories):
        service.reset_stats()
        service.process_batch([s.text for s in env_stories[:5]])
        stats = service.stats
        assert stats.documents == 5
        assert stats.bytes_processed > 0
        assert stats.stemmer_seconds > 0
        assert stats.ranker_seconds > 0
        assert stats.stemmer_mb_per_second > 0
        assert stats.ranker_mb_per_second > 0

    def test_empty_rate_guard(self):
        # zero work reports nan ("no measurement"), never a fake 0.0
        # throughput — consistent with Histogram.quantile on empty data
        from repro.runtime import TimingStats

        stats = TimingStats()
        assert np.isnan(stats.stemmer_mb_per_second)
        assert np.isnan(stats.detections_per_document)
