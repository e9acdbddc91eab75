"""Tests for relevant-keyword mining and runtime relevance scoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import (
    RESOURCES,
    RelevanceModel,
    RelevanceScorer,
    stemmed_terms,
)
from repro.features.quantize import dequantize, quantize


class TestStemmedTerms:
    def test_stopwords_removed(self):
        assert "the" not in stemmed_terms("the running dogs")

    def test_terms_are_stemmed(self):
        terms = stemmed_terms("running quickly connections")
        assert "run" in terms
        assert "connect" in terms

    def test_punctuation_stripped(self):
        assert stemmed_terms("hello, world!") == ["hello", "world"]


class TestMining:
    def hot_concept(self, env_world, env_log):
        return max(
            (c for c in env_world.concepts if not c.is_junk and len(c.terms) >= 2),
            key=lambda c: env_log.freq_exact(c.terms),
        )

    def test_snippet_keywords_capped_and_sorted(self, env_world, env_log, env_miner):
        concept = self.hot_concept(env_world, env_log)
        terms = env_miner.mine_from_snippets(concept.phrase)
        assert 0 < len(terms) <= 100
        scores = [s for __, s in terms]
        assert scores == sorted(scores, reverse=True)

    def test_snippet_keywords_exclude_concept_terms(
        self, env_world, env_log, env_miner
    ):
        concept = self.hot_concept(env_world, env_log)
        mined = {t for t, __ in env_miner.mine_from_snippets(concept.phrase)}
        concept_stems = set(stemmed_terms(concept.phrase))
        assert not mined & concept_stems

    def test_snippet_keywords_include_home_topic_words(
        self, env_world, env_log, env_miner
    ):
        concept = self.hot_concept(env_world, env_log)
        mined = {t for t, __ in env_miner.mine_from_snippets(concept.phrase)}
        topic_stems = set()
        for topic_id in concept.home_topics:
            topic_stems.update(
                stemmed_terms(" ".join(env_world.topics[topic_id].words))
            )
        assert mined & topic_stems

    def test_prisma_keywords_sparser_than_snippets(
        self, env_world, env_log, env_miner
    ):
        concept = self.hot_concept(env_world, env_log)
        prisma = env_miner.mine_from_prisma(concept.phrase)
        snippets = env_miner.mine_from_snippets(concept.phrase)
        assert len(prisma) <= 20
        assert len(snippets) >= len(prisma)

    def test_suggestions_keywords(self, env_world, env_log, env_miner):
        concept = self.hot_concept(env_world, env_log)
        terms = env_miner.mine_from_suggestions(concept.phrase)
        assert terms
        assert all(score > 0 for __, score in terms)

    def test_mine_dispatch(self, env_world, env_log, env_miner):
        concept = self.hot_concept(env_world, env_log)
        for resource in RESOURCES:
            assert isinstance(env_miner.mine(concept.phrase, resource), tuple)
        with pytest.raises(ValueError):
            env_miner.mine(concept.phrase, "nope")


class TestTable2Property:
    def test_specific_concepts_higher_summation_than_junk(
        self, env_world, env_log, env_miner
    ):
        """The Table II separation: specific >> junk/general summations."""
        regular = [
            c
            for c in env_world.concepts
            if not c.is_junk and c.specificity > 0.8 and len(c.terms) >= 2
        ]
        regular = sorted(
            regular, key=lambda c: env_log.freq_exact(c.terms), reverse=True
        )[:8]
        junk = env_world.junk_concepts()
        assert regular and junk
        model = RelevanceModel.mine_all(
            env_miner, [c.phrase for c in regular + junk]
        )
        specific_sums = [model.summation(c.phrase) for c in regular]
        junk_sums = [model.summation(c.phrase) for c in junk]
        assert np.mean(specific_sums) > 2 * max(np.mean(junk_sums), 1e-9)


class TestRelevanceScoring:
    @pytest.fixture(scope="class")
    def model_and_scorer(self, env_world, env_log, env_miner):
        concepts = [
            c for c in env_world.concepts if not c.is_junk and c.home_topics
        ]
        concepts = sorted(
            concepts, key=lambda c: env_log.freq_exact(c.terms), reverse=True
        )[:10]
        model = RelevanceModel.mine_all(env_miner, [c.phrase for c in concepts])
        return concepts, model, RelevanceScorer(model)

    def test_in_context_beats_out_of_context(
        self, model_and_scorer, env_world
    ):
        concepts, __, scorer = model_and_scorer
        generator = env_world.story_generator(seed=77)
        stories = generator.generate_many(60)
        in_scores, out_scores = [], []
        for story in stories:
            context = scorer.context_stems(story.text)
            for concept in concepts:
                score = scorer.score(concept.phrase, context)
                if concept.relevant_in(story.topics):
                    in_scores.append(score)
                else:
                    out_scores.append(score)
        assert in_scores and out_scores
        assert np.mean(in_scores) > np.mean(out_scores)

    def test_unknown_phrase_scores_zero(self, model_and_scorer):
        __, __, scorer = model_and_scorer
        assert scorer.score_text("unknown phrase", "any text at all") == 0.0

    def test_empty_context_scores_zero(self, model_and_scorer):
        concepts, __, scorer = model_and_scorer
        assert scorer.score(concepts[0].phrase, set()) == 0.0

    def test_score_monotone_in_context(self, model_and_scorer):
        concepts, model, scorer = model_and_scorer
        terms = model.relevant_terms(concepts[0].phrase)
        if len(terms) < 4:
            pytest.skip("too few mined terms")
        small = {terms[0][0]}
        large = {t for t, __ in terms[:4]}
        assert scorer.score(concepts[0].phrase, large) >= scorer.score(
            concepts[0].phrase, small
        )


class TestQuantize:
    def test_round_trip_small_error(self):
        for value in [0.0, 0.1, 0.5, 0.9, 1.0]:
            code = quantize(value, 1.0, 10)
            assert abs(dequantize(code, 1.0, 10) - value) < 1.0 / 1023 + 1e-12

    def test_clamping(self):
        assert quantize(2.0, 1.0, 8) == 255
        assert quantize(-1.0, 1.0, 8) == 0

    def test_zero_max(self):
        assert quantize(5.0, 0.0, 8) == 0
        assert dequantize(100, 0.0, 8) == 0.0

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            quantize(1.0, 1.0, 0)
        with pytest.raises(ValueError):
            quantize(1.0, 1.0, 40)

    @given(
        st.floats(min_value=0, max_value=1000),
        st.integers(1, 16),
    )
    @settings(max_examples=50)
    def test_round_trip_bounded_error(self, value, bits):
        max_value = 1000.0
        code = quantize(value, max_value, bits)
        assert 0 <= code < (1 << bits)
        recovered = dequantize(code, max_value, bits)
        assert abs(recovered - value) <= max_value / ((1 << bits) - 1) / 2 + 1e-9
