"""Tests for the concept-vector baseline scorer (paper Section II-B)."""

import pytest

from repro.detection import ConceptVectorScorer
from repro.querylog import QueryLog, UnitMiner
from repro.text.vectorize import DocumentFrequencyTable
from tests.reference import term_vector, unit_vector


def make_scorer(**kwargs):
    """A small handmade scorer: corpus + query log with known structure."""
    table = DocumentFrequencyTable()
    corpus = [
        ["cuba", "talks", "havana", "embargo"],
        ["cuba", "election", "politics"],
        ["weather", "report", "sunny"],
        ["global", "warming", "climate", "science"],
        ["global", "markets", "economy"],
        ["sports", "game", "score"],
        ["music", "album", "band"],
        ["movie", "review", "cinema"],
    ]
    for doc in corpus:
        table.add_document(doc)
    log = QueryLog.from_strings(
        {
            "global warming": 60,
            "global warming facts": 10,
            "cuba": 40,
            "havana": 5,
            "weather": 80,
            "sports": 70,
            "music": 75,
            "movie": 65,
            "economy": 30,
        }
    )
    lexicon = UnitMiner(min_pair_count=3, mi_threshold=0.3).mine(log)
    return ConceptVectorScorer(table, lexicon, **kwargs), lexicon


class TestComponentVectors:
    """The two component vectors, as the seed scorer computed them per
    term (the kernel's id-space passes are pinned to these float for
    float in tests/test_detection_kernel.py)."""

    def test_term_vector_normalized_and_stopword_free(self):
        scorer, __ = make_scorer()
        vector = term_vector(
            scorer, ["the", "cuba", "cuba", "talks", "with", "havana"]
        )
        assert "the" not in vector
        assert "with" not in vector
        assert max(w for __, w in vector.items()) == pytest.approx(1.0)

    def test_unit_vector_contains_mined_unit(self):
        scorer, lexicon = make_scorer()
        assert ("global", "warming") in lexicon
        vector = unit_vector(scorer, ["global", "warming", "is", "real"])
        assert "global warming" in vector

    def test_unit_vector_empty_when_no_units(self):
        scorer, __ = make_scorer()
        vector = unit_vector(scorer, ["zzz", "qqq"])
        assert len(vector) == 0


class TestMerge:
    def test_term_only_entries_punished(self):
        scorer, __ = make_scorer()
        # 'havana' is in corpus docs but a cold query (low unit score)
        text = "cuba talks havana embargo"
        merged = scorer.concept_vector(text)
        terms = term_vector(scorer, ["cuba", "talks", "havana", "embargo"])
        # havana should appear with punished weight if it is term-only
        if "havana" in merged and "havana" not in unit_vector(
            scorer, ["cuba", "talks", "havana", "embargo"]
        ):
            assert merged["havana"] == pytest.approx(
                terms["havana"] * scorer.punish_factor
            )

    def test_both_vectors_sum(self):
        scorer, __ = make_scorer()
        tokens = ["cuba", "talks", "embargo"]
        terms = term_vector(scorer, tokens)
        units = unit_vector(scorer, tokens)
        merged = scorer.concept_vector("cuba talks embargo")
        if "cuba" in terms and "cuba" in units:
            assert merged["cuba"] == pytest.approx(terms["cuba"] + units["cuba"])

    def test_multi_term_bubbles_up(self):
        scorer, __ = make_scorer()
        text = "global warming is changing climate science says report"
        merged = scorer.concept_vector(text)
        assert "global warming" in merged
        # the multi-term concept must outrank each of its parts
        assert merged["global warming"] > merged.get("global", 0.0)
        assert merged["global warming"] > merged.get("warming", 0.0)

    def test_multi_term_bonus_can_be_disabled(self):
        scorer_on, __ = make_scorer(multi_term_bonus=True)
        scorer_off, __ = make_scorer(multi_term_bonus=False)
        text = "global warming is changing climate science says report"
        with_bonus = scorer_on.concept_vector(text)["global warming"]
        without = scorer_off.concept_vector(text)["global warming"]
        assert with_bonus > without

    def test_max_weight_bound(self):
        """Paper: max final weight <= 2 x number of terms in the concept."""
        scorer, __ = make_scorer()
        text = "global warming climate science global warming"
        merged = scorer.concept_vector(text)
        for phrase, weight in merged.items():
            assert weight <= 2.0 * max(1, len(phrase.split())) + 1e-9

    def test_top_concepts_ordering(self):
        scorer, __ = make_scorer()
        text = "global warming is changing climate science says the report"
        top = scorer.top_concepts(text, count=3)
        assert top[0][0] == "global warming"
        scores = [s for __, s in top]
        assert scores == sorted(scores, reverse=True)

    def test_score_phrase_absent(self):
        scorer, __ = make_scorer()
        vector = scorer.concept_vector("cuba talks")
        assert scorer.score_phrase(vector, "never seen") == 0.0


class TestOnWorld:
    def test_relevant_concepts_outrank_offtopic(
        self, env_world, env_scorer, env_stories
    ):
        """On-topic embedded concepts should usually beat off-topic ones."""
        by_id = {c.concept_id: c for c in env_world.concepts}
        wins = losses = 0
        for story in env_stories:
            vector = env_scorer.concept_vector(story.text)
            relevant, offtopic = [], []
            for mention in story.mentions:
                concept = by_id[mention.concept_id]
                score = vector.get(concept.phrase.lower(), 0.0)
                if mention.relevance >= 0.75:
                    relevant.append(score)
                elif not concept.is_junk:
                    offtopic.append(score)
            for r in relevant:
                for o in offtopic:
                    if r > o:
                        wins += 1
                    elif o > r:
                        losses += 1
        assert wins + losses > 0
        assert wins / (wins + losses) > 0.5
