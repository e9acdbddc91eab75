"""Tests for the inverted index, engine, snippets, Prisma and suggestions."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import SyntheticWorld, WorldConfig
from repro.querylog import QueryLog, query_log_for_world
from repro.search import PrismaTool, SearchEngine, SnippetService, SuggestionService
from tests.reference import ReferenceEngine, make_snippet

TINY_WORLD = WorldConfig(
    seed=9,
    vocabulary_size=1000,
    topic_count=6,
    words_per_topic=40,
    concept_count=100,
    topic_page_count=60,
)


@pytest.fixture(scope="module")
def world():
    return SyntheticWorld.build(TINY_WORLD)


@pytest.fixture(scope="module")
def engine(world):
    return SearchEngine.from_corpus(world.web_corpus)


def phrase_counts(engine, terms):
    """doc_id -> exact occurrences of *terms*, from the CSR index."""
    frozen = engine.frozen
    rows, counts, __ = frozen.phrase_occurrences(terms)
    return dict(zip(frozen.doc_ids[rows].tolist(), counts.tolist()))


class TestInvertedIndex:
    def build(self):
        return SearchEngine.from_corpus(
            [
                (0, "the global warming debate"),
                (1, "global markets and global warming"),
                (2, "weather report"),
            ]
        )

    def test_document_stats(self):
        engine = self.build()
        assert engine.document_count == 3
        assert engine.frozen.doc_lengths.tolist() == [4, 5, 2]
        assert engine.frozen.average_document_length == pytest.approx((4 + 5 + 2) / 3)

    def test_duplicate_doc_id_rejected(self):
        with pytest.raises(ValueError):
            SearchEngine.from_corpus([(0, "x"), (0, "y")])

    def test_document_frequency(self):
        frozen = self.build().frozen
        assert frozen.document_frequency("global") == 2
        assert frozen.document_frequency("weather") == 1
        assert frozen.document_frequency("nope") == 0

    def test_term_frequency(self):
        frozen = self.build().frozen
        rows, tfs = frozen.posting_slice(frozen.slot("global"))
        assert dict(zip(frozen.doc_ids[rows].tolist(), tfs.tolist())) == {0: 1, 1: 2}

    def test_phrase_postings(self):
        assert phrase_counts(self.build(), ["global", "warming"]) == {0: 1, 1: 1}

    def test_phrase_postings_respects_order(self):
        assert phrase_counts(self.build(), ["warming", "global"]) == {}

    def test_phrase_postings_counts_multiple(self):
        engine = SearchEngine.from_corpus([(0, "a b a b")])
        assert phrase_counts(engine, ["a", "b"]) == {0: 2}

    def test_phrase_single_term(self):
        assert phrase_counts(self.build(), ["global"]) == {0: 1, 1: 2}

    def test_phrase_empty(self):
        assert phrase_counts(self.build(), []) == {}

    def test_phrase_unseen_term(self):
        assert phrase_counts(self.build(), ["global", "zzz"]) == {}

    def test_phrase_document_count(self):
        assert self.build().phrase_result_count("global warming") == 2


class TestSearchEngine:
    def test_search_ranks_matching_docs_first(self, world, engine):
        concept = max(
            (c for c in world.concepts if not c.is_junk),
            key=lambda c: c.interestingness,
        )
        results = engine.search(concept.phrase, limit=10)
        assert results
        top_tokens = engine.tokens(results[0].doc_id)
        assert any(term in top_tokens for term in concept.terms)

    def test_scores_descending(self, engine, world):
        results = engine.search(world.concepts[0].phrase, limit=20)
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_phrase_search_contains_phrase(self, world, engine):
        concept = next(
            c for c in world.concepts if len(c.terms) >= 2 and not c.is_junk
        )
        results = engine.phrase_search(concept.phrase, limit=5)
        for result in results:
            tokens = engine.tokens(result.doc_id)
            text = " ".join(tokens)
            assert concept.phrase in text

    def test_phrase_result_count_matches_phrase_search(self, world, engine):
        concept = world.concepts[1]
        count = engine.phrase_result_count(concept.phrase)
        results = engine.phrase_search(concept.phrase, limit=10**6)
        assert count == len(results)

    def test_empty_query(self, engine):
        assert engine.search("") == []
        assert engine.phrase_search("") == []
        assert engine.phrase_result_count("") == 0

    def test_result_count_free_query(self, engine, world):
        concept = world.concepts[2]
        assert engine.result_count(concept.phrase) >= engine.phrase_result_count(
            concept.phrase
        )

    def test_free_query_scores_do_not_depend_on_hash_seed(self):
        # The same queries in two processes whose string hash seeds
        # differ must score bit-identically: term contributions add up
        # in query order, not in set order.
        script = """
import hashlib
import numpy as np
from repro.search import SearchEngine
rng = np.random.default_rng(5)
vocabulary = ["q" + "".join(chr(97 + int(d)) for d in "%03d" % i) for i in range(60)]
documents = [
    (doc_id, " ".join(rng.choice(vocabulary, size=int(rng.integers(5, 80)))))
    for doc_id in range(400)
]
engine = SearchEngine.from_corpus(documents)
digest = hashlib.sha256()
for __ in range(300):
    query = " ".join(rng.choice(vocabulary, size=int(rng.integers(3, 6))))
    for result in engine.search(query, limit=50):
        digest.update(b"%d:%s;" % (result.doc_id, result.score.hex().encode()))
print(digest.hexdigest())
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = set()
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=300, check=True,
            )
            digests.add(done.stdout.strip())
        assert len(digests) == 1

    def test_general_concepts_more_results(self, world, engine):
        regular = [c for c in world.concepts if not c.is_junk]
        specific = [c for c in regular if c.specificity > 0.85]
        general = [c for c in regular if c.specificity < 0.4]
        assert specific and general
        mean_specific = np.mean(
            [engine.phrase_result_count(c.phrase) for c in specific]
        )
        mean_general = np.mean(
            [engine.phrase_result_count(c.phrase) for c in general]
        )
        assert mean_general > mean_specific


def letter_words(count):
    """*count* distinct letter-only words (digits are not word tokens)."""
    return ["w" + chr(97 + i // 26) + chr(97 + i % 26) for i in range(count)]


def snippet_of(tokens, phrase, window):
    """SnippetService's one snippet over a one-document corpus."""
    engine = SearchEngine.from_corpus([(0, " ".join(tokens))])
    snippets = SnippetService(engine, window=window).snippets_for_phrase(phrase)
    assert snippets == [make_snippet(tokens, phrase.split(), window)]
    return snippets[0]


class TestSnippets:
    def test_window_centred_on_phrase(self):
        tokens = letter_words(100)
        tokens[50:52] = ["target", "phrase"]
        snippet = snippet_of(tokens, "target phrase", window=10)
        assert "target phrase" in snippet
        assert len(snippet.split()) == 10
        assert snippet.split()[5:7] == ["target", "phrase"]

    def test_fallback_to_any_term(self):
        # the seed anchored a result without the exact phrase on any
        # query term; phrase-query results always hold the phrase
        tokens = ["a", "b", "target", "c"]
        assert "target" in make_snippet(tokens, ["target", "missing"], window=4)
        engine = SearchEngine.from_corpus([(0, " ".join(tokens))])
        assert SnippetService(engine).snippets_for_phrase("target missing") == []

    def test_no_match_starts_at_beginning(self):
        assert snippet_of(["a", "b", "c", "d"], "a", window=2) == "a b"
        assert snippet_of(["a", "b", "c", "d"], "d", window=2) == "c d"

    def test_short_document(self):
        assert snippet_of(["only"], "only", window=10) == "only"

    def test_service_returns_snippets_containing_topic_words(self, world, engine):
        service = SnippetService(engine)
        concept = max(
            (c for c in world.concepts if not c.is_junk and len(c.terms) >= 2),
            key=lambda c: c.interestingness,
        )
        snippets = service.snippets_for_phrase(concept.phrase, limit=20)
        assert snippets
        assert any(concept.terms[0] in s.split() for s in snippets)
        reference = ReferenceEngine(
            (page.doc_id, page.text) for page in world.web_corpus
        )
        assert snippets == reference.snippets(concept.phrase, limit=20)

    @given(st.integers(2, 40))
    @settings(max_examples=10, deadline=None)
    def test_window_size_respected(self, window):
        tokens = letter_words(80)
        snippet = snippet_of(tokens, tokens[40], window=window)
        assert len(snippet.split()) == window


class TestPrisma:
    def test_returns_capped_feedback(self, world, engine):
        prisma = PrismaTool(engine)
        concept = max(
            (c for c in world.concepts if not c.is_junk),
            key=lambda c: c.interestingness,
        )
        feedback = prisma.feedback(concept.phrase)
        assert 0 < len(feedback) <= 20
        terms = [t for t, __ in feedback]
        # query terms excluded
        assert not set(terms) & set(concept.terms)

    def test_scores_descending(self, world, engine):
        prisma = PrismaTool(engine)
        feedback = prisma.feedback(world.concepts[0].phrase)
        scores = [s for __, s in feedback]
        assert scores == sorted(scores, reverse=True)

    def test_feedback_contains_topic_words(self, world, engine):
        prisma = PrismaTool(engine, feedback_terms=20)
        concept = max(
            (c for c in world.concepts if not c.is_junk and c.home_topics),
            key=lambda c: c.interestingness,
        )
        feedback = {t for t, __ in prisma.feedback(concept.phrase)}
        topic_words = set()
        for topic_id in concept.home_topics:
            topic_words.update(world.topics[topic_id].words)
        assert feedback & topic_words


class TestSuggestions:
    def test_suggestions_contain_phrase(self, world):
        log = query_log_for_world(world)
        service = SuggestionService(log)
        concept = max(
            (c for c in world.concepts if not c.is_junk),
            key=lambda c: log.freq_exact(c.terms),
        )
        suggestions = service.suggest(concept.phrase)
        assert suggestions
        for text, frequency in suggestions:
            assert concept.phrase in text
            assert frequency > 0

    def test_exact_query_excluded(self):
        log = QueryLog.from_strings({"global warming": 10, "global warming facts": 3})
        suggestions = SuggestionService(log).suggest("global warming")
        assert ("global warming", 10) not in suggestions
        assert ("global warming facts", 3) in suggestions

    def test_cap_respected(self):
        queries = {f"base q{i}": i + 1 for i in range(50)}
        log = QueryLog.from_strings(queries)
        service = SuggestionService(log, max_suggestions=10)
        assert len(service.suggest("base")) == 10

    def test_sorted_by_frequency(self):
        log = QueryLog.from_strings({"x a": 1, "x b": 9, "x c": 5})
        suggestions = SuggestionService(log).suggest("x")
        assert [f for __, f in suggestions] == [9, 5, 1]

    def test_empty_phrase(self):
        log = QueryLog.from_strings({"a": 1})
        assert SuggestionService(log).suggest("") == []
