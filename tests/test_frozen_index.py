"""CSR index and search engine: equal to the token-list reference.

``tests/reference.py``'s :class:`ReferenceEngine` counts phrases and
scores BM25 by scanning each document's seed-tokenized token list, as
the seed's dict index did; the engine answers the same queries from its
CSR columns.  The properties below hold the two equal, scores bit for
bit, on random small corpora.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.search.engine import SearchEngine
from repro.search.frozen import FrozenInvertedIndex
from tests.reference import ReferenceEngine

# Repeated terms, stopwords, apostrophes, non-ASCII words and a number:
# every token class the word pass treats apart.
WORDS = [
    "cuba", "talks", "go", "havana", "the", "of", "don't", "o'brien",
    "café", "naïve", "straße", "ωmega", "1,234",
]
SEPARATORS = [" ", "  ", ", ", ". ", "\n", " - "]

# Documents are (word, separator) runs; ids descend, so corpus rows and
# doc ids differ.
documents = st.lists(
    st.lists(
        st.tuples(st.sampled_from(WORDS), st.sampled_from(SEPARATORS)),
        max_size=25,
    ).map(lambda pairs: "".join(word + sep for word, sep in pairs)),
    max_size=8,
).map(lambda texts: [(100 - 7 * row, text) for row, text in enumerate(texts)])

queries = st.lists(st.sampled_from(WORDS + ["unseen"]), max_size=3).map(" ".join)


def check_engine(docs, phrases, limit):
    engine = SearchEngine.from_corpus(docs)
    reference = ReferenceEngine(docs)
    for phrase in phrases:
        assert engine.phrase_result_count(phrase) == reference.phrase_result_count(
            phrase
        )
        assert engine.result_count(phrase) == reference.result_count(phrase)
        for got, want in (
            (engine.phrase_search(phrase, limit), reference.phrase_search(phrase, limit)),
            (engine.search(phrase, limit), reference.search(phrase, limit)),
        ):
            assert [(r.doc_id, r.score) for r in got] == want


class TestConstruction:
    def test_from_token_streams_matches_reference(self):
        docs = [(7, "go go go talks"), (3, ""), (5, "cuba talks cuba talks")]
        frozen = SearchEngine.from_corpus(docs).frozen
        assert frozen.terms == ["cuba", "go", "talks"]
        assert frozen.doc_ids.tolist() == [7, 3, 5]
        assert frozen.doc_lengths.tolist() == [4, 0, 4]
        assert frozen.term_offsets.tolist() == [0, 1, 2, 4]
        assert frozen.posting_docs.tolist() == [2, 0, 0, 2]
        assert frozen.position_offsets.tolist() == [0, 2, 5, 6, 8]
        assert frozen.positions.tolist() == [0, 2, 0, 1, 2, 3, 1, 3]

    def test_empty_corpus(self):
        streamed = FrozenInvertedIndex.from_token_streams([], [], [])
        assert streamed.document_count == 0
        assert streamed.phrase_document_count(["cuba"]) == 0
        engine = SearchEngine.from_corpus([])
        assert engine.search("cuba") == []
        assert engine.phrase_result_count("cuba") == 0


class TestDictEquivalence:
    """Equal to the seed's dict index, which tests/reference.py keeps as
    a token-list scan, on random small corpora."""

    @given(documents)
    @settings(max_examples=100, deadline=None)
    def test_statistics_match(self, docs):
        frozen = SearchEngine.from_corpus(docs).frozen
        reference = ReferenceEngine(docs)
        assert frozen.document_count == len(reference.tokens)
        assert frozen.doc_ids.tolist() == list(reference.tokens)
        assert frozen.average_document_length == reference.average_length
        for term in WORDS + ["unseen"]:
            expected = {
                doc_id: tokens.count(term)
                for doc_id, tokens in reference.tokens.items()
                if term in tokens
            }
            assert (term in frozen) == bool(expected)
            assert frozen.document_frequency(term) == len(expected)
            if expected:
                rows, tfs = frozen.posting_slice(frozen.slot(term))
                got = dict(zip(frozen.doc_ids[rows].tolist(), tfs.tolist()))
                assert got == expected

    @given(documents, st.lists(queries, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_phrase_postings_match(self, docs, phrases):
        frozen = SearchEngine.from_corpus(docs).frozen
        reference = ReferenceEngine(docs)
        for phrase in phrases:
            terms = phrase.split()
            rows, counts, __ = frozen.phrase_occurrences(terms)
            got = dict(zip(frozen.doc_ids[rows].tolist(), counts.tolist()))
            assert got == reference.phrase_counts(terms)
            assert frozen.phrase_document_count(terms) == len(got)

    @given(documents, st.lists(queries, max_size=6), st.integers(1, 5))
    @example([(1, ""), (2, "go")], ["go", "", "go go"], 3)
    @example([(4, "go go go talks"), (9, "talks go go")], ["go go", "go go go"], 5)
    @settings(max_examples=150, deadline=None)
    def test_engine_results_match(self, docs, phrases, limit):
        check_engine(docs, phrases, limit)

    def test_tests_world_matches_reference(self, env_world, env_engine, env_reference):
        """A sample of the session world's concepts, at full size."""
        for concept in env_world.concepts[::22]:
            phrase = concept.phrase
            assert env_engine.phrase_result_count(
                phrase
            ) == env_reference.phrase_result_count(phrase)
            for got, want in (
                (env_engine.search(phrase, 50), env_reference.search(phrase, 50)),
                (
                    env_engine.phrase_search(phrase, 50),
                    env_reference.phrase_search(phrase, 50),
                ),
            ):
                assert [(r.doc_id, r.score) for r in got] == want


class TestPhraseEdgeCases:
    """The tricky phrase inputs, against the reference's scan."""

    def docs(self):
        return [
            (1, "go go go talks"),
            (2, "cuba talks cuba talks"),
            (3, "talks cuba"),
        ]

    def counts(self, terms):
        frozen = SearchEngine.from_corpus(self.docs()).frozen
        rows, counts, __ = frozen.phrase_occurrences(terms)
        got = dict(zip(frozen.doc_ids[rows].tolist(), counts.tolist()))
        assert got == ReferenceEngine(self.docs()).phrase_counts(terms)
        return got

    def test_empty_phrase(self):
        assert self.counts([]) == {}

    def test_unseen_term_short_circuits(self):
        assert self.counts(["cuba", "unseen"]) == {}

    def test_adjacent_duplicate_terms(self):
        # "go go" occurs at positions 0 and 1 of doc 1 (overlapping)
        assert self.counts(["go", "go"]) == {1: 2}
        assert self.counts(["go", "go", "go"]) == {1: 1}

    def test_order_matters(self):
        assert self.counts(["cuba", "talks"]) == {2: 2}
        assert self.counts(["talks", "cuba"]) == {2: 1, 3: 1}

    def test_rarest_term_first_intersection(self):
        # "cuba" is rarer than "talks": the intersection starts from it
        # regardless of phrase order, and results stay position-exact.
        frozen = SearchEngine.from_corpus(self.docs()).frozen
        assert frozen.document_frequency("cuba") < frozen.document_frequency("talks")
        rows, __, firsts = frozen.phrase_occurrences(["talks", "cuba"])
        assert frozen.doc_ids[rows].tolist() == [2, 3]
        assert firsts.tolist() == [1, 0]
        assert np.array_equal(
            frozen.phrase_occurrences(["cuba", "talks"])[2], np.array([0])
        )
