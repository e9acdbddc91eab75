"""The synthetic search engine.

Stands in for Yahoo! Search wherever the paper consumes it:

* phrase-query **result counts** — interestingness feature 4
  ("searchengine phrase": "we submit the concept to the search engine
  as a phrase query, and use the number of result pages returned");
* ranked **results with snippets** — the primary resource for mining
  relevant keywords (Section IV-B);
* free-text retrieval for the Prisma pseudo-relevance-feedback tool.

Scoring is BM25 (free queries) or summed phrase tf*idf (phrase
queries); both only use index statistics, exactly like a real engine.
An engine is built from a :class:`~repro.text.corpus.TokenizedCorpus`:
its index is the corpus's id streams as CSR columns
(:class:`~repro.search.frozen.FrozenInvertedIndex`), and every query is
array arithmetic over them.  ``tests/reference.py`` scores the same
queries by scanning token lists; the tests hold the two equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.obs import get_registry
from repro.search.frozen import FrozenInvertedIndex
from repro.text.corpus import TokenizedCorpus
from repro.text.tokenizer import tokenize_lower


@dataclass(frozen=True)
class SearchResult:
    """One ranked result."""

    doc_id: int
    score: float


class SearchEngine:
    """BM25 search over a tokenized corpus, with phrase support.

    ``corpus`` is the :class:`TokenizedCorpus` the engine indexes; the
    snippet service and Prisma read documents from it as id arrays.
    """

    def __init__(self, corpus: TokenizedCorpus, k1: float = 1.2, b: float = 0.75):
        self.k1 = k1
        self.b = b
        self.corpus = corpus
        self.frozen = FrozenInvertedIndex.from_token_streams(
            corpus.doc_ids, corpus.id_arrays, corpus.terms
        )
        avg_len = self.frozen.average_document_length or 1.0
        lengths = self.frozen.doc_lengths.astype(np.float64)
        # BM25's length norm, 1 - b + (b * doc_length) / avg_length,
        # left to right.
        self._length_norm = 1 - b + b * lengths / avg_len
        registry = get_registry()
        self._m_queries = {
            kind: registry.counter(
                "search_queries_total",
                help="search engine queries by kind",
                kind=kind,
            )
            for kind in ("free", "phrase", "count", "phrase_count")
        }

    @classmethod
    def from_corpus(cls, documents, k1: float = 1.2, b: float = 0.75) -> "SearchEngine":
        """Index an iterable of objects with ``doc_id`` and ``text``
        (or ``(doc_id, text)`` pairs)."""
        return cls(TokenizedCorpus(documents), k1=k1, b=b)

    @property
    def document_count(self) -> int:
        return self.frozen.document_count

    def tokens(self, doc_id: int) -> List[str]:
        """The indexed token sequence of a document."""
        corpus = self.corpus
        terms = corpus.terms
        return [terms[vid] for vid in corpus.id_arrays[corpus.doc_row(doc_id)].tolist()]

    # -- scoring ---------------------------------------------------------

    def _idf(self, term: str) -> float:
        df = self.frozen.document_frequency(term)
        n = self.frozen.document_count
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def _top(self, rows: np.ndarray, scores: np.ndarray, limit: int) -> np.ndarray:
        """Positions of the top *limit* of *rows*, by (-score, doc_id)."""
        return np.lexsort((self.frozen.doc_ids[rows], -scores))[:limit]

    def _results(self, rows: np.ndarray, scores: np.ndarray) -> List[SearchResult]:
        return [
            SearchResult(doc_id, score)
            for doc_id, score in zip(
                self.frozen.doc_ids[rows].tolist(), scores.tolist()
            )
        ]

    # -- queries ---------------------------------------------------------

    def search(self, query: str, limit: int = 10) -> List[SearchResult]:
        """Free-text BM25 search: one gather-accumulate per distinct term."""
        self._m_queries["free"].inc()
        terms = tokenize_lower(query)
        if not terms:
            return []
        frozen = self.frozen
        scores = np.zeros(frozen.document_count)
        touched = np.zeros(frozen.document_count, dtype=bool)
        k1 = self.k1
        # first-seen order, not set order: float addition order decides
        # the last bit, and set order follows the string hash seed
        for term in dict.fromkeys(terms):
            slot = frozen.slot(term)
            if slot is None:
                continue
            rows, tfs = frozen.posting_slice(slot)
            tf = tfs.astype(np.float64)
            contribution = (
                self._idf(term) * tf * (k1 + 1) / (tf + k1 * self._length_norm[rows])
            )
            scores[rows] += contribution
            touched[rows] = True
        rows = np.flatnonzero(touched)
        scores = scores[rows]
        order = self._top(rows, scores, limit)
        return self._results(rows[order], scores[order])

    def phrase_search(self, phrase: str, limit: int = 10) -> List[SearchResult]:
        """Exact-phrase search, scored by phrase frequency * idf."""
        rows, scores, __ = self.phrase_hits(phrase, limit)
        return self._results(rows, scores)

    def phrase_hits(
        self, phrase: str, limit: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(corpus rows, scores, first-occurrence starts) of the top
        *limit* phrase-query results, best first.

        :meth:`phrase_search`'s ranking plus the token position each
        result's first exact occurrence starts at, which anchors its
        snippet window, from one phrase intersection.
        """
        self._m_queries["phrase"].inc()
        terms = tokenize_lower(phrase)
        if not terms:
            empty = np.zeros(0, dtype=np.int64)
            return empty, np.zeros(0), empty
        idf = sum(self._idf(term) for term in terms)
        rows, counts, firsts = self.frozen.phrase_occurrences(terms)
        scores = counts * idf
        order = self._top(rows, scores, limit)
        return rows[order], scores[order], firsts[order]

    def phrase_result_count(self, phrase: str) -> int:
        """Feature 4: total number of pages matching the phrase query."""
        self._m_queries["phrase_count"].inc()
        terms = tokenize_lower(phrase)
        if not terms:
            return 0
        return self.frozen.phrase_document_count(terms)

    def result_count(self, query: str) -> int:
        """Total number of pages matching the free query (any term)."""
        self._m_queries["count"].inc()
        frozen = self.frozen
        touched = np.zeros(frozen.document_count, dtype=bool)
        for term in set(tokenize_lower(query)):
            slot = frozen.slot(term)
            if slot is not None:
                touched[frozen.posting_slice(slot)[0]] = True
        return int(touched.sum())
