"""Relevance: offline keyword mining and runtime context scoring.

Paper Section IV-B.  For every concept ``c_i`` we pre-mine its top
``m = 100`` relevant context keywords ``relevantTerms_i = {(t, s), ...}``
from three resources:

* **search engine snippets** — snippets of the first hundred phrase-query
  results, treated as a single bag-of-words document, scored by tf*idf;
* **Prisma** — the top-twenty pseudo-relevance-feedback terms, scored the
  same way (the 20-term cap is the paper's explanation for Prisma's
  weaker results in Table IV);
* **related query suggestions** — up to 300 suggestions with query
  frequencies; each term scores sum_k ln(query_freq_k) * idf(term).

All terms are stemmed, lower-cased, punctuation-stripped.  At runtime
the relevance of a concept in a context is the summed score of its
pre-mined keywords that co-occur with it in the context — which also
provides the paper's "safety net": junk concepts mine only low-scoring,
scattered keywords (Table II), so they can never achieve a high
relevance score in any context.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.search.prisma import PrismaTool
from repro.search.snippets import SnippetService
from repro.search.suggestions import SuggestionService
from repro.text.stemmer import stem
from repro.text.stopwords import is_stopword
from repro.text.tokenized import DocumentLike, TokenizedDocument
from repro.text.tokenizer import tokenize_lower
from repro.text.vectorize import DocumentFrequencyTable

RelevantTerms = Tuple[Tuple[str, float], ...]

RESOURCE_SNIPPETS = "snippets"
RESOURCE_PRISMA = "prisma"
RESOURCE_SUGGESTIONS = "suggestions"
RESOURCES = (RESOURCE_SNIPPETS, RESOURCE_PRISMA, RESOURCE_SUGGESTIONS)


def stemmed_terms(text: DocumentLike) -> List[str]:
    """Stemmed, lower-cased, stopword-free content terms of *text*.

    A :class:`TokenizedDocument` returns its cached stemmed view (treat
    the result as read-only); a raw string is analysed from scratch.
    """
    if isinstance(text, TokenizedDocument):
        return text.stemmed_terms
    return [stem(word) for word in tokenize_lower(text) if not is_stopword(word)]


# -- process-pool plumbing -------------------------------------------------
#
# Worker processes are forked with the miner already constructed, so the
# engine/index state is inherited copy-on-write and never pickled.  Each
# work item is just (resource, [phrases...]); results are plain tuples.

_POOL_MINER: Optional["RelevantKeywordMiner"] = None


def _pool_initializer(miner: "RelevantKeywordMiner") -> None:
    global _POOL_MINER
    _POOL_MINER = miner


def _pool_mine_chunk(job: Tuple[str, List[str]]) -> List[RelevantTerms]:
    resource, phrases = job
    return [_POOL_MINER.mine(phrase, resource) for phrase in phrases]


def _pool_mine_chunk_with(
    miner: "RelevantKeywordMiner", job: Tuple[str, List[str]]
) -> List[RelevantTerms]:
    """Serial twin of :func:`_pool_mine_chunk` (fallback path)."""
    resource, phrases = job
    return [miner.mine(phrase, resource) for phrase in phrases]


def _chunked(items: Sequence, size: int) -> List[List]:
    return [list(items[i : i + size]) for i in range(0, len(items), size)]


class RelevantKeywordMiner:
    """Mines relevantTerms_i for concepts from the three resources.

    Snippet and Prisma keywords are counted on the interned id arrays of
    the snippet service's corpus: stems, stopwords and the alphabetical
    tie-break come from its per-vocabulary tables, and ``stemmed_df``'s
    raw idf is evaluated once per stem at construction.
    """

    def __init__(
        self,
        snippet_service: SnippetService,
        prisma: PrismaTool,
        suggestions: SuggestionService,
        stemmed_df: DocumentFrequencyTable,
        keyword_count: int = 100,
    ):
        self._snippets = snippet_service
        self._prisma = prisma
        self._suggestions = suggestions
        self._df = stemmed_df
        self.keyword_count = keyword_count
        self._corpus = snippet_service.corpus
        self._raw_idf = self._corpus.raw_idf_vector(stemmed_df)

    # -- per-resource mining ------------------------------------------------

    def mine_from_snippets(self, phrase: str) -> RelevantTerms:
        """tf*idf over the concatenated top-100 result snippets."""
        windows = self._snippets.windows(phrase, limit=100)
        if not windows:
            return ()
        return self._tf_idf_keywords(phrase, np.concatenate(windows))

    def mine_from_prisma(self, phrase: str) -> RelevantTerms:
        """tf*idf over the (at most twenty) Prisma feedback terms."""
        vocabulary = self._corpus.vocabulary
        ids = [vocabulary[term] for term, __ in self._prisma.feedback(phrase)]
        return self._tf_idf_keywords(phrase, np.asarray(ids, dtype=np.int64))

    def mine_from_suggestions(self, phrase: str) -> RelevantTerms:
        """sum_k ln(freq_k) * idf scoring over related-query suggestions."""
        concept_stems = set(stemmed_terms(phrase))
        scores: Dict[str, float] = {}
        for suggestion, frequency in self._suggestions.suggest(phrase):
            log_freq = math.log(max(2, frequency))
            for term in set(stemmed_terms(suggestion)):
                if term in concept_stems:
                    continue
                scores[term] = scores.get(term, 0.0) + log_freq
        weighted = {
            term: value * self._df.raw_idf(term) for term, value in scores.items()
        }
        return self._top_terms(weighted)

    def mine(self, phrase: str, resource: str) -> RelevantTerms:
        """Dispatch by resource name (one of :data:`RESOURCES`)."""
        if resource == RESOURCE_SNIPPETS:
            return self.mine_from_snippets(phrase)
        if resource == RESOURCE_PRISMA:
            return self.mine_from_prisma(phrase)
        if resource == RESOURCE_SUGGESTIONS:
            return self.mine_from_suggestions(phrase)
        raise ValueError(f"unknown resource: {resource!r}")

    def mine_many(
        self,
        phrases: Sequence[str],
        resources: Sequence[str] = RESOURCES,
        workers: Optional[int] = None,
        chunk_size: int = 32,
    ) -> Dict[str, Dict[str, RelevantTerms]]:
        """Fan per-(resource, phrase) mining across a process pool.

        Returns ``{resource: {phrase: terms}}`` with the inner dicts in
        input phrase order.  The work list is chunked per resource and
        dispatched through ``ProcessPoolExecutor.map``, whose ordered
        semantics give a deterministic merge: results are identical to
        the serial loop no matter how chunks land on workers.  With one
        worker (or when a pool cannot be spawned) the serial path runs
        in-process.
        """
        phrases = list(phrases)
        jobs = [
            (resource, chunk)
            for resource in resources
            for chunk in _chunked(phrases, max(1, chunk_size))
        ]
        if workers is None:
            workers = os.cpu_count() or 1
        chunk_results: List[List[RelevantTerms]]
        if workers > 1 and len(jobs) > 1:
            chunk_results = self._mine_jobs_parallel(jobs, workers)
        else:
            chunk_results = [_pool_mine_chunk_with(self, job) for job in jobs]
        merged: Dict[str, Dict[str, RelevantTerms]] = {
            resource: {} for resource in resources
        }
        for (resource, chunk), results in zip(jobs, chunk_results):
            merged[resource].update(zip(chunk, results))
        return merged

    def _mine_jobs_parallel(
        self, jobs: List[Tuple[str, List[str]]], workers: int
    ) -> List[List[RelevantTerms]]:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # platform without fork: stay serial
            return [_pool_mine_chunk_with(self, job) for job in jobs]
        try:
            with ProcessPoolExecutor(
                max_workers=min(workers, len(jobs)),
                mp_context=context,
                initializer=_pool_initializer,
                initargs=(self,),
            ) as pool:
                return list(pool.map(_pool_mine_chunk, jobs))
        except OSError:  # fork refused (sandbox / rlimit): stay serial
            return [_pool_mine_chunk_with(self, job) for job in jobs]

    # -- helpers ---------------------------------------------------------

    def _tf_idf_keywords(self, phrase: str, ids: np.ndarray) -> RelevantTerms:
        """tf*idf over the stems of token *ids*, top ``keyword_count``
        by ``(-score, stem)``; stopwords and the concept's stems are
        excluded."""
        corpus = self._corpus
        stem_ids = corpus.stem_ids[ids[~corpus.stop_mask[ids]]]
        concept = [
            corpus.stem_index[term]
            for term in stemmed_terms(phrase)
            if term in corpus.stem_index
        ]
        if concept:
            stem_ids = stem_ids[~np.isin(stem_ids, concept)]
        if not stem_ids.size:
            return ()
        unique_sids, counts = np.unique(stem_ids, return_counts=True)
        scores = counts * self._raw_idf[unique_sids]
        order = np.lexsort((corpus.stem_alpha_rank[unique_sids], -scores))
        stem_terms = corpus.stem_terms
        return tuple(
            (stem_terms[unique_sids[at]], float(scores[at]))
            for at in order[: self.keyword_count].tolist()
        )

    def _top_terms(self, scores: Dict[str, float]) -> RelevantTerms:
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return tuple(ranked[: self.keyword_count])


class RelevanceModel:
    """Offline store: concept phrase -> relevant terms with scores."""

    def __init__(self, entries: Dict[str, RelevantTerms]):
        self._entries = {phrase.lower(): terms for phrase, terms in entries.items()}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, phrase: str) -> bool:
        return phrase.lower() in self._entries

    def phrases(self) -> List[str]:
        return list(self._entries)

    def relevant_terms(self, phrase: str) -> RelevantTerms:
        return self._entries.get(phrase.lower(), ())

    def summation(self, phrase: str) -> float:
        """Sum of the concept's top-keyword scores (the Table II statistic)."""
        return sum(score for __, score in self._entries.get(phrase.lower(), ()))

    @classmethod
    def mine_all(
        cls,
        miner: RelevantKeywordMiner,
        phrases: Sequence[str],
        resource: str = RESOURCE_SNIPPETS,
        workers: int = 1,
    ) -> "RelevanceModel":
        """Run the offline mining for every phrase.

        ``workers > 1`` fans the phrase list across a process pool via
        :meth:`RelevantKeywordMiner.mine_many`; the merge preserves
        input order, so the resulting model is identical to the serial
        build.
        """
        if workers > 1:
            mined = miner.mine_many(phrases, (resource,), workers=workers)
            return cls(mined[resource])
        return cls({phrase: miner.mine(phrase, resource) for phrase in phrases})


class RelevanceScorer:
    """Runtime relevance of a concept in a context (Section IV-B)."""

    def __init__(self, model: RelevanceModel):
        self._model = model

    @staticmethod
    def context_stems(text: DocumentLike) -> Set[str]:
        """The stemmed term set of a context, computed once per document."""
        if isinstance(text, TokenizedDocument):
            return text.stem_set
        return set(stemmed_terms(text))

    def score(self, phrase: str, context: Set[str]) -> float:
        """Summed score of the concept's keywords present in *context*.

        The absolute (un-normalized) sum is intentional: junk concepts
        have low-scoring keywords, so their ceiling is low in *any*
        context — the safety-net property.
        """
        return sum(
            score
            for term, score in self._model.relevant_terms(phrase)
            if term in context
        )

    @staticmethod
    def rows_of(phrases: Sequence[str]) -> List[str]:
        """The rows :meth:`score_many` scores: the phrases themselves
        (a store looks its arena rows up instead)."""
        return list(phrases)

    def score_many(self, phrases: Sequence[str], context: Set[str]) -> List[float]:
        """Per-phrase scores for one shared context.

        The reference implementation just loops; the serving stores
        score their arena rows in one vectorized pass instead.
        """
        return [self.score(phrase, context) for phrase in phrases]

    def score_text(self, phrase: str, text: str) -> float:
        return self.score(phrase, self.context_stems(text))
