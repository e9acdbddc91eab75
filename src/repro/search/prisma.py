"""Prisma: the query-refinement / pseudo-relevance-feedback tool.

Per the paper (Section IV-B, citing Anick and Xu & Croft): "The feedback
terms are generated using a pseudo-relevance feedback approach by
considering the top 50 documents in a large collection, based on factors
such as count and position of the terms in the documents, document
rank, occurrence of query terms within the input phrase, etc.  When
Prisma is queried, it returns top twenty feedback concepts for the
submitted query" — a hard cap the paper itself identifies as the reason
Prisma-based relevance mining underperforms snippets.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.search.engine import SearchEngine
from repro.text.tokenizer import tokenize_lower


class PrismaTool:
    """Pseudo-relevance feedback over the synthetic engine."""

    def __init__(
        self,
        engine: SearchEngine,
        feedback_documents: int = 50,
        feedback_terms: int = 20,
    ):
        self._engine = engine
        self.feedback_documents = feedback_documents
        self.feedback_terms = feedback_terms

    def feedback(self, query: str) -> List[Tuple[str, float]]:
        """Top feedback terms with scores for *query*.

        Term score aggregates, over the top-ranked documents:
        term count, an early-position bonus, and a document-rank decay;
        query terms and stopwords are excluded.  Each result document
        adds its scores with one masked gather and ``np.add.at`` over
        its id array in the engine's corpus; ties rank alphabetically.
        """
        corpus = self._engine.corpus
        query_terms = set(tokenize_lower(query))
        results = self._engine.search(query, limit=self.feedback_documents)
        if not results:
            return []
        blocked = corpus.stop_mask.copy()
        for term in query_terms:
            vid = corpus.vocabulary.get(term)
            if vid is not None:
                blocked[vid] = True
        scores = np.zeros(len(corpus.terms))
        for rank, result in enumerate(results):
            rank_weight = 1.0 / (1.0 + rank)
            ids = corpus.id_arrays[corpus.doc_row(result.doc_id)]
            length = max(1, len(ids))
            keep = ~blocked[ids]
            kept_ids = ids[keep]
            if not kept_ids.size:
                continue
            positions = np.flatnonzero(keep)
            # 1.0 + (1.0 - position / length) * 0.5, then * rank_weight,
            # elementwise in that order.
            position_bonus = 1.0 + (1.0 - positions / length) * 0.5
            np.add.at(scores, kept_ids, rank_weight * position_bonus)
        touched = np.flatnonzero(scores)
        if not touched.size:
            return []
        order = np.lexsort((corpus.term_alpha_rank[touched], -scores[touched]))
        top = touched[order[: self.feedback_terms]]
        terms = corpus.terms
        return [(terms[vid], float(scores[vid])) for vid in top.tolist()]
