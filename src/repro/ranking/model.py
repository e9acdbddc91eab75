"""The combined ranking model: features -> RankSVM -> ordered concepts.

This is the object the paper deploys: interestingness features plus the
snippet-based relevance score feed a trained ranking SVM; at runtime a
document's candidate concepts are ranked in decreasing order of
predicted interestingness-and-relevance, with relevance used as the
tie-breaker (Section V-A.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.detection.pipeline import AnnotatedDocument
from repro.detection.base import Detection
from repro.features.interestingness import (
    InterestingnessExtractor,
    numeric_feature_names,
)
from repro.features.relevance import RelevanceScorer
from repro.obs.trace import NULL_CLOCK
from repro.ranking.baselines import tie_break_by_relevance
from repro.ranking.ranksvm import RankSVM
from repro.text.tokenized import DocumentLike


@dataclass
class FeatureAssembler:
    """Builds model feature matrices for (phrase, context) instances.

    *extractor* supplies Table I interestingness vectors (typically via
    a precomputed store); *relevance_scorer* supplies the contextual
    relevance feature and may be None for an interestingness-only model.
    *exclude_groups* removes feature groups for the Table III ablations.
    """

    extractor: InterestingnessExtractor
    relevance_scorer: Optional[RelevanceScorer] = None
    exclude_groups: Tuple[str, ...] = ()

    def __post_init__(self):
        # Per-phrase numeric-vector memo, used only when the extractor
        # declares a content version (the quantized store does; a live
        # extractor does not and is never cached).  The tag pins both
        # the extractor instance and its version, so swapping either
        # invalidates exactly.  Cached rows live in one 2-D arena so a
        # document's matrix is a single fancy-index gather; the dict
        # maps phrase -> arena row.
        self._numeric_cache: dict = {}
        self._numeric_cache_tag = None
        self._numeric_arena: Optional[np.ndarray] = None
        self._numeric_used = 0

    def _numeric_indices(self, phrases: Sequence[str]) -> List[int]:
        """Arena row index per phrase, extending the arena on misses.

        Only valid when the extractor is versioned (the caller checked);
        ``self._numeric_arena`` holds the cached vectors row-per-phrase,
        document-independent, so ranking N documents against the same
        store pays one extract+dequantize per distinct phrase, not one
        per detection.
        """
        extractor = self.extractor
        tag = (id(extractor), extractor.feature_version)
        cache = self._numeric_cache
        if tag != self._numeric_cache_tag:
            cache.clear()
            self._numeric_cache_tag = tag
            self._numeric_arena = None
            self._numeric_used = 0
        indices = []
        append = indices.append
        for phrase in phrases:
            index = cache.get(phrase)
            if index is None:
                row = extractor.extract(phrase).numeric(self.exclude_groups)
                arena = self._numeric_arena
                if arena is None:
                    arena = self._numeric_arena = np.empty((64, row.size))
                elif self._numeric_used == len(arena):
                    arena = np.empty((2 * len(arena), row.size))
                    arena[: self._numeric_used] = self._numeric_arena
                    self._numeric_arena = arena
                index = self._numeric_used
                arena[index] = row
                self._numeric_used = index + 1
                cache[phrase] = index
            append(index)
        return indices

    def _numeric_rows(self, phrases: Sequence[str]) -> List[np.ndarray]:
        """One interestingness numeric vector per phrase (memoized)."""
        extractor = self.extractor
        if getattr(extractor, "feature_version", None) is None:
            return [
                extractor.extract(phrase).numeric(self.exclude_groups)
                for phrase in phrases
            ]
        indices = self._numeric_indices(phrases)
        arena = self._numeric_arena
        return [arena[index] for index in indices]

    def vector(self, phrase: str, context: Optional[Set[str]] = None) -> np.ndarray:
        """The feature vector for *phrase* in *context*."""
        base = self.extractor.extract(phrase).numeric(self.exclude_groups)
        if self.relevance_scorer is None:
            return base
        if context is None:
            raise ValueError("relevance-enabled assembler requires a context")
        relevance = self.relevance_scorer.score(phrase, context)
        return np.concatenate([base, [np.log1p(relevance)]])

    def matrix(
        self, phrases: Sequence[str], context: Optional[Set[str]] = None
    ) -> np.ndarray:
        """Feature matrix for many phrases sharing one context."""
        return self.matrix_and_relevance(phrases, context)[0]

    def matrix_and_relevance(
        self, phrases: Sequence[str], context: Optional[Set[str]] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(feature matrix, raw relevance scores) with one batched lookup.

        The relevance column is produced by a single ``score_many`` call
        against the store (vectorized over the columnar arena) and is
        returned alongside the matrix so rankers can reuse it for
        tie-breaking without scoring twice.

        With a versioned extractor the matrix is assembled with one
        fancy-index gather from the row arena straight into the output
        (plus the relevance column written in place) — the same values
        the row-by-row ``np.vstack``/``np.concatenate`` construction
        produces, without the per-row Python overhead.
        """
        if getattr(self.extractor, "feature_version", None) is None:
            base = np.vstack(self._numeric_rows(phrases))
            if self.relevance_scorer is None:
                return base, np.zeros(len(phrases))
            if context is None:
                raise ValueError(
                    "relevance-enabled assembler requires a context"
                )
            relevance = self._batched_scores(phrases, context)
            return (
                np.concatenate([base, np.log1p(relevance)[:, None]], axis=1),
                relevance,
            )
        indices = self._numeric_indices(phrases)
        arena = self._numeric_arena
        if self.relevance_scorer is None:
            return arena[indices], np.zeros(len(phrases))
        if context is None:
            raise ValueError("relevance-enabled assembler requires a context")
        relevance = self._batched_scores(phrases, context)
        width = arena.shape[1]
        features = np.empty((len(indices), width + 1))
        features[:, :width] = arena[indices]
        features[:, width] = np.log1p(relevance)
        return features, relevance

    def _batched_scores(
        self, phrases: Sequence[str], context: Set[str]
    ) -> np.ndarray:
        score_many = getattr(self.relevance_scorer, "score_many", None)
        if score_many is not None:
            return np.asarray(score_many(phrases, context), dtype=float)
        return np.asarray(
            [self.relevance_scorer.score(phrase, context) for phrase in phrases]
        )

    def feature_names(self) -> List[str]:
        """Column names of :meth:`matrix` / :meth:`matrix_and_relevance`."""
        names = numeric_feature_names(self.exclude_groups)
        if self.relevance_scorer is not None:
            names.append("relevance")
        return names

    def context_of(self, text: DocumentLike) -> Optional[Set[str]]:
        """Stemmed context (set or sorted TID array), or None when the
        model is interestingness-only.

        Passing a :class:`TokenizedDocument` reuses its cached stemmed
        pass instead of re-tokenizing the context text.
        """
        if self.relevance_scorer is None:
            return None
        return self.relevance_scorer.context_stems(text)

    def relevance_of(
        self, phrases: Sequence[str], context: Optional[Set[str]]
    ) -> np.ndarray:
        """Raw relevance scores (zeros when no relevance scorer)."""
        if self.relevance_scorer is None or context is None:
            return np.zeros(len(phrases))
        return self._batched_scores(phrases, context)


class ConceptRanker:
    """Ranks a document's candidate concepts with a trained RankSVM."""

    def __init__(
        self,
        assembler: FeatureAssembler,
        model: RankSVM,
        tie_break_with_relevance: bool = True,
    ):
        self._assembler = assembler
        self._model = model
        self.tie_break_with_relevance = tie_break_with_relevance
        # Optional callable fed every assembled feature matrix (the
        # drift detector's tap); None keeps the hot path branch-free
        # beyond one identity check.
        self.feature_observer = None

    def score_phrases(
        self, phrases: Sequence[str], text: DocumentLike, clock=NULL_CLOCK
    ) -> np.ndarray:
        """Model scores for candidate *phrases* of document *text*.

        *clock* laps ``rank`` once the feature matrix is assembled, so
        a caller's running stage covers the context stems, the store
        lookups and the relevance summations, and ``rank`` covers model
        inference onward.
        """
        if not phrases:
            clock.lap("rank")
            return np.zeros(0)
        context = self._assembler.context_of(text)
        features, relevance = self._assembler.matrix_and_relevance(phrases, context)
        clock.lap("rank")
        if self.feature_observer is not None:
            self.feature_observer(features)
        scores = self._model.decision_function(features)
        if self.tie_break_with_relevance:
            scores = tie_break_by_relevance(scores, relevance)
        return scores

    def rank_phrases(
        self, phrases: Sequence[str], text: str
    ) -> List[Tuple[str, float]]:
        """(phrase, score) in decreasing score order."""
        scores = self.score_phrases(phrases, text)
        order = np.argsort(-scores, kind="stable")
        return [(phrases[int(i)], float(scores[int(i)])) for i in order]

    def rank_document(
        self, annotated: AnnotatedDocument, clock=NULL_CLOCK
    ) -> List[Detection]:
        """Rankable detections of *annotated*, best first.

        This is what replaces the concept-vector ordering in production:
        an application keeps the top N of this list.  When *annotated*
        carries the pipeline's shared token stream the relevance context
        reuses it; otherwise the text is re-analysed.  *clock* laps
        ``rank`` as in :meth:`score_phrases`.
        """
        rankable = annotated.rankable()
        # getattr: documents unpickled from pre-single-pass caches lack .tokens
        tokens = getattr(annotated, "tokens", None)
        source: DocumentLike = tokens if tokens is not None else annotated.text
        scores = self.score_phrases([d.phrase for d in rankable], source, clock)
        order = np.argsort(-scores, kind="stable")
        return [rankable[int(i)].with_score(float(scores[int(i)])) for i in order]

    def top_detections(
        self, annotated: AnnotatedDocument, count: int
    ) -> List[Detection]:
        """The top *count* detections (the production annotation budget)."""
        return self.rank_document(annotated)[:count]
