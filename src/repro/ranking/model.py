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

    *extractor* supplies Table I interestingness vectors: the quantized
    store gathers precomputed rows, a live extractor extracts each
    phrase (both answer ``numeric_rows``).  *relevance_scorer* supplies
    the contextual relevance feature and may be None for an
    interestingness-only model.  *exclude_groups* removes feature
    groups for the Table III ablations.  The assembler keeps no state
    of its own, so one instance serves concurrent requests.

    Candidates are given by each source's rows, what its ``rows_of``
    returns for their phrases and its batch call reads: row numbers for
    the serving stores, the phrases themselves for a live source.  The
    runtime service maps its scan's terminals to store rows once, so
    per document it looks no phrase up; phrase callers go through
    :meth:`rows_of`.
    """

    extractor: InterestingnessExtractor
    relevance_scorer: Optional[RelevanceScorer] = None
    exclude_groups: Tuple[str, ...] = ()

    def vector(self, phrase: str, context: Optional[Set[str]] = None) -> np.ndarray:
        """The feature vector for *phrase* in *context*."""
        base = self.extractor.extract(phrase).numeric(self.exclude_groups)
        if self.relevance_scorer is None:
            return base
        if context is None:
            raise ValueError("relevance-enabled assembler requires a context")
        relevance = self.relevance_scorer.score(phrase, context)
        return np.concatenate([base, [np.log1p(relevance)]])

    def rows_of(self, phrases: Sequence[str]) -> Tuple[Sequence, Optional[Sequence]]:
        """``(rows, relevance_rows)`` of *phrases*: the extractor's rows
        and the relevance scorer's (None without one), for
        :meth:`matrix_and_relevance`."""
        relevance_rows = (
            self.relevance_scorer.rows_of(phrases)
            if self.relevance_scorer is not None
            else None
        )
        return self.extractor.rows_of(phrases), relevance_rows

    def matrix(
        self, phrases: Sequence[str], context: Optional[Set[str]] = None
    ) -> np.ndarray:
        """Feature matrix for many phrases sharing one context."""
        return self.matrix_and_relevance(*self.rows_of(phrases), context)[0]

    def matrix_and_relevance(
        self,
        rows: Sequence,
        relevance_rows: Optional[Sequence],
        context: Optional[Set[str]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(feature matrix, raw relevance scores) of the candidates whose
        extractor rows are *rows* and relevance rows *relevance_rows*.

        The interestingness columns come from one ``numeric_rows`` call
        and the relevance column from one ``score_many`` call against
        the store (vectorized over the columnar arena); the raw scores
        are returned alongside the matrix so rankers can reuse them for
        tie-breaking without scoring twice.
        """
        base = self.extractor.numeric_rows(rows, self.exclude_groups)
        if self.relevance_scorer is None:
            return base, np.zeros(len(rows))
        if context is None:
            raise ValueError("relevance-enabled assembler requires a context")
        relevance = np.asarray(
            self.relevance_scorer.score_many(relevance_rows, context), dtype=float
        )
        width = base.shape[1]
        features = np.empty((len(rows), width + 1))
        features[:, :width] = base
        features[:, width] = np.log1p(relevance)
        return features, relevance

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
        scorer = self.relevance_scorer
        if scorer is None or context is None:
            return np.zeros(len(phrases))
        return np.asarray(
            scorer.score_many(scorer.rows_of(phrases), context), dtype=float
        )


@dataclass(frozen=True)
class ScoringPass:
    """One scoring pass over a document's candidate phrases.

    ``scores`` are the ranking scores: the RankSVM ``decision`` plus,
    when the ranker breaks ties by relevance, the relevance tie-break.
    ``features`` is the assembled model matrix and ``relevance`` the raw
    relevance summations, so a caller can decompose a score without
    scoring again.
    """

    features: np.ndarray
    relevance: np.ndarray
    decision: np.ndarray
    scores: np.ndarray

    def order(self) -> List[int]:
        """The candidates' row numbers, best score first; ties keep
        candidate order."""
        return np.argsort(-self.scores, kind="stable").tolist()


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

    @property
    def assembler(self) -> FeatureAssembler:
        return self._assembler

    @property
    def model(self) -> RankSVM:
        return self._model

    def scoring_pass(
        self,
        rows: Sequence,
        relevance_rows: Optional[Sequence],
        text: DocumentLike,
        clock=NULL_CLOCK,
    ) -> ScoringPass:
        """Score the candidates of document *text* given by their
        feature rows (:meth:`FeatureAssembler.rows_of`).

        *clock* laps ``rank`` once the feature matrix is assembled, so
        a caller's running stage covers the context stems, the store
        lookups and the relevance summations, and ``rank`` covers model
        inference onward.
        """
        if not len(rows):
            clock.lap("rank")
            empty = np.zeros(0)
            return ScoringPass(np.zeros((0, 0)), empty, empty, empty)
        context = self._assembler.context_of(text)
        features, relevance = self._assembler.matrix_and_relevance(
            rows, relevance_rows, context
        )
        clock.lap("rank")
        if self.feature_observer is not None:
            self.feature_observer(features)
        decision = self._model.decision_function(features)
        scores = decision
        if self.tie_break_with_relevance:
            scores = tie_break_by_relevance(decision, relevance)
        return ScoringPass(features, relevance, decision, scores)

    def score_phrases(
        self, phrases: Sequence[str], text: DocumentLike, clock=NULL_CLOCK
    ) -> np.ndarray:
        """Model scores for candidate *phrases* of document *text*."""
        return self.scoring_pass(
            *self._assembler.rows_of(phrases), text, clock
        ).scores

    def rank_phrases(
        self, phrases: Sequence[str], text: str
    ) -> List[Tuple[str, float]]:
        """(phrase, score) in decreasing score order."""
        scored = self.scoring_pass(*self._assembler.rows_of(phrases), text)
        return [(phrases[i], float(scored.scores[i])) for i in scored.order()]

    def rank_document(
        self, annotated: AnnotatedDocument, clock=NULL_CLOCK
    ) -> List[Detection]:
        """Rankable detections of *annotated*, best first.

        This is what replaces the concept-vector ordering in production:
        an application keeps the top N of this list.  When *annotated*
        carries the pipeline's shared token stream the relevance context
        reuses it; otherwise the text is re-analysed.  *clock* laps
        ``rank`` as in :meth:`scoring_pass`.
        """
        rankable = annotated.rankable()
        source: DocumentLike = (
            annotated.tokens if annotated.tokens is not None else annotated.text
        )
        scored = self.scoring_pass(
            *self._assembler.rows_of([d.phrase for d in rankable]), source, clock
        )
        scores = scored.scores
        return [rankable[i].with_score(float(scores[i])) for i in scored.order()]

    def top_detections(
        self, annotated: AnnotatedDocument, count: int
    ) -> List[Detection]:
        """The top *count* detections (the production annotation budget)."""
        return self.rank_document(annotated)[:count]
