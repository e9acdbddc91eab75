"""Score explanations: exact per-feature decomposition of ranked scores.

The deployed ranking model is a linear RankSVM over standardized
features, so every decision score is an exact sum of per-feature terms
``w_j * (x_j - mean_j) / scale_j``.  :class:`ExplainableRanker` runs
the very same scoring path as :class:`~repro.ranking.model.ConceptRanker`
(same feature matrix, same decision function, same relevance
tie-break, same stable argsort) and additionally materializes one
:class:`RankExplanation` per ranked concept:

* a :class:`FeatureContribution` per model column — raw model-space
  value, standardized value, learned weight, and the additive
  contribution — with the Table I feature-group attribution
  (``query_logs`` / ``search_results`` / ``text_based`` / ``taxonomy``
  / ``other`` / ``relevance``);
* the relevance tie-break term (Section V-A.6), kept separate so
  ``decision_score + tie_break`` reproduces the detection's final
  score exactly;
* JSON serialization (``to_dict``) for traces and the ``/explain``
  endpoint of the telemetry server.

Exactness is part of the contract: the ranked order is identical to
the non-explaining path, and the contribution sum reproduces the
RankSVM decision score to float precision (tests enforce 1e-9).  The
RBF random-features kernel mixes every input into every component, so
explanation requests against an RBF model raise ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.detection.base import Detection
from repro.detection.pipeline import AnnotatedDocument
from repro.features.interestingness import FEATURE_GROUPS
from repro.obs.trace import NULL_CLOCK
from repro.ranking.baselines import tie_break_by_relevance
from repro.ranking.model import FeatureAssembler
from repro.ranking.ranksvm import RankSVM
from repro.text.tokenized import DocumentLike

__all__ = [
    "FeatureContribution",
    "RankExplanation",
    "ExplainableRanker",
    "feature_group_of",
]

_GROUP_BY_FEATURE: Dict[str, str] = {
    name: group for group, names in FEATURE_GROUPS.items() for name in names
}


def feature_group_of(name: str) -> str:
    """Table I group of one model column name.

    One-hot taxonomy columns are spelled ``type:<t>``; the appended
    relevance column is its own group (the paper treats contextual
    relevance as a separate signal from interestingness).
    """
    if name.startswith("type:"):
        return "taxonomy"
    if name == "relevance":
        return "relevance"
    return _GROUP_BY_FEATURE.get(name, "other")


@dataclass(frozen=True)
class FeatureContribution:
    """One model column's exact additive share of a decision score."""

    name: str
    group: str
    value: float  # model-space input (log1p'ed counts, one-hot, ...)
    standardized: float  # (value - train mean) / train scale
    weight: float  # learned RankSVM weight
    contribution: float  # standardized * weight

    def to_dict(self) -> Dict[str, float]:
        return {
            "name": self.name,
            "group": self.group,
            "value": self.value,
            "standardized": self.standardized,
            "weight": self.weight,
            "contribution": self.contribution,
        }


@dataclass
class RankExplanation:
    """Why one concept landed where it did in a ranked document.

    ``score`` is the detection's final score:
    ``decision_score + tie_break``, where ``decision_score`` is exactly
    the sum of ``contributions`` and ``tie_break`` is the epsilon-scaled
    relevance preference that only reorders ties.
    """

    phrase: str
    rank: int  # 0-based position in the ranked output
    score: float
    decision_score: float
    tie_break: float
    relevance: float  # raw (pre-log1p) relevance summation
    contributions: List[FeatureContribution]

    def contribution_sum(self) -> float:
        return float(sum(c.contribution for c in self.contributions))

    def group_contributions(self) -> Dict[str, float]:
        """Contribution totals folded to Table I feature groups."""
        totals: Dict[str, float] = {}
        for contribution in self.contributions:
            totals[contribution.group] = (
                totals.get(contribution.group, 0.0) + contribution.contribution
            )
        return totals

    def to_dict(self) -> Dict[str, object]:
        return {
            "phrase": self.phrase,
            "rank": self.rank,
            "score": self.score,
            "decision_score": self.decision_score,
            "tie_break": self.tie_break,
            "relevance": self.relevance,
            "groups": self.group_contributions(),
            "contributions": [c.to_dict() for c in self.contributions],
        }


class ExplainableRanker:
    """The ranking path with the decomposition attached.

    Scores are computed with the same operations (and therefore the
    same floats) as :class:`~repro.ranking.model.ConceptRanker`:
    context stems, one batched ``matrix_and_relevance`` lookup, the
    RankSVM decision function, the relevance tie-break, and a stable
    descending argsort.  ``explain=True`` can never reorder anything.
    """

    def __init__(
        self,
        assembler: FeatureAssembler,
        model: RankSVM,
        tie_break_with_relevance: bool = True,
    ):
        self._assembler = assembler
        self._model = model
        self.tie_break_with_relevance = tie_break_with_relevance
        self.feature_observer = None  # same tap as ConceptRanker's

    def explain_phrases(
        self, phrases: List[str], text: DocumentLike, clock=NULL_CLOCK
    ) -> Tuple[np.ndarray, List[RankExplanation]]:
        """(final scores, unordered explanations).

        Explanations come back in *phrases* order with ``rank=-1``;
        :meth:`explain_document` assigns ranks after sorting.  *clock*
        laps ``rank`` once the feature matrix is assembled, exactly as
        :meth:`ConceptRanker.score_phrases` does.
        """
        if not phrases:
            clock.lap("rank")
            return np.zeros(0), []
        context = self._assembler.context_of(text)
        features, relevance = self._assembler.matrix_and_relevance(
            phrases, context
        )
        clock.lap("rank")
        if self.feature_observer is not None:
            self.feature_observer(features)
        decision = self._model.decision_function(features)
        if self.tie_break_with_relevance:
            scores = tie_break_by_relevance(decision, relevance)
        else:
            scores = decision
        contributions = self._model.feature_contributions(features)
        names = self._assembler.feature_names()
        if len(names) != features.shape[1]:  # pragma: no cover - config bug
            raise ValueError(
                f"feature name count {len(names)} != matrix width "
                f"{features.shape[1]}"
            )
        groups = [feature_group_of(name) for name in names]
        weights = self._model.weights_
        standardized = self._model.standardize(features)
        explanations = [
            RankExplanation(
                phrase=phrases[row],
                rank=-1,
                score=float(scores[row]),
                decision_score=float(decision[row]),
                tie_break=float(scores[row] - decision[row]),
                relevance=float(relevance[row]),
                contributions=[
                    FeatureContribution(
                        name=names[column],
                        group=groups[column],
                        value=float(features[row, column]),
                        standardized=float(standardized[row, column]),
                        weight=float(weights[column]),
                        contribution=float(contributions[row, column]),
                    )
                    for column in range(features.shape[1])
                ],
            )
            for row in range(len(phrases))
        ]
        return scores, explanations

    def explain_document(
        self,
        annotated: AnnotatedDocument,
        top: Optional[int] = None,
        clock=NULL_CLOCK,
    ) -> Tuple[List[Detection], List[RankExplanation]]:
        """``rank_document`` plus one explanation per detection.

        The returned explanations align with the ranked detections
        (``explanations[i]`` explains ``ranked[i]``, ``rank == i``).
        """
        rankable = annotated.rankable()
        tokens = getattr(annotated, "tokens", None)
        source: DocumentLike = tokens if tokens is not None else annotated.text
        scores, explanations = self.explain_phrases(
            [d.phrase for d in rankable], source, clock
        )
        order = np.argsort(-scores, kind="stable")
        if top is not None:
            order = order[:top]
        ranked: List[Detection] = []
        ordered: List[RankExplanation] = []
        for rank, index in enumerate(order):
            index = int(index)
            ranked.append(rankable[index].with_score(float(scores[index])))
            explanation = explanations[index]
            explanation.rank = rank
            ordered.append(explanation)
        return ranked, ordered
