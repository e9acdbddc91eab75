"""Score explanations: exact per-feature decomposition of ranked scores.

The deployed ranking model is a linear RankSVM over standardized
features, so every decision score is an exact sum of per-feature terms
``w_j * (x_j - mean_j) / scale_j``.  :func:`explain_ranking`
decomposes the feature matrix, relevance and decision scores of the
ranker's one scoring pass (:meth:`ConceptRanker.scoring_pass
<repro.ranking.model.ConceptRanker.scoring_pass>`) into one
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
from typing import Dict, List, Sequence

from repro.features.interestingness import FEATURE_GROUPS
from repro.ranking.model import ConceptRanker, ScoringPass

__all__ = [
    "FeatureContribution",
    "RankExplanation",
    "explain_ranking",
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


def explain_ranking(
    ranker: ConceptRanker,
    scored: ScoringPass,
    order: Sequence[int],
    phrases: Sequence[str],
) -> List[RankExplanation]:
    """One explanation per ranked phrase of one scoring pass.

    *order* ranks the pass's rows (``order[i]`` is ranked *i*) and
    ``phrases[i]`` names rank *i*; there may be fewer phrases than rows
    (a top-N cut), and only those are explained.  The decomposition
    raises ``ValueError`` for a non-linear model whenever anything was
    ranked.
    """
    if not len(order):
        return []
    features = scored.features
    model = ranker.model
    contributions = model.feature_contributions(features)
    standardized = model.standardize(features)
    names = ranker.assembler.feature_names()
    if len(names) != features.shape[1]:  # pragma: no cover - config bug
        raise ValueError(
            f"feature name count {len(names)} != matrix width "
            f"{features.shape[1]}"
        )
    groups = [feature_group_of(name) for name in names]
    weights = model.weights_
    return [
        RankExplanation(
            phrase=phrase,
            rank=rank,
            score=float(scored.scores[row]),
            decision_score=float(scored.decision[row]),
            tie_break=float(scored.scores[row] - scored.decision[row]),
            relevance=float(scored.relevance[row]),
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
        for rank, (row, phrase) in enumerate(zip(order, phrases))
    ]

