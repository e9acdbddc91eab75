"""Feature space: interestingness (Table I) and contextual relevance."""

from repro.features.interestingness import (
    FEATURE_GROUPS,
    FEATURE_NAMES,
    InterestingnessExtractor,
    InterestingnessVector,
    numeric_feature_names,
)
from repro.features.quantize import (
    dequantize,
    dequantize_array,
    quantize,
    quantize_array,
)
from repro.features.selection import (
    SelectionResult,
    SelectionStep,
    backward_eliminate,
)
from repro.features.senses import (
    LsaSenseMiner,
    SenseAwareRelevanceScorer,
    SenseModel,
    kmeans,
)
from repro.features.relevance import (
    RESOURCE_PRISMA,
    RESOURCE_SNIPPETS,
    RESOURCE_SUGGESTIONS,
    RESOURCES,
    RelevanceModel,
    RelevanceScorer,
    RelevantKeywordMiner,
    stemmed_terms,
)

__all__ = [
    "FEATURE_GROUPS",
    "FEATURE_NAMES",
    "InterestingnessExtractor",
    "InterestingnessVector",
    "numeric_feature_names",
    "quantize",
    "dequantize",
    "quantize_array",
    "dequantize_array",
    "RESOURCE_PRISMA",
    "RESOURCE_SNIPPETS",
    "RESOURCE_SUGGESTIONS",
    "RESOURCES",
    "SelectionResult",
    "SelectionStep",
    "backward_eliminate",
    "LsaSenseMiner",
    "SenseAwareRelevanceScorer",
    "SenseModel",
    "kmeans",
    "RelevanceModel",
    "RelevanceScorer",
    "RelevantKeywordMiner",
    "stemmed_terms",
]
