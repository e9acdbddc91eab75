"""Entity detection: patterns, named entities, concepts, and the
concept-vector baseline scorer (the production Contextual Shortcuts)."""

from repro.detection.base import (
    KIND_CONCEPT,
    KIND_NAMED,
    KIND_PATTERN,
    Detection,
)
from repro.detection.concepts import ConceptDetector, detectable_concept_phrases
from repro.detection.conceptvector import ConceptVectorScorer
from repro.detection.named import NamedEntityDetector
from repro.detection.patterns import PatternDetector
from repro.detection.pipeline import (
    AnnotatedDocument,
    ShortcutsPipeline,
    deduplicate,
    resolve_collisions,
)

__all__ = [
    "KIND_CONCEPT",
    "KIND_NAMED",
    "KIND_PATTERN",
    "Detection",
    "ConceptDetector",
    "detectable_concept_phrases",
    "ConceptVectorScorer",
    "NamedEntityDetector",
    "PatternDetector",
    "AnnotatedDocument",
    "ShortcutsPipeline",
    "deduplicate",
    "resolve_collisions",
]
