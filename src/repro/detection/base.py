"""Shared detection data model.

The Contextual Shortcuts platform distinguishes three entity kinds
(paper Section II-A): pattern-based entities, named entities, and
concepts.  A :class:`Detection` records the surface span, the kind, the
taxonomy/pattern type, and later the concept-vector score assigned by
the baseline ranker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.detection.kernel import FlatAutomaton, Phrase, phrase_inventory
from repro.text.tokenized import TokenizedDocument

KIND_PATTERN = "pattern"
KIND_NAMED = "named"
KIND_CONCEPT = "concept"

# collision priority: higher wins when spans overlap and lengths tie
_KIND_PRIORITY = {KIND_PATTERN: 3, KIND_NAMED: 2, KIND_CONCEPT: 1}


@dataclass(frozen=True)
class Detection:
    """One detected entity occurrence in a document."""

    text: str
    start: int
    end: int
    kind: str
    entity_type: Optional[str] = None
    terms: Tuple[str, ...] = field(default=())
    score: float = 0.0

    @classmethod
    def make(
        cls,
        text: str,
        start: int,
        end: int,
        kind: str,
        entity_type: Optional[str] = None,
        terms: Tuple[str, ...] = (),
        score: float = 0.0,
    ) -> "Detection":
        """Fast construction for per-match hot paths.

        The frozen-dataclass ``__init__`` pays one ``object.__setattr__``
        per field; installing the instance dict wholesale builds the
        same instance (``__eq__``/``__hash__`` read the fields, not the
        construction route) in a single dict literal.
        """
        self = object.__new__(cls)
        object.__setattr__(
            self,
            "__dict__",
            {
                "text": text,
                "start": start,
                "end": end,
                "kind": kind,
                "entity_type": entity_type,
                "terms": terms,
                "score": score,
            },
        )
        return self

    @property
    def phrase(self) -> str:
        """Normalized phrase key (lower-case surface text)."""
        return self.text.lower()

    @property
    def length(self) -> int:
        return self.end - self.start

    def overlaps(self, other: "Detection") -> bool:
        return self.start < other.end and other.start < self.end

    def with_score(self, score: float) -> "Detection":
        # direct construction: `dataclasses.replace` re-runs field
        # introspection per call, which is measurable at per-detection
        # frequency on the single-document hot path
        return Detection.make(
            self.text,
            self.start,
            self.end,
            self.kind,
            self.entity_type,
            self.terms,
            score,
        )

    def priority(self) -> Tuple[int, int]:
        """Collision priority: longer spans win, then kind priority."""
        # inline of `self.length`: priority() is a per-detection sort key
        return (self.end - self.start, _KIND_PRIORITY.get(self.kind, 0))


class PhraseDetector:
    """A fixed phrase inventory matched by one compiled automaton.

    The shared half of the concept and named-entity detectors.  In a
    pipeline, matching runs through the view of the pipeline's
    :class:`~repro.detection.kernel.DetectionKernel` that the pipeline
    attaches; a detector used on its own compiles an automaton for its
    inventory on first use.
    """

    def __init__(self, phrases: Iterable[Phrase]):
        self._inventory = phrase_inventory(phrases)
        self._automaton = None

    def inventory(self) -> List[Phrase]:
        """The lower-cased, deduplicated inventory (kernel compilation)."""
        return list(self._inventory)

    def attach_automaton(self, automaton) -> None:
        """Match through *automaton*: the kernel view the pipeline
        attaches after checking it against :meth:`inventory`."""
        self._automaton = automaton

    def find_phrases(
        self, document: TokenizedDocument
    ) -> List[Tuple[Phrase, int, int]]:
        """(phrase, char_start, char_end) matches in document order.

        Longest match wins at each position and the scan resumes past
        it, so matches never overlap (the production segmentation).
        """
        if self._automaton is None:
            self._automaton = FlatAutomaton.for_phrases(self._inventory)
        return self._automaton.find_phrases(document)
