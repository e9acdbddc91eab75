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

from repro.detection.kernel import (
    TAG_CONCEPTS,
    CombinedAutomaton,
    Phrase,
    PhraseMatch,
    TokenInterner,
    phrase_inventory,
)
from repro.text.tokenized import TokenizedDocument

KIND_PATTERN = "pattern"
KIND_NAMED = "named"
KIND_CONCEPT = "concept"

# collision priority: higher wins when spans overlap and lengths tie
KIND_PRIORITY = {KIND_PATTERN: 3, KIND_NAMED: 2, KIND_CONCEPT: 1}


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


class PhraseDetector:
    """A fixed phrase inventory, matched by a detection kernel's scan.

    The shared half of the concept and named-entity detectors.  In a
    pipeline, the pipeline's
    :class:`~repro.detection.kernel.DetectionKernel` scans each document
    once and hands every detector's matches on as terminal spans; a
    detector used on its own compiles a scan of its inventory alone, on
    first use.
    """

    def __init__(self, phrases: Iterable[Phrase]):
        self._inventory = phrase_inventory(phrases)
        self._scan: Optional[CombinedAutomaton] = None

    def inventory(self) -> List[Phrase]:
        """The lower-cased, deduplicated inventory (kernel compilation)."""
        return list(self._inventory)

    def matches(self, document: TokenizedDocument) -> List[PhraseMatch]:
        """(phrase, char_start, char_end) matches in document order.

        Longest match wins at each position and the scan resumes past
        it, so matches never overlap (the production segmentation).
        The scan is one :class:`~repro.detection.kernel.CombinedAutomaton`
        over an interner of the inventory's own tokens: no stem table,
        no second automaton.
        """
        scan = self._scan
        if scan is None:
            # published with one assignment: two threads making the
            # first call at once can at worst both compile it
            interner = TokenInterner(
                dict.fromkeys(term for phrase in self._inventory for term in phrase)
            )
            scan = self._scan = CombinedAutomaton.compile(
                interner, [(self._inventory, TAG_CONCEPTS)]
            )
        found = scan.scan(document.token_id_array(scan.base.interner))[0]
        phrases = scan.phrases
        return [
            (phrases[terminal], start, end)
            for start, end, terminal in scan.char_spans(found, document)
        ]
