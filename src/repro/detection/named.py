"""Named-entity detection from editorial dictionaries.

"Named entities are detected with the help of editorially reviewed
dictionaries ... It is possible that a named entity can be a member of
multiple types, such as the term jaguar, in which case the entity is
disambiguated" (Section II-A).  Disambiguation here is contextual: the
type whose other dictionary entities also occur in the document wins;
failing that, the dictionary's primary type is used.

All dictionary lookups are hoisted to construction time: the detector
compiles one record per phrase (ambiguity, context type, candidate
types in preference order) so the per-document passes are pure dict
probes — no `lookup`/`is_ambiguous` calls on the hot path.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.corpus.dictionaries import EditorialDictionary
from repro.detection.base import (
    KIND_NAMED,
    Detection,
    PhraseDetector,
    PhraseMatch,
)
from repro.text.tokenized import TokenizedDocument


class _PhraseRecord(NamedTuple):
    """Construction-time-compiled dictionary facts for one phrase key."""

    context_type: Optional[str]  # counted as context when unambiguous
    resolved_type: Optional[str]  # the type, when no disambiguation needed
    candidates: Tuple[Tuple[str, int], ...]  # (type, -first_index) prefs


class NamedEntityDetector(PhraseDetector):
    """Dictionary-driven detector with type disambiguation."""

    def __init__(self, dictionary: EditorialDictionary):
        self._dictionary = dictionary
        super().__init__(
            tuple(phrase.split()) for phrase in dictionary.phrases()
        )
        # Hoist every per-match dictionary call the detect loop used to
        # make (`is_ambiguous`, `high_level_type`, `lookup`, and the
        # `types.index` preference order) into one record per phrase.
        self._records: Dict[str, _PhraseRecord] = {}
        for key in dictionary.phrases():
            types = [
                entry.high_level_type for entry in dictionary.lookup(key)
            ]
            ambiguous = dictionary.is_ambiguous(key)
            context_type = (
                dictionary.high_level_type(key) if not ambiguous else None
            )
            if len(set(types)) <= 1:
                resolved: Optional[str] = types[0]
                candidates: Tuple[Tuple[str, int], ...] = ()
            else:
                resolved = None
                firsts: Dict[str, int] = {}
                for index, entity_type in enumerate(types):
                    firsts.setdefault(entity_type, index)
                candidates = tuple(
                    (entity_type, -index) for entity_type, index in firsts.items()
                )
            self._records[key] = _PhraseRecord(
                context_type=context_type or None,
                resolved_type=resolved,
                candidates=candidates,
            )

    def detect(self, text: str) -> List[Detection]:
        """All dictionary entities in *text* with resolved types."""
        document = TokenizedDocument.of(text)
        return self.detect_document(document, self.matches(document))

    def detect_document(
        self, document: TokenizedDocument, matches: Sequence[PhraseMatch]
    ) -> List[Detection]:
        """The detections of *matches*, this detector's scan of *document*."""
        text = document.text
        if not matches:
            return []
        records = self._records
        # first pass: count unambiguous types in the document as context
        context_types: Counter = Counter()
        for phrase, __, __end in matches:
            context_type = records[" ".join(phrase)].context_type
            if context_type is not None:
                context_types[context_type] += 1

        detections: List[Detection] = []
        for phrase, start, end in matches:
            record = records[" ".join(phrase)]
            if record.resolved_type is not None:
                entity_type = record.resolved_type
            else:
                # ambiguous: prefer the type most supported by context,
                # dictionary order breaking ties (same key the seed's
                # `max(types, ...)` computed per document)
                entity_type = max(
                    record.candidates,
                    key=lambda pair: (context_types.get(pair[0], 0), pair[1]),
                )[0]
            detections.append(
                Detection.make(
                    text[start:end], start, end, KIND_NAMED, entity_type, phrase
                )
            )
        return detections
