"""Named-entity detection from editorial dictionaries.

"Named entities are detected with the help of editorially reviewed
dictionaries ... It is possible that a named entity can be a member of
multiple types, such as the term jaguar, in which case the entity is
disambiguated" (Section II-A).  Disambiguation here is contextual: the
type whose other dictionary entities also occur in the document wins;
failing that, the dictionary's primary type is used.

All dictionary lookups are hoisted to construction time: the detector
compiles one record per phrase (ambiguity, context type, candidate
types in preference order) so the per-document passes are pure record
reads — no `lookup`/`is_ambiguous` calls on the hot path.  The pipeline
maps each terminal of its detector scan to its record once, and
:func:`entity_types` disambiguates a document's matches from their
records alone.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.corpus.dictionaries import EditorialDictionary
from repro.detection.base import KIND_NAMED, Detection, PhraseDetector
from repro.text.tokenized import TokenizedDocument


class NamedRecord(NamedTuple):
    """Construction-time-compiled dictionary facts for one phrase key."""

    context_type: Optional[str]  # counted as context when unambiguous
    resolved_type: Optional[str]  # the type, when no disambiguation needed
    candidates: Tuple[Tuple[str, int], ...]  # (type, -first_index) prefs


def entity_types(records: Sequence[NamedRecord]) -> List[str]:
    """The type of each of a document's named matches, from the records
    of all its matches in document order.

    The unambiguous matches' types are the context; an ambiguous match
    takes the type most supported by that context, dictionary order
    breaking ties (the key the seed's ``max(types, ...)`` computed per
    document).
    """
    types = [record.resolved_type for record in records]
    if None not in types:  # nothing to disambiguate
        return types
    context_types = Counter(
        record.context_type for record in records if record.context_type is not None
    )
    return [
        record.resolved_type
        if record.resolved_type is not None
        else max(
            record.candidates,
            key=lambda pair: (context_types.get(pair[0], 0), pair[1]),
        )[0]
        for record in records
    ]


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
        self._records: Dict[str, NamedRecord] = {}
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
            self._records[key] = NamedRecord(
                context_type=context_type or None,
                resolved_type=resolved,
                candidates=candidates,
            )

    def record(self, phrase: str) -> Optional[NamedRecord]:
        """The record of a dictionary phrase (its words joined by single
        spaces), None for any other phrase."""
        return self._records.get(phrase)

    def detect(self, text: str) -> List[Detection]:
        """All dictionary entities in *text* with resolved types."""
        matches = self.matches(TokenizedDocument.of(text))
        types = entity_types([self._records[" ".join(m[0])] for m in matches])
        return [
            Detection.make(text[start:end], start, end, KIND_NAMED, entity_type, phrase)
            for (phrase, start, end), entity_type in zip(matches, types)
        ]
