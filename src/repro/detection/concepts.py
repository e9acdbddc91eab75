"""Concept detection from query-log units.

"Concepts are detected using data from search engine query logs, thus
allowing the system to detect things of interest that go beyond
editorially reviewed terms" (Section II-A).  Following Section III, the
detectable inventory is "a large, but finite set of entities, namely
the set of named entities in our dictionaries plus a large subset of
all the concepts available to us from query logs": a concept phrase is
detectable when the unit miner validated it (multi-term) or when its
single term clears a query-frequency floor.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set, Tuple

from repro.detection.base import KIND_CONCEPT, Detection, PhraseDetector
from repro.querylog.log import QueryLog
from repro.querylog.units import UnitLexicon
from repro.text.tokenized import TokenizedDocument

Phrase = Tuple[str, ...]


def detectable_concept_phrases(
    candidate_phrases: Iterable[Phrase],
    lexicon: UnitLexicon,
    query_log: QueryLog,
    min_single_term_frequency: int = 5,
) -> Set[Phrase]:
    """Filter the candidate inventory to query-log-supported phrases."""
    detectable: Set[Phrase] = set()
    for phrase in candidate_phrases:
        phrase = tuple(phrase)
        if len(phrase) > 1:
            if phrase in lexicon:
                detectable.add(phrase)
        elif query_log.freq_phrase_contained(phrase) >= min_single_term_frequency:
            detectable.add(phrase)
    return detectable


class ConceptDetector(PhraseDetector):
    """Detects occurrences of the detectable concept inventory."""

    def __init__(self, phrases: Iterable[Phrase], lexicon: UnitLexicon):
        self._phrases = {tuple(p) for p in phrases}
        self._lexicon = lexicon
        super().__init__(self._phrases)

    @property
    def inventory_size(self) -> int:
        return len(self._phrases)

    @property
    def lexicon(self) -> UnitLexicon:
        """The unit lexicon backing `unit_score` (kernel compilation)."""
        return self._lexicon

    def detect(self, text: str) -> List[Detection]:
        """All concept occurrences in *text*."""
        return [
            Detection.make(text[start:end], start, end, KIND_CONCEPT, None, phrase)
            for phrase, start, end in self.matches(TokenizedDocument.of(text))
        ]

    def unit_score(self, phrase: Sequence[str]) -> float:
        """The mined unit score for *phrase* (0.0 if not a unit)."""
        return self._lexicon.score(tuple(phrase))
