"""The interestingness feature space (paper Table I).

Nine features per concept, grouped exactly as the paper's ablation
rows (Table III):

====  ======================  ==============
 #    feature                 group
====  ======================  ==============
 1    freq_exact              query_logs
 2    freq_phrase_contained   query_logs
 3    unit_score              query_logs
 4    searchengine_phrase     search_results
 5    concept_size            text_based
 6    number_of_chars         text_based
 7    subconcepts             text_based
 8    high_level_type         taxonomy
 9    wiki_word_count         other
====  ======================  ==============

All features are computed offline per concept (Section III); the
runtime framework stores them quantized (Section VI).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.corpus.dictionaries import EditorialDictionary
from repro.corpus.concepts import TAXONOMY_TYPES
from repro.corpus.wikipedia import WikipediaStore
from repro.querylog.log import QueryLog
from repro.querylog.units import UnitLexicon
from repro.search.engine import SearchEngine

FEATURE_GROUPS: Dict[str, Tuple[str, ...]] = {
    "query_logs": ("freq_exact", "freq_phrase_contained", "unit_score"),
    "search_results": ("searchengine_phrase",),
    "text_based": ("concept_size", "number_of_chars", "subconcepts"),
    "taxonomy": ("high_level_type",),
    "other": ("wiki_word_count",),
}

FEATURE_NAMES: Tuple[str, ...] = tuple(
    name for group in FEATURE_GROUPS.values() for name in group
)

# unit-score floor for counting subconcepts (paper: "larger than 0.25")
_SUBCONCEPT_UNIT_FLOOR = 0.25


@dataclass(frozen=True)
class InterestingnessVector:
    """The raw 9-field feature vector of one concept."""

    phrase: str
    freq_exact: int
    freq_phrase_contained: int
    unit_score: float
    searchengine_phrase: int
    concept_size: int
    number_of_chars: int
    subconcepts: int
    high_level_type: Optional[str]
    wiki_word_count: int

    def value(self, name: str):
        return getattr(self, name)

    def numeric(
        self, exclude_groups: Sequence[str] = ()
    ) -> "np.ndarray":
        """Model-ready numeric encoding.

        Count features are log1p-compressed (their raw scales span
        orders of magnitude); the taxonomy type is one-hot encoded over
        the fixed type inventory (plus a "none" slot).  *exclude_groups*
        zeroes nothing — excluded features are simply omitted, which is
        how the leave-one-group-out ablation works.
        """
        excluded = set()
        for group in exclude_groups:
            excluded.update(FEATURE_GROUPS[group])
        values: List[float] = []
        if "freq_exact" not in excluded:
            values.append(math.log1p(self.freq_exact))
        if "freq_phrase_contained" not in excluded:
            values.append(math.log1p(self.freq_phrase_contained))
        if "unit_score" not in excluded:
            values.append(self.unit_score)
        if "searchengine_phrase" not in excluded:
            values.append(math.log1p(self.searchengine_phrase))
        if "concept_size" not in excluded:
            values.append(float(self.concept_size))
        if "number_of_chars" not in excluded:
            values.append(float(self.number_of_chars))
        if "subconcepts" not in excluded:
            values.append(float(self.subconcepts))
        if "high_level_type" not in excluded:
            one_hot = [0.0] * (len(TAXONOMY_TYPES) + 1)
            if self.high_level_type is None:
                one_hot[0] = 1.0
            else:
                one_hot[1 + TAXONOMY_TYPES.index(self.high_level_type)] = 1.0
            values.extend(one_hot)
        if "wiki_word_count" not in excluded:
            values.append(math.log1p(self.wiki_word_count))
        return np.asarray(values, dtype=float)


def numeric_feature_names(exclude_groups: Sequence[str] = ()) -> List[str]:
    """Column names matching :meth:`InterestingnessVector.numeric`."""
    excluded = set()
    for group in exclude_groups:
        excluded.update(FEATURE_GROUPS[group])
    names: List[str] = []
    for name in FEATURE_NAMES:
        if name in excluded:
            continue
        if name == "high_level_type":
            names.append("type:none")
            names.extend(f"type:{t}" for t in TAXONOMY_TYPES)
        else:
            names.append(name)
    return names


def numeric_columns(exclude_groups: Sequence[str]) -> List[int]:
    """The columns of ``numeric(())`` that ``numeric(exclude_groups)`` keeps."""
    kept = set(numeric_feature_names(exclude_groups))
    return [i for i, name in enumerate(numeric_feature_names()) if name in kept]


_LOG_FEATURES = frozenset(
    ("freq_exact", "freq_phrase_contained", "searchengine_phrase", "wiki_word_count")
)


def numeric_matrix(columns: Dict[str, np.ndarray]) -> np.ndarray:
    """:meth:`InterestingnessVector.numeric` of many vectors at once.

    *columns* holds one array per Table I feature: integer features as
    whole-valued floats and ``high_level_type`` as a type index (0 for
    none, else 1 + its ``TAXONOMY_TYPES`` index).  Row *i* is
    bit-identical to ``numeric(())`` of the vector made of every
    column's *i*-th value: counts go through ``math.log1p`` as there,
    not ``np.log1p``, whose SIMD loops may differ in the last bit.
    """
    parts = []
    for name in FEATURE_NAMES:
        column = columns[name]
        if name == "high_level_type":
            parts.append(np.eye(len(TAXONOMY_TYPES) + 1)[column])
        elif name in _LOG_FEATURES:
            logs = np.fromiter(
                map(math.log1p, column.tolist()), dtype=float, count=len(column)
            )
            parts.append(logs[:, None])
        else:
            parts.append(column.astype(float)[:, None])
    return np.hstack(parts)


class InterestingnessExtractor:
    """Computes Table I feature vectors from the substrate services."""

    def __init__(
        self,
        query_log: QueryLog,
        lexicon: UnitLexicon,
        engine: SearchEngine,
        dictionary: EditorialDictionary,
        wikipedia: WikipediaStore,
    ):
        self._log = query_log
        self._lexicon = lexicon
        self._engine = engine
        self._dictionary = dictionary
        self._wikipedia = wikipedia

    def extract(self, phrase: str) -> InterestingnessVector:
        """The full feature vector for *phrase*."""
        terms = tuple(phrase.lower().split())
        return InterestingnessVector(
            phrase=phrase.lower(),
            freq_exact=self._log.freq_exact(terms),
            freq_phrase_contained=self._log.freq_phrase_contained(terms),
            unit_score=self._lexicon.score(terms),
            searchengine_phrase=self._engine.phrase_result_count(phrase),
            concept_size=len(terms),
            number_of_chars=len(phrase),
            subconcepts=self._count_subconcepts(terms),
            high_level_type=self._dictionary.high_level_type(phrase),
            wiki_word_count=self._wikipedia.word_count(phrase),
        )

    def extract_many(self, phrases: Sequence[str]) -> List[InterestingnessVector]:
        return [self.extract(phrase) for phrase in phrases]

    def rows_of(self, phrases: Sequence[str]) -> List[str]:
        """The rows :meth:`numeric_rows` reads: the phrases themselves,
        since a live extractor computes any phrase (a store looks its
        rows up instead)."""
        return list(phrases)

    def numeric_rows(
        self, phrases: Sequence[str], exclude_groups: Sequence[str] = ()
    ) -> np.ndarray:
        """One ``numeric(exclude_groups)`` row per phrase, extracted live.

        The call the ranker's feature assembler makes; the quantized
        store answers it by gathering precomputed rows.
        """
        return np.vstack(
            [self.extract(phrase).numeric(exclude_groups) for phrase in phrases]
        )

    def _count_subconcepts(self, terms: Tuple[str, ...]) -> int:
        """Proper contiguous sub-phrases (>= 2 terms) that are strong units."""
        count = 0
        for size in range(2, len(terms)):
            for start in range(len(terms) - size + 1):
                sub = terms[start : start + size]
                if self._lexicon.score(sub) > _SUBCONCEPT_UNIT_FLOOR:
                    count += 1
        return count
