"""Unit mining from query logs (paper Section II-B; Parikh & Kapur).

Units are multi-term entities in the query log that refer to a single
concept.  They are "constructed from query logs in an iterative
statistical approach using the frequencies of the distinct queries":

1. iteration one — every single term appearing in queries is a unit;
2. later iterations — units that frequently co-occur adjacently in
   queries are combined into larger candidate units, validated by
   mutual information I(x, y) = log( p(x, y) / (p(x) p(y)) ).

We take p(x) to be the probability that a random query submission
contains x (contiguously, for multi-term x), with add-one smoothing so
unseen parts never divide by zero.  Candidates must clear both a raw
co-occurrence count and an MI threshold.  Final unit scores are
normalized into [0, 1] as the paper requires for the concept vector.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.querylog.log import Phrase, QueryLog


@dataclass(frozen=True)
class Unit:
    """A mined unit with its raw MI and normalized score."""

    terms: Phrase
    mutual_information: float
    score: float  # normalized into [0, 1]

    @property
    def phrase(self) -> str:
        return " ".join(self.terms)


class UnitLexicon:
    """The mined unit inventory, queryable by phrase."""

    def __init__(self, units: Sequence[Unit]):
        self._by_terms: Dict[Phrase, Unit] = {u.terms: u for u in units}
        self.max_length = max((len(u.terms) for u in units), default=0)

    def __len__(self) -> int:
        return len(self._by_terms)

    def __contains__(self, terms: Phrase) -> bool:
        return tuple(terms) in self._by_terms

    def get(self, terms: Phrase) -> Optional[Unit]:
        return self._by_terms.get(tuple(terms))

    def score(self, terms: Phrase) -> float:
        """Normalized unit score for *terms* (0.0 when not a unit)."""
        unit = self._by_terms.get(tuple(terms))
        return unit.score if unit else 0.0

    def units(self) -> List[Unit]:
        return list(self._by_terms.values())

    def multi_term_units(self) -> List[Unit]:
        return [u for u in self._by_terms.values() if len(u.terms) > 1]

    def segment(self, words: Sequence[str]) -> List[Phrase]:
        """Greedy longest-match segmentation of *words* into units.

        Words not covered by any unit become singleton segments; this is
        how queries are re-tokenized between mining iterations, and how
        the concept detector walks documents.
        """
        segments: List[Phrase] = []
        index = 0
        count = len(words)
        while index < count:
            matched = None
            for size in range(min(self.max_length, count - index), 1, -1):
                candidate = tuple(words[index : index + size])
                if candidate in self._by_terms:
                    matched = candidate
                    break
            if matched is None:
                matched = (words[index],)
            segments.append(matched)
            index += len(matched)
        return segments


class UnitMiner:
    """Iterative MI-based unit miner over a :class:`QueryLog`."""

    def __init__(
        self,
        min_pair_count: int = 5,
        mi_threshold: float = 1.0,
        max_unit_length: int = 3,
        min_term_count: int = 2,
    ):
        self.min_pair_count = min_pair_count
        self.mi_threshold = mi_threshold
        self.max_unit_length = max_unit_length
        self.min_term_count = min_term_count

    # -- probability helpers ------------------------------------------------

    @staticmethod
    def _containment_probability(log: QueryLog, terms: Phrase) -> float:
        contained = log.freq_phrase_contained(terms)
        return (contained + 1.0) / (log.total_submissions + 1.0)

    def mutual_information(self, log: QueryLog, left: Phrase, right: Phrase) -> float:
        """I(left, right) for the adjacent concatenation left+right."""
        joint = self._containment_probability(log, tuple(left) + tuple(right))
        p_left = self._containment_probability(log, tuple(left))
        p_right = self._containment_probability(log, tuple(right))
        return math.log(joint / (p_left * p_right))

    # -- mining ----------------------------------------------------------

    def mine(self, log: QueryLog) -> UnitLexicon:
        """Run the iterative mining and return the unit lexicon."""
        # submission-weighted count of queries containing each term
        term_counts: Counter = Counter()
        for query, freq in log.items():
            for term in set(query):
                term_counts[term] += freq

        singles: Dict[Phrase, float] = {
            (term,): 0.0
            for term, count in term_counts.items()
            if count >= self.min_term_count
        }

        accepted: Dict[Phrase, float] = dict(singles)
        current = UnitLexicon(
            [Unit(terms, mi, 0.0) for terms, mi in accepted.items()]
        )

        for __ in range(self.max_unit_length - 1):
            new_units = self._validated_pairs(log, current, accepted)
            if not new_units:
                break
            accepted.update(new_units)
            current = UnitLexicon(
                [Unit(terms, mi, 0.0) for terms, mi in accepted.items()]
            )

        return self._finalize(log, accepted, term_counts)

    def _validated_pairs(
        self, log: QueryLog, lexicon: UnitLexicon, accepted: Dict[Phrase, float]
    ) -> Dict[Phrase, float]:
        """One growth iteration: count adjacent (unit, unit) pairs across
        query submissions, validate the new candidates by MI."""
        pair_counts: Counter = Counter()
        for query, freq in log.items():
            segments = lexicon.segment(list(query))
            for left, right in zip(segments, segments[1:]):
                pair_counts[(left, right)] += freq
        new_units: Dict[Phrase, float] = {}
        for (left, right), count in pair_counts.items():
            combined = tuple(left) + tuple(right)
            if len(combined) > self.max_unit_length:
                continue
            if combined in accepted or count < self.min_pair_count:
                continue
            mi = self.mutual_information(log, left, right)
            if mi >= self.mi_threshold:
                new_units[combined] = mi
        return new_units

    def _finalize(
        self,
        log: QueryLog,
        accepted: Dict[Phrase, float],
        term_counts: Counter,
    ) -> UnitLexicon:
        """Assign normalized scores.

        Multi-term units blend *normalized* PMI (MI divided by the
        joint self-information, so association strength is in [0, 1]
        and independent of raw popularity) with normalized log query
        volume: association makes a phrase a unit, but its weight in
        the concept vector also reflects how often users actually ask
        for it (production unit dictionaries come from popularity-
        ranked query logs).  Single-term units are scored by
        log-frequency alone and damped: a bare frequent word is a much
        weaker concept signal than a validated unit.
        """
        max_log_count = max(
            (math.log(1 + term_counts[t[0]]) for t in accepted if len(t) == 1),
            default=1.0,
        )
        max_log_contained = max(
            (
                math.log(1 + log.freq_phrase_contained(terms))
                for terms in accepted
                if len(terms) > 1
            ),
            default=1.0,
        )
        units: List[Unit] = []
        for terms, mi in accepted.items():
            if len(terms) > 1:
                joint_information = -math.log(
                    self._containment_probability(log, terms)
                )
                association = (
                    mi / joint_information if joint_information > 0 else 0.0
                )
                association = min(1.0, max(0.0, association))
                volume = (
                    math.log(1 + log.freq_phrase_contained(terms))
                    / max_log_contained
                ) ** 2  # squared: spread the popularity signal out
                score = 0.3 * association + 0.7 * min(1.0, volume)
            else:
                raw = math.log(1 + term_counts[terms[0]]) / max_log_count
                score = 0.5 * min(1.0, raw)
            units.append(Unit(terms=terms, mutual_information=mi, score=score))
        return UnitLexicon(units)
