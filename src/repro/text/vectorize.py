"""Term vectors and tf*idf machinery (Salton & Buckley weighting).

Implements the term-vector half of the paper's concept-vector generation
(Section II-B): tf*idf scores against a term dictionary holding
term-document frequencies over a large corpus, stop-word removal,
normalization into [0, 1], sub-threshold punishment, and pruning.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.text.stopwords import is_stopword
from repro.text.tokenizer import tokenize_lower


def term_frequencies(text: str, remove_stopwords: bool = True) -> Counter:
    """Count word occurrences in *text* (lower-cased, punctuation dropped)."""
    words = tokenize_lower(text)
    if remove_stopwords:
        words = [word for word in words if not is_stopword(word)]
    return Counter(words)


class DocumentFrequencyTable:
    """Term -> document-frequency dictionary over a reference corpus.

    The paper's term dictionary "contains the term-document frequencies
    (i.e. the number of documents of a large web corpus containing the
    dictionary term)".  idf uses the standard smoothed formulation.
    """

    def __init__(self, total_documents: int = 0):
        self._doc_freq: Counter = Counter()
        self.total_documents = int(total_documents)
        # idf memo tables; every mutation invalidates them (the values
        # depend on total_documents, so any add changes every entry).
        self._idf_cache: Dict[str, float] = {}
        self._raw_idf_cache: Dict[str, float] = {}

    def __len__(self) -> int:
        return len(self._doc_freq)

    def __contains__(self, term: str) -> bool:
        return term in self._doc_freq

    def terms(self) -> List[str]:
        """Every term seen, first-seen order."""
        return list(self._doc_freq)

    def document_frequency(self, term: str) -> int:
        """Number of corpus documents containing *term* (0 if unseen)."""
        return self._doc_freq.get(term, 0)

    def add_document(self, terms: Iterable[str]) -> None:
        """Register one document's distinct terms."""
        self._doc_freq.update(set(terms))
        self.total_documents += 1
        if self._idf_cache:
            self._idf_cache.clear()
        if self._raw_idf_cache:
            self._raw_idf_cache.clear()

    def idf(self, term: str) -> float:
        """Smoothed inverse document frequency; positive for any term.

        The +1 floor keeps every term's weight non-zero, which the term
        vector of the concept-vector baseline wants (common words are
        then handled by the punish/prune thresholds).  Memoized per
        term; the cache is dropped whenever a document is added.
        """
        cached = self._idf_cache.get(term)
        if cached is None:
            df = self._doc_freq.get(term, 0)
            cached = math.log((1.0 + self.total_documents) / (1.0 + df)) + 1.0
            self._idf_cache[term] = cached
        return cached

    def raw_idf(self, term: str) -> float:
        """Classic un-floored idf: log((1+N)/(1+df)).

        Terms occurring in nearly every document get ~0 weight — the
        behaviour the relevant-keyword miner needs so that ubiquitous
        background words cannot accumulate mass for junk concepts.
        Memoized like :meth:`idf`.
        """
        cached = self._raw_idf_cache.get(term)
        if cached is None:
            df = self._doc_freq.get(term, 0)
            cached = math.log((1.0 + self.total_documents) / (1.0 + df))
            self._raw_idf_cache[term] = cached
        return cached

    @classmethod
    def from_counts(
        cls, doc_freq: Mapping[str, int], total_documents: int
    ) -> "DocumentFrequencyTable":
        """Wrap precomputed document-frequency counts (offline builder)."""
        table = cls(total_documents)
        table._doc_freq = Counter(
            {term: int(count) for term, count in doc_freq.items() if count}
        )
        return table

    def tf_idf(self, counts: Mapping[str, int]) -> Dict[str, float]:
        """Raw (un-normalized) tf*idf scores for a term-count mapping."""
        cache = self._idf_cache
        try:
            # all-hits fast path: one comprehension, no per-term probes.
            # idf() memoizes, so after warm-up misses are the exception.
            return {term: count * cache[term] for term, count in counts.items()}
        except KeyError:
            pass
        idf = self.idf
        return {term: count * idf(term) for term, count in counts.items()}

    @classmethod
    def from_documents(cls, documents: Iterable[Iterable[str]]) -> "DocumentFrequencyTable":
        """Build a table from an iterable of token iterables."""
        table = cls()
        for terms in documents:
            table.add_document(terms)
        return table


class TermVector:
    """A sparse term -> weight vector with the paper's normalizations.

    Supports the three operations the concept-vector algorithm applies:
    normalization into [0, 1], punishing weights below a threshold, and
    pruning weights below a (lower) threshold.
    """

    def __init__(self, weights: Mapping[str, float] = ()):
        self.weights: Dict[str, float] = dict(weights)
        # Euclidean norm cache: vectors are treated as immutable after
        # construction (every shaping operation returns a new vector),
        # so the norm never needs recomputing once known.
        self._norm: float = -1.0

    @classmethod
    def _adopt(cls, weights: Dict[str, float]) -> "TermVector":
        """Wrap a freshly built dict without the defensive copy.

        Internal: the caller must hand over sole ownership of *weights*
        (the vector treats it as immutable from here on).
        """
        self = cls.__new__(cls)
        self.weights = weights
        self._norm = -1.0
        return self

    def __len__(self) -> int:
        return len(self.weights)

    def __contains__(self, term: str) -> bool:
        return term in self.weights

    def __getitem__(self, term: str) -> float:
        return self.weights[term]

    def get(self, term: str, default: float = 0.0) -> float:
        return self.weights.get(term, default)

    def items(self) -> Iterable[Tuple[str, float]]:
        return self.weights.items()

    def normalized(self) -> "TermVector":
        """Scale weights into [0, 1] by the maximum weight."""
        if not self.weights:
            return TermVector()
        peak = max(self.weights.values())
        if peak <= 0:
            return TermVector({term: 0.0 for term in self.weights})
        return TermVector(
            {term: weight / peak for term, weight in self.weights.items()}
        )

    def punished_below(self, threshold: float, factor: float = 0.5) -> "TermVector":
        """Multiply weights under *threshold* by *factor* (paper: "punished")."""
        if factor == 1.0 or not any(w < threshold for w in self.weights.values()):
            return self
        return TermVector(
            {
                term: weight * factor if weight < threshold else weight
                for term, weight in self.weights.items()
            }
        )

    def pruned_below(self, threshold: float) -> "TermVector":
        """Drop entries whose weight is below *threshold*."""
        if not any(w < threshold for w in self.weights.values()):
            return self
        return TermVector(
            {
                term: weight
                for term, weight in self.weights.items()
                if weight >= threshold
            }
        )

    def shaped(
        self,
        punish_threshold: float,
        punish_factor: float,
        prune_threshold: float,
        normalize: bool = True,
    ) -> "TermVector":
        """``normalized()`` (optional) → ``punished_below`` →
        ``pruned_below`` fused into one pass.

        Applies the exact per-entry float operations of the chained
        methods in the same order (divide, conditionally multiply,
        filter), so the result is float-identical — it just skips the
        intermediate dict builds and the two ``any()`` pre-scans.
        """
        weights = self.weights
        if not weights:
            return TermVector()
        out: Dict[str, float] = {}
        if normalize:
            peak = max(weights.values())
            if peak <= 0:
                # normalized() pins every weight to literal 0.0 here
                value = 0.0 * punish_factor if 0.0 < punish_threshold else 0.0
                if value >= prune_threshold:
                    for term in weights:
                        out[term] = value
                return TermVector._adopt(out)
            for term, weight in weights.items():
                value = weight / peak
                if value < punish_threshold:
                    value *= punish_factor
                if value >= prune_threshold:
                    out[term] = value
            return TermVector._adopt(out)
        for term, value in weights.items():
            if value < punish_threshold:
                value *= punish_factor
            if value >= prune_threshold:
                out[term] = value
        return TermVector._adopt(out)

    def top(self, count: int) -> List[Tuple[str, float]]:
        """Highest-weighted *count* entries, ties broken alphabetically."""
        return sorted(self.weights.items(), key=lambda item: (-item[1], item[0]))[
            :count
        ]

    def norm(self) -> float:
        """Euclidean norm, computed once and cached."""
        # .get: instances unpickled from pre-cache payloads lack _norm
        norm = self.__dict__.get("_norm", -1.0)
        if norm < 0.0:
            norm = math.sqrt(sum(w * w for w in self.weights.values()))
            self._norm = norm
        return norm

    def cosine_similarity(self, other: "TermVector") -> float:
        """Cosine similarity between two sparse vectors."""
        if not self.weights or not other.weights:
            return 0.0
        smaller, larger = (
            (self.weights, other.weights)
            if len(self.weights) <= len(other.weights)
            else (other.weights, self.weights)
        )
        dot = sum(
            weight * larger[term]
            for term, weight in smaller.items()
            if term in larger
        )
        norm_self = self.norm()
        norm_other = other.norm()
        if norm_self == 0 or norm_other == 0:
            return 0.0
        return dot / (norm_self * norm_other)
