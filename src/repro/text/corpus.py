"""A document collection tokenized once, as interned id arrays.

The search engine, the relevant-keyword miners, the stemmed
document-frequency table and the detection kernel's vocabulary all read
one :class:`TokenizedCorpus`.  It runs :func:`tokenize_lower` exactly
once per document, interns the tokens into a vocabulary of integer ids,
and keeps each document as an ``int32`` id array; everything else is
derived from those arrays:

* the CSR :class:`~repro.search.frozen.FrozenInvertedIndex` behind
  :class:`~repro.search.engine.SearchEngine` (one stable sort of the
  flat token stream);
* the stemmed df table (per-document ``np.unique`` over stem ids);
* per-vocabulary stem ids, stopword mask and alphabetical rank tables
  that let the miners count and rank without touching strings.

Token strings are recovered only where a consumer needs them, by
mapping ids through :attr:`TokenizedCorpus.terms`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.text.stemmer import stem
from repro.text.stopwords import is_stopword
from repro.text.tokenizer import tokenize_lower
from repro.text.vectorize import DocumentFrequencyTable


def normalize_documents(documents: Iterable) -> List[Tuple[int, str]]:
    """Accept (doc_id, text) pairs or objects with doc_id/text attrs."""
    normalized: List[Tuple[int, str]] = []
    for document in documents:
        if isinstance(document, tuple):
            doc_id, text = document
        else:
            doc_id, text = document.doc_id, document.text
        normalized.append((int(doc_id), text))
    return normalized


class TokenizedCorpus:
    """Interned token streams plus lazily derived lookup tables."""

    def __init__(self, documents: Iterable):
        self.doc_ids: List[int] = []
        self.id_arrays: List[np.ndarray] = []
        self.vocabulary: Dict[str, int] = {}
        self.terms: List[str] = []
        vocabulary = self.vocabulary
        terms = self.terms
        for doc_id, text in normalize_documents(documents):
            tokens = tokenize_lower(text)
            for token in tokens:
                if token not in vocabulary:
                    vocabulary[token] = len(terms)
                    terms.append(token)
            ids = np.fromiter(
                map(vocabulary.__getitem__, tokens),
                dtype=np.int32,
                count=len(tokens),
            )
            self.doc_ids.append(doc_id)
            self.id_arrays.append(ids)
        self._doc_rows: Dict[int, int] = {
            doc_id: row for row, doc_id in enumerate(self.doc_ids)
        }
        if len(self._doc_rows) != len(self.doc_ids):
            raise ValueError("duplicate doc_id in corpus")
        self._stop_mask: Optional[np.ndarray] = None
        self._stem_ids: Optional[np.ndarray] = None
        self._stem_terms: Optional[List[str]] = None
        self._stem_index: Optional[Dict[str, int]] = None
        self._term_alpha_rank: Optional[np.ndarray] = None
        self._stem_alpha_rank: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.doc_ids)

    def doc_row(self, doc_id: int) -> int:
        return self._doc_rows[doc_id]

    # -- vocabulary-level tables (lazy) ----------------------------------

    @property
    def stop_mask(self) -> np.ndarray:
        """bool[V]: is the vocabulary term a stopword."""
        if self._stop_mask is None:
            self._stop_mask = np.fromiter(
                (is_stopword(term) for term in self.terms),
                dtype=bool,
                count=len(self.terms),
            )
        return self._stop_mask

    def _build_stems(self) -> None:
        stem_index: Dict[str, int] = {}
        stem_terms: List[str] = []
        stem_ids = np.empty(len(self.terms), dtype=np.int64)
        for vid, term in enumerate(self.terms):
            stemmed = stem(term)
            sid = stem_index.get(stemmed)
            if sid is None:
                sid = len(stem_terms)
                stem_index[stemmed] = sid
                stem_terms.append(stemmed)
            stem_ids[vid] = sid
        self._stem_ids = stem_ids
        self._stem_terms = stem_terms
        self._stem_index = stem_index

    @property
    def stem_ids(self) -> np.ndarray:
        """int64[V]: stem id of each vocabulary term."""
        if self._stem_ids is None:
            self._build_stems()
        return self._stem_ids

    @property
    def stem_terms(self) -> List[str]:
        """Stem id -> stem string."""
        if self._stem_terms is None:
            self._build_stems()
        return self._stem_terms

    @property
    def stem_index(self) -> Dict[str, int]:
        """Stem string -> stem id."""
        if self._stem_index is None:
            self._build_stems()
        return self._stem_index

    @staticmethod
    def _alpha_rank(values: Sequence[str]) -> np.ndarray:
        """rank[i] = position of values[i] in ascending lexicographic order.

        Used as the secondary ``np.lexsort`` key so vectorized top-k
        selection reproduces the seed's ``(-score, term)`` tie-break.
        """
        order = sorted(range(len(values)), key=values.__getitem__)
        rank = np.empty(len(values), dtype=np.int64)
        rank[order] = np.arange(len(values), dtype=np.int64)
        return rank

    @property
    def term_alpha_rank(self) -> np.ndarray:
        if self._term_alpha_rank is None:
            self._term_alpha_rank = self._alpha_rank(self.terms)
        return self._term_alpha_rank

    @property
    def stem_alpha_rank(self) -> np.ndarray:
        if self._stem_alpha_rank is None:
            self._stem_alpha_rank = self._alpha_rank(self.stem_terms)
        return self._stem_alpha_rank

    # -- derived artifacts ----------------------------------------------

    def stemmed_df(self) -> DocumentFrequencyTable:
        """Stemmed document-frequency table, one unique-pass per doc.

        Relevant keywords are stored stemmed, so their idf is computed in
        stemmed space too.  Stopwords are dropped *before* stemming, and
        each document contributes its distinct stems once.
        """
        stop = self.stop_mask
        stem_ids = self.stem_ids
        counts = np.zeros(len(self.stem_terms), dtype=np.int64)
        for ids in self.id_arrays:
            content = ids[~stop[ids]]
            if content.size:
                counts[np.unique(stem_ids[content])] += 1
        stem_terms = self.stem_terms
        doc_freq = {
            stem_terms[sid]: int(count)
            for sid, count in enumerate(counts.tolist())
            if count
        }
        return DocumentFrequencyTable.from_counts(doc_freq, len(self.doc_ids))

    def raw_idf_vector(self, table: DocumentFrequencyTable) -> np.ndarray:
        """float64[S]: ``table.raw_idf`` evaluated once per stem."""
        return np.fromiter(
            (table.raw_idf(term) for term in self.stem_terms),
            dtype=np.float64,
            count=len(self.stem_terms),
        )
