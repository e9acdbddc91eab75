"""The search engine's inverted index: immutable CSR numpy columns.

Built once from a :class:`~repro.text.corpus.TokenizedCorpus`'s interned
token streams (:meth:`FrozenInvertedIndex.from_token_streams`):

* ``terms``               sorted term table (lexicographic);
* ``term_offsets``        int64[T+1] — postings of term slot ``t`` live in
                          ``posting_docs[term_offsets[t]:term_offsets[t+1]]``;
* ``posting_docs``        uint32[P] — document *row* of each posting
                          (rows follow corpus order; ``doc_ids[row]``
                          maps back to the external id);
* ``position_offsets``    int64[P+1] — positions of posting ``p`` live in
                          ``positions[position_offsets[p]:position_offsets[p+1]]``;
* ``positions``           uint32[Q] — token offsets, ascending per posting.

Postings within a term are ordered by ascending document row and the
position runs of one term are contiguous, so phrase intersection and
BM25 scoring both reduce to flat array arithmetic.  Phrase matching
encodes every occurrence of term *i* as the stride key
``doc_row * stride + (position - i)`` — an occurrence of the full
phrase starting at ``s`` in document ``d`` appears as the key
``d * stride + s`` in *every* term's key set, so the match set is a
chain of ``np.intersect1d`` calls and per-document counts fall out of
``np.unique``.  ``tests/reference.py`` counts the same occurrences by
scanning token lists; the tests hold the two equal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_registry

_EMPTY_I64 = np.zeros(0, dtype=np.int64)


class FrozenInvertedIndex:
    """Read-only CSR positional index over a tokenized corpus."""

    __slots__ = (
        "terms",
        "term_offsets",
        "posting_docs",
        "position_offsets",
        "positions",
        "doc_ids",
        "doc_lengths",
        "tf_counts",
        "_slots",
        "_average_length",
        "_stride",
        "_m_phrase",
    )

    def __init__(
        self,
        terms: Sequence[str],
        term_offsets: np.ndarray,
        posting_docs: np.ndarray,
        position_offsets: np.ndarray,
        positions: np.ndarray,
        doc_ids: np.ndarray,
        doc_lengths: np.ndarray,
    ):
        self.terms: List[str] = list(terms)
        self.term_offsets = np.ascontiguousarray(term_offsets, dtype=np.int64)
        self.posting_docs = np.ascontiguousarray(posting_docs, dtype=np.uint32)
        self.position_offsets = np.ascontiguousarray(position_offsets, dtype=np.int64)
        self.positions = np.ascontiguousarray(positions, dtype=np.uint32)
        self.doc_ids = np.ascontiguousarray(doc_ids, dtype=np.int64)
        self.doc_lengths = np.ascontiguousarray(doc_lengths, dtype=np.int64)
        self.tf_counts = np.diff(self.position_offsets)
        self._slots: Dict[str, int] = {term: i for i, term in enumerate(self.terms)}
        # One Python-int sum, then one division: the reference's average.
        count = len(self.doc_ids)
        self._average_length = (
            int(self.doc_lengths.sum()) / count if count else 0.0
        )
        # Phrase-key stride: strictly larger than any token position.
        self._stride = int(self.doc_lengths.max()) + 1 if count else 1
        self._m_phrase = get_registry().counter(
            "index_phrase_intersections_total",
            help="phrase-occurrence intersections on the frozen index",
        )

    # -- document statistics ---------------------------------------------

    @property
    def document_count(self) -> int:
        return len(self.doc_ids)

    @property
    def average_document_length(self) -> float:
        return self._average_length

    def __contains__(self, term: str) -> bool:
        return term in self._slots

    def slot(self, term: str) -> Optional[int]:
        """Row of *term* in the sorted term table (None if unseen)."""
        return self._slots.get(term)

    def document_frequency(self, term: str) -> int:
        slot = self._slots.get(term)
        if slot is None:
            return 0
        return int(self.term_offsets[slot + 1] - self.term_offsets[slot])

    def posting_slice(self, slot: int) -> Tuple[np.ndarray, np.ndarray]:
        """(doc rows, term frequencies) views for one term slot."""
        lo = self.term_offsets[slot]
        hi = self.term_offsets[slot + 1]
        return self.posting_docs[lo:hi], self.tf_counts[lo:hi]

    # -- phrase machinery ------------------------------------------------

    def _occurrence_keys(self, slot: int, term_index: int) -> np.ndarray:
        """Stride keys ``doc_row * stride + (position - term_index)``."""
        lo = self.term_offsets[slot]
        hi = self.term_offsets[slot + 1]
        pos = self.positions[
            self.position_offsets[lo] : self.position_offsets[hi]
        ].astype(np.int64)
        docs = np.repeat(
            self.posting_docs[lo:hi].astype(np.int64), self.tf_counts[lo:hi]
        )
        starts = pos - term_index
        if term_index:
            valid = starts >= 0
            docs = docs[valid]
            starts = starts[valid]
        return docs * self._stride + starts

    def phrase_occurrences(
        self, terms: Sequence[str]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(doc rows, occurrence counts, first start position) per doc.

        Documents appear in ascending row order; ``first start`` is the
        position of the earliest exact occurrence, which anchors the
        document's snippet window (:class:`repro.search.snippets.SnippetService`).
        """
        self._m_phrase.inc()
        empty = (_EMPTY_I64, _EMPTY_I64, _EMPTY_I64)
        if not terms:
            return empty
        slots = [self._slots.get(term) for term in terms]
        if any(slot is None for slot in slots):
            return empty
        if len(terms) == 1:
            lo = self.term_offsets[slots[0]]
            hi = self.term_offsets[slots[0] + 1]
            rows = self.posting_docs[lo:hi].astype(np.int64)
            counts = self.tf_counts[lo:hi].astype(np.int64)
            firsts = self.positions[self.position_offsets[lo:hi]].astype(np.int64)
            return rows, counts, firsts
        key_sets = [
            self._occurrence_keys(slot, i) for i, slot in enumerate(slots)
        ]
        key_sets.sort(key=len)  # rarest term first keeps intersections small
        keys = key_sets[0]
        for other in key_sets[1:]:
            if not keys.size:
                return empty
            keys = np.intersect1d(keys, other, assume_unique=True)
        if not keys.size:
            return empty
        rows, first_at, counts = np.unique(
            keys // self._stride, return_index=True, return_counts=True
        )
        firsts = keys[first_at] - rows * self._stride
        return rows, counts, firsts

    def phrase_document_count(self, terms: Sequence[str]) -> int:
        rows, __, __ = self.phrase_occurrences(terms)
        return int(rows.size)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_token_streams(
        cls,
        doc_ids: Sequence[int],
        id_arrays: Sequence[np.ndarray],
        vocab_terms: Sequence[str],
    ) -> "FrozenInvertedIndex":
        """Build the CSR columns directly from interned token streams.

        ``id_arrays[i]`` holds document i's tokens as indices into
        ``vocab_terms``.  One stable sort of the flat (term-rank,
        doc-row, position) stream yields postings grouped by term and
        ordered by document row, with positions ascending.
        """
        vocab_size = len(vocab_terms)
        sorted_vids = sorted(range(vocab_size), key=vocab_terms.__getitem__)
        rank = np.empty(vocab_size, dtype=np.int64)
        rank[sorted_vids] = np.arange(vocab_size, dtype=np.int64)
        lengths = np.asarray([len(ids) for ids in id_arrays], dtype=np.int64)
        total = int(lengths.sum())
        if total == 0:
            empty_vocab = not vocab_size
            return cls(
                terms=[] if empty_vocab else [vocab_terms[v] for v in sorted_vids],
                term_offsets=np.zeros(vocab_size + 1, dtype=np.int64),
                posting_docs=np.zeros(0, dtype=np.uint32),
                position_offsets=np.zeros(1, dtype=np.int64),
                positions=np.zeros(0, dtype=np.uint32),
                doc_ids=np.asarray(doc_ids, dtype=np.int64),
                doc_lengths=lengths,
            )
        flat_ranks = np.concatenate(
            [rank[np.asarray(ids, dtype=np.int64)] for ids in id_arrays]
        )
        flat_rows = np.repeat(np.arange(len(id_arrays), dtype=np.int64), lengths)
        flat_positions = np.concatenate(
            [np.arange(n, dtype=np.int64) for n in lengths.tolist()]
        )
        order = np.argsort(flat_ranks, kind="stable")
        term_col = flat_ranks[order]
        doc_col = flat_rows[order]
        pos_col = flat_positions[order]
        boundary = np.empty(total, dtype=bool)
        boundary[0] = True
        boundary[1:] = (term_col[1:] != term_col[:-1]) | (doc_col[1:] != doc_col[:-1])
        posting_starts = np.flatnonzero(boundary)
        posting_terms = term_col[posting_starts]
        term_offsets = np.searchsorted(
            posting_terms, np.arange(vocab_size + 1, dtype=np.int64)
        ).astype(np.int64)
        return cls(
            terms=[vocab_terms[v] for v in sorted_vids],
            term_offsets=term_offsets,
            posting_docs=doc_col[posting_starts].astype(np.uint32),
            position_offsets=np.append(posting_starts, total).astype(np.int64),
            positions=pos_col.astype(np.uint32),
            doc_ids=np.asarray(doc_ids, dtype=np.int64),
            doc_lengths=lengths,
        )
