"""The Global TID table and the packed relevance store (Section VI).

"In the implementation, the relevant keywords are represented by unique
term ids (perfect hashes). ... the system uses a global hash table
(Global TID Table) which simply maps a given term to its TID. ... the
largest TID value we need to support in the system is not too large and
can easily fit into 22 bits.  We normalize the scores of the relevant
terms to be in the range of 0 and 1023, so that they can fit in 10
bits.  So for each concept, we need 400 bytes to store its top 100
(TID, score) pairs, since each pair can be stored in 32 bits."

The store is immutable: every concept's pairs sit in one columnar
:class:`~repro.runtime.arena.PhraseArena`, packed in one pass at build
time or adopted from a mapped data-pack.  Lookups are vectorized (shift
out the TID column, sorted-intersect against the document's TID array,
dequantize the matched codes, ``np.bincount`` per phrase) and
bit-for-bit identical to the seed per-element loop.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.features.relevance import RelevanceModel, stemmed_terms
from repro.obs import DEFAULT_SIZE_BUCKETS, get_registry
from repro.text.tokenized import DocumentLike
from repro.runtime.arena import (
    MAX_SCORE_CODE,
    MAX_TID,
    SCORE_BITS,
    TID_BITS,
    PhraseArena,
    SegmentTable,
    as_tid_context,
    sorted_membership,
)

__all__ = [
    "TID_BITS",
    "SCORE_BITS",
    "MAX_TID",
    "MAX_SCORE_CODE",
    "GlobalTidTable",
    "PackedRelevanceStore",
    "model_score_peak",
    "pack_pair",
    "unpack_pair",
]


class GlobalTidTable:
    """Stemmed term -> dense term id (a perfect-hash substitute)."""

    def __init__(self):
        self._tids: Dict[str, int] = {}
        self._next_tid = 0

    def __len__(self) -> int:
        return len(self._tids)

    def __contains__(self, term: str) -> bool:
        return term in self._tids

    def assign(self, term: str) -> int:
        """The TID of *term*, assigning a new one if unseen."""
        tid = self._tids.get(term)
        if tid is None:
            tid = self._next_tid
            if tid > MAX_TID:
                raise OverflowError("TID space (22 bits) exhausted")
            self._tids[term] = tid
            self._next_tid = tid + 1
        return tid

    def lookup(self, term: str) -> Optional[int]:
        """The TID of *term*, or None if the term is used by no concept."""
        return self._tids.get(term)

    def items(self) -> Iterable[Tuple[str, int]]:
        """(term, TID) pairs (data-pack serialization)."""
        return self._tids.items()

    def tids_of(self, terms: Iterable[str]) -> set:
        """TID set of a document's terms (unknown terms dropped)."""
        found = set()
        for term in terms:
            tid = self._tids.get(term)
            if tid is not None:
                found.add(tid)
        return found

    def tid_context(self, terms: Iterable[str]) -> np.ndarray:
        """Sorted unique TID array of *terms* — the vectorized context."""
        found = self.tids_of(terms)
        return np.fromiter(sorted(found), dtype=np.uint32, count=len(found))

    @classmethod
    def from_items(cls, items: Iterable[Sequence]) -> "GlobalTidTable":
        """Rebuild from explicit (term, TID) pairs (data-pack load path).

        Unlike :meth:`assign`, the pairs need not be dense: new
        assignments continue after the largest loaded TID.
        """
        table = cls()
        for term, tid in items:
            tid = int(tid)
            if not 0 <= tid <= MAX_TID:
                raise ValueError(f"TID {tid} out of 22-bit range")
            table._tids[str(term)] = tid
        table._next_tid = max(table._tids.values(), default=-1) + 1
        return table

    @classmethod
    def from_dense_terms(cls, terms: Sequence[str]) -> "GlobalTidTable":
        """Rebuild from a dense TID-ordered term list (``terms[tid]``)."""
        if len(terms) > MAX_TID + 1:
            raise ValueError("term list exceeds the 22-bit TID space")
        table = cls()
        table._tids = {term: tid for tid, term in enumerate(terms)}
        table._next_tid = len(terms)
        return table

    def dense_terms(self) -> Optional[List[str]]:
        """TID-ordered term list if the table is dense, else None."""
        terms: List[Optional[str]] = [None] * len(self._tids)
        for term, tid in self._tids.items():
            if not 0 <= tid < len(terms) or terms[tid] is not None:
                return None
            terms[tid] = term
        return terms


def pack_pair(tid: int, score_code: int) -> int:
    """Pack (22-bit TID, 10-bit score) into one 32-bit integer."""
    if not 0 <= tid <= MAX_TID:
        raise ValueError("tid out of 22-bit range")
    if not 0 <= score_code <= MAX_SCORE_CODE:
        raise ValueError("score code out of 10-bit range")
    return (tid << SCORE_BITS) | score_code


def unpack_pair(packed: int) -> tuple:
    """Inverse of :func:`pack_pair`."""
    return packed >> SCORE_BITS, packed & MAX_SCORE_CODE


def model_score_peak(model: RelevanceModel) -> float:
    """The largest relevant-term score in *model* (the quantizer scale)."""
    peak = 0.0
    for phrase in model.phrases():
        for __, score in model.relevant_terms(phrase):
            peak = max(peak, score)
    return peak


def _pack_model(
    model: RelevanceModel, tid_table: GlobalTidTable, score_max: float
) -> PhraseArena:
    """Every concept's (TID, score code) words, sorted per concept, in
    one arena built in one pass.

    Code for code what :func:`~repro.features.quantize.quantize` +
    :func:`pack_pair` per pair give: ``np.rint`` rounds half to even
    like ``round``, ``assign`` enforces the 22-bit TID range, and the
    scaling runs in the same operand order in float64.  Terms get TIDs
    in model order, pair by pair; a phrase repeated after lower-casing
    keeps its first row and its last pairs.
    """
    assign = tid_table.assign
    block_of: Dict[str, int] = {}
    counts: List[int] = []
    tids: List[int] = []
    scores: List[float] = []
    for phrase in model.phrases():
        pairs = model.relevant_terms(phrase)
        block_of[phrase.lower()] = len(counts)
        counts.append(len(pairs))
        for term, score in pairs:
            tids.append(assign(term))
            scores.append(score)
    words = np.asarray(tids, dtype=np.uint32) << np.uint32(SCORE_BITS)
    if score_max > 0:
        codes = np.asarray(scores, dtype=np.float64) / score_max * MAX_SCORE_CODE
        words |= np.clip(np.rint(codes), 0, MAX_SCORE_CODE).astype(np.uint32)
    block_starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=block_starts[1:])
    blocks = np.fromiter(block_of.values(), dtype=np.int64, count=len(block_of))
    lengths = np.diff(block_starts)[blocks]
    offsets = np.zeros(len(blocks) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    row_of = np.repeat(np.arange(len(blocks)), lengths)
    local = np.arange(int(offsets[-1])) - offsets[:-1][row_of]
    pairs = words[block_starts[blocks][row_of] + local]
    return PhraseArena(pairs[np.lexsort((pairs, row_of))], offsets, list(block_of))


class PackedRelevanceStore:
    """Concept -> packed (TID, score) pairs; the runtime relevance scorer.

    Drop-in for :class:`repro.features.relevance.RelevanceScorer`: it
    exposes ``context_stems`` (returning a sorted TID array),
    ``rows_of`` and ``score``/``score_many``, the batch call by arena
    row.  Immutable: the store serves one columnar
    *arena* (:meth:`build` packs a relevance model into a
    :class:`~repro.runtime.arena.PhraseArena`; data-pack loads pass
    zero-copy views, with the mapped pack as *backing*, held for the
    store's lifetime).  Scoring reads the arena only through ``rows``
    and ``gather``, so a subclass serves another arena type unchanged.
    """

    _store_label = "packed"  # the ``store`` label of its metrics

    def __init__(
        self,
        tid_table: GlobalTidTable,
        score_max: float,
        arena: Optional[SegmentTable] = None,
        backing=None,
    ):
        self._tids = tid_table
        self.score_max = float(score_max)
        self._arena = arena if arena is not None else PhraseArena.from_segments(())
        self._backing = backing
        registry = get_registry()
        self._m_lookups = registry.counter(
            "relevance_lookups_total",
            help="single-phrase relevance lookups",
            store=self._store_label,
        )
        self._m_batch = registry.histogram(
            "relevance_score_many_phrases",
            help="phrases per score_many call",
            buckets=DEFAULT_SIZE_BUCKETS,
            store=self._store_label,
        )

    @property
    def tid_table(self) -> GlobalTidTable:
        return self._tids

    def __len__(self) -> int:
        return len(self._arena)

    def __contains__(self, phrase: str) -> bool:
        return phrase.lower() in self._arena.rows

    def arena(self) -> SegmentTable:
        """The columnar arena the store serves."""
        return self._arena

    def phrases(self) -> List[str]:
        """Phrases in arena row order."""
        return list(self._arena.phrases)

    def packed(self, phrase: str) -> np.ndarray:
        row = self._arena.rows.get(phrase.lower())
        if row is None:
            return np.zeros(0, dtype=np.uint32)
        return self._arena.segment(row)

    # -- RelevanceScorer protocol ------------------------------------------

    def context_stems(self, text: DocumentLike) -> np.ndarray:
        """The sorted TID array of a document (stemmed, stopword-free).

        A document stamped by a compiled detection kernel skips the stem
        strings entirely: the kernel maps interned token ids straight to
        TIDs (value-identical, see ``DetectionKernel.tid_context``).
        """
        kernel = getattr(text, "_kernel", None)
        if kernel is not None:
            return kernel.tid_context(text, self._tids)
        return self._tids.tid_context(stemmed_terms(text))

    def rows_of(self, phrases: Sequence[str]) -> np.ndarray:
        """The ``int64`` arena row of each phrase (case-insensitive), -1
        where the store has none: the rows :meth:`score_many` scores."""
        lookup = self._arena.rows.get
        return np.fromiter(
            (lookup(phrase.lower(), -1) for phrase in phrases),
            dtype=np.int64,
            count=len(phrases),
        )

    def score(self, phrase: str, context) -> float:
        """Summed dequantized scores of the concept's TIDs in context."""
        self._m_lookups.inc()
        return float(self.score_many(self.rows_of([phrase]), context)[0])

    def score_many(self, rows: Sequence[int], context) -> np.ndarray:
        """Vectorized scores of many arena rows sharing one context.

        *rows* come from :meth:`rows_of`; a row of -1 scores 0.0.  One
        flat gather + one sorted-intersect over every requested
        segment; only the matched pairs are dequantized, and
        ``np.bincount`` adds each row's matches left to right, in the
        seed per-element loop's order, so every total is bit-for-bit
        the seed's.
        """
        self._m_batch.observe(len(rows))
        totals = np.zeros(len(rows))
        ctx = as_tid_context(context)
        if ctx is None or not len(rows):
            return totals
        rows = np.asarray(rows, dtype=np.int64)
        valid = np.flatnonzero(rows >= 0)
        if not valid.size:
            return totals
        values, bounds = self._arena.gather(rows[valid])
        if not values.size:
            return totals
        hits = np.flatnonzero(sorted_membership(ctx, values >> SCORE_BITS))
        if not hits.size:
            return totals
        matched = (values[hits] & MAX_SCORE_CODE).astype(np.float64)
        matched = matched / MAX_SCORE_CODE * self.score_max
        # map each hit back to the row whose segment contains it
        owners = valid[bounds.searchsorted(hits, side="right")]
        return np.bincount(owners, weights=matched, minlength=len(rows))

    def score_text(self, phrase: str, text: str) -> float:
        return self.score(phrase, self.context_stems(text))

    # -- storage accounting ------------------------------------------------

    def memory_bytes(self) -> int:
        """Bytes of pair storage (4 per pair in a packed arena, as the paper)."""
        return self._arena.payload_bytes

    @classmethod
    def build(
        cls,
        model: RelevanceModel,
        tid_table: Optional[GlobalTidTable] = None,
        score_max: Optional[float] = None,
    ) -> "PackedRelevanceStore":
        """Build the store from an offline relevance model.

        Pass *score_max* to skip the model scan when the quantizer scale
        is already known (e.g. rebuilding against a shared scale).
        """
        if score_max is None:
            score_max = model_score_peak(model) or 1.0
        if tid_table is None:
            tid_table = GlobalTidTable()
        arena = _pack_model(model, tid_table, float(score_max))
        return cls(tid_table, score_max, arena)
