"""Golomb-compressed relevance store (paper Section VI, realized).

The paper suggests its 400 MB/1M-concepts relevance store "can be even
further reduced through ... integer compression techniques, such as
Golomb Coding".  :class:`CompressedRelevanceStore` implements that
variant as a working runtime store, not just an accounting exercise:
it is the packed store over a :class:`~repro.runtime.golomb.RiceArena`,
which Golomb–Rice codes each concept's pair words at about half the
packed size and decodes a document's candidate rows in one numpy batch.
Scoring is the packed store's, and building packs the model as the
packed store does and then codes the arena, so both stores give the
same scores.

The trade is ~half the memory for a batch decode on every lookup.
``PackedRelevanceStore`` remains the hot-path choice; this store suits
memory-constrained tiers (the paper's motivating 1M+ concept scale).
"""

from __future__ import annotations

from typing import Optional

from repro.features.relevance import RelevanceModel
from repro.runtime.golomb import RiceArena
from repro.runtime.tid import GlobalTidTable, PackedRelevanceStore


class CompressedRelevanceStore(PackedRelevanceStore):
    """Relevance store over a Golomb–Rice coded arena.

    Exposes the same scoring protocol as
    :class:`~repro.runtime.tid.PackedRelevanceStore` (``context_stems``
    / ``score`` / ``score_many`` / ``score_text``), so it is a drop-in
    for the runtime ranker.  Its metrics carry ``store="compressed"``.
    """

    _store_label = "compressed"

    @classmethod
    def from_packed(cls, packed: PackedRelevanceStore) -> "CompressedRelevanceStore":
        """Encode a packed store (shares the TID table and score scale)."""
        arena = RiceArena.from_packed(packed.arena())
        return cls(packed.tid_table, packed.score_max, arena)

    @classmethod
    def build(
        cls,
        model: RelevanceModel,
        tid_table: Optional[GlobalTidTable] = None,
        score_max: Optional[float] = None,
    ) -> "CompressedRelevanceStore":
        """:meth:`PackedRelevanceStore.build`, then Rice-code the arena."""
        return cls.from_packed(PackedRelevanceStore.build(model, tid_table, score_max))
