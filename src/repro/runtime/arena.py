"""Columnar arena shared by the serving stores (paper Section VI).

The seed stores kept one tiny numpy array per concept in a Python dict
and walked its packed pairs in a Python loop on every lookup.  The
arena flips the layout to structure-of-arrays: ONE contiguous
``uint32`` column of packed (22-bit TID, 10-bit score) pairs, an
``int64`` offsets index (concept *i* owns rows
``offsets[i]:offsets[i+1]``), and a phrase -> row table.  Scoring
becomes array-at-a-time numpy over segment views, and data-packs can
expose the two columns straight off disk (``np.frombuffer`` over an
``mmap``) so cold start costs O(index), not O(corpus).

The same phrase -> row discipline backs the fixed-stride matrix of the
quantized interestingness store and the Golomb–Rice coded
:class:`~repro.runtime.golomb.RiceArena`; this module holds the
variable-stride (pairs + offsets) form plus the TID-context helpers
both relevance stores share.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

TID_BITS = 22
SCORE_BITS = 10
MAX_TID = (1 << TID_BITS) - 1
MAX_SCORE_CODE = (1 << SCORE_BITS) - 1


def as_tid_context(context) -> Optional[np.ndarray]:
    """Normalize a scoring context to a sorted unique ``uint32`` array.

    Accepts the arrays produced by ``context_stems`` (already sorted and
    unique), plain Python sets/iterables of TIDs (the seed protocol),
    and None.  Empty contexts normalize to None so callers can
    short-circuit to a zero score.
    """
    if context is None:
        return None
    if isinstance(context, np.ndarray):
        if context.size == 0:
            return None
        return context
    if not context:
        return None
    ordered = sorted(context)
    return np.fromiter(ordered, dtype=np.uint32, count=len(ordered))


def sorted_membership(context: np.ndarray, tids: np.ndarray) -> np.ndarray:
    """Boolean mask of which *tids* occur in the sorted unique *context*.

    Uses a dense boolean table over ``[0, max(context)]`` — one linear
    gather instead of a binary search per TID.  The table is bounded by
    the 22-bit TID space (at most 512 KB of bools), so the allocation
    stays trivial next to the pair column it filters.
    """
    top = int(context[-1])
    table = np.zeros(top + 2, dtype=np.bool_)
    table[context] = True
    # TIDs above every context value clamp to the always-False sentinel.
    return table[np.minimum(tids, top + 1)]


class SegmentTable:
    """Phrase -> row table over an offsets column (the arenas' index).

    Row *i* owns pairs ``offsets[i]:offsets[i+1]``; subclasses hold the
    pair payload and implement ``gather(rows) -> (values, bounds)``
    over it (see :meth:`PhraseArena.gather`).
    """

    __slots__ = ("offsets", "phrases", "rows")

    def __init__(self, offsets: np.ndarray, phrases: Iterable[str]):
        self.offsets = offsets
        self.phrases: List[str] = list(phrases)
        if len(self.offsets) != len(self.phrases) + 1:
            raise ValueError("offsets must have one more entry than phrases")
        self.rows: Dict[str, int] = {
            phrase: row for row, phrase in enumerate(self.phrases)
        }

    def __len__(self) -> int:
        return len(self.phrases)

    def __contains__(self, phrase: str) -> bool:
        return phrase in self.rows

    @property
    def pair_count(self) -> int:
        return int(self.offsets[-1]) if len(self.offsets) else 0

    def row(self, phrase: str) -> Optional[int]:
        return self.rows.get(phrase)

    def segment(self, row: int) -> np.ndarray:
        """The packed pairs of one concept."""
        return self.gather(np.asarray([row], dtype=np.int64))[0]


class PhraseArena(SegmentTable):
    """Contiguous packed-pair column + offsets index + phrase -> row table.

    ``pairs`` is sorted within each segment (ascending packed value, i.e.
    ascending TID); ``offsets`` has ``len(phrases) + 1`` entries.  The
    arrays may be read-only views over a mapped data-pack — the arena
    never mutates them.
    """

    __slots__ = ("pairs",)

    def __init__(
        self,
        pairs: np.ndarray,
        offsets: np.ndarray,
        phrases: Iterable[str],
    ):
        super().__init__(offsets, phrases)
        self.pairs = pairs

    @property
    def payload_bytes(self) -> int:
        """4 bytes per pair, as the paper."""
        return self.pair_count * 4

    def segment(self, row: int) -> np.ndarray:
        """The packed-pair view of one concept (no copy)."""
        return self.pairs[int(self.offsets[row]) : int(self.offsets[row + 1])]

    def gather(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Flattened pair values for many rows plus per-row end bounds.

        Returns ``(values, bounds)`` where ``values`` concatenates the
        requested segments in order and ``bounds`` is the cumulative
        segment-length array (``values[bounds[i-1]:bounds[i]]`` is row
        ``rows[i]``'s segment).  One fancy-index gather instead of a
        Python loop over segments.
        """
        starts = self.offsets[rows]
        lengths = self.offsets[rows + 1] - starts
        bounds = np.cumsum(lengths)
        total = int(bounds[-1]) if len(bounds) else 0
        if total == 0:
            return np.zeros(0, dtype=self.pairs.dtype), bounds
        if bool((np.diff(rows) == 1).all()):
            # consecutive rows (e.g. a full-store scan): slice, no gather
            lo = int(starts[0])
            return self.pairs[lo : lo + total], bounds
        flat = np.repeat(starts - (bounds - lengths), lengths) + np.arange(total)
        return self.pairs[flat], bounds

    @classmethod
    def from_segments(
        cls, items: Iterable[Tuple[str, np.ndarray]]
    ) -> "PhraseArena":
        """Concatenate per-phrase pair arrays into one arena (copies)."""
        phrases: List[str] = []
        arrays: List[np.ndarray] = []
        for phrase, array in items:
            phrases.append(phrase)
            arrays.append(array)
        offsets = np.zeros(len(phrases) + 1, dtype=np.int64)
        if arrays:
            offsets[1:] = np.cumsum([array.size for array in arrays])
            pairs = np.concatenate(arrays).astype(np.uint32, copy=False)
        else:
            pairs = np.zeros(0, dtype=np.uint32)
        return cls(pairs, offsets, phrases)
