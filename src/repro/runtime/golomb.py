"""Golomb–Rice coded relevance arena (paper Section VI).

The paper notes the 400 MB relevance store "can be even further reduced
through ... integer compression techniques, such as Golomb Coding".
:class:`RiceArena` codes each concept's sorted 32-bit pair words
(``TID << 10 | score code``) with a Rice code, the Golomb code with
m = 2^L, laid out as Elias–Fano (Vigna, "Quasi-succinct indices", WSDM
2013): the low L bits of every word sit in a fixed-width column and the
high parts in a unary bit-stream, so numpy decodes a whole batch of
rows at once.  The highs are ``flatnonzero(unpackbits(upper)) -
arange(n)`` and the lows one vectorized bit-field read; no bit is read
in a Python loop, so no decoded list needs caching.

Each concept picks the L that minimizes its coded size, n·L +
(max_word >> L) bits.  The arena has
:class:`~repro.runtime.arena.PhraseArena`'s read interface and
:meth:`RiceArena.gather` returns exactly the ``(values, bounds)`` the
packed arena would, so the packed store's scorer serves it unchanged.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.runtime.arena import PhraseArena, SegmentTable

_WIDTHS = np.arange(33, dtype=np.int64)  # candidate L for 32-bit words
_WINDOW = 8  # bytes per low-field read: 7 bits of skew + 32 of field fit


class RiceArena(SegmentTable):
    """Sorted pair words, Golomb–Rice coded in Elias–Fano layout.

    Row *i* codes its ``n`` words with low width ``L = widths[i]``.
    ``upper`` bytes ``upper_offsets[i]:upper_offsets[i+1]`` hold the
    high parts in unary: word *j* sets bit ``(word >> L) + j``.
    ``lower`` holds every row's L-bit low fields back to back, row *i*
    starting at bit ``lower_offsets[i]``.  Bit *k* of either stream is
    bit ``k & 7`` of byte ``k >> 3``.  Build one with
    :meth:`from_packed` or :meth:`from_segments`.
    """

    __slots__ = (
        "widths", "upper", "upper_offsets", "lower", "lower_offsets",
        "_table", "_windows",
    )

    def __init__(
        self, offsets, phrases, widths, upper, upper_offsets, lower, lower_offsets
    ):
        super().__init__(offsets, phrases)
        self.widths = widths
        self.upper = upper
        self.upper_offsets = upper_offsets
        # zero padding keeps every 8-byte window read inside the buffer
        self.lower = np.concatenate([lower, np.zeros(_WINDOW, dtype=np.uint8)])
        self.lower_offsets = lower_offsets
        # the per-row fields gather() reads, one column per row so one
        # fancy index fetches them all: count, upper bytes, upper start,
        # lower start, width, low mask
        self._table = np.stack([
            np.diff(offsets), np.diff(upper_offsets), upper_offsets[:-1],
            lower_offsets[:-1], widths, (1 << widths) - 1,
        ])
        # little-endian int64 read at every byte offset of the lows
        self._windows = np.ndarray(
            (len(self.lower) - _WINDOW + 1,), dtype="<i8",
            buffer=self.lower, strides=(1,),
        )

    @property
    def payload_bytes(self) -> int:
        """Bytes of the two coded streams (the row index excluded)."""
        return len(self.upper) + (int(self.lower_offsets[-1]) + 7) // 8

    def gather(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Decode many rows in one numpy batch: :meth:`PhraseArena.gather`."""
        table = self._table[:, rows]
        counts = table[0].copy()
        bounds = np.cumsum(counts)
        total = int(bounds[-1]) if len(bounds) else 0
        if total == 0:
            return np.zeros(0, dtype=np.uint32), bounds
        sizes = table[1]
        ends = np.cumsum(sizes)
        flat = np.repeat(table[2] - ends + sizes, sizes) + np.arange(int(ends[-1]))
        bits = np.unpackbits(self.upper[flat], bitorder="little")
        # flatnonzero over a bool view: same positions, half the time
        ones = bits.view(np.bool_).nonzero()[0]
        # per-word copies of: first word, upper bit base, lower start,
        # width, low mask of the word's row
        table[0] = bounds - counts
        table[1] = 8 * (ends - sizes)
        first, base, __, start, width, mask = np.repeat(table, counts, axis=1)
        local = np.arange(total) - first
        high = ones - base - local
        position = start + local * width
        low = (self._windows[position >> 3] >> (position & 7)) & mask
        return ((high << width) | low).astype(np.uint32), bounds

    @classmethod
    def from_packed(cls, arena: PhraseArena) -> "RiceArena":
        """Encode a packed arena's ``pairs``/``offsets`` in one pass."""
        offsets = np.asarray(arena.offsets, dtype=np.int64)
        words = np.asarray(arena.pairs, dtype=np.int64)
        counts = np.diff(offsets)
        row_of = np.repeat(np.arange(len(counts)), counts)
        local = np.arange(len(words)) - offsets[:-1][row_of]
        if (np.diff(words)[local[1:] > 0] < 0).any():
            raise ValueError("arena segments must be sorted")
        top = np.zeros(len(counts), dtype=np.int64)
        filled = counts > 0
        top[filled] = words[offsets[1:][filled] - 1]
        widths = np.argmin(
            counts[:, None] * _WIDTHS + (top[:, None] >> _WIDTHS), axis=1
        )
        width = widths[row_of]

        upper_offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(((top >> widths) + counts + 7) >> 3, out=upper_offsets[1:])
        bits = np.zeros(8 * int(upper_offsets[-1]), dtype=np.bool_)
        bits[8 * upper_offsets[:-1][row_of] + (words >> width) + local] = True
        upper = np.packbits(bits, bitorder="little")

        lower_offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts * widths, out=lower_offsets[1:])
        position = lower_offsets[:-1][row_of] + local * width
        low = (words & ((1 << width) - 1)).astype(np.uint64)
        shift = (position & 63).astype(np.uint64)
        lanes = np.zeros((int(lower_offsets[-1]) >> 6) + 2, dtype=np.uint64)
        np.bitwise_or.at(lanes, position >> 6, low << shift)
        # a field crossing a lane boundary spills its top bits into the
        # next lane ((x >> 1) >> (63 - s) is x >> (64 - s), also for s = 0)
        spill = (low >> np.uint64(1)) >> (np.uint64(63) - shift)
        np.bitwise_or.at(lanes, (position >> 6) + 1, spill)
        lower_bytes = (int(lower_offsets[-1]) + 7) >> 3
        lower = lanes.astype("<u8", copy=False).view(np.uint8)[:lower_bytes]
        return cls(
            offsets, arena.phrases, widths, upper, upper_offsets, lower, lower_offsets
        )

    @classmethod
    def from_segments(cls, items: Iterable[Tuple[str, np.ndarray]]) -> "RiceArena":
        """Encode per-phrase sorted pair arrays (see :meth:`from_packed`)."""
        return cls.from_packed(PhraseArena.from_segments(items))
