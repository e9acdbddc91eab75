"""Tests for the columnar arenas (packed and Rice coded) and scoring.

The golden requirement: the vectorized arena lookups must reproduce the
seed per-element loop *byte-identically* — same dequantize arithmetic,
same left-to-right accumulation order — so every comparison here is
exact equality, never approx.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import RelevanceModel
from repro.features.quantize import dequantize
from repro.runtime import (
    CompressedRelevanceStore,
    GlobalTidTable,
    PackedRelevanceStore,
    PhraseArena,
    RiceArena,
    as_tid_context,
    sorted_membership,
    unpack_pair,
)
from repro.runtime.tid import MAX_SCORE_CODE, MAX_TID, SCORE_BITS, pack_pair


def synthetic_model(concepts=40, vocabulary=300, terms_per=25, seed=7):
    """A randomized relevance model with shared terms across concepts."""
    rng = np.random.default_rng(seed)
    entries = {}
    for index in range(concepts):
        count = int(rng.integers(1, terms_per + 1))
        term_ids = rng.choice(vocabulary, size=count, replace=False)
        entries[f"concept {index}"] = tuple(
            (f"term{tid}", float(rng.uniform(0.01, 80.0))) for tid in term_ids
        )
    entries["empty concept"] = ()
    return RelevanceModel(entries)


def seed_score(store, phrase, context_tids):
    """The seed implementation: per-element unpack + scalar accumulation."""
    total = 0.0
    for packed in store.packed(phrase).tolist():
        tid, code = unpack_pair(packed)
        if tid in context_tids:
            total += dequantize(code, store.score_max, SCORE_BITS)
    return total


def random_contexts(store, rng, count=12):
    """TID subsets of varying density, incl. empty and full."""
    universe = sorted(tid for __, tid in store.tid_table.items())
    contexts = [set(), set(universe)]
    for __ in range(count):
        size = int(rng.integers(1, max(2, len(universe))))
        contexts.append(set(rng.choice(universe, size=size, replace=False).tolist()))
    return contexts


class TestPhraseArena:
    def test_from_segments_layout(self):
        arena = PhraseArena.from_segments(
            [
                ("a", np.asarray([5, 9], dtype=np.uint32)),
                ("b", np.zeros(0, dtype=np.uint32)),
                ("c", np.asarray([1], dtype=np.uint32)),
            ]
        )
        assert arena.pairs.tolist() == [5, 9, 1]
        assert arena.offsets.tolist() == [0, 2, 2, 3]
        assert arena.phrases == ["a", "b", "c"]
        assert arena.rows == {"a": 0, "b": 1, "c": 2}
        assert arena.segment(0).tolist() == [5, 9]
        assert arena.segment(1).size == 0
        assert arena.pair_count == 3

    def test_empty_arena(self):
        arena = PhraseArena.from_segments([])
        assert arena.pair_count == 0
        assert arena.phrases == []
        assert arena.offsets.tolist() == [0]

    @pytest.mark.parametrize("arena_type", [PhraseArena, RiceArena])
    def test_gather_flattens_requested_rows(self, arena_type):
        arena = arena_type.from_segments(
            [
                ("a", np.asarray([10, 11], dtype=np.uint32)),
                ("b", np.asarray([20], dtype=np.uint32)),
                ("c", np.asarray([30, 31, 32], dtype=np.uint32)),
            ]
        )
        values, bounds = arena.gather(np.asarray([2, 0], dtype=np.int64))
        assert values.tolist() == [30, 31, 32, 10, 11]
        assert bounds.tolist() == [3, 5]

    @pytest.mark.parametrize("arena_type", [PhraseArena, RiceArena])
    def test_gather_with_empty_rows(self, arena_type):
        arena = arena_type.from_segments(
            [
                ("a", np.zeros(0, dtype=np.uint32)),
                ("b", np.asarray([7], dtype=np.uint32)),
            ]
        )
        values, bounds = arena.gather(np.asarray([0, 1, 0], dtype=np.int64))
        assert values.tolist() == [7]
        assert bounds.tolist() == [0, 1, 1]


class TestContextNormalization:
    def test_none_and_empty(self):
        assert as_tid_context(None) is None
        assert as_tid_context(set()) is None
        assert as_tid_context(np.zeros(0, dtype=np.uint32)) is None

    def test_set_becomes_sorted_array(self):
        ctx = as_tid_context({9, 2, 5})
        assert ctx.tolist() == [2, 5, 9]
        assert ctx.dtype == np.uint32

    def test_array_passes_through(self):
        source = np.asarray([1, 4, 6], dtype=np.uint32)
        assert as_tid_context(source) is source

    def test_sorted_membership(self):
        ctx = np.asarray([2, 5, 9], dtype=np.uint32)
        tids = np.asarray([1, 2, 5, 8, 9, 11], dtype=np.uint32)
        assert sorted_membership(ctx, tids).tolist() == [
            False, True, True, False, True, False,
        ]

    def test_membership_above_context_max(self):
        # positions past the end of the context must not wrap into hits
        ctx = np.asarray([3], dtype=np.uint32)
        tids = np.asarray([3, 4, 1000], dtype=np.uint32)
        assert sorted_membership(ctx, tids).tolist() == [True, False, False]


class TestPackPairBoundaries:
    def test_max_tid_round_trips(self):
        packed = pack_pair(MAX_TID, MAX_SCORE_CODE)
        assert packed == 0xFFFFFFFF
        assert unpack_pair(packed) == (MAX_TID, MAX_SCORE_CODE)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pack_pair(MAX_TID + 1, 0)
        with pytest.raises(ValueError):
            pack_pair(0, MAX_SCORE_CODE + 1)


class TestGoldenScoring:
    """Vectorized paths must equal the seed loop exactly (==, no approx)."""

    @pytest.fixture(scope="class")
    def packed_store(self):
        return PackedRelevanceStore.build(synthetic_model())

    def test_score_matches_seed_loop_exactly(self, packed_store):
        rng = np.random.default_rng(11)
        phrases = packed_store.phrases() + ["unknown phrase"]
        for context in random_contexts(packed_store, rng):
            for phrase in phrases:
                expected = seed_score(packed_store, phrase, context)
                assert packed_store.score(phrase, context) == expected

    def test_score_many_matches_score_exactly(self, packed_store):
        rng = np.random.default_rng(13)
        phrases = packed_store.phrases() + ["unknown phrase", "empty concept"]
        for context in random_contexts(packed_store, rng):
            batch = packed_store.score_many(packed_store.rows_of(phrases), context)
            for phrase, value in zip(phrases, batch.tolist()):
                assert value == packed_store.score(phrase, context)

    def test_array_and_set_contexts_agree(self, packed_store):
        context = {tid for __, tid in list(packed_store.tid_table.items())[::2]}
        ctx_array = as_tid_context(context)
        for phrase in packed_store.phrases():
            assert packed_store.score(phrase, context) == packed_store.score(
                phrase, ctx_array
            )

    def test_compressed_matches_seed_loop_exactly(self, packed_store):
        compressed = CompressedRelevanceStore.from_packed(packed_store)
        rng = np.random.default_rng(17)
        for context in random_contexts(packed_store, rng, count=6):
            for phrase in packed_store.phrases():
                assert compressed.score(phrase, context) == seed_score(
                    packed_store, phrase, context
                )


class TestBuildVersusFromPacked:
    """Satellite: the two compressed-store construction paths agree."""

    def test_scores_identical(self):
        model = synthetic_model(concepts=20, seed=23)
        packed = PackedRelevanceStore.build(model)
        direct = CompressedRelevanceStore.build(model)
        converted = CompressedRelevanceStore.from_packed(packed)
        assert converted.score_max == packed.score_max
        assert direct.score_max == packed.score_max
        assert len(direct) == len(converted)
        rng = np.random.default_rng(29)
        for context in random_contexts(packed, rng, count=8):
            for phrase in packed.phrases():
                ctx = set(context)
                assert direct.score(phrase, ctx) == converted.score(phrase, ctx)

    def test_build_skips_peak_scan_when_given(self):
        model = synthetic_model(concepts=8, seed=31)
        packed = PackedRelevanceStore.build(model)
        reused = CompressedRelevanceStore.build(model, score_max=packed.score_max)
        assert reused.score_max == packed.score_max


ALL_ONES = pack_pair(MAX_TID, MAX_SCORE_CODE)
WORDS = st.one_of(st.just(ALL_ONES), st.integers(0, ALL_ONES))


def _dense_run(start, gaps):
    """Words a few apart (small low width); 0 gaps repeat a word."""
    return np.minimum(start + np.cumsum(gaps), ALL_ONES).tolist()


SEGMENTS = st.one_of(
    st.just([]),
    st.lists(WORDS, min_size=1, max_size=1),
    st.builds(_dense_run, WORDS, st.lists(st.integers(0, 3), min_size=1, max_size=80)),
    st.lists(WORDS, max_size=40),  # sparse: large low width
    st.builds(  # one TID with several score codes
        lambda tid, codes: [pack_pair(tid, code) for code in codes],
        st.integers(0, MAX_TID),
        st.lists(st.integers(0, MAX_SCORE_CODE), min_size=1, max_size=6),
    ),
)


class TestRiceArena:
    """The coded arena decodes to exactly the packed arena's values."""

    @given(st.lists(SEGMENTS, max_size=10), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_packed_arena_and_store(self, segments, data):
        items = [
            (f"p{index}", np.sort(np.asarray(words, dtype=np.uint32)))
            for index, words in enumerate(segments)
        ]
        packed_arena = PhraseArena.from_segments(items)
        coded = RiceArena.from_segments(items)
        assert coded.pair_count == packed_arena.pair_count
        rows = np.asarray(
            data.draw(st.lists(st.integers(0, len(items) - 1), max_size=24))
            if items
            else [],
            dtype=np.int64,
        )
        values, bounds = coded.gather(rows)
        expected_values, expected_bounds = packed_arena.gather(rows)
        assert values.dtype == np.uint32
        assert values.tolist() == expected_values.tolist()
        assert bounds.tolist() == expected_bounds.tolist()
        every = np.arange(len(items), dtype=np.int64)
        assert [a.tolist() for a in coded.gather(every)] == [
            a.tolist() for a in packed_arena.gather(every)
        ]

        packed = PackedRelevanceStore(GlobalTidTable(), 3.7, packed_arena)
        compressed = CompressedRelevanceStore.from_packed(packed)
        tids = {int(word) >> SCORE_BITS for __, words in items for word in words}
        context = data.draw(st.sets(st.sampled_from(sorted(tids | {0, MAX_TID}))))
        phrases = [f"p{row}" for row in rows.tolist()] + ["missing"]
        rows = packed.rows_of(phrases)
        assert compressed.rows_of(phrases).tolist() == rows.tolist()
        batch = packed.score_many(rows, context).tolist()
        assert compressed.score_many(rows, context).tolist() == batch
        for store in (packed, compressed):
            for phrase, total in zip(phrases, batch):
                expected = seed_score(packed, phrase, context)
                assert total == expected
                assert store.score(phrase, context) == expected
                assert store.score_many(store.rows_of([phrase]), context)[0] == expected

    def test_low_width_tracks_density(self):
        dense = np.arange(400, dtype=np.uint32)
        sparse = np.asarray([3, 1 << 20, 1 << 30, ALL_ONES], dtype=np.uint32)
        arena = RiceArena.from_segments(
            [("dense", dense), ("sparse", sparse), ("empty", dense[:0])]
        )
        assert arena.widths.tolist()[0] == 0
        assert arena.widths.tolist()[1] >= 28
        assert arena.segment(0).tolist() == dense.tolist()
        assert arena.segment(1).tolist() == sparse.tolist()
        assert arena.segment(2).size == 0
        assert arena.payload_bytes < PhraseArena.from_segments(
            [("dense", dense)]
        ).payload_bytes

    def test_rejects_unsorted_segment(self):
        with pytest.raises(ValueError, match="sorted"):
            RiceArena.from_segments(
                [("a", np.asarray([1, 9], dtype=np.uint32)),
                 ("b", np.asarray([5, 2], dtype=np.uint32))]
            )
