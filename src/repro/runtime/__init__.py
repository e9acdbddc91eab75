"""Production framework (Section VI): stores, TID tables, Golomb, service."""

from repro.runtime.arena import PhraseArena, as_tid_context, sorted_membership
from repro.runtime.compressed import CompressedRelevanceStore
from repro.runtime.datapack import (
    MappedPack,
    load_interestingness_store,
    load_ranker,
    load_relevance_store,
    open_pack,
    read_pack,
    save_interestingness_store,
    save_ranker,
    save_relevance_store,
    write_pack,
)
from repro.runtime.framework import RankerService, TimingStats
from repro.runtime.golomb import RiceArena
from repro.runtime.store import QuantizedInterestingnessStore
from repro.runtime.tid import (
    MAX_SCORE_CODE,
    MAX_TID,
    GlobalTidTable,
    PackedRelevanceStore,
    model_score_peak,
    pack_pair,
    unpack_pair,
)

__all__ = [
    "PhraseArena",
    "as_tid_context",
    "sorted_membership",
    "CompressedRelevanceStore",
    "MappedPack",
    "load_interestingness_store",
    "load_ranker",
    "load_relevance_store",
    "open_pack",
    "read_pack",
    "save_interestingness_store",
    "save_ranker",
    "save_relevance_store",
    "write_pack",
    "RankerService",
    "TimingStats",
    "RiceArena",
    "QuantizedInterestingnessStore",
    "MAX_SCORE_CODE",
    "MAX_TID",
    "GlobalTidTable",
    "PackedRelevanceStore",
    "model_score_peak",
    "pack_pair",
    "unpack_pair",
]
