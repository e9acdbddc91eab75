"""Tests for binary data-pack persistence."""

import numpy as np
import pytest

from repro.features import RelevanceModel
from repro.ranking import KERNEL_RBF, RankSVM
from repro.runtime import (
    MAX_SCORE_CODE,
    MAX_TID,
    GlobalTidTable,
    PackedRelevanceStore,
    QuantizedInterestingnessStore,
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


class TestPackContainer:
    def test_round_trip_sections(self, tmp_path):
        path = tmp_path / "x.rpak"
        sections = {"a": b"hello", "b": b"", "kind": b"test"}
        write_pack(path, sections)
        assert read_pack(path) == sections

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rpak"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            read_pack(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "t.rpak"
        write_pack(path, {"a": b"payload"})
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(ValueError, match="truncated"):
            read_pack(path)

    def test_unicode_section_names(self, tmp_path):
        path = tmp_path / "u.rpak"
        write_pack(path, {"naïve-ß": b"x"})
        assert read_pack(path) == {"naïve-ß": b"x"}


class TestInterestingnessStorePersistence:
    def test_round_trip(self, tmp_path, env_world, env_extractor):
        phrases = [c.phrase for c in env_world.concepts[:15]]
        store = QuantizedInterestingnessStore.build(env_extractor, phrases)
        path = tmp_path / "interest.rpak"
        save_interestingness_store(store, path)
        loaded = load_interestingness_store(path)
        assert sorted(loaded.phrases()) == sorted(store.phrases())
        for phrase in phrases:
            assert loaded.extract(phrase) == store.extract(phrase)
        assert loaded.memory_bytes() == store.memory_bytes()

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "wrong.rpak"
        write_pack(path, {"kind": b"other"})
        with pytest.raises(ValueError):
            load_interestingness_store(path)


class TestRelevanceStorePersistence:
    def make_store(self):
        model = RelevanceModel(
            {
                "global warming": (("climat", 50.0), ("carbon", 30.0)),
                "stock market": (("trade", 42.0), ("carbon", 7.0)),
            }
        )
        return PackedRelevanceStore.build(model, GlobalTidTable())

    def test_round_trip_scores(self, tmp_path):
        store = self.make_store()
        path = tmp_path / "rel.rpak"
        save_relevance_store(store, path)
        loaded = load_relevance_store(path)
        for phrase in ("global warming", "stock market"):
            text = "climat carbon trade today"
            assert loaded.score_text(phrase, text) == pytest.approx(
                store.score_text(phrase, text)
            )
        assert loaded.memory_bytes() == store.memory_bytes()
        assert len(loaded.tid_table) == len(store.tid_table)

    def test_tid_sharing_preserved(self, tmp_path):
        store = self.make_store()
        path = tmp_path / "rel.rpak"
        save_relevance_store(store, path)
        loaded = load_relevance_store(path)
        # 'carbon' is shared; total distinct terms is 3
        assert len(loaded.tid_table) == 3

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "wrong.rpak"
        write_pack(path, {"kind": b"interestingness"})
        with pytest.raises(ValueError):
            load_relevance_store(path)

    def test_empty_store_round_trip(self, tmp_path):
        store = PackedRelevanceStore(GlobalTidTable(), score_max=1.0)
        path = tmp_path / "empty.rpak"
        save_relevance_store(store, path)
        loaded = load_relevance_store(path)
        assert len(loaded) == 0
        assert loaded.memory_bytes() == 0
        assert loaded.score("anything", {1, 2}) == 0.0
        assert loaded.score_many(loaded.rows_of(["a", "b"]), {1}).tolist() == [0.0, 0.0]

    def test_max_tid_boundary_round_trip(self, tmp_path):
        # Plant a term at the very top of the 22-bit TID space; packing,
        # persistence, and the sparse v2 term list must all survive it.
        table = GlobalTidTable.from_items([("edge", MAX_TID - 1), ("top", MAX_TID)])
        model = RelevanceModel({"boundary concept": (("top", 10.0), ("edge", 0.0))})
        store = PackedRelevanceStore.build(model, table, score_max=10.0)
        path = tmp_path / "edge.rpak"
        save_relevance_store(store, path)
        loaded = load_relevance_store(path)
        context = {MAX_TID - 1, MAX_TID}
        assert loaded.score("boundary concept", context) == store.score(
            "boundary concept", context
        )
        assert len(loaded.tid_table) == 2

    def test_quantize_extremes_round_trip(self, tmp_path):
        # score 0 -> code 0, score == score_max -> code 1023: both ends of
        # the 10-bit range must dequantize back to the same values.
        model = RelevanceModel({"extremes": (("zero", 0.0), ("full", 64.0))})
        store = PackedRelevanceStore.build(model, GlobalTidTable(), score_max=64.0)
        packed = store.packed("extremes")
        codes = sorted((int(p) & MAX_SCORE_CODE) for p in packed)
        assert codes == [0, MAX_SCORE_CODE]
        path = tmp_path / "extremes.rpak"
        save_relevance_store(store, path)
        loaded = load_relevance_store(path)
        both = {0, 1}
        assert loaded.score("extremes", both) == store.score("extremes", both)
        assert loaded.score("extremes", both) == 64.0

    def test_v1_header_rejected(self, tmp_path):
        """Version 2 is the only layout: a pack whose header says 1 (the
        unaligned per-phrase index) fails at load, eager or mapped."""
        path = tmp_path / "legacy.rpak"
        save_relevance_store(self.make_store(), path)
        data = bytearray(path.read_bytes())
        data[4:6] = (1).to_bytes(2, "little")  # the u16 after the magic
        path.write_bytes(bytes(data))
        for use_mmap in (True, False):
            with pytest.raises(ValueError, match="version 1"):
                load_relevance_store(path, use_mmap=use_mmap)

    def test_mmap_load_is_zero_copy(self, tmp_path):
        store = self.make_store()
        path = tmp_path / "rel.rpak"
        save_relevance_store(store, path)
        loaded = load_relevance_store(path, use_mmap=True)
        arena = loaded.arena()
        # views over the read-only map: no write access, no owned data
        assert not arena.pairs.flags.writeable
        assert not arena.pairs.flags.owndata
        eager = load_relevance_store(path, use_mmap=False)
        assert eager.memory_bytes() == loaded.memory_bytes()


class TestMappedPackErrors:
    def test_corrupt_magic_raises_clean_error(self, tmp_path):
        path = tmp_path / "bad.rpak"
        path.write_bytes(b"JUNK" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            open_pack(path)
        with pytest.raises(ValueError, match="magic"):
            load_relevance_store(path)

    def test_truncated_pack_raises_clean_error(self, tmp_path):
        good = tmp_path / "good.rpak"
        model = RelevanceModel({"x": (("a", 1.0),)})
        store = PackedRelevanceStore.build(model, GlobalTidTable(), score_max=1.0)
        save_relevance_store(store, good)
        bad = tmp_path / "cut.rpak"
        bad.write_bytes(good.read_bytes()[:-5])
        with pytest.raises(ValueError, match="truncated"):
            open_pack(bad)
        with pytest.raises(ValueError, match="truncated"):
            load_relevance_store(bad)

    def test_empty_file_raises_value_error(self, tmp_path):
        path = tmp_path / "empty.rpak"
        path.write_bytes(b"")
        with pytest.raises(ValueError):
            open_pack(path)

    def test_context_manager_and_sections(self, tmp_path):
        path = tmp_path / "ok.rpak"
        write_pack(path, {"kind": b"test", "data": b"\x01\x02"})
        with open_pack(path) as pack:
            assert "data" in pack
            assert sorted(pack.names()) == ["data", "kind"]
            assert bytes(pack["data"]) == b"\x01\x02"
            assert pack.get("missing") is None
        with open_pack(path) as pack:
            assert bytes(pack["kind"]) == b"test"
        with pytest.raises(KeyError):
            open_pack(path)["missing"]


class TestRankerPersistence:
    def fit_model(self, kernel="linear"):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 4))
        y = X @ np.array([1.0, -0.5, 0.2, 0.0])
        g = np.repeat(np.arange(10), 6)
        model = RankSVM(kernel=kernel, epochs=50, n_components=64)
        model.fit(X, y, g)
        return model, X

    def test_linear_round_trip(self, tmp_path):
        model, X = self.fit_model()
        path = tmp_path / "model.rpak"
        save_ranker(model, path)
        loaded = load_ranker(path)
        assert np.allclose(loaded.decision_function(X), model.decision_function(X))

    def test_rbf_round_trip(self, tmp_path):
        model, X = self.fit_model(kernel=KERNEL_RBF)
        path = tmp_path / "model.rpak"
        save_ranker(model, path)
        loaded = load_ranker(path)
        assert np.allclose(loaded.decision_function(X), model.decision_function(X))

    def test_config_preserved(self, tmp_path):
        model, __ = self.fit_model()
        path = tmp_path / "model.rpak"
        save_ranker(model, path)
        loaded = load_ranker(path)
        assert loaded.c == model.c
        assert loaded.kernel == model.kernel
        assert loaded.epochs == model.epochs

    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_ranker(RankSVM(), tmp_path / "x.rpak")
