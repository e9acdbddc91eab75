"""Binary data-packs: persistence for the production stores and model.

The paper's detectors use "data-packs that are pre-loaded into memory to
allow for high-performance entity detection".  This module provides the
serialization layer those packs imply: a compact sectioned binary
container plus save/load functions for the quantized interestingness
store, the packed relevance store (with its Global TID table), and a
trained :class:`~repro.ranking.ranksvm.RankSVM`.

Container format: ``RPAK`` magic, u16 version, u32 section count, then
per section a length-prefixed UTF-8 name and a u64-length payload.  All
integers little-endian.  Every payload is zero-padded to begin on an
8-byte boundary, which lets ``np.frombuffer`` view binary sections in
place — :class:`MappedPack` opens a pack over ``mmap`` and the store
loaders adopt the arena/matrix columns as zero-copy views, so cold
start is O(index), not O(corpus).  Version 2 is the only version; a
version-1 pack (unaligned, per-phrase blob index) raises ``ValueError``.
No pickle — packs are safe to load from untrusted storage.
"""

from __future__ import annotations

import json
import mmap
import struct
import time
from pathlib import Path
from typing import Dict, Iterator, List, Tuple, Union

import numpy as np

from repro.obs import get_registry

from repro.ranking.ranksvm import (
    RandomFourierFeatures,
    RankSVM,
    StandardScaler,
)
from repro.runtime.arena import PhraseArena
from repro.runtime.store import FIELD_COUNT, QuantizedInterestingnessStore
from repro.runtime.tid import GlobalTidTable, PackedRelevanceStore

_MAGIC = b"RPAK"
_VERSION = 2
_ALIGN = 8
_HEADER = len(_MAGIC) + 6  # magic + u16 version + u32 section count

PathLike = Union[str, Path]


# -- container ----------------------------------------------------------------


def write_pack(path: PathLike, sections: Dict[str, bytes]) -> None:
    """Write a sectioned binary pack to *path*."""
    with open(path, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(struct.pack("<HI", _VERSION, len(sections)))
        position = _HEADER
        for name, payload in sections.items():
            encoded = name.encode("utf-8")
            handle.write(struct.pack("<H", len(encoded)))
            handle.write(encoded)
            handle.write(struct.pack("<Q", len(payload)))
            position += 2 + len(encoded) + 8
            padding = (-position) % _ALIGN
            handle.write(b"\x00" * padding)
            position += padding
            handle.write(payload)
            position += len(payload)


def _iter_sections(buffer) -> Iterator[Tuple[str, Tuple[int, int]]]:
    """Yield (name, (payload offset, payload length)) over a pack buffer."""
    if len(buffer) < len(_MAGIC) or bytes(buffer[: len(_MAGIC)]) != _MAGIC:
        raise ValueError(
            f"not a data-pack: bad magic {bytes(buffer[: len(_MAGIC)])!r}"
        )
    if len(buffer) < _HEADER:
        raise ValueError("truncated data-pack")
    version, count = struct.unpack_from("<HI", buffer, len(_MAGIC))
    if version != _VERSION:
        raise ValueError(f"unsupported data-pack version {version}")
    position = _HEADER
    for __ in range(count):
        if position + 2 > len(buffer):
            raise ValueError("truncated data-pack")
        (name_length,) = struct.unpack_from("<H", buffer, position)
        position += 2
        if position + name_length + 8 > len(buffer):
            raise ValueError("truncated data-pack")
        name = bytes(buffer[position : position + name_length]).decode("utf-8")
        position += name_length
        (payload_length,) = struct.unpack_from("<Q", buffer, position)
        position += 8
        position += (-position) % _ALIGN
        if position + payload_length > len(buffer):
            raise ValueError("truncated data-pack")
        yield name, (position, payload_length)
        position += payload_length


def read_pack(path: PathLike) -> Dict[str, bytes]:
    """Read a pack written by :func:`write_pack` (eager copies)."""
    data = Path(path).read_bytes()
    return {
        name: bytes(data[offset : offset + length])
        for name, (offset, length) in _iter_sections(data)
    }


class MappedPack:
    """A data-pack opened over ``mmap`` for zero-copy section access.

    Section views (and numpy arrays built on them) reference the map
    directly; the pack object must stay alive as long as they do — the
    store loaders keep it as their backing reference.
    """

    def __init__(self, path: PathLike):
        started = time.perf_counter()
        self._file = open(path, "rb")
        try:
            self._map = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError) as error:
            self._file.close()
            raise ValueError(f"cannot map data-pack: {error}") from error
        self._view = memoryview(self._map)
        try:
            self._spans = dict(_iter_sections(self._view))
        except Exception:
            self.close()
            raise
        # Cold-start telemetry: open+index time, mapped bytes, and the
        # size of every section (the paper's 400 MB / 18 MB accounting).
        registry = get_registry()
        registry.counter(
            "pack_opens_total", help="data-packs opened via mmap"
        ).inc()
        registry.histogram(
            "pack_open_seconds", help="mmap open + section index time"
        ).observe(time.perf_counter() - started)
        registry.counter(
            "pack_bytes_mapped_total", help="bytes mapped across opened packs"
        ).inc(len(self._view))
        for name, (__, length) in self._spans.items():
            registry.counter(
                "pack_section_bytes_total",
                help="section payload bytes across opened packs",
                section=name,
            ).inc(length)

    def names(self) -> List[str]:
        return list(self._spans)

    def __contains__(self, name: str) -> bool:
        return name in self._spans

    def get(self, name: str):
        """Zero-copy memoryview of one section (None if absent)."""
        span = self._spans.get(name)
        if span is None:
            return None
        offset, length = span
        return self._view[offset : offset + length]

    def __getitem__(self, name: str):
        view = self.get(name)
        if view is None:
            raise KeyError(name)
        return view

    def close(self) -> None:
        """Release the map.  Only safe once no section views remain."""
        self._view.release()
        self._map.close()
        self._file.close()

    def __enter__(self) -> "MappedPack":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_pack(path: PathLike) -> MappedPack:
    """Open a data-pack for zero-copy (mmap) section access."""
    return MappedPack(path)


def _json_bytes(value) -> bytes:
    return json.dumps(value).encode("utf-8")


def _json_load(payload) -> object:
    return json.loads(bytes(payload).decode("utf-8"))


def _sections_of(path: PathLike, use_mmap: bool):
    """(section mapping, backing object to keep alive) for a load."""
    if use_mmap:
        pack = MappedPack(path)
        return pack, pack
    return read_pack(path), None


def _kind_of(sections) -> bytes:
    view = sections.get("kind")
    return b"" if view is None else bytes(view)


# -- interestingness store ------------------------------------------------------


def save_interestingness_store(
    store: QuantizedInterestingnessStore, path: PathLike
) -> None:
    """Persist a quantized interestingness store (columnar, v2)."""
    phrases, matrix = store.columns()
    write_pack(
        path,
        {
            "kind": b"interestingness",
            "meta": _json_bytes(
                {"field_max": store.field_max(), "phrases": phrases}
            ),
            "rows": np.ascontiguousarray(matrix, dtype="<u2").tobytes(),
        },
    )


def load_interestingness_store(
    path: PathLike, use_mmap: bool = True
) -> QuantizedInterestingnessStore:
    sections, backing = _sections_of(path, use_mmap)
    if _kind_of(sections) != b"interestingness":
        raise ValueError("pack does not contain an interestingness store")
    meta = _json_load(sections["meta"])
    matrix = np.frombuffer(sections["rows"], dtype="<u2").reshape(
        (-1, FIELD_COUNT)
    )
    return QuantizedInterestingnessStore(
        meta["field_max"], meta["phrases"], matrix, backing=backing
    )


# -- relevance store ------------------------------------------------------------


def save_relevance_store(store: PackedRelevanceStore, path: PathLike) -> None:
    """Persist a packed relevance store with its Global TID table.

    The columnar arena: one aligned pairs column plus an offsets
    column, loadable as zero-copy views.
    """
    arena = store.arena()
    # dense tables serialize as a TID-ordered term list (half the JSON,
    # fast dict rebuild); sparse tables fall back to (term, TID) pairs
    terms = store.tid_table.dense_terms()
    if terms is None:
        terms = [[term, tid] for term, tid in store.tid_table.items()]
    write_pack(
        path,
        {
            "kind": b"relevance",
            "meta": _json_bytes(
                {
                    "score_max": store.score_max,
                    "terms": terms,
                    "phrases": arena.phrases,
                }
            ),
            "offsets": np.ascontiguousarray(arena.offsets, dtype="<i8").tobytes(),
            "pairs": np.ascontiguousarray(arena.pairs, dtype="<u4").tobytes(),
        },
    )


def load_relevance_store(
    path: PathLike, use_mmap: bool = True
) -> PackedRelevanceStore:
    """Load a relevance store; a mapped load adopts the arena as views."""
    sections, backing = _sections_of(path, use_mmap)
    if _kind_of(sections) != b"relevance":
        raise ValueError("pack does not contain a relevance store")
    meta = _json_load(sections["meta"])
    terms = meta["terms"]
    if terms and isinstance(terms[0], list):  # sparse (term, TID) pairs
        tid_table = GlobalTidTable.from_items(terms)
    else:
        tid_table = GlobalTidTable.from_dense_terms(terms)
    arena = PhraseArena(
        np.frombuffer(sections["pairs"], dtype="<u4"),
        np.frombuffer(sections["offsets"], dtype="<i8"),
        meta["phrases"],
    )
    return PackedRelevanceStore(
        tid_table, meta["score_max"], arena, backing=backing
    )


# -- compiled detection kernel ----------------------------------------------------

_AUTOMATON_COLUMNS = ("delta", "fail", "out_len", "emits", "out_next", "sym")


def save_detection_kernel(kernel, path: PathLike) -> None:
    """Persist a compiled :class:`~repro.detection.kernel.DetectionKernel`.

    Layout (every column 8-byte aligned for zero-copy views):
    one ``<i4`` section per automaton column under a ``concepts_`` /
    ``named_`` / ``units_`` prefix (plus ``<f8`` ``units_out_score``),
    the ``<u1`` stem-flags column, the ``<f8`` single-term unit scores,
    and a JSON meta section carrying the vocabulary, the stem strings,
    and each automaton's phrase count.
    """
    automata = {}
    sections: Dict[str, bytes] = {"kind": b"detection"}
    for prefix in ("concepts", "named", "units"):
        automaton = getattr(kernel, prefix)
        if automaton is None:
            continue
        columns = automaton.columns()
        automata[prefix] = {"phrase_count": automaton.phrase_count}
        for column in _AUTOMATON_COLUMNS:
            sections[f"{prefix}_{column}"] = np.ascontiguousarray(
                columns[column], dtype="<i4"
            ).tobytes()
        if "out_score" in columns:
            sections[f"{prefix}_out_score"] = np.ascontiguousarray(
                columns["out_score"], dtype="<f8"
            ).tobytes()
    sections["meta"] = _json_bytes(
        {
            "vocab": kernel.interner.terms,
            "stems": kernel.stem_table.stems,
            "automata": automata,
        }
    )
    sections["stem_flags"] = bytes(kernel.stem_table.flags)
    sections["unit_single_scores"] = np.ascontiguousarray(
        kernel.unit_single_scores, dtype="<f8"
    ).tobytes()
    write_pack(path, sections)


def _check_covers_vocab(section: str, length: int, vocab_size: int) -> None:
    """Reject a per-term column without one entry per term + OOV slot."""
    if length != vocab_size + 1:
        raise ValueError(
            f"damaged detection pack: {section} holds {length} entries "
            f"for a vocabulary of {vocab_size} terms plus the OOV slot"
        )


def _check_finite(section: str, scores: np.ndarray) -> None:
    """Reject a score column holding NaN or an infinity."""
    if not np.isfinite(scores).all():
        raise ValueError(
            f"damaged detection pack: {section} holds a non-finite score"
        )


def _check_automaton_columns(
    prefix: str, columns: Dict[str, np.ndarray], vocab_size: int
) -> None:
    """Reject damaged automaton columns before the automaton holds them.

    Every value the scan loop uses as an index must lie in its table:
    states (``delta``/``fail``/``emits``/``out_next``, and ``out_len``,
    a phrase length, which a trie of ``S`` states keeps below ``S``) in
    ``[0, S)``, symbols in ``[0, A)``, and a score column must be
    finite.  ``delta``'s symbol-0 entries must all be 0: symbol 0 is a
    token in no phrase, which returns to the root, and the scan never
    steps on it but keeps each state's emit in that slot.  A flipped
    entry would otherwise load cleanly and mis-detect, or raise
    mid-scan.  One vectorized min/max per column keeps the check far
    below the load itself.
    """
    states = len(columns["fail"])
    delta = columns["delta"]
    alphabet = len(delta) // states if states else 0
    if not alphabet or len(delta) != states * alphabet:
        raise ValueError(
            f"damaged detection pack: {prefix}_delta holds {len(delta)} "
            f"entries, not a whole number of rows for {states} states"
        )
    if delta[::alphabet].any():
        raise ValueError(
            f"damaged detection pack: {prefix}_delta has a nonzero "
            f"symbol-0 entry (a token in no phrase must return to the root)"
        )
    _check_covers_vocab(f"{prefix}_sym", len(columns["sym"]), vocab_size)
    for column in ("out_len", "emits", "out_next", "out_score"):
        values = columns.get(column)
        if values is not None and len(values) != states:
            raise ValueError(
                f"damaged detection pack: {prefix}_{column} holds "
                f"{len(values)} entries for {states} states"
            )
    for column in _AUTOMATON_COLUMNS:
        values = columns[column]
        limit = alphabet if column == "sym" else states
        if values.size and (values.min() < 0 or values.max() >= limit):
            raise ValueError(
                f"damaged detection pack: {prefix}_{column} holds values "
                f"outside [0, {limit})"
            )
    if "out_score" in columns:
        _check_finite(f"{prefix}_out_score", columns["out_score"])


def _check_stem_columns(
    flags: np.ndarray, stems: list, single_scores: np.ndarray, vocab_size: int
) -> None:
    """Reject a damaged stem table or single-term unit score column.

    ``stem_flags`` must hold one flag per term plus the OOV slot, each
    0 (content), 1 (stopword) or 2 (OOV), with the 2 at the OOV slot
    and nowhere else; ``meta.stems`` a string for every content term;
    ``unit_single_scores`` one finite score per term plus the OOV slot.
    Any other value would load cleanly and then drop words from the
    stemmer pass, append ``None`` stems, or mis-score units.  A content
    flag flipped to stopword is a legal value and is not caught here.
    """
    _check_covers_vocab("stem_flags", len(flags), vocab_size)
    if flags.max() > 2:
        raise ValueError(
            "damaged detection pack: stem_flags holds a flag other than "
            "0 (content), 1 (stopword) or 2 (OOV)"
        )
    if np.flatnonzero(flags == 2).tolist() != [vocab_size]:
        raise ValueError(
            "damaged detection pack: stem_flags must flag the OOV slot, "
            "and only it, as 2"
        )
    _check_covers_vocab("meta.stems", len(stems), vocab_size)
    for vid in np.flatnonzero(flags == 0).tolist():
        if not isinstance(stems[vid], str):
            raise ValueError(
                f"damaged detection pack: meta.stems has no stem for "
                f"content term {vid}"
            )
    _check_covers_vocab("unit_single_scores", len(single_scores), vocab_size)
    _check_finite("unit_single_scores", single_scores)


def load_detection_kernel(path: PathLike):
    """Load a compiled detection kernel pack.

    The flat columns are viewed with ``np.frombuffer`` (the 8-byte
    alignment makes that valid in place), range-checked, and held by
    the automata as they are.  The kernel compiles its detector scan
    from the concept and named columns; the units scan is built on the
    concept-vector baseline's first document, so the units automaton
    costs a serving process only its arrays.  The pack is read eagerly
    rather than kept mapped: the kept views hold their section's bytes,
    not the file.  A column whose lengths or values cannot come from a
    compiled kernel raises ``ValueError`` naming its section.
    """
    from repro.detection.kernel import (
        DetectionKernel,
        FlatAutomaton,
        StemTable,
        TokenInterner,
    )

    sections = read_pack(path)
    if _kind_of(sections) != b"detection":
        raise ValueError("pack does not contain a detection kernel")
    meta = _json_load(sections["meta"])
    interner = TokenInterner(meta["vocab"])
    flags = np.frombuffer(sections["stem_flags"], dtype=np.uint8)
    single_scores = np.frombuffer(sections["unit_single_scores"], dtype="<f8")
    _check_stem_columns(flags, meta["stems"], single_scores, len(interner))
    stem_table = StemTable(bytes(sections["stem_flags"]), meta["stems"])
    automata = {}
    for prefix, info in meta["automata"].items():
        columns = {
            column: np.frombuffer(sections[f"{prefix}_{column}"], dtype="<i4")
            for column in _AUTOMATON_COLUMNS
        }
        score_payload = sections.get(f"{prefix}_out_score")
        if score_payload is not None:
            columns["out_score"] = np.frombuffer(score_payload, dtype="<f8")
        _check_automaton_columns(prefix, columns, len(interner))
        automata[prefix] = FlatAutomaton(
            interner, phrase_count=int(info["phrase_count"]), **columns
        )
    return DetectionKernel(
        interner,
        stem_table,
        concepts=automata.get("concepts"),
        named=automata.get("named"),
        units=automata.get("units"),
        unit_single_scores=single_scores,
    )


# -- trained ranking model --------------------------------------------------------


def save_ranker(model: RankSVM, path: PathLike) -> None:
    """Persist a fitted RankSVM (weights, scaler, feature map, config)."""
    if model.weights_ is None:
        raise ValueError("cannot save an unfitted model")
    config = {
        "c": model.c,
        "epochs": model.epochs,
        "kernel": model.kernel,
        "gamma": model.gamma,
        "n_components": model.n_components,
        "min_label_gap": model.min_label_gap,
        "max_pairs_per_group": model.max_pairs_per_group,
        "weight_pairs_by_label_gap": model.weight_pairs_by_label_gap,
        "seed": model.seed,
    }
    sections: Dict[str, bytes] = {
        "kind": b"ranksvm",
        "meta": _json_bytes(config),
        "weights": model.weights_.astype("<f8").tobytes(),
        "scaler_mean": model._scaler.mean_.astype("<f8").tobytes(),
        "scaler_scale": model._scaler.scale_.astype("<f8").tobytes(),
    }
    if model._feature_map is not None:
        sections["rff_weights"] = model._feature_map._weights.astype(
            "<f8"
        ).tobytes()
        sections["rff_offsets"] = model._feature_map._offsets.astype(
            "<f8"
        ).tobytes()
    write_pack(path, sections)


def load_ranker(path: PathLike) -> RankSVM:
    sections = read_pack(path)
    if sections.get("kind") != b"ranksvm":
        raise ValueError("pack does not contain a RankSVM model")
    config = _json_load(sections["meta"])
    model = RankSVM(**config)
    model.weights_ = np.frombuffer(sections["weights"], dtype="<f8").copy()
    scaler = StandardScaler()
    scaler.mean_ = np.frombuffer(sections["scaler_mean"], dtype="<f8").copy()
    scaler.scale_ = np.frombuffer(sections["scaler_scale"], dtype="<f8").copy()
    model._scaler = scaler
    if "rff_weights" in sections:
        feature_map = RandomFourierFeatures(
            gamma=config["gamma"],
            n_components=config["n_components"],
            seed=config["seed"],
        )
        n_features = scaler.mean_.shape[0]
        feature_map._weights = (
            np.frombuffer(sections["rff_weights"], dtype="<f8")
            .reshape((n_features, config["n_components"]))
            .copy()
        )
        feature_map._offsets = np.frombuffer(
            sections["rff_offsets"], dtype="<f8"
        ).copy()
        model._feature_map = feature_map
    return model
