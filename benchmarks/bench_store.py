"""Serving-store microbenchmark: columnar arena vs. seed per-element loop.

The seed relevance store kept a dict of per-concept packed arrays and
scored by unpacking every (TID, score) pair in Python, testing set
membership, and dequantizing one element at a time.  The columnar
refactor stores every concept in one contiguous arena, scores with
vectorized numpy (shift out the TID column, sorted-intersect against
the document context, dequantize the matches), and batches a whole
document's candidates through one ``score_many`` call.

This benchmark builds a synthetic relevance model at the paper's shape
(m = 100 keywords per concept), then records:

* relevance-lookup throughput (lookups/sec) for the seed loop, the
  columnar store, and the Golomb–Rice compressed store,
* cold-start seconds: one pack loaded eagerly (read into memory) and
  over ``mmap`` (zero-copy views),
* resident bytes for the packed and compressed stores,
* equivalence flags — the vectorized paths must match the seed loop
  *exactly* (same floats), not approximately,

and writes a machine-readable snapshot to ``BENCH_store.json``.

Run standalone (``python benchmarks/bench_store.py [--smoke]``) or
under pytest (``PYTHONPATH=src pytest benchmarks/bench_store.py``).
"""

import json
import os
import sys
import tempfile
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
for path in (_HERE, os.path.join(os.path.dirname(_HERE), "src")):
    if path not in sys.path:  # allow `python benchmarks/bench_store.py`
        sys.path.insert(0, path)

import numpy as np

from _report import attach_metrics, record_section
from repro.features import RelevanceModel
from repro.features.quantize import dequantize
from repro.runtime import (
    CompressedRelevanceStore,
    PackedRelevanceStore,
    load_relevance_store,
    save_relevance_store,
    unpack_pair,
)
from repro.runtime.tid import SCORE_BITS

SNAPSHOT_PATH = os.path.join(_HERE, "BENCH_store.json")

CONCEPT_COUNT = int(os.environ.get("REPRO_BENCH_STORE_CONCEPTS", "1200"))
SMOKE_CONCEPT_COUNT = 220
VOCABULARY = 8000
TERMS_PER_CONCEPT = 100  # the paper's m = 100 relevant keywords
CONTEXT_COUNT = 24
CONTEXT_SIZE = 150
MIN_SPEEDUP = 5.0  # acceptance: columnar >= 5x the seed loop


def synthetic_model(concepts, seed=41):
    """A relevance model at the paper's per-concept keyword budget."""
    rng = np.random.default_rng(seed)
    entries = {}
    for index in range(concepts):
        term_ids = rng.choice(VOCABULARY, size=TERMS_PER_CONCEPT, replace=False)
        entries[f"concept {index}"] = tuple(
            (f"term{tid}", float(rng.uniform(0.01, 90.0))) for tid in term_ids
        )
    return RelevanceModel(entries)


def document_contexts(store, seed=43):
    """Synthetic document contexts as TID sets (the seed's input shape)."""
    rng = np.random.default_rng(seed)
    universe = np.asarray(sorted(tid for __, tid in store.tid_table.items()))
    return [
        set(rng.choice(universe, size=min(CONTEXT_SIZE, universe.size),
                       replace=False).tolist())
        for __ in range(CONTEXT_COUNT)
    ]


def seed_score_loop(store, phrase, context):
    """The seed implementation: unpack every pair in Python, sum matches."""
    total = 0.0
    for packed in store.packed(phrase).tolist():
        tid, code = unpack_pair(packed)
        if tid in context:
            total += dequantize(code, store.score_max, SCORE_BITS)
    return total


def run_store_benchmark(concept_count=CONCEPT_COUNT):
    model = synthetic_model(concept_count)
    packed = PackedRelevanceStore.build(model)
    compressed = CompressedRelevanceStore.from_packed(packed)
    phrases = packed.phrases()
    contexts = document_contexts(packed)
    lookups = len(phrases) * len(contexts)

    # -- seed per-element loop ---------------------------------------------
    started = time.perf_counter()
    seed_scores = [
        [seed_score_loop(packed, phrase, context) for phrase in phrases]
        for context in contexts
    ]
    seed_seconds = time.perf_counter() - started

    # -- columnar vectorized batch -----------------------------------------
    started = time.perf_counter()
    columnar_scores = [
        packed.score_many(packed.rows_of(phrases), context).tolist()
        for context in contexts
    ]
    columnar_seconds = time.perf_counter() - started

    # -- per-phrase vectorized (no batching) --------------------------------
    single_scores = [
        [packed.score(phrase, context) for phrase in phrases]
        for context in contexts
    ]

    # -- compressed store: batch decode per context -------------------------
    started = time.perf_counter()
    compressed_scores = [
        compressed.score_many(compressed.rows_of(phrases), context).tolist()
        for context in contexts
    ]
    compressed_seconds = time.perf_counter() - started

    # -- cold start: eager load vs mmap load of one pack ---------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "relevance.rpak")
        save_relevance_store(packed, path)
        started = time.perf_counter()
        eager = load_relevance_store(path, use_mmap=False)
        eager_seconds = time.perf_counter() - started
        started = time.perf_counter()
        mapped = load_relevance_store(path, use_mmap=True)
        mmap_seconds = time.perf_counter() - started
        probe_context = contexts[0]
        mmap_matches = all(
            mapped.score(phrase, probe_context) == packed.score(phrase, probe_context)
            and eager.score(phrase, probe_context)
            == packed.score(phrase, probe_context)
            for phrase in phrases[:: max(1, len(phrases) // 50)]
        )
        pack_bytes = os.path.getsize(path)

    snapshot = {
        "config": {
            "concepts": len(phrases),
            "terms_per_concept": TERMS_PER_CONCEPT,
            "vocabulary": VOCABULARY,
            "contexts": len(contexts),
            "context_size": CONTEXT_SIZE,
            "lookups": lookups,
        },
        "lookup": {
            "seed_ops_per_second": round(lookups / seed_seconds, 1),
            "columnar_ops_per_second": round(lookups / columnar_seconds, 1),
            "compressed_ops_per_second": round(lookups / compressed_seconds, 1),
            "speedup_columnar_vs_seed": round(seed_seconds / columnar_seconds, 2),
        },
        "cold_start": {
            "eager_seconds": round(eager_seconds, 5),
            "mmap_seconds": round(mmap_seconds, 5),
            "pack_bytes": pack_bytes,
        },
        "resident": {
            "packed_bytes": packed.memory_bytes(),
            "compressed_bytes": compressed.memory_bytes(),
            "compression_ratio": round(
                packed.memory_bytes() / max(1, compressed.memory_bytes()), 3
            ),
        },
        "equivalence": {
            "columnar_matches_seed": columnar_scores == seed_scores,
            "score_matches_score_many": single_scores == columnar_scores,
            "compressed_matches_seed": compressed_scores == seed_scores,
            "mmap_load_matches_memory": bool(mmap_matches),
        },
    }
    return snapshot


def check_snapshot(snapshot):
    """The PR's acceptance criteria, enforced on every run."""
    flags = snapshot["equivalence"]
    assert all(flags.values()), flags
    speedup = snapshot["lookup"]["speedup_columnar_vs_seed"]
    assert speedup >= MIN_SPEEDUP, snapshot["lookup"]
    assert snapshot["resident"]["compressed_bytes"] < snapshot["resident"][
        "packed_bytes"
    ], snapshot["resident"]


def report_lines(snapshot):
    lookup = snapshot["lookup"]
    cold = snapshot["cold_start"]
    resident = snapshot["resident"]
    return [
        f"concepts: {snapshot['config']['concepts']} x "
        f"{snapshot['config']['terms_per_concept']} keywords, "
        f"{snapshot['config']['lookups']} lookups",
        f"lookup throughput: seed loop {lookup['seed_ops_per_second']:10.0f} ops/s"
        f" -> columnar {lookup['columnar_ops_per_second']:10.0f} ops/s "
        f"({lookup['speedup_columnar_vs_seed']:.1f}x)",
        f"compressed store: "
        f"{lookup['compressed_ops_per_second']:10.0f} ops/s",
        f"cold start: eager {cold['eager_seconds'] * 1e3:8.2f} ms, "
        f"mmap {cold['mmap_seconds'] * 1e3:8.2f} ms "
        f"({cold['pack_bytes'] / 1e6:.2f} MB pack)",
        f"resident: packed {resident['packed_bytes'] / 1e6:.2f} MB, "
        f"compressed {resident['compressed_bytes'] / 1e6:.2f} MB "
        f"({resident['compression_ratio']:.2f}x smaller)",
        f"equivalence: {snapshot['equivalence']}",
    ]


def test_store_columnar():
    """Pytest entry: run the benchmark and enforce the acceptance bar."""
    snapshot = run_store_benchmark()
    check_snapshot(snapshot)
    with open(SNAPSHOT_PATH, "w") as handle:
        json.dump(attach_metrics(snapshot), handle, indent=1)
        handle.write("\n")
    record_section("Serving store — columnar arena vs seed loop", report_lines(snapshot))


def main(argv):
    count = SMOKE_CONCEPT_COUNT if "--smoke" in argv else CONCEPT_COUNT
    snapshot = run_store_benchmark(count)
    check_snapshot(snapshot)
    if "--smoke" not in argv:  # the snapshot tracks the full-size run only
        with open(SNAPSHOT_PATH, "w") as handle:
            json.dump(attach_metrics(snapshot), handle, indent=1)
            handle.write("\n")
    print("\n".join(report_lines(snapshot)))
    print("store benchmark OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
