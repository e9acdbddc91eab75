"""Section VI: production framework footprint and throughput.

Paper, on a 2006-era dual-core Opteron 275: 1445 documents of 2.5 KB
average with 6.45 detections each; stemmer 7.9 MB/s, ranker 2.4 MB/s.
Memory: 18 MB interestingness store and ~400 MB relevance store per
1 million concepts, with Golomb coding proposed to shrink the latter.

We measure the same quantities at our concept-universe scale and report
the per-1M-concepts extrapolation next to the paper's figures.  Python
throughput is not expected to match a C++ production system; the shape
to reproduce is stemmer-faster-than-ranker and the storage arithmetic.
"""

from _report import record_section
from repro.obs import MetricsRegistry
from repro.ranking import RankSVM
from repro.runtime import (
    CompressedRelevanceStore,
    GlobalTidTable,
    PackedRelevanceStore,
    QuantizedInterestingnessStore,
    RankerService,
)


def test_framework_throughput(benchmark, bench_env, bench_experiment):
    env = bench_env
    inventory = [c.phrase for c in env.world.concepts]

    interestingness = QuantizedInterestingnessStore.build(env.extractor, inventory)
    relevance_model = env.relevance_model(inventory)
    tid_table = GlobalTidTable()
    relevance = PackedRelevanceStore.build(relevance_model, tid_table)

    features = bench_experiment.feature_matrix((), "snippets")
    svm = RankSVM()
    svm.fit(
        features,
        bench_experiment._labels_arr,
        bench_experiment._groups_arr,
    )
    service = RankerService(
        env.pipeline, interestingness, relevance, svm, registry=MetricsRegistry()
    )

    documents = [story.text for story in env.stories(300, seed=4242)]
    total_bytes = sum(len(text.encode("utf-8")) for text in documents)

    def run():
        service.registry.reset()  # one measurement window per run
        ranked = service.process_batch(documents, top=5)
        return ranked, service.throughput()

    ranked, rates = benchmark.pedantic(run, rounds=1, iterations=1)
    detections = sum(len(result) for result in ranked)

    concepts = len(interestingness)
    per_million_interest = interestingness.memory_bytes() / concepts * 1e6 / 1e6
    per_million_relevance = relevance.memory_bytes() / concepts * 1e6 / 1e6
    compressed = CompressedRelevanceStore.from_packed(relevance)
    per_million_compressed = compressed.memory_bytes() / concepts * 1e6 / 1e6
    lines = [
        f"documents: {len(documents)}, "
        f"{total_bytes / len(documents) / 1e3:.2f} KB avg "
        f"(paper: 1445 docs, 2.5 KB avg)",
        f"detections/doc: {detections / len(documents):.2f} (paper: 6.45)",
        f"stemmer throughput: {rates['stemmer']:6.2f} MB/s "
        f"(paper: 7.9 MB/s, C++ on 2006 hardware)",
        f"ranker  throughput: {rates['ranker']:6.2f} MB/s "
        f"(paper: 2.4 MB/s)",
        f"interestingness store: {per_million_interest:6.1f} MB per 1M concepts "
        f"(paper: 18 MB)",
        f"relevance store:       {per_million_relevance:6.1f} MB per 1M concepts "
        f"(paper: ~400 MB)",
        f"relevance store (Golomb): {per_million_compressed:6.1f} MB per 1M "
        f"(the paper's proposed compression)",
        f"global TID table: {len(tid_table)} terms for "
        f"{relevance.memory_bytes() // 4} pairs (TIDs shared across concepts)",
    ]
    record_section("Section VI — framework footprint and throughput", lines)

    assert rates["stemmer"] > rates["ranker"]
    assert per_million_interest == 18.0  # 9 fields x 2 bytes
    assert 200.0 <= per_million_relevance <= 400.0  # <=100 pairs x 4 bytes
    assert per_million_compressed < per_million_relevance
    assert len(tid_table) <= (1 << 22)
