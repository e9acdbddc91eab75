#!/usr/bin/env python
"""The production framework (paper Section VI) end to end.

Builds the quantized interestingness store (2 bytes per field), the
Global TID table with packed 32-bit (TID, score) relevance pairs,
reports memory footprints (including the Golomb-coded variant the
paper proposes), and measures stemmer/ranker throughput over a batch
of documents — the paper's 7.9 MB/s / 2.4 MB/s experiment.

Run:  python examples/production_framework.py
"""

from repro import Environment, EnvironmentConfig, WorldConfig
from repro.eval import RankingExperiment, collect_dataset
from repro.obs import MetricsRegistry
from repro.ranking import RankSVM
from repro.runtime import (
    CompressedRelevanceStore,
    GlobalTidTable,
    PackedRelevanceStore,
    QuantizedInterestingnessStore,
    RankerService,
)

WORLD = WorldConfig(
    seed=31,
    vocabulary_size=1800,
    topic_count=24,
    words_per_topic=50,
    concept_count=240,
    topic_page_count=150,
)


def main() -> None:
    print("building environment ...")
    env = Environment.build(EnvironmentConfig(world=WORLD))
    inventory = [c.phrase for c in env.world.concepts]

    print("offline: computing + quantizing interestingness vectors ...")
    interestingness = QuantizedInterestingnessStore.build(env.extractor, inventory)
    per_concept = interestingness.memory_bytes() / len(interestingness)
    print(
        f"  {len(interestingness)} concepts x {per_concept:.0f} bytes "
        f"= {interestingness.memory_bytes() / 1e3:.1f} KB "
        f"(paper: 18 MB per 1M concepts -> ours extrapolates to "
        f"{per_concept * 1e6 / 1e6:.0f} MB per 1M)"
    )

    print("offline: mining relevant keywords + packing (TID, score) pairs ...")
    model = env.relevance_model(inventory)
    tid_table = GlobalTidTable()
    relevance = PackedRelevanceStore.build(model, tid_table)
    pairs = relevance.memory_bytes() // 4
    coded = CompressedRelevanceStore.from_packed(relevance).memory_bytes()
    print(
        f"  {len(relevance)} concepts, {pairs} packed pairs, "
        f"{len(tid_table)} distinct TIDs (sharing across concepts)"
    )
    print(
        f"  packed store: {relevance.memory_bytes() / 1e3:.1f} KB; "
        f"Golomb-coded: {coded / 1e3:.1f} KB "
        f"({(1 - coded / relevance.memory_bytes()) * 100:.0f}% smaller)"
    )

    print("training the ranking model on click data ...")
    dataset = collect_dataset(env, 150, story_seed=5)
    experiment = RankingExperiment(env, dataset)
    features = experiment.feature_matrix((), "snippets")
    svm = RankSVM()
    svm.fit(features, experiment._labels_arr, experiment._groups_arr)

    # A private registry: throughput() reads this service's own stage
    # histograms, not every service's in the process.
    service = RankerService(
        env.pipeline, interestingness, relevance, svm, registry=MetricsRegistry()
    )

    print("runtime: processing a batch of documents ...")
    documents = [story.text for story in env.stories(200, seed=777)]
    ranked = service.process_batch(documents, top=3)
    rates = service.throughput()
    total_bytes = sum(len(text.encode("utf-8")) for text in documents)
    print(
        f"  {len(documents)} documents, "
        f"{total_bytes / 1e6:.2f} MB total, "
        f"{sum(len(r) for r in ranked) / len(documents):.2f} annotations/doc"
    )
    print(
        f"  stemmer: {rates['stemmer']:6.2f} MB/s   "
        f"(paper measured 7.9 MB/s on 2006 hardware)"
    )
    print(
        f"  ranker : {rates['ranker']:6.2f} MB/s   "
        f"(paper measured 2.4 MB/s on 2006 hardware)"
    )
    print(
        "  stages : "
        + ", ".join(
            f"{stage} {rates[stage]:.2f}"
            for stage in ("detect", "features", "rank")
        )
        + " MB/s"
    )


if __name__ == "__main__":
    main()
