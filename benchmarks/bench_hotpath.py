"""Hot-path microbenchmark: seed multi-pass vs single-pass vs compiled.

The seed runtime tokenized every document five times (stemmer pass,
named matcher, concept matcher, concept-vector scorer, and the ranker's
relevance context) and matched phrases with per-position tuple slicing.
The single-pass refactor shares one ``TokenizedDocument`` across all
stages and walks a token trie instead.  The compiled detection kernel
goes further: interned token-id arrays, flat Aho–Corasick automata for
concept/named/unit matching, and a precomputed vocab->stem table.

This benchmark runs all three shapes over the same document batch and
records:

* tokenizer invocations per document (seed: 5, otherwise: 1) and — for
  the compiled path — interning passes per document (must be 1),
* per-path throughput in MB/s, plus the automaton path's speedups over
  the seed path and over the pure-Python single-pass path,
* byte-equivalence of every path's ranked output,
* the service's per-stage throughput (``RankerService.throughput``),
  read from a private registry that is reset before each timed pass,

and writes a machine-readable snapshot to ``BENCH_hotpath.json`` so
future PRs have a throughput trajectory to compare against.  When a
previous snapshot exists, the run also enforces a regression floor: the
automaton-vs-seed speedup *ratio* (machine-independent) must stay
within 20% of the checked-in baseline.

Run standalone (``python benchmarks/bench_hotpath.py [--smoke]``) or
under pytest (``PYTHONPATH=src pytest benchmarks/bench_hotpath.py``).
"""

import json
import os
import sys
import time
from contextlib import contextmanager

_HERE = os.path.dirname(os.path.abspath(__file__))
for path in (_HERE, os.path.join(os.path.dirname(_HERE), "src")):
    if path not in sys.path:  # allow `python benchmarks/bench_hotpath.py`
        sys.path.insert(0, path)

import numpy as np

from _report import attach_metrics, record_section
from repro.corpus import WorldConfig, SyntheticWorld
from repro.detection import (
    ConceptDetector,
    ConceptVectorScorer,
    KIND_PATTERN,
    NamedEntityDetector,
    ShortcutsPipeline,
    deduplicate,
    detectable_concept_phrases,
    resolve_collisions,
)
from repro.detection.pipeline import AnnotatedDocument
from repro.features import (
    InterestingnessExtractor,
    RelevanceModel,
    RelevantKeywordMiner,
    build_stemmed_df,
    stemmed_terms,
)
from repro.querylog import UnitMiner, query_log_for_world
from repro.obs import MetricsRegistry
from repro.ranking import RankSVM
from repro.runtime import (
    PackedRelevanceStore,
    QuantizedInterestingnessStore,
    RankerService,
)
from repro.detection.kernel import (
    intern_call_count,
    reset_intern_call_count,
)
from repro.search import PrismaTool, SearchEngine, SnippetService, SuggestionService
from repro.text import reset_tokenize_call_count, tokenize_call_count

SNAPSHOT_PATH = os.path.join(_HERE, "BENCH_hotpath.json")

HOTPATH_WORLD = WorldConfig(
    seed=7,
    vocabulary_size=2000,
    topic_count=24,
    words_per_topic=50,
    concept_count=220,
    topic_page_count=150,
)
DOCUMENT_COUNT = int(os.environ.get("REPRO_BENCH_HOTPATH_DOCS", "300"))
SMOKE_DOCUMENT_COUNT = 40
RELEVANCE_PHRASES = 40
# the three timed paths are interleaved into this many rounds and the
# per-path minimum over rounds is recorded.  Min-of-N is the standard
# noise-robust estimator (timeit's default): host interference only
# ever adds time, so the minimum is the measurement.  Interleaving
# matters because the headline numbers are *ratios*: shared-host CPU
# speed wanders on multi-second timescales, and timing each path in
# its own contiguous block lets a slow window land entirely on one
# path and skew the ratio.  With seed/single/automaton adjacent inside
# every round, each round's paths see the same host conditions.
BENCH_REPEATS = int(os.environ.get("REPRO_BENCH_HOTPATH_REPEATS", "3"))


def build_service(document_count, with_quality=False, kernel=None,
                  registry=None):
    """A RankerService over a small deterministic world, plus documents.

    *kernel* is forwarded to :class:`ShortcutsPipeline` (None here: the
    benchmark times the pure-Python path first and compiles the kernel
    explicitly afterwards, outside any timed region).

    With *with_quality* the service also carries a QualityMonitor and a
    DriftDetector baselined on the fresh store (both registering into
    the process-wide registry), matching the ``repro serve`` shape.
    *registry* isolates the service's own metrics (default: the
    process-wide registry).
    """
    world = SyntheticWorld.build(HOTPATH_WORLD)
    log = query_log_for_world(world)
    lexicon = UnitMiner().mine(log)
    engine = SearchEngine.from_corpus(world.web_corpus)
    detectable = detectable_concept_phrases(
        (tuple(c.terms) for c in world.concepts), lexicon, log
    )
    pipeline = ShortcutsPipeline(
        ConceptDetector(detectable, lexicon),
        ConceptVectorScorer(world.doc_frequency, lexicon),
        named_detector=NamedEntityDetector(world.dictionary),
        kernel=kernel,
    )
    extractor = InterestingnessExtractor(
        log, lexicon, engine, world.dictionary, world.wikipedia
    )
    phrases = [c.phrase for c in world.concepts]
    interestingness = QuantizedInterestingnessStore.build(extractor, phrases)
    miner = RelevantKeywordMiner(
        SnippetService(engine),
        PrismaTool(engine),
        SuggestionService(log),
        build_stemmed_df(doc.text for doc in world.web_corpus),
    )
    model = RelevanceModel.mine_all(miner, phrases[:RELEVANCE_PHRASES])
    relevance = PackedRelevanceStore.build(model)

    feature_dim = extractor.extract(phrases[0]).numeric(()).size + 1
    svm = RankSVM(epochs=30)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, feature_dim))
    svm.fit(X, X[:, 0], np.repeat(np.arange(8), 5))

    quality = drift = None
    if with_quality:
        from repro.obs.quality import (
            DriftBaseline,
            DriftDetector,
            QualityMonitor,
        )

        quality = QualityMonitor()
        drift = DriftDetector(DriftBaseline.from_store(interestingness))
    service = RankerService(
        pipeline, interestingness, relevance, svm,
        registry=registry, quality=quality, drift=drift,
    )
    documents = [
        story.text for story in world.story_generator(seed=4242).generate_many(
            document_count
        )
    ]
    return service, documents


@contextmanager
def seed_era_stemmer():
    """Run the seed emulation with the seed's *unmemoized* stemmer.

    The seed runtime paid a fresh Porter walk for every token
    occurrence; the bounded ``stem`` memo arrived with the compiled
    kernel work.  Left in place it would leak into the seed timing and
    silently shrink the baseline this benchmark is meant to preserve,
    so the seed block swaps ``stemmed_terms``'s stemmer back to the
    raw implementation (output is identical either way).
    """
    import repro.features.relevance as relevance_module
    from repro.text.stemmer import stem as memoized_stem

    relevance_module.stem = memoized_stem.__wrapped__
    try:
        yield
    finally:
        relevance_module.stem = memoized_stem


def seed_process(service, text, top=None):
    """The seed (multi-pass) service shape: one tokenization per stage."""
    stemmed_terms(text)  # the seed's discarded Stemmer timing pass
    pipeline = service._pipeline
    candidates = list(pipeline._patterns.detect(text))
    if pipeline._named is not None:
        candidates.extend(pipeline._named.detect(text))
    candidates.extend(pipeline._concepts.detect(text))
    resolved = deduplicate(resolve_collisions(candidates))
    vector = pipeline._scorer.concept_vector(text)
    scored = [
        d
        if d.kind == KIND_PATTERN
        else d.with_score(pipeline._scorer.score_phrase(vector, d.phrase))
        for d in resolved
    ]
    known = [d for d in scored if d.kind != KIND_PATTERN and d.phrase in service._store]
    pruned = AnnotatedDocument(text=text, detections=known)  # no shared tokens
    ranked = service._ranker.rank_document(pruned)
    return ranked[:top] if top is not None else ranked


def run_hotpath_benchmark(document_count=DOCUMENT_COUNT):
    service, documents = build_service(
        document_count, registry=MetricsRegistry()
    )
    total_bytes = sum(len(text.encode("utf-8")) for text in documents)
    count = len(documents)

    # compile once, outside every timed region (offline builds ship the
    # kernel in the pack; lazy compilation is a one-time cost either
    # way), then detach — each round attaches/detaches it so the pure
    # and compiled paths alternate under the same host conditions
    kernel = service._pipeline.compile_kernel()
    service._pipeline.attach_kernel(None)

    # untimed warm-up: one pass per service path fills the stem/idf
    # memos so no timed round pays first-touch costs
    service.process_batch(documents, top=5)
    service._pipeline.attach_kernel(kernel)
    service.process_batch(documents, top=5)

    infinity = float("inf")
    seed_seconds = single_seconds = infinity
    automaton_seconds = infinity

    for _round in range(BENCH_REPEATS):
        # -- seed multi-pass shape (kernel detached) ----------------------
        service._pipeline.attach_kernel(None)
        reset_tokenize_call_count()
        with seed_era_stemmer():
            started = time.perf_counter()
            seed_results = [
                seed_process(service, text, top=5) for text in documents
            ]
            seed_seconds = min(
                seed_seconds, time.perf_counter() - started
            )
        seed_calls_per_doc = tokenize_call_count() / count

        # -- single-pass service (pure-Python passes) ---------------------
        service.registry.reset()
        reset_tokenize_call_count()
        started = time.perf_counter()
        single_results = service.process_batch(documents, top=5)
        single_seconds = min(single_seconds, time.perf_counter() - started)
        single_calls_per_doc = tokenize_call_count() / count
        rates = service.throughput()

        # -- compiled automaton kernel ------------------------------------
        service._pipeline.attach_kernel(kernel)
        service.registry.reset()
        reset_tokenize_call_count()
        reset_intern_call_count()
        started = time.perf_counter()
        automaton_results = service.process_batch(documents, top=5)
        automaton_seconds = min(
            automaton_seconds, time.perf_counter() - started
        )
        automaton_tokenize_per_doc = tokenize_call_count() / count
        automaton_intern_per_doc = intern_call_count() / count
        automaton_rates = service.throughput()

    snapshot = {
        "config": {
            "documents": len(documents),
            "bytes": total_bytes,
            "world_seed": HOTPATH_WORLD.seed,
            "concepts": HOTPATH_WORLD.concept_count,
        },
        "tokenize_calls_per_document": {
            "seed_path": round(seed_calls_per_doc, 3),
            "single_pass": round(single_calls_per_doc, 3),
            "automaton": round(automaton_tokenize_per_doc, 3),
        },
        "seed_path": {
            "seconds": round(seed_seconds, 4),
            "mb_per_second": round(total_bytes / seed_seconds / 1e6, 4),
        },
        "single_pass": {
            "seconds": round(single_seconds, 4),
            "mb_per_second": round(total_bytes / single_seconds / 1e6, 4),
            "stemmer_mb_per_second": round(rates["stemmer"], 4),
            "ranker_mb_per_second": round(rates["ranker"], 4),
            "detection_mb_per_second": round(rates["detect"], 4),
            "feature_mb_per_second": round(rates["features"], 4),
        },
        "automaton": {
            "seconds": round(automaton_seconds, 4),
            "mb_per_second": round(total_bytes / automaton_seconds / 1e6, 4),
            "speedup_vs_seed": round(seed_seconds / automaton_seconds, 3),
            "speedup_vs_single_pass": round(
                single_seconds / automaton_seconds, 3
            ),
            "intern_calls_per_document": round(automaton_intern_per_doc, 3),
            "identical_to_seed_path": automaton_results == seed_results,
            "identical_to_pure_python": automaton_results == single_results,
            "stemmer_mb_per_second": round(automaton_rates["stemmer"], 4),
            "ranker_mb_per_second": round(automaton_rates["ranker"], 4),
            "detection_mb_per_second": round(automaton_rates["detect"], 4),
            "feature_mb_per_second": round(automaton_rates["features"], 4),
        },
        "results_identical_to_seed_path": single_results == seed_results,
    }
    return snapshot


MIN_AUTOMATON_SPEEDUP = 10.0
FLOOR_FRACTION = 0.8  # regression gate: keep >= 80% of the baseline ratio


def check_snapshot(snapshot, smoke=False):
    """The PR's acceptance criteria, enforced on every run.

    Smoke runs (a few dozen documents on shared CI hardware) check
    every equivalence and structural invariant but leave the hard
    ``MIN_AUTOMATON_SPEEDUP`` bar to full-size runs — at smoke scale
    the ratio is still gated, just by the baseline floor
    (:func:`check_against_baseline`) rather than the absolute bar.
    """
    calls = snapshot["tokenize_calls_per_document"]
    assert calls["single_pass"] <= 1.0, calls
    assert calls["automaton"] <= 1.0, calls
    assert calls["seed_path"] >= 2 * calls["single_pass"], calls
    assert snapshot["results_identical_to_seed_path"]
    assert (
        snapshot["single_pass"]["mb_per_second"]
        > snapshot["seed_path"]["mb_per_second"]
    ), (snapshot["single_pass"], snapshot["seed_path"])
    automaton = snapshot["automaton"]
    assert automaton["identical_to_seed_path"], "automaton != seed output"
    assert automaton["identical_to_pure_python"], "automaton != trie output"
    assert automaton["intern_calls_per_document"] <= 1.0, automaton
    if not smoke:
        assert automaton["speedup_vs_seed"] >= MIN_AUTOMATON_SPEEDUP, automaton
    assert automaton["speedup_vs_single_pass"] > 1.0, automaton


def check_against_baseline(snapshot, baseline):
    """The throughput floor gate, in machine-independent ratio terms.

    Absolute MB/s varies with the host, but the automaton-vs-seed
    speedup is a ratio of two measurements from the same process on the
    same machine, so it transfers: a >20% drop below the checked-in
    baseline ratio means the compiled path itself regressed.
    """
    base = (baseline or {}).get("automaton", {}).get("speedup_vs_seed")
    if not base:
        return  # pre-kernel snapshot: nothing to gate against yet
    measured = snapshot["automaton"]["speedup_vs_seed"]
    floor = FLOOR_FRACTION * base
    assert measured >= floor, (
        f"automaton speedup regressed: {measured:.2f}x vs seed, floor is "
        f"{floor:.2f}x ({FLOOR_FRACTION:.0%} of baseline {base:.2f}x)"
    )


def load_baseline():
    """The checked-in snapshot (None when absent/unreadable)."""
    try:
        with open(SNAPSHOT_PATH) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def report_lines(snapshot):
    calls = snapshot["tokenize_calls_per_document"]
    return [
        f"documents: {snapshot['config']['documents']}, "
        f"{snapshot['config']['bytes'] / 1e6:.2f} MB total",
        f"tokenizer calls/doc: seed path {calls['seed_path']:.1f} -> "
        f"single-pass {calls['single_pass']:.1f}",
        f"end-to-end throughput: seed path "
        f"{snapshot['seed_path']['mb_per_second']:6.3f} MB/s -> single-pass "
        f"{snapshot['single_pass']['mb_per_second']:6.3f} MB/s -> automaton "
        f"{snapshot['automaton']['mb_per_second']:6.3f} MB/s "
        f"({snapshot['automaton']['speedup_vs_seed']:.1f}x seed, "
        f"{snapshot['automaton']['speedup_vs_single_pass']:.1f}x trie)",
        f"automaton equivalence: seed "
        f"{snapshot['automaton']['identical_to_seed_path']}, pure-python "
        f"{snapshot['automaton']['identical_to_pure_python']}, "
        f"intern calls/doc {snapshot['automaton']['intern_calls_per_document']:.1f}",
        f"single-pass stages: stemmer "
        f"{snapshot['single_pass']['stemmer_mb_per_second']:6.2f} MB/s, "
        f"detection {snapshot['single_pass']['detection_mb_per_second']:6.3f} MB/s, "
        f"features {snapshot['single_pass']['feature_mb_per_second']:6.3f} MB/s, "
        f"ranker {snapshot['single_pass']['ranker_mb_per_second']:6.3f} MB/s",
    ]


def test_hotpath_single_pass():
    """Pytest entry: run the benchmark and enforce the acceptance bar."""
    baseline = load_baseline()
    snapshot = run_hotpath_benchmark()
    check_snapshot(snapshot)
    check_against_baseline(snapshot, baseline)
    with open(SNAPSHOT_PATH, "w") as handle:
        json.dump(attach_metrics(snapshot), handle, indent=1)
        handle.write("\n")
    record_section(
        "Hot path — seed multi-pass vs single-pass vs compiled kernel",
        report_lines(snapshot),
    )


def main(argv):
    smoke = "--smoke" in argv
    count = SMOKE_DOCUMENT_COUNT if smoke else DOCUMENT_COUNT
    baseline = load_baseline()
    snapshot = run_hotpath_benchmark(count)
    check_snapshot(snapshot, smoke=smoke)
    check_against_baseline(snapshot, baseline)
    if "--smoke" not in argv:  # the snapshot tracks the full-size run only
        with open(SNAPSHOT_PATH, "w") as handle:
            json.dump(attach_metrics(snapshot), handle, indent=1)
            handle.write("\n")
    print("\n".join(report_lines(snapshot)))
    print("hot-path benchmark OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
