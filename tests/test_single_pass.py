"""Single-pass hot path: golden equivalence against the seed algorithms.

The PR that introduced ``TokenizedDocument`` replaced three seed
algorithms (first-term-list phrase matching, the O(n^2) collision scan,
and the tokenize-per-stage service path) with single-pass equivalents.
These tests pin the new implementations to reference implementations of
the seed behaviour: the outputs must be *identical* — spans, scores,
and order — on a fixed corpus sample and on adversarial inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection import (
    KIND_CONCEPT,
    KIND_NAMED,
    KIND_PATTERN,
    AnnotatedDocument,
    Detection,
)
from repro.detection.base import KIND_PRIORITY, PhraseDetector
from repro.detection.pipeline import resolve_candidates
from repro.detection.kernel import FlatAutomaton, TokenInterner, phrase_inventory
from repro.features import RelevanceModel
from repro.ranking import RankSVM
from repro.runtime import (
    PackedRelevanceStore,
    QuantizedInterestingnessStore,
    RankerService,
)
from repro.text import (
    TokenizedDocument,
    TermVector,
    reset_tokenize_call_count,
    tokenize_call_count,
)
from tests.reference import (
    deduplicate,
    overlaps,
    priority,
    resolve_collisions,
    scan_matches,
    seed_matcher_find,
)


# -- reference (seed) implementations ------------------------------------


def find(phrases, text):
    """Matches of *phrases* in *text*, through a detector's own kernel."""
    return PhraseDetector(phrases).matches(TokenizedDocument(text))


def seed_resolve_collisions(detections):
    """The seed resolver: greedy keep with an all-pairs overlap scan."""
    ordered = sorted(
        detections, key=lambda d: (-priority(d)[0], -priority(d)[1], d.start)
    )
    kept = []
    for candidate in ordered:
        if any(overlaps(candidate, existing) for existing in kept):
            continue
        kept.append(candidate)
    kept.sort(key=lambda d: d.start)
    return kept


def seed_process(service, text, top=None):
    """The seed RankerService.process shape: one tokenization per stage.

    Every component is called through its string entry point, exactly as
    the seed service did, so the ranker's relevance context is re-stemmed
    from the raw text rather than read off the shared token stream.
    """
    from repro.features import stemmed_terms

    stemmed_terms(text)  # the seed's discarded Stemmer timing pass
    pipeline = service._pipeline
    candidates = list(pipeline._patterns.detect(text))
    if pipeline._named is not None:
        candidates.extend(pipeline._named.detect(text))
    candidates.extend(pipeline._concepts.detect(text))
    resolved = deduplicate(seed_resolve_collisions(candidates))
    vector = pipeline._scorer.concept_vector(text)
    scored = [
        d
        if d.kind == KIND_PATTERN
        else d.with_score(pipeline._scorer.score_phrase(vector, d.phrase))
        for d in resolved
    ]
    known = [d for d in scored if d.kind != KIND_PATTERN and d.phrase in service._store]
    pruned = AnnotatedDocument(text=text, detections=known)
    ranked = service._ranker.rank_document(pruned)
    if top is not None:
        ranked = ranked[:top]
    return ranked


# -- fixtures -------------------------------------------------------------


@pytest.fixture(scope="module")
def service(env_world, env_extractor, env_miner, env_pipeline):
    phrases = [c.phrase for c in env_world.concepts]
    interestingness = QuantizedInterestingnessStore.build(env_extractor, phrases)
    model = RelevanceModel.mine_all(
        env_miner, [c.phrase for c in env_world.concepts[:40]]
    )
    relevance = PackedRelevanceStore.build(model)
    svm = RankSVM(epochs=30)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 16))
    y = X[:, 0]
    g = np.repeat(np.arange(8), 5)
    svm.fit(X, y, g)
    return RankerService(env_pipeline, interestingness, relevance, svm)


# -- golden equivalence ----------------------------------------------------


class TestGoldenEquivalence:
    def test_service_matches_seed_path_on_corpus_sample(self, service, env_stories):
        """Byte-identical detections (spans, scores, order) vs the seed."""
        for story in env_stories[:25]:
            expected = seed_process(service, story.text, top=None)
            actual = service.process(story.text, top=None)
            assert actual == expected

    def test_pipeline_output_identical_including_patterns(
        self, env_pipeline, env_stories
    ):
        for story in env_stories[:25]:
            text = story.text + " mail a@b.co or call (408) 555-1234"
            fresh = env_pipeline.process(text)
            shared = env_pipeline.process_document(TokenizedDocument(text))
            assert fresh == shared
            assert shared.tokens is not None
            unscored = env_pipeline.process_document(
                TokenizedDocument(text), score=False
            )
            assert unscored.detections == [
                d.with_score(0.0) for d in shared.detections
            ]

    def test_service_skips_the_concept_vector_baseline(
        self, service, env_stories, monkeypatch
    ):
        """The ranker rescores every detection, so serving must rank
        without building a concept vector or segmenting units."""
        texts = [story.text for story in env_stories[:25]]
        service.process(texts[0])  # compiles the pipeline's kernel
        expected = [seed_process(service, text) for text in texts]
        pipeline = service._pipeline

        def discarded(*args, **kwargs):
            raise AssertionError("serving built the concept-vector baseline")

        monkeypatch.setattr(pipeline._scorer, "concept_vector", discarded)
        monkeypatch.setattr(pipeline.kernel, "unit_weights", discarded)
        assert [service.process(text) for text in texts] == expected

    def test_cold_start_defers_the_units_scan_tables(
        self, service, env_pipeline, env_world, env_detectable, env_lexicon,
        env_stories, tmp_path,
    ):
        """A service cold-started from a pack ranks without building the
        units scan; the baseline builds it once, on its first concept
        vector, and detects and scores exactly as a kernel compiled in
        memory."""
        from repro.detection import (
            ConceptDetector,
            ConceptVectorScorer,
            NamedEntityDetector,
            ShortcutsPipeline,
        )
        from repro.detection.kernel import DetectionKernel
        from repro.runtime.datapack import (
            load_detection_kernel,
            save_detection_kernel,
        )

        def pipeline_with(kernel):
            return ShortcutsPipeline(
                ConceptDetector(env_detectable, env_lexicon),
                ConceptVectorScorer(env_world.doc_frequency, env_lexicon),
                named_detector=NamedEntityDetector(env_world.dictionary),
                kernel=kernel,
            )

        save_detection_kernel(
            DetectionKernel.build(
                concept_phrases=env_pipeline._concepts.inventory(),
                named_phrases=env_pipeline._named.inventory(),
                lexicon=env_lexicon,
                vocab_terms=env_world.doc_frequency.terms(),
            ),
            tmp_path / "detection.rpak",
        )
        kernel = load_detection_kernel(tmp_path / "detection.rpak")
        pipeline = pipeline_with(kernel)
        cold = RankerService(
            pipeline, service._store, service._assembler.relevance_scorer,
            service._model,
        )
        texts = [story.text for story in env_stories[:10]]
        assert [cold.process(text) for text in texts] == [
            service.process(text) for text in texts
        ]
        # serving walks only the detector scan
        assert kernel._units_scan is None

        in_memory = pipeline_with(None)  # compiles its kernel on first use
        first = pipeline.process(texts[0])
        units_scan = kernel._units_scan
        assert units_scan is not None
        assert first == in_memory.process(texts[0])
        for text in texts[1:]:
            assert pipeline.process(text) == in_memory.process(text)
        assert kernel._units_scan is units_scan

    def test_matcher_matches_seed_on_corpus(
        self, env_concept_detector, env_pipeline, env_stories
    ):
        """A detector's own kernel and the pipeline kernel's detector
        scan both match exactly what the seed matcher finds."""
        inventory = list(env_concept_detector._phrases)
        named = env_pipeline._named.inventory()
        kernel = env_pipeline.compile_kernel()
        for story in env_stories[:25]:
            document = TokenizedDocument(story.text)
            expected = seed_matcher_find(inventory, story.text)
            assert find(inventory, story.text) == expected
            assert scan_matches(kernel, document) == (
                expected,
                seed_matcher_find(named, story.text),
            )

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 50),
                st.integers(1, 10),
                st.sampled_from([KIND_PATTERN, KIND_NAMED, KIND_CONCEPT]),
            ),
            max_size=25,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_collision_sweep_matches_seed_scan(self, raw):
        detections = [
            Detection(text="x" * length, start=start, end=start + length, kind=kind)
            for start, length, kind in raw
        ]
        assert resolve_collisions(detections) == seed_resolve_collisions(detections)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 50),
                st.integers(1, 10),
                st.sampled_from([KIND_PATTERN, KIND_NAMED, KIND_CONCEPT]),
            ),
            max_size=25,
        ),
        st.text(alphabet="aAb ", min_size=60, max_size=60),
    )
    @settings(max_examples=300, deadline=None)
    def test_id_columns_match_seed_scan_and_dedup(self, raw, text):
        """`resolve_candidates` over id columns keeps what the seed's
        all-pairs scan, then dedup on the surface key, keeps."""
        by_kind = {
            kind: [(start, start + length) for start, length, k in raw if k == kind]
            for kind in (KIND_PATTERN, KIND_NAMED, KIND_CONCEPT)
        }
        # the string path's candidate order: patterns, named, concepts
        detections = [
            Detection(text=text[start:end], start=start, end=end, kind=kind)
            for kind in (KIND_PATTERN, KIND_NAMED, KIND_CONCEPT)
            for start, end in by_kind[kind]
        ]
        named = [(start, end, index) for index, (start, end) in enumerate(by_kind[KIND_NAMED])]
        rows = resolve_candidates(
            text,
            [(start, end, "email") for start, end in by_kind[KIND_PATTERN]],
            named,
            ["person"] * len(named),
            [(start, end, index) for index, (start, end) in enumerate(by_kind[KIND_CONCEPT])],
        )
        expected = deduplicate(seed_resolve_collisions(detections))
        assert [(row[0], row[1], row[2]) for row in rows] == [
            (d.start, d.end, KIND_PRIORITY[d.kind]) for d in expected
        ]


# -- matcher edge cases ---------------------------------------------------


class TestTrieMatcher:
    """Matcher edge cases (named for the token trie they were written
    against); the compiled automaton must keep every one of them."""

    def test_shared_prefixes_take_longest(self):
        [(phrase, start, end)] = find(
            [("new",), ("new", "york"), ("new", "york", "city")],
            "welcome to New York City limits",
        )
        assert phrase == ("new", "york", "city")
        assert (start, end) == (11, 24)

    def test_phrase_is_prefix_of_longer_unfinished_phrase(self):
        # "san francisco giants" dead-ends after "san francisco": the
        # scan must fall back to the longest match seen, not fail.
        matches = find(
            [("san", "francisco"), ("san", "francisco", "giants")],
            "san francisco weather",
        )
        assert [m[0] for m in matches] == [("san", "francisco")]

    def test_dead_end_resumes_at_next_position(self):
        matches = find(
            [("global", "warming"), ("warming",)], "global warning about warming"
        )
        assert [m[0] for m in matches] == [("warming",)]

    def test_inventory_term_casing_normalized(self):
        matches = find([("Global", "WARMING")], "talks on gLoBaL wArMiNg stalled")
        assert [m[0] for m in matches] == [("global", "warming")]

    def test_len_deduplicates_inventory(self):
        # seed regression: duplicates inflated the inventory size
        phrases = [("cuba",), ("Cuba",), ("global", "warming"), ("global", "warming")]
        assert phrase_inventory(phrases) == [("cuba",), ("global", "warming")]
        interner = TokenInterner(["cuba", "global", "warming"])
        assert FlatAutomaton.compile(phrases, interner).phrase_count == 2

    def test_empty_phrases_ignored(self):
        assert phrase_inventory([(), ("cuba",)]) == [("cuba",)]
        interner = TokenInterner(["cuba"])
        assert FlatAutomaton.compile([(), ("cuba",)], interner).phrase_count == 1


# -- single-pass bookkeeping ----------------------------------------------


class TestSinglePass:
    def test_service_tokenizes_exactly_once_per_document(
        self, service, env_stories
    ):
        text = env_stories[0].text
        service.process(text)  # warm any lazy state
        reset_tokenize_call_count()
        service.process(text)
        assert tokenize_call_count() == 1

    def test_seed_path_tokenized_five_times(self, service, env_stories):
        text = env_stories[0].text
        reset_tokenize_call_count()
        seed_process(service, text)
        assert tokenize_call_count() == 5

    def test_tokenize_counter_thread_safe(self):
        import threading

        from repro.text import tokenize_lower

        reset_tokenize_call_count()
        per_thread = 400

        def worker():
            for __ in range(per_thread):
                tokenize_lower("fidel castro visits havana")

        threads = [threading.Thread(target=worker) for __ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert tokenize_call_count() == 8 * per_thread
        # reading the counter must not perturb it
        assert tokenize_call_count() == 8 * per_thread
        reset_tokenize_call_count()
        assert tokenize_call_count() == 0

    def test_tokenized_document_views_match_string_helpers(self, env_stories):
        from repro.features import stemmed_terms
        from repro.text import tokenize_lower

        text = env_stories[0].text
        document = TokenizedDocument(text)
        assert document.words == tokenize_lower(text)
        assert document.stemmed_terms == stemmed_terms(text)
        assert document.stem_set == set(stemmed_terms(text))


# -- TermVector satellites -------------------------------------------------


class TestTermVectorFastPaths:
    def test_norm_cached(self):
        vector = TermVector({"a": 3.0, "b": 4.0})
        assert vector.norm() == pytest.approx(5.0)
        vector.weights["c"] = 100.0  # cache deliberately not invalidated
        assert vector.norm() == pytest.approx(5.0)

    def test_cosine_similarity_unchanged(self):
        a = TermVector({"x": 1.0, "y": 2.0})
        b = TermVector({"y": 2.0, "z": 3.0})
        expected = 4.0 / (np.sqrt(5.0) * np.sqrt(13.0))
        assert a.cosine_similarity(b) == pytest.approx(expected)

    def test_punished_below_returns_self_when_untouched(self):
        vector = TermVector({"a": 0.9, "b": 0.8})
        assert vector.punished_below(0.5) is vector

    def test_punished_below_still_punishes(self):
        vector = TermVector({"a": 0.9, "b": 0.2})
        punished = vector.punished_below(0.5, factor=0.5)
        assert punished is not vector
        assert punished.get("b") == pytest.approx(0.1)
        assert punished.get("a") == pytest.approx(0.9)

    def test_pruned_below_returns_self_when_untouched(self):
        vector = TermVector({"a": 0.9})
        assert vector.pruned_below(0.5) is vector
        empty = TermVector()
        assert empty.pruned_below(0.5) is empty

    def test_pruned_below_still_prunes(self):
        vector = TermVector({"a": 0.9, "b": 0.2})
        pruned = vector.pruned_below(0.5)
        assert pruned is not vector
        assert "b" not in pruned
