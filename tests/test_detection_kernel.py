"""Compiled detection kernel: automaton edge cases + golden equivalence.

The compiled kernel is the runtime's only detection path: a flat
Aho–Corasick automaton over interned token ids matches phrases, a
precomputed vocab->stem table runs the stemmer pass, and id-space array
passes count terms and segment units.  Every one of those must be
*identical* to the seed behaviour — same matches, offsets, scores,
ranked order — so these tests pin each compiled structure to a seed
reference (``tests/reference.py`` and the per-word Porter pass): the
seed phrase matcher, the per-term TermVector chain, the per-word
stemmer, and the per-row feature assembly.
"""

import random
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.dictionaries import DictionaryEntry, EditorialDictionary
from repro.detection import (
    ConceptDetector,
    ConceptVectorScorer,
    NamedEntityDetector,
    PatternDetector,
    ShortcutsPipeline,
    deduplicate,
    resolve_collisions,
)
from repro.detection.base import KIND_PATTERN, PhraseDetector
from repro.detection.kernel import (
    TAG_CONCEPTS,
    TAG_NAMED,
    CombinedAutomaton,
    DetectionKernel,
    FlatAutomaton,
    StemTable,
    TokenInterner,
    intern_call_count,
    phrase_inventory,
    reset_intern_call_count,
)
from repro.querylog.units import UnitLexicon
from repro.text.stemmer import (
    PorterStemmer,
    clear_stem_cache,
    stem,
    stem_cache_info,
)
from repro.text.tokenized import TokenizedDocument
from repro.text.vectorize import DocumentFrequencyTable
from tests import reference


def automaton_for(phrases, extra_vocab=()) -> FlatAutomaton:
    """Compile *phrases* over a minimal vocabulary."""
    inventory = phrase_inventory(phrases)
    terms = sorted(
        {term for phrase in inventory for term in phrase} | set(extra_vocab)
    )
    return FlatAutomaton.compile(inventory, TokenInterner(terms))


def assert_automaton_matches_seed(phrases, text):
    """The automaton must reproduce the seed matcher exactly, compiled
    directly and as a detector used on its own compiles it."""
    expected = reference.seed_matcher_find(phrases, text)
    document = TokenizedDocument(text)
    assert automaton_for(phrases).find_phrases(document) == expected
    assert PhraseDetector(phrases).find_phrases(document) == expected


def small_pipeline(concepts, named=None):
    """A pipeline over hand-made inventories (named: phrase -> type)."""
    lexicon = UnitLexicon([])
    dictionary = (
        EditorialDictionary(
            [DictionaryEntry(phrase, kind, kind) for phrase, kind in named.items()]
        )
        if named is not None
        else None
    )
    return ShortcutsPipeline(
        ConceptDetector(concepts, lexicon),
        ConceptVectorScorer(DocumentFrequencyTable(), lexicon),
        named_detector=(
            NamedEntityDetector(dictionary) if dictionary is not None else None
        ),
    )


def kernel_for(concepts, named=None) -> DetectionKernel:
    """A kernel compiled for hand-made inventories (None: no automaton)."""
    return DetectionKernel.build(
        concept_phrases=concepts,
        named_phrases=(
            [tuple(phrase.split()) for phrase in named]
            if named is not None
            else None
        ),
        lexicon=UnitLexicon([]),
    )


# Token streams and inventories for the matcher property: a small
# alphabet makes shared prefixes and suffixes, duplicates, and
# one-token phrases common; runs of one token ("a a a ... a") exercise
# the Aho–Corasick fail chains; "zzz" is in no phrase (OOV mid-phrase);
# upper-case variants check case folding.
_TOKENS = ["a", "b", "c", "d"]
_phrases = st.one_of(
    st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=4).map(tuple),
    st.integers(1, 5).map(lambda n: ("a",) * n),
)
_inventories = st.lists(_phrases, max_size=10)
_texts = st.lists(
    st.tuples(st.sampled_from(_TOKENS + ["A", "B", "zzz"]), st.integers(1, 12)),
    max_size=8,
).map(lambda runs: " ".join(token for token, count in runs for __ in range(count)))


class TestFlatAutomatonEdgeCases:
    def test_overlapping_phrases(self):
        assert_automaton_matches_seed(
            [("big", "apple"), ("apple", "pie")],
            "a big apple pie and one apple pie after a big apple",
        )

    def test_shared_prefixes(self):
        assert_automaton_matches_seed(
            [("new", "york"), ("new", "york", "city"), ("new", "jersey")],
            "from new york city to new jersey and back to new york",
        )

    def test_shared_suffixes_fail_chain(self):
        # every suffix of the longest phrase is itself a phrase, so the
        # output-link chain (emits/out_next) must fire on each token
        assert_automaton_matches_seed(
            [("a", "b", "c"), ("b", "c"), ("c",)],
            "a b c then b c then c then a b then a b c",
        )

    def test_single_token_and_max_length(self):
        long_phrase = tuple("p%d" % i for i in range(8))
        assert_automaton_matches_seed(
            [("solo",), long_phrase],
            "solo then " + " ".join(long_phrase) + " then solo",
        )

    def test_oov_token_mid_phrase(self):
        # "zzz" occurs in no phrase: it must break the match and reset
        # the automaton to the root (symbol-0 sentinel path)
        assert_automaton_matches_seed(
            [("new", "york")], "new zzz york but new york works"
        )

    def test_empty_document(self):
        assert_automaton_matches_seed([("cuba",)], "")
        assert_automaton_matches_seed([("cuba",)], "?!.,")

    def test_fail_transitions_mid_match(self):
        # "a a b": after "a a" the second "a" must fail back to depth 1,
        # not to the root, for "a a a b" to still match "a a b"
        assert_automaton_matches_seed(
            [("a", "a", "b"), ("a", "b")], "a a a b a b a a b"
        )

    @given(concepts=_inventories, named=_inventories, text=_texts)
    @settings(max_examples=200, deadline=None)
    def test_randomized_cross_check(self, concepts, named, text):
        """Every matching route equals the seed matcher, and the fused
        scan's per-tag maps equal the per-detector automata."""
        assert_automaton_matches_seed(concepts, text)
        assert_automaton_matches_seed(named, text)

        kernel = DetectionKernel.build(
            concept_phrases=concepts, named_phrases=named
        )
        document = TokenizedDocument(text)
        assert kernel.concepts_view.find_phrases(
            document
        ) == reference.seed_matcher_find(concepts, text)
        assert kernel.named_view.find_phrases(
            document
        ) == reference.seed_matcher_find(named, text)

        ids = document.token_ids(kernel.interner)
        got_concepts, got_named = kernel.scan(document)
        assert got_concepts == ends_by_start(kernel.concepts, ids)
        assert got_named == ends_by_start(kernel.named, ids)

    def test_attach_rejects_wrong_inventory(self):
        pipeline = small_pipeline([("one",), ("two",)])
        with pytest.raises(ValueError, match="concepts"):
            pipeline.attach_kernel(kernel_for([("three",)]))
        assert pipeline.kernel is None

    def test_attach_rejects_same_size_other_inventory(self):
        # the phrase count matches, the phrases do not
        pipeline = small_pipeline(
            [("cuba",), ("global", "warming")], named={"fidel castro": "person"}
        )
        with pytest.raises(ValueError, match="concepts"):
            pipeline.attach_kernel(
                kernel_for([("havana",), ("warming",)], named=["fidel castro"])
            )
        with pytest.raises(ValueError, match="named"):
            pipeline.attach_kernel(
                kernel_for(
                    [("cuba",), ("global", "warming")], named=["raul castro"]
                )
            )
        assert pipeline.kernel is None
        assert [d.phrase for d in pipeline.process("cuba and havana").detections] == [
            "cuba"
        ]

    def test_attach_rejects_inventory_on_one_side_only(self):
        with_named = small_pipeline([("cuba",)], named={"havana": "place"})
        with pytest.raises(ValueError, match="named"):
            with_named.attach_kernel(kernel_for([("cuba",)], named=None))
        without_named = small_pipeline([("cuba",)])
        with pytest.raises(ValueError, match="named"):
            without_named.attach_kernel(kernel_for([("cuba",)], named=["havana"]))
        # the matching kernel attaches
        kernel = kernel_for([("cuba",)], named=["havana"])
        with_named.attach_kernel(kernel)
        assert with_named.kernel is kernel


class TestFlatAutomatonStructure:
    def test_phrase_states_round_trip(self):
        inventory = [
            ("new", "york"),
            ("new", "york", "city"),
            ("york",),
            ("city", "hall"),
        ]
        automaton = automaton_for(inventory)
        pairs = automaton.phrase_states()
        assert sorted(phrase for phrase, __ in pairs) == sorted(inventory)
        for phrase, terminal in pairs:
            assert automaton.terminal_of(phrase) == terminal

    def test_columns_reload_identically(self):
        automaton = automaton_for([("a", "b"), ("b",), ("a", "b", "c")])
        columns = automaton.columns()
        reloaded = FlatAutomaton(
            automaton.interner,
            columns["delta"],
            columns["fail"],
            columns["out_len"],
            columns["emits"],
            columns["out_next"],
            columns["sym"],
            phrase_count=automaton.phrase_count,
        )
        document = TokenizedDocument("a b c b a b x a b")
        assert reloaded.find_phrases(document) == automaton.find_phrases(
            document
        )

    def test_score_column_round_trip(self):
        scores = {("a", "b"): 0.75, ("b", "c"): 0.5}
        interner = TokenInterner(["a", "b", "c"])
        automaton = FlatAutomaton.compile(sorted(scores), interner, scores=scores)
        ids = interner.ids("a b c a b".split())
        spans = automaton.find_scored_spans(ids)
        assert [(s, e) for s, e, __ in spans] == [(0, 2), (3, 5)]
        assert [score for __, __, score in spans] == [0.75, 0.75]


def ends_by_start(automaton: FlatAutomaton, ids) -> dict:
    """The per-detector ``{start: longest end}`` map of one automaton."""
    return {
        start: end for start, (end, __) in automaton._scored_starts(ids).items()
    }


class TestCombinedAutomaton:
    def test_tagged_scan_matches_per_detector(self):
        interner = TokenInterner(["a", "b", "c", "d", "e"])
        concept_phrases = [("a", "b"), ("c",), ("b", "c", "d")]
        # ("a", "b") is in both inventories: its terminal carries both tags
        named_phrases = [("a", "b"), ("d", "e"), ("c", "d", "e")]
        concepts = FlatAutomaton.compile(concept_phrases, interner)
        named = FlatAutomaton.compile(named_phrases, interner)
        combined = CombinedAutomaton.compile(
            interner,
            [(concept_phrases, TAG_CONCEPTS), (named_phrases, TAG_NAMED)],
        )
        rng = random.Random(3)
        vocab = ["a", "b", "c", "d", "e", "zzz"]
        named_seen = 0
        for _ in range(40):
            words = rng.choices(vocab, k=rng.randint(0, 30))
            ids = interner.ids(words)
            got_concepts, got_named = combined.scan(ids)
            assert got_concepts == ends_by_start(concepts, ids)
            assert got_named == ends_by_start(named, ids)
            named_seen += len(got_named)
        assert named_seen


@pytest.fixture(scope="module")
def env_kernel(env_pipeline):
    """The environment pipeline's kernel, compiled from its inventories."""
    return env_pipeline.compile_kernel()


class TestKernelPipelineEquivalence:
    def test_compiled_pipeline_output_identical(
        self, env_pipeline, env_kernel, env_detectable, env_lexicon,
        env_world, env_stories,
    ):
        """The pipeline's fused scan and shared kernel give what the
        same components produce on their own: detectors with their own
        automata, a scorer with its own lexicon-only kernel."""
        concepts = ConceptDetector(env_detectable, env_lexicon)
        named = NamedEntityDetector(env_world.dictionary)
        patterns = PatternDetector()
        scorer = ConceptVectorScorer(env_world.doc_frequency, env_lexicon)
        for story in env_stories[:10]:
            text = story.text
            candidates = (
                patterns.detect(text) + named.detect(text) + concepts.detect(text)
            )
            vector = scorer.concept_vector(text)
            expected = [
                d
                if d.kind == KIND_PATTERN
                else d.with_score(scorer.score_phrase(vector, d.phrase))
                for d in deduplicate(resolve_collisions(candidates))
            ]
            compiled = env_pipeline.process(text).detections
            assert compiled == expected
            assert [d.score for d in compiled] == [d.score for d in expected]

    def test_term_and_unit_weights_float_identical(
        self, env_kernel, env_scorer, env_stories
    ):
        """The kernel's term and unit weights equal the per-term seed
        passes float for float: for the pipeline's kernel, for the
        lexicon-only kernel a scorer compiles on its own, and for one
        whose vocabulary leaves every non-unit word out of vocabulary."""
        scorer = env_scorer
        kernels = [
            env_kernel,
            DetectionKernel.build(
                lexicon=scorer.lexicon,
                vocab_terms=scorer.doc_frequency.terms(),
            ),
            DetectionKernel.build(lexicon=scorer.lexicon),
        ]
        for story in env_stories[:10]:
            words = TokenizedDocument(story.text).words
            terms = reference.term_vector(scorer, words).weights
            units = reference.unit_weights(scorer.lexicon, words)
            for kernel in kernels:
                document = TokenizedDocument(story.text)
                got_terms = kernel.term_weights(
                    document,
                    scorer.doc_frequency,
                    scorer.punish_threshold,
                    scorer.punish_factor,
                    scorer.prune_threshold,
                )
                # dict equality: same keys, exact float equality per key
                assert got_terms == terms
                assert {type(v) for v in got_terms.values()} <= {float}
                # same weights, inserted in the same (document) order
                assert list(kernel.unit_weights(document).items()) == list(
                    units.items()
                )

    def test_stem_table_matches_porter_pass(self, env_kernel, env_stories):
        text = env_stories[0].text + " with an oovxyzword too"
        pure = TokenizedDocument(text).stemmed_terms
        stamped = env_kernel.stem_document(TokenizedDocument(text))
        assert stamped.stemmed_terms == pure

    def test_tid_context_matches_table(self, env_kernel, env_stories):
        from repro.runtime.tid import GlobalTidTable

        table = GlobalTidTable()
        # track a subset of document stems so both hit and miss paths run
        for story in env_stories[:4]:
            for term in TokenizedDocument(story.text).stemmed_terms[::2]:
                table.assign(term)
        for story in env_stories[:6]:
            text = story.text + " an oovxyzword mid document"
            expected = table.tid_context(
                TokenizedDocument(text).stemmed_terms
            )
            got = env_kernel.tid_context(TokenizedDocument(text), table)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    def test_single_interning_per_document(
        self, env_pipeline, env_kernel, env_stories
    ):
        document = TokenizedDocument(env_stories[0].text)
        reset_intern_call_count()
        env_pipeline.stem_document(document)
        env_pipeline.process_document(document)
        assert intern_call_count() == 1


class TestKernelPackRoundTrip:
    def test_save_load_identical(self, tmp_path, env_pipeline, env_stories):
        from repro.runtime.datapack import (
            load_detection_kernel,
            save_detection_kernel,
        )

        kernel = DetectionKernel.build(
            concept_phrases=env_pipeline._concepts.inventory(),
            named_phrases=env_pipeline._named.inventory(),
            lexicon=env_pipeline._scorer.lexicon,
        )
        path = tmp_path / "kernel.pack"
        save_detection_kernel(kernel, path)
        loaded = load_detection_kernel(path)
        assert loaded.interner.terms == kernel.interner.terms
        assert loaded.stem_table.stems == kernel.stem_table.stems
        assert bytes(loaded.stem_table.flags) == bytes(kernel.stem_table.flags)
        assert loaded.unit_single_scores == kernel.unit_single_scores
        for name in ("concepts", "named", "units"):
            ours, theirs = getattr(kernel, name), getattr(loaded, name)
            for column, values in ours.columns().items():
                assert np.array_equal(theirs.columns()[column], values), (
                    name,
                    column,
                )
        document = TokenizedDocument(env_stories[0].text)
        assert loaded.concepts_view.find_phrases(
            document
        ) == kernel.concepts_view.find_phrases(TokenizedDocument(env_stories[0].text))


@pytest.fixture(scope="module")
def kernel_pack_sections(tmp_path_factory, env_pipeline):
    """The sections of a saved kernel pack with all three automata."""
    from repro.runtime.datapack import read_pack, save_detection_kernel

    kernel = DetectionKernel.build(
        concept_phrases=env_pipeline._concepts.inventory(),
        named_phrases=env_pipeline._named.inventory(),
        lexicon=env_pipeline._scorer.lexicon,
    )
    path = tmp_path_factory.mktemp("kernel") / "kernel.pack"
    save_detection_kernel(kernel, path)
    return read_pack(path)


class TestDamagedKernelPack:
    """A damaged automaton column fails at load, naming its section."""

    PREFIXES = ("concepts", "named", "units")

    def load_with(self, tmp_path, sections, name, damaged):
        from repro.runtime.datapack import load_detection_kernel, write_pack

        path = tmp_path / f"{name}.pack"
        write_pack(path, dict(sections, **{name: damaged.tobytes()}))
        return load_detection_kernel(path)

    @pytest.mark.parametrize(
        "column", ["delta", "fail", "out_len", "emits", "out_next", "sym"]
    )
    @pytest.mark.parametrize("value", [-1, 10**6])
    def test_out_of_range_value_rejected(
        self, tmp_path, kernel_pack_sections, column, value
    ):
        for prefix in self.PREFIXES:
            name = f"{prefix}_{column}"
            damaged = np.frombuffer(kernel_pack_sections[name], "<i4").copy()
            damaged[len(damaged) // 2] = value
            with pytest.raises(ValueError, match=name):
                self.load_with(tmp_path, kernel_pack_sections, name, damaged)

    @pytest.mark.parametrize("column", ["delta", "sym", "out_len", "emits"])
    def test_truncated_column_rejected(
        self, tmp_path, kernel_pack_sections, column
    ):
        for prefix in self.PREFIXES:
            name = f"{prefix}_{column}"
            damaged = np.frombuffer(kernel_pack_sections[name], "<i4")[:-1]
            with pytest.raises(ValueError, match=name):
                self.load_with(tmp_path, kernel_pack_sections, name, damaged)


class TestStemmerCache:
    def test_cache_info_counts(self):
        clear_stem_cache()
        first = stem("running")
        info = stem_cache_info()
        assert info.misses >= 1 and info.currsize >= 1
        assert stem("running") == first
        assert stem_cache_info().hits > info.hits

    def test_memo_matches_uncached_porter(self):
        porter = PorterStemmer()
        words = ["Running", "flies", "HAPPILY", "caresses", "ponies", "cats"]
        for word in words:
            assert stem(word) == porter.stem(word.lower())

    def test_thread_safety(self):
        clear_stem_cache()
        porter = PorterStemmer()
        rng = random.Random(11)
        words = ["word%d" % i for i in range(200)] + [
            "running",
            "flies",
            "relational",
            "happiness",
        ]
        expected = {word: porter.stem(word) for word in words}
        failures = []

        def worker():
            order = words[:]
            rng_local = random.Random(rng.random())
            rng_local.shuffle(order)
            for word in order * 5:
                if stem(word) != expected[word]:
                    failures.append(word)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures


class TestConstructorTimeCompilation:
    def test_pattern_detector_compiles_nothing_per_document(self, monkeypatch):
        import re

        detector = PatternDetector()
        text = "mail a@b.co, call 650-555-9876, see http://x.org and www.y.net"
        expected = detector.detect(text)
        assert expected  # the probe text must actually exercise the regexes

        def explode(*args, **kwargs):
            raise AssertionError("regex compiled on the per-document path")

        monkeypatch.setattr(re, "compile", explode)
        assert detector.detect(text) == expected

    def test_named_detector_no_dictionary_calls_per_document(
        self, monkeypatch, env_world, env_stories
    ):
        detector = NamedEntityDetector(env_world.dictionary)
        texts = [story.text for story in env_stories[:5]]
        expected = [detector.detect(text) for text in texts]
        assert any(expected)  # at least one story must contain entities

        def explode(*args, **kwargs):
            raise AssertionError("dictionary consulted on the per-document path")

        for method in ("lookup", "is_ambiguous", "high_level_type"):
            monkeypatch.setattr(env_world.dictionary, method, explode)
        assert [detector.detect(text) for text in texts] == expected


class _FakeVector:
    def __init__(self, row):
        self._row = row

    def numeric(self, exclude_groups=()):
        return np.asarray(self._row, dtype=float)


class _FakeExtractor:
    def __init__(self, version=1):
        self.feature_version = version
        self.extract_calls = 0

    def extract(self, phrase):
        self.extract_calls += 1
        seed = (hash(phrase) % 1000) / 1000.0
        return _FakeVector([seed, seed * 2.0, seed - 1.0])


class TestFeatureArena:
    def test_arena_matches_vstack_path(self):
        from repro.ranking.model import FeatureAssembler

        phrases = ["alpha", "beta", "gamma", "alpha", "beta"]
        versioned = FeatureAssembler(extractor=_FakeExtractor(version=1))
        unversioned = FeatureAssembler(extractor=_FakeExtractor(version=1))
        unversioned.extractor.feature_version = None
        via_arena, rel_a = versioned.matrix_and_relevance(phrases, None)
        via_vstack, rel_b = unversioned.matrix_and_relevance(phrases, None)
        assert np.array_equal(via_arena, via_vstack)
        assert via_arena.dtype == via_vstack.dtype
        assert np.array_equal(rel_a, rel_b)
        # the arena extracted each distinct phrase exactly once
        assert versioned.extractor.extract_calls == 3
        assert unversioned.extractor.extract_calls == 5

    def test_arena_grows_past_initial_capacity(self):
        from repro.ranking.model import FeatureAssembler

        assembler = FeatureAssembler(extractor=_FakeExtractor())
        phrases = ["p%d" % i for i in range(150)]
        matrix, __ = assembler.matrix_and_relevance(phrases, None)
        assert matrix.shape == (150, 3)
        again, __ = assembler.matrix_and_relevance(phrases, None)
        assert np.array_equal(matrix, again)
        assert assembler.extractor.extract_calls == 150

    def test_version_change_invalidates_cache(self):
        from repro.ranking.model import FeatureAssembler

        extractor = _FakeExtractor(version=1)
        assembler = FeatureAssembler(extractor=extractor)
        before, __ = assembler.matrix_and_relevance(["alpha"], None)
        assembler.matrix_and_relevance(["alpha"], None)
        assert extractor.extract_calls == 1  # memo hit, no re-extraction
        extractor.feature_version = 2
        after, __ = assembler.matrix_and_relevance(["alpha"], None)
        assert extractor.extract_calls == 2  # version bump re-extracts
        assert np.array_equal(before, after)


class TestStemTableBuild:
    def test_flags_and_stems(self):
        terms = ["running", "the", "cuba", "of"]
        table = StemTable.build(terms)
        porter = PorterStemmer()
        for index, term in enumerate(terms):
            if term in ("the", "of"):
                assert table.flags[index] == 1  # stopword: no stem needed
            else:
                assert table.flags[index] == 0
                assert table.stems[index] == porter.stem(term)

    def test_stemmed_terms_skips_stopwords_and_stems_oov(self):
        terms = ["running", "the"]
        table = StemTable.build(terms)
        interner = TokenInterner(terms)
        words = ["running", "the", "oovxyzword"]
        assert table.stemmed_terms(words, interner.ids(words)) == [
            stem("running"),
            stem("oovxyzword"),
        ]
