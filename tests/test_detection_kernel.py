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

import gc
import os
import random
import tempfile
import threading
import weakref

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
)
from repro.detection.base import KIND_PATTERN, PhraseDetector
from repro.detection.kernel import (
    TAG_CONCEPTS,
    TAG_NAMED,
    TAG_UNITS,
    CombinedAutomaton,
    DetectionKernel,
    FlatAutomaton,
    StemTable,
    TokenInterner,
    intern_call_count,
    phrase_inventory,
    reset_intern_call_count,
)
from repro.querylog.units import Unit, UnitLexicon
from repro.runtime.datapack import load_detection_kernel, save_detection_kernel
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
    """The scan must reproduce the seed matcher exactly, as a detector
    used on its own compiles it (its inventory in the concept slot) and
    as a kernel's named inventory."""
    expected = reference.seed_matcher_find(phrases, text)
    document = TokenizedDocument(text)
    assert PhraseDetector(phrases).matches(document) == expected
    kernel = DetectionKernel.build(named_phrases=phrases)
    assert reference.scan_matches(kernel, document) == ([], expected)


def assert_scan_finds_longest_matches(automaton, ids, words, inventories):
    """Each tagged map of one walk of *automaton* holds, at every start,
    the terminal of its inventory's longest phrase there (*inventories*
    gives the phrases of tag bits 1 and 2)."""
    phrase_of = {
        terminal: phrase for phrase, terminal in automaton.base.phrase_states()
    }
    for best, inventory in zip(automaton.scan(ids), inventories):
        assert {
            start: phrase_of[terminal] for start, terminal in best.items()
        } == {
            start: tuple(words[start:end])
            for start, end in reference.longest_match_ends(inventory, words).items()
        }


def assert_columns_match_reference(automaton, phrases, scores=None):
    """The numpy-resolved columns equal the pure-Python dense-row
    loop's, entry for entry, as ``int32`` (``float64`` scores)."""
    expected = reference.automaton_columns(phrases, automaton.interner, scores)
    got = automaton.columns()
    assert sorted(got) == sorted(expected)
    for name, values in got.items():
        assert values.dtype == (np.float64 if name == "out_score" else np.int32)
        assert values.tolist() == expected[name], name


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
# unit lexicons over the same alphabet; a 0.0 score covers its words
# without weighting them
_lexicons = st.lists(
    st.tuples(_phrases, st.integers(0, 20)), max_size=10
).map(
    lambda pairs: UnitLexicon(
        [Unit(terms, 0.0, count / 20) for terms, count in pairs]
    )
)
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

    @given(
        concepts=_inventories, named=_inventories, units=_lexicons, text=_texts
    )
    @settings(max_examples=200, deadline=None)
    def test_randomized_cross_check(self, concepts, named, units, text):
        """The DFA rows resolved in numpy equal the per-symbol loop's
        (checked first: a broken table can make a scan loop forever).
        Then the one walk finds the longest match at every start, and a
        kernel holding both, one or neither detector inventory, compiled
        or loaded from its pack, gives the seed matcher's spans and the
        seed segmentation's unit weights in insertion order."""
        kernel = DetectionKernel.build(
            concept_phrases=concepts, named_phrases=named, lexicon=units
        )
        assert_columns_match_reference(kernel.concepts, concepts)
        assert_columns_match_reference(kernel.named, named)
        assert_columns_match_reference(automaton_for(named), named)
        multi = {
            tuple(unit.terms): unit.score
            for unit in units.units()
            if len(unit.terms) > 1
        }
        assert_columns_match_reference(kernel.units, sorted(multi), multi)
        detectors = kernel._detector_scan
        for automaton in (kernel.concepts, kernel.named, detectors.base):
            assert automaton.phrase_states() == reference.phrase_states(automaton)

        document = TokenizedDocument(text)
        words = document.words
        ids = document.token_id_array(kernel.interner)
        assert_scan_finds_longest_matches(
            detectors, ids, words, (concepts, named)
        )
        assert_scan_finds_longest_matches(
            CombinedAutomaton.of(kernel.units, TAG_UNITS), ids, words, (multi, ())
        )

        assert_automaton_matches_seed(concepts, text)
        assert_automaton_matches_seed(named, text)
        expected_units = list(reference.unit_weights(units, words).items())
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "detection.rpak")
            for held_concepts, held_named in (
                (concepts, named), (concepts, None), (None, named), (None, None)
            ):
                compiled = DetectionKernel.build(
                    concept_phrases=held_concepts,
                    named_phrases=held_named,
                    lexicon=units,
                )
                save_detection_kernel(compiled, path)
                expected = (
                    reference.seed_matcher_find(held_concepts or (), text),
                    reference.seed_matcher_find(held_named or (), text),
                )
                for variant in (compiled, load_detection_kernel(path)):
                    document = TokenizedDocument(text)
                    assert reference.scan_matches(variant, document) == expected
                    assert (
                        list(variant.unit_weights(document).items())
                        == expected_units
                    )

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

    def test_released_kernel_is_freed_without_a_collection(self):
        """Nothing in a kernel refers back to it, so it goes with the
        last pipeline holding it, not at the next full collection."""
        pipeline = small_pipeline([("cuba",)], named={"havana": "place"})
        kernel = kernel_for([("cuba",)], named=["havana"])
        pipeline.attach_kernel(kernel)
        assert pipeline.process("cuba and havana").detections
        released = weakref.ref(kernel)
        gc.disable()
        try:
            del kernel, pipeline
            assert released() is None
        finally:
            gc.enable()


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
            assert reference.terminal_of(automaton, phrase) == terminal
        assert pairs == reference.phrase_states(automaton)

    def test_phrase_states_on_damaged_rows_match_queue_bfs(self):
        """Rows that reach one state from two parents of a level (a
        damaged pack's, within the loader's range checks) give the queue
        BFS's pairs: the first discovery wins, no state twice."""
        automaton = automaton_for([("a", "x"), ("b", "y")])
        columns = automaton.columns()
        delta = columns["delta"].copy()
        alphabet = automaton.alphabet_size
        sym = columns["sym"]
        a, b, x = (sym[automaton.interner.id_of(t)] for t in ("a", "b", "x"))
        # point b's x entry at the trie child a -> x
        delta[delta[b] * alphabet + x] = delta[delta[a] * alphabet + x]
        damaged = FlatAutomaton(
            automaton.interner,
            delta,
            columns["fail"],
            columns["out_len"],
            columns["emits"],
            columns["out_next"],
            sym,
            phrase_count=automaton.phrase_count,
        )
        pairs = damaged.phrase_states()
        assert pairs == reference.phrase_states(damaged)
        assert sorted(phrase for phrase, __ in pairs) == [("a", "x"), ("b", "y")]

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
        ids = automaton.interner.ids("a b c b a b x a b".split())
        spans = [
            scan.spans(scan.scan(ids)[0])
            for scan in (
                CombinedAutomaton.of(automaton, TAG_UNITS),
                CombinedAutomaton.of(reloaded, TAG_UNITS),
            )
        ]
        assert spans[0] == spans[1]
        assert [(s, e) for s, e, __ in spans[0]] == [(0, 3), (3, 4), (4, 6), (7, 9)]

    def test_score_column_round_trip(self):
        scores = {("a", "b"): 0.75, ("b", "c"): 0.5}
        interner = TokenInterner(["a", "b", "c"])
        automaton = FlatAutomaton.compile(sorted(scores), interner, scores=scores)
        scan = CombinedAutomaton.of(automaton, TAG_UNITS)
        spans = scan.spans(scan.scan(interner.ids("a b c a b".split()))[0])
        assert [(s, e) for s, e, __ in spans] == [(0, 2), (3, 5)]
        assert [scan.out_score[terminal] for __, __, terminal in spans] == [
            0.75,
            0.75,
        ]


class TestCombinedAutomaton:
    def test_tagged_scan_matches_per_detector(self):
        interner = TokenInterner(["a", "b", "c", "d", "e"])
        concept_phrases = [("a", "b"), ("c",), ("b", "c", "d")]
        # ("a", "b") is in both inventories: its terminal carries both tags
        named_phrases = [("a", "b"), ("d", "e"), ("c", "d", "e")]
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
            assert_scan_finds_longest_matches(
                combined, ids, words, (concept_phrases, named_phrases)
            )
            named_seen += len(combined.scan(ids)[1])
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
                for d in reference.deduplicate(
                    reference.resolve_collisions(candidates)
                )
            ]
            compiled = env_pipeline.process(text).detections
            assert compiled == expected
            assert [d.score for d in compiled] == [d.score for d in expected]

    def test_term_and_unit_weights_float_identical(
        self, env_kernel, env_scorer, env_stories, tmp_path
    ):
        """The kernel's term and unit weights equal the per-term seed
        passes float for float: for the pipeline's kernel, the same
        kernel saved and loaded from a pack, the lexicon-only kernel a
        scorer compiles on its own, and one whose vocabulary leaves
        every non-unit word out of vocabulary."""
        scorer = env_scorer
        save_detection_kernel(env_kernel, tmp_path / "kernel.pack")
        kernels = [
            env_kernel,
            load_detection_kernel(tmp_path / "kernel.pack"),
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
        text = env_stories[0].text
        assert loaded.phrases == kernel.phrases
        assert loaded.scan(TokenizedDocument(text)) == kernel.scan(
            TokenizedDocument(text)
        )


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

    def test_nonzero_symbol_zero_entry_rejected(
        self, tmp_path, kernel_pack_sections
    ):
        """The scan keeps each state's emit in its symbol-0 slot, so a
        transition there, even to a valid state, fails at load."""
        for prefix in self.PREFIXES:
            name = f"{prefix}_delta"
            damaged = np.frombuffer(kernel_pack_sections[name], "<i4").copy()
            states = len(kernel_pack_sections[f"{prefix}_fail"]) // 4
            alphabet = len(damaged) // states
            damaged[(states // 2) * alphabet] = 1
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

    @pytest.mark.parametrize(
        "damage", ["flag_7", "oov_slot_content", "second_oov_slot", "truncated"]
    )
    def test_damaged_stem_flags_rejected(
        self, tmp_path, kernel_pack_sections, damage
    ):
        flags = np.frombuffer(kernel_pack_sections["stem_flags"], np.uint8)
        content = int(np.flatnonzero(flags == 0)[0])
        damaged = flags.copy()
        if damage == "flag_7":  # neither content nor OOV: word dropped
            damaged[content] = 7
        elif damage == "oov_slot_content":  # appends None per OOV word
            damaged[-1] = 0
        elif damage == "second_oov_slot":
            damaged[content] = 2
        else:
            damaged = flags[:-1]
        with pytest.raises(ValueError, match="stem_flags"):
            self.load_with(tmp_path, kernel_pack_sections, "stem_flags", damaged)

    def test_missing_content_stem_rejected(self, tmp_path, kernel_pack_sections):
        import json

        flags = np.frombuffer(kernel_pack_sections["stem_flags"], np.uint8)
        meta = json.loads(kernel_pack_sections["meta"].decode("utf-8"))
        meta["stems"][int(np.flatnonzero(flags == 0)[0])] = None
        damaged = np.frombuffer(json.dumps(meta).encode("utf-8"), np.uint8)
        with pytest.raises(ValueError, match="meta.stems"):
            self.load_with(tmp_path, kernel_pack_sections, "meta", damaged)

    @pytest.mark.parametrize("damage", ["truncated", "nan", "inf"])
    def test_damaged_unit_single_scores_rejected(
        self, tmp_path, kernel_pack_sections, damage
    ):
        name = "unit_single_scores"
        scores = np.frombuffer(kernel_pack_sections[name], "<f8")
        if damage == "truncated":
            damaged = scores[:-1]
        else:
            damaged = scores.copy()
            damaged[len(damaged) // 2] = np.nan if damage == "nan" else np.inf
        with pytest.raises(ValueError, match=name):
            self.load_with(tmp_path, kernel_pack_sections, name, damaged)

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_out_score_rejected(
        self, tmp_path, kernel_pack_sections, value
    ):
        name = "units_out_score"
        damaged = np.frombuffer(kernel_pack_sections[name], "<f8").copy()
        damaged[len(damaged) // 2] = value
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
