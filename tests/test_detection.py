"""Tests for pattern/named/concept detectors, matcher, and pipeline."""

import timeit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection import (
    KIND_CONCEPT,
    KIND_NAMED,
    KIND_PATTERN,
    ConceptDetector,
    Detection,
    PatternDetector,
)
from repro.detection.base import PhraseDetector
from repro.detection.kernel import FlatAutomaton, StemTable
from repro.detection.patterns import _PATTERNS, _email_spans
from repro.querylog.units import UnitLexicon
from repro.text import TokenizedDocument
from tests.reference import (
    EMAIL_RE,
    deduplicate,
    overlaps,
    priority,
    resolve_collisions,
)

# Pieces that join into pattern entities, their near misses, and digits
# of several scripts, so random texts hit every gate both ways.
_PATTERN_PIECES = [
    "555-123-4567", "(408) 555-1234", "+1 650.555.9876",
    "５５５-１２３-４５６７", "٥٥٥-١٢٣-٤٥٦٧", "१२३", "7", "-", ".", " ", "\n",
    "call", "a@b.co", "www.x.org", "http://y.com/z", "é", "@",
]


def find(phrases, text):
    """(phrase, start, end) matches of *phrases* in *text*."""
    return PhraseDetector(phrases).matches(TokenizedDocument(text))


class TestPatternDetector:
    def setup_method(self):
        self.detector = PatternDetector()

    def test_email(self):
        hits = self.detector.detect("contact uirmak@yahoo-inc.com today")
        assert any(d.entity_type == "email" for d in hits)
        email = next(d for d in hits if d.entity_type == "email")
        assert email.text == "uirmak@yahoo-inc.com"

    def test_url(self):
        hits = self.detector.detect("see http://news.yahoo.com/story for details")
        url = next(d for d in hits if d.entity_type == "url")
        assert url.text.startswith("http://news.yahoo.com")

    def test_www_url(self):
        hits = self.detector.detect("visit www.example.org now")
        assert any(d.entity_type == "url" for d in hits)

    def test_phone(self):
        hits = self.detector.detect("call (408) 555-1234 or 650-555-9876")
        phones = [d for d in hits if d.entity_type == "phone"]
        assert len(phones) == 2

    # fullwidth and Arabic-Indic digits
    @pytest.mark.parametrize("phone", ["５５５-１２３-４５６７", "٥٥٥-١٢٣-٤٥٦٧"])
    def test_phone_in_non_ascii_digits(self, phone):
        hits = self.detector.detect(f"Call {phone} today")
        assert [(d.entity_type, d.text) for d in hits] == [("phone", phone)]

    @given(
        st.lists(st.sampled_from(_PATTERN_PIECES), max_size=12).map("".join)
        | st.text(max_size=40)
    )
    @settings(max_examples=300)
    def test_gates_skip_only_scans_that_find_nothing(self, text):
        ungated = sorted(
            (
                (start, end, entity_type)
                for entity_type, spans, __ in _PATTERNS
                for start, end in spans(text)
            ),
            key=lambda hit: (hit[0], hit[0] - hit[1]),
        )
        assert [
            (d.start, d.end, d.entity_type) for d in self.detector.detect(text)
        ] == ungated

    def test_offsets(self):
        text = "mail me at a@b.co please"
        hits = self.detector.detect(text)
        for detection in hits:
            assert text[detection.start : detection.end] == detection.text

    def test_clean_text_no_hits(self):
        assert self.detector.detect("no patterns here at all") == []


# Pieces of email-like text: every character class the expression
# treats apart (local-part-only symbols, domain symbols, letters,
# digits, "_" and non-ASCII word characters, separators) and runs of
# dotted labels around "@".
_EMAIL_PIECES = [
    "a", "Z", "9", "_", "é", ".", "-", "%", "+", "@", " ", "\n", "ab", "co",
    "a.", ".com", "x.y", "a@b.co", "@@", "a1", "..",
]


class TestEmailScan:
    """The "@"-anchored scan finds what the email regular expression
    (kept in ``tests/reference.py``) finds, in linear time."""

    @given(
        st.lists(st.sampled_from(_EMAIL_PIECES), max_size=30).map("".join)
        | st.text(max_size=40)
    )
    @settings(max_examples=500)
    def test_matches_the_regex(self, text):
        assert _email_spans(text) == [m.span() for m in EMAIL_RE.finditer(text)]

    @pytest.mark.parametrize(
        "text",
        [
            "a@b.co.d@e.ff",
            "a@b.cc@d.ee",
            "x_a@b.co",
            "é.a@b.co é@b.co",
            "a@b.co1 a@b.c",
            "a." * 40 + "@" + "a." * 40 + "aa",
        ],
    )
    def test_matches_the_regex_on_edge_cases(self, text):
        assert _email_spans(text) == [m.span() for m in EMAIL_RE.finditer(text)]

    def test_time_grows_linearly(self):
        """A dotted run around one "@" made the regex quadratic (a ratio
        near 64 for 8x the text); the scan's ratio is near 8."""
        detector = PatternDetector()

        def seconds(n):
            text = "a." * n + "@" + "a." * n
            return min(timeit.repeat(lambda: detector.matches(text), number=1, repeat=7))

        assert seconds(16_000) / seconds(2_000) < 24


class TestPhraseMatcher:
    """Phrase matching as a detector used on its own runs it: through
    the automaton it compiles for its inventory on first use."""

    def test_single_and_multi(self):
        text = "talks with Cuba about global warming today"
        matches = find([("cuba",), ("global", "warming")], text)
        phrases = [m[0] for m in matches]
        assert ("cuba",) in phrases
        assert ("global", "warming") in phrases

    def test_longest_match_wins(self):
        matches = find(
            [("new", "york"), ("new", "york", "city")], "in new york city tonight"
        )
        assert matches[0][0] == ("new", "york", "city")

    def test_offsets_match_surface(self):
        text = "The Global Warming debate."
        ((__, start, end),) = find([("global", "warming")], text)
        assert text[start:end] == "Global Warming"

    def test_case_insensitive(self):
        assert find([("CUBA",)], "cuba and Cuba") != []

    def test_no_match(self):
        assert find([("absent",)], "nothing to see") == []

    def test_empty_inventory(self):
        assert find([], "anything") == []

    def test_matches_do_not_overlap(self):
        matches = find([("a", "b"), ("b", "c")], "a b c")
        assert len(matches) == 1
        assert matches[0][0] == ("a", "b")

    def test_compiles_only_its_scan(self, monkeypatch):
        """One automaton over the inventory's own tokens, and no stem
        table: a detector on its own reads neither a kernel nor stems."""
        compiled = []
        compile_flat = FlatAutomaton.compile.__func__

        def counted(cls, *args, **kwargs):
            compiled.append(cls)
            return compile_flat(cls, *args, **kwargs)

        def refused(*args, **kwargs):
            raise AssertionError("a detector on its own built a stem table")

        monkeypatch.setattr(FlatAutomaton, "compile", classmethod(counted))
        monkeypatch.setattr(StemTable, "__init__", refused)
        detector = ConceptDetector([("global", "warming"), ("cuba",)], UnitLexicon([]))
        detections = detector.detect("Cuba talks on global warming")
        assert [(d.text, d.start) for d in detections] == [
            ("Cuba", 0),
            ("global warming", 14),
        ]
        assert compiled == [FlatAutomaton]
        assert sorted(detector._scan.base.interner.terms) == ["cuba", "global", "warming"]


class TestCollisionsAndDedup:
    def make(self, start, end, kind, text="x"):
        return Detection(text=text, start=start, end=end, kind=kind)

    def test_longer_span_wins(self):
        short = self.make(0, 3, KIND_NAMED)
        long = self.make(0, 8, KIND_CONCEPT)
        kept = resolve_collisions([short, long])
        assert kept == [long]

    def test_priority_breaks_length_ties(self):
        named = self.make(0, 5, KIND_NAMED)
        concept = self.make(0, 5, KIND_CONCEPT)
        kept = resolve_collisions([concept, named])
        assert kept == [named]

    def test_pattern_highest_priority(self):
        pattern = self.make(0, 5, KIND_PATTERN)
        named = self.make(0, 5, KIND_NAMED)
        assert resolve_collisions([named, pattern]) == [pattern]

    def test_non_overlapping_all_kept_in_order(self):
        a = self.make(10, 15, KIND_CONCEPT)
        b = self.make(0, 5, KIND_NAMED)
        assert resolve_collisions([a, b]) == [b, a]

    def test_dedup_keeps_first_occurrence(self):
        first = Detection("Cuba", 0, 4, KIND_NAMED)
        second = Detection("cuba", 50, 54, KIND_NAMED)
        assert deduplicate([first, second]) == [first]

    def test_dedup_case_insensitive_distinct_phrases_kept(self):
        a = Detection("Cuba", 0, 4, KIND_NAMED)
        b = Detection("Texas", 10, 15, KIND_NAMED)
        assert deduplicate([a, b]) == [a, b]


class TestCollisionProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 50),
                st.integers(1, 10),
                st.sampled_from([KIND_PATTERN, KIND_NAMED, KIND_CONCEPT]),
            ),
            max_size=15,
        )
    )
    @settings(max_examples=50)
    def test_resolution_invariants(self, raw):
        detections = [
            Detection(text="x" * length, start=start, end=start + length, kind=kind)
            for start, length, kind in raw
        ]
        kept = resolve_collisions(detections)
        # 1. output is sorted and non-overlapping
        for left, right in zip(kept, kept[1:]):
            assert left.end <= right.start
        # 2. every dropped detection overlaps something kept with
        #    greater-or-equal priority
        for detection in detections:
            if detection in kept:
                continue
            blockers = [k for k in kept if overlaps(k, detection)]
            assert blockers
            assert any(priority(k) >= priority(detection) for k in blockers)
        # 3. idempotent
        assert resolve_collisions(kept) == kept


class TestConceptDetector:
    def test_detects_world_concepts_in_stories(
        self, env_world, env_concept_detector, env_stories
    ):
        by_id = {c.concept_id: c for c in env_world.concepts}
        detected_total = 0
        embedded_total = 0
        for story in env_stories:
            detected = {
                d.phrase for d in env_concept_detector.detect(story.text)
            }
            embedded = {
                by_id[m.concept_id].phrase.lower() for m in story.mentions
            }
            detectable_embedded = {
                p
                for p in embedded
                if tuple(p.split()) in env_concept_detector._phrases
            }
            embedded_total += len(detectable_embedded)
            detected_total += len(detectable_embedded & detected)
        assert embedded_total > 0
        assert detected_total / embedded_total > 0.95

    def test_inventory_excludes_unsupported_multiterm(
        self, env_world, env_detectable, env_lexicon
    ):
        for phrase in env_detectable:
            if len(phrase) > 1:
                assert phrase in env_lexicon

    def test_offsets_valid(self, env_concept_detector, env_stories):
        story = env_stories[0]
        for detection in env_concept_detector.detect(story.text):
            assert story.text[detection.start : detection.end] == detection.text
            assert detection.kind == KIND_CONCEPT


class TestNamedEntityDetector:
    def test_detects_dictionary_entities(self, env_world, env_pipeline, env_stories):
        from repro.detection import NamedEntityDetector

        detector = NamedEntityDetector(env_world.dictionary)
        found_any = False
        for story in env_stories[:10]:
            for detection in detector.detect(story.text):
                found_any = True
                assert detection.kind == KIND_NAMED
                assert detection.entity_type is not None
                assert (
                    env_world.dictionary.high_level_type(detection.phrase)
                    is not None
                )
        assert found_any

    def test_ambiguous_resolved_to_some_valid_type(self, env_world):
        from repro.detection import NamedEntityDetector

        dictionary = env_world.dictionary
        ambiguous = [p for p in dictionary.phrases() if dictionary.is_ambiguous(p)]
        if not ambiguous:
            pytest.skip("no ambiguous entries in this seed")
        detector = NamedEntityDetector(dictionary)
        phrase = ambiguous[0]
        hits = detector.detect(f"something about {phrase} here")
        assert hits
        valid_types = {e.high_level_type for e in dictionary.lookup(phrase)}
        assert hits[0].entity_type in valid_types


class TestPipeline:
    def test_process_plain_story(self, env_pipeline, env_stories):
        annotated = env_pipeline.process(env_stories[0].text)
        assert annotated.detections
        spans = [(d.start, d.end) for d in annotated.detections]
        # no overlaps after collision resolution
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_phrases_unique(self, env_pipeline, env_stories):
        annotated = env_pipeline.process(env_stories[1].text)
        phrases = [d.phrase for d in annotated.detections]
        assert len(set(phrases)) == len(phrases)

    def test_concepts_scored(self, env_pipeline, env_stories):
        annotated = env_pipeline.process(env_stories[2].text)
        rankable = annotated.rankable()
        assert rankable
        assert any(d.score > 0 for d in rankable)

    def test_ranking_descending(self, env_pipeline, env_stories):
        annotated = env_pipeline.process(env_stories[3].text)
        ranked = annotated.by_concept_vector_score()
        scores = [d.score for d in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_html_input(self, env_pipeline, env_stories):
        html = "<html><body><p>%s</p></body></html>" % env_stories[4].text
        annotated = env_pipeline.process(html, is_html=True)
        assert annotated.detections

    def test_annotate_marks_detections(self, env_pipeline, env_stories):
        annotated = env_pipeline.process(env_stories[5].text)
        marked = annotated.annotate()
        assert marked.count("[[") == len(annotated.detections)

    def test_pattern_entities_not_rankable(self, env_pipeline):
        text = "write to someone@example.com about the news"
        annotated = env_pipeline.process(text)
        patterns = [d for d in annotated.detections if d.kind == KIND_PATTERN]
        assert patterns
        assert all(d not in annotated.rankable() for d in patterns)
