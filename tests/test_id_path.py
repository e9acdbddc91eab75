"""The id path from the scan to the sort equals the string path.

The pipeline resolves collisions and deduplicates over terminal-id
columns, and the service filters by store row and scores by row,
building :class:`Detection` objects only for the list it returns.
``tests/reference.py`` keeps the string path those replaced: each
detector's ``Detection`` list, ``resolve_collisions``, ``deduplicate``,
``d.phrase in store`` and features looked up by phrase.  Documents
drawn from the services' own concept and named phrases, joined and
split by every separator the tokenizer treats alike, must give the same
detections on both paths, field for field.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.concepts import TAXONOMY_TYPES
from repro.corpus.dictionaries import DictionaryEntry, EditorialDictionary
from repro.detection import (
    ConceptDetector,
    ConceptVectorScorer,
    NamedEntityDetector,
    ShortcutsPipeline,
)
from repro.features import RelevanceModel
from repro.features.interestingness import numeric_feature_names
from repro.obs import MetricsRegistry, Tracer
from repro.obs.quality import QualityMonitor
from repro.querylog.units import UnitLexicon
from repro.ranking import RankSVM
from repro.runtime import (
    PackedRelevanceStore,
    QuantizedInterestingnessStore,
    RankerService,
)
from repro.runtime.store import FIELD_COUNT
from repro.text.stemmer import stem
from repro.text.vectorize import DocumentFrequencyTable
from tests import reference

_SEPARATORS = [" ", "  ", "\t", "\n", "-"]
_PATTERN_TOKENS = [
    "a@b.co",
    "mail x.y@news.org now",
    "www.example.org",
    "http://y.com/z",
    "(408) 555-1234",
    "650-555-9876",
]
_FILLER = ["the", "and", "of", ",", ".", "x", "42"]


class RecordingMonitor(QualityMonitor):
    """A quality monitor that also keeps every ranking it observes."""

    def __init__(self):
        super().__init__(registry=MetricsRegistry())
        self.seen = []

    def observe_ranking(self, phrases, scores):
        self.seen.append((list(phrases), list(scores)))
        super().observe_ranking(phrases, scores)


def _model(seed):
    rng = np.random.default_rng(seed)
    width = len(numeric_feature_names(())) + 1
    sample = rng.normal(size=(40, width))
    return RankSVM(epochs=30).fit(sample, sample[:, 0], np.repeat(np.arange(8), 5))


def _services(pipeline, interestingness, relevance, model):
    def make(**kwargs):
        return RankerService(
            pipeline, interestingness, relevance, model,
            registry=MetricsRegistry(), tracer=Tracer(sample_every=0), **kwargs,
        )

    monitor = RecordingMonitor()
    return make(), make(quality=monitor), monitor


@pytest.fixture(scope="module")
def env_serving(env_world, env_extractor, env_miner, env_pipeline):
    """The environment world's pipeline over its own stores."""
    phrases = [c.phrase for c in env_world.concepts]
    interestingness = QuantizedInterestingnessStore.build(env_extractor, phrases)
    relevance = PackedRelevanceStore.build(
        RelevanceModel.mine_all(env_miner, phrases[:60])
    )
    return _services(env_pipeline, interestingness, relevance, _model(0))


def _overlap_pipeline():
    """Inventories whose phrases overlap and nest, and named phrases of
    one, two and ambiguous types; the world's inventories have none."""
    concepts = [
        ("alpha", "beta"),
        ("beta", "gamma"),
        ("gamma",),
        ("alpha", "beta", "gamma", "delta"),
        ("omega",),
        ("sigma", "kappa"),
        ("kappa", "omega"),
    ]
    entries = [
        ("beta gamma", "person"),
        ("gamma delta", "place"),
        ("omega", "place"),
        ("omega", "person"),
        ("sigma kappa", "organization"),
        ("sigma kappa", "organization"),
        ("delta", "place"),
        ("kappa", "person"),
        ("kappa", "organization"),
    ]
    lexicon = UnitLexicon([])
    return ShortcutsPipeline(
        ConceptDetector(concepts, lexicon),
        ConceptVectorScorer(DocumentFrequencyTable(), lexicon),
        named_detector=NamedEntityDetector(
            EditorialDictionary(
                [DictionaryEntry(phrase, kind, kind) for phrase, kind in entries]
            )
        ),
    )


@pytest.fixture(scope="module")
def overlap_serving():
    """A hand-made pipeline over stores that hold some of its phrases."""
    pipeline = _overlap_pipeline()
    phrases = [
        "alpha beta", "beta gamma", "gamma", "alpha beta gamma delta",
        "omega", "sigma kappa", "kappa", "gamma delta",
    ]
    rng = np.random.default_rng(5)
    matrix = rng.integers(0, 1 << 16, size=(len(phrases), FIELD_COUNT), dtype=np.uint16)
    matrix[:, -1] = rng.integers(0, len(TAXONOMY_TYPES) + 1, size=len(phrases))
    interestingness = QuantizedInterestingnessStore(
        [100.0] * (FIELD_COUNT - 1), phrases, matrix
    )
    words = ["alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "x"]
    relevance = PackedRelevanceStore.build(
        RelevanceModel(
            {
                phrase: tuple(
                    (stem(word), 1.0 + index)
                    for index, word in enumerate(words)
                    if word not in phrase.split()
                )
                for phrase in phrases[::2]
            }
        )
    )
    return _services(pipeline, interestingness, relevance, _model(1))


def _phrases(pipeline):
    concepts = sorted(" ".join(p) for p in pipeline._concepts.inventory())
    named = sorted(" ".join(p) for p in pipeline._named.inventory())
    both = sorted(set(concepts) & set(named)) or named
    ambiguous = [p for p in named if pipeline._named.record(p).resolved_type is None]
    return concepts, named, both, ambiguous or named


@st.composite
def documents(draw, pipeline):
    concepts, named, both, ambiguous = _phrases(pipeline)

    def rendered(phrase):
        words = phrase.split()
        case = draw(st.sampled_from([str.lower, str.upper, str.title, str.capitalize]))
        text = case(words[0])
        for word in words[1:]:
            text += draw(st.sampled_from([" "] * 4 + _SEPARATORS)) + case(word)
        return text

    phrase = st.one_of(
        st.sampled_from(concepts),
        st.sampled_from(named),
        st.sampled_from(both),
        st.sampled_from(ambiguous),
    )
    pieces = []
    for kind in draw(
        st.lists(st.sampled_from(["phrase"] * 4 + ["pattern", "glued", "filler"]),
                 max_size=10)
    ):
        if kind == "phrase":
            pieces.append(rendered(draw(phrase)))
        elif kind == "pattern":
            pieces.append(draw(st.sampled_from(_PATTERN_TOKENS)))
        elif kind == "glued":
            # a pattern entity that contains, or abuts, a phrase's words
            word = draw(phrase).split()[-1]
            pieces.append(
                draw(st.sampled_from([f"{word}@news.org", f"www.{word}.org",
                                      f"{word} 555-1234"]))
            )
        else:
            pieces.append(draw(st.sampled_from(_FILLER)))
    if pieces:  # repeated phrases: the first occurrence is the one kept
        pieces += draw(st.lists(st.sampled_from(pieces), max_size=4))
    glue = st.sampled_from([" ", "  ", "\n", ", ", "-", ". "])
    return "".join(piece + draw(glue) for piece in pieces)


def _fields(detections):
    for d in detections:
        assert type(d.start) is int and type(d.end) is int
        assert type(d.score) is float
    return [
        (d.text, d.start, d.end, d.kind, d.entity_type, d.terms, d.score)
        for d in detections
    ]


def _assert_matches_string_path(serving, text):
    service, monitored, monitor = serving
    pipeline = service._pipeline
    expected = _fields(reference.string_ranking(service, text))
    assert _fields(service.process(text)) == expected
    assert _fields(service.process(text, top=3)) == expected[:3]
    ranked, explanations = service.process(text, explain=True)
    assert _fields(ranked) == expected
    assert [(e.phrase, e.rank, e.score) for e in explanations] == [
        (surface.lower(), rank, score)
        for rank, (surface, __, __, __, __, __, score) in enumerate(expected)
    ]
    seen = len(monitor.seen)
    assert _fields(monitored.process(text, top=2)) == expected[:2]
    if expected:
        assert monitor.seen[seen:] == [
            ([d[0].lower() for d in expected], [d[6] for d in expected])
        ]
    else:
        assert len(monitor.seen) == seen
    assert _fields(pipeline.process(text).detections) == _fields(
        reference.string_baseline(pipeline, text)
    )


class TestIdPathMatchesStringPath:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_world_phrases(self, env_serving, data):
        text = data.draw(documents(env_serving[0]._pipeline))
        _assert_matches_string_path(env_serving, text)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_overlapping_and_ambiguous_phrases(self, overlap_serving, data):
        text = data.draw(documents(overlap_serving[0]._pipeline))
        _assert_matches_string_path(overlap_serving, text)

    def test_overlap_world_exercises_collisions(self, overlap_serving):
        service = overlap_serving[0]
        text = "Alpha beta gamma delta, sigma kappa omega and kappa omega"
        kinds = [
            (d.text, d.kind, d.entity_type)
            for d in service._pipeline.process(text).detections
        ]
        assert kinds == [
            ("Alpha beta gamma delta", "concept", None),
            ("sigma kappa", "named", "organization"),
            ("omega", "named", "place"),
            ("kappa omega", "concept", None),
        ]
        _assert_matches_string_path(overlap_serving, text)


class TestSeparatorQuirk:
    """A multi-word concept written across a newline, a double space or
    a hyphen is detected, but its surface key is no store phrase, so it
    is not ranked; dedup stays keyed on the surface text."""

    @pytest.fixture(scope="class")
    def phrase(self, env_serving):
        service = env_serving[0]
        concepts, __, __, __ = _phrases(service._pipeline)
        return next(p for p in concepts if " " in p and p in service._store)

    @pytest.mark.parametrize("separator", ["\n", "  ", "-"])
    def test_detected_not_ranked(self, env_serving, phrase, separator):
        service = env_serving[0]
        text = phrase.replace(" ", separator)
        detected = service._pipeline.process(text).detections
        assert [(d.text, d.terms) for d in detected] == [
            (text, tuple(phrase.split()))
        ]
        assert service.process(text) == []
        _assert_matches_string_path(env_serving, text)

    def test_dedup_keyed_on_surface_text(self, env_serving, phrase):
        service = env_serving[0]
        text = phrase.replace(" ", "\n") + " and then " + phrase
        [ranked] = service.process(text)
        assert (ranked.text, ranked.start) == (phrase, text.rindex(phrase))
        _assert_matches_string_path(env_serving, text)
