"""Component micro-benchmarks (not paper tables).

Steady-state throughput of the hot-path components, measured with
pytest-benchmark's normal multi-round machinery (unlike the experiment
benchmarks, which run heavyweight pipelines once).  These catch
performance regressions in the pieces Section VI's numbers depend on.
"""

import numpy as np
import pytest

from repro.text.stemmer import PorterStemmer
from repro.text.tokenized import TokenizedDocument
from repro.text.tokenizer import tokenize_lower, word_spans


@pytest.fixture(scope="module")
def sample_text(bench_env):
    return " ".join(story.text for story in bench_env.stories(5, seed=9))


def test_micro_tokenizer(benchmark, sample_text):
    """The serving tokenizer: lower-cased words and their offsets."""
    words, starts, ends = benchmark(word_spans, sample_text)
    assert len(words) > 100 and len(starts) == len(ends) == len(words)


def test_micro_tokenize_lower(benchmark, sample_text):
    """The offline build's tokenizer: lower-cased words only."""
    words = benchmark(tokenize_lower, sample_text)
    assert words


def test_micro_stemmer_uncached(benchmark, sample_text):
    stemmer = PorterStemmer()
    words = tokenize_lower(sample_text)[:2000]

    def run():
        return [stemmer.stem(word) for word in words]

    stems = benchmark(run)
    assert len(stems) == len(words)


def test_micro_stem_document(benchmark, bench_env, sample_text):
    """The runtime service's stemmer stage: tokenize a fresh document
    and intern it against the pipeline's kernel."""
    pipeline = bench_env.pipeline
    pipeline.stem_document(TokenizedDocument(sample_text))  # compile the kernel

    def run():
        return pipeline.stem_document(TokenizedDocument(sample_text))

    document = benchmark(run)
    assert document.stemmed_terms


def test_micro_concept_detector(benchmark, bench_env, sample_text):
    detector = bench_env.concept_detector
    matches = benchmark(detector.detect, sample_text)
    assert isinstance(matches, list)


def test_micro_concept_vector(benchmark, bench_env, sample_text):
    scorer = bench_env.baseline_scorer
    vector = benchmark(scorer.concept_vector, sample_text[:2500])
    assert len(vector) > 0


def test_micro_phrase_search(benchmark, bench_env):
    phrase = bench_env.world.concepts[0].phrase
    results = benchmark(bench_env.engine.phrase_search, phrase, 100)
    assert isinstance(results, list)


def test_micro_ranksvm_decision(benchmark, bench_experiment):
    from repro.ranking import RankSVM

    features = bench_experiment.feature_matrix()
    model = RankSVM(epochs=50)
    model.fit(
        features,
        bench_experiment._labels_arr,
        bench_experiment._groups_arr,
    )
    scores = benchmark(model.decision_function, features)
    assert scores.shape[0] == features.shape[0]
