"""Shared state for the reproduction benchmarks.

One paper-scale environment and click dataset back every table/figure
benchmark.  Each benchmark registers its result rows here; a terminal
summary prints the full reproduction report at the end of the run (so
the rows survive pytest's output capturing), and the same rows are
written to ``benchmarks/RESULTS.md``.
"""

import os
import pickle
import warnings
from pathlib import Path
from typing import List

import pytest

from _report import (  # noqa: F401 (record_section re-exported for benches)
    persist_sections,
    record_section,
    render,
    session_has_sections,
)
from repro.corpus import WorldConfig
from repro.eval import (
    Environment,
    EnvironmentConfig,
    RankingExperiment,
    collect_dataset,
    train_combined_ranker,
)

# Paper scale: 870 stories / 6420 concepts / 947 windows after filtering.
# We generate 1600 sampled stories over a 600-concept universe, which
# lands in the same regime after the Section V-A.1 noise filters.
BENCH_WORLD = WorldConfig(
    seed=2009,
    vocabulary_size=3000,
    topic_count=36,
    words_per_topic=60,
    concept_count=600,
    topic_page_count=400,
)
BENCH_STORIES = int(os.environ.get("REPRO_BENCH_STORIES", "1600"))


# Building the paper-scale environment and click dataset takes minutes;
# they are deterministic in the config, so cache them on disk.  The
# cache also persists the environment's mined-relevance caches between
# benchmark invocations.
_CACHE_PATH = Path(__file__).with_name(".bench_cache.pkl")


def _cache_key():
    return (BENCH_WORLD, BENCH_STORIES)


def _load_cached():
    if not _CACHE_PATH.exists():
        return None
    try:
        with open(_CACHE_PATH, "rb") as handle:
            payload = pickle.load(handle)
    except Exception:
        return None
    if payload.get("key") != _cache_key():
        return None
    return payload


def _store_cache(env, dataset) -> None:
    payload = {"key": _cache_key(), "env": env, "dataset": dataset}
    try:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except TypeError as error:
        # The environment's search engine holds live registry metrics
        # (thread-local shards, locks), which do not pickle: run
        # uncached rather than fail every benchmark at set-up.
        warnings.warn(f"benchmark environment not cached: {error}")
        return
    _CACHE_PATH.write_bytes(blob)


@pytest.fixture(scope="session")
def _bench_state():
    cached = _load_cached()
    if cached is not None:
        env, dataset = cached["env"], cached["dataset"]
    else:
        env = Environment.build(EnvironmentConfig(world=BENCH_WORLD))
        dataset = collect_dataset(env, BENCH_STORIES, story_seed=1)
        _store_cache(env, dataset)
    yield env, dataset
    # persist relevance-model caches mined during this session
    _store_cache(env, dataset)


@pytest.fixture(scope="session")
def bench_env(_bench_state):
    return _bench_state[0]


@pytest.fixture(scope="session")
def bench_dataset(_bench_state):
    return _bench_state[1]


@pytest.fixture(scope="session")
def bench_experiment(bench_env, bench_dataset):
    return RankingExperiment(bench_env, bench_dataset)


@pytest.fixture(scope="session")
def bench_ranker(bench_env, bench_experiment):
    return train_combined_ranker(bench_env, bench_experiment)


def pytest_terminal_summary(terminalreporter):
    if not session_has_sections():
        return
    report = render(persist_sections())
    terminalreporter.write_sep("=", "reproduction results (paper vs measured)")
    terminalreporter.write(report + "\n")
    path = os.path.join(os.path.dirname(__file__), "RESULTS.md")
    with open(path, "w") as handle:
        handle.write("# Benchmark results\n\n```\n" + report + "\n```\n")
    terminalreporter.write(f"written to {path}\n")
