"""Shared state for the reproduction benchmarks.

One paper-scale environment and click dataset back every table/figure
benchmark.  Each benchmark registers its result rows here; a terminal
summary prints the full reproduction report at the end of the run (so
the rows survive pytest's output capturing), and the same rows are
written to ``benchmarks/RESULTS.md``.
"""

import os

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


@pytest.fixture(scope="session")
def _bench_state():
    """The environment and click dataset, built once per session."""
    env = Environment.build(EnvironmentConfig(world=BENCH_WORLD))
    return env, collect_dataset(env, BENCH_STORIES, story_seed=1)


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
