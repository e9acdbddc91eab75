"""Generated benchmark inputs and their on-disk cache.

Only generator outputs are cached: the synthetic world, its query log
and the document pools.  Everything the program under test produces
from them (packs, stores, kernel, service) is rebuilt in every run, so
a change to the pack format or the serving path always takes effect.

Generating the world takes about half a minute and a document pool
about as long; unpickling them takes well under a second, which keeps
many runs per workload affordable.  The cache lives in
``.perfbench_cache/`` at the checkout root, keyed by the settings.

``--seed`` draws a run's documents from a fixed pool.  Drawing, rather
than generating a fresh set per seed, keeps the tail of the document
mix (which sets p99 latency) alike from seed to seed, and costs no
generation time for a new seed.
"""

import hashlib
import os
import pickle

import numpy as np

from repro.corpus import SyntheticWorld, WorldConfig
from repro.corpus.documents import StoryGenerator
from repro.querylog import query_log_for_world

# The world of benchmarks/bench_hotpath.py (HOTPATH_WORLD): 8,104 web
# pages, 220 concepts.  Its seed stays fixed so the pack bytes, and
# with them the golden pack digests, do not depend on --seed.
WORLD = WorldConfig(
    seed=7,
    vocabulary_size=2000,
    topic_count=24,
    words_per_topic=50,
    concept_count=220,
    topic_page_count=150,
)
QUERY_LOG_SEED = 101
DEFAULT_SEED = 4242

POOL_DOCUMENTS = 2000
RUN_DOCUMENTS = 1000  # drawn from the pool for each seed
_NEWS_STREAM = 4242
_ANSWERS_STREAM = 302


def _cached(path, make):
    """Unpickle *path*, or build it with *make* and write it atomically."""
    if os.path.exists(path):
        with open(path, "rb") as handle:
            return pickle.load(handle)
    value = make()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    partial = f"{path}.{os.getpid()}.part"
    with open(partial, "wb") as handle:
        pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(partial, path)
    return value


def _key(*settings):
    return hashlib.sha256(repr((WORLD, QUERY_LOG_SEED) + settings).encode()).hexdigest()[:12]


def world_and_log(cache_dir):
    """The synthetic world and its query log (cached)."""

    def make():
        world = SyntheticWorld.build(WORLD)
        return world, query_log_for_world(world, seed=QUERY_LOG_SEED)

    return _cached(os.path.join(cache_dir, f"world-{_key()}.pkl"), make)


def _draw(pool, seed):
    order = np.random.default_rng(seed).permutation(len(pool))[:RUN_DOCUMENTS]
    return [pool[int(index)] for index in order]


def news_documents(world, seed, cache_dir):
    """~4.2 KB news stories from the world's story generator."""

    def make():
        generator = world.story_generator(seed=_NEWS_STREAM)
        return [story.text for story in generator.generate_many(POOL_DOCUMENTS)]

    key = _key("news", _NEWS_STREAM, POOL_DOCUMENTS)
    pool = _cached(os.path.join(cache_dir, f"news-{key}.pkl"), make)
    return _draw(pool, seed)


def answers_documents(world, seed, cache_dir):
    """~1.1 KB Q&A snippets with the paper's Table VI answers settings."""

    def make():
        generator = StoryGenerator(
            np.random.default_rng((world.config.seed, _ANSWERS_STREAM)),
            world.topics,
            world.concepts,
            world.vocabulary,
            min_words=50,
            max_words=130,
            relevant_range=(2, 4),
            offtopic_range=(1, 2),
        )
        return [doc.text for doc in generator.generate_many(POOL_DOCUMENTS)]

    key = _key("answers", _ANSWERS_STREAM, POOL_DOCUMENTS)
    pool = _cached(os.path.join(cache_dir, f"answers-{key}.pkl"), make)
    return _draw(pool, seed)
