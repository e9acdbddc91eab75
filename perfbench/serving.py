"""Build a pack, cold-start a service from it, and check what it ranks.

This is the shape ``repro serve --pack`` serves in: ``OfflineBuilder``
writes the datapacks, the runtime loads the interestingness and
relevance stores by mmap and the compiled detection kernel from
``detection.rpak``, and a ``RankerService`` ranks with them.  Every
call goes through the package's public API.
"""

import hashlib
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from repro.detection import (
    ConceptDetector,
    ConceptVectorScorer,
    NamedEntityDetector,
    ShortcutsPipeline,
    detectable_concept_phrases,
)
from repro.features.interestingness import numeric_feature_names
from repro.offline.builder import (
    DETECTION_PACK,
    INTERESTINGNESS_PACK,
    MANIFEST,
    RELEVANCE_PACK,
    BuildConfig,
    OfflineBuilder,
)
from repro.querylog import UnitMiner
from repro.ranking import RankSVM
from repro.runtime import (
    CompressedRelevanceStore,
    RankerService,
    load_interestingness_store,
    load_relevance_store,
)
from repro.runtime.datapack import load_detection_kernel

TOP = 5
# Two offline workers: the machine the benchmark was written on has two
# cores, and more workers than cores only adds contention.
BUILD_WORKERS = 2
KERNEL_PATH = "compiled kernel loaded from detection.rpak"


def ranked_digest(ranked):
    """Digest of one ranked list: phrases and scores, in rank order.

    Scores are written with 12 significant digits, so a last-bit
    difference in floating-point summation order does not flip it.
    """
    body = "\n".join(f"{d.phrase}\t{d.score:.12g}" for d in ranked)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


@dataclass
class Inventories:
    """Everything the builder and the service need besides the pack."""

    world: object
    query_log: object
    phrases: list
    lexicon: object
    detectable: set
    model: RankSVM


def prepare(world, query_log):
    """Builder inputs, detector inventories and the ranking model.

    The model is the demo ranker ``repro serve`` trains: a fixed-seed
    RankSVM over random features of the serving width.
    """
    lexicon = UnitMiner().mine(query_log)
    detectable = detectable_concept_phrases(
        (tuple(c.terms) for c in world.concepts), lexicon, query_log
    )
    width = len(numeric_feature_names(())) + 1
    rng = np.random.default_rng(0)
    sample = rng.normal(size=(40, width))
    model = RankSVM(epochs=30)
    model.fit(sample, sample[:, 0], np.repeat(np.arange(8), 5))
    return Inventories(
        world=world,
        query_log=query_log,
        phrases=[" ".join(c.terms) for c in world.concepts],
        lexicon=lexicon,
        detectable=detectable,
        model=model,
    )


def build_pack(inventories, out_dir):
    """Run ``OfflineBuilder.build`` into *out_dir*; returns its report."""
    world = inventories.world
    return OfflineBuilder(BuildConfig(workers=BUILD_WORKERS)).build(
        world.web_corpus,
        inventories.query_log,
        inventories.phrases,
        out_dir,
        dictionary=world.dictionary,
        wikipedia=world.wikipedia,
    )


def pack_bytes(pack_dir):
    """Total bytes of the files in a pack directory, and detection.rpak's."""
    sizes = {
        name: os.path.getsize(os.path.join(pack_dir, name))
        for name in (INTERESTINGNESS_PACK, RELEVANCE_PACK, DETECTION_PACK, MANIFEST)
    }
    return sum(sizes.values()), sizes[DETECTION_PACK]


@dataclass
class Served:
    """A cold-started service and the handles the benchmark checks."""

    service: RankerService
    pipeline: ShortcutsPipeline
    kernel: object
    relevance: object
    model: object
    first_ranked: list
    seconds: float
    phases_ms: dict


def cold_start(inventories, pack_dir, first_document, compressed=False):
    """Open *pack_dir*, construct the service, rank *first_document*.

    With *compressed* the relevance store is served Golomb-coded
    (``CompressedRelevanceStore.from_packed`` with its default decode
    cache) instead of as the mapped packed arena.
    """
    world = inventories.world
    started = time.perf_counter()
    interestingness = load_interestingness_store(
        os.path.join(pack_dir, INTERESTINGNESS_PACK)
    )
    loaded_interestingness = time.perf_counter()
    relevance = load_relevance_store(os.path.join(pack_dir, RELEVANCE_PACK))
    loaded_relevance = time.perf_counter()
    kernel = load_detection_kernel(os.path.join(pack_dir, DETECTION_PACK))
    loaded_kernel = time.perf_counter()
    if compressed:
        relevance = CompressedRelevanceStore.from_packed(relevance)
    pipeline = ShortcutsPipeline(
        ConceptDetector(inventories.detectable, inventories.lexicon),
        ConceptVectorScorer(world.doc_frequency, inventories.lexicon),
        named_detector=NamedEntityDetector(world.dictionary),
        kernel=kernel,
    )
    service = RankerService(pipeline, interestingness, relevance, inventories.model)
    constructed = time.perf_counter()
    require_pack_kernel(pipeline, kernel)
    first_ranked = service.process(first_document, top=TOP)
    finished = time.perf_counter()
    return Served(
        service=service,
        pipeline=pipeline,
        kernel=kernel,
        relevance=relevance,
        model=inventories.model,
        first_ranked=first_ranked,
        seconds=finished - started,
        phases_ms={
            "interestingness": (loaded_interestingness - started) * 1e3,
            "relevance": (loaded_relevance - loaded_interestingness) * 1e3,
            "kernel": (loaded_kernel - loaded_relevance) * 1e3,
            "first_doc": (finished - constructed) * 1e3,
        },
    )


def require_pack_kernel(pipeline, kernel):
    """Fail unless *pipeline* runs the compiled kernel loaded from the pack.

    Without it the service silently falls back to the pure-Python path,
    which is about half as fast and would be timed by mistake.
    """
    if pipeline.kernel is None:
        raise RuntimeError("serving pipeline has no compiled detection kernel")
    if pipeline.kernel is not kernel:
        raise RuntimeError("serving pipeline's kernel is not the one from the pack")


def read_manifest_digests(pack_dir):
    """The ``pack_sha256`` map the builder wrote into the manifest."""
    with open(os.path.join(pack_dir, MANIFEST)) as handle:
        return json.load(handle)["pack_sha256"]
