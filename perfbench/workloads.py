"""The benchmark's three workloads and the metrics they report.

Every workload runs in one process with one closed-loop caller: a
document is sent only after the previous ranked list came back, which
is how callers use ``RankerService`` (a page renderer waits for its
keywords, and the service has no queue).

* ``news_packed``: ~4.2 KB news stories ranked by a service cold-started
  from the pack the set-up built (mapped packed relevance store,
  compiled kernel from ``detection.rpak``).  Long documents put most of
  the time in the stemmer pass and the detection scan.
* ``answers_golomb``: ~1.1 KB Q&A snippets on the same pack, with the
  relevance store served Golomb-coded through its 128-entry decode
  cache.  Short documents shrink the scan, so relevance decoding and
  per-document fixed costs dominate; 220 concepts overflow the cache.
* ``build_swap``: repeated ``OfflineBuilder.build`` into a fresh pack
  directory, a cold start from it, and the news batch served twice by
  the swapped-in service.  This times the offline half and the pack
  format, which the serving workloads only pay in set-up.

Every time is scaled to the reference host speed (``calibration.py``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` repeats the
untraced run, then runs again with spans around each layer and reports
the per-layer metrics (``spans.py``).
"""

import gc
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from repro.detection.kernel import intern_call_count
from repro.ranking.model import FeatureAssembler
from repro.text import tokenize_call_count
from repro.text.stemmer import stem_cache_info

from perfbench import inputs
from perfbench.calibration import HostClock
from perfbench.serving import (
    TOP,
    build_pack,
    cold_start,
    pack_bytes,
    prepare,
    ranked_digest,
    read_manifest_digests,
    require_pack_kernel,
)
from perfbench.spans import SpanRecorder

WORKLOADS = ("news_packed", "answers_golomb", "build_swap")
CACHE_DIR = ".perfbench_cache"
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

SETUP_REPEATS = 3  # setup_s, build_s and cold_start_s are medians over these
SEGMENT_DOCUMENTS = 25  # documents between two calibration samples
CALIBRATION_WINDOW = 5  # samples on each side of a segment
SWAP_SERVE_PASSES = 2  # news passes served after each swap
MIN_SWAP_CYCLES = 3  # build_s takes per-stage medians over the cycles
OFFLINE_STAGES = (
    "corpus", "index", "units", "interestingness",
    "relevance", "quantize", "kernel", "pack",
)
LOAD_PHASES = ("interestingness", "relevance", "kernel", "first_doc")

END_TO_END_UNITS = {
    "mb_per_s": "MB/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "pack_mb": "MB",
    "rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "text.stemmer_us": "us",
    "text.tokens_per_doc": "count",
    "text.tokenize_calls_per_doc": "count",
    "text.intern_calls_per_doc": "count",
    "text.porter_calls_per_doc": "count",
    "detection.scan_us": "us",
    "detection.pipeline_us": "us",
    "detection.candidates_per_doc": "count",
    "ranking.context_us": "us",
    "ranking.features_us": "us",
    "ranking.decision_us": "us",
    "ranking.scored_per_doc": "count",
    "runtime.relevance_us": "us",
    "runtime.service_us": "us",
    "runtime.relevance_nonzero_ratio": "ratio",
    "runtime.relevance_scored": "count",
    "runtime.decode_cache_hit_ratio": "ratio",
    "runtime.decode_cache_lookups": "count",
    "runtime.cold_start_s": "s",
    "runtime.load_interestingness_ms": "ms",
    "runtime.load_relevance_ms": "ms",
    "runtime.load_kernel_ms": "ms",
    "runtime.first_doc_ms": "ms",
    "runtime.detection_pack_mb": "MB",
    "offline.build_s": "s",
    **{f"offline.{stage}_s": "s" for stage in OFFLINE_STAGES},
    "bench.traced_docs": "count",
    "bench.untraced_mb_per_s": "MB/s",
    "bench.trace_overhead_frac": "ratio",
    "bench.calibration_ms": "ms",
}


def rss_bytes():
    """Resident set size of this process, from /proc/self/statm."""
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def load_golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@dataclass
class LoopStats:
    """Scaled latencies and per-pass figures of closed loops."""

    latencies: list = field(default_factory=list)
    pass_rates: list = field(default_factory=list)  # MB/s of each pass
    per_document: dict = field(default_factory=dict)  # index -> scaled latencies
    factors: list = field(default_factory=list)  # host scale per segment

    def extend(self, other):
        self.latencies.extend(other.latencies)
        self.pass_rates.extend(other.pass_rates)
        for index, latencies in other.per_document.items():
            self.per_document.setdefault(index, []).extend(latencies)
        self.factors.extend(other.factors)

    def tail_ms(self):
        """p99 over documents of each document's median latency.

        Host interruptions slow a different few documents in every pass;
        the per-document median drops them, so the tail is the one the
        document mix itself has.
        """
        medians = [median(latencies) for latencies in self.per_document.values()]
        return float(np.percentile(medians, 99)) * 1e3


class Run:
    """One benchmark invocation: inputs, checks, builds and cold starts."""

    def __init__(self, workload, seed, seconds, trace, root):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.cache_dir = os.path.join(root, CACHE_DIR)
        self.work_dir = os.path.join(self.cache_dir, f"work-{os.getpid()}")
        self.golden = load_golden()
        self.world, self.query_log = inputs.world_and_log(self.cache_dir)
        self.host = HostClock()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.builds = []  # (scaled build s, stage -> scaled s) per measured build
        self.cold_starts = []  # (scaled s, phase -> scaled ms) per measured start
        self.pack_size = None  # (total bytes, detection.rpak bytes)
        self.recorder = None  # the traced run's spans

    # -- checks ---------------------------------------------------------

    def problem(self, message):
        """A failed check; the run then reports ``correct: false``."""
        if len(self.problems) < 20:
            self.problems.append(message)

    def fail_operation(self, message):
        self.failed += 1
        self.problem(message)

    def expected_digests(self, name, reference):
        """Golden digests on the default seed, else the reference pass."""
        if self.seed != inputs.DEFAULT_SEED:
            return reference
        golden = self.golden[name]
        if reference != golden:
            differing = sum(a != b for a, b in zip(reference, golden))
            self.problem(f"warm pass differs from golden on {differing} documents")
        return golden

    # -- timed phases ------------------------------------------------------

    def timed(self, work):
        """(result, scaled seconds, scale) of ``work()``."""
        started = time.perf_counter()
        result = work()
        elapsed = time.perf_counter() - started
        factor = self.host.factor()
        return result, elapsed * factor, factor

    def build_and_start(self, inventories, label, first_document, compressed=False,
                        measured=True):
        """Build a pack into a fresh directory and cold-start from it.

        Returns (served, pack directory, scaled seconds of build plus
        cold start, whether the pack digests and the manifest's
        ``pack_sha256`` map match the golden ones).
        """
        pack_dir = os.path.join(self.work_dir, label)
        report, build_seconds, build_factor = self.timed(
            lambda: build_pack(inventories, pack_dir)
        )
        golden = self.golden["pack_sha256"]
        pack_ok = (
            report.pack_sha256 == golden
            and read_manifest_digests(pack_dir) == golden
        )
        self.pack_size = pack_bytes(pack_dir)
        served, start_seconds, start_factor = self.timed(
            lambda: cold_start(inventories, pack_dir, first_document, compressed)
        )
        if measured:
            self.builds.append((
                build_seconds,
                {stage.name: stage.seconds * build_factor for stage in report.stages},
            ))
            self.cold_starts.append((
                start_seconds,
                {name: ms * start_factor for name, ms in served.phases_ms.items()},
            ))
        return served, pack_dir, build_seconds + start_seconds, pack_ok

    def remove(self, pack_dir):
        shutil.rmtree(pack_dir, ignore_errors=True)

    def cleanup(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)

    # -- serving -----------------------------------------------------------

    def closed_loop(self, service, documents, expected, seconds, min_passes=1,
                    recorder=None):
        """Rank *documents* in order, pass after pass, for *seconds*.

        Each document is one operation, timed around ``process`` alone;
        its ranked list is checked against *expected* outside the timing.
        The host is sampled after every segment of documents, and each
        segment's latencies are scaled by the median of the samples
        around it.
        """
        segments = [
            (start, documents[start:start + SEGMENT_DOCUMENTS])
            for start in range(0, len(documents), SEGMENT_DOCUMENTS)
        ]
        pass_bytes = sum(len(text.encode("utf-8")) for text in documents)
        clock = time.perf_counter
        deadline = clock() + seconds
        passes = []  # per segment: (index of the sample before, latencies)
        before = self.host.take()
        while len(passes) < min_passes or clock() < deadline:
            measured = []
            for start, texts in segments:
                latencies = []
                for index, text in enumerate(texts, start):
                    self.attempted += 1
                    if recorder is not None:
                        recorder.operation = self.attempted
                    started = clock()
                    try:
                        ranked = service.process(text, top=TOP)
                    except Exception as error:  # a failed operation, not a crash
                        self.fail_operation(f"document {index}: {error!r}")
                        continue
                    latencies.append((index, clock() - started))
                    if ranked_digest(ranked) != expected[index]:
                        self.fail_operation(f"document {index}: ranked list differs")
                measured.append((before, latencies))
                before = self.host.take()
            passes.append(measured)

        stats = LoopStats()
        for measured in passes:
            busy = 0.0
            for before, latencies in measured:
                factor = self.host.factor_around(before, CALIBRATION_WINDOW)
                stats.factors.append(factor)
                for index, latency in latencies:
                    scaled = latency * factor
                    busy += scaled
                    stats.latencies.append(scaled)
                    stats.per_document.setdefault(index, []).append(scaled)
            if busy:  # zero only when every document of the pass failed
                stats.pass_rates.append(pass_bytes / busy / 1e6)
        return stats


# -- tracing ---------------------------------------------------------------


def instrument(recorder, served):
    """Wrap the layer boundaries of one cold-started service."""
    service = served.service
    assembler = next(
        value for value in vars(service).values()
        if isinstance(value, FeatureAssembler)
    )

    def tokens(counts, args, result):
        counts["tokens"] += len(args[0].words)

    def candidates(counts, args, result):
        counts["candidates"] += len(result.detections)

    def scored(counts, args, result):
        counts["scored"] += len(args[0])

    def relevance(counts, args, result):
        counts["relevance_scored"] += len(result)
        counts["relevance_nonzero"] += int(np.count_nonzero(result))

    recorder.wrap(service, "process", "runtime.service")
    recorder.wrap(served.pipeline, "stem_document", "text.stemmer", tokens)
    recorder.wrap(served.pipeline, "process_document", "detection.pipeline", candidates)
    recorder.wrap(served.kernel, "scan", "detection.scan")
    recorder.wrap(assembler, "context_of", "ranking.context")
    recorder.wrap(assembler, "matrix_and_relevance", "ranking.features", scored)
    recorder.wrap(served.relevance, "score_many", "runtime.relevance", relevance)
    recorder.wrap(served.model, "decision_function", "ranking.decision")


def counter_snapshot(relevance):
    """The program's public counters; the packed store has no decode cache."""
    return {
        "tokenize": tokenize_call_count(),
        "intern": intern_call_count(),
        "porter": stem_cache_info().misses,
        "cache_hits": getattr(relevance, "cache_hits", 0),
        "cache_misses": getattr(relevance, "cache_misses", 0),
    }


def traced_loop(run, served, documents, expected, seconds, min_passes, recorder,
                counters):
    """``Run.closed_loop`` with spans around the layers of *served*."""
    before = counter_snapshot(served.relevance)
    instrument(recorder, served)
    try:
        stats = run.closed_loop(
            served.service, documents, expected, seconds, min_passes, recorder
        )
    finally:
        recorder.unwrap_all()
    after = counter_snapshot(served.relevance)
    for key, value in after.items():
        counters[key] = counters.get(key, 0) + value - before[key]
    return stats


# -- metrics -----------------------------------------------------------------


def median_build_seconds(builds):
    """Build wall time: the sum over stages of each stage's median.

    A host interruption slows one stage of one build; taking the median
    per stage, and for the time outside the stages, drops it.
    """
    outside = median([wall - sum(stages.values()) for wall, stages in builds])
    return outside + sum(
        median([stages[stage] for __, stages in builds]) for stage in OFFLINE_STAGES
    )


def end_to_end_metrics(run, loop, setup_seconds, rss_start):
    return {
        "mb_per_s": median(loop.pass_rates),
        "latency_p50_ms": median(loop.latencies) * 1e3,
        "latency_p99_ms": loop.tail_ms(),
        "setup_s": median(setup_seconds),
        "pack_mb": run.pack_size[0] / 1e6,
        "rss_mb": (rss_bytes() - rss_start) / 1e6,
        "latency_samples": len(loop.latencies),
        "passes": len(loop.pass_rates),
        "host_factor": median(loop.factors),
    }


def layer_metrics(run, recorder, counters, untraced, traced):
    """Per-layer figures of a traced run; times are µs per ranked document.

    Span times are scaled by the median host factor of the traced run.
    """
    totals = recorder.totals()
    docs = totals["runtime.service"][0]
    scale = median(traced.factors) * 1e6 / docs

    def span_us(name, own=False):
        __, duration, self_time = totals.get(name, (0, 0.0, 0.0))
        return (self_time if own else duration) * scale

    def ratio(part, base):
        return part / base if base else 0.0

    counts = recorder.counts
    lookups = counters["cache_hits"] + counters["cache_misses"]
    untraced_rate = median(untraced.pass_rates)
    metrics = {
        "text.stemmer_us": span_us("text.stemmer"),
        "text.tokens_per_doc": counts["tokens"] / docs,
        "text.tokenize_calls_per_doc": counters["tokenize"] / docs,
        "text.intern_calls_per_doc": counters["intern"] / docs,
        "text.porter_calls_per_doc": counters["porter"] / docs,
        "detection.scan_us": span_us("detection.scan"),
        "detection.pipeline_us": span_us("detection.pipeline", own=True),
        "detection.candidates_per_doc": counts["candidates"] / docs,
        "ranking.context_us": span_us("ranking.context"),
        "ranking.features_us": span_us("ranking.features", own=True),
        "ranking.decision_us": span_us("ranking.decision"),
        "ranking.scored_per_doc": counts["scored"] / docs,
        "runtime.relevance_us": span_us("runtime.relevance"),
        "runtime.service_us": span_us("runtime.service", own=True),
        "runtime.relevance_nonzero_ratio": ratio(
            counts["relevance_nonzero"], counts["relevance_scored"]
        ),
        "runtime.relevance_scored": counts["relevance_scored"],
        "runtime.decode_cache_hit_ratio": ratio(counters["cache_hits"], lookups),
        "runtime.decode_cache_lookups": lookups,
        "runtime.detection_pack_mb": run.pack_size[1] / 1e6,
        "runtime.cold_start_s": median([seconds for seconds, __ in run.cold_starts]),
        "offline.build_s": median_build_seconds(run.builds),
        "bench.traced_docs": docs,
        "bench.untraced_mb_per_s": untraced_rate,
        "bench.trace_overhead_frac": 1.0 - median(traced.pass_rates) / untraced_rate,
        "bench.calibration_ms": median(run.host.samples) * 1e3,
    }
    for phase in LOAD_PHASES:
        name = phase if phase == "first_doc" else f"load_{phase}"
        metrics[f"runtime.{name}_ms"] = median(
            [phases[phase] for __, phases in run.cold_starts]
        )
    for stage in OFFLINE_STAGES:
        metrics[f"offline.{stage}_s"] = median(
            [stages[stage] for __, stages in run.builds]
        )
    return metrics


# -- workloads ---------------------------------------------------------------


def serving(run, compressed):
    """``news_packed`` (packed store) or ``answers_golomb`` (compressed).

    Set-up goes from the generated inputs in memory to a warmed service:
    inventories and model, the pack build, the cold start, and one pass
    over the documents whose ranked lists become the reference.
    """
    make_documents = inputs.answers_documents if compressed else inputs.news_documents
    documents = make_documents(run.world, run.seed, run.cache_dir)
    rss_start = rss_bytes()
    setup_seconds = []
    references = []
    served = pack_dir = None
    for repeat in range(SETUP_REPEATS):
        if served is not None:  # release the previous service and its pack
            served = None
            run.remove(pack_dir)
        inventories, prepare_seconds, __ = run.timed(
            lambda: prepare(run.world, run.query_log)
        )
        served, pack_dir, start_seconds, pack_ok = run.build_and_start(
            inventories, f"setup-{repeat}", documents[0], compressed
        )
        reference, warm_seconds, __ = run.timed(lambda: [
            ranked_digest(served.service.process(text, top=TOP))
            for text in documents
        ])
        setup_seconds.append(prepare_seconds + start_seconds + warm_seconds)
        if not pack_ok:
            run.problem(f"set-up {repeat}: pack digests differ from golden")
        if ranked_digest(served.first_ranked) != reference[0]:
            run.problem(f"set-up {repeat}: cold-start first document differs")
        references.append(reference)
    if any(reference != references[0] for reference in references):
        run.problem("set-ups ranked the documents differently")
    expected = run.expected_digests(run.workload, references[0])
    require_pack_kernel(served.pipeline, served.kernel)
    gc.collect()
    loop = run.closed_loop(served.service, documents, expected, run.seconds)
    if not run.trace:
        return end_to_end_metrics(run, loop, setup_seconds, rss_start)
    recorder = SpanRecorder()
    counters = {}
    traced = traced_loop(
        run, served, documents, expected, run.seconds, 1, recorder, counters
    )
    run.recorder = recorder
    return layer_metrics(run, recorder, counters, loop, traced)


def build_swap(run):
    """Build, cold-start and serve, again and again, for the run's seconds.

    Each cycle sets up a fresh service from the inputs: its build plus
    cold start is one set-up, and ``setup_s`` is their median.  Each
    cycle is one operation, plus the documents the new service ranks.
    """
    documents = inputs.news_documents(run.world, run.seed, run.cache_dir)
    rss_start = rss_bytes()
    inventories = prepare(run.world, run.query_log)
    setup_seconds = []

    # An untimed warm-up cycle fills the process-wide caches and gives
    # the warm service's ranked lists, which every swap must reproduce.
    served, pack_dir, __, pack_ok = run.build_and_start(
        inventories, "warm-up", documents[0], measured=False
    )
    reference = [
        ranked_digest(served.service.process(text, top=TOP)) for text in documents
    ]
    if not pack_ok:
        run.problem("warm-up: pack digests differ from golden")
    expected = run.expected_digests("news_packed", reference)
    served = None
    run.remove(pack_dir)
    gc.collect()

    def cycles(seconds, recorder=None, counters=None):
        stats = LoopStats()
        deadline = time.perf_counter() + seconds
        count = 0
        while count < MIN_SWAP_CYCLES or time.perf_counter() < deadline:
            count += 1
            run.attempted += 1
            served, pack_dir, setup, pack_ok = run.build_and_start(
                inventories, f"swap-{run.attempted}", documents[0]
            )
            setup_seconds.append(setup)
            if not pack_ok:
                run.fail_operation("swap: pack digests differ from golden")
            elif ranked_digest(served.first_ranked) != reference[0]:
                run.fail_operation("swap: first ranked document differs")
            require_pack_kernel(served.pipeline, served.kernel)
            if recorder is None:
                stats.extend(run.closed_loop(
                    served.service, documents, expected, 0, SWAP_SERVE_PASSES
                ))
            else:
                stats.extend(traced_loop(
                    run, served, documents, expected, 0, SWAP_SERVE_PASSES,
                    recorder, counters,
                ))
            served = None
            run.remove(pack_dir)
        return stats

    loop = cycles(run.seconds)
    if not run.trace:
        return end_to_end_metrics(run, loop, setup_seconds, rss_start)
    recorder = SpanRecorder()
    counters = {}
    traced = cycles(run.seconds, recorder, counters)
    run.recorder = recorder
    return layer_metrics(run, recorder, counters, loop, traced)


def execute(workload, seed, seconds, trace, root):
    """Run one workload; returns (Run, metric values by name)."""
    run = Run(workload, seed, seconds, trace, root)
    try:
        if workload == "build_swap":
            values = build_swap(run)
        else:
            values = serving(run, compressed=workload == "answers_golomb")
    finally:
        run.cleanup()
    if run.recorder is not None:
        trace_dir = os.path.join(run.cache_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        run.recorder.write(os.path.join(trace_dir, f"{workload}-{seed}.jsonl"))
    return run, values
