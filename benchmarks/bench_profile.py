"""Profiler overhead benchmark: the sampling profiler must stay cheap.

PR 7's continuous-profiling story only works if leaving the
:class:`~repro.obs.profile.StackSampler` attached to a serving process
is effectively free.  This benchmark times the serving path
(the compiled detection kernel, the service shape of ``_service.py``
that ``bench_obs.py`` also times) with the sampler disabled and
enabled at the default 97 hz and records:

* the overhead fraction (profiled / baseline - 1) with a hard bar:
  <= 2% on full-size runs (the smoke bar is looser because a few dozen
  documents finish in well under a second and one noisy scheduler
  quantum swamps the ratio),
* byte-equivalence of the ranked output with the profiler attached —
  profiling must observe the pipeline, never perturb it,
* stage attribution: the sampler joins samples against the service's
  stage marks, so the service's stages (``stemmer``/``detect``/
  ``features``/``rank``) must actually show up in ``stage_samples()``,
* the ten hottest collapsed stacks, checked into the snapshot so the
  regression gate (``check_regressions.py``) can attach *where the
  time went* to its report when a trajectory ratio slips.

Timing uses the same interleaved min-of-N discipline as the other
benchmarks: baseline and profiled runs alternate inside every round so
host-speed wander cannot land on one side of the ratio.

Run standalone (``python benchmarks/bench_profile.py [--smoke]``) or
under pytest (``PYTHONPATH=src pytest benchmarks/bench_profile.py``).
"""

import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
for path in (_HERE, os.path.join(os.path.dirname(_HERE), "src")):
    if path not in sys.path:  # allow `python benchmarks/bench_profile.py`
        sys.path.insert(0, path)

from _report import attach_metrics, record_section
from _service import build_service
from repro.obs.profile import StackSampler

SNAPSHOT_PATH = os.path.join(_HERE, "BENCH_profile.json")

PROFILE_HZ = 97.0
DOCUMENT_COUNT = int(os.environ.get("REPRO_BENCH_PROFILE_DOCS", "300"))
SMOKE_DOCUMENT_COUNT = 40
BENCH_REPEATS = int(os.environ.get("REPRO_BENCH_PROFILE_REPEATS", "3"))
# a 2% bar needs a timed region long enough that 2% clears the host's
# scheduling-noise floor: five batch passes per region (~1.2s at full
# size) makes the bar ~25ms of signal instead of ~5ms
PASSES_PER_ROUND = int(os.environ.get("REPRO_BENCH_PROFILE_PASSES", "5"))
OVERHEAD_BAR = 0.02  # full runs: sampler costs <= 2% of hot-path time
SMOKE_OVERHEAD_BAR = 0.15  # sub-second smoke runs: noise floor dominates
SERVICE_STAGES = ("stemmer", "detect", "features", "rank")


def run_profile_benchmark(document_count=DOCUMENT_COUNT):
    service, documents = build_service(document_count)
    total_bytes = sum(len(text.encode("utf-8")) for text in documents)

    # untimed warm-up: compiles the pipeline's kernel, fills the memos
    service.process_batch(documents, top=5)

    infinity = float("inf")
    baseline_seconds = profiled_seconds = infinity
    sampler = None

    for _round in range(BENCH_REPEATS):
        # -- sampler disabled --------------------------------------------
        started = time.perf_counter()
        for _pass in range(PASSES_PER_ROUND):
            baseline_results = service.process_batch(documents, top=5)
        baseline_seconds = min(
            baseline_seconds, time.perf_counter() - started
        )

        # -- sampler enabled at the default rate -------------------------
        sampler = StackSampler(hz=PROFILE_HZ)
        sampler.start()
        try:
            started = time.perf_counter()
            for _pass in range(PASSES_PER_ROUND):
                profiled_results = service.process_batch(documents, top=5)
            profiled_seconds = min(
                profiled_seconds, time.perf_counter() - started
            )
        finally:
            sampler.stop()

    overhead = profiled_seconds / baseline_seconds - 1.0
    stage_samples = sampler.stage_samples()
    attributed = sum(
        stage_samples.get(stage, 0) for stage in SERVICE_STAGES
    )

    snapshot = {
        "config": {
            "documents": len(documents),
            "bytes": total_bytes,
            "hz": PROFILE_HZ,
            "repeats": BENCH_REPEATS,
            "passes_per_round": PASSES_PER_ROUND,
            "overhead_bar": OVERHEAD_BAR,
        },
        "baseline": {
            "seconds": round(baseline_seconds, 4),
            "mb_per_second": round(
                total_bytes * PASSES_PER_ROUND / baseline_seconds / 1e6, 4
            ),
        },
        "profiled": {
            "seconds": round(profiled_seconds, 4),
            "mb_per_second": round(
                total_bytes * PASSES_PER_ROUND / profiled_seconds / 1e6, 4
            ),
            "samples": sampler.sample_count,
            "ticks": sampler.sample_ticks,
        },
        "profiler": {
            "overhead_fraction": round(overhead, 5),
            "stage_samples": dict(sorted(stage_samples.items())),
            "attributed_stage_samples": attributed,
            "top_stacks": sampler.top_stacks(limit=10),
        },
        "equivalence": {
            "identical_with_profiler": profiled_results == baseline_results,
            "stage_attribution_present": attributed > 0,
        },
    }
    return snapshot


def check_snapshot(snapshot, smoke=False):
    """The PR's acceptance criteria, enforced on every run."""
    equivalence = snapshot["equivalence"]
    assert equivalence["identical_with_profiler"], (
        "ranked output changed with the profiler attached"
    )
    assert equivalence["stage_attribution_present"], snapshot["profiler"]
    assert snapshot["profiled"]["samples"] > 0, snapshot["profiled"]
    bar = SMOKE_OVERHEAD_BAR if smoke else OVERHEAD_BAR
    overhead = snapshot["profiler"]["overhead_fraction"]
    assert overhead <= bar, (
        f"sampler overhead {overhead:.2%} exceeds the {bar:.0%} bar"
    )
    if not smoke:
        snapshot["equivalence"]["overhead_within_bar"] = (
            overhead <= OVERHEAD_BAR
        )


def report_lines(snapshot):
    profiler = snapshot["profiler"]
    stages = ", ".join(
        f"{stage}={count}"
        for stage, count in profiler["stage_samples"].items()
    )
    return [
        f"documents: {snapshot['config']['documents']}, "
        f"{snapshot['config']['bytes'] / 1e6:.2f} MB total, "
        f"sampler at {snapshot['config']['hz']:g} hz",
        f"baseline {snapshot['baseline']['mb_per_second']:6.3f} MB/s -> "
        f"profiled {snapshot['profiled']['mb_per_second']:6.3f} MB/s "
        f"(overhead {profiler['overhead_fraction']:+.2%}, bar "
        f"{snapshot['config']['overhead_bar']:.0%})",
        f"samples: {snapshot['profiled']['samples']} over "
        f"{snapshot['profiled']['ticks']} ticks; stages: {stages}",
        f"ranked output identical with profiler: "
        f"{snapshot['equivalence']['identical_with_profiler']}",
    ]


def test_profiler_overhead():
    """Pytest entry: run the benchmark and enforce the acceptance bar."""
    snapshot = run_profile_benchmark()
    check_snapshot(snapshot)
    with open(SNAPSHOT_PATH, "w") as handle:
        json.dump(attach_metrics(snapshot), handle, indent=1)
        handle.write("\n")
    record_section(
        "Profiler — sampling overhead on the automaton hot path",
        report_lines(snapshot),
    )


def main(argv):
    smoke = "--smoke" in argv
    count = SMOKE_DOCUMENT_COUNT if smoke else DOCUMENT_COUNT
    snapshot = run_profile_benchmark(count)
    check_snapshot(snapshot, smoke=smoke)
    if not smoke:  # the snapshot tracks the full-size run only
        with open(SNAPSHOT_PATH, "w") as handle:
            json.dump(attach_metrics(snapshot), handle, indent=1)
            handle.write("\n")
    print("\n".join(report_lines(snapshot)))
    print("profiler benchmark OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
