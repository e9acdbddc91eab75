"""CI guard: fail if any checked-in benchmark equivalence flag is false.

The benchmark snapshots carry boolean flags proving the optimized paths
reproduce their references exactly — ``BENCH_store.json``: columnar,
compressed and mmap scoring vs the seed per-element loop;
``BENCH_obs.json`` / ``BENCH_profile.json``: ranked output unchanged
with observability or the profiler attached.  A perf PR that breaks
equivalence but still "passes" its speed bar must not merge; this
script turns any false flag into a CI failure.

Usage: ``python benchmarks/check_equivalence.py [snapshot.json ...]``
(defaults to the snapshots next to this file).
"""

import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))

DEFAULT_SNAPSHOTS = (
    os.path.join(_HERE, "BENCH_store.json"),
    os.path.join(_HERE, "BENCH_obs.json"),
    os.path.join(_HERE, "BENCH_profile.json"),
)

# snapshot basename -> dotted paths of the boolean flags it must carry
REQUIRED_FLAGS = {
    "BENCH_store.json": (
        "equivalence.columnar_matches_seed",
        "equivalence.score_matches_score_many",
        "equivalence.compressed_matches_seed",
        "equivalence.mmap_load_matches_memory",
    ),
    "BENCH_obs.json": (
        "equivalence.identical_with_observability",
        "equivalence.identical_with_quality_monitors",
        "equivalence.explain_order_identical",
        "equivalence.overhead_within_bar",
        "equivalence.quality_overhead_within_bar",
    ),
    "BENCH_profile.json": (
        "equivalence.identical_with_profiler",
        "equivalence.stage_attribution_present",
        "equivalence.overhead_within_bar",
    ),
}


def dig(snapshot, dotted):
    value = snapshot
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def check_file(path):
    """(failures, checked) for one snapshot file."""
    name = os.path.basename(path)
    try:
        with open(path) as handle:
            snapshot = json.load(handle)
    except FileNotFoundError:
        return [f"{name}: snapshot missing ({path})"], 0
    except json.JSONDecodeError as error:
        return [f"{name}: unreadable snapshot ({error})"], 0
    required = REQUIRED_FLAGS.get(name)
    if required is None:
        # unknown snapshot: scan every boolean under an "equivalence" map
        block = snapshot.get("equivalence", {})
        required = tuple(f"equivalence.{key}" for key in block)
        if not required:
            return [f"{name}: no equivalence flags found"], 0
    failures = []
    for dotted in required:
        value = dig(snapshot, dotted)
        if value is None:
            failures.append(f"{name}: flag {dotted} is missing")
        elif value is not True:
            failures.append(f"{name}: flag {dotted} is {value!r}")
    return failures, len(required)


def main(argv):
    paths = argv or list(DEFAULT_SNAPSHOTS)
    all_failures = []
    total = 0
    for path in paths:
        failures, checked = check_file(path)
        all_failures.extend(failures)
        total += checked
    if all_failures:
        for failure in all_failures:
            print(f"EQUIVALENCE FAILURE: {failure}", file=sys.stderr)
        return 1
    print(f"equivalence OK: {total} flags true across {len(paths)} snapshot(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
