"""CI gate on the benchmark *trajectory*: tracked ratios must not slip.

``check_equivalence.py`` guards correctness (boolean flags); this
script guards the performance history.  Every ``BENCH_*.json`` snapshot
carries machine-independent ratios — speedups over a seed path,
compression ratios, instrumentation overhead fractions — measured and
checked in by the PR that earned them.  The table below records the
accepted trajectory; a snapshot honestly re-recorded on a regressed
code path fails here even though its own equivalence flags still pass.

Gate semantics, per tracked dotted path:

* ``min`` — higher-is-better ratio: fail when the snapshot value drops
  below the floor (floors are set at 80% of the value recorded when
  the bound was accepted, i.e. a >20% regression fails CI),
* ``max`` — lower-is-better fraction (instrumentation overhead): fail
  when the snapshot value exceeds the ceiling.

When a bound trips, the report attaches the profiler snapshot's ten
hottest collapsed stacks (``BENCH_profile.json``) so the failure says
*where the time goes*, not just that it went.

Raising a floor (a PR made things faster) or accepting a regression
both mean editing ``BASELINES`` here, in review, on purpose.

Usage: ``python benchmarks/check_regressions.py [--report]``
(``--report`` prints the full table and hot stacks even on success).
"""

import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))

# snapshot basename -> dotted path -> bound.  Floors are 80% of the
# value recorded by the PR that established the bound (noted inline).
BASELINES = {
    "BENCH_store.json": {
        # PR 2 recorded 18.0x columnar lookup, 1.81x pack compression
        "lookup.speedup_columnar_vs_seed": {"min": 14.4},
        "resident.compression_ratio": {"min": 1.45},
    },
    "BENCH_obs.json": {
        # PR 4/5 bars: metrics+tracing <= 3%, quality monitors <= 1%
        "overhead_fraction": {"max": 0.03},
        "quality_overhead_fraction": {"max": 0.01},
    },
    "BENCH_profile.json": {
        # PR 7 bar: the 97 hz stack sampler costs <= 2% of the hot path
        "profiler.overhead_fraction": {"max": 0.02},
    },
}

PROFILE_SNAPSHOT = os.path.join(_HERE, "BENCH_profile.json")


def dig(snapshot, dotted):
    value = snapshot
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def check_snapshot(name, bounds):
    """(failures, rows) for one snapshot's tracked paths."""
    path = os.path.join(_HERE, name)
    try:
        with open(path) as handle:
            snapshot = json.load(handle)
    except (OSError, ValueError) as error:
        return [f"{name}: unreadable snapshot ({error})"], []
    failures, rows = [], []
    for dotted, bound in sorted(bounds.items()):
        value = dig(snapshot, dotted)
        if not isinstance(value, (int, float)):
            failures.append(f"{name}: {dotted} missing from snapshot")
            continue
        floor, ceiling = bound.get("min"), bound.get("max")
        ok = True
        if floor is not None and value < floor:
            ok = False
            failures.append(
                f"{name}: {dotted} = {value:g} fell below the "
                f"accepted floor {floor:g}"
            )
        if ceiling is not None and value > ceiling:
            ok = False
            failures.append(
                f"{name}: {dotted} = {value:g} exceeds the "
                f"accepted ceiling {ceiling:g}"
            )
        limit = (
            f">= {floor:g}" if floor is not None else f"<= {ceiling:g}"
        )
        rows.append(
            f"  {'ok' if ok else 'FAIL':4s} {name}: {dotted} = "
            f"{value:g} (accepted {limit})"
        )
    return failures, rows


def hot_stacks(limit=10):
    """The profiler snapshot's hottest collapsed stacks, for the report."""
    try:
        with open(PROFILE_SNAPSHOT) as handle:
            snapshot = json.load(handle)
    except (OSError, ValueError):
        return ["  (no profiler snapshot available)"]
    stacks = snapshot.get("profiler", {}).get("top_stacks", [])[:limit]
    if not stacks:
        return ["  (profiler snapshot carries no stacks)"]
    lines = []
    for row in stacks:
        frames = row.get("stack", "").split(";")
        leaf = frames[-1] if frames else "?"
        lines.append(f"  {row.get('samples', '?'):>5} {leaf}")
        if len(frames) > 1:
            lines.append(f"        in {';'.join(frames[-4:-1])}")
    return lines


def main(argv):
    verbose = "--report" in argv
    all_failures, all_rows = [], []
    for name, bounds in sorted(BASELINES.items()):
        failures, rows = check_snapshot(name, bounds)
        all_failures.extend(failures)
        all_rows.extend(rows)
    if all_failures or verbose:
        print("benchmark trajectory:")
        print("\n".join(all_rows))
        print("hot stacks (BENCH_profile.json, 97 hz automaton path):")
        print("\n".join(hot_stacks()))
    if all_failures:
        for failure in all_failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    tracked = sum(len(bounds) for bounds in BASELINES.values())
    print(
        f"trajectory OK: {tracked} tracked ratios within accepted "
        f"bounds across {len(BASELINES)} snapshot(s)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
