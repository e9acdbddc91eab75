"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload news_packed --seed 4242 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``
for what each workload and metric means.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"no package source under {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [source, ROOT]

    from perfbench.serving import KERNEL_PATH
    from perfbench.workloads import (
        END_TO_END_UNITS,
        PER_LAYER_UNITS,
        WORKLOADS,
        execute,
    )

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {WORKLOADS}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    run, values = execute(args.workload, args.seed, args.seconds, args.trace, ROOT)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"detection path: {KERNEL_PATH}")
    for name, metric in metrics.items():
        print(f"  {name:<34s} {metric['value']:14.6f} {metric['unit']}")
    if "host_factor" in values:
        print(f"  times scaled to the reference host by {values['host_factor']:.4f}")
    if "latency_samples" in values:
        samples = values["latency_samples"]
        print(
            f"  latency samples {samples} over {values['passes']} passes; "
            "p99 is over documents of each one's median latency"
        )
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"  error_rate {error_rate:.6f} ({run.failed} of {run.attempted} operations)")
    for problem in run.problems:
        print(f"  check failed: {problem}")

    result = {
        "correct": not run.problems and run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
