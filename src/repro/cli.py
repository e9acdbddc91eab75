"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — build a small world, annotate a story, print the baseline
  ranking (the paper's Section II-B example flow);
* ``experiment <name>`` — run one of the paper's experiments
  (table2/table3/table4/table5/editorial/production/temporal) at a
  configurable scale and print the measured rows;
* ``rank <file>`` — train the combined ranker in a small world and rank
  the detectable concepts of an arbitrary text file;
* ``build-pack <out>`` — run the parallel vectorized offline builder
  (corpus -> index -> units -> interestingness -> relevance -> quantize
  -> pack) and write the v2 serving datapacks with per-stage timings;
* ``stats`` — run a sample serving workload and print the observability
  registry (Prometheus text or JSON snapshot); ``--snapshot FILE`` /
  ``--url URL`` render metrics captured by another process instead;
* ``serve`` — start the telemetry HTTP server (``/metrics``,
  ``/healthz``, ``/readyz``, ``POST /explain``, ``/traces/recent``,
  ``/debug/profile``, ``/debug/heap``, ``/debug/gc``) over a live
  ranking service, with CTR/churn quality monitoring and
  feature-drift detection attached;
* ``profile <command ...>`` — run any other repro command under the
  sampling stack profiler and print/write its collapsed stacks
  (``flamegraph.pl`` format).

``rank``, ``build-pack``, ``stats``, and ``serve`` accept
``--trace-out PATH`` to write sampled request/build traces as JSON
lines (``serve --trace-max-bytes`` adds size-based rotation).
``rank``, ``build-pack``, and ``serve`` accept ``--profile-out PATH``
(with ``--profile-hz``) to run under the stack profiler and write the
collapsed stacks on exit.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional

from repro.corpus import WorldConfig
from repro.obs import (
    JsonLinesTraceSink,
    configure,
    get_registry,
    get_tracer,
    render_snapshot,
)
from repro.eval import (
    Environment,
    EnvironmentConfig,
    RankingExperiment,
    collect_dataset,
    production_ctr_experiment,
    table2_summations,
    table3_interestingness,
    table4_relevance,
    table5_combined,
    table6_editorial,
    temporal_feature_experiment,
    train_combined_ranker,
)

_DEMO_WORLD = WorldConfig(
    seed=7,
    vocabulary_size=1500,
    topic_count=16,
    words_per_topic=50,
    concept_count=180,
    topic_page_count=120,
)

_EXPERIMENT_WORLD = WorldConfig(
    seed=42,
    vocabulary_size=2500,
    topic_count=30,
    words_per_topic=60,
    concept_count=400,
    topic_page_count=300,
)

# --quick: a much smaller world for smoke runs and tests
_QUICK_WORLD = WorldConfig(
    seed=42,
    vocabulary_size=1200,
    topic_count=12,
    words_per_topic=40,
    concept_count=120,
    topic_page_count=80,
)


def _configure_observability(args: argparse.Namespace):
    """Install a fresh registry/tracer per the command's flags.

    Must run before any instrumented object is constructed — stores and
    services bind their metric handles at construction time.
    """
    trace_out = getattr(args, "trace_out", None)
    sample_every = getattr(args, "sample_every", None)
    if sample_every is None:
        sample_every = 1 if trace_out else 0
    sink = (
        JsonLinesTraceSink(
            trace_out, max_bytes=getattr(args, "trace_max_bytes", None)
        )
        if trace_out
        else None
    )
    return configure(enabled=True, sample_every=sample_every, sink=sink)


@contextmanager
def _maybe_profiler(args: argparse.Namespace):
    """Run the command body under a StackSampler when --profile-out asks.

    On exit the collapsed stacks (flamegraph.pl format) land at the
    given path and a one-line summary goes to stderr — stdout stays
    reserved for the command's own output.
    """
    out = getattr(args, "profile_out", None)
    if not out:
        yield None
        return
    from repro.obs.profile import StackSampler

    sampler = StackSampler(hz=getattr(args, "profile_hz", None) or 97)
    sampler.start()
    try:
        yield sampler
    finally:
        sampler.stop()
        sampler.write_collapsed(out)
        print(
            f"profile: {sampler.sample_count} samples at {sampler.hz:g} hz "
            f"over {sampler.duration_seconds:.2f}s -> {out}",
            file=sys.stderr,
        )


def _add_profile_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="run under the sampling profiler and write collapsed "
             "stacks (flamegraph.pl format) to PATH on exit",
    )
    parser.add_argument(
        "--profile-hz", type=float, default=97, metavar="HZ",
        help="stack-sampler frequency for --profile-out (default 97)",
    )


def _build_env(world: WorldConfig, quiet: bool = False) -> Environment:
    if not quiet:
        print("building synthetic environment ...", flush=True)
    return Environment.build(EnvironmentConfig(world=world))


def _cmd_demo(args: argparse.Namespace) -> int:
    env = _build_env(_DEMO_WORLD)
    story = env.stories(1, seed=args.seed)[0]
    annotated = env.pipeline.process(story.text)
    print(f"\nstory ({len(story.text)} chars), "
          f"{len(annotated.detections)} detections\n")
    print("top concepts by concept-vector score:")
    for detection in annotated.by_concept_vector_score()[: args.top]:
        print(f"  {detection.phrase:<36s} {detection.score:7.3f}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    env = _build_env(_QUICK_WORLD if args.quick else _EXPERIMENT_WORLD)
    if args.name == "table2":
        for row in table2_summations(env):
            print(f"{row.phrase:<44s} {row.summation:10.1f}  ({row.kind})")
        return 0

    print(f"collecting click data over {args.stories} stories ...", flush=True)
    dataset = collect_dataset(env, args.stories)
    print(
        f"dataset: {dataset.story_count} stories, {dataset.window_count} "
        f"windows, {dataset.entity_count} entities"
    )
    experiment = RankingExperiment(env, dataset)

    if args.name == "table3":
        for result in table3_interestingness(experiment):
            print(result.row())
    elif args.name == "table4":
        for result in table4_relevance(experiment):
            print(result.row())
    elif args.name == "table5":
        for result in table5_combined(experiment):
            print(result.row())
    elif args.name == "editorial":
        ranker = train_combined_ranker(env, experiment)
        results = table6_editorial(env, ranker, news_count=60, answers_count=120)
        for ranker_name, per_content in results.items():
            for content, table in per_content.items():
                print(
                    f"{ranker_name:<22s} {content:<8s} "
                    f"not-interesting={table.interestingness['not'] * 100:5.1f}% "
                    f"not-relevant={table.relevance['not'] * 100:5.1f}%"
                )
    elif args.name == "production":
        ranker = train_combined_ranker(env, experiment)
        cmp = production_ctr_experiment(
            env, ranker, annotate_top=5, stories_per_week=15,
            before_weeks=8, after_weeks=6,
        )
        print(f"views  change: {cmp.views_change_percent:+6.1f}%")
        print(f"clicks change: {cmp.clicks_change_percent:+6.1f}%")
        print(f"CTR    change: {cmp.ctr_change_percent:+6.1f}%")
    elif args.name == "temporal":
        result = temporal_feature_experiment(env)
        print(
            f"static WER={result.static_wer * 100:.2f}%  "
            f"+temporal WER={result.temporal_wer * 100:.2f}%  "
            f"event windows: {result.event_static_wer * 100:.2f}% -> "
            f"{result.event_temporal_wer * 100:.2f}%"
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.name)
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    """Print the statistics of a synthetic world build."""
    env = _build_env(_QUICK_WORLD if args.quick else _EXPERIMENT_WORLD)
    world = env.world
    named = world.named_entities()
    junk = world.junk_concepts()
    multi = [c for c in world.concepts if len(c.terms) > 1]
    print(f"seed               : {world.config.seed}")
    print(f"vocabulary         : {len(world.vocabulary)} words "
          f"(zipf {world.vocabulary.zipf_exponent})")
    print(f"topics             : {len(world.topics)}")
    print(f"concepts           : {len(world.concepts)} "
          f"({len(named)} named, {len(junk)} junk, {len(multi)} multi-term)")
    print(f"web corpus         : {len(world.web_corpus)} pages, "
          f"{world.doc_frequency.total_documents} indexed")
    print(f"query log          : {len(env.query_log)} distinct queries, "
          f"{env.query_log.total_submissions} submissions")
    print(f"unit lexicon       : {len(env.lexicon)} units "
          f"({len(env.lexicon.multi_term_units())} multi-term)")
    print(f"detectable phrases : {env.concept_detector.inventory_size}")
    print(f"dictionary entries : {len(world.dictionary)}")
    print(f"wikipedia articles : {len(world.wikipedia)}")
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    try:
        with open(args.file) as handle:
            text = handle.read()
    except OSError as error:
        print(f"cannot read {args.file}: {error}", file=sys.stderr)
        return 1
    __, tracer = _configure_observability(args)
    with _maybe_profiler(args):
        env = _build_env(_DEMO_WORLD)
        dataset = collect_dataset(env, args.stories)
        experiment = RankingExperiment(env, dataset)
        ranker = train_combined_ranker(env, experiment)
        trace = tracer.start("rank")
        clock = tracer.clock(trace)
        clock.lap("detect")
        annotated = env.pipeline.process(text, is_html=args.html)
        clock.lap("rank")
        ranked = ranker.rank_document(annotated)
        clock.lap(None)
        if trace.sampled:
            trace.meta.update({"bytes": len(text), "detections": len(ranked)})
        tracer.finish(trace)
    if not ranked:
        print("no detectable concepts in the input "
              "(the demo world only knows its own synthetic inventory)")
        return 0
    for detection in ranked[: args.top]:
        print(f"  {detection.phrase:<36s} {detection.score:7.3f}")
    return 0


def _cmd_build_pack(args: argparse.Namespace) -> int:
    """One-command offline build over a synthetic world."""
    from repro.corpus.world import SyntheticWorld
    from repro.offline.builder import BuildConfig, OfflineBuilder
    from repro.querylog.generator import query_log_for_world

    _configure_observability(args)
    world_config = _QUICK_WORLD if args.quick else _EXPERIMENT_WORLD
    print("building synthetic world ...", flush=True)
    world = SyntheticWorld.build(world_config)
    query_log = query_log_for_world(world, seed=101)
    phrases = [" ".join(concept.terms) for concept in world.concepts]
    config = BuildConfig(workers=args.workers, resource=args.resource)
    print(
        f"building packs ({config.resolved_workers()} worker(s)) ...",
        flush=True,
    )
    with _maybe_profiler(args):
        report = OfflineBuilder(config).build(
            world.web_corpus,
            query_log,
            phrases,
            args.out,
            dictionary=world.dictionary,
            wikipedia=world.wikipedia,
        )
    for stage in report.stages:
        print(
            f"  {stage.name:<16s} {stage.seconds:8.3f}s  "
            f"{stage.items_per_second:10.1f} {stage.unit}/s"
        )
    print(
        f"total {report.total_seconds:.3f}s — "
        f"{report.docs_per_second:.1f} docs/s, "
        f"{report.concepts_per_second:.1f} concepts/s"
    )
    for name, path in report.pack_paths.items():
        print(f"  {name}: {path} (sha256 {report.pack_sha256[name][:12]}...)")
    return 0


def _build_quick_service(
    args: argparse.Namespace,
    quiet: bool,
    pack_dir: Optional[str] = None,
    with_quality: bool = False,
):
    """Quick world + stores + demo model -> a ready RankerService.

    Stores either come from a built datapack directory (*pack_dir*,
    with the drift baseline read from its manifest) or are built
    in-process (baseline taken straight from the fresh store).  With
    *with_quality* the service carries a
    :class:`~repro.obs.quality.QualityMonitor` and — when a baseline is
    available — a :class:`~repro.obs.quality.DriftDetector`.

    Returns ``(service, quality, drift, env)``.
    """
    import numpy as np

    from repro.ranking import RankSVM
    from repro.runtime import (
        PackedRelevanceStore,
        QuantizedInterestingnessStore,
        RankerService,
    )

    env = _build_env(_QUICK_WORLD, quiet=quiet)
    baseline = None
    if pack_dir is not None:
        from repro.obs.quality import load_baseline
        from repro.runtime.datapack import (
            load_detection_kernel,
            load_interestingness_store,
            load_relevance_store,
        )

        if not quiet:
            print(f"loading datapacks from {pack_dir} ...", flush=True)
        pack = Path(pack_dir)
        interestingness = load_interestingness_store(
            str(pack / "interestingness.rpak")
        )
        relevance = load_relevance_store(str(pack / "relevance.rpak"))
        detection_pack = pack / "detection.rpak"
        if detection_pack.exists():
            # a kernel compiled for other inventories fails here, at
            # load, instead of silently detecting the wrong phrases
            env.pipeline.attach_kernel(
                load_detection_kernel(str(detection_pack))
            )
            if not quiet:
                print("  detection kernel: loaded from pack", flush=True)
        baseline = load_baseline(pack_dir)
        if baseline is None and not quiet:
            print(
                "  (manifest has no feature_baselines section — "
                "drift detection disabled)",
                flush=True,
            )
    else:
        phrases = [concept.phrase for concept in env.world.concepts]
        if not quiet:
            print("building quantized stores + service ...", flush=True)
        interestingness = QuantizedInterestingnessStore.build(
            env.extractor, phrases
        )
        relevance = PackedRelevanceStore.build(
            env.relevance_model(phrases[: args.relevance_phrases])
        )
        if with_quality:
            from repro.obs.quality import DriftBaseline

            baseline = DriftBaseline.from_store(interestingness)

    sample_phrase = interestingness.phrases()[0]
    feature_dim = interestingness.extract(sample_phrase).numeric(()).size + 1
    svm = RankSVM(epochs=30)
    rng = np.random.default_rng(0)
    sample = rng.normal(size=(40, feature_dim))
    svm.fit(sample, sample[:, 0], np.repeat(np.arange(8), 5))

    quality = drift = None
    if with_quality:
        from repro.clicks.online import OnlineCtrTracker
        from repro.obs.quality import DriftDetector, QualityMonitor

        quality = QualityMonitor(tracker=OnlineCtrTracker())
        if baseline is not None:
            drift = DriftDetector(baseline)
    service = RankerService(
        env.pipeline, interestingness, relevance, svm,
        quality=quality, drift=drift,
    )
    return service, quality, drift, env


def _cmd_stats(args: argparse.Namespace) -> int:
    """Print a metrics registry: this process's, a snapshot's, or a URL's."""
    if args.snapshot and args.url:
        print("--snapshot and --url are mutually exclusive", file=sys.stderr)
        return 2
    if args.snapshot:
        payload = json.loads(Path(args.snapshot).read_text())
        if args.format == "json":
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            sys.stdout.write(render_snapshot(payload))
        return 0
    if args.url:
        from urllib.request import urlopen

        with urlopen(args.url, timeout=10) as response:
            sys.stdout.write(response.read().decode("utf-8"))
        return 0

    quiet = args.format == "json"
    __, tracer = _configure_observability(args)
    service, __q, __d, env = _build_quick_service(args, quiet)
    documents = [story.text for story in env.stories(args.docs, seed=args.seed)]
    if not quiet:
        print(f"ranking {len(documents)} documents ...", flush=True)
    service.process_batch(documents, top=5)

    if args.format == "json":
        print(json.dumps(get_registry().snapshot(), indent=2, sort_keys=True))
    else:
        print()
        sys.stdout.write(get_registry().render_prometheus())
    recent = get_tracer().recent
    if recent and not quiet:
        last = recent[-1]
        print(
            f"\nlast sampled trace ({last['kind']}, "
            f"{last['duration'] * 1e3:.2f} ms):"
        )
        for span in last.get("spans", []):
            print(f"  {span['name']:<12s} {span['duration'] * 1e3:8.3f} ms")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the telemetry HTTP server over a live ranking service."""
    from repro.obs.server import TelemetryServer

    registry, tracer = _configure_observability(args)
    service, quality, drift, __ = _build_quick_service(
        args, quiet=False, pack_dir=args.pack, with_quality=True
    )
    server = TelemetryServer(
        service=service,
        registry=registry,
        tracer=tracer,
        drift=drift,
        quality=quality,
        host=args.host,
        port=args.port,
        default_top=args.top,
    )
    if args.port_file:
        Path(args.port_file).write_text(f"{server.port}\n")
    print(f"serving telemetry on {server.url}", flush=True)
    print(
        "endpoints: GET /metrics /healthz /readyz /traces/recent "
        "/debug/profile /debug/heap /debug/gc, POST /explain",
        flush=True,
    )
    with _maybe_profiler(args):
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down", flush=True)
        finally:
            server.stop()
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """``repro profile [--hz N] [--out PATH] -- <command ...>``.

    Re-enters :func:`main` with the wrapped command under a running
    :class:`StackSampler`, then prints the hottest collapsed stacks to
    stderr so the profiled command's stdout stays clean.
    """
    command = list(args.command)
    if command and command[0] == "--":
        command = command[1:]
    if not command:
        print("profile: no command given (try: repro profile -- "
              "rank FILE)", file=sys.stderr)
        return 2
    if command[0] == "profile":
        print("profile: refusing to profile itself", file=sys.stderr)
        return 2
    from repro.obs.profile import StackSampler

    sampler = StackSampler(hz=args.hz)
    sampler.start()
    try:
        try:
            status = main(command)
        except SystemExit as exc:  # argparse errors inside the command
            code = exc.code
            status = code if isinstance(code, int) else (0 if code is None
                                                         else 1)
    finally:
        sampler.stop()
    if args.out:
        sampler.write_collapsed(args.out)
    print(
        f"profile: {sampler.sample_count} samples at {sampler.hz:g} hz "
        f"over {sampler.duration_seconds:.2f}s",
        file=sys.stderr,
    )
    for row in sampler.top_stacks(limit=args.top):
        print(f"  {row['samples']:6d}  {row['stack']}", file=sys.stderr)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Contextual Ranking of Keywords Using Click Data (ICDE"
        " 2009) — reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="annotate one synthetic story")
    demo.add_argument("--seed", type=int, default=42)
    demo.add_argument("--top", type=int, default=5)
    demo.set_defaults(handler=_cmd_demo)

    experiment = commands.add_parser(
        "experiment", help="run one of the paper's experiments"
    )
    experiment.add_argument(
        "name",
        choices=[
            "table2", "table3", "table4", "table5",
            "editorial", "production", "temporal",
        ],
    )
    experiment.add_argument("--stories", type=int, default=300)
    experiment.add_argument(
        "--quick",
        action="store_true",
        help="use a small world for a fast smoke run",
    )
    experiment.set_defaults(handler=_cmd_experiment)

    describe = commands.add_parser(
        "describe", help="print the synthetic world's statistics"
    )
    describe.add_argument("--quick", action="store_true")
    describe.set_defaults(handler=_cmd_describe)

    rank = commands.add_parser("rank", help="rank concepts in a text file")
    rank.add_argument("file")
    rank.add_argument("--html", action="store_true")
    rank.add_argument("--top", type=int, default=10)
    rank.add_argument("--stories", type=int, default=150)
    rank.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write sampled traces as JSON lines to PATH",
    )
    _add_profile_flags(rank)
    rank.set_defaults(handler=_cmd_rank)

    build_pack = commands.add_parser(
        "build-pack", help="offline build: corpus + query log -> v2 datapacks"
    )
    build_pack.add_argument("out", help="output directory for the packs")
    build_pack.add_argument("--quick", action="store_true")
    build_pack.add_argument(
        "--workers", type=int, default=None,
        help="process-pool size for relevance mining (default: cpu count)",
    )
    build_pack.add_argument(
        "--resource",
        choices=["snippets", "prisma", "suggestions"],
        default="snippets",
        help="relevance-mining resource to pack",
    )
    build_pack.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the sampled build trace as JSON lines to PATH",
    )
    _add_profile_flags(build_pack)
    build_pack.set_defaults(handler=_cmd_build_pack)

    stats = commands.add_parser(
        "stats",
        help="run a sample serving workload and print the metrics registry",
        description=(
            "By default this runs a sample workload in THIS process and "
            "prints this process's own registry — it cannot see another "
            "process's metrics.  To inspect a running server, pass "
            "--url http://HOST:PORT/metrics; to render a snapshot file "
            "written elsewhere (registry.snapshot() as JSON), pass "
            "--snapshot FILE."
        ),
    )
    stats.add_argument(
        "--snapshot", default=None, metavar="FILE",
        help="render a JSON registry snapshot file instead of running "
             "a workload",
    )
    stats.add_argument(
        "--url", default=None, metavar="URL",
        help="fetch and print a live /metrics endpoint instead of "
             "running a workload",
    )
    stats.add_argument("--docs", type=int, default=25,
                       help="documents to rank in the sample workload")
    stats.add_argument("--seed", type=int, default=777)
    stats.add_argument("--relevance-phrases", type=int, default=40,
                       help="concepts to mine relevant keywords for")
    stats.add_argument(
        "--sample-every", type=int, default=1, metavar="N",
        help="keep every N-th request's full trace (0 disables)",
    )
    stats.add_argument(
        "--format", choices=["prom", "json"], default="prom",
        help="Prometheus text (default) or the JSON snapshot",
    )
    stats.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write sampled traces as JSON lines to PATH",
    )
    stats.set_defaults(handler=_cmd_stats)

    serve = commands.add_parser(
        "serve",
        help="serve /metrics, /healthz, /readyz, /explain, /traces/recent",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="listen port (0 binds an ephemeral port; see --port-file)",
    )
    serve.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the bound port to PATH (for --port 0 callers)",
    )
    serve.add_argument(
        "--pack", default=None, metavar="DIR",
        help="serve stores from a build-pack output directory (its "
             "manifest's feature_baselines arm the drift detector); "
             "default builds stores in-process",
    )
    serve.add_argument("--relevance-phrases", type=int, default=40,
                       help="concepts to mine when building in-process")
    serve.add_argument("--top", type=int, default=10,
                       help="default result count for /explain")
    serve.add_argument(
        "--sample-every", type=int, default=1, metavar="N",
        help="keep every N-th request's full trace (0 disables)",
    )
    serve.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write sampled traces as JSON lines to PATH",
    )
    serve.add_argument(
        "--trace-max-bytes", type=int, default=None, metavar="BYTES",
        help="rotate the --trace-out file before it exceeds BYTES "
             "(keeps 3 rotated generations)",
    )
    _add_profile_flags(serve)
    serve.set_defaults(handler=_cmd_serve)

    profile = commands.add_parser(
        "profile",
        help="run another repro command under the sampling profiler",
        description=(
            "Runs `repro <command ...>` in this process under a "
            "StackSampler and prints the hottest collapsed stacks when "
            "it finishes.  Example: repro profile -- rank story.txt"
        ),
    )
    profile.add_argument(
        "--hz", type=float, default=97,
        help="stack-sampler frequency (default 97)",
    )
    profile.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write collapsed stacks (flamegraph.pl format) to PATH",
    )
    profile.add_argument(
        "--top", type=int, default=10,
        help="collapsed stacks to print (default 10)",
    )
    profile.add_argument(
        "command", nargs=argparse.REMAINDER,
        help="the repro command to profile (prefix with -- to "
             "separate its flags from profile's own)",
    )
    profile.set_defaults(handler=_cmd_profile)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
