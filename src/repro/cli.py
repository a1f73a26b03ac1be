"""Command-line interface for the TMN reproduction.

Subcommands::

    repro-tmn generate   --kind porto --n 200 --seed 0 --out corpus
    repro-tmn train      --kind porto --metric dtw --model TMN --out ckpt \
                         [--profile] [--log-json runs/run.jsonl]
    repro-tmn evaluate   --checkpoint ckpt --kind porto --metric dtw
    repro-tmn experiment table2 --dataset porto --metric dtw [--fast]
    repro-tmn report     runs/run.jsonl
    repro-tmn serve-bench --queries 500 --workers 4 [--json] \
                         [--trace-log traces.jsonl] [--metrics-out m.json]
    repro-tmn profile-serve --speedscope profile.json [--folded profile.folded]
    repro-tmn metrics    [--demo]
    repro-tmn trace      [traces.jsonl] [--demo] [--top 3]
    repro-tmn bench-diff BENCH_serve.json benchmarks/baselines/BENCH_serve.json \
                         [--json] [--tolerance METRIC=REL ...]
    repro-tmn lint       [paths ...] [--format text|json|sarif] \
                         [--rules R001,N001] [--baseline lint_baseline.json \
                         [--update-baseline]]

``experiment`` regenerates one paper table/figure block and prints the
paper-style text table; ``--fast`` switches from BENCH to SMOKE scale.
``serve-bench`` drives the concurrent serving layer (micro-batching
encode queue + embedding cache + HNSW top-k) under a worker pool and
reports throughput against naive one-request-one-forward encoding;
``--trace-log`` mirrors every request trace to JSONL for ``trace``.
``train --log-json`` persists a JSONL run record (config, seed, per-epoch
loss/grad-norm/timing), ``--profile`` times every autograd op,
``--sample-hz`` runs the wall-clock stack sampler over the fit and
``--track-memory`` adds tracemalloc allocation accounting;
``report`` pretty-prints a run record (profiles render under one
"hot paths" section).  ``profile-serve`` runs the serving workload plus
an exact-metric phase under the stack sampler and writes a
speedscope-loadable flamegraph JSON (https://www.speedscope.app/).  ``metrics`` renders the metrics
registry in Prometheus exposition format; ``trace`` prints critical-path
trees for the slowest recorded traces; ``bench-diff`` gates a fresh
bench JSON against a committed baseline with per-metric tolerances
(``make bench-check``).  ``lint`` runs the project's static-analysis
pass (``repro.analysis``) and exits non-zero when violations are found.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from typing import List, Optional

import numpy as np

from .core import Trainer, pair_distance_matrix
from .data import make_dataset, prepare
from .eval import evaluate_rankings
from .experiments import (
    BENCH,
    MODEL_NAMES,
    SMOKE,
    build_model,
    effectiveness_table,
    efficiency_table,
    format_effectiveness,
    format_efficiency,
    format_sweep,
    load_corpus,
    run_model,
)
from .io import load_model, save_dataset, save_model
from .metrics import METRIC_NAMES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for the repro-tmn CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-tmn",
        description="Reproduction of TMN: Trajectory Matching Networks (ICDE 2022)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic corpus")
    gen.add_argument("--kind", choices=("geolife", "porto"), default="porto")
    gen.add_argument("--n", type=int, default=200)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output path (.npz)")
    gen.add_argument("--raw", action="store_true", help="skip preprocessing")

    train = sub.add_parser("train", help="train a model on a synthetic corpus")
    train.add_argument("--kind", choices=("geolife", "porto"), default="porto")
    train.add_argument("--metric", choices=METRIC_NAMES, default="dtw")
    train.add_argument("--model", choices=MODEL_NAMES, default="TMN")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--epochs", type=int, default=None)
    train.add_argument("--fast", action="store_true", help="SMOKE scale")
    train.add_argument("--out", required=True, help="checkpoint path prefix")
    train.add_argument(
        "--profile",
        action="store_true",
        help="profile autograd ops during training and print the op table",
    )
    train.add_argument(
        "--log-json",
        default=None,
        metavar="PATH",
        help="write a JSONL run record (config, seed, per-epoch stats)",
    )
    train.add_argument(
        "--sample-hz",
        type=float,
        default=None,
        metavar="HZ",
        help="run the wall-clock stack sampler over the fit at HZ samples/s",
    )
    train.add_argument(
        "--track-memory",
        action="store_true",
        help="tracemalloc allocation accounting per epoch (and per op with --profile)",
    )

    ev = sub.add_parser("evaluate", help="evaluate a checkpoint on a fresh test split")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--kind", choices=("geolife", "porto"), default="porto")
    ev.add_argument("--metric", choices=METRIC_NAMES, default="dtw")
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--fast", action="store_true")

    exp = sub.add_parser("experiment", help="regenerate one paper table/figure")
    exp.add_argument(
        "which",
        choices=("table2", "table3", "table4", "fig3", "fig4", "fig5"),
    )
    exp.add_argument("--dataset", choices=("geolife", "porto"), default="porto")
    exp.add_argument("--metric", choices=METRIC_NAMES, default="dtw")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--fast", action="store_true")

    report = sub.add_parser("report", help="pretty-print a JSONL run record")
    report.add_argument("path", help="run record written by train --log-json")

    serve = sub.add_parser(
        "serve-bench", help="benchmark the concurrent similarity-serving layer"
    )
    serve.add_argument("--kind", choices=("geolife", "porto"), default="porto")
    serve.add_argument("--n-db", type=int, default=60, help="indexed trajectories")
    serve.add_argument("--queries", type=int, default=500, help="cache-miss queries")
    serve.add_argument("--workers", type=int, default=4, help="caller threads")
    serve.add_argument("--batch-size", type=int, default=32, help="max encode batch")
    serve.add_argument(
        "--max-wait-ms", type=float, default=4.0, help="batch flush deadline"
    )
    serve.add_argument("--hidden-dim", type=int, default=32, help="encoder width")
    serve.add_argument(
        "--traj-len",
        type=int,
        default=None,
        help="points per trajectory (default: the corpus default length)",
    )
    serve.add_argument("--k", type=int, default=5, help="neighbours per query")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline (missed => degraded exact answer)",
    )
    serve.add_argument(
        "--json", action="store_true", help="print the result dict as JSON"
    )
    serve.add_argument(
        "--trace-log",
        default=None,
        metavar="PATH",
        help="mirror every request trace to a JSONL file (view: repro-tmn trace)",
    )
    serve.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the metrics-registry snapshot as JSON (also on SLO breach)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="benchmark the sharded process-pool tier with N worker processes "
        "instead of the single-process server (ignores --kind/--hidden-dim/"
        "--traj-len/--deadline-ms: the sharded bench uses the deterministic "
        "feature encoder over random walks; --trace-log persists the "
        "stitched cross-process traces)",
    )
    serve.add_argument(
        "--shard-strategy",
        choices=("round-robin", "hash"),
        default="round-robin",
        help="shard assignment for --shards (content-hash or round-robin)",
    )
    serve.add_argument(
        "--shard-deadline-ms",
        type=float,
        default=5000.0,
        help="per-shard scatter-gather deadline for --shards (missed shards "
        "fall back to an exact coordinator-side scan)",
    )

    prof = sub.add_parser(
        "profile-serve",
        help="profile the serving workload with the wall-clock stack sampler",
    )
    prof.add_argument("--kind", choices=("geolife", "porto"), default="porto")
    prof.add_argument("--n-db", type=int, default=60, help="indexed trajectories")
    prof.add_argument("--queries", type=int, default=300, help="cache-miss queries")
    prof.add_argument("--workers", type=int, default=4, help="caller threads")
    prof.add_argument("--hz", type=float, default=97.0, help="sampling frequency")
    prof.add_argument("--seed", type=int, default=0)
    prof.add_argument(
        "--exact-pairs",
        type=int,
        default=24,
        help="trajectories in the exact DP-metric phase (0 disables it)",
    )
    prof.add_argument(
        "--speedscope",
        default=None,
        metavar="PATH",
        help="write a speedscope-loadable flamegraph JSON (speedscope.app)",
    )
    prof.add_argument(
        "--folded",
        default=None,
        metavar="PATH",
        help="write collapsed stacks (flamegraph.pl / inferno format)",
    )
    prof.add_argument(
        "--top", type=int, default=12, help="rows in the printed top-frames table"
    )

    metrics = sub.add_parser(
        "metrics", help="render the metrics registry in Prometheus text format"
    )
    metrics.add_argument(
        "--demo",
        action="store_true",
        help="run a small seeded serve workload first so there is data to show",
    )

    trace = sub.add_parser(
        "trace", help="print critical-path trees for the slowest recorded traces"
    )
    trace.add_argument(
        "path",
        nargs="?",
        default=None,
        help="JSONL trace log (from serve-bench --trace-log); default: in-process ring",
    )
    trace.add_argument(
        "--demo",
        action="store_true",
        help="run a small seeded serve workload first so the ring has traces",
    )
    trace.add_argument(
        "--top", type=int, default=3, help="how many slowest traces to print"
    )
    trace.add_argument(
        "--name", default=None, help="only consider traces with this name"
    )
    trace.add_argument(
        "--shard",
        type=int,
        default=None,
        metavar="N",
        help="only consider stitched traces that touched shard N (matches "
        "grafted worker-side spans and the coordinator's shard-N spans)",
    )
    trace.add_argument(
        "--demo-shards",
        type=int,
        default=0,
        metavar="N",
        help="run a small seeded N-shard serve workload first so the ring "
        "has stitched cross-process traces (overrides --demo)",
    )

    diff = sub.add_parser(
        "bench-diff", help="compare a bench JSON against a committed baseline"
    )
    diff.add_argument("current", help="freshly produced bench JSON")
    diff.add_argument("baseline", help="committed baseline bench JSON")
    diff.add_argument(
        "--json", action="store_true", help="print the full diff as JSON"
    )
    diff.add_argument(
        "--tolerance",
        action="append",
        default=[],
        metavar="METRIC=REL",
        help="override the relative tolerance for one metric (repeatable)",
    )

    lint = sub.add_parser("lint", help="run the project static-analysis pass")
    lint.add_argument("paths", nargs="*", default=["src"])
    lint.add_argument("--tests", default=None, help="tests directory for R003")
    lint.add_argument("--baseline", default=None, help="JSON suppression file")
    lint.add_argument("--format", choices=("text", "json", "sarif"), default="text",
                      dest="fmt", help="report format (default: text)")
    lint.add_argument("--json", action="store_true",
                      help="shorthand for --format json")
    lint.add_argument("--rules", default=None, help="comma-separated rule subset")
    lint.add_argument("--scope", default=None,
                      help="rule family to run (concurrency, stability, ...)")
    lint.add_argument("--fail-on", choices=("error", "warning"), default="warning",
                      dest="fail_on",
                      help="lowest severity that fails the run (default: warning)")
    lint.add_argument("--update-baseline", action="store_true",
                      help="re-snapshot current findings into the --baseline file")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule table (id, family, severity, doc) and exit")
    return parser


def _scale(fast: bool):
    return SMOKE if fast else BENCH


def _cmd_generate(args) -> int:
    ds = make_dataset(args.kind, args.n, seed=args.seed)
    if not args.raw:
        ds, _ = prepare(ds)
    path = save_dataset(ds, args.out)
    print(f"wrote {len(ds)} trajectories to {path}")
    return 0


def _cmd_train(args) -> int:
    from .obs import (
        OpProfiler,
        RunWriter,
        StackSampler,
        format_op_table,
        format_top_frames,
    )

    scale = _scale(args.fast)
    corpus = load_corpus(args.kind, scale, seed=args.seed)
    model, config = build_model(args.model, scale, seed=args.seed)
    if args.epochs:
        config = config.with_updates(epochs=args.epochs)
        model = type(model)(config)
    trainer = Trainer(model, config, metric=args.metric)

    writer = None
    if args.log_json:
        writer = RunWriter(
            args.log_json,
            name=f"{args.model}-{args.kind}-{args.metric}",
            config=dataclasses.asdict(config),
            seed=args.seed,
            metric=args.metric,
        )
    profiler = OpProfiler(track_memory=args.track_memory) if args.profile else None
    sampler = StackSampler(hz=args.sample_hz) if args.sample_hz else None
    try:
        if profiler is not None:
            profiler.enable()
        if sampler is not None:
            sampler.start()
        history = trainer.fit(
            corpus.train_points,
            verbose=True,
            on_epoch=writer.write_epoch if writer else None,
            track_memory=args.track_memory,
        )
    finally:
        if sampler is not None:
            sampler.stop()
        if profiler is not None:
            profiler.disable()
    if writer is not None:
        from .obs import get_registry

        writer.finish(
            final_loss=history.final_loss,
            op_profile=profiler.snapshot() if profiler else None,
            sample_profile=sampler.snapshot() if sampler else None,
            metrics=get_registry().snapshot(),
        )
    if sampler is not None:
        print(
            f"sampled {sampler.samples} stack(s) over {sampler.seconds:.2f}s "
            f"at {sampler.hz:g} hz:"
        )
        print(format_top_frames(sampler.merged_stacks()))
    if profiler is not None:
        print(format_op_table(profiler.snapshot()))
    path = save_model(model, args.out)
    print(f"final loss {history.final_loss:.5f}; checkpoint at {path}")
    return 0


def _cmd_evaluate(args) -> int:
    scale = _scale(args.fast)
    corpus = load_corpus(args.kind, scale, seed=args.seed)
    model = load_model(args.checkpoint)
    model.prepare(corpus.train_points)  # rebuild corpus-level structures
    pred = pair_distance_matrix(model, corpus.test_points)
    scores = evaluate_rankings(
        corpus.test_distances(args.metric), pred, hr_ks=(5, 10), recall=(5, 10)
    )
    for key, value in scores.items():
        print(f"{key}: {value:.4f}")
    return 0


def _cmd_experiment(args) -> int:
    scale = _scale(args.fast)
    corpus = load_corpus(args.dataset, scale, seed=args.seed)
    if args.which == "table2":
        results = effectiveness_table(corpus, [args.metric], scale)
        print(format_effectiveness(results, [args.metric]))
    elif args.which == "table3":
        rows = efficiency_table(corpus, scale)
        print(format_efficiency(rows))
    elif args.which == "table4":
        for name in ("TMN", "TMN-kd"):
            r = run_model(name, corpus, args.metric, scale)
            print(f"{name:8s} {r.scores}")
    elif args.which == "fig3":
        for name in ("TMN", "TMN-qerror"):
            r = run_model(name, corpus, args.metric, scale)
            print(f"{name:12s} {r.scores}")
    elif args.which == "fig4":
        from .experiments import ascii_line_chart

        dims = (8, 16, 32)
        results = [
            run_model("TMN", corpus, args.metric, scale, config_overrides={"hidden_dim": d}).scores
            for d in dims
        ]
        print(format_sweep("hidden dimension sweep", dims, results))
        print()
        print(
            ascii_line_chart(
                "Figure 4a (ASCII): HR-k vs hidden dimension",
                dims,
                {key: [r[key] for r in results] for key in results[0]},
            )
        )
    elif args.which == "fig5":
        for name in ("TMN", "TMN-noSub"):
            r = run_model(name, corpus, args.metric, scale)
            print(f"{name:10s} {r.scores}")
    return 0


def _cmd_serve_bench(args) -> int:
    import json

    from .serve import format_serve_bench, run_serve_bench

    if args.shards > 0:
        from .serve import format_shard_bench, run_shard_bench

        result = run_shard_bench(
            n_db=args.n_db,
            n_queries=args.queries,
            shards=args.shards,
            workers=args.workers,
            k=args.k,
            batch_size=args.batch_size,
            max_wait_ms=args.max_wait_ms,
            shard_deadline_s=args.shard_deadline_ms / 1000.0,
            strategy=args.shard_strategy,
            seed=args.seed,
            metrics_out=args.metrics_out,
            trace_log=args.trace_log,
        )
        if args.json:
            print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        else:
            print(format_shard_bench(result))
        return 0 if result.dropped == 0 else 1

    deadline = args.deadline_ms / 1000.0 if args.deadline_ms is not None else None
    result = run_serve_bench(
        n_db=args.n_db,
        n_queries=args.queries,
        workers=args.workers,
        batch_size=args.batch_size,
        max_wait_ms=args.max_wait_ms,
        hidden_dim=args.hidden_dim,
        kind=args.kind,
        k=args.k,
        seed=args.seed,
        deadline_s=deadline,
        traj_len=args.traj_len,
        trace_log=args.trace_log,
        metrics_out=args.metrics_out,
    )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_serve_bench(result))
    return 0 if result.dropped == 0 else 1


def _cmd_profile_serve(args) -> int:
    from .data import make_dataset
    from .metrics import get_metric, pairwise_distance_matrix
    from .obs import StackSampler, format_top_frames, get_tracer
    from .serve import format_serve_bench, run_serve_bench

    sampler = StackSampler(hz=args.hz)
    with sampler:
        result = run_serve_bench(
            n_db=args.n_db,
            n_queries=args.queries,
            workers=args.workers,
            kind=args.kind,
            seed=args.seed,
            enforce_slos=False,
        )
        if args.exact_pairs:
            # An explicit exact-metric phase: the serving path is
            # embedding-based, so without this the DP kernels (the very
            # code ROADMAP 2 wants to optimise) would never appear in
            # the profile.  Runs under its own trace so its samples are
            # attributed to the serve.exact-metric phase.
            # The matrix is recomputed until the phase spans a few sampling
            # periods: one pass over a small set can finish between two
            # samples, and then the kernels would still be missing.
            exact = make_dataset(args.kind, args.exact_pairs, seed=args.seed)
            points = [t.points for t in exact]
            # On a busy host the sampler thread can miss its ticks, so the
            # phase also waits for 8 samples (for at most 2 s more).
            with get_tracer().trace("serve.exact-metric", n=len(points)):
                first = sampler.samples
                until = time.perf_counter() + 8.0 / args.hz
                while True:
                    pairwise_distance_matrix(points, get_metric("dtw"))
                    now = time.perf_counter()
                    if now >= until and (sampler.samples - first >= 8 or now >= until + 2.0):
                        break
    print(format_serve_bench(result))
    print()
    print(
        f"profile: {sampler.samples} sample(s) over {sampler.seconds:.2f}s "
        f"at {args.hz:g} hz"
    )
    print(format_top_frames(sampler.merged_stacks(), n=args.top))
    if args.speedscope:
        path = sampler.write_speedscope(args.speedscope)
        print(f"speedscope profile written to {path} (open at speedscope.app)")
    if args.folded:
        path = sampler.write_folded(args.folded)
        print(f"folded stacks written to {path}")
    return 0 if sampler.samples else 1


def _run_demo_workload() -> None:
    """A small seeded serve run so metrics/trace have real data to show."""
    from .serve import run_serve_bench

    run_serve_bench(n_db=12, n_queries=48, workers=4, naive_queries=4, seed=0)


def _run_demo_shard_workload(shards: int) -> None:
    """A small seeded sharded run so the ring has stitched traces."""
    from .serve import run_shard_bench

    run_shard_bench(
        n_db=48, n_queries=24, shards=shards, workers=2, seed=0,
        enforce_slos=False,
    )


def _trace_touches_shard(trace, shard: int) -> bool:
    """Whether a stitched trace gathered from (or grafted spans of) ``shard``."""
    marker = f"shard-{shard}"
    for event in trace.events:
        if event.get("shard") == shard or event.get("name") == marker:
            return True
    return False


def _cmd_metrics(args) -> int:
    from .obs import get_registry, render_exposition

    if args.demo:
        _run_demo_workload()
    print(render_exposition(get_registry()), end="")
    return 0


def _cmd_trace(args) -> int:
    from .obs import format_trace, get_tracer, read_trace_log

    if args.demo_shards > 0:
        _run_demo_shard_workload(args.demo_shards)
    elif args.demo:
        _run_demo_workload()
    if args.path is not None:
        try:
            traces = read_trace_log(args.path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.name is not None:
            traces = [t for t in traces if t.name == args.name]
    else:
        traces = get_tracer().recent(name=args.name)
    if args.shard is not None:
        traces = [t for t in traces if _trace_touches_shard(t, args.shard)]
    if not traces:
        hint = " (try --demo, or serve-bench --trace-log)" if args.path is None else ""
        print(f"no traces recorded{hint}")
        return 1
    slowest = sorted(traces, key=lambda t: t.duration, reverse=True)[: args.top]
    blocks = [format_trace(t, deadline_s=t.attrs.get("deadline_s")) for t in slowest]
    print(f"{len(traces)} trace(s); slowest {len(slowest)}:\n")
    print("\n\n".join(blocks))
    return 0


def _cmd_bench_diff(args) -> int:
    import json

    from .obs import compare_bench_files

    overrides = {}
    for spec in args.tolerance:
        metric, _, rel = spec.partition("=")
        if not metric or not rel:
            print(f"error: bad --tolerance {spec!r} (want METRIC=REL)", file=sys.stderr)
            return 2
        try:
            overrides[metric] = float(rel)
        except ValueError:
            print(f"error: bad --tolerance value {rel!r}", file=sys.stderr)
            return 2
    try:
        diff = compare_bench_files(args.current, args.baseline, overrides=overrides)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(diff.to_dict(), indent=2, sort_keys=True))
    else:
        print(diff.format_text())
    return 0 if diff.ok else 1


def _cmd_report(args) -> int:
    from .obs import format_run, read_run

    try:
        record = read_run(args.path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_run(record))
    return 0


def _cmd_lint(args) -> int:
    from .analysis import run_analysis, write_baseline

    if getattr(args, "list_rules", False):
        from .analysis import format_rule_table
        from .analysis import rules as _rules  # noqa: F401  (registers the catalogue)

        print(format_rule_table())
        return 0
    rules = [r.strip() for r in args.rules.split(",")] if args.rules else None
    update = getattr(args, "update_baseline", False)
    if update and not args.baseline:
        print("error: --update-baseline requires --baseline PATH", file=sys.stderr)
        return 2
    try:
        report = run_analysis(
            args.paths,
            tests_dir=args.tests,
            # When refreshing the baseline, run unfiltered so the snapshot
            # captures every current finding, not just the unsuppressed ones.
            baseline=None if update else args.baseline,
            rules=rules,
            scope=args.scope,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if update:
        write_baseline(args.baseline, report.violations)
        print(f"wrote {len(report.violations)} suppression(s) to {args.baseline}")
        return 0
    fmt = "json" if args.json else args.fmt
    if fmt == "json":
        print(report.to_json())
    elif fmt == "sarif":
        print(report.to_sarif())
    else:
        print(report.format_text())
    return 0 if not report.failing(args.fail_on) else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "train": _cmd_train,
        "evaluate": _cmd_evaluate,
        "experiment": _cmd_experiment,
        "report": _cmd_report,
        "serve-bench": _cmd_serve_bench,
        "profile-serve": _cmd_profile_serve,
        "metrics": _cmd_metrics,
        "trace": _cmd_trace,
        "bench-diff": _cmd_bench_diff,
        "lint": _cmd_lint,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
