"""Command-line driver for the evaluation harness.

Used by ``python -m repro evaluate`` and ``examples/run_evaluation.py``.

Execution goes through the parallel run scheduler and the persistent
run cache (docs/evaluation-runner.md): before any experiment runs, the
CLI collects every experiment's declared :class:`RunRequest`\\ s and
prefetches their deduplicated union — fanned out over ``--jobs`` worker
processes on cold cache, answered from ``~/.cache/repro-liquid-simd``
(or ``$REPRO_CACHE_DIR`` / ``--cache-dir``) on warm.  Rendered tables
are byte-identical whatever the job count or cache state.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import time
from typing import List, Optional

from repro.evaluation import experiments, report
from repro.evaluation.runcache import RunCache
from repro.evaluation.runner import RunScheduler
from repro.interp.executor import ENGINES
from repro.kernels.suite import BENCHMARK_ORDER

FAST_SUBSET = ["MPEG2 Dec.", "GSM Enc.", "LU", "FFT", "FIR"]

EXPERIMENTS = ("table2", "table5", "table6", "figure6", "overhead",
               "codesize", "ucache", "latency", "jit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's evaluation tables and figures.",
    )
    parser.add_argument("--benchmarks", nargs="*", default=None,
                        metavar="NAME",
                        help="benchmark subset (default: a fast subset; "
                             f"choices: {', '.join(BENCHMARK_ORDER)})")
    parser.add_argument("--experiments", nargs="*",
                        default=["table2", "table5"],
                        choices=EXPERIMENTS, metavar="EXP",
                        help=f"which experiments to run {EXPERIMENTS}")
    parser.add_argument("--all", action="store_true",
                        help="all experiments over all fifteen benchmarks")
    parser.add_argument("--engine", choices=ENGINES,
                        default="fast",
                        help="execution engine (results are bit-identical; "
                             "'turbo' fuses superblocks, 'reference' is the "
                             "slow canonical interpreter)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for simulations (default: "
                             "os.cpu_count(); 1 = in-process/sequential)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent run-cache directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro-liquid-simd)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent run cache "
                             "(always re-simulate)")
    parser.add_argument("--ucache-benchmark", default="LU", metavar="NAME",
                        help="benchmark for the microcode-cache sweep "
                             "(default: LU, the suite's largest hot-loop "
                             "working set)")
    parser.add_argument("--profile", action="store_true",
                        default=bool(os.environ.get("REPRO_PROFILE")),
                        help="profile the evaluation with cProfile and dump "
                             "the top cumulative-time functions (also "
                             "enabled by REPRO_PROFILE=1); forces --jobs 1 "
                             "so simulations stay in-process and visible "
                             "to the profiler")
    parser.add_argument("--profile-limit", type=int, default=25, metavar="N",
                        help="rows of cProfile output with --profile "
                             "(default: 25)")
    return parser


def _validate_benchmarks(parser: argparse.ArgumentParser,
                         names: Optional[List[str]], flag: str) -> None:
    """Reject unknown benchmark names up front with the valid choices."""
    unknown = [n for n in names or [] if n not in BENCHMARK_ORDER]
    if unknown:
        parser.error(
            f"unknown benchmark{'s' if len(unknown) > 1 else ''} for {flag}: "
            f"{', '.join(repr(n) for n in unknown)}.\n"
            f"Valid choices: {', '.join(BENCHMARK_ORDER)}"
        )


def _prefetch_requests(ctx: experiments.EvalContext, selected,
                       ucache_benchmark: str) -> list:
    """The deduplicated union of every selected experiment's runs."""
    requests = []
    if "table6" in selected:
        requests += experiments.table6_requests(ctx)
    if "figure6" in selected:
        requests += experiments.figure6_requests(ctx)
    if "overhead" in selected:
        requests += experiments.native_overhead_requests(ctx)
    if "ucache" in selected:
        requests += experiments.ucode_cache_ablation_requests(
            ctx, ucache_benchmark)
    if "jit" in selected:
        requests += experiments.software_translation_requests(ctx)
    if "latency" in selected:
        requests += experiments.translation_latency_requests(ctx)
    return requests


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_benchmarks(parser, args.benchmarks, "--benchmarks")
    _validate_benchmarks(parser, [args.ucache_benchmark], "--ucache-benchmark")
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.profile:
        # Worker processes would hide the simulation frames; profile the
        # whole evaluation in-process and report where the time goes
        # (so perf PRs can cite cumulative hotspots per run).
        args.jobs = 1
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return _run_evaluation(args)
        finally:
            profiler.disable()
            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.strip_dirs().sort_stats("cumulative")
            print(f"\n[cProfile: top {args.profile_limit} by cumulative time]")
            stats.print_stats(args.profile_limit)
    return _run_evaluation(args)


def _run_evaluation(args) -> int:
    if args.all:
        benchmarks = BENCHMARK_ORDER
        selected = list(EXPERIMENTS)
    else:
        benchmarks = args.benchmarks or FAST_SUBSET
        selected = args.experiments

    cache = None if args.no_cache else RunCache.default(args.cache_dir)
    scheduler = RunScheduler(jobs=args.jobs, cache=cache)
    ctx = experiments.EvalContext(benchmarks, engine=args.engine,
                                  scheduler=scheduler)
    start = time.time()
    ctx.prefetch(_prefetch_requests(ctx, selected, args.ucache_benchmark))

    if "table2" in selected:
        rows = experiments.table2_hw_cost((2, 4, 8, 16))
        print(report.render_table2(rows))
        print(report.render_breakdown(rows[2]["breakdown"]))
        print()
    if "table5" in selected:
        print(report.render_table5(experiments.table5_outlined_sizes(ctx)))
        print()
    if "table6" in selected:
        print(report.render_table6(experiments.table6_call_distances(ctx)))
        print()
    if "figure6" in selected:
        from repro.evaluation.figures import render_figure6_chart
        rows = experiments.figure6_speedups(ctx)
        print(report.render_figure6(rows, experiments.DEFAULT_WIDTHS))
        print()
        print(render_figure6_chart(rows, experiments.DEFAULT_WIDTHS))
        print()
    if "overhead" in selected:
        print(report.render_native_overhead(experiments.native_overhead(ctx)))
        print()
    if "codesize" in selected:
        print(report.render_code_size(experiments.code_size_overhead(ctx)))
        print()
    if "ucache" in selected:
        rows = experiments.ucode_cache_ablation(args.ucache_benchmark,
                                                ctx=ctx)
        print(report.render_ablation(
            rows, "entries",
            f"Microcode cache entries sweep ({args.ucache_benchmark})"))
        print()
    if "jit" in selected:
        rows = experiments.software_translation_comparison(ctx=ctx)
        print(f"{'Benchmark':<14}{'HW cycles':>12}{'JIT cycles':>12}"
              f"{'JIT cost':>10}")
        for row in rows:
            print(f"{row['benchmark']:<14}{row['hardware_cycles']:>12,}"
                  f"{row['software_cycles']:>12,}"
                  f"{row['jit_cost_pct']:>9.2f}%")
        print()
    if "latency" in selected:
        rows = experiments.translation_latency_ablation("171.swim", ctx=ctx)
        print(report.render_ablation(
            rows, "cycles_per_instruction",
            "Translation latency sweep (171.swim)"))
        print()

    stats = scheduler.stats
    cache_note = ""
    if cache is not None:
        cache_note = (f", cache: {stats.cache_hits} hits / "
                      f"{stats.executed} simulated")
    print(f"[{time.time() - start:.1f}s, jobs: {scheduler.jobs}"
          f"{cache_note}, benchmarks: {', '.join(benchmarks)}]")
    return 0
