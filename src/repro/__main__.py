"""``python -m repro`` — command-line front end.

Subcommands:

* ``evaluate``  — regenerate the paper's tables/figures
  (thin wrapper over :mod:`repro.evaluation`); same flags as
  ``examples/run_evaluation.py``.
* ``list``      — list the benchmark suite.
* ``run NAME``  — run one benchmark across the width sweep and print its
  Figure 6 row plus translation outcomes.
* ``cache``     — inspect (``cache info``) or empty (``cache clear``)
  the persistent run cache *and* fragment store
  (docs/evaluation-runner.md, docs/retranslation.md).
* ``retranslate`` — re-lower one benchmark's translated fragments to
  another SIMD width and print the cross-width differential verdict
  (docs/retranslation.md).
* ``telemetry`` — run one benchmark with the observability registry
  enabled and dump its counters/histograms/spans
  (docs/observability.md), as text or ``--json``.
* ``codegen``   — lift one benchmark's translated fragments into the
  shared codegen IR (docs/codegen.md) and print the per-fragment
  shape-recognition table (recognized loop/chain shapes, IR node
  kinds, recognition counters).
* ``bench``     — ``bench compare OLD.json NEW.json`` diffs two
  benchmark payloads (the ``BENCH_*.json`` files benchmarks/ writes)
  and exits nonzero on speedup regressions beyond ``--tolerance``.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.scalarize import build_baseline_program, build_liquid_program
from repro.kernels.suite import BENCHMARK_ORDER, build_kernel
from repro.simd.accelerator import config_for_width
from repro.system.machine import Machine, MachineConfig
from repro.system.metrics import arrays_equal


def _cmd_list(_args) -> int:
    print("benchmark suite (paper order):")
    for name in BENCHMARK_ORDER:
        kernel = build_kernel(name)
        loops = ", ".join(s.name for s in kernel.simd_loops)
        print(f"  {name:<14} {kernel.description}")
        print(f"  {'':<14} hot loops: {loops}")
    return 0


def _cmd_run(args) -> int:
    kernel = build_kernel(args.benchmark)
    baseline = build_baseline_program(kernel)
    liquid = build_liquid_program(kernel)
    base = Machine(MachineConfig()).run(baseline)
    print(f"{kernel.name}: baseline {base.cycles:,} cycles")
    print(f"{'width':<8}{'cycles':>12}{'speedup':>9}{'translations':>14}"
          f"{'results':>9}")
    for width in args.widths:
        machine = Machine(MachineConfig(accelerator=config_for_width(width)))
        run = machine.run(liquid)
        ok = sum(1 for t in run.translations if t.ok)
        bad = sum(1 for t in run.translations if not t.ok)
        match = "match" if arrays_equal(base, run) else "DIVERGED"
        print(f"{width:<8}{run.cycles:>12,}{run.speedup_over(base):>9.2f}"
              f"{f'{ok} ok / {bad} abort':>14}{match:>9}")
        for t in run.translations:
            if not t.ok:
                print(f"         {t.function}: {t.reason.value}")
    return 0


def _cmd_cache(args) -> int:
    from repro.core.translate.fragstore import FragmentStore
    from repro.evaluation.runcache import RunCache

    cache = RunCache.default(args.cache_dir)
    fragments = FragmentStore.default(args.cache_dir)

    if args.action == "clear":
        removed = cache.clear()
        frag_removed = fragments.clear()
        print(f"cleared {removed} cached run{'s' if removed != 1 else ''}"
              f" and {frag_removed} "
              f"fragment{'s' if frag_removed != 1 else ''} from {cache.root}")
        return 0

    print(f"run cache at {cache.root}")
    print(f"  entries   {cache.entry_count()}")
    print(f"  size      {cache.size_bytes() / 1024:.1f} KB")
    print(f"fragment store at {fragments.root}")
    print(f"  entries   {fragments.entry_count()}")
    print(f"  size      {fragments.size_bytes() / 1024:.1f} KB")
    return 0


def _cmd_retranslate(args) -> int:
    import json

    from repro.core.translate.fragstore import FragmentStore
    from repro.evaluation.crosswidth import crosswidth_differential

    to_width = args.to_width if args.to_width else 2 * args.from_width
    store = None if args.no_cache else FragmentStore.default(args.cache_dir)
    report = crosswidth_differential(args.benchmark, args.from_width,
                                     to_width, store=store)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["ok"] else 1
    print(f"{args.benchmark}: retranslate w{args.from_width} -> w{to_width}")
    for function, info in sorted(report["functions"].items()):
        if not info["source_ok"]:
            status = f"source abort ({info['source_reason']})"
        elif info["retranslate_ok"]:
            status = "retranslated"
        else:
            status = f"rejected ({info['retranslate_reason']})"
        print(f"  {function:<24} {status}")
    print(f"{'engine':<12}{'fresh cycles':>14}{'retr cycles':>14}"
          f"{'arrays':>9}{'vs ref':>8}{'ucode':>7}")
    for engine, row in report["engines"].items():
        print(f"{engine:<12}{row['cycles_fresh']:>14,}"
              f"{row['cycles_retranslated']:>14,}"
              f"{'match' if row['arrays_match_fresh'] else 'DIVERGE':>9}"
              f"{'match' if row['arrays_match_reference'] else 'DIVERGE':>8}"
              f"{'ran' if row['microcode_ran'] else 'NO':>7}")
    print("verdict: " + ("OK" if report["ok"] else "DIVERGED"))
    return 0 if report["ok"] else 1


def _cmd_telemetry(args) -> int:
    import json

    from repro.observability import telemetry

    kernel = build_kernel(args.benchmark)
    program = (build_baseline_program(kernel) if args.program == "baseline"
               else build_liquid_program(kernel))
    accelerator = (config_for_width(args.width) if args.program == "liquid"
                   else None)
    config = MachineConfig(accelerator=accelerator, engine=args.engine)
    tel = telemetry.enable()
    try:
        result = Machine(config).run(program)
    finally:
        telemetry.disable()
    if args.json:
        payload = tel.to_dict()
        payload["run"] = {
            "program": result.program,
            "config": result.config,
            "engine": args.engine,
            "cycles": result.cycles,
            "telemetry": result.telemetry,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{result.program} on {result.config} ({args.engine}): "
              f"{result.cycles:,} cycles in "
              f"{result.telemetry['wall_seconds']:.3f}s")
        print(tel.render_text())
    return 0


def _cmd_codegen(args) -> int:
    import json

    from repro.codegen.ir import LoopNode
    from repro.observability import telemetry

    kernel = build_kernel(args.benchmark)
    program = build_liquid_program(kernel)
    config = MachineConfig(accelerator=config_for_width(args.width),
                           engine="turbo")
    result = Machine(config).run(program)
    entries = [t.entry for t in result.translations
               if t.ok and t.entry is not None]
    tel = telemetry.enable()
    try:
        rows = []
        for entry in entries:
            ir = entry.lift_ir()
            shapes = []
            for head in sorted(ir.loops):
                node = ir.loops[head]
                kind = "nested-loop" if node.inner is not None \
                    else "canonical-loop"
                shapes.append({"head": head, "shape": kind,
                               "trip": node.trip, "step": node.step})
            chain = None
            if ir.chain is not None:
                loops = [r for r in ir.chain.regions
                         if isinstance(r, LoopNode)]
                chain = {"regions": len(ir.chain.regions),
                         "loops": len(loops),
                         "fission": len(loops) >= 2,
                         "retired": ir.chain.total_retired}
            rows.append({"function": entry.function,
                         "width": entry.width,
                         "instructions": len(entry.fragment.instructions),
                         "node_kinds": sorted(k.name
                                              for k in ir.node_kinds()),
                         "loops": shapes, "chain": chain})
    finally:
        telemetry.disable()
    counters = {name: value
                for name, value in tel.to_dict().get("counters", {}).items()
                if name.startswith("macro.plan.")}
    if args.json:
        print(json.dumps({"benchmark": args.benchmark, "width": args.width,
                          "fragments": rows, "counters": counters},
                         indent=2, sort_keys=True))
        return 0
    print(f"{args.benchmark} @ width {args.width}: "
          f"{len(rows)} translated fragment(s)")
    for row in rows:
        print(f"  {row['function']} "
              f"({row['instructions']} instructions)")
        for shape in row["loops"]:
            print(f"    loop @ pc {shape['head']:<4} {shape['shape']:<15} "
                  f"trip {shape['trip']} step {shape['step']}")
        chain = row["chain"]
        if chain is not None:
            tag = "fission-chain" if chain["fission"] else "chain"
            print(f"    whole-fragment {tag}: {chain['regions']} regions, "
                  f"{chain['loops']} loop(s), "
                  f"{chain['retired']} retired/invocation")
        print(f"    IR nodes: {', '.join(row['node_kinds'])}")
    if counters:
        print("recognition counters:")
        for name in sorted(counters):
            print(f"  {name:<44} {counters[name]}")
    return 0


def _cmd_bench_compare(args) -> int:
    import json

    from repro.observability.benchdiff import (
        compare_files,
        render_comparison,
    )

    try:
        comparison = compare_files(args.old, args.new,
                                   tolerance=args.tolerance / 100.0)
    except (OSError, ValueError) as exc:
        print(f"bench compare: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_comparison(comparison))
    return 0 if comparison.ok else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "evaluate":
        # Delegate everything after the subcommand to the evaluation CLI,
        # which owns its own flags.
        from repro.evaluation.cli import run as eval_run
        return eval_run(argv[1:])

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark suite")

    run_p = sub.add_parser("run", help="run one benchmark across widths")
    run_p.add_argument("benchmark", choices=BENCHMARK_ORDER)
    run_p.add_argument("--widths", nargs="*", type=int, default=[2, 4, 8, 16])

    sub.add_parser("evaluate", help="regenerate evaluation artifacts "
                                    "(see `repro evaluate --help`)")

    cache_p = sub.add_parser("cache", help="inspect or clear the "
                                           "persistent run cache")
    cache_p.add_argument("action", choices=("info", "clear"),
                         help="'info' prints entry counts and sizes; "
                              "'clear' deletes every cached run and "
                              "fragment")
    cache_p.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="cache directory (default: $REPRO_CACHE_DIR "
                              "or ~/.cache/repro-liquid-simd)")

    retr_p = sub.add_parser(
        "retranslate",
        help="re-lower one benchmark's fragments to another width and "
             "print the cross-width differential verdict")
    retr_p.add_argument("benchmark", choices=BENCHMARK_ORDER)
    retr_p.add_argument("--from-width", type=int, default=4, metavar="W",
                        help="source translation width (default: 4)")
    retr_p.add_argument("--to-width", type=int, default=None, metavar="T",
                        help="target width (default: 2*W)")
    retr_p.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="fragment-store directory root (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/"
                             "repro-liquid-simd)")
    retr_p.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent fragment store")
    retr_p.add_argument("--json", action="store_true",
                        help="emit the full report as JSON")

    tel_p = sub.add_parser(
        "telemetry",
        help="run one benchmark with telemetry enabled and dump the "
             "counter/histogram/span registry")
    tel_p.add_argument("benchmark", choices=BENCHMARK_ORDER)
    tel_p.add_argument("--width", type=int, default=8,
                       help="accelerator width (default: 8)")
    tel_p.add_argument("--engine", default="macro",
                       help="execution engine (default: macro)")
    tel_p.add_argument("--program", choices=("liquid", "baseline"),
                       default="liquid",
                       help="program form to run (default: liquid)")
    tel_p.add_argument("--json", action="store_true",
                       help="emit the registry as JSON instead of text")

    cg_p = sub.add_parser(
        "codegen",
        help="lift one benchmark's translated fragments into codegen IR "
             "and print the per-fragment shape-recognition table")
    cg_p.add_argument("benchmark", choices=BENCHMARK_ORDER)
    cg_p.add_argument("--width", type=int, default=8,
                      help="accelerator width (default: 8)")
    cg_p.add_argument("--json", action="store_true",
                      help="emit the table as JSON instead of text")

    bench_p = sub.add_parser(
        "bench", help="benchmark payload utilities (bench compare)")
    bench_sub = bench_p.add_subparsers(dest="bench_command", required=True)
    cmp_p = bench_sub.add_parser(
        "compare",
        help="diff two BENCH_*.json payloads; exit 1 on speedup "
             "regressions beyond --tolerance, 2 on unreadable input")
    cmp_p.add_argument("old", help="baseline payload (BENCH_*.json)")
    cmp_p.add_argument("new", help="candidate payload (BENCH_*.json)")
    cmp_p.add_argument("--tolerance", type=float, default=10.0,
                       metavar="PCT",
                       help="allowed speedup drop in percent "
                            "(default: 10)")
    cmp_p.add_argument("--json", action="store_true",
                       help="emit the comparison as JSON instead of text")

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "retranslate":
        return _cmd_retranslate(args)
    if args.command == "telemetry":
        return _cmd_telemetry(args)
    if args.command == "codegen":
        return _cmd_codegen(args)
    if args.command == "bench":
        return _cmd_bench_compare(args)
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
