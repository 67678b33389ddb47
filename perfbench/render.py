"""Render every table ``repro evaluate --all`` prints.

The sections and their order mirror the ``evaluate`` CLI; the trailing
wall-time footer is left out, so the text is a pure function of the
simulated results and can be compared with ``expected/tables.txt``.
"""

from __future__ import annotations

import time

from perfbench import workloads
from repro.evaluation import experiments, report
from repro.evaluation.figures import render_figure6_chart


def render_all(ctx, clock=None) -> str:
    """Every table ``repro evaluate --all`` prints, without the footer.

    Experiment drivers (``experiments.*``) and renderers (``report.*``)
    are timed apart when *clock* (an object with ``add(name, seconds)``)
    is given.
    """
    _, ucache_benchmark = workloads.evaluate_defaults()
    widths = experiments.DEFAULT_WIDTHS

    def jit_table(rows):
        lines = [f"{'Benchmark':<14}{'HW cycles':>12}{'JIT cycles':>12}"
                 f"{'JIT cost':>10}"]
        for row in rows:
            lines.append(f"{row['benchmark']:<14}"
                         f"{row['hardware_cycles']:>12,}"
                         f"{row['software_cycles']:>12,}"
                         f"{row['jit_cost_pct']:>9.2f}%")
        return "\n".join(lines)

    sections = [
        (lambda: experiments.table2_hw_cost((2, 4, 8, 16)),
         lambda rows: report.render_table2(rows) + "\n"
         + report.render_breakdown(rows[2]["breakdown"])),
        (lambda: experiments.table5_outlined_sizes(ctx),
         report.render_table5),
        (lambda: experiments.table6_call_distances(ctx),
         report.render_table6),
        (lambda: experiments.figure6_speedups(ctx),
         lambda rows: report.render_figure6(rows, widths) + "\n\n"
         + render_figure6_chart(rows, widths)),
        (lambda: experiments.native_overhead(ctx),
         report.render_native_overhead),
        (lambda: experiments.code_size_overhead(ctx),
         report.render_code_size),
        (lambda: experiments.ucode_cache_ablation(ucache_benchmark,
                                                  ctx=ctx),
         lambda rows: report.render_ablation(
             rows, "entries",
             f"Microcode cache entries sweep ({ucache_benchmark})")),
        (lambda: experiments.software_translation_comparison(ctx=ctx),
         jit_table),
        (lambda: experiments.translation_latency_ablation("171.swim",
                                                          ctx=ctx),
         lambda rows: report.render_ablation(
             rows, "cycles_per_instruction",
             "Translation latency sweep (171.swim)")),
    ]
    out = []
    for driver, renderer in sections:
        start = time.perf_counter()
        rows = driver()
        mid = time.perf_counter()
        out.append(renderer(rows) + "\n\n")
        if clock is not None:
            clock.add("experiments.drivers_s", mid - start)
            clock.add("report.render_s", time.perf_counter() - mid)
    return "".join(out)
