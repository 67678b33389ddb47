"""Request sets of the three benchmark workloads, and their labels.

Everything here is built from the program's public API only, so the
benchmark keeps working while the program's internals change:

* ``paper-eval`` / ``warm-eval``: the deduplicated union of the
  ``*_requests`` declarations of every experiment ``repro evaluate
  --all`` runs, under the ``evaluate`` CLI parser's default engine.
* ``scalar-timing``: the 15 baseline and 15 Liquid binaries on the
  no-SIMD machine under four memory systems, under the
  ``MachineConfig()`` default engine.

Every request gets a stable, human-readable label (benchmark, program
kind, machine, non-default knobs); expected digests are keyed by it.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Tuple

from repro.evaluation import experiments
from repro.evaluation.cli import build_parser
from repro.evaluation.runner import RunRequest
from repro.kernels.suite import BENCHMARK_ORDER
from repro.memory.cache import CacheConfig
from repro.pipeline.core import PipelineConfig
from repro.system.machine import MachineConfig

WORKLOADS = ("paper-eval", "scalar-timing", "warm-eval")

#: Memory systems of ``scalar-timing`` (name -> pipeline config).
MEMORY_SYSTEMS: Dict[str, PipelineConfig] = {
    "default": PipelineConfig(),
    "ideal": PipelineConfig(icache=CacheConfig(miss_penalty=0),
                            dcache=CacheConfig(miss_penalty=0)),
    "slow": PipelineConfig(icache=CacheConfig(miss_penalty=100),
                           dcache=CacheConfig(miss_penalty=100)),
    "small": PipelineConfig(icache=CacheConfig(size_bytes=4 * 1024),
                            dcache=CacheConfig(size_bytes=4 * 1024)),
}


def evaluate_defaults() -> Tuple[str, str]:
    """(engine, ucache benchmark) that ``repro evaluate`` uses by default."""
    args = build_parser().parse_args([])
    return args.engine, args.ucache_benchmark


def machine_default_engine() -> str:
    return MachineConfig().engine


def make_context(scheduler=None) -> experiments.EvalContext:
    """An all-benchmark context under the ``evaluate`` default engine."""
    engine, _ = evaluate_defaults()
    return experiments.EvalContext(BENCHMARK_ORDER, engine=engine,
                                   scheduler=scheduler)


def paper_eval_requests(ctx: experiments.EvalContext) -> List[RunRequest]:
    """The deduplicated request set of ``repro evaluate --all``."""
    _, ucache_benchmark = evaluate_defaults()
    requests = (experiments.table6_requests(ctx)
                + experiments.figure6_requests(ctx)
                + experiments.native_overhead_requests(ctx)
                + experiments.ucode_cache_ablation_requests(
                    ctx, ucache_benchmark)
                + experiments.software_translation_requests(ctx)
                + experiments.translation_latency_requests(ctx))
    return list(dict.fromkeys(requests))


def scalar_timing_requests() -> List[RunRequest]:
    """Baseline and Liquid binaries on the no-SIMD machine, 4 memories."""
    requests = []
    for memory, pipeline in MEMORY_SYSTEMS.items():
        config = MachineConfig(pipeline=pipeline)
        for benchmark in BENCHMARK_ORDER:
            for program_kind in ("baseline", "liquid"):
                requests.append(RunRequest(benchmark, program_kind, config))
    return requests


def kind_of(request: RunRequest) -> str:
    """Which ``machine.run_s.<kind>`` bucket (``run.KINDS``) a request
    belongs to."""
    config = request.config
    if request.program_kind == "baseline":
        return "baseline"
    if config.accelerator is None:
        return "nosimd"
    if config.pretranslate:
        return "pretranslate"
    if request.repeat_factor != 1:
        return "scaled"
    plain = MachineConfig(accelerator=config.accelerator,
                          pipeline=config.pipeline, engine=config.engine)
    return "liquid" if config == plain else "ablation"


def _memory_label(pipeline: PipelineConfig) -> str:
    for name, candidate in MEMORY_SYSTEMS.items():
        if pipeline == candidate:
            return name
    return repr(pipeline)


def label(request: RunRequest) -> str:
    """Stable engine-independent name of a request, e.g.
    ``FFT/liquid/w8/x1/default/ucode_cache_entries=4``."""
    config = request.config
    default = MachineConfig()
    machine = (f"w{config.accelerator.width}"
               if config.accelerator is not None else "nosimd")
    parts = [request.benchmark, request.program_kind, machine,
             f"x{request.repeat_factor}", _memory_label(config.pipeline)]
    for field in dataclasses.fields(MachineConfig):
        if field.name in ("accelerator", "pipeline", "engine"):
            continue
        value = getattr(config, field.name)
        if value != getattr(default, field.name):
            parts.append(f"{field.name}={value}")
    return "/".join(parts)


def workload_requests(workload: str) -> List[RunRequest]:
    """Every request *workload* can draw, in canonical order."""
    if workload == "scalar-timing":
        return scalar_timing_requests()
    return paper_eval_requests(make_context())


#: The requests a pass of a cold workload answers, by label.  The whole
#: sets take 90-100 s under the ``fast`` engine, too long for a run, so
#: a fixed sample stands for each.  It was chosen from the full set's
#: per-request times so that it matches the set's share of time per
#: request kind (``kind_of``) and its latency quartiles and p90, from
#: as many benchmarks as fit (12 and 10 of 15); ``paper-eval`` keeps
#: one run of each ablation (microcode cache, software translation,
#: translation latency) and ``scalar-timing`` every memory system.
#: Every run prints the comparison by the times its fill measured.
TIMED_SAMPLE = {
    "paper-eval": (
        "052.alvinn/liquid/w16/x2/default/pretranslate=True",
        "056.ear/liquid/w16/x1/default",
        "093.nasa7/baseline/nosimd/x1/default",
        "101.tomcatv/liquid/w16/x2/default",
        "171.swim/liquid/w8/x1/default/"
        "translation_cycles_per_instruction=10",
        "172.mgrid/liquid/w8/x1/default",
        "179.art/liquid/w16/x1/default",
        "MPEG2 Dec./liquid/w8/x1/default/translation_mode=software",
        "GSM Dec./liquid/w8/x1/default",
        "GSM Enc./liquid/w16/x1/default/pretranslate=True",
        "GSM Enc./liquid/w16/x2/default/pretranslate=True",
        "LU/liquid/w8/x1/default/ucode_cache_entries=4",
        "FFT/baseline/nosimd/x1/default",
    ),
    "scalar-timing": (
        "052.alvinn/baseline/nosimd/x1/small",
        "056.ear/liquid/nosimd/x1/default",
        "101.tomcatv/baseline/nosimd/x1/slow",
        "171.swim/baseline/nosimd/x1/ideal",
        "172.mgrid/liquid/nosimd/x1/ideal",
        "MPEG2 Dec./liquid/nosimd/x1/default",
        "GSM Enc./baseline/nosimd/x1/slow",
        "LU/baseline/nosimd/x1/ideal",
        "FIR/liquid/nosimd/x1/slow",
        "FFT/liquid/nosimd/x1/slow",
    ),
}


def timed_sample(workload: str, seed: int) -> List[RunRequest]:
    """The requests one timed pass answers, in the seed's order.

    ``warm-eval`` answers every request, a cold workload its
    :data:`TIMED_SAMPLE`.  The set is the same for every seed, so that
    seeds compare like with like; the seed sets the order.
    """
    requests = workload_requests(workload)
    if workload != "warm-eval":
        wanted = set(TIMED_SAMPLE[workload])
        requests = [r for r in requests if label(r) in wanted]
        if len(requests) != len(wanted):
            missing = wanted - {label(r) for r in requests}
            raise ValueError(f"{workload} has no request {sorted(missing)}")
    random.Random(seed).shuffle(requests)
    return requests
