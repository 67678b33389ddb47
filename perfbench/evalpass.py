"""One timed pass of a workload, run in a fresh interpreter.

``run.py`` starts this script once per pass, because every ``repro
evaluate`` pays program build and codegen compilation again.  It prints
one JSON record as its last line of output.  Modes:

* ``plain``: tracing off; the end-to-end numbers come from here.
* ``telemetry``: the program's own ``observability.telemetry`` counters
  on, plus separately timed program-build calls.
* ``profile``: the pass under cProfile, self time grouped by layer.
* ``setup``: set-up only, timed as in a pass.
* ``fill``: no pass.  Make the checkout's store of every result of both
  full request sets once, in whichever run comes first (simulated,
  digest-checked, timed), then stage the run cache a workload's passes
  read: everything for ``warm-eval``; everything but the timed sample
  for ``paper-eval``.  Untimed.

Layers are timed from outside, around the benchmark's own calls into
the program's public functions: a delegating wrapper around the
``RunCache`` given to the scheduler, a ``RunScheduler`` subclass that
times its public ``key_for``/``encoded_for``, and clocks around each
``EvalContext.run_request`` and each experiment driver and renderer.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import repro  # noqa: E402,F401  (import time is part of set-up)
from perfbench import expected, hostspeed, workloads  # noqa: E402
from perfbench.render import render_all  # noqa: E402
from repro.core.scalarize import (  # noqa: E402
    DEFAULT_MVL,
    build_baseline_program,
    build_liquid_program,
)
from repro.evaluation.runcache import RunCache  # noqa: E402
from repro.evaluation.runner import RunScheduler  # noqa: E402
from repro.isa.encoding import encode_program  # noqa: E402
from repro.kernels.suite import build_kernel  # noqa: E402

#: Timed layer clocks that are part of a request's latency but not of
#: its ``Machine.run``.
_NOT_MACHINE = ("runcache.key_s", "runcache.probe_s", "runcache.load_s",
                "runcache.store_s", "build.encoded_for_s")


class Clock:
    """Accumulates host seconds and counts under dotted names."""

    def __init__(self) -> None:
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] += seconds


class TimedCache:
    """Delegating wrapper that times the scheduler's run-cache calls."""

    def __init__(self, inner: RunCache, clock: Clock) -> None:
        self.inner = inner
        self.clock = clock
        self.stored = []

    def contains_many(self, keys):
        start = time.perf_counter()
        present = self.inner.contains_many(keys)
        self.clock.add("runcache.probe_s", time.perf_counter() - start)
        return present

    def load(self, key):
        start = time.perf_counter()
        result = self.inner.load(key)
        self.clock.add("runcache.load_s", time.perf_counter() - start)
        if result is not None:
            self.clock.counts["runcache.hits"] += 1
            self.clock.counts["runcache.entry_bytes"] += \
                self.inner.path_for(key).stat().st_size
        return result

    def store(self, key, result):
        start = time.perf_counter()
        self.inner.store(key, result)
        self.clock.add("runcache.store_s", time.perf_counter() - start)
        self.stored.append(key)
        self.clock.counts["runcache.entry_bytes"] += \
            self.inner.path_for(key).stat().st_size

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TimedScheduler(RunScheduler):
    """Times key hashing apart from the program build/encode under it."""

    clock: Clock = None

    def encoded_for(self, request):
        start = time.perf_counter()
        encoded = super().encoded_for(request)
        self.clock.add("build.encoded_for_s", time.perf_counter() - start)
        return encoded

    def key_for(self, request):
        start = time.perf_counter()
        build_before = self.clock.seconds["build.encoded_for_s"]
        key = super().key_for(request)
        build = self.clock.seconds["build.encoded_for_s"] - build_before
        self.clock.add("runcache.key_s", time.perf_counter() - start - build)
        return key


def _new_scheduler(cache_dir, clock: Clock) -> TimedScheduler:
    scheduler = TimedScheduler(jobs=1)
    scheduler.clock = clock
    if cache_dir is not None:
        scheduler.cache = TimedCache(RunCache(cache_dir), clock)
    return scheduler


def _timed_program_build(requests, clock: Clock) -> None:
    """Build and encode each program once through the layer functions."""
    seen = set()
    for request in requests:
        if request.program_id in seen:
            continue
        seen.add(request.program_id)
        start = time.perf_counter()
        kernel = build_kernel(request.benchmark)
        kernel.repeats *= request.repeat_factor
        built = time.perf_counter()
        build = (build_baseline_program if request.program_kind == "baseline"
                 else build_liquid_program)
        program = build(kernel, DEFAULT_MVL)
        scalarized = time.perf_counter()
        encode_program(program)
        clock.add("kernels.build_s", built - start)
        clock.add("scalarize.build_s", scalarized - built)
        clock.add("isa.encode_s", time.perf_counter() - scalarized)


# -- fill -------------------------------------------------------------------


def _source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _fill(workload: str, seed: int, cache_dir: Path, work: Path) -> dict:
    """Make the result store once per source tree; stage *cache_dir*.

    The store holds every request of both full request sets, each
    simulated once in canonical order, digest-checked and timed; the
    times (``costs.json``) show how the timed sample compares with the
    full set it stands for.
    """
    store = work / f"store-{_source_hash()}"
    scheduler = RunScheduler(jobs=1)
    attempted = 0
    start = time.perf_counter()
    if not store.is_dir():
        building = work / f"store-building-{os.getpid()}"
        shutil.rmtree(building, ignore_errors=True)
        filler = RunScheduler(jobs=1, cache=RunCache(building))
        digests = expected.load_digests()
        costs: dict = {}
        failed = []
        for name in ("paper-eval", "scalar-timing"):
            costs[name] = {}
            for request in workloads.workload_requests(name):
                label = workloads.label(request)
                t0 = time.perf_counter()
                result = filler.run(request)
                costs[name][label] = time.perf_counter() - t0
                attempted += 1
                if expected.digest(result) != digests[name][label]["digest"]:
                    failed.append(label)
        # A request both sets share is simulated once, by paper-eval.
        for label, seconds in costs["paper-eval"].items():
            if label in costs["scalar-timing"]:
                costs["scalar-timing"][label] = seconds
        if failed:
            shutil.rmtree(building, ignore_errors=True)
            return {"attempted": attempted, "failed": failed}
        (building / "costs.json").write_text(json.dumps(costs))
        try:
            building.rename(store)
        except OSError:           # another run finished the store first
            shutil.rmtree(building, ignore_errors=True)
    fill_s = time.perf_counter() - start
    record = {"attempted": attempted, "failed": [], "fill_s": fill_s,
              "sample": _sample_report(
                  workload, seed,
                  json.loads((store / "costs.json").read_text()))}
    if workload == "scalar-timing":       # uses no run cache
        return record
    skip = set()
    if workload == "paper-eval":
        skip = set(workloads.timed_sample(workload, seed))
    source, staged = RunCache(store), RunCache(cache_dir)
    for request in workloads.workload_requests("paper-eval"):
        if request in skip:
            continue
        key = scheduler.key_for(request)
        target = staged.path_for(key)
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(source.path_for(key), target)
    return record


def _sample_report(workload: str, seed: int, costs: dict) -> dict:
    """The timed sample beside the full set, by the fill's request times:
    total seconds, request count, p50/p90 and each kind's share of time."""
    if workload == "warm-eval":
        return {}
    full = workloads.workload_requests(workload)
    sample = workloads.timed_sample(workload, seed)

    def describe(requests):
        seconds = [costs[workload][workloads.label(r)] for r in requests]
        total = sum(seconds)
        shares = defaultdict(float)
        for request, s in zip(requests, seconds):
            shares[workloads.kind_of(request)] += s / total
        cuts = statistics.quantiles(seconds, n=10, method="inclusive")
        return {"requests": len(seconds), "total_s": total,
                "p50_s": statistics.median(seconds), "p90_s": cuts[-1],
                "kind_shares": dict(sorted(shares.items())),
                "benchmarks": len({r.benchmark for r in requests})}

    return {"full": describe(full), "sample": describe(sample)}


# -- one pass ---------------------------------------------------------------


def _one_pass(workload, requests, ctx, clock):
    """Answer *requests* in order, then render.

    Returns ``(records, render_s, tables, probes)``.  Host-speed probes
    (``hostspeed``) run before the first request and after the
    rendering and, on a cold workload, after each request too; each
    record ``(request, result, elapsed, machine_s, k)`` and the
    rendering lie between ``probes[k]`` and ``probes[k + 1]``.  A
    request that raises is recorded with result None (a failed
    request); the pass goes on.
    """
    cold = workload != "warm-eval"
    records = []
    probes = [hostspeed.probe()]
    for request in requests:
        before = {name: clock.seconds[name] for name in _NOT_MACHINE}
        t0 = time.perf_counter()
        try:
            result = ctx.run_request(request)
        except Exception:
            traceback.print_exc()
            result = None
        elapsed = time.perf_counter() - t0
        outside = sum(clock.seconds[name] - before[name]
                      for name in _NOT_MACHINE)
        records.append((request, result, elapsed, elapsed - outside,
                        len(probes) - 1))
        if cold:
            probes.append(hostspeed.probe())
    tables = None
    render_s = 0.0
    if workload != "scalar-timing":
        t0 = time.perf_counter()
        try:
            tables = render_all(ctx, clock)
        except Exception:
            traceback.print_exc()
        render_s = time.perf_counter() - t0
    probes.append(hostspeed.probe())
    return records, render_s, tables, probes


def _check(records, digests) -> list:
    """Labels of requests that raised or whose digest differs from the
    expected one."""
    failed = []
    for request, result, _, _, _ in records:
        name = workloads.label(request)
        if result is None or (expected.digest(result)
                              != digests.get(name, {}).get("digest")):
            failed.append(name)
    return failed


# -- profile grouping ---------------------------------------------------------


_PACKAGE_LAYERS = ("pipeline", "memory", "isa", "interp", "codegen", "simd",
                   "evaluation")


def layer_of(filename: str) -> str:
    """The layer a profiled function's file belongs to."""
    if filename.startswith("<"):
        # Generated closures: codegen.emit's "<kind:label@entry>" names.
        kind = filename[1:].split(":", 1)[0]
        if kind in ("superblock", "sbtiming"):
            return "gen." + kind
        return "gen.macro" if kind.startswith("macro") else "other"
    path = filename.replace(os.sep, "/")
    if "/numpy/" in path:
        return "numpy"
    if "/src/repro/" not in path:
        return "other"
    rel = path.split("/src/repro/", 1)[1]
    if rel.startswith("core/translate/"):
        return "translate"
    if rel.startswith("core/scalarize/"):
        return "scalarize"
    if rel.startswith("system/"):
        return "machine"
    top = rel.split("/", 1)[0]
    return top if top in _PACKAGE_LAYERS else "other"


def _profile_self_seconds(profiler) -> dict:
    import pstats
    layers = defaultdict(float)
    for (filename, _, _), row in pstats.Stats(profiler).stats.items():
        if filename == hostspeed.__file__:        # the benchmark's own probe
            continue
        layers[layer_of(filename)] += row[2]      # tottime = self seconds
    return dict(layers)


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("plain", "telemetry", "profile", "fill",
                                 "setup"))
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--passes-seconds", type=float, default=0.0,
                        help="repeat in-process passes this long "
                             "(warm-eval); at least one pass runs")
    args = parser.parse_args(argv)
    cache_dir = Path(args.cache_dir)
    if args.mode == "fill":
        print(json.dumps(_fill(args.workload, args.seed, cache_dir,
                               Path(args.work))))
        return 0

    cold = args.workload != "warm-eval"
    uses_cache = args.workload != "scalar-timing"
    clock = Clock()
    requests = workloads.timed_sample(args.workload, args.seed)
    needed = (workloads.workload_requests(args.workload) if uses_cache
              else requests)
    digests = expected.load_digests()[args.workload]
    want_tables = expected.load_tables() if uses_cache else None

    # Set-up: build and encode every program the workload needs.
    if args.mode == "telemetry":
        _timed_program_build(needed, clock)
    scheduler = _new_scheduler(cache_dir if uses_cache else None, Clock())
    for request in needed:
        scheduler.encoded_for(request)
    setup_done = time.perf_counter()
    setup_probe = hostspeed.probe()
    scheduler.clock = clock
    if uses_cache:
        scheduler.cache.clock = clock

    if args.mode == "setup":
        print(json.dumps({"mode": "setup", "setup_done": setup_done,
                          "setup_probe": setup_probe}))
        return 0

    tel = profiler = None
    if args.mode == "telemetry":
        from repro.observability import telemetry
        tel = telemetry.enable()
    elif args.mode == "profile":
        import cProfile
        profiler = cProfile.Profile()

    # Each pass starts from a collected heap holding no earlier pass's
    # results, as a fresh ``repro evaluate`` process would: otherwise a
    # full garbage collection lands in some passes and not in others.
    # Every answer counts as attempted, and every exception or digest
    # mismatch as failed.
    # Times are kept in reference seconds (``hostspeed``), and raw.
    walls, raw_walls, rests, probes_seen, failed = [], [], [], [], []
    #: label -> [kind, instructions, latencies, Machine.run seconds]
    per_request = {}
    deadline = time.perf_counter() + args.passes_seconds
    while True:
        ctx = records = None
        if not cold:
            # A fresh scheduler per warm pass, so it pays program build,
            # encode and key hashing as evaluate does.
            scheduler = _new_scheduler(cache_dir, clock)
        gc.collect()
        ctx = workloads.make_context(scheduler)
        if profiler is not None:
            profiler.enable()
        records, render_s, tables, probes = _one_pass(
            args.workload, requests, ctx, clock)
        if profiler is not None:
            profiler.disable()
        scales = [hostspeed.scale(a, b) for a, b in zip(probes, probes[1:])]
        for request, result, elapsed, machine_s, k in records:
            entry = per_request.setdefault(workloads.label(request), [
                workloads.kind_of(request),
                result.instructions if result is not None else 0, [], []])
            entry[2].append(elapsed * scales[k])
            entry[3].append(machine_s * scales[k])
        rests.append(render_s * scales[-1])
        walls.append(sum(r[2] * scales[r[4]] for r in records) + rests[-1])
        raw_walls.append(sum(r[2] for r in records) + render_s)
        probes_seen.extend(probes)
        if uses_cache and tables != want_tables:
            failed.append("<tables>")
        failed.extend(_check(records, digests))
        if cold or time.perf_counter() >= deadline:
            break

    counters = histograms = profile = None
    if profiler is not None:
        profile = _profile_self_seconds(profiler)
    if tel is not None:
        snapshot = tel.to_dict()
        counters = snapshot["counters"]
        histograms = {name: h["total"]
                      for name, h in snapshot["histograms"].items()}
        from repro.observability import telemetry
        telemetry.disable()

    if uses_cache:
        # Leave the staged cache as the fill made it, for the next pass.
        for key in scheduler.cache.stored:
            scheduler.cache.inner.path_for(key).unlink(missing_ok=True)

    n = len(walls)
    record = {
        "mode": args.mode,
        "setup_done": setup_done,
        "setup_probe": setup_probe,
        "walls": walls,
        "raw_walls": raw_walls,
        "rests": rests,
        "probes": probes_seen,
        "requests": per_request,
        "attempted": n * (len(requests) + uses_cache),
        "failed": failed,
        "layers": {k: v / n for k, v in clock.seconds.items()},
        "counts": {k: v / n for k, v in clock.counts.items()},
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counters": counters,
        "histograms": histograms,
        "profile": profile,
        "engines": sorted({r.config.engine for r in requests}),
        "defaults": {"evaluate": workloads.evaluate_defaults()[0],
                     "machine": workloads.machine_default_engine()},
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
