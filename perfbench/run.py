"""The repo benchmark: one command, three workloads, every metric named.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-eval --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Every pass runs in a fresh interpreter (``evalpass.py``) and
checks each simulated result against ``expected/``.  The last line of
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is non-zero when any request failed.
``--write-benchmark-json`` rewrites ``BENCHMARK.json`` from the metric
definitions below.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = [
    ("paper-eval", "repro evaluate --all request set, cold run cache "
                   "(timed: a sample matching the full set's kind shares "
                   "and latencies); the headline users run"),
    ("scalar-timing", "baseline and Liquid binaries on the no-SIMD "
                      "machine under four memory systems (timed: a "
                      "matching sample): timing model only"),
    ("warm-eval", "the paper-eval requests all answered by a filled run "
                  "cache: build, keys, cache read, rendering; no "
                  "simulation"),
]

#: (name, unit, better, bound) of every end-to-end metric.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("request_p50_ms", "ms", "lower", 0.25),
    ("request_p90_ms", "ms", "lower", 0.25),
    ("sim_kips", "kinstr/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

KINDS = ("baseline", "nosimd", "liquid", "pretranslate", "scaled",
         "ablation")
TRACE_COUNTS = ("translate.attempts", "translate.ok",
                "translate.observed_static", "codegen.compiles",
                "turbo.superblock.compiles", "macro.kernel.invocations",
                "macro.fallbacks", "machine.preloaded_fragments")
PROFILE_LAYERS = ("pipeline", "memory", "isa", "interp", "codegen",
                  "machine", "translate", "scalarize", "simd", "evaluation",
                  "numpy", "gen.superblock", "gen.sbtiming", "gen.macro",
                  "other")

#: (name, unit, better) of every per-layer metric (traced run only).
PER_LAYER = (
    [(name, "s", "lower") for name in
     ("kernels.build_s", "scalarize.build_s", "isa.encode_s",
      "runcache.key_s", "runcache.probe_s", "runcache.load_s",
      "runcache.store_s")]
    + [("runcache.hits", "count", "higher"),
       ("runcache.entry_bytes", "bytes", "lower")]
    + [(f"machine.run_s.{kind}", "s", "lower") for kind in KINDS]
    + [(f"machine.kips.{kind}", "kinstr/s", "higher") for kind in KINDS]
    + [("experiments.drivers_s", "s", "lower"),
       ("report.render_s", "s", "lower")]
    + [(f"trace.{name}", "count", "lower") for name in TRACE_COUNTS]
    + [(f"profile.self_s.{layer}", "s", "lower") for layer in PROFILE_LAYERS]
    + [("trace.overhead_ratio", "ratio", "lower")]
)

RUN_SECONDS = 30
#: Pass processes per untraced run, at least.
MIN_PASSES = 3
#: Set-ups per untraced run: each pass process, and set-up-only ones.
SETUPS = 5
#: Every run's passes end within this many seconds (children are
#: killed); the fill that first makes a checkout's result store, once,
#: within FILL_DEADLINE_S.
DEADLINE_S = 170.0
FILL_DEADLINE_S = 700.0


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def fingerprint() -> dict:
    """The machine and its load: compare runs only across equal ones."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


#: Fingerprint keys that must agree for two runs to be comparable.
FINGERPRINT_KEYS = ("cpu_count", "usable_cpus", "python", "numpy",
                    "platform", "machine")


def unlike_fingerprints(a: dict, b: dict) -> list:
    return [k for k in FINGERPRINT_KEYS if a.get(k) != b.get(k)]


class Runner:
    """Spawns pass processes for one run and collects their records."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.cache_dir = work / "cache"
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        # Anything the program would put under ~/.cache stays in here.
        self.env["REPRO_CACHE_DIR"] = str(work / "home-cache")
        self.env.pop("REPRO_CACHE_URL", None)

    def spawn(self, mode: str, passes_seconds: float = 0.0) -> dict:
        if mode == "fill":
            remaining = FILL_DEADLINE_S
        else:
            remaining = DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 5:
            raise TimeoutError("run out of time before the next pass")
        command = [sys.executable, str(HERE / "evalpass.py"),
                   "--workload", self.workload, "--seed", str(self.seed),
                   "--mode", mode, "--cache-dir", str(self.cache_dir),
                   "--work", str(self.work.parent),
                   "--passes-seconds", f"{passes_seconds:.3f}"]
        probe = hostspeed.probe()
        spawned = time.perf_counter()
        proc = subprocess.run(command, cwd=ROOT, env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=remaining)
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} pass exited {proc.returncode}:\n"
                               f"{proc.stderr[-4000:]}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        if "setup_done" in record:
            record["setup_s"] = (record["setup_done"] - spawned) * \
                hostspeed.scale(probe, record["setup_probe"])
        return record


def harrell_davis(values, q: float) -> float:
    """The Harrell-Davis estimate of the *q*-quantile of *values*.

    A weighted mean of every order statistic, with Beta(q(n+1),
    (1-q)(n+1)) weights, so that a p90 of a dozen requests does not
    rest on the two requests it falls between.  Each order statistic's
    weight is its slice of the Beta density, integrated by the midpoint
    rule.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64
    weights = []
    for i in range(n):
        weight = 0.0
        for j in range(steps):
            t = (i + (j + 0.5) / steps) / n
            weight += math.exp(log_norm + (a - 1.0) * math.log(t)
                               + (b - 1.0) * math.log1p(-t))
        weights.append(weight)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def _kips(instructions: float, seconds: float) -> float:
    return instructions / seconds / 1000.0 if seconds > 0 else 0.0


def merge_requests(records: list) -> dict:
    """label -> [kind, instructions, latencies, Machine.run seconds]."""
    merged = {}
    for record in records:
        for label, (kind, instructions, latencies, machine) in \
                record["requests"].items():
            entry = merged.setdefault(label, [kind, instructions, [], []])
            entry[2].extend(latencies)
            entry[3].extend(machine)
    return merged


def end_to_end(workload: str, plain: list, setups: list) -> tuple:
    """The end-to-end metrics of a run, in reference seconds.

    Every time is scaled by the host-speed probes around it
    (``hostspeed``).  Each request is taken at the median of its answers
    among the run's passes, and a pass is the sum of those plus the
    median rendering time.
    """
    merged = merge_requests(plain)
    best = {label: statistics.median(entry[2])
            for label, entry in merged.items()}
    rest = statistics.median(r for record in plain for r in record["rests"])
    latencies = [s * 1000.0 for s in best.values()]
    instructions = sum(entry[1] for entry in merged.values())
    if workload == "warm-eval":
        # Nothing is simulated: count the simulated instructions the
        # cache serves per host second of a pass.
        kips = _kips(instructions, sum(best.values()) + rest)
    else:
        kips = _kips(instructions, sum(statistics.median(entry[3])
                                       for entry in merged.values()))
    metrics = {
        "wall_s": sum(best.values()) + rest,
        "setup_s": statistics.median(setups),
        "request_p50_ms": harrell_davis(latencies, 0.50),
        "request_p90_ms": harrell_davis(latencies, 0.90),
        "sim_kips": kips,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    return (metrics, len(latencies), sum(len(r["walls"]) for r in plain),
            best)


def per_layer(workload: str, plain: dict, traced: dict,
              profiled: dict) -> dict:
    metrics = {}
    for name in ("kernels.build_s", "scalarize.build_s", "isa.encode_s"):
        metrics[name] = traced["layers"].get(name, 0.0)
    for name in ("runcache.key_s", "runcache.probe_s", "runcache.load_s",
                 "runcache.store_s", "experiments.drivers_s",
                 "report.render_s"):
        metrics[name] = plain["layers"].get(name, 0.0)
    for name in ("runcache.hits", "runcache.entry_bytes"):
        metrics[name] = plain["counts"].get(name, 0)
    for kind in KINDS:
        entries = [] if workload == "warm-eval" else [
            e for e in plain["requests"].values() if e[0] == kind]
        seconds = sum(e[3][0] for e in entries)
        metrics[f"machine.run_s.{kind}"] = seconds
        metrics[f"machine.kips.{kind}"] = _kips(sum(e[1] for e in entries),
                                                seconds)
    counters = traced["counters"] or {}

    def total(prefix: str) -> int:
        return sum(v for k, v in counters.items() if k.startswith(prefix))

    metrics["trace.translate.attempts"] = counters.get(
        "translate.attempts", 0)
    metrics["trace.translate.ok"] = counters.get("translate.ok", 0)
    metrics["trace.translate.observed_static"] = (
        traced["histograms"] or {}).get("translate.observed_static", 0)
    metrics["trace.codegen.compiles"] = total("codegen.compile.")
    metrics["trace.turbo.superblock.compiles"] = counters.get(
        "turbo.superblock.compiles", 0)
    metrics["trace.macro.kernel.invocations"] = counters.get(
        "macro.kernel.invocations", 0)
    metrics["trace.macro.fallbacks"] = total("macro.fallback.")
    metrics["trace.machine.preloaded_fragments"] = counters.get(
        "machine.preloaded_fragments", 0)
    for layer in PROFILE_LAYERS:
        metrics[f"profile.self_s.{layer}"] = profiled["profile"].get(
            layer, 0.0)
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced["walls"])
        / statistics.median(plain["walls"]))
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work: Path) -> dict:
    """One run: untimed fill, then the passes; returns the full record."""
    runner = Runner(workload, seed, work)
    load_before = os.getloadavg()
    fill = runner.spawn("fill")
    if fill["failed"]:
        raise RuntimeError("results differ from the expected digests: "
                           + ", ".join(fill["failed"]))
    runner.started = time.perf_counter()
    failed = []
    warm = workload == "warm-eval"
    measure_start = time.perf_counter()
    records = []
    setups = []
    if not trace:
        # Set-up alone, so that setup_s is a median of SETUPS.
        setups = [runner.spawn("setup")["setup_s"]
                  for _ in range(SETUPS - MIN_PASSES)]
    if trace:
        share = seconds / 4.0 if warm else 0.0
        for mode in ("plain", "telemetry", "profile"):
            records.append(runner.spawn(mode, share))
    elif warm:
        # Share what is left of --seconds; about 1 s of each process
        # goes to start-up and set-up.
        for left in range(MIN_PASSES, 0, -1):
            remaining = seconds - (time.perf_counter() - measure_start)
            records.append(runner.spawn("plain",
                                        max(remaining / left - 1.0, 0.0)))
    else:
        # Start another pass only while it should end within --seconds.
        pass_s = 0.0
        while (len(records) < MIN_PASSES
               or time.perf_counter() - measure_start + pass_s <= seconds):
            started = time.perf_counter()
            records.append(runner.spawn("plain"))
            pass_s = time.perf_counter() - started
    for record in records:
        failed.extend(record["failed"])
    plain = [r for r in records if r["mode"] == "plain"]
    setups += [r["setup_s"] for r in plain]
    e2e, samples, passes, request_s = end_to_end(workload, plain, setups)
    if trace:
        metrics = per_layer(workload, plain[0], records[1], records[2])
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        metrics = e2e
        units = {n: u for n, u, _, _ in END_TO_END}
    defaults = records[0]["defaults"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": not failed,
        "attempted": sum(r["attempted"] for r in records)
        + fill["attempted"],
        "failed": len(failed),
        "failed_requests": sorted(set(failed)),
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
        "latency_samples": samples,
        "request_s": request_s,
        "pass_walls": [w for r in plain for w in r["walls"]],
        "raw_pass_walls": [w for r in plain for w in r["raw_walls"]],
        "host_speed": hostspeed.REFERENCE_S / statistics.median(
            p for r in records for p in r["probes"]),
        "setups": setups,
        "passes": passes,
        "engines": sorted({e for r in records for e in r["engines"]}),
        "defaults": defaults,
        "fill_s": fill["fill_s"],
        "sample": fill["sample"],
        "fingerprint": fingerprint(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }


def _print_report(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {int(record['trace'])}: {record['passes']} passes of "
          f"{record['latency_samples']} requests, each request at its "
          f"median answer; times in reference seconds (hostspeed.py)")
    for name, metric in record["metrics"].items():
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    defaults = record["defaults"]
    print(f"  engine run: {', '.join(record['engines'])} (evaluate default "
          f"{defaults['evaluate']!r}, MachineConfig() default "
          f"{defaults['machine']!r})")
    if defaults["evaluate"] != defaults["machine"]:
        print("  WARNING: the evaluate CLI and MachineConfig() default "
              "engines disagree")
    for name, mix in record["sample"].items():
        shares = ", ".join(f"{kind} {share:.2f}"
                           for kind, share in mix["kind_shares"].items())
        print(f"  {name} set by the fill's request times: "
              f"{mix['requests']} requests over {mix['benchmarks']} "
              f"benchmarks, {mix['total_s']:.1f} s, p50 "
              f"{mix['p50_s']:.3f} s, p90 {mix['p90_s']:.3f} s; "
              f"time shares {shares}")
    print(f"  host speed {record['host_speed']:.3f} of the reference; "
          f"median raw pass {statistics.median(record['raw_pass_walls']):.4g}"
          f" s")
    print(f"  fingerprint: {json.dumps(record['fingerprint'])}")
    print(f"  load average before {record['loadavg_before']} after "
          f"{record['loadavg_after']}")
    print(f"  requests: {record['attempted']} attempted, "
          f"{record['failed']} failed")
    for name in record["failed_requests"]:
        print(f"  FAILED {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the full record (fingerprint, "
                             "engines, load) to this JSON file")
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    # On SIGTERM, unwind: subprocess.run kills the running pass process
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src' / 'repro'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2

    work_root = ROOT / ".bench_work"
    work = work_root / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        record = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), work)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _print_report(record)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
