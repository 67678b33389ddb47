"""E7 — microcode cache sizing sweep, plus the persistent-store arm.

Paper: "supporting eight or more SIMD code sequences (i.e., hot loops)
in the control cache is sufficient to capture the working set in all of
the benchmarks", giving the 8 x 64 x 32-bit = 2 KB control cache.

The sweep runs the benchmark with the most distinct hot loops (LU has
four elimination loops) and FFT through caches of 1..16 entries.

The second half measures the *persistent* fragment store
(docs/retranslation.md): the warm-over-cold sweep speedup, emitted as
``BENCH_fragstore.json``.
"""

import time

from repro.core.scalarize import build_liquid_program
from repro.core.translate.fragstore import FragmentStore
from repro.evaluation.crosswidth import (
    retranslate_at_width,
    translate_at_width,
)
from repro.evaluation.experiments import ucode_cache_ablation
from repro.evaluation.report import render_ablation
from repro.kernels.suite import build_kernel
from repro.simd.accelerator import config_for_width
from repro.system.machine import MachineConfig


def test_ucode_cache_capacity_lu(benchmark):
    rows = benchmark.pedantic(ucode_cache_ablation,
                              args=("LU", 8, (1, 2, 4, 8, 16)),
                              rounds=1, iterations=1)
    print("\n" + render_ablation(rows, "entries",
                                 "Microcode cache sweep (LU, 4 hot loops)"))
    by_entries = {r["entries"]: r for r in rows}
    # A too-small cache thrashes: with 4 hot loops in round-robin, a
    # 1-entry cache evicts before reuse.
    assert by_entries[1]["evictions"] > 0
    # 8 entries capture the working set with room to spare (paper claim).
    assert by_entries[8]["evictions"] == 0
    assert by_entries[8]["simd_run_fraction"] > 0.8
    # No benefit beyond the working set.
    assert by_entries[16]["cycles"] == by_entries[8]["cycles"]
    # Cycles never increase with a bigger cache.
    cycles = [by_entries[n]["cycles"] for n in (1, 2, 4, 8, 16)]
    assert all(a >= b for a, b in zip(cycles, cycles[1:]))


def test_ucode_cache_capacity_fft(benchmark):
    rows = benchmark.pedantic(ucode_cache_ablation,
                              args=("FFT", 8, (1, 2, 8)),
                              rounds=1, iterations=1)
    print("\n" + render_ablation(rows, "entries",
                                 "Microcode cache sweep (FFT)"))
    by_entries = {r["entries"]: r for r in rows}
    assert by_entries[8]["evictions"] == 0
    assert by_entries[8]["simd_run_fraction"] > 0.7


# ---------------------------------------------------------------------------
# Persistent fragment-store ablation (docs/retranslation.md)
# ---------------------------------------------------------------------------

_SWEEP_BENCHES = ("FIR", "FFT", "LU")  # 2 + 3 + 8 = 13 store entries
_SOURCE_WIDTH, _TARGET_WIDTH = 4, 8


def _sweep(store: FragmentStore, benches=_SWEEP_BENCHES) -> None:
    """Translate at W, retranslate to 2W, all through the store."""
    target_tcfg = MachineConfig(
        accelerator=config_for_width(_TARGET_WIDTH)).translator_config()
    for bench in benches:
        program = build_liquid_program(build_kernel(bench))
        config = MachineConfig(accelerator=config_for_width(_SOURCE_WIDTH),
                               engine="fast")
        translations = translate_at_width(program, config, store)
        entries = [t.entry for t in translations.values()
                   if t.ok and t.entry is not None]
        retranslate_at_width(entries, _TARGET_WIDTH, target_tcfg, store)


def test_fragstore_warm_over_cold(benchmark, tmp_path,
                                  fragstore_bench_records):
    def run():
        store = FragmentStore(tmp_path / "fragments")
        t0 = time.perf_counter()
        _sweep(store)
        cold = time.perf_counter() - t0
        cold_stores = store.stats.stores
        t0 = time.perf_counter()
        _sweep(store)
        warm = time.perf_counter() - t0
        return {
            "benches": list(_SWEEP_BENCHES),
            "from_width": _SOURCE_WIDTH,
            "to_width": _TARGET_WIDTH,
            "entries": cold_stores,
            "warm_hits": store.stats.hits,
            "cold_seconds": cold,
            "warm_seconds": warm,
            "speedup": cold / warm,
        }

    record = benchmark.pedantic(run, rounds=1, iterations=1)
    fragstore_bench_records["fragstore_warm_over_cold"] = record
    print(f"\nFragment store (w{_SOURCE_WIDTH} -> w{_TARGET_WIDTH}): "
          f"{record['entries']} entries, warm {record['warm_hits']} hits, "
          f"{record['speedup']:.2f}x warm over cold")

    # The warm sweep is pure hits — no machine re-runs.
    assert record["warm_hits"] == record["entries"]
    assert record["speedup"] > 1.0
