"""Cross-width retranslation orchestration and differential verdicts.

This module ties the tentpole pieces together for the CLI
(``repro retranslate``) and the conformance suite
(``tests/test_crosswidth_differential.py``):

1. translate a benchmark's Liquid binary at a **source** width ``W``
   (or pull the translations from the persistent fragment store),
2. re-lower every successful entry to a **target** width ``T`` with
   :func:`~repro.core.translate.retranslate.retranslate_entry`
   (store-backed as well, keyed by the source fragment's bytes),
3. run the benchmark at ``T`` twice per engine — once translating
   fresh at runtime, once with the retranslated fragments *preloaded*
   into the microcode cache — and compare against each other and
   against the reference engine.

The verdict is **array-based**, not fragment-byte-based, on purpose: a
fresh translation at ``2W`` may legitimately differ in form from a
retranslation (it can materialize a lane constant the retranslation
keeps in register form, or cap at a smaller effective width), but both
must compute exactly the same memory image.  Functions whose
retranslation is rejected simply translate at runtime in the preloaded
run — the same fallback the translator's own abort path guarantees.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.scalarize import build_liquid_program
from repro.core.translate.fragstore import FragmentStore, fragment_key
from repro.core.translate.retranslate import (
    RetranslationResult,
    retranslate_entry,
)
from repro.core.translate.translator import TranslationResult
from repro.core.translate.ucode_cache import MicrocodeEntry
from repro.isa.encoding import encode_program
from repro.isa.program import Program
from repro.kernels.suite import build_kernel
from repro.simd.accelerator import config_for_width
from repro.system.machine import Machine, MachineConfig
from repro.system.metrics import arrays_equal

#: Engine sweep order for differential verdicts (reference first: it is
#: the oracle the other engines are compared against).
ENGINE_ORDER = ("reference", "fast", "turbo", "macro")


def translate_at_width(program: Program, config: MachineConfig,
                       store: Optional[FragmentStore] = None,
                       ) -> Dict[str, TranslationResult]:
    """Translation results for every outlined function of *program*.

    With a *store*, results are content-addressed by the encoded scalar
    program + function + ``(W, W)`` + translator fingerprint; when every
    outlined function hits, **no machine run happens at all** — the
    warm path the fragment store exists for.  Misses fall back to
    one scout run whose results are then persisted (aborts too: a loop
    the translator rejects once is rejected forever under that config).
    """
    tcfg = config.translator_config()
    width = config.accelerator.width
    keys: Dict[str, str] = {}
    if store is not None:
        source = encode_program(program)
        results: Dict[str, TranslationResult] = {}
        for function in program.outlined_functions:
            keys[function] = fragment_key(source, width, width, tcfg,
                                          function=function)
            payload = store.load(keys[function])
            if payload is not None:
                results[function] = TranslationResult.from_dict(payload)
        if len(results) == len(program.outlined_functions):
            return results
    run = Machine(config).run(program)
    results = {t.function: t for t in run.translations}
    if store is not None:
        for function, result in results.items():
            if function in keys:
                store.store(keys[function], result.to_dict())
    return results


def retranslate_at_width(entries: Iterable[MicrocodeEntry],
                         target_width: int, target_config,
                         store: Optional[FragmentStore] = None,
                         ) -> Dict[str, RetranslationResult]:
    """Re-lower *entries* to *target_width*, store-backed when possible.

    Retranslations are keyed by the **source fragment's** canonical
    bytes (plus source/target widths and the target translator
    fingerprint), so the same entry retranslated by any process sharing
    the store hits the same slot.
    """
    results: Dict[str, RetranslationResult] = {}
    for entry in entries:
        key = None
        if store is not None:
            key = fragment_key(entry.encoded_bytes(), entry.width,
                               target_width, target_config,
                               function=entry.function)
            payload = store.load(key)
            if payload is not None:
                results[entry.function] = \
                    RetranslationResult.from_dict(payload)
                continue
        result = retranslate_entry(entry, target_width, target_config)
        if key is not None:
            store.store(key, result.to_dict())
        results[entry.function] = result
    return results


def crosswidth_differential(benchmark: str, from_width: int, to_width: int,
                            engines: Sequence[str] = ENGINE_ORDER,
                            store: Optional[FragmentStore] = None,
                            source_engine: str = "fast") -> dict:
    """The cross-width differential verdict for one benchmark.

    Returns a JSON-safe report; ``report["ok"]`` holds exactly when, on
    every requested engine, the preloaded-retranslation run is
    element-for-element identical to the fresh-translation run *and* to
    the reference engine, and every preloaded function actually executed
    its microcode (``simd_runs > 0`` with no scalar fallback runs beyond
    the injected first call — preloads are ready at cycle 0, so there
    are none).
    """
    program = build_liquid_program(build_kernel(benchmark))
    source_config = MachineConfig(
        accelerator=config_for_width(from_width), engine=source_engine)
    translations = translate_at_width(program, source_config, store)
    target_machine_config = MachineConfig(
        accelerator=config_for_width(to_width))
    target_tcfg = target_machine_config.translator_config()
    retranslations = retranslate_at_width(
        [t.entry for t in translations.values()
         if t.ok and t.entry is not None],
        to_width, target_tcfg, store)
    preload: List[MicrocodeEntry] = [
        r.entry for r in retranslations.values()
        if r.ok and r.entry is not None]

    functions = {}
    for function in program.outlined_functions:
        translation = translations.get(function)
        retrans = retranslations.get(function)
        functions[function] = {
            "source_ok": bool(translation is not None and translation.ok),
            "source_reason": (
                translation.reason.value
                if translation is not None and translation.reason is not None
                else None),
            "retranslate_ok": bool(retrans is not None and retrans.ok),
            "retranslate_reason": (
                retrans.reason.value
                if retrans is not None and retrans.reason is not None
                else None),
        }
    preloaded_functions = sorted(entry.function for entry in preload)

    def run(engine: str, preloaded):
        config = MachineConfig(accelerator=config_for_width(to_width),
                               engine=engine)
        return Machine(config, preloaded_microcode=preloaded).run(program)

    reference_fresh = None
    per_engine = {}
    ok = True
    for engine in engines:
        fresh = run(engine, None)
        if engine == "reference":
            reference_fresh = fresh
        retr = run(engine, preload)
        if reference_fresh is None:
            # "reference" not in the sweep: oracle it explicitly.
            reference_fresh = run("reference", None)
        microcode_ran = all(
            retr.functions[fn].simd_runs > 0
            and retr.functions[fn].scalar_runs == 0
            for fn in preloaded_functions)
        report = {
            "arrays_match_fresh": arrays_equal(retr, fresh),
            "arrays_match_reference": arrays_equal(retr, reference_fresh),
            "microcode_ran": microcode_ran,
            "cycles_fresh": fresh.cycles,
            "cycles_retranslated": retr.cycles,
        }
        ok = ok and report["arrays_match_fresh"] \
            and report["arrays_match_reference"] and microcode_ran
        per_engine[engine] = report

    return {
        "benchmark": benchmark,
        "from_width": from_width,
        "to_width": to_width,
        "functions": functions,
        "preloaded": preloaded_functions,
        "engines": per_engine,
        "ok": ok,
    }
