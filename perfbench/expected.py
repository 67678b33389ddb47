"""Expected results: per-request digests and the rendered tables.

A request's digest is the SHA-256 of its telemetry-stripped
``RunResult.to_dict()`` as canonical JSON: cycles, pipeline and cache
stats, final arrays, translation verdicts and microcode bytes.  The
committed files under ``perfbench/expected/`` were made once with the
``reference`` engine by ``python3 perfbench/expected.py``; the README
says when regenerating them is legitimate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import sys
import time
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_DIR = HERE / "expected"
DIGESTS = EXPECTED_DIR / "digests.json"
TABLES = EXPECTED_DIR / "tables.txt"


def digest(result) -> str:
    wire = result.to_dict()
    wire.pop("telemetry", None)
    blob = json.dumps(wire, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_digests() -> Dict[str, Dict[str, dict]]:
    """``{workload: {label: {"digest", "instructions"}}}``; ``warm-eval``
    shares the ``paper-eval`` entries."""
    table = json.loads(DIGESTS.read_text())
    table["warm-eval"] = table["paper-eval"]
    return table


def load_tables() -> str:
    return TABLES.read_text()


def regenerate() -> None:
    """Simulate every request with the reference engine; rewrite files."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads
    from perfbench.render import render_all
    from repro.evaluation.runcache import RunCache
    from repro.evaluation.runner import RunScheduler, execute_request

    work = ROOT / ".bench_work" / "regenerate"
    shutil.rmtree(work, ignore_errors=True)
    cache = RunCache(work)
    scheduler = RunScheduler(jobs=1)
    digests: Dict[str, Dict[str, dict]] = {}
    for workload in ("paper-eval", "scalar-timing"):
        table: Dict[str, dict] = {}
        for request in workloads.workload_requests(workload):
            pinned = dataclasses.replace(
                request, config=dataclasses.replace(request.config,
                                                    engine="reference"))
            start = time.perf_counter()
            result = execute_request(pinned)
            name = workloads.label(request)
            table[name] = {"digest": digest(result),
                           "instructions": result.instructions}
            if workload == "paper-eval":
                cache.store(scheduler.key_for(request), result)
            print(f"{workload} {name} "
                  f"{time.perf_counter() - start:.2f}s", flush=True)
        digests[workload] = table
    EXPECTED_DIR.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")

    # Tables through the program's own drivers and renderers, with
    # every request answered from the reference results just stored.
    ctx = workloads.make_context(RunScheduler(jobs=1, cache=cache))
    ctx.prefetch(workloads.paper_eval_requests(ctx))
    tables = render_all(ctx)
    if ctx.scheduler.stats.executed:
        raise RuntimeError("tables needed runs the reference pass missed")
    TABLES.write_text(tables)
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    regenerate()
