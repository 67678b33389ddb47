"""Shared state for the benchmark harness.

The :class:`EvalContext` memoizes machine runs, so experiments that need
the same simulations (Figure 6, Table 6, the overhead callout) share
them across benchmark modules instead of re-simulating.  The context
rides a :class:`RunScheduler` backed by the persistent run cache
(docs/evaluation-runner.md), so a benchmark session that follows an
``evaluate --all`` — or a previous benchmark session — skips those
simulations entirely; set ``REPRO_CACHE_DIR`` to relocate the cache or
``REPRO_JOBS`` to bound worker processes.

The ``engine_bench_records`` / ``parallel_bench_records`` /
``turbo_bench_records`` / ``macro_bench_records`` /
``fragstore_bench_records`` / ``codegen_bench_records`` fixtures
collect timing records (filled in by ``test_engine_speedup.py``,
``test_parallel_speedup.py``, ``test_turbo_speedup.py``,
``test_macro_speedup.py``, ``test_codegen_speedup.py`` and the
fragment-store ablation in ``test_ucode_cache_ablation.py``) and write
them through one shared
:func:`write_bench_json` at session teardown, so successive runs leave
machine-readable ``BENCH_*.json`` records with a common schema::

    {
      "machine":  {platform, python, cpu_count, processor},
      "records":  {<record name>: {...timings...}, ...},
      "speedups": {<record name>: <derived speedup>, ...}
    }
"""

import json
import os
import platform
import sys
from pathlib import Path

import pytest

from repro.evaluation.experiments import EvalContext
from repro.evaluation.runcache import RunCache
from repro.evaluation.runner import RunScheduler

_BENCH_DIR = Path(__file__).resolve().parent
ENGINE_BENCH_PATH = _BENCH_DIR / "BENCH_engine.json"
PARALLEL_BENCH_PATH = _BENCH_DIR / "BENCH_parallel.json"
TURBO_BENCH_PATH = _BENCH_DIR / "BENCH_turbo.json"
MACRO_BENCH_PATH = _BENCH_DIR / "BENCH_macro.json"
FRAGSTORE_BENCH_PATH = _BENCH_DIR / "BENCH_fragstore.json"
CODEGEN_BENCH_PATH = _BENCH_DIR / "BENCH_codegen.json"


def _bench_jobs():
    env = os.environ.get("REPRO_JOBS")
    return int(env) if env else None  # None -> os.cpu_count()


def machine_info() -> dict:
    """Hardware/software context a timing record is meaningless without."""
    return {
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "processor": platform.processor() or platform.machine(),
    }


def write_bench_json(path: Path, records: dict) -> None:
    """Write one BENCH_*.json: machine info, timings, derived speedups."""
    payload = {
        "machine": machine_info(),
        "records": records,
        "speedups": {
            name: record["speedup"]
            for name, record in records.items()
            if isinstance(record, dict) and "speedup" in record
        },
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def ctx() -> EvalContext:
    """One evaluation context (all fifteen benchmarks) per session."""
    scheduler = RunScheduler(jobs=_bench_jobs(), cache=RunCache.default())
    return EvalContext(scheduler=scheduler)


def _records_fixture(path: Path):
    records = {}
    yield records
    if records:
        write_bench_json(path, records)


@pytest.fixture(scope="session")
def engine_bench_records():
    """Mutable dict of engine-timing records, dumped as BENCH_engine.json."""
    yield from _records_fixture(ENGINE_BENCH_PATH)


@pytest.fixture(scope="session")
def parallel_bench_records():
    """Scheduler/cache timing records, dumped as BENCH_parallel.json."""
    yield from _records_fixture(PARALLEL_BENCH_PATH)


@pytest.fixture(scope="session")
def turbo_bench_records():
    """Turbo-engine timing records, dumped as BENCH_turbo.json."""
    yield from _records_fixture(TURBO_BENCH_PATH)


@pytest.fixture(scope="session")
def macro_bench_records():
    """Macro-kernel timing records, dumped as BENCH_macro.json."""
    yield from _records_fixture(MACRO_BENCH_PATH)


@pytest.fixture(scope="session")
def fragstore_bench_records():
    """Fragment-store ablation records, dumped as BENCH_fragstore.json."""
    yield from _records_fixture(FRAGSTORE_BENCH_PATH)


@pytest.fixture(scope="session")
def codegen_bench_records():
    """Codegen-layer speedup records, dumped as BENCH_codegen.json."""
    yield from _records_fixture(CODEGEN_BENCH_PATH)
