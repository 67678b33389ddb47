"""Reproducibility check: two back-to-back sets of runs of the same code.

Runs ``run.py`` once per (set, workload, seed), tracing off, saves each
full record, and reports for every end-to-end metric:

* ``spread``: the distance between the first and third quartile of the
  set's values (``statistics.quantiles(values, n=4)``) as a share of
  their median.  It must stay within the metric's bound and should stay
  below a third of it;
* ``shift``: how much worse the second set's median is than the first's,
  as a share of the first.  It must stay within the bound.

Records from machines with unlike fingerprints are flagged: such sets
do not compare.  ``--compare A B`` analyses two directories of saved
records (say, parent and change) without running anything.

    python3 perfbench/repro_check.py --seeds 10
    python3 perfbench/repro_check.py --compare before/ after/
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _values(records, workload, metric):
    return [r["metrics"][metric]["value"] for r in records
            if r["workload"] == workload]


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def analyse(set_a: list, set_b: list) -> bool:
    """Print the spread/shift table; True when every check holds."""
    ok = True
    prints = {json.dumps(r["fingerprint"], sort_keys=True)
              for r in set_a + set_b}
    if len(prints) > 1:
        base = (set_a + set_b)[0]["fingerprint"]
        for record in set_a + set_b:
            unlike = run.unlike_fingerprints(base, record["fingerprint"])
            if unlike:
                print(f"WARNING: unlike fingerprints ({', '.join(unlike)}): "
                      f"{record['workload']} seed {record['seed']}")
    workloads = sorted({r["workload"] for r in set_a})
    print(f"{'workload':<14}{'metric':<16}{'median A':>12}{'spread A':>10}"
          f"{'median B':>12}{'spread B':>10}{'shift':>8}{'bound':>7}")
    for workload in workloads:
        for name, _, better, bound in run.END_TO_END:
            a = _values(set_a, workload, name)
            b = _values(set_b, workload, name)
            if len(a) < 2 or len(b) < 2:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            sp_a, sp_b = spread(a), spread(b)
            worse = (med_b - med_a) if better == "lower" else (med_a - med_b)
            shift = worse / med_a
            flags = []
            if max(sp_a, sp_b) > bound:
                flags.append("SPREAD>BOUND")
            elif max(sp_a, sp_b) > bound / 3:
                flags.append("spread>bound/3")
            if shift > bound:
                flags.append("SHIFT>BOUND")
            if any(f.isupper() for f in flags):
                ok = False
            print(f"{workload:<14}{name:<16}{med_a:>12.5g}{sp_a:>10.3f}"
                  f"{med_b:>12.5g}{sp_b:>10.3f}{shift:>8.3f}{bound:>7.2f}"
                  f"  {' '.join(flags)}")
    failed = sum(r["failed"] for r in set_a + set_b)
    attempted = sum(r["attempted"] for r in set_a + set_b)
    print(f"requests: {attempted} attempted, {failed} failed")
    return ok and failed == 0


def _load(directory: Path) -> list:
    return [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default=str(run.ROOT / ".bench_work"
                                             / "repro_check"),
                        help="directory for the saved records")
    parser.add_argument("--compare", nargs=2, metavar="DIR", default=None,
                        help="analyse two saved record directories")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (_load(Path(d)) for d in args.compare)
        return 0 if analyse(a, b) else 1

    out = Path(args.out)
    sets = []
    for set_name in ("A", "B"):
        directory = out / set_name
        directory.mkdir(parents=True, exist_ok=True)
        for workload, _ in run.WORKLOADS:
            for seed in range(1, args.seeds + 1):
                path = directory / f"{workload}-{seed}.json"
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(run.RUN_SECONDS), "--trace", "0",
                     "--out", str(path)],
                    cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
                last = proc.stdout.strip().splitlines()[-1:]
                print(f"set {set_name} {workload} seed {seed}: exit "
                      f"{proc.returncode} {' '.join(last)}", flush=True)
        sets.append(_load(directory))
    return 0 if analyse(*sets) else 1


if __name__ == "__main__":
    sys.exit(main())
