#!/usr/bin/env python3
"""Compare benchmark results, or summarise one set of them.

    python3 bench/compare.py RUNS.log              # medians and spreads
    python3 bench/compare.py BASE.log NEW.log      # ratios NEW/BASE

A log is the captured stdout of any number of ``bench/run.py`` runs, e.g.

    for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 bench/run.py --workload emit --seed $s --seconds 20 --trace 0 >> base.log
    done

For each workload (one row each) every end-to-end metric is printed as
NEW/BASE next to the BASE median.  The spread of a side is the distance
between the first and third quartiles of its runs as a share of its median;
a metric whose spread on either side exceeds its bound in BENCHMARK.json is
marked unresolved (``?``), unless every NEW run beats every BASE run.

Traced runs (--trace 1) of the same workload and seed are checked for
determinism, within one log or across two: their exact counts must be
identical.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

EXACT_COUNTS = (
    "rational.ops", "poly.mul.calls", "genfunc.mul.calls", "integrals.quad.evals",
    "families.repeat_frac", "cli.out_bytes",
)


def load(path: str) -> list[dict]:
    """(detail, result) pairs from a log, one per workload run.  A run of
    ``--workload all`` prints its detail lines and then one result line
    keyed by workload."""
    runs, details = [], {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "detail" in obj:
                details[obj["detail"]["workload"]] = obj["detail"]
                continue
            results = {next(iter(details), None): obj} if "metrics" in obj else obj
            for workload, result in results.items():
                detail = details.pop(workload, None)
                if detail is None:
                    continue
                runs.append({"detail": detail, "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                             "correct": result["correct"], "failed": result["failed"],
                             "attempted": result["attempted"]})
            details = {}
    return runs


def by_workload(runs: list[dict], trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for run in runs:
        if run["detail"]["trace"] == trace:
            out.setdefault(run["detail"]["workload"], []).append(run)
    return out


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("inf")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def summarise(runs: list[dict], bounds: dict) -> None:
    for workload, group in by_workload(runs, 0).items():
        bad = sum(not r["correct"] for r in group)
        print(f"{workload}: {len(group)} runs, {bad} not correct, "
              f"failed {sum(r['failed'] for r in group)} of {sum(r['attempted'] for r in group)}")
        for name, (unit, _better, bound) in bounds.items():
            values = [r["metrics"][name] for r in group]
            s = spread(values)
            flag = "" if s <= bound else "  over bound"
            print(f"  {name:12s} median {statistics.median(values):12.6g} {unit:5s} "
                  f"spread {s:7.2%} (bound {bound:.0%}, bound/3 {bound / 3:.1%}){flag}")


def compare(base: list[dict], new: list[dict], bounds: dict) -> None:
    base_w, new_w = by_workload(base, 0), by_workload(new, 0)
    for workload in base_w:
        if workload not in new_w:
            continue
        cells = []
        for name, (unit, better, bound) in bounds.items():
            b = [r["metrics"][name] for r in base_w[workload]]
            n = [r["metrics"][name] for r in new_w[workload]]
            ratio = statistics.median(n) / statistics.median(b)
            clear_win = max(n) < min(b) if better == "lower" else min(n) > max(b)
            unresolved = (spread(b) > bound or spread(n) > bound) and not clear_win
            cells.append(f"{name} {ratio:.3f}x{'?' if unresolved else ''} (base {statistics.median(b):.4g} {unit})")
        fails = [sum(r["failed"] for r in g) / sum(r["attempted"] for r in g) for g in (base_w[workload], new_w[workload])]
        cells.append(f"failed_frac {fails[0]:.4g} -> {fails[1]:.4g}")
        print(f"{workload:10s} " + "  ".join(cells))


def check_determinism(runs: list[dict]) -> None:
    """Compare the exact counts of every traced run with the first traced run
    of the same workload and seed."""
    def counts(run):
        m = run["metrics"]
        return {k: v for k, v in m.items() if k in EXACT_COUNTS or (k.startswith("suite.") and k.endswith(".ids"))}

    first: dict[tuple, dict] = {}
    for run in runs:
        if run["detail"]["trace"] != 1:
            continue
        key = (run["detail"]["workload"], run["detail"]["seed"])
        if key not in first:
            first[key] = run
            continue
        a, b = counts(first[key]), counts(run)
        diffs = [f"{k}: {a[k]} -> {b.get(k)}" for k in a if a[k] != b.get(k)]
        print(f"determinism {key[0]} seed {key[1]}: " + ("identical" if not diffs else "DIFFERENT " + "; ".join(diffs)))


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    runs = [load(path) for path in argv]
    if len(runs) == 1:
        summarise(runs[0], bounds)
    else:
        compare(runs[0], runs[1], bounds)
    check_determinism([run for log in runs for run in log])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
