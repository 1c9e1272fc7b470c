#!/usr/bin/env python3
"""Alternate benchmark runs between two checkouts and summarize the pairs.

    python tests/bench_pairs.py PARENT_DIR CHANGE_DIR --workload coding-binary --pairs 10

Each directory is a checkout of this repository.  Pair i runs
``perfbench/run.py --workload W --seed S --trace T`` in each checkout, one
run at a time, the parent first when i is even and the change first when
it is odd; the run length is the benchmark's own.  ``--workload`` may be
given more than once; the workloads run one after the other.  Runs made
with ``--trace 1`` are recorded with their per-layer metrics but left out
of the summary.

The result, printed to stdout, is the JSON object ``{"runs": [...],
"summary": {...}}`` that a ``BENCH_*.json`` file carries: one record per
run (its seed, its checks, its metrics, its exact counts), and per
workload and metric the median and quartiles of each side, the change's
median over the parent's, the parent's interquartile range, and the pairs
in which the change read lower or higher.  Each call makes one series of
one seed; a series of another seed is a separate document.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Fields of a run record that are not metrics.
_FIELDS = {"workload", "side", "pair", "first", "seed", "trace", "elapsed_s", "returncode", "correct",
           "attempted", "failed", "counts", "seed1_reference", "error"}


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``, as a run record."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    record = {"elapsed_s": round(time.perf_counter() - start, 1), "returncode": proc.returncode}
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return {**record, "correct": False, "error": proc.stderr[-2000:]}
    report, line = json.loads(lines[-2]), json.loads(lines[-1])
    record.update(correct=line["correct"], attempted=line["attempted"], failed=line["failed"])
    record.update({name: m["value"] for name, m in line["metrics"].items()})
    record["counts"] = report["counts"]
    if "seed1_reference" in report:
        record["seed1_reference"] = report["seed1_reference"]
    return record


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: list) -> dict:
    """Per workload and metric, both sides' medians and quartiles over the
    pairs that have both runs, and how the pairs compare."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        sides = {s: {r["pair"]: r for r in mine if r["side"] == s} for s in ("parent", "change")}
        pairs = sorted(set(sides["parent"]) & set(sides["change"]))
        entry = {}
        names = [k for r in mine for k in r if k not in _FIELDS]
        for name in dict.fromkeys(names):
            both = [p for p in pairs if name in sides["parent"][p] and name in sides["change"][p]]
            if not both:
                continue
            parent = [sides["parent"][p][name] for p in both]
            change = [sides["change"][p][name] for p in both]
            quartiles = _quartiles(parent)
            entry[name] = {
                "parent_median": statistics.median(parent),
                "parent_quartiles": quartiles,
                "change_median": statistics.median(change),
                "change_quartiles": _quartiles(change),
                "ratio": statistics.median(change) / statistics.median(parent)
                if statistics.median(parent) else None,
                "parent_iqr": quartiles[1] - quartiles[0],
                "pairs": len(both),
                "change_lower": sum(c < p for p, c in zip(parent, change)),
                "change_higher": sum(c > p for p, c in zip(parent, change)),
            }
        entry["failed"] = {s: sum(r.get("failed", 0) for r in sides[s].values()) for s in sides}
        entry["all_correct"] = all(r["correct"] and r["returncode"] == 0 for r in mine)
        entry["counts_equal"] = len({json.dumps(r.get("counts"), sort_keys=True) for r in mine}) == 1
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload; may be repeated")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runs = []
    for workload in args.workload:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                record = run_once(getattr(args, side), workload, args.seed, args.trace)
                runs.append({"workload": workload, "side": side, "pair": pair, "first": order[0],
                             "seed": args.seed, "trace": args.trace, **record})
                print(f"{workload} pair {pair} {side}: wall_s {record.get('wall_s')}",
                      file=sys.stderr)
    summary = summarize(runs) if args.trace == 0 else {}
    sys.stdout.write(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
