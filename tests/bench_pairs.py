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
run (its seed, its checks, its metrics, the raw ``wall_clock_s`` and the
reference clock's ``speed_median`` from its report, its exact counts), and per
workload and metric the median and quartiles of each side, the change's
median over the parent's, the parent's interquartile range, the pairs
in which the change read lower or higher, and ``gain_rule_met``, the rule
a claimed gain of a lower-is-better metric must meet: the change read
lower in at least 9 of every 10 pairs and its median is below the parent's
by more than the parent's interquartile range; per workload also whether each
side's exact counts are constant over its own runs (``counts_equal``),
which counts differ between the sides (``counts_moved``), and whether the
reference and raw clocks agree (``clocks_agree``: the median ratios of
``wall_s`` and ``wall_clock_s`` fall on the same side of 1; null when a
ratio is missing).  Per workload, ``calls`` holds each side's profiled calls
of one warm pass (``call_counts.py``, run once per side before the pairs)
and the change's over the parent's.  Each call makes one series of one
seed; a series of another seed is a separate document.
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
    # raw seconds and the reference clock's speed, so that a gain in wall_s
    # can be read in raw seconds too
    record.update({name: report["workload_metrics"][name]["value"]
                   for name in ("wall_clock_s", "speed_median")})
    record["counts"] = report["counts"]
    if "seed1_reference" in report:
        record["seed1_reference"] = report["seed1_reference"]
    return record


def call_count(checkout: Path, workload: str, seed: int) -> int | None:
    """``call_counts.py``'s profiled calls of ``workload`` in ``checkout``,
    None if it fails."""
    argv = [sys.executable, str(Path(__file__).with_name("call_counts.py")), str(checkout),
            "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    return json.loads(proc.stdout)["total_calls"] if proc.returncode == 0 else None


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: list, calls: dict | None = None) -> dict:
    """Per workload and metric, both sides' medians and quartiles over the
    pairs that have both runs, and how the pairs compare; with ``calls``
    (workload -> side -> profiled calls), each side's calls and their ratio."""
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
            parent_median, change_median = statistics.median(parent), statistics.median(change)
            iqr = quartiles[1] - quartiles[0]
            lower = sum(c < p for p, c in zip(parent, change))
            entry[name] = {
                "parent_median": parent_median,
                "parent_quartiles": quartiles,
                "change_median": change_median,
                "change_quartiles": _quartiles(change),
                "ratio": change_median / parent_median if parent_median else None,
                "parent_iqr": iqr,
                "pairs": len(both),
                "change_lower": lower,
                "change_higher": sum(c > p for p, c in zip(parent, change)),
                "gain_rule_met": 10 * lower >= 9 * len(both) and parent_median - change_median > iqr,
            }
        entry["failed"] = {s: sum(r.get("failed", 0) for r in sides[s].values()) for s in sides}
        entry["all_correct"] = all(r["correct"] and r["returncode"] == 0 for r in mine)
        # per side: its exact counts are the same in all its runs; a change
        # of algorithm may move a count between the sides on purpose
        seen = {s: [r.get("counts") or {} for r in sides[s].values()] for s in sides}
        entry["counts_equal"] = {
            s: len({json.dumps(c, sort_keys=True) for c in seen[s]}) <= 1 for s in sides
        }
        entry["counts_moved"] = [
            k for k in dict.fromkeys(k for s in sides for c in seen[s] for k in c)
            if {json.dumps(c.get(k)) for c in seen["parent"]}
            != {json.dumps(c.get(k)) for c in seen["change"]}
        ]
        # a gain read in reference seconds should hold in raw seconds too
        ratios = [entry.get(name, {}).get("ratio") for name in ("wall_s", "wall_clock_s")]
        entry["clocks_agree"] = (None if None in ratios
                                 else len({(r > 1) - (r < 1) for r in ratios}) == 1)
        if calls and workload in calls:
            parent, change = (calls[workload].get(s) for s in ("parent", "change"))
            entry["calls"] = {"parent": parent, "change": change,
                              "ratio": change / parent if parent and change is not None else None}
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

    runs, calls = [], {}
    for workload in args.workload:
        calls[workload] = {side: call_count(getattr(args, side), workload, args.seed)
                           for side in ("parent", "change")}
        print(f"{workload} calls: {calls[workload]}", file=sys.stderr)
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                record = run_once(getattr(args, side), workload, args.seed, args.trace)
                runs.append({"workload": workload, "side": side, "pair": pair, "first": order[0],
                             "seed": args.seed, "trace": args.trace, **record})
                print(f"{workload} pair {pair} {side}: wall_s {record.get('wall_s')}",
                      file=sys.stderr)
    summary = summarize(runs, calls) if args.trace == 0 else {}
    sys.stdout.write(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
