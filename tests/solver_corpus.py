"""A 382-solve corpus that pins ``solve`` to the bit, summed up in one hash.

Run it on two commits and compare the printed sha256; equal hashes mean
every solve gave the same certified flag, payoff, dual bound, slack,
multiplier, iteration count and qbar bytes (the record format of
``test_solver_bits.py``):

    PYTHONPATH=src python tests/solver_corpus.py [records.json]

With a path, the records are also written there as JSON, so two runs that
disagree can be diffed label by label.  The corpus:

* the 164 points of the SNR sweep: HIR/LIR, log/linear payoff, perfect
  monitoring, 0 to 40 dB in steps of 1 dB;
* the 100 noisy problems of the ``default_rng(1)`` corpus;
* ``min_slack`` 0.05, 0.1 and 0.3 on 36 interference points each
  (HIR/LIR, log/linear, 0 to 40 dB in steps of 5 dB);
* ``stages`` 2 and 16 on 5 interference points each (HIR, log payoff,
  0 to 40 dB in steps of 10 dB).

It takes about 2 s.  This file is not collected by pytest, but
``test_solver_bits.py`` solves the corpus once per session, compares its
hash with ``golden/solver_corpus.sha256`` and checks every record against
the recorded intervals.

Two more modes serve a change of solver algorithm, which cannot keep the
bits (see ``test_solver_bits.py``):

    PYTHONPATH=src python tests/solver_corpus.py --write-intervals
    PYTHONPATH=src python tests/solver_corpus.py --check

The first writes ``golden/solver_intervals.json``: the certified flag,
payoff and dual bound of every corpus solve and of every ``solver_bits.json``
point.  The committed file is the current solver's (a tier-1 test checks
it), so a change of algorithm rewrites it together with the other bit
goldens.  The second checks the current solver against that file at all
382 corpus solves, prints each failing condition and exits with status 1 if
there is one.

    PYTHONPATH=src python tests/solver_corpus.py --counts

prints, for the 164 sweep points (the grid of the benchmark's ``ic-sweep``
workload), the whole corpus and the fresh noisy corpora ``default_rng(2)``
and ``default_rng(3)`` (200 problems each): the certified solves, the inner
solves (multipliers tried, counted by wrapping ``optimizer._x2_step``), the
inner steps, split into the noisy cells' steps and the x2 steps (counted by
wrapping ``optimizer._cell_step`` and ``_x2_step``), the solve that tried
the most multipliers, the longest search after the first feasible
multiplier (the inner solves after the first one whose returned gap plus
``min_slack`` is feasible) and the slowest solve in process.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

from codedpc import FEASIBILITY_TOL, ConvergenceError, optimizer, solve
from test_solver_bits import (
    INTERVALS,
    bits,
    golden_point_bits,
    ic_problem,
    interval_violations,
    noisy_problems,
    tol_payoff,
)

COMBOS = [(regime, form) for regime in ("hir", "lir") for form in ("log", "linear")]


def corpus():
    for regime, form in COMBOS:
        for snr in range(41):
            yield f"sweep-{regime}-{form}-{snr}dB", ic_problem(regime, form, snr), {}
    for i, problem in enumerate(noisy_problems(1, 100)):
        yield f"noisy-1-{i}", problem, {}
    for slack in (0.05, 0.1, 0.3):
        for regime, form in COMBOS:
            for snr in range(0, 41, 5):
                yield (f"min-slack-{slack}-{regime}-{form}-{snr}dB",
                       ic_problem(regime, form, snr), {"min_slack": slack})
    for stages in (2, 16):
        for snr in range(0, 41, 10):
            yield f"stages-{stages}-hir-log-{snr}dB", ic_problem("hir", "log", snr), {
                "stages": stages
            }


@functools.cache
def corpus_bits() -> dict:
    return {label: bits(problem, kwargs) for label, problem, kwargs in corpus()}


def corpus_text() -> str:
    return json.dumps(corpus_bits(), indent=1) + "\n"


def interval(record: dict) -> dict:
    return {k: record[k] for k in ("certified", "payoff", "dual_bound")}


def intervals() -> dict:
    """The content of ``golden/solver_intervals.json`` as the current solver
    writes it."""
    return {
        "corpus": {label: interval(r) for label, r in corpus_bits().items()},
        "golden_points": {label: interval(r) for label, r in golden_point_bits().items()},
    }


def violations() -> list[str]:
    """Each failing condition of ``interval_violations`` at a corpus solve,
    against ``golden/solver_intervals.json``."""
    recorded = json.loads(INTERVALS.read_text())["corpus"]
    actual = corpus_bits()
    assert list(actual) == list(recorded)
    return [
        f"{label}: {violation}"
        for label, _, kwargs in corpus()
        for violation in interval_violations(recorded[label], actual[label], tol_payoff(kwargs))
    ]


def check() -> int:
    failed = violations()
    for line in failed:
        print(line)
    print(f"{len(failed)} violations over {len(corpus_bits())} solves")
    return 1 if failed else 0


def solve_counts(problems) -> dict:
    """Counts of ``solve`` over (label, problem, kwargs) triples."""
    x2_step, cell_step = optimizer._x2_step, optimizer._cell_step
    inner_solves, first_feasible, split = [], [], {"cell": 0, "x2": 0}

    def counted_cells(*args):
        out = cell_step(*args)
        split["cell"] += out[3]
        return out

    def counted(*args):
        out = x2_step(*args)
        inner_solves[-1] += 1
        split["x2"] += out[3]
        # out[1] is the maximizer's gap and args[6] the offset, min_slack
        if first_feasible[-1] is None and out[1] + args[6] <= FEASIBILITY_TOL:
            first_feasible[-1] = inner_solves[-1]
        return out

    certified = steps = 0
    most, longest, slowest = (0, ""), (0, ""), (0.0, "")
    optimizer._x2_step, optimizer._cell_step = counted, counted_cells
    try:
        for label, problem, kwargs in problems:
            inner_solves.append(0)
            first_feasible.append(None)
            start = time.perf_counter()
            try:
                result = solve(*problem, **kwargs)
            except ConvergenceError as exc:
                result = exc.result
            seconds = time.perf_counter() - start
            certified += result is not None and result.converged
            steps += result.iterations if result is not None else 0
            most = max(most, (inner_solves[-1], label))
            if first_feasible[-1] is not None:
                longest = max(longest, (inner_solves[-1] - first_feasible[-1], label))
            slowest = max(slowest, (seconds, label))
    finally:
        optimizer._x2_step, optimizer._cell_step = x2_step, cell_step
    return {"solves": len(inner_solves), "certified": certified,
            "inner_solves": sum(inner_solves), "inner_steps": steps,
            "cell_steps": split["cell"], "x2_steps": split["x2"],
            "most": most, "longest": longest, "slowest": slowest}


def count_line(name: str, problems) -> str:
    """One ``--counts`` line over (label, problem, kwargs) triples."""
    c = solve_counts(problems)
    return (f"{name}: {c['certified']}/{c['solves']} certified, "
            f"{c['inner_solves']:,} inner solves, {c['inner_steps']:,} inner steps "
            f"({c['cell_steps']:,} cell, {c['x2_steps']:,} x2), "
            f"most multipliers {c['most'][0]} ({c['most'][1]}), "
            f"longest search {c['longest'][0]} ({c['longest'][1]}), "
            f"slowest {c['slowest'][0]:.3f} s ({c['slowest'][1]})")


def sweep():
    """The 164 points of the SNR sweep, the grid of perfbench's ic-sweep."""
    return (case for case in corpus() if case[0].startswith("sweep-"))


def counts() -> None:
    print(count_line("sweep", sweep()))
    print(count_line("corpus", corpus()))
    for seed in (2, 3):
        fresh = ((f"noisy-{seed}-{i}", problem, {})
                 for i, problem in enumerate(noisy_problems(seed, 200)))
        print(count_line(f"default_rng({seed})", fresh))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Print the sha256 of the solver corpus, or run one of its other modes."
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--counts", action="store_true",
                      help="print solve counts for the corpus and two fresh noisy corpora")
    mode.add_argument("--write-intervals", action="store_true",
                      help=f"write {INTERVALS.name} from the current solver")
    mode.add_argument("--check", action="store_true",
                      help=f"check the current solver against {INTERVALS.name}")
    mode.add_argument("records", nargs="?", type=Path,
                      help="also write the corpus records to this JSON file")
    args = parser.parse_args()
    if args.counts:
        counts()
        sys.exit(0)
    if args.write_intervals:
        INTERVALS.write_text(json.dumps(intervals(), indent=1) + "\n")
        sys.exit(0)
    if args.check:
        sys.exit(check())
    text = corpus_text()
    if args.records:
        args.records.write_text(text)
    print(hashlib.sha256(text.encode()).hexdigest())
