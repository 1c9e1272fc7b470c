#!/usr/bin/env python3
"""Print the profiled calls of one warm pass of a benchmark workload.

    python tests/call_counts.py CHECKOUT --workload noisy-random [--seed 1]

CHECKOUT is a checkout of this repository.  Its ``src`` and ``perfbench``
directories go first on ``sys.path``, so the count is of that checkout's
program; its ``bench_workloads`` module is imported and only read.  One pass
over the workload's units warms what the first call builds (the CLI's
parser, numpy's lazy imports); a second pass runs under cProfile, and its
``total_calls`` is printed as the JSON object ``{"workload": ...,
"total_calls": ...}``.  ``--tiny`` takes the workload's small test inputs.

The count is deterministic.  It counts calls of Python functions and of C
functions and methods (``np.where``, ``ndarray.sum``, ``ufunc.reduce``), not
direct ufunc calls (``np.log(x)``) or operators, so it sees per-call
overhead, and a change to comments alone reads 0.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
from pathlib import Path


def total_calls(checkout: Path, workload: str, seed: int, tiny: bool = False) -> int:
    """cProfile's ``total_calls`` over the second pass of ``workload``'s
    units, from ``checkout``'s program."""
    checkout = checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import bench_workloads

    units = bench_workloads.WORKLOADS[workload](seed, tiny=tiny).units
    for unit in units:
        unit.call()
    profile = cProfile.Profile()
    profile.enable()
    for unit in units:
        unit.call()
    profile.disable()
    return pstats.Stats(profile).total_calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="checkout of this repository")
    parser.add_argument("--workload", required=True, help="a perfbench workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tiny", action="store_true", help="the workload's small test inputs")
    args = parser.parse_args(argv)
    calls = total_calls(args.checkout, args.workload, args.seed, args.tiny)
    print(json.dumps({"workload": args.workload, "total_calls": calls}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
