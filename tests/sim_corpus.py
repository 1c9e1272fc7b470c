"""A simulator corpus that pins ``coding.run`` to the bit, summed up in one hash.

Run it on two commits and compare the printed sha256; equal hashes mean
every run gave the same report (``run(cfg).to_dict()``: every block's
encoded and decoded index, candidate count and flags, the TV distance and
the average payoff):

    PYTHONPATH=src python tests/sim_corpus.py [reports.json]

With a path, the reports are also written there as JSON, so two runs that
disagree can be diffed label by label.  The corpus:

* the binary benchmark configuration (n = 400, 40 blocks, rate 0.025,
  epsilon 0.5) at seeds 1 to 10;
* every ``SIM_RUNS`` configuration of ``test_golden.py``, at the default
  chunk size and with chunks of 8 KiB, so that each codebook spans
  several chunks;
* the golden ``simulate`` argv (the 16-state solver target at 10 dB) at
  seeds 0, 1 and 2.

It takes about 8 s.  This file is not collected by pytest, but
``test_golden.py`` runs the corpus and compares its hash with
``golden/sim_corpus.sha256``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

from codedpc import coding
from codedpc.cli import build_parser, cmd_simulate
from test_golden import GOLDEN_RUNS, SIM_RUNS, _binary_config

SMALL_CHUNK_BYTES = 1 << 13


def corpus():
    for seed in range(1, 11):
        yield f"binary-n400-seed{seed}", lambda s=seed: _binary_config(400, s, 40, 0.025, 0.5)
    for name in sorted(SIM_RUNS):
        yield name, SIM_RUNS[name]
    for name in sorted(SIM_RUNS):
        yield f"{name}-chunk{SMALL_CHUNK_BYTES}", SIM_RUNS[name], SMALL_CHUNK_BYTES


def simulate_reports():
    argv = list(GOLDEN_RUNS["simulate_solver_snr10_n40_b40.json"])
    for seed in (0, 1, 2):
        args = build_parser().parse_args([*argv, "--sim-seed", str(seed)])
        yield f"simulate-seed{seed}", json.loads(cmd_simulate(args))["result"]


def reports():
    out = {}
    default = coding._CHUNK_BYTES
    for label, make_config, *chunk_bytes in corpus():
        coding._CHUNK_BYTES = chunk_bytes[0] if chunk_bytes else default
        try:
            out[label] = coding.run(make_config()).to_dict()
        finally:
            coding._CHUNK_BYTES = default
    out.update(simulate_reports())
    return out


def corpus_text() -> str:
    return json.dumps(reports(), sort_keys=True, indent=1) + "\n"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the sha256 of the simulator corpus.")
    parser.add_argument("reports", nargs="?", type=Path,
                        help="also write the corpus reports to this JSON file")
    args = parser.parse_args()
    text = corpus_text()
    if args.reports:
        args.reports.write_text(text)
    print(hashlib.sha256(text.encode()).hexdigest())
