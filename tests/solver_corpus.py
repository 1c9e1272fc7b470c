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

It takes about a minute and is not collected by pytest.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from test_solver_bits import bits, ic_problem, noisy_problems

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


if __name__ == "__main__":
    records = {label: bits(problem, kwargs) for label, problem, kwargs in corpus()}
    text = json.dumps(records, indent=1) + "\n"
    if len(sys.argv) > 1:
        Path(sys.argv[1]).write_text(text)
    print(hashlib.sha256(text.encode()).hexdigest())
